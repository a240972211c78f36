import pytest

from amalgams import fingroup as fg
from amalgams import graphgroups as gg
from amalgams.errors import NotConnected, NotSubgroup, WrongShape


def trivial_edge(name, orig, term, vertex_group):
    t = fg.cyclic(1)
    return gg.Edge(name, orig, term, t,
                   fg.GroupHom(t, vertex_group[orig], (0,)),
                   fg.GroupHom(t, vertex_group[term], (0,)))


def graph_of(vertices, ends):
    """Vertices carrying C2 and one trivial edge ``e{i}`` per (orig, term)
    in ``ends``."""
    vgs = {v: fg.cyclic(2) for v in vertices}
    return gg.make_group_graph(
        vgs, [trivial_edge(f"e{i}", x, y, vgs) for i, (x, y) in enumerate(ends)])


def segment_graph():
    return graph_of(("u", "v"), [("u", "v")])


def loop_graph():
    return graph_of(("u",), [("u", "u")])


def triangle_graph():
    return graph_of(("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")])


class TestGraph:
    def test_rejects_disconnected(self):
        with pytest.raises(NotConnected):
            graph_of(("u", "v"), [])

    def test_rejects_empty(self):
        with pytest.raises(NotConnected):
            graph_of((), [])

    def test_rejects_unknown_endpoint(self):
        """A library error, not the KeyError of a vertex lookup."""
        c2 = fg.cyclic(2)
        edge = trivial_edge("e0", "u", "w", {"u": c2, "w": c2})
        with pytest.raises(NotConnected, match="'w' is not a vertex"):
            gg.make_group_graph({"u": c2}, [edge])

    def test_rejects_repeated_edge_name(self):
        """The presentation would list the stable letter t_e0 twice."""
        vgs = {"u": fg.cyclic(2)}
        loop = trivial_edge("e0", "u", "u", vgs)
        with pytest.raises(WrongShape, match="two edges are named e0"):
            gg.make_group_graph(vgs, [loop, loop])


class TestMaximalTree:
    def test_segment(self):
        assert gg.maximal_tree(segment_graph()) == frozenset({"e0"})

    def test_loop(self):
        assert gg.maximal_tree(loop_graph()) == frozenset()

    def test_triangle(self):
        tree = gg.maximal_tree(triangle_graph())
        assert tree == frozenset({"e0", "e2"})

    def test_deterministic(self):
        assert gg.maximal_tree(triangle_graph()) == \
            gg.maximal_tree(triangle_graph())

    def test_ends_tried_in_inverse_name_order(self):
        """At u the origin end of e0 (ordered as "e0") comes before the
        terminal end of e (ordered as "ebar"), so e0 is the tree edge and e
        gets the stable letter; plain name order would keep e instead."""
        c2 = fg.cyclic(2)
        vgs = {"u": c2, "v": c2}
        graph = gg.make_group_graph(vgs, [trivial_edge("e", "v", "u", vgs),
                                          trivial_edge("e0", "u", "v", vgs)])
        assert gg.maximal_tree(graph) == frozenset({"e0"})
        text = gg.presentation_text(gg.fundamental_presentation(graph))
        assert text.splitlines()[0] == "< u_g1 v_g1 t_e |"


class TestFundamentalPresentation:
    def test_amalgam_shape(self, amalg1):
        pres = gg.fundamental_presentation(gg.amalgam_as_group_graph(amalg1))
        assert pres.stable_letters == ()
        # one identification per nontrivial amalgam element
        assert len(pres.edge_relators) == len(amalg1.A) - 1
        assert set(pres.generators) == {
            gg.symbol(v, e) for v, G in pres.vertex_groups
            for e in range(1, G.order)}

    def test_amalgam_matches_direct_presentation(self, amalg1):
        via_graph = gg.fundamental_presentation(
            gg.amalgam_as_group_graph(amalg1))
        direct = gg.amalgam_presentation(amalg1)
        assert sorted(via_graph.edge_relators) == sorted(direct.edge_relators)
        assert dict(via_graph.vertex_groups) == dict(direct.vertex_groups)

    def test_hnn_loop_gets_stable_letter(self):
        c2 = fg.cyclic(2)
        emb = fg.GroupHom(c2, c2, (0, 1))
        ggraph = gg.make_group_graph(
            {"u": c2}, [gg.Edge("e0", "u", "u", c2, emb, emb)])
        pres = gg.fundamental_presentation(ggraph)
        assert pres.stable_letters == ("t_e0",)
        assert pres.edge_relators == (
            (("t_e0", -1), (gg.symbol("u", 1), 1), ("t_e0", 1),
             (gg.symbol("u", 1), -1)),)

    def test_free_product_trivial_edge_group(self):
        vgs = {"u": fg.cyclic(2), "v": fg.cyclic(3)}
        pres = gg.fundamental_presentation(gg.make_group_graph(
            vgs, [trivial_edge("e0", "u", "v", vgs)]))
        assert pres.edge_relators == () and pres.stable_letters == ()

    def test_triangle_tree_leaves_one_stable_letter(self):
        pres = gg.fundamental_presentation(triangle_graph())
        assert pres.stable_letters == ("t_e1",)

    def test_group_graph_axioms_enforced(self):
        c2, c3 = fg.cyclic(2), fg.cyclic(3)
        vgs = {"u": c2, "v": c3}
        e_c2 = fg.GroupHom(c2, c2, (0, 1))
        bad_tau = fg.GroupHom(c2, c3, (0, 0))
        with pytest.raises(NotSubgroup, match="injective"):
            gg.make_group_graph(vgs, [gg.Edge("e0", "u", "v", c2, e_c2,
                                              bad_tau)])
        with pytest.raises(NotSubgroup, match="tau target"):
            gg.make_group_graph(vgs, [gg.Edge("e0", "u", "v", c2, e_c2,
                                              e_c2)])
        c4 = fg.cyclic(4)
        not_hom = fg.GroupHom(c2, c4, (0, 1))  # injective, but 1 + 1 = 2 != 0
        with pytest.raises(NotSubgroup, match="rho is not a homomorphism"):
            gg.make_group_graph({"u": c4}, [gg.Edge(
                "e0", "u", "u", c2, not_hom, fg.GroupHom(c2, c4, (0, 2)))])


class TestRendering:
    def test_presentation_text_deterministic(self, amalg1):
        pres = gg.amalgam_presentation(amalg1)
        t1 = gg.presentation_text(pres)
        t2 = gg.presentation_text(gg.amalgam_presentation(amalg1))
        assert t1 == t2
        assert t1.startswith("< ") and t1.endswith(">")
