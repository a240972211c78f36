import pickle

import pytest

from amalgams import fingroup as fg
from amalgams import graphgroups as gg
from amalgams.errors import InvalidTree, NotConnected, NotSubgroup, WrongShape


def segment_graph():
    return gg.make_graph(
        ("u", "v"), ("e0", "e0bar"),
        {"e0": "e0bar", "e0bar": "e0"},
        {"e0": "u", "e0bar": "v"},
        {"e0": "v", "e0bar": "u"})


def loop_graph():
    return gg.make_graph(
        ("u",), ("e0", "e0bar"),
        {"e0": "e0bar", "e0bar": "e0"},
        {"e0": "u", "e0bar": "u"},
        {"e0": "u", "e0bar": "u"})


def triangle_graph():
    verts = ("a", "b", "c")
    edges, inv, orig, term = [], {}, {}, {}
    for i, (x, y) in enumerate([("a", "b"), ("b", "c"), ("c", "a")]):
        e, ebar = f"e{i}", f"e{i}bar"
        edges += [e, ebar]
        inv[e], inv[ebar] = ebar, e
        orig[e], term[e] = x, y
        orig[ebar], term[ebar] = y, x
    return gg.make_graph(verts, edges, inv, orig, term)


def trivial_edge_data(graph, vertex_group):
    t = fg.cyclic(1)
    eg, rho, tau = {}, {}, {}
    for e in graph.edges:
        eg[e] = t
        rho[e] = fg.GroupHom(t, vertex_group[graph.orig_of(e)], (0,))
        tau[e] = fg.GroupHom(t, vertex_group[graph.term_of(e)], (0,))
    return eg, rho, tau


class TestGraph:
    def test_rejects_self_inverse_edge(self):
        with pytest.raises(InvalidTree):
            gg.make_graph(("u",), ("e",), {"e": "e"}, {"e": "u"}, {"e": "u"})

    def test_rejects_disconnected(self):
        with pytest.raises(NotConnected):
            gg.make_graph(("u", "v"), (), {}, {}, {})

    def test_rejects_mismatched_inverse_endpoints(self):
        with pytest.raises(InvalidTree):
            gg.make_graph(
                ("u", "v"), ("e", "ebar"),
                {"e": "ebar", "ebar": "e"},
                {"e": "u", "ebar": "u"},
                {"e": "v", "ebar": "v"})


class TestStoredMaps:
    """The lookups read dicts built once per instance; the stored dicts
    leave equality, hashing and pickling as they were."""

    def test_graph_maps(self):
        built, fresh = triangle_graph(), triangle_graph()
        for e in built.edges:
            assert built.inv_of(e) == dict(built.inv)[e]
            assert built.orig_of(e) == dict(built.orig)[e]
            assert built.term_of(e) == dict(built.term)[e]
        assert "_maps" in vars(built) and "_maps" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert pickle.loads(pickle.dumps(built)) == fresh
        assert pickle.loads(pickle.dumps(fresh)) == built

    def test_group_graph_maps(self, amalg1):
        built = gg.amalgam_as_group_graph(amalg1)
        fresh = gg.amalgam_as_group_graph(amalg1)
        for v in built.graph.vertices:
            assert built.group_at(v) == dict(built.vertex_group)[v]
        for e in built.graph.edges:
            assert built.edge_group_of(e) == dict(built.edge_group)[e]
            assert built.rho_of(e) == dict(built.rho)[e]
            assert built.tau_of(e) == dict(built.tau)[e]
        assert "_maps" in vars(built) and "_maps" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert pickle.loads(pickle.dumps(built)) == fresh
        assert pickle.loads(pickle.dumps(fresh)) == built


class TestMaximalTree:
    def test_segment(self):
        assert gg.maximal_tree(segment_graph()) == frozenset({"e0", "e0bar"})

    def test_loop(self):
        assert gg.maximal_tree(loop_graph()) == frozenset()

    def test_triangle(self):
        tree = gg.maximal_tree(triangle_graph())
        assert len(tree) == 4
        assert all(triangle_graph().inv_of(e) in tree for e in tree)

    def test_deterministic(self):
        assert gg.maximal_tree(triangle_graph()) == \
            gg.maximal_tree(triangle_graph())


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
        graph = loop_graph()
        emb = fg.GroupHom(c2, c2, (0, 1))
        ggraph = gg.make_group_graph(
            graph, {"u": c2}, {"e0": c2, "e0bar": c2},
            {"e0": emb, "e0bar": emb}, {"e0": emb, "e0bar": emb})
        pres = gg.fundamental_presentation(ggraph)
        assert pres.stable_letters == ("t_e0",)
        assert pres.edge_relators == (
            (("t_e0", -1), (gg.symbol("u", 1), 1), ("t_e0", 1),
             (gg.symbol("u", 1), -1)),)

    def test_free_product_trivial_edge_group(self):
        graph = segment_graph()
        vgs = {"u": fg.cyclic(2), "v": fg.cyclic(3)}
        eg, rho, tau = trivial_edge_data(graph, vgs)
        pres = gg.fundamental_presentation(gg.make_group_graph(
            graph, vgs, eg, rho, tau))
        assert pres.edge_relators == () and pres.stable_letters == ()

    def test_triangle_tree_leaves_one_stable_letter(self):
        graph = triangle_graph()
        vgs = {v: fg.cyclic(2) for v in graph.vertices}
        eg, rho, tau = trivial_edge_data(graph, vgs)
        pres = gg.fundamental_presentation(gg.make_group_graph(
            graph, vgs, eg, rho, tau))
        assert len(pres.stable_letters) == 1

    def test_explicit_tree_validation(self):
        graph = triangle_graph()
        vgs = {v: fg.cyclic(2) for v in graph.vertices}
        eg, rho, tau = trivial_edge_data(graph, vgs)
        ggraph = gg.make_group_graph(graph, vgs, eg, rho, tau)
        with pytest.raises(InvalidTree):
            gg.fundamental_presentation(ggraph, frozenset({"e0"}))
        with pytest.raises(InvalidTree):
            gg.fundamental_presentation(
                ggraph, frozenset({"e0", "e0bar", "e1", "e1bar",
                                   "e2", "e2bar"}))

    def test_stable_letter_count_independent_of_tree(self):
        graph = triangle_graph()
        vgs = {v: fg.cyclic(2) for v in graph.vertices}
        eg, rho, tau = trivial_edge_data(graph, vgs)
        ggraph = gg.make_group_graph(graph, vgs, eg, rho, tau)
        trees = [frozenset({"e0", "e0bar", "e1", "e1bar"}),
                 frozenset({"e0", "e0bar", "e2", "e2bar"}),
                 frozenset({"e1", "e1bar", "e2", "e2bar"})]
        counts = {len(gg.fundamental_presentation(ggraph, t).stable_letters)
                  for t in trees}
        assert counts == {1}

    def test_group_graph_axioms_enforced(self):
        c2, c3 = fg.cyclic(2), fg.cyclic(3)
        graph = segment_graph()
        e_c2 = fg.GroupHom(c2, c2, (0, 1))
        bad_tau = fg.GroupHom(c2, c3, (0, 0))
        with pytest.raises(NotSubgroup):
            gg.make_group_graph(graph, {"u": c2, "v": c3},
                                {"e0": c2, "e0bar": c2},
                                {"e0": e_c2, "e0bar": bad_tau},
                                {"e0": bad_tau, "e0bar": e_c2})


class TestKillAndCollapse:
    def test_kill_amalgam_of_amalg1(self, amalg1):
        pres = gg.amalgam_presentation(amalg1)
        killed = gg.kill_subgroups(pres, {
            "u": fg.make_subgroup(amalg1.H, [0, 2]),
            "v": fg.make_subgroup(amalg1.K, [0, 2])})
        assert killed.edge_relators == ()
        assert all(G.order == 2 for _, G in killed.vertex_groups)

    def test_collapse_gives_c2_times_c2(self, amalg1):
        pres = gg.amalgam_presentation(amalg1)
        killed = gg.kill_subgroups(pres, {
            "u": fg.make_subgroup(amalg1.H, [0, 2]),
            "v": fg.make_subgroup(amalg1.K, [0, 2])})
        P, images = gg.collapse_to_direct_product(killed)
        assert P.order == 4
        assert all(images[t] == 0 for t in killed.stable_letters)
        # relators of the killed presentation die in P
        for rel in killed.relators:
            acc = 0
            for sym, exp in rel:
                x = images[sym]
                acc = P.mul(acc, x if exp == 1 else P.inv(x))
            assert acc == 0

    def test_stable_letter_kept_then_sent_to_identity(self):
        """C4 and C2 joined by a trivial edge, with a loop at C4 whose
        edge group is its C2: the loop's stable letter survives killing
        and maps to the identity of the direct product."""
        c1, c2, c4 = fg.cyclic(1), fg.cyclic(2), fg.cyclic(4)
        graph = gg.make_graph(
            ("u", "v"), ("e0", "e0bar", "e1", "e1bar"),
            {"e0": "e0bar", "e0bar": "e0", "e1": "e1bar", "e1bar": "e1"},
            {"e0": "u", "e0bar": "v", "e1": "u", "e1bar": "u"},
            {"e0": "v", "e0bar": "u", "e1": "u", "e1bar": "u"})
        into_u, into_v = fg.GroupHom(c1, c4, (0,)), fg.GroupHom(c1, c2, (0,))
        loop = fg.GroupHom(c2, c4, (0, 2))
        pres = gg.fundamental_presentation(gg.make_group_graph(
            graph, {"u": c4, "v": c2},
            {"e0": c1, "e0bar": c1, "e1": c2, "e1bar": c2},
            {"e0": into_u, "e0bar": into_v, "e1": loop, "e1bar": loop},
            {"e0": into_v, "e0bar": into_u, "e1": loop, "e1bar": loop}))
        assert pres.stable_letters == ("t_e1",)
        kept = gg.kill_subgroups(pres, {})
        assert kept.edge_relators == pres.edge_relators == (
            (("t_e1", -1), (gg.symbol("u", 2), 1), ("t_e1", 1),
             (gg.symbol("u", 2), -1)),)
        killed = gg.kill_subgroups(pres, {"u": fg.make_subgroup(c4, [0, 2])})
        assert killed.edge_relators == () and killed.stable_letters == ("t_e1",)
        P, images = gg.collapse_to_direct_product(killed)
        assert P.order == 4 and images["t_e1"] == 0

    def test_collapse_rejects_uncollapsed(self, amalg1):
        with pytest.raises(WrongShape):
            gg.collapse_to_direct_product(gg.amalgam_presentation(amalg1))

    def test_kill_trivial_is_identity_shape(self, amalg1):
        pres = gg.amalgam_presentation(amalg1)
        killed = gg.kill_subgroups(pres, {})
        assert sorted(killed.edge_relators) == sorted(pres.edge_relators)
        assert all(dict(killed.vertex_groups)[v].order
                   == dict(pres.vertex_groups)[v].order
                   for v, _ in pres.vertex_groups)


class TestRendering:
    def test_presentation_text_deterministic(self, amalg1):
        pres = gg.amalgam_presentation(amalg1)
        t1 = gg.presentation_text(pres)
        t2 = gg.presentation_text(gg.amalgam_presentation(amalg1))
        assert t1 == t2
        assert t1.startswith("< ") and t1.endswith(">")

    def test_free_reduce(self):
        rel = (("a", 1), ("b", 1), ("b", -1), ("a", -1), ("c", 1))
        assert gg.free_reduce(rel) == (("c", 1),)
