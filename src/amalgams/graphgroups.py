"""Graphs of groups and fundamental group presentations.

Edges come in inverse pairs (e, inv(e)); a graph of groups attaches a group
to every vertex and edge together with injections of each edge group into
the endpoint vertex groups.  The fundamental group presentation uses the
full multiplication table of each vertex group as relators, identification
relations along a maximal tree, and one stable letter per geometric
non-tree edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .amalgam import AmalgamSpec
from .errors import InvalidTree, NotConnected, NotSubgroup
from .fingroup import FiniteGroup, GroupHom


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    inv: tuple[tuple[str, str], ...]   # edge -> inverse edge
    orig: tuple[tuple[str, str], ...]  # edge -> origin vertex
    term: tuple[tuple[str, str], ...]  # edge -> terminal vertex

    @cached_property
    def _maps(self) -> dict[str, dict[str, str]]:
        """inv, orig and term as dicts, built once on first use; not a
        field, so equality, hashing and pickling see only the tuples."""
        return {"inv": dict(self.inv), "orig": dict(self.orig),
                "term": dict(self.term)}

    def inv_of(self, e: str) -> str:
        return self._maps["inv"][e]

    def orig_of(self, e: str) -> str:
        return self._maps["orig"][e]

    def term_of(self, e: str) -> str:
        return self._maps["term"][e]


def make_graph(vertices, edges, inv: Mapping[str, str],
               orig: Mapping[str, str], term: Mapping[str, str]) -> Graph:
    """Validate the involution axioms and connectivity (NotConnected also
    for a graph with no vertex)."""
    vs = tuple(sorted(vertices))
    es = tuple(sorted(edges))
    if not vs:
        raise NotConnected("graph has no vertex")
    for e in es:
        if inv[e] == e:
            raise InvalidTree(f"edge {e} is its own inverse")
        if inv[inv[e]] != e:
            raise InvalidTree(f"involution not involutive at {e}")
        if orig[inv[e]] != term[e] or term[inv[e]] != orig[e]:
            raise InvalidTree(f"inverse edge endpoints wrong at {e}")
    _walk(vs, es, orig, term)  # raises unless connected
    return Graph(vs, es, tuple(sorted(inv.items())),
                 tuple(sorted(orig.items())), tuple(sorted(term.items())))


def _walk(vertices: tuple[str, ...], edges: tuple[str, ...],
          orig: Mapping[str, str], term: Mapping[str, str]) -> list[str]:
    """Breadth-first walk from the first vertex, trying edges in the given
    order: the edges that reach a new vertex.  Raises NotConnected when a
    vertex is left unreached."""
    reached = [vertices[0]]
    seen = set(reached)
    used = []
    for v in reached:  # grows while iterated: breadth-first order
        for e in edges:
            if orig[e] == v and term[e] not in seen:
                seen.add(term[e])
                reached.append(term[e])
                used.append(e)
    if seen != set(vertices):
        raise NotConnected(f"unreached vertices {sorted(set(vertices) - seen)}")
    return used


def maximal_tree(g: Graph) -> frozenset[str]:
    """Spanning tree edge set, closed under inversion: the edges by which a
    breadth-first walk from the minimal vertex, trying lexicographically
    smaller edges first, reaches each vertex, and their inverses.  Raises
    NotConnected for a disconnected graph."""
    used = _walk(g.vertices, g.edges, g._maps["orig"], g._maps["term"])
    return frozenset(used + [g.inv_of(e) for e in used])


@dataclass(frozen=True)
class GroupGraph:
    graph: Graph
    vertex_group: tuple[tuple[str, FiniteGroup], ...]
    edge_group: tuple[tuple[str, FiniteGroup], ...]
    rho: tuple[tuple[str, GroupHom], ...]  # edge group -> origin vertex group
    tau: tuple[tuple[str, GroupHom], ...]  # edge group -> terminal vertex group

    @cached_property
    def _maps(self) -> dict[str, dict]:
        """The four tuples as dicts, built once on first use; not a field,
        so equality, hashing and pickling see only the tuples."""
        return {"vertex_group": dict(self.vertex_group),
                "edge_group": dict(self.edge_group),
                "rho": dict(self.rho), "tau": dict(self.tau)}

    def group_at(self, v: str) -> FiniteGroup:
        return self._maps["vertex_group"][v]

    def edge_group_of(self, e: str) -> FiniteGroup:
        return self._maps["edge_group"][e]

    def rho_of(self, e: str) -> GroupHom:
        return self._maps["rho"][e]

    def tau_of(self, e: str) -> GroupHom:
        return self._maps["tau"][e]


def make_group_graph(graph: Graph, vertex_group: Mapping[str, FiniteGroup],
                     edge_group: Mapping[str, FiniteGroup],
                     rho: Mapping[str, GroupHom],
                     tau: Mapping[str, GroupHom]) -> GroupGraph:
    for e in graph.edges:
        ebar = graph.inv_of(e)
        if edge_group[e] != edge_group[ebar]:
            raise NotSubgroup(f"edge groups differ across inversion at {e}")
        if rho[e] != tau[ebar] or tau[e] != rho[ebar]:
            raise NotSubgroup(f"rho/tau not swapped across inversion at {e}")
        if not rho[e].is_injective() or not tau[e].is_injective():
            raise NotSubgroup(f"edge embeddings must be injective at {e}")
        if rho[e].source != edge_group[e] or tau[e].source != edge_group[e]:
            raise NotSubgroup(f"embedding source mismatch at {e}")
        if rho[e].target != vertex_group[graph.orig_of(e)]:
            raise NotSubgroup(f"rho target mismatch at {e}")
        if tau[e].target != vertex_group[graph.term_of(e)]:
            raise NotSubgroup(f"tau target mismatch at {e}")
    return GroupGraph(graph, tuple(sorted(vertex_group.items())),
                      tuple(sorted(edge_group.items())),
                      tuple(sorted(rho.items())), tuple(sorted(tau.items())))


Relator = tuple[tuple[str, int], ...]  # (symbol, exponent +-1)


@dataclass(frozen=True)
class Presentation:
    """Symbolic presentation with per-vertex generator symbols and stable
    letters.  Table relators are regenerable from the vertex groups; edge
    relators carry the identification / conjugation relations."""
    vertex_groups: tuple[tuple[str, FiniteGroup], ...]
    edge_relators: tuple[Relator, ...]
    stable_letters: tuple[str, ...]

    @property
    def generators(self) -> tuple[str, ...]:
        gens = []
        for v, G in self.vertex_groups:
            gens.extend(symbol(v, e) for e in range(1, G.order))
        gens.extend(self.stable_letters)
        return tuple(gens)

    @property
    def table_relators(self) -> tuple[Relator, ...]:
        rels = []
        for v, G in self.vertex_groups:
            for a in range(1, G.order):
                for b in range(1, G.order):
                    c = G.mul(a, b)
                    rel = [(symbol(v, a), 1), (symbol(v, b), 1)]
                    if c != 0:
                        rel.append((symbol(v, c), -1))
                    rels.append(tuple(rel))
        return tuple(rels)

    @property
    def relators(self) -> tuple[Relator, ...]:
        return self.table_relators + self.edge_relators


def symbol(vertex: str, element: int) -> str:
    return f"{vertex}_g{element}"


def fundamental_presentation(gg: GroupGraph) -> Presentation:
    """Presentation of the fundamental group w.r.t. ``maximal_tree``.

    Tree edges give identification relations rho(g) = tau(g); each geometric
    non-tree edge gives one stable letter t with t^-1 rho(g) t = tau(g)
    (the relation for the inverse edge is folded into t^-1).
    """
    g = gg.graph
    tree = maximal_tree(g)

    geometric = []
    used = set()
    for e in g.edges:  # sorted; canonical orientation = smaller edge id
        if e not in used:
            geometric.append(e)
            used.add(e)
            used.add(g.inv_of(e))

    edge_relators: list[Relator] = []
    stable_letters: list[str] = []
    for e in geometric:
        ge = gg.edge_group_of(e)
        rho, tau = gg.rho_of(e), gg.tau_of(e)
        u, v = g.orig_of(e), g.term_of(e)
        if e in tree:
            for x in range(1, ge.order):
                edge_relators.append(((symbol(u, rho(x)), 1),
                                      (symbol(v, tau(x)), -1)))
        else:
            t = f"t_{e}"
            stable_letters.append(t)
            for x in range(1, ge.order):
                edge_relators.append(((t, -1), (symbol(u, rho(x)), 1), (t, 1),
                                      (symbol(v, tau(x)), -1)))
    return Presentation(gg.vertex_group, tuple(edge_relators),
                        tuple(stable_letters))


def amalgam_as_group_graph(spec: AmalgamSpec) -> GroupGraph:
    """Two vertices carrying H and K joined by one geometric edge carrying A,
    with rho the inclusion and tau = phi followed by inclusion."""
    graph = make_graph(("u", "v"), ("e0", "e0bar"),
                       {"e0": "e0bar", "e0bar": "e0"},
                       {"e0": "u", "e0bar": "v"},
                       {"e0": "v", "e0bar": "u"})
    ga, emb = spec.A.as_group()
    rho_e = GroupHom(ga, spec.H, emb)
    phi = spec.phi_map
    tau_e = GroupHom(ga, spec.K, tuple(phi[a] for a in emb))
    return make_group_graph(graph, {"u": spec.H, "v": spec.K},
                            {"e0": ga, "e0bar": ga},
                            {"e0": rho_e, "e0bar": tau_e},
                            {"e0": tau_e, "e0bar": rho_e})


def amalgam_presentation(spec: AmalgamSpec) -> Presentation:
    """Direct presentation of (H*K; A=B, phi): both vertex tables plus the
    identifications a = phi(a)."""
    rels = []
    for a in spec.A.elements:
        if a != 0:
            rels.append(((symbol("u", a), 1), (symbol("v", spec.phi_map[a]), -1)))
    return Presentation((("u", spec.H), ("v", spec.K)), tuple(rels), ())


def presentation_text(pres: Presentation) -> str:
    """Deterministic ``< generators | relators >`` rendering, one relator per
    line."""
    def spell(rel: Relator) -> str:
        return " ".join(s if x == 1 else f"{s}^-1" for s, x in rel)

    lines = ["< " + " ".join(pres.generators) + " |"]
    lines.extend("  " + spell(r) for r in pres.relators)
    lines.append(">")
    return "\n".join(lines)
