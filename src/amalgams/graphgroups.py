"""Graphs of groups and fundamental group presentations.

A graph of groups attaches a group to every vertex and to every geometric
edge, together with injections rho and tau of each edge group into the
groups at the edge's origin and terminal vertex.  Each edge is stored once,
in one orientation; its inverse is implicit.  The fundamental group
presentation uses the full multiplication table of each vertex group as
relators, identification relations along a maximal tree, and one stable
letter per non-tree edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .amalgam import AmalgamSpec
from .errors import NotConnected, NotSubgroup, WrongShape
from .fingroup import FiniteGroup, GroupHom


@dataclass(frozen=True)
class Edge:
    """A geometric edge orig -> term carrying ``group``, with rho: group ->
    the origin's vertex group and tau: group -> the terminal's."""
    name: str
    orig: str
    term: str
    group: FiniteGroup
    rho: GroupHom
    tau: GroupHom


@dataclass(frozen=True)
class GroupGraph:
    vertex_group: tuple[tuple[str, FiniteGroup], ...]  # sorted by vertex
    edges: tuple[Edge, ...]                            # sorted by name


def make_group_graph(vertex_group: Mapping[str, FiniteGroup],
                     edges: Iterable[Edge]) -> GroupGraph:
    """Check the edges and connectivity: NotConnected for a graph with no
    vertex, an unreached vertex or an edge whose endpoint is not a vertex;
    WrongShape for two edges with one name; NotSubgroup unless rho and tau
    are injective homomorphisms from the edge group into the vertex groups
    at its ends."""
    edges = tuple(sorted(edges, key=lambda e: e.name))
    for e in edges:
        for v in (e.orig, e.term):
            if v not in vertex_group:
                raise NotConnected(f"edge {e.name}: endpoint {v!r} is not "
                                   f"a vertex")
    for e, nxt in zip(edges, edges[1:]):
        if e.name == nxt.name:
            raise WrongShape(f"two edges are named {e.name}")
    gg = GroupGraph(tuple(sorted(vertex_group.items())), edges)
    maximal_tree(gg)  # raises unless connected
    for e in edges:
        for label, hom, v in (("rho", e.rho, e.orig), ("tau", e.tau, e.term)):
            if hom.source != e.group:
                raise NotSubgroup(f"{label} source mismatch at {e.name}")
            if hom.target != vertex_group[v]:
                raise NotSubgroup(f"{label} target mismatch at {e.name}")
            if not hom.is_valid():
                raise NotSubgroup(f"{label} is not a homomorphism at {e.name}")
            if not hom.is_injective():
                raise NotSubgroup(f"{label} must be injective at {e.name}")
    return gg


def maximal_tree(gg: GroupGraph) -> frozenset[str]:
    """Names of the spanning tree edges: those by which a breadth-first walk
    from the minimal vertex first reaches each vertex.  Raises NotConnected
    for an empty or disconnected graph."""
    if not gg.vertex_group:
        raise NotConnected("graph has no vertex")
    # At each vertex the walk tries the edge ends sorted by key: e for the
    # origin end of edge e, e + "bar" for its terminal end.  Those are the
    # names the graph-file format has always given the two orientations,
    # so every graph file keeps its tree, and its pi1 output, byte for
    # byte; plain name order would change the tree of some files.
    ends = sorted([(e.name, e.orig, e.term, e.name) for e in gg.edges]
                  + [(e.name + "bar", e.term, e.orig, e.name)
                     for e in gg.edges])
    reached = [gg.vertex_group[0][0]]
    seen = set(reached)
    tree = set()
    for v in reached:  # grows while iterated: breadth-first order
        for _, start, end, name in ends:
            if start == v and end not in seen:
                seen.add(end)
                reached.append(end)
                tree.add(name)
    unreached = {v for v, _ in gg.vertex_group} - seen
    if unreached:
        raise NotConnected(f"unreached vertices {sorted(unreached)}")
    return frozenset(tree)


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

    Tree edges give identification relations rho(g) = tau(g); each non-tree
    edge gives one stable letter t with t^-1 rho(g) t = tau(g).
    """
    tree = maximal_tree(gg)
    edge_relators: list[Relator] = []
    stable_letters: list[str] = []
    for e in gg.edges:
        u, v = e.orig, e.term
        if e.name in tree:
            for x in range(1, e.group.order):
                edge_relators.append(((symbol(u, e.rho(x)), 1),
                                      (symbol(v, e.tau(x)), -1)))
        else:
            t = f"t_{e.name}"
            stable_letters.append(t)
            for x in range(1, e.group.order):
                edge_relators.append(((t, -1), (symbol(u, e.rho(x)), 1),
                                      (t, 1), (symbol(v, e.tau(x)), -1)))
    return Presentation(gg.vertex_group, tuple(edge_relators),
                        tuple(stable_letters))


def amalgam_as_group_graph(spec: AmalgamSpec) -> GroupGraph:
    """Two vertices carrying H and K joined by one edge carrying A, with rho
    the inclusion and tau = phi followed by inclusion."""
    ga, emb = spec.A.as_group()
    phi = spec.phi_map
    edge = Edge("e0", "u", "v", ga, GroupHom(ga, spec.H, emb),
                GroupHom(ga, spec.K, tuple(phi[a] for a in emb)))
    return make_group_graph({"u": spec.H, "v": spec.K}, [edge])


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
