"""The benchmark's amalgams, workloads and seeded queries.

The amalgams are built in code from the library's group constructors and
written out as amalgam text (`fileio.serialize_amalgam`); set-up parses that
text back, so parsing is part of what set-up costs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from amalgams import amalgam as am
from amalgams import fileio
from amalgams import fingroup
from amalgams import quotients as qt
from amalgams import separability as sep
from amalgams.amalgam import TAG_H, TAG_K, AmalgamSpec, Word


def _c4_c2_c4():
    c4 = fingroup.cyclic(4)
    return am.make_amalgam(c4, c4, [0, 2], [0, 2], {0: 0, 2: 2})


def _s3_c3_c6():
    s3, c6 = fingroup.symmetric3(), fingroup.cyclic(6)
    a3 = next(S for S in fingroup.enumerate_subgroups(s3) if len(S) == 3)
    g = a3.elements[1]
    return am.make_amalgam(s3, c6, a3.elements, [0, 2, 4],
                           {0: 0, g: 2, s3.mul(g, g): 4})


def _c9_c3_c3xc3():
    c9 = fingroup.cyclic(9)
    c3xc3 = fingroup.direct_product(fingroup.cyclic(3), fingroup.cyclic(3))
    # 3 in C3 x C3 is (1, 0): it generates the first factor.
    return am.make_amalgam(c9, c3xc3, [0, 3, 6], [0, 3, 6],
                           {0: 0, 3: 3, 6: 6})


def _c2_c3():
    return am.make_amalgam(fingroup.cyclic(2), fingroup.cyclic(3),
                           [0], [0], {0: 0})


def _over_centres(H, K):
    zh, zk = fingroup.center(H).elements, fingroup.center(K).elements
    return am.make_amalgam(H, K, zh, zk, dict(zip(zh, zk)))


AMALGAMS = {
    "c4_c2_c4": _c4_c2_c4,           # AMALG1, central
    "s3_c3_c6": _s3_c3_c6,           # non-central
    "c9_c3_c3xc3": _c9_c3_c3xc3,     # p = 3, central
    "c2_c3": _c2_c3,                 # negative control: not residually 2
    "d8_z_q8": lambda: _over_centres(fingroup.dihedral(4),
                                     fingroup.quaternion(8)),
    "d16_z_q16": lambda: _over_centres(fingroup.dihedral(8),
                                       fingroup.quaternion(16)),
}


@dataclass(frozen=True)
class Sweep:
    """Every ordered pair of distinct cyclically reduced elements up to a
    length, per amalgam: (amalgam, max length, SearchBudget(p,
    max_target_order, max_quotient_index))."""
    amalgams: tuple[tuple[str, int, tuple[int, int, int]], ...]


@dataclass(frozen=True)
class Words:
    """Random word pairs per amalgam, decided by the named deciders.  On
    an amalgam marked `True`, every other non-conjugate pair has equal
    cyclically reduced lengths and the rest unequal ones (see
    build_queries)."""
    amalgams: tuple[tuple[str, tuple[str, ...], bool], ...]
    lengths: tuple[int, ...]
    pairs_per_amalgam: int


@dataclass(frozen=True)
class Workload:
    shape: Sweep | Words
    # Per pass, fixed by the mathematics for every seed: the number of
    # queries and of conjugate verdicts.  A change in either is an error.
    # At least 1000 queries leave ten per-query latencies beyond p99.
    queries: int
    conjugate: int


WORKLOADS = {
    "sep-small": Workload(Sweep((
        ("c4_c2_c4", 3, (2, 16, 16)),
        ("s3_c3_c6", 2, (2, 16, 16)),
        ("c9_c3_c3xc3", 2, (3, 27, 27)),
        ("c2_c3", 2, (2, 16, 16)),
    )), queries=1838, conjugate=70),
    "sep-order16": Workload(Sweep((
        ("d8_z_q8", 1, (2, 16, 16)),
        ("d16_z_q16", 1, (2, 8, 8)),
    )), queries=1052, conjugate=72),
    "words": Workload(Words((
        ("d16_z_q16", ("central", "general"), True),
        # Here the abelian image mostly follows from the cyclically reduced
        # length, so it can seldom prove a pair of equal lengths
        # non-conjugate.
        ("s3_c3_c6", ("general",), False),
        ("c9_c3_c3xc3", ("central",), True),
    ), lengths=(8, 16, 32), pairs_per_amalgam=1000), queries=4000,
        conjugate=2000),
}


def amalgam_names(workload: Workload) -> tuple[str, ...]:
    return tuple(dict.fromkeys(a[0] for a in workload.shape.amalgams))


def corpus_texts(workload: Workload) -> dict[str, str]:
    """Amalgam files of the workload, as text."""
    return {name: fileio.serialize_amalgam(AMALGAMS[name]())
            for name in amalgam_names(workload)}


@dataclass(frozen=True)
class Query:
    """One timed call: a witness search when ``budget`` is set, otherwise a
    conjugacy decision by ``decider``.  ``conjugate`` is the known answer
    where the benchmark knows it."""
    amalgam: str
    spec: AmalgamSpec
    x: Word
    y: Word
    budget: Optional[sep.SearchBudget] = None
    decider: str = ""
    conjugate: Optional[bool] = None


def inverse(spec: AmalgamSpec, w: Word) -> Word:
    return Word(tuple((tag, spec.factor(tag).inv(e))
                      for tag, e in reversed(w.syllables)))


def conjugated(spec: AmalgamSpec, w: Word, z: Word) -> Word:
    """The unreduced word z^-1 w z."""
    return inverse(spec, z).concat(w).concat(z)


def random_word(spec: AmalgamSpec, rng: random.Random, n: int) -> Word:
    """n alternating syllables of random non-identity elements."""
    tag = rng.choice((TAG_H, TAG_K))
    out = []
    for _ in range(n):
        out.append((tag, rng.randrange(1, spec.factor(tag).order)))
        tag = TAG_K if tag == TAG_H else TAG_H
    return Word(tuple(out))


def build_queries(workload: Workload, specs: dict[str, AmalgamSpec],
                  seed: int, name: str) -> list[Query]:
    rng = random.Random(f"{name}:{seed}")
    shape = workload.shape
    queries: list[Query] = []
    if isinstance(shape, Sweep):
        for amalgam, max_len, (p, order, index) in shape.amalgams:
            spec = specs[amalgam]
            budget = sep.SearchBudget(p, order, index)
            reps = sep.enumerate_cyclically_reduced(spec, max_len)
            # Conjugating an input changes the words, not the verdict.
            for f, g in itertools.permutations(reps, 2):
                queries.append(Query(
                    amalgam, spec,
                    conjugated(spec, f, random_word(spec, rng, rng.randint(0, 3))),
                    conjugated(spec, g, random_word(spec, rng, rng.randint(0, 3))),
                    budget))
    else:
        for amalgam, deciders, strata in shape.amalgams:
            spec = specs[amalgam]
            ab, syllables = Abelianization(spec), Syllables(spec)
            for i in range(shape.pairs_per_amalgam):
                n = shape.lengths[i % len(shape.lengths)]
                if i % 2 == 0:
                    x = random_word(spec, rng, n)
                    z = random_word(spec, rng, rng.randint(1, n))
                    y, known = conjugated(spec, x, z), True
                else:
                    # Keep only pairs whose abelian images differ, which
                    # proves them non-conjugate.  Only a pair of equal
                    # cyclically reduced lengths makes a decider compare
                    # cyclic permutations; with strata, every other pair
                    # is of that kind, so that the seed does not move the
                    # number of slow pairs.  Both words are drawn afresh,
                    # as some words have no partner of equal length.
                    equal = i % 4 == 1
                    while True:
                        x = random_word(spec, rng, n)
                        y = random_word(spec, rng, n)
                        if ab.image(x) != ab.image(y) and (not strata or (
                                syllables.cyclic_length(x)
                                == syllables.cyclic_length(y)) == equal):
                            break
                    known = False
                for decider in deciders:
                    queries.append(Query(amalgam, spec, x, y,
                                         decider=decider, conjugate=known))
    rng.shuffle(queries)
    return queries


def warm(specs: dict[str, AmalgamSpec], workload: Workload) -> None:
    """Fill the library's per-group caches for every group a query meets:
    the factors, the witness catalog and the p-power quotients."""
    for spec in specs.values():
        for G in (spec.H, spec.K):
            fingroup.conjugacy_classes(G)
            fingroup.enumerate_normal_subgroups(G)
    if not isinstance(workload.shape, Sweep):
        return
    for amalgam, _, (p, order, index) in workload.shape.amalgams:
        spec = specs[amalgam]
        catalog = sep.p_group_catalog(p, order)
        for X in catalog:
            fingroup.conjugacy_classes(X)
        groups = [spec.H, spec.K]
        for pair in qt.enumerate_compatible_pairs(spec, p, index):
            groups += [pair.quotient_spec.H, pair.quotient_spec.K]
        for G in groups:
            fingroup.conjugacy_classes(G)
            fingroup.enumerate_homs(G, catalog[0])


class Abelianization:
    """The map from G = H *_A K onto its abelianization, by brute force over
    the multiplication tables and without the library's word algorithms.
    Conjugate elements have equal images."""

    def __init__(self, spec: AmalgamSpec):
        self.rep = {TAG_H: _abelian_rep(spec.H.table),
                    TAG_K: _abelian_rep(spec.K.table)}
        self.table = {TAG_H: spec.H.table, TAG_K: spec.K.table}
        rep_h, rep_k = self.rep[TAG_H], self.rep[TAG_K]
        inv_k = _inverses(spec.K.table)
        # Relations a = phi(a) become the subgroup {(a, phi(a)^-1)} of
        # H^ab x K^ab; the images are taken modulo it.
        self.relations = {(rep_h[a], rep_k[inv_k[b]]) for a, b in spec.phi}

    def image(self, w: Word) -> frozenset[tuple[int, int]]:
        """The image as a coset of the relation subgroup."""
        acc = {TAG_H: 0, TAG_K: 0}
        for tag, e in w:
            acc[tag] = self.rep[tag][self.table[tag][acc[tag]][e]]
        th, tk = self.table[TAG_H], self.table[TAG_K]
        return frozenset((self.rep[TAG_H][th[acc[TAG_H]][rh]],
                          self.rep[TAG_K][tk[acc[TAG_K]][rk]])
                         for rh, rk in self.relations)


class Syllables:
    """Reduction of words with the multiplication tables alone, without the
    library's word algorithms (the identity is element 0 of each factor)."""

    def __init__(self, spec: AmalgamSpec):
        self.table = {TAG_H: spec.H.table, TAG_K: spec.K.table}
        # An amalgamated element, as the element of the other factor.
        self.across = {TAG_H: dict(spec.phi),
                       TAG_K: {b: a for a, b in spec.phi}}

    def reduce(self, syllables) -> list[tuple[str, int]]:
        out: list[tuple[str, int]] = []
        for tag, e in syllables:
            while e:
                if out:
                    top_tag, top = out[-1]
                    if top_tag != tag and e in self.across[tag]:
                        tag, e = top_tag, self.across[tag][e]
                    elif top_tag != tag and top in self.across[top_tag]:
                        out.pop()
                        e = self.table[tag][self.across[top_tag][top]][e]
                        continue
                    if top_tag == tag:
                        out.pop()
                        e = self.table[tag][top][e]
                        continue
                out.append((tag, e))
                break
        return out

    def cyclic_length(self, w: Word) -> int:
        """The length of w's cyclically reduced form."""
        out = self.reduce(w.syllables)
        while len(out) >= 2 and out[0][0] == out[-1][0]:
            out = self.reduce([out[-1]] + out[:-1])
        return len(out)


def _inverses(table) -> list[int]:
    return [row.index(0) for row in table]


def _abelian_rep(table) -> list[int]:
    """For each element, the least element of its coset modulo the derived
    subgroup."""
    n = len(table)
    inv = _inverses(table)
    derived = {0}
    frontier = {table[table[inv[a]][inv[b]]][table[a][b]]
                for a in range(n) for b in range(n)}
    while frontier:
        derived |= frontier
        frontier = {table[x][y] for x in derived for y in derived} - derived
    return [min(table[g][d] for d in derived) for g in range(n)]
