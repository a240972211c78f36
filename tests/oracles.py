"""Independent oracles used by the tests.

These deliberately avoid the library's normal-form pushdown: equality is
decided by reachability in the merge/absorb/transport rewriting graph, and
conjugacy by exhaustive conjugator search.  The agreeing homomorphism
pairs are listed by a plain loop over Hom(H, X) and Hom(K, X), with none of
the witness search's deduplication.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from amalgams.amalgam import TAG_H, TAG_K, AmalgamSpec, Word
from amalgams import amalgam as am
from amalgams import fingroup


def agreeing_pairs(spec: AmalgamSpec, X: fingroup.FiniteGroup
                   ) -> Iterator[tuple[fingroup.GroupHom, fingroup.GroupHom]]:
    """All (psi_H, psi_K) into X with psi_K(a phi) = psi_H(a) on A, in
    canonical enumeration order (psi_H outer).  Hom(K, X) is enumerated
    once and bucketed by its images on B, listed in phi order.  The
    reference for the witness search's deduplicated pair walk."""
    by_b: dict[tuple[int, ...], list[fingroup.GroupHom]] = {}
    for psi_K in fingroup.enumerate_homs(spec.K, X):
        by_b.setdefault(tuple(psi_K(b) for _, b in spec.phi), []).append(psi_K)
    for psi_H in fingroup.enumerate_homs(spec.H, X):
        for psi_K in by_b.get(tuple(psi_H(a) for a, _ in spec.phi), ()):
            yield psi_H, psi_K


def syllable_alphabet(spec: AmalgamSpec) -> list[tuple[str, int]]:
    out = [(TAG_H, e) for e in range(1, spec.H.order)]
    out += [(TAG_K, e) for e in range(1, spec.K.order)]
    return out


def all_words(spec: AmalgamSpec, max_len: int) -> list[tuple]:
    alpha = syllable_alphabet(spec)
    words = []
    for n in range(max_len + 1):
        words.extend(itertools.product(alpha, repeat=n))
    return words


def rewrite_moves(spec: AmalgamSpec, w: tuple) -> list[tuple]:
    """Single rewriting steps: merge adjacent same-tag syllables, flip a
    syllable lying in the amalgamated subgroup to the other factor, and
    shift an amalgamated element between adjacent syllables."""
    out = []
    n = len(w)
    for i in range(n - 1):
        (t1, e1), (t2, e2) = w[i], w[i + 1]
        if t1 == t2:
            m = spec.factor(t1).mul(e1, e2)
            mid = ((t1, m),) if m != 0 else ()
            out.append(w[:i] + mid + w[i + 2:])
    for i in range(n):
        t, e = w[i]
        if spec.in_amalg(t, e):
            other = TAG_K if t == TAG_H else TAG_H
            out.append(w[:i] + ((other, spec.transport(t, e)),) + w[i + 1:])
    phi = spec.phi_map
    for i in range(n - 1):
        (t1, e1), (t2, e2) = w[i], w[i + 1]
        for a in spec.A.elements:
            if a == 0:
                continue
            a1 = a if t1 == TAG_H else phi[a]
            a2 = a if t2 == TAG_H else phi[a]
            left = spec.factor(t1).mul(e1, spec.factor(t1).inv(a1))
            right = spec.factor(t2).mul(a2, e2)
            mid = tuple(s for s in ((t1, left), (t2, right)) if s[1] != 0)
            out.append(w[:i] + mid + w[i + 2:])
    return out


def shorten(spec: AmalgamSpec, w: tuple, max_len: int) -> tuple:
    """Rewrite w until it has at most max_len syllables, each step taking
    the first move, or pair of moves, that makes it shorter.  A word that is
    not reduced has such a step: a merge, or a flip followed by a merge."""
    while len(w) > max_len:
        shorter = [v for v in rewrite_moves(spec, w) if len(v) < len(w)]
        w = shorter[0] if shorter else next(
            v2 for v in rewrite_moves(spec, w)
            for v2 in rewrite_moves(spec, v) if len(v2) < len(w))
    return w


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def rewriting_components(spec: AmalgamSpec, max_len: int) -> dict[tuple, tuple]:
    """Map every word of length <= max_len to a component representative of
    the rewriting-reachability relation.  Two words denote the same element
    of G iff they share a component."""
    uf = _UnionFind()
    for w in all_words(spec, max_len):
        uf.find(w)
        for nxt in rewrite_moves(spec, w):
            uf.union(w, nxt)
    return {w: uf.find(w) for w in list(uf.parent)}


def conjugator_candidates(spec: AmalgamSpec, max_len: int) -> list[Word]:
    """All alternating words of length <= max_len (covers every element of
    that length)."""
    out = [am.EMPTY]
    for n in range(1, max_len + 1):
        for start in (TAG_H, TAG_K):
            tags = [(TAG_H, TAG_K)[(i + (start == TAG_K)) % 2] for i in range(n)]
            pools = [range(1, spec.factor(t).order) for t in tags]
            for combo in itertools.product(*pools):
                out.append(Word(tuple(zip(tags, combo))))
    return out


def brute_force_conjugate(spec: AmalgamSpec, x: Word, y: Word,
                          conjugators: list[Word]) -> bool:
    """One-sided: search z with z^-1 x z = y among the given candidates."""
    nfy = am.normal_form(spec, y)
    for z in conjugators:
        zi = am.inverse(spec, z)
        if am.normal_form(spec, zi.concat(x).concat(z)) == nfy:
            return True
    return False


def free_product_conjugate(spec: AmalgamSpec, x: Word, y: Word) -> bool:
    """Cyclic-word oracle for free products (trivial amalgamation): conjugate
    iff the cyclically reduced forms are rotations of each other, with factor
    conjugacy at length 1."""
    assert len(spec.A) == 1 and len(spec.B) == 1

    def cyc(w: Word) -> tuple:
        syl = list(w.syllables)
        changed = True
        while changed:
            changed = False
            out = []
            for tag, e in syl:
                if out and out[-1][0] == tag:
                    m = spec.factor(tag).mul(out[-1][1], e)
                    out.pop()
                    if m != 0:
                        out.append((tag, m))
                    changed = True
                elif e != 0:
                    out.append((tag, e))
            syl = out
            while len(syl) > 1 and syl[0][0] == syl[-1][0]:
                syl = syl[1:] + syl[:1]
                changed = True
        return tuple(syl)

    cx, cy = cyc(x), cyc(y)
    if len(cx) != len(cy):
        return False
    if len(cx) == 0:
        return True
    if len(cx) == 1:
        (tx, ex), (ty, ey) = cx[0], cy[0]
        return tx == ty and fingroup.are_conjugate_in(spec.factor(tx), ex, ey) is not None
    return any(cx[i:] + cx[:i] == cy for i in range(len(cx)))
