"""(A,B,phi)-compatible normal subgroup pairs and the quotient amalgam.

A pair of normal subgroups R <| H, S <| K is compatible when
(A cap R) phi = B cap S; it then induces the amalgam
G_{R,S} = (H/R * K/S; AR/R = BS/S) and a projection of words.

``p_residual`` builds the compatible pair that every homomorphism onto a
finite p-group kills: the quotient through which all of them factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import amalgam as am
from . import fingroup
from .amalgam import AmalgamSpec, Word
from .errors import (
    NoRefinementFound,
    NotCompatible,
    NotNormal,
    VerificationFailed,
)
from .fingroup import FiniteGroup, GroupHom, Subgroup


@dataclass(frozen=True)
class CompatiblePair:
    R: Subgroup
    S: Subgroup
    quotient_spec: AmalgamSpec
    proj_H: GroupHom
    proj_K: GroupHom


def _intersections_agree(spec: AmalgamSpec, R: Subgroup, S: Subgroup) -> bool:
    """(A cap R) phi = B cap S as element sets."""
    phi = spec.phi_map
    lhs = {phi[a] for a in spec.A.element_set() & R.element_set()}
    return lhs == spec.B.element_set() & S.element_set()


def is_compatible(spec: AmalgamSpec, R: Subgroup, S: Subgroup) -> bool:
    """(A cap R) phi = B cap S for R normal in H and S normal in K
    (NotNormal otherwise)."""
    if not fingroup.is_normal(spec.H, R):
        raise NotNormal("R is not normal in H")
    if not fingroup.is_normal(spec.K, S):
        raise NotNormal("S is not normal in K")
    return _intersections_agree(spec, R, S)


def quotient_amalgam(spec: AmalgamSpec, R: Subgroup, S: Subgroup) -> CompatiblePair:
    """Builds H/R, K/S (``fingroup.quotient`` checks normality, raising
    NotNormal), the images AR/R and BS/S, and the induced isomorphism,
    checked by make_amalgam.  Raises NotCompatible for an incompatible
    pair."""
    QH, pH = fingroup.quotient(spec.H, R)
    QK, pK = fingroup.quotient(spec.K, S)
    if not _intersections_agree(spec, R, S):
        raise NotCompatible(f"R={R.elements}, S={S.elements}")
    a_img = sorted({pH(a) for a in spec.A.elements})
    phi_q = {}
    for a in spec.A.elements:
        qa = pH(a)
        qb = pK(spec.phi_map[a])
        if qa in phi_q and phi_q[qa] != qb:
            raise NotCompatible("induced map is not well-defined")
        phi_q[qa] = qb
    qspec = am.make_amalgam(QH, QK, a_img, sorted(phi_q.values()), phi_q)
    return CompatiblePair(R, S, qspec, pH, pK)


def _p_power_index_normals(G: FiniteGroup, p: int, max_index: int) -> list[Subgroup]:
    fingroup.check_prime(p)
    out = []
    for N in fingroup.enumerate_normal_subgroups(G):
        idx = fingroup.index(G, N)
        if idx <= max_index and fingroup.is_p_power_index(G, N, p):
            out.append(N)
    return out


def enumerate_compatible_pairs(spec: AmalgamSpec, p: int,
                               max_index: int) -> tuple[CompatiblePair, ...]:
    """All compatible pairs (R, S) of normal subgroups with p-power indices
    <= max_index, each packaged with its quotient amalgam.

    Sorted by (index of R, elements of R, index of S, elements of S).  The
    candidates are normal by construction, so only their intersections
    with A and B are compared; each quotient checks its normality once.
    """
    rs = _p_power_index_normals(spec.H, p, max_index)
    ss = _p_power_index_normals(spec.K, p, max_index)
    pairs = []
    for R in rs:
        for S in ss:
            if _intersections_agree(spec, R, S):
                pairs.append(quotient_amalgam(spec, R, S))
    pairs.sort(key=lambda c: (fingroup.index(spec.H, c.R), c.R.elements,
                              fingroup.index(spec.K, c.S), c.S.elements))
    return tuple(pairs)


def refine_to_compatible(spec: AmalgamSpec, M: Subgroup, N: Subgroup,
                         p: int) -> CompatiblePair:
    """Compatible (R, S) with R <= M, S <= N, R cap A = U, S cap B = V where
    U = (M cap A) cap (N cap B) phi^-1 and V = (M cap A) phi cap (N cap B).

    Among candidates with the prescribed intersection we pick the largest
    (smallest index).  Raises NoRefinementFound when no normal subgroup of
    p-power index realizes the intersection, which is possible for general
    finite factors.
    """
    fingroup.check_prime(p)
    if not fingroup.is_normal(spec.H, M):
        raise NotNormal("M is not normal in H")
    if not fingroup.is_normal(spec.K, N):
        raise NotNormal("N is not normal in K")
    phi, phi_inv = spec.phi_map, spec.phi_inv_map
    ma = M.element_set() & spec.A.element_set()
    nb = N.element_set() & spec.B.element_set()
    U = ma & {phi_inv[b] for b in nb}
    V = {phi[a] for a in ma} & nb

    def best(G: FiniteGroup, bound: Subgroup, amalg_sub: Subgroup,
             inter: frozenset[int]) -> Subgroup:
        cands = [
            X for X in _p_power_index_normals(G, p, G.order)
            if X.element_set() <= bound.element_set()
            and X.element_set() & amalg_sub.element_set() == inter
        ]
        if not cands:
            raise NoRefinementFound(
                f"no p-power-index normal subgroup inside {bound.elements} "
                f"with amalgam intersection {sorted(inter)}")
        return max(cands, key=lambda X: (len(X), tuple(-e for e in X.elements)))

    R = best(spec.H, M, spec.A, frozenset(U))
    S = best(spec.K, N, spec.B, frozenset(V))
    return quotient_amalgam(spec, R, S)


def project_word(pair: CompatiblePair, w: Word) -> Word:
    """Syllable-wise projection followed by reduction in the quotient spec."""
    syl = []
    for tag, e in w:
        img = pair.proj_H(e) if tag == am.TAG_H else pair.proj_K(e)
        if img != 0:
            syl.append((tag, img))
    return am.reduce(pair.quotient_spec, Word(tuple(syl)))


def _p_prime_generated(G: FiniteGroup, p: int) -> Subgroup:
    """O^p(G): the subgroup generated by the elements of order prime to p."""
    return fingroup.normal_closure(
        G, [e for e in G.elements() if G.element_order(e) % p])


def p_residual(spec: AmalgamSpec, p: int) -> Optional[CompatiblePair]:
    """The p-residual quotient G* = H/R* * K/S* of G, or None when R* and
    S* are trivial (always so when H and K are p-groups).

    A homomorphism of G onto a finite p-group kills O^p(H) and O^p(K), the
    subgroups generated by the elements of order prime to p, and, as its
    restrictions agree on A, whatever phi carries across from them.  R*
    and S* grow from O^p(H) and O^p(K) by phi^-1(S cap B) and phi(A cap R),
    each step a normal closure, until neither grows; the pair is then
    compatible and every such homomorphism factors through G*.  Built once
    per (spec, p).  Raises VerificationFailed unless H/R* and K/S* are
    p-groups."""
    # The order test costs a third of a cache lookup, which hashes the
    # spec's tables: p-group factors, the common case, skip the lookup.
    if fingroup.is_p_group(spec.H, p) and fingroup.is_p_group(spec.K, p):
        return None
    return _p_residual(spec, p)


@lru_cache(maxsize=None)
def _p_residual(spec: AmalgamSpec, p: int) -> Optional[CompatiblePair]:
    phi, phi_inv = spec.phi_map, spec.phi_inv_map
    R, S = _p_prime_generated(spec.H, p), _p_prime_generated(spec.K, p)
    while True:
        grown_R = fingroup.normal_closure(
            spec.H, R.elements + tuple(phi_inv[b] for b in S.elements
                                       if b in phi_inv))
        grown_S = fingroup.normal_closure(
            spec.K, S.elements + tuple(phi[a] for a in grown_R.elements
                                       if a in phi))
        if len(grown_R) == len(R) and len(grown_S) == len(S):
            break
        R, S = grown_R, grown_S
    if len(R) == 1 and len(S) == 1:
        return None
    pair = quotient_amalgam(spec, R, S)
    if not (fingroup.is_p_group(pair.quotient_spec.H, p)
            and fingroup.is_p_group(pair.quotient_spec.K, p)):
        raise VerificationFailed(
            f"p-residual quotient has factors of orders "
            f"{pair.quotient_spec.H.order} and {pair.quotient_spec.K.order}, "
            f"not powers of {p}")
    return pair
