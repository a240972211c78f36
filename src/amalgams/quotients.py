"""(A,B,phi)-compatible normal subgroup pairs and the quotient amalgam.

A pair of normal subgroups R <| H, S <| K is compatible when
(A cap R) phi = B cap S; it then induces the amalgam
G_{R,S} = (H/R * K/S; AR/R = BS/S) and a projection of words.

``p_residual`` builds the compatible pair that every homomorphism into a
finite p-group kills, for any finite factors: the end of the compatible
lower exponent-p central series, and the quotient through which all of
those homomorphisms factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import amalgam as am
from . import fingroup
from .amalgam import AmalgamSpec, Word
from .errors import NotCompatible, NotPPower, VerificationFailed
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


def quotient_amalgam(spec: AmalgamSpec, R: Subgroup, S: Subgroup) -> CompatiblePair:
    """Builds H/R, K/S (``fingroup.quotient`` checks normality, raising
    NotNormal), the images AR/R and BS/S, and the induced isomorphism,
    checked by make_amalgam.  Raises NotCompatible for an incompatible
    pair.  The induced map is well-defined on a compatible pair: a1 R =
    a2 R puts a1^-1 a2 in A cap R, whose image under phi lies in S."""
    QH, pH = fingroup.quotient(spec.H, R)
    QK, pK = fingroup.quotient(spec.K, S)
    if not _intersections_agree(spec, R, S):
        raise NotCompatible(f"R={R.elements}, S={S.elements}")
    phi_q = {pH(a): pK(spec.phi_map[a]) for a in spec.A.elements}
    qspec = am.make_amalgam(QH, QK, sorted(phi_q), sorted(phi_q.values()),
                            phi_q)
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
    A max_index below 1 admits no subgroup and raises NotPPower.
    """
    if max_index < 1:
        raise NotPPower(f"max index {max_index} must be positive")
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


def project_word(pair: CompatiblePair, w: Word) -> Word:
    """Syllable-wise projection followed by reduction in the quotient spec."""
    syl = []
    for tag, e in w:
        img = pair.proj_H(e) if tag == am.TAG_H else pair.proj_K(e)
        if img != 0:
            syl.append((tag, img))
    return am.reduce(pair.quotient_spec, Word(tuple(syl)))


def p_residual(spec: AmalgamSpec, p: int) -> Optional[CompatiblePair]:
    """The p-residual quotient G* = H/R* * K/S* of G, or None when R* and
    S* are trivial.

    (R*, S*) is the end of the compatible lower exponent-p central series:
    from (H, K), each step takes ([H, R] R^p, [K, S] S^p) and grows it by
    phi^-1(S cap B) and phi(A cap R), each a normal closure, to the least
    compatible pair containing it, until neither shrinks.  A homomorphism
    of G into a finite p-group P kills R* and S*: the preimages in H and K
    of the terms of P's lower exponent-p central series are compatible
    pairs, as the two restrictions agree on A, and by induction each
    contains the matching iterate; the last term is trivial.  So every
    such homomorphism factors through G* (the necessary direction of
    G. Higman, "Amalgams of p-groups", J. Algebra 1 (1964)).  Built once
    per (spec, p) and held on the spec (``AmalgamSpec.p_residuals``).
    Raises VerificationFailed unless H/R* and K/S* are p-groups."""
    if p not in spec.p_residuals:
        spec.p_residuals[p] = _p_residual(spec, p)
    return spec.p_residuals[p]


def _p_residual(spec: AmalgamSpec, p: int) -> Optional[CompatiblePair]:
    fingroup.check_prime(p)
    R, S = fingroup.full_subgroup(spec.H), fingroup.full_subgroup(spec.K)
    while True:
        lower_R, lower_S = _close(spec, _lower_step(spec.H, R, p),
                                  _lower_step(spec.K, S, p))
        if len(lower_R) == len(R) and len(lower_S) == len(S):
            break
        R, S = lower_R, lower_S
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


def _lower_step(G: FiniteGroup, N: Subgroup, p: int) -> Subgroup:
    """[G, N] N^p for N normal in G.  Conjugation by G permutes the
    commutators [g, n] and the powers n^p, so they generate a normal
    subgroup."""
    gens = set()
    for n in N.elements:
        for g in G.elements():
            gens.add(G.mul(G.inv(g), G.conj(g, n)))  # g^-1 n^-1 g n
        power = 0
        for _ in range(p):
            power = G.mul(power, n)
        gens.add(power)
    return fingroup.subgroup_closure(G, gens)


def _close(spec: AmalgamSpec, R: Subgroup,
           S: Subgroup) -> tuple[Subgroup, Subgroup]:
    """The least compatible pair of normal subgroups containing (R, S):
    R grows by phi^-1(S cap B) and S by phi(A cap R), each under normal
    closure, until neither grows."""
    phi, phi_inv = spec.phi_map, spec.phi_inv_map
    while True:
        grown_R = fingroup.normal_closure(
            spec.H, R.elements + tuple(phi_inv[b] for b in S.elements
                                       if b in phi_inv))
        grown_S = fingroup.normal_closure(
            spec.K, S.elements + tuple(phi[a] for a in grown_R.elements
                                       if a in phi))
        if len(grown_R) == len(R) and len(grown_S) == len(S):
            return R, S
        R, S = grown_R, grown_S
