"""The p-residual quotient G* = H/R* * K/S* and the proofs read from it.

Every homomorphism of G onto a finite p-group kills R* and S*, so inputs
conjugate in G* are separated by no finite p-group, and an element trivial
in G* dies in every finite p-quotient.
"""

import itertools
import random

import pytest

import oracles
from amalgams import amalgam as am
from amalgams import fingroup
from amalgams import quotients as qt
from amalgams import separability as sep
from amalgams.amalgam import word
from amalgams.errors import (
    BudgetExhausted,
    ElementsConjugate,
    NotSeparable,
    VerificationFailed,
)
from conftest import (
    make_amalg1,
    make_c2c2,
    make_c2c3,
    make_c9_amalgam,
    make_d16_q16,
    make_d8_d8,
    make_d8_q8,
    make_d8_v_d8_twisted,
    make_s3_amalgam,
    make_s3_s3,
    random_conjugate,
)

FIXTURES = {
    "c4_c2_c4": make_amalg1, "c2_c2": make_c2c2, "c2_c3": make_c2c3,
    "s3_c3_c6": make_s3_amalgam, "c9_c3_c3xc3": make_c9_amalgam,
    "d8_z_q8": make_d8_q8, "d16_z_q16": make_d16_q16,
    "s3_c2_s3": make_s3_s3, "d8_c2_d8": make_d8_d8,
    "d8_v_d8_twisted": make_d8_v_d8_twisted,
}
CATALOG_ORDER = {2: 16, 3: 27}


def W(*syllables):
    return word(syllables)


@pytest.mark.parametrize("name,p", [
    (name, p) for p in (2, 3) for name in FIXTURES
], ids=lambda v: v if isinstance(v, str) else f"p{v}")
def test_every_agreeing_pair_kills_the_closure(name, p):
    """Soundness by brute force: R* and S* lie in the kernels of every
    agreeing pair into every catalog group (trivially so when
    ``p_residual`` returns None)."""
    spec = FIXTURES[name]()
    pair = qt.p_residual(spec, p)
    R = pair.R.elements if pair else (0,)
    S = pair.S.elements if pair else (0,)
    for X in sep.p_group_catalog(p, CATALOG_ORDER[p]):
        for psi_H, psi_K in oracles.agreeing_pairs(spec, X):
            assert all(psi_H(r) == 0 for r in R), X.order
            assert all(psi_K(s) == 0 for s in S), X.order


def _op_closure(spec, p):
    """Reference: the compatible closure of O^p(H) and O^p(K), the
    subgroups generated by the elements of order prime to p."""
    def op(G):
        return fingroup.normal_closure(
            G, [e for e in G.elements() if G.element_order(e) % p])
    R, S = op(spec.H), op(spec.K)
    while True:
        R2 = fingroup.normal_closure(spec.H, R.elements + tuple(
            spec.phi_inv_map[b] for b in S.elements if b in spec.phi_inv_map))
        S2 = fingroup.normal_closure(spec.K, S.elements + tuple(
            spec.phi_map[a] for a in R2.elements if a in spec.phi_map))
        if (R2, S2) == (R, S):
            return R, S
        R, S = R2, S2


@pytest.mark.parametrize("name,p", [
    ("c2_c3", 2), ("s3_c3_c6", 2), ("s3_c2_s3", 2), ("c2_c3", 3),
    ("c4_c2_c4", 3), ("d8_z_q8", 3), ("d8_c2_d8", 3),
    ("d8_v_d8_twisted", 3),
], ids=lambda v: v if isinstance(v, str) else f"p{v}")
def test_off_p_groups_the_closure_of_op(name, p):
    """H/R* and K/S* are p-groups, so (R*, S*) contains the compatible
    closure of O^p(H) and O^p(K); where the factors are not both p-groups
    it equals that closure on these fixtures."""
    spec = FIXTURES[name]()
    pair = qt.p_residual(spec, p)
    assert (pair.R, pair.S) == _op_closure(spec, p)


@pytest.mark.parametrize("make,counts", [
    (make_s3_amalgam, (162, 10, 38)), (make_c2c3, (30, 22, 4)),
    (make_d8_v_d8_twisted, (288, 22, 70)),
], ids=["s3_c3_c6", "c2_c3", "d8_v_d8_twisted"])
def test_proof_fires_exactly_where_the_walk_finds_nothing(make, counts):
    """Ordered pairs of length <= 2, p = 2, order 16: every search ends
    found, proved or conjugate (a plain BudgetExhausted fails the test),
    with NotSeparable exactly where the catalog walk finds nothing."""
    spec = make()
    budget = sep.SearchBudget(2, 16, 16)
    catalog = sep.p_group_catalog(2, 16)
    found = proved = conjugate = 0
    for f, g in itertools.permutations(
            sep.enumerate_cyclically_reduced(spec, 2), 2):
        try:
            sep.search_witness(spec, f, g, budget)
            found += 1
            continue
        except ElementsConjugate:
            conjugate += 1
            continue
        except NotSeparable:
            proved += 1
        walk = sep._first_agreeing_pair(spec, catalog, (f, g), sep._separates)
        assert walk is None, (f, g)
    assert (found, proved, conjugate) == counts


@pytest.mark.parametrize("make,p", [
    (make_amalg1, 2), (make_d8_q8, 2), (make_c9_amalgam, 3),
], ids=["c4_c2_c4", "d8_z_q8", "c9_c3_c3xc3"])
def test_none_for_p_group_factors(make, p):
    """Residually p amalgams of p-groups: the series reaches (1, 1)."""
    assert qt.p_residual(make(), p) is None


def test_closure_of_s3_c3_c6():
    """O^2(S3) = A3 is the amalgamated subgroup and O^2(C6) its image, so
    the series stops there and G* = C2 * C2."""
    spec = make_s3_amalgam()
    pair = qt.p_residual(spec, 2)
    assert pair.R.elements == spec.A.elements
    assert pair.S.elements == spec.B.elements
    assert (pair.quotient_spec.H.order, pair.quotient_spec.K.order) == (2, 2)


def test_built_once_per_spec(monkeypatch):
    """The pair is built on the first request per (spec, p) and held on
    the spec, so an equal spec parsed anew builds its own."""
    calls = []
    build = qt._p_residual
    monkeypatch.setattr(qt, "_p_residual",
                        lambda spec, p: calls.append(p) or build(spec, p))
    spec = make_s3_amalgam()
    pair = qt.p_residual(spec, 2)
    assert qt.p_residual(spec, 2) is pair and calls == [2]
    qt.p_residual(spec, 3)
    assert calls == [2, 3]
    fresh = make_s3_amalgam()
    assert fresh == spec and fresh.p_residuals == {}
    assert qt.p_residual(fresh, 2).R == pair.R and calls == [2, 3, 2]


def test_twisted_d8_v_d8_is_not_residually_2():
    """Both factors are 2-groups, yet the series stops at (V, V): phi
    carries the centre of one factor to a non-central element of the
    other, so G* = C2 * C2."""
    spec = make_d8_v_d8_twisted()
    pair = qt.p_residual(spec, 2)
    assert pair.R == spec.A and pair.S == spec.B
    assert (pair.quotient_spec.H.order, pair.quotient_spec.K.order) == (2, 2)


def test_twisted_residual_check_needs_no_walk(monkeypatch):
    """H:2, H:4 and H:6, the non-identity elements of V, die in every
    finite 2-quotient; the bounded check records them without a walk."""
    spec = make_d8_v_d8_twisted()
    walked = []
    walk = sep._first_agreeing_pair
    monkeypatch.setattr(
        sep, "_first_agreeing_pair",
        lambda spec, catalog, words, test: walked.append(words[0])
        or walk(spec, catalog, words, test))
    report = sep.check_residually_p_bounded(spec, 1,
                                            sep.SearchBudget(2, 16, 16))
    dead = [W(("H", e)) for e in (2, 4, 6)]
    assert [e.element for e in report.failures] == dead
    assert all(e.witness is None for e in report.failures)
    assert walked and not set(walked) & set(dead)


def test_not_separable_carries_a_checked_conjugator(s3_amalgam):
    f, g = W(("K", 1)), W(("K", 3))
    with pytest.raises(NotSeparable) as info:
        sep.search_witness(s3_amalgam, f, g, sep.SearchBudget())
    exc = info.value
    assert isinstance(exc, BudgetExhausted)
    assert "no finite 2-group separates the inputs" in str(exc)
    pair = qt.p_residual(s3_amalgam, 2)
    assert (exc.R, exc.S) == (pair.R, pair.S)
    q, z = pair.quotient_spec, exc.conjugator
    assert am.equal_in_g(
        q, am.inverse(q, z).concat(qt.project_word(pair, f)).concat(z),
        qt.project_word(pair, g))


@pytest.mark.parametrize("make", [make_s3_amalgam, make_c2c3],
                         ids=["s3_c3_c6", "c2_c3"])
def test_proof_conjugator_speaks_of_the_inputs(make):
    """With conjugated inputs, the proof's conjugator carries the G* image
    of the first input itself, not of its cyclic reduction, to that of the
    second."""
    spec = make()
    pair = qt.p_residual(spec, 2)
    q = pair.quotient_spec
    budget = sep.SearchBudget(2, 16, 16)
    rng = random.Random(23)
    proofs = 0
    for f, g in itertools.permutations(
            sep.enumerate_cyclically_reduced(spec, 2), 2):
        f, g = random_conjugate(spec, f, rng), random_conjugate(spec, g, rng)
        try:
            sep.search_witness(spec, f, g, budget)
        except ElementsConjugate:
            continue
        except NotSeparable as exc:
            z = exc.conjugator
            assert am.equal_in_g(
                q, am.inverse(q, z).concat(qt.project_word(pair, f)).concat(z),
                qt.project_word(pair, g)), (f, g)
            proofs += 1
    assert proofs


def test_non_p_group_quotient_raises(monkeypatch):
    """The closure's quotient is re-checked to be a pair of p-groups: one
    that is not raises instead of proving anything."""
    spec = make_c2c3()
    trivial = qt.quotient_amalgam(spec, spec.A, spec.B)  # G* = G
    monkeypatch.setattr(qt, "quotient_amalgam", lambda *args: trivial)
    with pytest.raises(VerificationFailed):
        qt.p_residual(spec, 2)


@pytest.mark.parametrize("make", [make_c2c3, make_s3_amalgam,
                                  make_d8_v_d8_twisted],
                         ids=["c2_c3", "s3_c3_c6", "d8_v_d8_twisted"])
def test_residual_entries_match_the_catalog_walk(make, monkeypatch):
    spec = make()
    budget = sep.SearchBudget(2, 16, 16)
    pair = qt.p_residual(spec, 2)
    proved = [w for w in sep.enumerate_elements(spec, 2) if w.syllables
              and am.equal_in_g(pair.quotient_spec, qt.project_word(pair, w),
                                am.EMPTY)]
    assert proved  # e.g. K:1 on C2 * C3
    got = sep.check_residually_p_bounded(spec, 2, budget)
    monkeypatch.setattr(qt, "p_residual", lambda spec, p: None)
    walked = sep.check_residually_p_bounded(spec, 2, budget)
    assert got == walked
