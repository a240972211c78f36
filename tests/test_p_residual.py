"""The p-residual quotient G* = H/R* * K/S* and the proofs read from it.

Every homomorphism of G onto a finite p-group kills R* and S*, so inputs
conjugate in G* are separated by no finite p-group, and an element trivial
in G* dies in every finite p-quotient.
"""

import itertools
import random

import pytest

from amalgams import amalgam as am
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
    make_c2c3,
    make_c9_amalgam,
    make_d8_q8,
    make_s3_amalgam,
    random_conjugate,
)


def W(*syllables):
    return word(syllables)


@pytest.mark.parametrize("make,p,order", [
    (make_s3_amalgam, 2, 16), (make_c2c3, 2, 16),
    (make_s3_amalgam, 3, 27), (make_c2c3, 3, 27),
], ids=["s3_c3_c6-p2", "c2_c3-p2", "s3_c3_c6-p3", "c2_c3-p3"])
def test_every_agreeing_pair_kills_the_closure(make, p, order):
    """Soundness by brute force: R* and S* lie in the kernels of every
    agreeing pair into every catalog group."""
    spec = make()
    pair = qt.p_residual(spec, p)
    assert pair is not None
    for X in sep.p_group_catalog(p, order):
        for psi_H, psi_K in sep.agreeing_pairs(spec, X):
            assert all(psi_H(r) == 0 for r in pair.R.elements), X.order
            assert all(psi_K(s) == 0 for s in pair.S.elements), X.order


@pytest.mark.parametrize("make,length", [
    (make_s3_amalgam, 2), (make_c2c3, 2),
], ids=["s3_c3_c6", "c2_c3"])
def test_proof_fires_exactly_where_the_walk_finds_nothing(make, length):
    spec = make()
    budget = sep.SearchBudget(2, 16, 16)
    catalog = sep.p_group_catalog(2, 16)
    fired = 0
    for f, g in itertools.combinations(
            sep.enumerate_cyclically_reduced(spec, length), 2):
        try:
            sep.search_witness(spec, f, g, budget)
            proved = False
        except ElementsConjugate:
            continue
        except NotSeparable:
            proved = True
        walk = sep._first_agreeing_pair(spec, catalog, (f, g), sep._separates)
        assert proved == (walk is None), (f, g)
        fired += proved
    assert fired


@pytest.mark.parametrize("make,p", [
    (make_amalg1, 2), (make_d8_q8, 2), (make_c9_amalgam, 3),
], ids=["c4_c2_c4", "d8_z_q8", "c9_c3_c3xc3"])
def test_none_for_p_group_factors(make, p):
    assert qt.p_residual(make(), p) is None


def test_closure_of_s3_c3_c6():
    """O^2(S3) = A3 is the amalgamated subgroup and O^2(C6) its image, so
    the closure stops there and G* = C2 * C2."""
    spec = make_s3_amalgam()
    pair = qt.p_residual(spec, 2)
    assert pair.R.elements == spec.A.elements
    assert pair.S.elements == spec.B.elements
    assert (pair.quotient_spec.H.order, pair.quotient_spec.K.order) == (2, 2)
    assert qt.p_residual(spec, 2) is pair  # built once per (spec, p)
    assert callable(qt._p_residual.cache_clear)  # a cold set-up empties it


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
    qt._p_residual.cache_clear()
    try:
        with pytest.raises(VerificationFailed):
            qt.p_residual(spec, 2)
    finally:
        qt._p_residual.cache_clear()


@pytest.mark.parametrize("make", [make_c2c3, make_s3_amalgam],
                         ids=["c2_c3", "s3_c3_c6"])
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
