"""Differential tests of the deduplicated witness kernel.

The references below are the pair loops the kernel replaced: every
agreeing pair is built into a Witness and its images are recomputed with
``word_image``.  The kernel must return exactly the same witness (target
table and both image tuples), or None where they do.
"""

import itertools
import random

import pytest

import oracles
from amalgams import amalgam as am
from amalgams import separability as sep
from amalgams.errors import BudgetExhausted, ElementsConjugate, NotSeparable
from conftest import (
    make_amalg1,
    make_c2c3,
    make_c9_amalgam,
    make_d8_d8,
    make_d8_q8,
    make_d8_v_d8_twisted,
    make_d16_q16,
    make_he3_c9,
    make_s3_amalgam,
    make_s3_s3,
)


def ref_hom_pair_witness(spec, f, g, catalog):
    for X in catalog:
        cls_of = {e: frozenset(X.conj(e, z) for z in X.elements())
                  for e in X.elements()}
        for psi_H, psi_K in oracles.agreeing_pairs(spec, X):
            w = sep.Witness(X, psi_H, psi_K)
            if cls_of[sep.word_image(w, f)] != cls_of[sep.word_image(w, g)]:
                return w
    return None


def ref_residual_entries(spec, p, length_bound, order):
    """(element, survives, witness) per nontrivial cyclically reduced
    element: the first agreeing pair with a nontrivial image."""
    catalog = sep.p_group_catalog(p, order)
    entries = []
    for w in sep.enumerate_cyclically_reduced(spec, length_bound):
        if not w.syllables:
            continue
        hit = None
        for X in catalog:
            for psi_H, psi_K in oracles.agreeing_pairs(spec, X):
                cand = sep.Witness(X, psi_H, psi_K)
                if sep.word_image(cand, w) != 0:
                    hit = cand
                    break
            if hit:
                break
        entries.append((w, hit is not None, key(hit)))
    return entries


def key(w):
    if w is None:
        return None
    return (w.target.table, w.psi_H.images, w.psi_K.images)


@pytest.mark.parametrize("make,length,p,order", [
    (make_amalg1, 2, 2, 16),
    (make_s3_amalgam, 2, 2, 16),
    (make_c9_amalgam, 2, 3, 27),
    (make_c2c3, 2, 2, 8),
    (make_d8_q8, 1, 2, 16),
    (make_d16_q16, 1, 2, 8),
    (make_s3_s3, 2, 2, 16),
    (make_d8_d8, 1, 2, 16),
    (make_d8_v_d8_twisted, 1, 2, 16),
    (make_he3_c9, 1, 3, 27),
], ids=["c4_c2_c4", "s3_c3_c6", "c9_c3_c3xc3", "c2_c3", "d8_z_q8",
        "d16_z_q16", "s3_c2_s3", "d8_c2_d8", "d8_v_d8_twisted", "he3_c3_c9"])
def test_same_witness_as_pair_loop(make, length, p, order):
    spec = make()
    catalog = sep.p_group_catalog(p, order)
    reps = sep.enumerate_cyclically_reduced(spec, length)
    found = 0
    for f, g in itertools.combinations(reps, 2):
        hit = sep._first_agreeing_pair(spec, catalog, (f, g))
        got = sep.Witness(*hit) if hit else None
        assert key(got) == key(ref_hom_pair_witness(spec, f, g, catalog)), \
            (f, g)
        found += got is not None
    assert found  # the comparison covered witnesses, not only None


def search_outcome(spec, f, g, budget):
    try:
        w = sep.search_witness(spec, f, g, budget)
    except ElementsConjugate:
        return "conjugate", None
    except NotSeparable:
        return "proved", None
    except BudgetExhausted:
        return "exhausted", None
    return "found", (w.target, w.psi_H, w.psi_K)


@pytest.mark.parametrize("make,p,order", [
    (make_amalg1, 2, 16),
    (make_s3_amalgam, 2, 16),
    (make_c9_amalgam, 3, 27),
    (make_c2c3, 2, 8),
    (make_d8_q8, 2, 16),
    (make_d16_q16, 2, 8),
    (make_s3_s3, 2, 16),
    (make_d8_d8, 2, 16),
    (make_d8_v_d8_twisted, 2, 16),
    (make_he3_c9, 3, 27),
], ids=["c4_c2_c4", "s3_c3_c6", "c9_c3_c3xc3", "c2_c3", "d8_z_q8",
        "d16_z_q16", "s3_c2_s3", "d8_c2_d8", "d8_v_d8_twisted", "he3_c3_c9"])
def test_skipping_abelian_targets_keeps_the_witness(make, p, order):
    """Over every non-conjugate pair of cyclically reduced elements of
    length <= 2 that agree in the largest abelian p-quotient of G, the
    search, which skips the abelian targets for them, returns the witness
    of the walk over the whole catalog, and is exhausted or proved where
    that walk finds none.  A pair the test tells apart walks the whole
    catalog anyway."""
    spec = make()
    budget = sep.SearchBudget(p, order, order)
    catalog = sep.p_group_catalog(p, order)
    outcomes = []
    for f, g in itertools.combinations(
            sep.enumerate_cyclically_reduced(spec, 2), 2):
        if am._decide(spec, f, g).conjugate \
                or not sep._agree_in_abelian_p_quotient(spec, p, f, g):
            continue
        outcome, found = search_outcome(spec, f, g, budget)
        assert found == sep._first_agreeing_pair(spec, catalog, (f, g)), \
            (f, g)
        outcomes.append(outcome)
    # C4 *_{C2} C4 and C9 *_{C3} C3^2 have no such pair: every
    # non-conjugate pair there differs in G^ab's p-quotient.
    assert outcomes or make in (make_amalg1, make_c9_amalgam)


@pytest.mark.parametrize("make,exhausted", [
    (make_d8_q8, 37), (make_d8_d8, 22),
], ids=["d8_z_q8", "d8_c2_d8"])
def test_order_32_sweep_keeps_every_outcome(make, exhausted):
    """Every pair of distinct cyclically reduced elements of length <= 2
    at order 32: the search's outcome and witness are those of the walk
    over the whole catalog, and the exhausted count stays as the census
    has it."""
    spec = make()
    budget = sep.SearchBudget(2, 32, 16)
    catalog = sep.p_group_catalog(2, 32)
    counts = {}
    for f, g in itertools.combinations(
            sep.enumerate_cyclically_reduced(spec, 2), 2):
        outcome, found = search_outcome(spec, f, g, budget)
        if outcome != "conjugate":
            assert found == sep._first_agreeing_pair(spec, catalog, (f, g))
        counts[outcome] = counts.get(outcome, 0) + 1
    assert counts["exhausted"] == exhausted and counts["found"] > 1000


@pytest.mark.parametrize("make,order", [
    (make_amalg1, 16), (make_c2c3, 8), (make_d8_q8, 16),
], ids=["c4_c2_c4", "c2_c3", "d8_z_q8"])
def test_same_residual_entries_as_pair_loop(make, order):
    """The residual check is the search against the identity: its entries
    are those of a loop over all agreeing pairs testing for a nontrivial
    image."""
    spec = make()
    budget = sep.SearchBudget(2, order, order, 2)
    got = sep.is_cfp_separable_bounded(spec, am.EMPTY, budget)
    assert [(e.other, e.separated, key(e.witness)) for e in got.entries] == \
        ref_residual_entries(spec, 2, 2, order)


def test_non_central_residual_keeps_the_centre_unseparated():
    """He3 *_{C3} C9 over a non-central C3, p = 3: the residual check
    leaves exactly He3's centre, H:9 and H:18, unseparated and unproved,
    whatever groups of order <= 27 the catalog holds.  A map that keeps
    the centre is injective on He3 (every nontrivial normal subgroup of
    He3 contains it), so its target of order <= 27 is He3, of exponent 3;
    but then psi_K(1)^3 = 1 is not the image of the glued (1, 0, 0)."""
    spec = make_he3_c9()
    got = sep.is_cfp_separable_bounded(spec, am.EMPTY,
                                       sep.SearchBudget(3, 27, 27, 1))
    left = [e for e in got.entries if not e.separated]
    assert [e.other for e in left] == [am.word([("H", 9)]),
                                       am.word([("H", 18)])]
    assert not any(e.proved for e in left)


@pytest.mark.parametrize("make,length", [
    (make_amalg1, 3), (make_d8_q8, 1),
], ids=["c4_c2_c4", "d8_z_q8"])
def test_witnesses_do_not_depend_on_query_order(make, length):
    """A sweep of every ordered pair of distinct cyclically reduced
    elements, run on a fresh spec in two seeded shuffled orders: every
    verdict and witness (target table and both image tuples) is the same,
    and so are the target records the two sweeps leave on their specs.  A
    query may fill a record but must leave nothing in it that a later
    query reads differently."""
    budget = sep.SearchBudget(2, 16, 16)
    runs = []
    for seed in (0, 1):
        spec = make()
        pairs = list(itertools.permutations(
            sep.enumerate_cyclically_reduced(spec, length), 2))
        order = list(range(len(pairs)))
        random.Random(seed).shuffle(order)
        outcomes = {}
        for i in order:
            try:
                outcomes[i] = key(sep.search_witness(spec, *pairs[i], budget))
            except (ElementsConjugate, BudgetExhausted) as exc:
                outcomes[i] = type(exc).__name__
        runs.append((order, outcomes, spec.targets))
    (order0, first, targets0), (order1, second, targets1) = runs
    assert order0 != order1
    assert first == second
    assert targets0 == targets1
    verdicts = {v if isinstance(v, str) else "found" for v in first.values()}
    assert "found" in verdicts and len(verdicts) > 1, verdicts
