"""Differential tests of the deduplicated witness kernel.

The references below are the pair loops the kernel replaced: every
agreeing pair is built into a Witness and its images are recomputed with
``word_image``.  The kernel must return exactly the same witness (target
table and both image tuples), or None where they do.
"""

import itertools

import pytest

import oracles
from amalgams import amalgam as am
from amalgams import separability as sep
from conftest import (
    make_amalg1,
    make_c2c3,
    make_c9_amalgam,
    make_d8_q8,
    make_d16_q16,
    make_s3_amalgam,
)


def ref_hom_pair_witness(spec, f, g, catalog):
    for X in catalog:
        cls_of = {e: frozenset(X.conj(e, z) for z in X.elements())
                  for e in X.elements()}
        for psi_H, psi_K in oracles.agreeing_pairs(spec, X):
            w = sep.Witness(X, psi_H, psi_K, "direct")
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
                cand = sep.Witness(X, psi_H, psi_K, "direct")
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
    return (w.target.table, w.psi_H.images, w.psi_K.images, w.strategy_tag)


@pytest.mark.parametrize("make,length,p,order", [
    (make_s3_amalgam, 2, 2, 16),
    (make_c9_amalgam, 2, 3, 27),
    (make_d8_q8, 1, 2, 16),
    (make_d16_q16, 1, 2, 8),
], ids=["s3_c3_c6", "c9_c3_c3xc3", "d8_z_q8", "d16_z_q16"])
def test_same_witness_as_pair_loop(make, length, p, order):
    spec = make()
    catalog = sep.p_group_catalog(p, order)
    reps = sep.enumerate_cyclically_reduced(spec, length)
    found = 0
    for f, g in itertools.combinations(reps, 2):
        hit = sep._first_agreeing_pair(spec, catalog, (f, g))
        got = sep.Witness(*hit, "direct") if hit else None
        assert key(got) == key(ref_hom_pair_witness(spec, f, g, catalog)), \
            (f, g)
        found += got is not None
    assert found  # the comparison covered witnesses, not only None


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
