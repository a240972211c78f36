"""Differential tests of the per-amalgam lookup tables.

The reference functions below are the word layer as it was before the
tables: every lookup rebuilds its dict or set, and every coset
decomposition takes a minimum over the amalgamated subgroup.  The tables
must give exactly their outputs.
"""

import pickle
import random

import pytest

from amalgams import amalgam as am
from amalgams import fingroup as fg
from amalgams.amalgam import TAG_H, TAG_K, NormalForm, Word
from conftest import (
    make_amalg1,
    make_c2c3,
    make_c9_amalgam,
    make_d8_d8,
    make_d8_q8,
    make_s3_amalgam,
    make_s3_s3,
)

MAKERS = [make_amalg1, make_s3_amalgam, make_c9_amalgam, make_d8_q8, make_c2c3,
          make_s3_s3, make_d8_d8]
IDS = ["c4_c2_c4", "s3_c3_c6", "c9_c3_c3xc3", "d8_z_q8", "c2_c3",
       "s3_c2_s3", "d8_c2_d8"]


def ref_phi_map(spec):
    return dict(spec.phi)


def ref_phi_inv_map(spec):
    return {b: a for a, b in spec.phi}


def ref_transport(spec, tag, e):
    return dict(spec.phi)[e] if tag == TAG_H else {b: a for a, b in spec.phi}[e]


def ref_in_amalg(spec, tag, e):
    return e in frozenset(spec.amalg(tag).elements)


def ref_coset_decompose(spec, tag, e):
    G = spec.factor(tag)
    rep = min(G.mul(a, e) for a in spec.amalg(tag).elements)
    return G.mul(e, G.inv(rep)), rep


def ref_merge_pass(spec, syl):
    out = []
    for tag, e in syl:
        if out and out[-1][0] == tag:
            merged = spec.factor(tag).mul(out[-1][1], e)
            out.pop()
            if merged != 0:
                out.append((tag, merged))
        elif e != 0:
            out.append((tag, e))
    return out


def ref_reduce(spec, w):
    syl = list(w.syllables)
    while True:
        syl = ref_merge_pass(spec, syl)
        if len(syl) <= 1:
            break
        flipped = False
        for i, (tag, e) in enumerate(syl):
            if ref_in_amalg(spec, tag, e):
                other = TAG_K if tag == TAG_H else TAG_H
                syl[i] = (other, ref_transport(spec, tag, e))
                flipped = True
                break
        if not flipped:
            break
    if len(syl) == 1 and syl[0][0] == TAG_K and ref_in_amalg(spec, TAG_K, syl[0][1]):
        syl = [(TAG_H, ref_transport(spec, TAG_K, syl[0][1]))]
    return Word(tuple(syl))


def ref_normal_form(spec, w):
    syl = ref_reduce(spec, w).syllables
    if len(syl) == 1 and ref_in_amalg(spec, syl[0][0], syl[0][1]):
        tag, e = syl[0]
        a = e if tag == TAG_H else ref_transport(spec, TAG_K, e)
        return NormalForm(a, ())
    carry = 0
    tail = []
    for tag, e in reversed(syl):
        G = spec.factor(tag)
        c = carry if tag == TAG_H else ref_phi_map(spec)[carry]
        a, rep = ref_coset_decompose(spec, tag, G.mul(e, c))
        tail.append((tag, rep))
        carry = a if tag == TAG_H else ref_phi_inv_map(spec)[a]
    tail.reverse()
    return NormalForm(carry, tuple(tail))


def random_words(spec, seed, count=150, max_len=8):
    """Words with arbitrary tags, identity syllables included."""
    rng = random.Random(seed)
    for _ in range(count):
        syl = []
        for _ in range(rng.randint(0, max_len)):
            tag = rng.choice((TAG_H, TAG_K))
            syl.append((tag, rng.randrange(spec.factor(tag).order)))
        yield Word(tuple(syl))


def decider_outputs(spec, seed):
    """Both deciders on random pairs and on random conjugate pairs."""
    words = list(random_words(spec, seed, count=40, max_len=6))
    out = []
    for x, y, z in zip(words, words[1:], words[2:]):
        for v in (y, am.inverse(spec, z).concat(x).concat(z)):
            out.append(am.is_conjugate_general(spec, x, v))
            if spec.central:
                out.append(am.is_conjugate_central(spec, x, v))
    return out


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_tables_match_brute_force(make):
    spec = make()
    for tag in (TAG_H, TAG_K):
        for e in spec.factor(tag).elements():
            assert spec._cosets[tag][e] == ref_coset_decompose(spec, tag, e)
            assert spec.in_amalg(tag, e) == ref_in_amalg(spec, tag, e)
            G, S = spec.factor(tag), spec.amalg(tag).elements
            assert spec._double_cosets[tag][e] == \
                min(G.mul(G.mul(a, e), b) for a in S for b in S)
    for a, b in spec.phi:
        assert spec.transport(TAG_H, a) == b
        assert spec.transport(TAG_K, b) == a
    assert spec.phi_map == ref_phi_map(spec)
    assert spec.phi_inv_map == ref_phi_inv_map(spec)
    with pytest.raises(TypeError):
        spec.phi_map[0] = 1


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_reduce_and_normal_form_match_reference(make):
    spec = make()
    for w in random_words(spec, seed=1):
        assert am.reduce(spec, w) == ref_reduce(spec, w)
        assert am.normal_form(spec, w) == ref_normal_form(spec, w)


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_deciders_match_reference(make):
    spec = make()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(am, "reduce", ref_reduce)
        mp.setattr(am, "normal_form", ref_normal_form)
        mp.setattr(am.AmalgamSpec, "in_amalg", ref_in_amalg)
        mp.setattr(am.AmalgamSpec, "transport", ref_transport)
        mp.setattr(am.AmalgamSpec, "phi_map", property(ref_phi_map))
        mp.setattr(am.AmalgamSpec, "phi_inv_map", property(ref_phi_inv_map))
        expected = decider_outputs(make(), seed=2)
    assert decider_outputs(spec, seed=2) == expected


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_tables_do_not_affect_equality(make):
    built, fresh = make(), make()
    h, k = (next(e for e in built.factor(tag).elements()
                 if not built.in_amalg(tag, e)) for tag in (TAG_H, TAG_K))
    hk = Word(((TAG_H, h), (TAG_K, k)))
    assert am.is_conjugate_general(built, hk, hk).conjugate
    assert 0 in built.A and 0 in built.B
    assert {"_across", "_cosets", "_double_cosets", "_left_action"} \
        <= set(vars(built))
    assert built == fresh and hash(built) == hash(fresh)
    assert {built: 1}[fresh] == 1
    other = fg.make_subgroup(built.H, built.A.elements)
    assert "_members" in vars(built.A) and "_members" not in vars(other)
    assert other == built.A and hash(other) == hash(built.A)
    assert pickle.loads(pickle.dumps(built)) == fresh
