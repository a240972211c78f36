"""Differential tests of the one-pass word layer.

The reference is the table-free word layer of ``oracles`` (``ref_*``).
The library must give exactly its outputs: reduced words, cyclic
reductions with their conjugators, normal forms, closures and verdicts
(conjugator and certificate included), from both deciders.
``normal_form`` must not depend on ``reduce``, so that the conjugator
checks do not share the code whose output they check.
"""

import itertools
import random

import pytest

from amalgams import amalgam as am
from amalgams import fileio
from amalgams.amalgam import TAG_H, TAG_K, EMPTY, NormalForm, Word, word
from amalgams.errors import IndexOutOfRange, VerificationFailed
from conftest import (
    check_deciders,
    check_reduce_and_normal_form,
    make_amalg1,
    make_c2c3,
    make_c9_amalgam,
    make_d8_d8,
    make_d8_q8,
    make_d16_q16,
    make_he3_c9,
    make_s3_amalgam,
    make_s3_s3,
)
from oracles import (
    ref_cyclic_by_push,
    ref_cyclically_reduce,
    ref_equal_in_g,
    ref_is_conjugate_general,
    ref_length1_closure,
    ref_normal_form,
    ref_reduce,
)
from test_separability import ALL_MAKERS
from test_tables import sample_amalgams

MAKERS = [make_amalg1, make_s3_amalgam, make_c9_amalgam, make_d8_q8, make_c2c3,
          make_s3_s3, make_d8_d8]
IDS = ["c4_c2_c4", "s3_c3_c6", "c9_c3_c3xc3", "d8_z_q8", "c2_c3",
       "s3_c2_s3", "d8_c2_d8"]


def biased_words(spec, seed, count, max_len):
    """Random words biased towards the cases the reduction must order
    correctly: amalgamated elements, identity syllables and runs of
    syllables from one factor."""
    rng = random.Random(seed)
    for _ in range(count):
        syl = []
        tag = rng.choice((TAG_H, TAG_K))
        for _ in range(rng.randint(0, max_len)):
            if rng.random() < 0.6:
                tag = TAG_K if tag == TAG_H else TAG_H
            roll = rng.random()
            if roll < 0.4:
                e = rng.choice(spec.amalg(tag).elements)
            elif roll < 0.5:
                e = 0
            else:
                e = rng.randrange(spec.factor(tag).order)
            syl.append((tag, e))
        yield Word(tuple(syl))


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_reduce_and_normal_form_match_reference(make):
    spec = make()
    check_reduce_and_normal_form(
        spec, biased_words(spec, seed=11, count=1500, max_len=12))


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_cyclically_reduce_matches_reference(make):
    spec = make()
    for w in biased_words(spec, seed=12, count=600, max_len=12):
        assert am.cyclically_reduce(spec, w) == ref_cyclically_reduce(spec, w), w


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_deciders_match_reference(make):
    spec = make()
    check_deciders(spec, biased_words(spec, seed=13, count=90, max_len=7))


def cyclic_word(spec, rng, n):
    """A random cyclically reduced word of even length n: alternating tags
    and no syllable in an amalgamated subgroup."""
    syl = []
    for i in range(n):
        tag = (TAG_H, TAG_K)[i % 2]
        pool = [e for e in spec.factor(tag).elements() if e not in spec.amalg(tag)]
        syl.append((tag, rng.choice(pool)))
    return Word(tuple(syl))


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_deciders_at_equal_cyclic_length(make):
    """The pairs the rotation filter sorts: equal cyclic lengths, and
    conjugates by a word ending in an amalgamated syllable a, whose last
    syllable u_n*a leaves the right coset A*u_n (when A is not normal) but
    not the double coset A*u_n*A."""
    spec = make()
    rng = random.Random(14)
    for _ in range(150):
        n = rng.choice((2, 4, 6))
        x, y = cyclic_word(spec, rng, n), cyclic_word(spec, rng, n)
        tag = rng.choice((TAG_H, TAG_K))
        a = rng.choice(spec.amalg(tag).elements)
        z = Word(x.syllables[:rng.randrange(n)] + ((tag, a),))
        for v in (y, am.inverse(spec, z).concat(x).concat(z)):
            expected = ref_is_conjugate_general(spec, x, v)
            assert am.is_conjugate_general(spec, x, v) == expected, (x, v)
            if spec.central:
                assert am.is_conjugate_central(spec, x, v) == expected, (x, v)


def alternating_word(spec, rng, n):
    """n alternating syllables of random non-identity elements, amalgamated
    ones included, as the words of the benchmark's words workload."""
    tag, syl = rng.choice((TAG_H, TAG_K)), []
    for _ in range(n):
        syl.append((tag, rng.randrange(1, spec.factor(tag).order)))
        tag = TAG_K if tag == TAG_H else TAG_H
    return Word(tuple(syl))


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_deciders_match_reference_at_workload_lengths(make):
    """Words of 16 to 32 syllables and conjugators of up to 32, so that
    both inputs rotate through long prefixes: every verdict, conjugator
    bytes included, is the reference's.  The pair (u, v) is conjugate; the
    pair (u, w) mostly is not."""
    spec = make()
    rng = random.Random(17)
    for n in (16, 24, 32) * 4:
        x, y = alternating_word(spec, rng, n), alternating_word(spec, rng, n)
        u, v, w = (am.inverse(spec, z).concat(t).concat(z) for t, z in (
            (x, alternating_word(spec, rng, rng.randint(1, 32))),
            (x, alternating_word(spec, rng, rng.randint(1, 32))),
            (y, alternating_word(spec, rng, rng.randint(1, 32)))))
        for a, b in ((u, v), (u, w)):
            expected = ref_is_conjugate_general(spec, a, b)
            got = am.is_conjugate_general(spec, a, b)
            assert got == expected, (a, b)
            assert got.reduced == expected.reduced  # not compared by ==
            if spec.central:
                assert am.is_conjugate_central(spec, a, b) == expected


def test_cyclic_matches_rotation_by_push():
    """``_cyclic`` gives the reference rotation's c and moved syllables,
    which verdict equality does not compare: on biased words over every
    amalgam of the suites and the sampled ones, and on conjugates z^-1 w z
    shaped like the words workload's on D16 *_Z Q16."""
    specs = [make() for make in ALL_MAKERS] + sample_amalgams(seed=0, draws=40)
    rotated = 0
    for i, spec in enumerate(specs):
        for w in biased_words(spec, seed=i, count=200, max_len=12):
            got = am._cyclic(spec, w)
            assert got == ref_cyclic_by_push(spec, w), w
            rotated += bool(got[1])
    spec, rng = make_d16_q16(), random.Random(0)
    for n in (8, 16, 32) * 100:
        w = alternating_word(spec, rng, n)
        z = alternating_word(spec, rng, rng.randint(1, n))
        conj = am.inverse(spec, z).concat(w).concat(z)
        got = am._cyclic(spec, conj)
        assert got == ref_cyclic_by_push(spec, conj), conj
        rotated += bool(got[1])
    assert rotated > 900  # 1,011 of the 8,700 inputs rotate


@pytest.mark.parametrize("w, c, moved", [
    ("H:1 K:1 H:3", "K:1", "H:1"),
    ("H:1 K:1 H:1", "K:3", "H:1"),
    ("H:1 K:1 H:4", "K:1 H:7", "H:1"),
], ids=["product-is-1", "carried-into-left", "merged"])
def test_cyclic_moves_one_syllable(w, c, moved):
    """One rotation per case of the in-place merge on D8 *_Z Q8, A = {0, 2}:
    H:3 * H:1 = 1 is dropped, H:1 * H:1 = H:2 in A is carried into K:1,
    and H:4 * H:1 = H:7 replaces H:4."""
    spec = make_d8_q8()
    w, c, moved = (fileio.parse_word(spec, t) for t in (w, c, moved))
    assert am._cyclic(spec, w) == (c, moved) == ref_cyclic_by_push(spec, w)


def label_sequences(spec, per_coset):
    """Every alternating word of length 2 and 4, from either factor first,
    whose syllables are among the ``per_coset`` least elements of each
    nontrivial double coset S*e*S (S the amalgamated subgroup), mapped to
    its (tag, double-coset label) sequence by brute force.  No word of
    length 3 is cyclically reduced: its ends lie in one factor."""
    label, pools = {}, {}
    for tag in (TAG_H, TAG_K):
        G, S = spec.factor(tag), spec.amalg(tag).elements
        cosets = {}
        for e in G.elements():
            if e not in spec.amalg(tag):
                label[tag, e] = min(G.mul(G.mul(a, e), b) for a in S for b in S)
                cosets.setdefault(label[tag, e], []).append(e)
        pools[tag] = [e for elts in cosets.values() for e in elts[:per_coset]]
    for n in (2, 4):
        for tags in ((TAG_H, TAG_K) * (n // 2), (TAG_K, TAG_H) * (n // 2)):
            for elts in itertools.product(*map(pools.get, tags)):
                w = Word(tuple(zip(tags, elts)))
                yield w, [(tag, label[tag, e]) for tag, e in w.syllables]


@pytest.mark.parametrize("make, per_coset", [
    (make_amalg1, 2), (make_s3_amalgam, 3), (make_he3_c9, 1)],
    ids=["c4_c2_c4", "s3_c3_c6", "he3_c3_c9"])
def test_label_matches_is_its_definition(make, per_coset):
    """``_label_matches`` returns exactly the rotations i of cx whose
    (tag, label) sequence is cy's, for every pair of equal length, first
    tags equal or not.  On C4 *_{C2} C4 and S3 *_{C3} C6 the words are all
    cyclically reduced words of length 2 and 4, and each factor has one
    nontrivial double coset, so only the tags tell rotations apart.  He3
    has four nontrivial double cosets and C9 two; there one element of
    each gives every label sequence."""
    spec = make()
    words = list(label_sequences(spec, per_coset))
    found_across_tags = 0
    for cx, lx in words:
        assert am.cyclically_reduce(spec, cx) == (cx, EMPTY)
        n = len(lx)
        rotations = [lx[i:] + lx[:i] for i in range(n)]
        for cy, ly in words:
            if len(ly) == n:
                expected = [i for i, r in enumerate(rotations) if r == ly]
                assert am._label_matches(spec, cx, cy) == expected, (cx, cy)
                found_across_tags += bool(expected) and lx[0][0] != ly[0][0]
    assert found_across_tags


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_length1_closure_matches_reference(make):
    spec = make()
    for tag in (TAG_H, TAG_K):
        for e in spec.factor(tag).elements():
            assert list(am._length1_closure(spec, tag, e).items()) == \
                list(ref_length1_closure(spec, tag, e).items()), (tag, e)


def test_merge_comes_before_absorption():
    """H:h K:b K:k with b in B and b*k not in B: the two K syllables merge
    first, so b is never flipped into h."""
    spec = make_amalg1()
    h, b, k = 1, 2, 1
    assert b in spec.B and spec.K.mul(b, k) not in spec.B
    w = Word(((TAG_H, h), (TAG_K, b), (TAG_K, k)))
    merged_first = Word(((TAG_H, h), (TAG_K, spec.K.mul(b, k))))
    absorbed_first = Word(((TAG_H, spec.H.mul(h, spec._across[TAG_K][b])),
                           (TAG_K, k)))
    assert merged_first != absorbed_first
    assert ref_reduce(spec, w) == merged_first
    assert am.reduce(spec, w) == merged_first


def test_absorption_sides():
    """A trailing amalgamated syllable is absorbed into its left
    neighbour, a leading one into its right neighbour."""
    spec = make_amalg1()
    trailing = Word(((TAG_H, 1), (TAG_K, 2)))
    leading = Word(((TAG_K, 2), (TAG_H, 1), (TAG_K, 1)))
    assert am.reduce(spec, trailing) == Word(((TAG_H, 3),))
    assert am.reduce(spec, leading) == Word(((TAG_H, 3), (TAG_K, 1)))
    for w in (trailing, leading):
        assert am.reduce(spec, w) == ref_reduce(spec, w)


def unreduced_words(spec, rng, count):
    """Words the one-pass normal form must fold without a reduction:
    identity syllables, runs of one factor, runs of amalgamated syllables
    from both factors, and mixtures of the three."""
    def syllable(tag, kind):
        if kind == "identity":
            return tag, 0
        if kind == "amalgamated":
            return tag, rng.choice(spec.amalg(tag).elements)
        return tag, rng.randrange(spec.factor(tag).order)

    for _ in range(count):
        syl, tag = [], rng.choice((TAG_H, TAG_K))
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("identity", "amalgamated", "any"))
            same_tag = rng.random() < 0.5
            for _ in range(rng.randint(1, 4)):
                if not same_tag:
                    tag = TAG_K if tag == TAG_H else TAG_H
                syl.append(syllable(tag, kind))
        yield Word(tuple(syl))


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_normal_form_of_unreduced_words_matches_reference(make):
    spec = make()
    rng = random.Random(15)
    words = list(unreduced_words(spec, rng, 400))
    assert am.normal_form(spec, EMPTY) == ref_normal_form(spec, EMPTY) \
        == NormalForm(0, ())
    for w in words:
        assert am.normal_form(spec, w) == ref_normal_form(spec, w), w
    # The unreduced z^-1 * w * z words the conjugator checks build.
    for w, z in zip(words, words[1:]):
        conj = am.inverse(spec, z).concat(w).concat(z)
        assert am.normal_form(spec, conj) == ref_normal_form(spec, conj), conj
        assert am.equal_in_g(spec, conj, w) == ref_equal_in_g(spec, conj, w)


def test_normal_form_rejects_an_unknown_tag():
    spec = make_amalg1()
    for syl in ((("X", 1),), ((TAG_H, 1), ("X", 1), (TAG_K, 1)),
                ((TAG_H, 1), ("k", 0))):
        with pytest.raises(IndexOutOfRange):
            word(syl)
        with pytest.raises(IndexOutOfRange):
            am.normal_form(spec, Word(syl))


def test_normal_form_does_not_reduce(monkeypatch):
    def no_reduce(spec, w):
        raise AssertionError("normal_form called reduce")

    spec = make_d8_q8()
    words = list(biased_words(spec, seed=16, count=200, max_len=10))
    expected = [ref_normal_form(spec, w) for w in words]
    monkeypatch.setattr(am, "reduce", no_reduce)
    assert [am.normal_form(spec, w) for w in words] == expected
    for u, v in zip(words, words[1:]):
        assert am.equal_in_g(spec, u, v) == ref_equal_in_g(spec, u, v)


def test_conjugator_checks_catch_a_corrupted_reduce(monkeypatch):
    """A reduce that drops its last syllable corrupts the cyclic reductions
    and conjugators; the checks, which do not reduce, reject them.  Without
    its last syllable the reduced even-length word below rotates."""
    spec = make_d8_q8()
    real_reduce = am.reduce
    w = Word(((TAG_H, 4), (TAG_K, 3), (TAG_H, 1), (TAG_K, 1)))
    x, z = Word(((TAG_H, 1),)), Word(((TAG_H, 6),))
    y = am.inverse(spec, z).concat(x).concat(z)
    assert am.cyclically_reduce(spec, w) == (w, EMPTY)
    assert am.is_conjugate_central(spec, x, y).conjugate
    monkeypatch.setattr(am, "reduce", lambda spec, w:
                        Word(real_reduce(spec, w).syllables[:-1]))
    with pytest.raises(VerificationFailed):
        am.cyclically_reduce(spec, w)
    with pytest.raises(VerificationFailed):
        am.is_conjugate_central(spec, x, y)


def test_unrotated_reduction_is_checked_before_a_negative(monkeypatch):
    """Without its last syllable the reduction of H:1 K:1 H:1 is H:1 K:1,
    which does not rotate, and that of K:1 is empty: a length mismatch
    that the check of w = c by normal forms rejects."""
    spec = make_amalg1()
    x, y = Word(((TAG_H, 1), (TAG_K, 1), (TAG_H, 1))), Word(((TAG_K, 1),))
    assert not am.is_conjugate_general(spec, x, y).conjugate
    real_reduce = am.reduce
    monkeypatch.setattr(am, "reduce", lambda spec, w:
                        Word(real_reduce(spec, w).syllables[:-1]))
    with pytest.raises(VerificationFailed):
        am.is_conjugate_general(spec, x, y)
