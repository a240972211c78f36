"""Differential tests of the per-amalgam lookup tables.

The tables are checked entry by entry against the table-free accessors of
``oracles``, and through ``reduce``, ``normal_form`` and both deciders
against its reference word layer, on words with arbitrary tags and
identity syllables, both on the conftest amalgams and on a seeded sample
of random ones.
"""

import itertools
import pickle
import random

import pytest

from amalgams import amalgam as am
from amalgams import fingroup as fg
from amalgams import separability as sep
from amalgams.amalgam import TAG_H, TAG_K, Word
from amalgams.errors import PhiNotIso
from conftest import (
    check_deciders,
    check_reduce_and_normal_form,
    make_amalg1,
    make_c2c3,
    make_c9_amalgam,
    make_d8_d8,
    make_d8_q8,
    make_he3_c9,
    make_s3_amalgam,
    make_s3_s3,
    random_conjugate,
)
from oracles import (
    ref_agree_in_abelian_p_quotient,
    ref_coset_decompose,
    ref_in_amalg,
    ref_transport,
)

MAKERS = [make_amalg1, make_s3_amalgam, make_c9_amalgam, make_d8_q8, make_c2c3,
          make_s3_s3, make_d8_d8]
IDS = ["c4_c2_c4", "s3_c3_c6", "c9_c3_c3xc3", "d8_z_q8", "c2_c3",
       "s3_c2_s3", "d8_c2_d8"]


def random_words(spec, seed, count=150, max_len=8):
    """Words with arbitrary tags, identity syllables included."""
    rng = random.Random(seed)
    for _ in range(count):
        syl = []
        for _ in range(rng.randint(0, max_len)):
            tag = rng.choice((TAG_H, TAG_K))
            syl.append((tag, rng.randrange(spec.factor(tag).order)))
        yield Word(tuple(syl))


C2, C3, C4 = fg.cyclic(2), fg.cyclic(3), fg.cyclic(4)
SAMPLED_FACTORS = [C2, C4, fg.direct_product(C2, C2), fg.cyclic(8),
                   fg.direct_product(C2, C4), fg.dihedral(4), fg.quaternion(8),
                   C3, fg.cyclic(9), fg.direct_product(C3, C3),
                   fg.symmetric3(), fg.cyclic(6)]


def sample_amalgams(seed, draws):
    """Random amalgams over SAMPLED_FACTORS: per draw, an order n in 2..4,
    factors H and K with a proper subgroup of order n each, such subgroups
    A and B, and a random bijection phi: A -> B fixing 0.  A draw whose
    phi is not an isomorphism is dropped."""
    rng = random.Random(seed)
    proper = [[S for S in fg.enumerate_subgroups(G) if 2 <= len(S) < G.order]
              for G in SAMPLED_FACTORS]
    specs = []
    for _ in range(draws):
        n = rng.choice((2, 3, 4))
        h, k = (rng.choice([i for i, subs in enumerate(proper)
                            if any(len(S) == n for S in subs)])
                for _ in range(2))
        A, B = (rng.choice([S for S in proper[i] if len(S) == n])
                for i in (h, k))
        images = list(B.elements[1:])
        rng.shuffle(images)
        try:
            specs.append(am.make_amalgam(SAMPLED_FACTORS[h], SAMPLED_FACTORS[k],
                                         A.elements, B.elements,
                                         dict(zip(A.elements, (0, *images)))))
        except PhiNotIso:
            pass
    return specs


def test_sampled_amalgams_match_reference():
    """The word layer and both deciders against the reference on amalgams
    beyond the fixed makers, non-central ones among them."""
    specs = sample_amalgams(seed=0, draws=40)
    assert sum(not spec.central for spec in specs) >= 10
    for i, spec in enumerate(specs):
        check_reduce_and_normal_form(spec, random_words(spec, seed=i))
        check_deciders(spec, random_words(spec, seed=i, count=40, max_len=6))


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_tables_match_brute_force(make):
    spec = make()
    for tag in (TAG_H, TAG_K):
        G, S = spec.factor(tag), spec.amalg(tag).elements
        tab, into, cosets = spec._left_action[tag]
        steps = spec._steps[tag]
        assert tab == G.table
        for a in spec.A.elements:
            assert into[a] == (a if tag == TAG_H else ref_transport(spec, TAG_H, a))
        for e in G.elements():
            a, rep = ref_coset_decompose(spec, tag, e)
            a_h = a if tag == TAG_H else ref_transport(spec, TAG_K, a)
            assert cosets[e] == (a_h, rep)
            for carry in spec.A.elements:
                c = carry if tag == TAG_H else ref_transport(spec, TAG_H, carry)
                a, rep = ref_coset_decompose(spec, tag, G.mul(e, c))
                a_h = a if tag == TAG_H else ref_transport(spec, TAG_K, a)
                assert steps[e][carry] == \
                    (a_h, (tag, rep) if rep else None), (tag, e, carry)
            assert (e in spec._across[tag]) == ref_in_amalg(spec, tag, e)
            assert spec._double_cosets[tag][e] == \
                min(G.mul(G.mul(a, e), b) for a in S for b in S)
    for a, b in spec.phi:
        assert spec._across[TAG_H][a] == b
        assert spec._across[TAG_K][b] == a
    assert spec.phi_map == dict(spec.phi)
    assert spec.phi_inv_map == {b: a for a, b in spec.phi}
    with pytest.raises(TypeError):
        spec.phi_map[0] = 1


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_reduce_and_normal_form_match_reference(make):
    spec = make()
    check_reduce_and_normal_form(spec, random_words(spec, seed=1))


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_deciders_match_reference(make):
    """Both deciders on random pairs and on random conjugate pairs."""
    spec = make()
    check_deciders(spec, random_words(spec, seed=2, count=40, max_len=6))


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_tables_do_not_affect_equality(make):
    built, fresh = make(), make()
    h, k = (next(e for e in built.factor(tag).elements()
                 if e not in built.amalg(tag)) for tag in (TAG_H, TAG_K))
    hk = Word(((TAG_H, h), (TAG_K, k)))
    assert am.is_conjugate_general(built, hk, hk).conjugate
    assert 0 in built.A and 0 in built.B
    assert {"_across", "_double_cosets", "_left_action", "_steps"} \
        <= set(vars(built))
    assert built == fresh and hash(built) == hash(fresh)
    assert {built: 1}[fresh] == 1
    other = fg.make_subgroup(built.H, built.A.elements)
    assert "_members" in vars(built.A) and "_members" not in vars(other)
    assert other == built.A and hash(other) == hash(built.A)
    assert pickle.loads(pickle.dumps(built)) == fresh


def test_abelian_p_pre_test_matches_brute_force():
    """The witness search's pre-test, equal images in the largest abelian
    p-quotient of G, against the brute force (derived subgroups by
    closure, the relation subgroup, the p'-part by element order) at
    p = 2 and p = 3, on consecutive random words and on each word against
    a random conjugate of the next, so both answers occur at both primes."""
    specs = [make() for make in MAKERS] + [make_he3_c9()] \
        + sample_amalgams(seed=0, draws=40)
    answers = {2: set(), 3: set()}
    for i, spec in enumerate(specs):
        rng = random.Random(i)
        words = list(random_words(spec, seed=i, count=20, max_len=6))
        pairs = list(zip(words, words[1:]))
        pairs += [(u, random_conjugate(spec, v, rng)) for u, v in pairs]
        for p, (u, v) in itertools.product((2, 3), pairs):
            got = sep._agree_in_abelian_p_quotient(spec, p, u, v)
            assert got == ref_agree_in_abelian_p_quotient(spec, p, u, v), \
                (i, p, u, v)
            answers[p].add(got)
    assert answers == {2: {False, True}, 3: {False, True}}


@pytest.mark.parametrize("make", [make_s3_amalgam, make_c2c3],
                         ids=["s3_c3_c6", "c2_c3"])
def test_abelian_p_pre_test_forgets_the_p_prime_part(make):
    """Words that differ by a K-letter of order 3 agree in every abelian
    2-quotient of G.  At p = 3 they differ on C2 * C3, where G^ab =
    C2 x C3 keeps that letter, and agree on S3 *_{C3} C6, where the letter
    lies in B, glued to S3's derived subgroup A3, so G^ab = C2 x C2."""
    spec = make()
    threes = [e for e in spec.K.elements() if spec.K.element_order(e) == 3]
    differ_at_3 = []
    for i, u in enumerate(random_words(spec, seed=3, count=40)):
        v = u.concat(Word(((TAG_K, threes[i % len(threes)]),)))
        assert sep._agree_in_abelian_p_quotient(spec, 2, u, v)
        assert ref_agree_in_abelian_p_quotient(spec, 2, u, v)
        got = sep._agree_in_abelian_p_quotient(spec, 3, u, v)
        assert got == ref_agree_in_abelian_p_quotient(spec, 3, u, v)
        differ_at_3.append(not got)
    assert differ_at_3 == [make is make_c2c3] * len(differ_at_3)
