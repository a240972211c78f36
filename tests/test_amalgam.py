import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import oracles
from amalgams import amalgam as am
from amalgams import fingroup as fg
from amalgams.amalgam import Word, word
from amalgams.errors import (
    NotCentral,
    PhiNotIso,
    VerificationFailed,
)
from conftest import (
    make_amalg1,
    make_c9_amalgam,
    make_d8_d8,
    make_d8_q8,
    make_s3_amalgam,
    make_s3_s3,
)


def W(*syllables):
    return word(syllables)


class TestSpecValidation:
    def test_amalg1_central(self, amalg1):
        assert amalg1.central

    def test_phi_not_iso(self):
        c4 = fg.cyclic(4)
        with pytest.raises(PhiNotIso):
            am.make_amalgam(c4, c4, [0, 2], [0, 2], {0: 0, 2: 0})

    def test_phi_not_a_homomorphism_reports_first_pair(self):
        """A bijection A -> B that is no homomorphism is rejected at the
        first (a1, a2) of a plain loop over A x A."""
        c4, d8 = fg.cyclic(4), fg.dihedral(4)
        for H, K, phi in ((c4, c4, {0: 0, 1: 1, 2: 3, 3: 2}),
                          (d8, d8, {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5,
                                    6: 7, 7: 6})):
            first = next((a1, a2) for a1 in sorted(phi) for a2 in sorted(phi)
                         if phi[H.mul(a1, a2)] != K.mul(phi[a1], phi[a2]))
            with pytest.raises(PhiNotIso) as exc:
                am.make_amalgam(H, K, sorted(phi), sorted(phi.values()), phi)
            assert str(exc.value) == "phi not a homomorphism at ({},{})".format(*first)

    def test_s3_amalgam_not_central(self, s3_amalgam):
        assert not s3_amalgam.central

    def test_directly_built_spec_derives_central(self, amalg1):
        """Centrality is read off the tables, not stored by a checker."""
        c4 = fg.cyclic(4)
        half = fg.make_subgroup(c4, [0, 2])
        spec = am.AmalgamSpec(c4, c4, half, half, ((0, 0), (2, 2)))
        assert spec == amalg1 and spec.central
        assert am.is_conjugate_central(spec, W(("H", 1), ("K", 1)),
                                       W(("K", 1), ("H", 1))).conjugate


class TestReduce:
    def test_already_reduced(self, amalg1):
        w = W(("H", 1), ("K", 1))
        assert am.reduce(amalg1, w).syllables == w.syllables

    def test_same_factor_merge(self, amalg1):
        assert am.reduce(amalg1, W(("H", 1), ("H", 1))).syllables == (("H", 2),)

    def test_amalgam_absorption_to_identity(self, amalg1):
        w = W(("H", 1), ("K", 2), ("H", 1))
        assert am.reduce(amalg1, w).syllables == ()

    def test_length_examples(self, amalg1):
        assert len(am.reduce(amalg1, W(("H", 2)))) == 1
        assert len(am.reduce(amalg1, am.EMPTY)) == 0

    def test_amalgam_element_canonicalized_to_h(self, amalg1):
        assert am.reduce(amalg1, W(("K", 2))).syllables == (("H", 2),)


class TestNormalForm:
    def test_h3(self, amalg1):
        nf = am.normal_form(amalg1, W(("H", 3)))
        assert nf.amalgam_part == 2 and nf.tail == (("H", 1),)

    def test_identity(self, amalg1):
        nf = am.normal_form(amalg1, am.EMPTY)
        assert nf.amalgam_part == 0 and nf.tail == ()

    def test_h1_k3(self, amalg1):
        nf = am.normal_form(amalg1, W(("H", 1), ("K", 3)))
        assert nf.amalgam_part == 2 and nf.tail == (("H", 1), ("K", 1))

    def test_idempotent_on_rendered_forms(self, amalg1):
        rng = random.Random(11)
        alpha = oracles.syllable_alphabet(amalg1)
        for _ in range(300):
            w = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(7))))
            nf = am.normal_form(amalg1, w)
            again = am.normal_form(amalg1, oracles.render(nf))
            assert nf == again

    def test_concat_consistency(self, amalg1):
        # nf(uv) == nf(render(nf(u)) render(nf(v)))
        rng = random.Random(12)
        alpha = oracles.syllable_alphabet(amalg1)
        for _ in range(300):
            u = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(5))))
            v = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(5))))
            lhs = am.normal_form(amalg1, u.concat(v))
            ru = oracles.render(am.normal_form(amalg1, u))
            rv = oracles.render(am.normal_form(amalg1, v))
            assert lhs == am.normal_form(amalg1, ru.concat(rv))

    def test_equality_matches_rewriting_reachability(self, amalg1):
        comp = oracles.rewriting_components(amalg1, 3)
        words = oracles.all_words(amalg1, 3)
        nfs = {w: am.normal_form(amalg1, Word(w)) for w in words}
        for u in words:
            for v in words:
                assert (nfs[u] == nfs[v]) == (comp[u] == comp[v])


class TestCyclicReduction:
    def test_already_cyclically_reduced(self, amalg1):
        w = W(("H", 1), ("K", 1))
        c, z = am.cyclically_reduce(amalg1, w)
        assert c.syllables == w.syllables and z.syllables == ()

    def test_single_syllable(self, amalg1):
        c, z = am.cyclically_reduce(amalg1, W(("H", 2)))
        assert c.syllables == (("H", 2),) and z.syllables == ()

    def test_reduces_and_verifies(self, amalg1):
        w = W(("H", 1), ("K", 1), ("H", 3))
        c, z = am.cyclically_reduce(amalg1, w)
        assert len(c) <= 2
        inv_z = am.inverse(amalg1, z)
        assert am.equal_in_g(amalg1, inv_z.concat(w).concat(z), c)

    def test_random_words_verify(self, amalg1):
        rng = random.Random(13)
        alpha = oracles.syllable_alphabet(amalg1)
        for _ in range(200):
            w = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(7))))
            c, z = am.cyclically_reduce(amalg1, w)
            assert oracles.is_cyclically_reduced(amalg1, c)
            inv_z = am.inverse(amalg1, z)
            assert am.equal_in_g(amalg1, inv_z.concat(w).concat(z), c)


class TestConjugacyCentral:
    def test_cyclic_permutation_conjugate(self, amalg1):
        v = am.is_conjugate_central(amalg1, W(("H", 1), ("K", 1)),
                                    W(("K", 1), ("H", 1)))
        assert v.conjugate and v.conjugator.syllables == (("H", 1),)

    def test_distinct_factor_elements(self, amalg1):
        v = am.is_conjugate_central(amalg1, W(("H", 1)), W(("H", 3)))
        assert not v.conjugate

    def test_amalgam_identification(self, amalg1):
        v = am.is_conjugate_central(amalg1, W(("H", 2)), W(("K", 2)))
        assert v.conjugate

    def test_requires_central(self, s3_amalgam):
        with pytest.raises(NotCentral):
            am.is_conjugate_central(s3_amalgam, W(("H", 1)), W(("H", 2)))

    def test_conjugators_verify(self, amalg1):
        rng = random.Random(14)
        alpha = oracles.syllable_alphabet(amalg1)
        for _ in range(150):
            x = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(5))))
            y = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(5))))
            v = am.is_conjugate_central(amalg1, x, y)
            if v.conjugate:
                z = v.conjugator
                zi = am.inverse(amalg1, z)
                assert am.equal_in_g(amalg1, zi.concat(x).concat(z), y)

    def test_verdict_invariant_under_conjugating_inputs(self, amalg1):
        rng = random.Random(15)
        alpha = oracles.syllable_alphabet(amalg1)
        for _ in range(60):
            x = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(4))))
            y = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(4))))
            base = am.is_conjugate_central(amalg1, x, y).conjugate
            for _ in range(3):
                z = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(3))))
                zi = am.inverse(amalg1, z)
                x2 = zi.concat(x).concat(z)
                assert am.is_conjugate_central(amalg1, x2, y).conjugate == base


class TestConjugacyGeneral:
    def test_free_product_rotation(self, c2c2):
        v = am.is_conjugate_general(c2c2, W(("H", 1), ("K", 1)),
                                    W(("K", 1), ("H", 1)))
        assert v.conjugate

    def test_free_product_factors_separate(self, c2c2):
        v = am.is_conjugate_general(c2c2, W(("H", 1)), W(("K", 1)))
        assert not v.conjugate

    def test_agrees_with_central_on_amalg1(self, amalg1):
        words = [Word(w) for w in oracles.all_words(amalg1, 2)]
        for x in words:
            for y in words:
                assert (am.is_conjugate_general(amalg1, x, y).conjugate
                        == am.is_conjugate_central(amalg1, x, y).conjugate)

    def test_matches_free_product_oracle(self, c2c2):
        words = [Word(w) for w in oracles.all_words(c2c2, 3)]
        for x in words:
            for y in words:
                got = am.is_conjugate_general(c2c2, x, y).conjugate
                assert got == oracles.free_product_conjugate(c2c2, x, y)

    def test_noncentral_amalgam_conjugators_verify(self, s3_amalgam):
        rng = random.Random(16)
        alpha = oracles.syllable_alphabet(s3_amalgam)
        hits = 0
        for _ in range(150):
            x = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(4))))
            y = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(4))))
            v = am.is_conjugate_general(s3_amalgam, x, y)
            if v.conjugate:
                hits += 1
                zi = am.inverse(s3_amalgam, v.conjugator)
                assert am.equal_in_g(s3_amalgam,
                                     zi.concat(x).concat(v.conjugator), y)
        assert hits > 0


    @pytest.mark.parametrize("make", [
        make_amalg1, make_c9_amalgam, make_s3_s3, make_d8_q8,
    ], ids=["c4_c2_c4", "c9_c3_c3xc3", "s3_c2_s3", "d8_z_q8"])
    def test_negative_verdict_carries_cyclic_reductions(self, make):
        """Each negative verdict carries cyclically reduced conjugates of
        x and y, outside verdict equality; a positive one carries none."""
        spec = make()
        rng = random.Random(17)
        alpha = oracles.syllable_alphabet(spec)
        kinds = set()
        for _ in range(150):
            x, y = (Word(tuple(rng.choice(alpha)
                               for _ in range(rng.randrange(7))))
                    for _ in range(2))
            v = am.is_conjugate_general(spec, x, y)
            if v.conjugate:
                assert v.reduced is None
                continue
            kinds.add(v.certificate[0])
            for u, c in zip((x, y), v.reduced):
                assert oracles.is_cyclically_reduced(spec, c)
                assert am.is_conjugate_general(spec, u, c).conjugate
            assert v == dataclasses.replace(v, reduced=None)
        assert kinds == {"length-mismatch", "closure-exhausted", "exhausted"}


class TestLengthConfluence:
    def test_length_invariant_over_component(self, amalg1):
        comp = oracles.rewriting_components(amalg1, 3)
        by_comp = {}
        for w, c in comp.items():
            by_comp.setdefault(c, set()).add(len(am.reduce(amalg1, Word(w))))
        assert all(len(lengths) == 1 for lengths in by_comp.values())


class TestOraclesBeyondCentralP2:
    """Normal forms and the general decider against the brute-force oracles
    on the non-central S3 *_{C3} C6, on C9 *_{C3} (C3 x C3) with p = 3, on
    S3 *_{C2} S3 and D8 *_{C2} D8, whose amalgamated subgroups are not
    normal, and on D8 *_Z Q8, central with non-abelian factors, where the
    decider tries a = 1 alone and lists each factor class once.  Each
    case: (amalgam, rewriting length, representative length, conjugator
    candidate length); the candidate lengths cover the longest conjugator
    the decider returns on these representatives."""

    CASES = [(make_s3_amalgam, 3, 3, 3), (make_c9_amalgam, 3, 3, 2),
             (make_s3_s3, 3, 2, 2), (make_d8_d8, 3, 2, 2),
             (make_d8_q8, 3, 2, 2)]
    IDS = ["s3_c3_c6", "c9_c3_c3xc3", "s3_c2_s3", "d8_c2_d8", "d8_z_q8"]

    @pytest.mark.parametrize("make,max_len,rep_len,cand_len", CASES,
                             ids=IDS)
    def test_normal_form_matches_rewriting_reachability(self, make, max_len,
                                                        rep_len, cand_len):
        spec = make()
        comp = oracles.rewriting_components(spec, max_len)
        nf_of_comp = {}
        for w, c in comp.items():
            nf_of_comp.setdefault(c, set()).add(am.normal_form(spec, Word(w)))
        assert all(len(nfs) == 1 for nfs in nf_of_comp.values())
        distinct = set().union(*nf_of_comp.values())
        assert len(distinct) == len(nf_of_comp)

    @pytest.mark.parametrize("make,max_len,rep_len,cand_len", CASES,
                             ids=IDS)
    def test_general_decider_matches_brute_force(self, make, max_len,
                                                 rep_len, cand_len):
        spec = make()
        comp = oracles.rewriting_components(spec, max_len)
        reps = {}
        for w in oracles.all_words(spec, rep_len):
            reps.setdefault(comp[w], Word(w))
        reps = sorted(reps.values(), key=lambda w: (len(w), w.syllables))
        candidates = oracles.conjugator_candidates(spec, cand_len)
        conjugate = 0
        for i, x in enumerate(reps):
            for y in reps[i:]:
                got = am.is_conjugate_general(spec, x, y)
                assert got.conjugate == oracles.brute_force_conjugate(
                    spec, x, y, candidates), (x, y)
                if got.conjugate:
                    conjugate += 1
                    z = got.conjugator
                    zxz = am.inverse(spec, z).concat(x).concat(z)
                    assert comp[oracles.shorten(spec, zxz.syllables, max_len)] \
                        == comp[y.syllables], (x, y, z)
        assert 0 < conjugate < len(reps) * (len(reps) + 1) // 2


class TestVerificationChecks:
    """Conjugator re-checks raise VerificationFailed, also under python -O."""

    def test_cyclically_reduce_rejects(self, amalg1, monkeypatch):
        monkeypatch.setattr(am, "equal_in_g", lambda spec, u, v: False)
        with pytest.raises(VerificationFailed):
            am.cyclically_reduce(amalg1, W(("H", 1), ("K", 1), ("H", 1)))

    def test_cyclically_reduce_without_rotation(self, amalg1, monkeypatch):
        """H:1 is returned syllable for syllable with an empty conjugator:
        c = w holds by construction, so no check runs."""
        monkeypatch.setattr(am, "equal_in_g", lambda spec, u, v: False)
        assert am.cyclically_reduce(amalg1, W(("H", 1))) == (W(("H", 1)), am.EMPTY)

    def test_cyclically_reduce_checks_an_unrotated_reduction(self, amalg1,
                                                             monkeypatch):
        """H:1 H:1 reduces to H:2 and does not rotate; w = c is checked."""
        assert am.cyclically_reduce(amalg1, W(("H", 1), ("H", 1))) == \
            (W(("H", 2)), am.EMPTY)
        monkeypatch.setattr(am, "equal_in_g", lambda spec, u, v: False)
        with pytest.raises(VerificationFailed):
            am.cyclically_reduce(amalg1, W(("H", 1), ("H", 1)))

    @staticmethod
    def _count_checks(monkeypatch):
        calls = []
        real = am.equal_in_g

        def counted(spec, u, v):
            calls.append((u, v))
            return real(spec, u, v)

        monkeypatch.setattr(am, "equal_in_g", counted)
        return calls

    @pytest.mark.parametrize("make, x, y", [
        (make_amalg1, W(("H", 1), ("K", 1), ("H", 1)),
         W(("H", 3), ("K", 1), ("H", 3))),
        (make_c9_amalgam, W(("H", 1), ("K", 1), ("H", 1)),
         W(("H", 7), ("K", 1), ("H", 4))),
    ], ids=["length-1", "length-2"])
    def test_positive_verdict_checks_once(self, make, x, y, monkeypatch):
        """Both inputs rotate; the one check is that of the whole
        conjugator, which backs the answer."""
        spec = make()
        assert all(am.cyclically_reduce(spec, w)[1].syllables for w in (x, y))
        calls = self._count_checks(monkeypatch)
        verdict = am.is_conjugate_general(spec, x, y)
        assert verdict.conjugate and len(calls) == 1
        z = verdict.conjugator
        assert calls[0][0] == am.inverse(spec, z).concat(x).concat(z)

    @pytest.mark.parametrize("make, x, y, kind", [
        (make_amalg1, W(("H", 1), ("K", 1), ("H", 1)),
         W(("K", 1), ("H", 1), ("K", 1)), "closure-exhausted"),
        (make_c9_amalgam, W(("H", 1), ("K", 1), ("H", 1)),
         W(("H", 1), ("K", 2), ("H", 1)), "exhausted"),
    ])
    def test_negative_verdict_checks_both_rotations(self, make, x, y, kind,
                                                    monkeypatch):
        """Both inputs rotate; a negative verdict checks both cyclic
        conjugators, and fails when either check does."""
        spec = make()
        reductions = [am.cyclically_reduce(spec, w) for w in (x, y)]
        calls = self._count_checks(monkeypatch)
        verdict = am.is_conjugate_general(spec, x, y)
        assert verdict.certificate[0] == kind and len(calls) == 2
        for (u, c), w, (cw, zw) in zip(calls, (x, y), reductions):
            assert u == am.inverse(spec, zw).concat(w).concat(zw) and c == cw
        monkeypatch.setattr(am, "equal_in_g", lambda spec, u, v: False)
        with pytest.raises(VerificationFailed):
            am.is_conjugate_general(spec, x, y)

    def test_negative_verdict_carries_its_moved_syllables(self, amalg1):
        """The moved syllables are data that ``_check_reductions`` reads:
        swapped between the inputs, they fail its check.  Like
        ``reduced``, they are left out of == and hash."""
        x, y = W(("H", 1), ("K", 1), ("H", 1)), W(("K", 1), ("H", 1), ("K", 1))
        verdict = am._decide(amalg1, x, y)
        assert not verdict.conjugate
        assert verdict.moved == (W(("H", 1)), W(("K", 1)))
        am._check_reductions(amalg1, x, y, verdict)
        swapped = dataclasses.replace(verdict, moved=verdict.moved[::-1])
        assert swapped == verdict and hash(swapped) == hash(verdict)
        with pytest.raises(VerificationFailed):
            am._check_reductions(amalg1, x, y, swapped)

    def test_positive_verdict_moves_nothing(self, amalg1, monkeypatch):
        """A positive verdict has no moved syllables, and
        ``_check_reductions`` checks nothing for it."""
        x, y = W(("H", 1), ("K", 1), ("H", 1)), W(("H", 3), ("K", 1), ("H", 3))
        verdict = am._decide(amalg1, x, y)
        assert verdict.conjugate and verdict.moved is None
        monkeypatch.setattr(am, "equal_in_g", lambda spec, u, v: False)
        am._check_reductions(amalg1, x, y, verdict)

    def test_conjugator_rejects(self, amalg1, monkeypatch):
        monkeypatch.setattr(am, "equal_in_g", lambda spec, u, v: False)
        with pytest.raises(VerificationFailed):
            am._verified(amalg1, W(("H", 1)), W(("H", 1)), am.EMPTY)

    def test_checks_survive_optimize(self):
        code = textwrap.dedent("""
            import sys
            from amalgams import amalgam as am, fingroup as fg
            from amalgams.errors import VerificationFailed
            c4 = fg.cyclic(4)
            spec = am.make_amalgam(c4, c4, [0, 2], [0, 2], {0: 0, 2: 2})
            h1, k1 = am.word([("H", 1)]), am.word([("K", 1)])
            hkh = am.word([("H", 1), ("K", 1), ("H", 1)])
            if am.cyclically_reduce(spec, h1) != (h1, am.EMPTY):
                sys.exit("H:1 has nothing to rotate")
            if am.is_conjugate_general(spec, hkh, k1).conjugate:
                sys.exit("H:1 K:1 H:1 and K:1 are not conjugate")
            am.equal_in_g = lambda spec, u, v: False
            for call in (lambda: am.cyclically_reduce(spec, hkh),
                         lambda: am.cyclically_reduce(spec, h1.concat(h1)),
                         lambda: am._verified(spec, h1, h1, am.EMPTY),
                         lambda: am.is_conjugate_general(spec, hkh, k1)):
                try:
                    call()
                except VerificationFailed:
                    continue
                sys.exit("check stripped")
            sys.exit(0 if sys.flags.optimize else "not optimized")
        """)
        src = str(Path(am.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
