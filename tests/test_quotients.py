import random

import pytest

import oracles
from amalgams import amalgam as am
from amalgams import fingroup as fg
from amalgams import quotients as qt
from amalgams.amalgam import Word, word
from amalgams.errors import NotCompatible, NotNormal


def W(*syllables):
    return word(syllables)


def brute_force_pairs(spec, p, max_index):
    """Independent filter: check the defining equation on every pair of
    normal subgroups of p-power index."""
    out = []
    for R in fg.enumerate_normal_subgroups(spec.H):
        if fg.index(spec.H, R) > max_index:
            continue
        if not fg.is_p_power_index(spec.H, R, p):
            continue
        for S in fg.enumerate_normal_subgroups(spec.K):
            if fg.index(spec.K, S) > max_index:
                continue
            if not fg.is_p_power_index(spec.K, S, p):
                continue
            lhs = {spec.phi_map[a]
                   for a in spec.A.element_set() & R.element_set()}
            if lhs == spec.B.element_set() & S.element_set():
                out.append((R.elements, S.elements))
    return sorted(out)


class TestIsCompatible:
    def test_asymmetric_incompatible(self, amalg1):
        # (A cap R)phi = B cap S fails when only one side kills the
        # amalgamated subgroup, in either order; such pairs are neither
        # built nor enumerated.
        small, big = [0], [0, 2]
        for r, s in ((big, small), (small, big)):
            R = fg.make_subgroup(amalg1.H, r)
            S = fg.make_subgroup(amalg1.K, s)
            with pytest.raises(NotCompatible):
                qt.quotient_amalgam(amalg1, R, S)
        pairs = {(p.R.elements, p.S.elements)
                 for p in qt.enumerate_compatible_pairs(amalg1, 2, 4)}
        assert ((0, 2), (0,)) not in pairs
        assert ((0,), (0, 2)) not in pairs
        assert ((0, 2), (0, 2)) in pairs


class TestQuotientAmalgam:
    def test_trivial_pair(self, amalg1):
        R = fg.make_subgroup(amalg1.H, [0])
        S = fg.make_subgroup(amalg1.K, [0])
        q = qt.quotient_amalgam(amalg1, R, S).quotient_spec
        assert q.H.order == 4 and q.K.order == 4 and len(q.A) == 2

    def test_full_pair(self, amalg1):
        R = fg.make_subgroup(amalg1.H, [0, 1, 2, 3])
        S = fg.make_subgroup(amalg1.K, [0, 1, 2, 3])
        q = qt.quotient_amalgam(amalg1, R, S).quotient_spec
        assert q.H.order == 1 and q.K.order == 1 and len(q.A) == 1

    def test_collapse_to_c2_star_c2(self, amalg1):
        R = fg.make_subgroup(amalg1.H, [0, 2])
        S = fg.make_subgroup(amalg1.K, [0, 2])
        pair = qt.quotient_amalgam(amalg1, R, S)
        q = pair.quotient_spec
        assert q.H.order == 2 and q.K.order == 2
        assert len(q.A) == 1  # amalgam collapses to the identity
        assert q.central

    def test_rejects_incompatible(self, amalg1):
        R = fg.make_subgroup(amalg1.H, [0, 2])
        S = fg.make_subgroup(amalg1.K, [0])
        with pytest.raises(NotCompatible):
            qt.quotient_amalgam(amalg1, R, S)

    def test_rejects_non_normal(self, s3_amalgam):
        R = next(X for X in fg.enumerate_subgroups(s3_amalgam.H) if len(X) == 2)
        S = fg.make_subgroup(s3_amalgam.K, [0])
        with pytest.raises(NotNormal):
            qt.quotient_amalgam(s3_amalgam, R, S)

    def test_quotient_spec_validates(self, amalg1):
        for pair in qt.enumerate_compatible_pairs(amalg1, 2, 4):
            # make_amalgam already validates; re-check the induced map.
            q = pair.quotient_spec
            for a in q.A.elements:
                assert q.phi_map[a] in q.B.element_set()


class TestEnumerate:
    def test_amalg1_matches_brute_force(self, amalg1):
        pairs = qt.enumerate_compatible_pairs(amalg1, 2, 4)
        got = sorted((p.R.elements, p.S.elements) for p in pairs)
        assert got == brute_force_pairs(amalg1, 2, 4)

    def test_amalg1_contains_diagonal_pairs(self, amalg1):
        pairs = qt.enumerate_compatible_pairs(amalg1, 2, 4)
        got = {(p.R.elements, p.S.elements) for p in pairs}
        assert ((0,), (0,)) in got
        assert ((0, 2), (0, 2)) in got
        assert ((0, 1, 2, 3), (0, 1, 2, 3)) in got

    def test_sorted_and_deterministic(self, amalg1):
        pairs = qt.enumerate_compatible_pairs(amalg1, 2, 4)
        keys = [(fg.index(amalg1.H, p.R), p.R.elements,
                 fg.index(amalg1.K, p.S), p.S.elements) for p in pairs]
        assert keys == sorted(keys)
        again = qt.enumerate_compatible_pairs(amalg1, 2, 4)
        assert [(p.R.elements, p.S.elements) for p in again] == \
            [(p.R.elements, p.S.elements) for p in pairs]

    def test_normality_checked_once_per_factor(self, amalg1, monkeypatch):
        """The candidates are normal by construction: each returned pair
        checks R and S once, in its quotients, and a rejected pair not at
        all."""
        calls = []
        is_normal = fg.is_normal
        monkeypatch.setattr(fg, "is_normal",
                            lambda G, N: calls.append(N) or is_normal(G, N))
        pairs = qt.enumerate_compatible_pairs(amalg1, 2, 4)
        assert len(pairs) == 5 and len(calls) <= 2 * len(pairs)

    def test_s3_amalgam_brute_force(self, s3_amalgam):
        pairs = qt.enumerate_compatible_pairs(s3_amalgam, 2, 8)
        got = sorted((p.R.elements, p.S.elements) for p in pairs)
        assert got == brute_force_pairs(s3_amalgam, 2, 8)


class TestProjectWord:
    def test_hom_law(self, amalg1):
        rng = random.Random(21)
        alpha = oracles.syllable_alphabet(amalg1)
        pairs = qt.enumerate_compatible_pairs(amalg1, 2, 4)
        for pair in pairs:
            q = pair.quotient_spec
            for _ in range(500 // len(pairs) + 1):
                u = Word(tuple(rng.choice(alpha)
                               for _ in range(rng.randrange(5))))
                v = Word(tuple(rng.choice(alpha)
                               for _ in range(rng.randrange(5))))
                lhs = qt.project_word(pair, u.concat(v))
                rhs = qt.project_word(pair, u).concat(qt.project_word(pair, v))
                assert am.equal_in_g(q, lhs, rhs)

    def test_length_never_increases(self, amalg1):
        rng = random.Random(22)
        alpha = oracles.syllable_alphabet(amalg1)
        for pair in qt.enumerate_compatible_pairs(amalg1, 2, 4):
            q = pair.quotient_spec
            for _ in range(120):
                w = Word(tuple(rng.choice(alpha)
                               for _ in range(rng.randrange(6))))
                assert len(am.reduce(q, qt.project_word(pair, w))) \
                    <= len(am.reduce(amalg1, w))

    def test_syllable_avoidance_preserves_length(self, amalg1):
        # If every H-syllable avoids A.R and every K-syllable avoids B.S,
        # projection preserves length.
        for pair in qt.enumerate_compatible_pairs(amalg1, 2, 4):
            AR = {amalg1.H.mul(a, r)
                  for a in amalg1.A.elements for r in pair.R.elements}
            BS = {amalg1.K.mul(b, s)
                  for b in amalg1.B.elements for s in pair.S.elements}
            ok_h = [h for h in range(amalg1.H.order) if h not in AR]
            ok_k = [k for k in range(amalg1.K.order) if k not in BS]
            if not ok_h or not ok_k:
                continue
            w = W(("H", ok_h[0]), ("K", ok_k[0]), ("H", ok_h[-1]))
            assert len(am.reduce(pair.quotient_spec,
                                 qt.project_word(pair, w))) == 3
