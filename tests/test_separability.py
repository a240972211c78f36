import contextlib
import dataclasses
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from amalgams import amalgam as am
from amalgams import fingroup as fg
from amalgams import quotients as qt
from amalgams import separability as sep
from amalgams.amalgam import word
from amalgams.errors import (
    BudgetExhausted,
    ElementsConjugate,
    NotPPower,
    NotSeparable,
    VerificationFailed,
)
from conftest import (
    make_amalg1,
    make_c2c2,
    make_c2c3,
    make_c9_amalgam,
    make_d8_d8,
    make_d8_q8,
    make_d8_v_d8_twisted,
    make_d16_q16,
    make_he3_c9,
    make_s3_amalgam,
    make_s3_s3,
    random_conjugate,
)
from test_tables import sample_amalgams

ALL_MAKERS = [make_amalg1, make_c2c2, make_c2c3, make_s3_amalgam,
              make_c9_amalgam, make_d8_q8, make_d16_q16, make_he3_c9,
              make_s3_s3, make_d8_d8, make_d8_v_d8_twisted]


def W(*syllables):
    return word(syllables)


BUDGET = sep.SearchBudget(p=2, max_target_order=16,
                          max_quotient_index=16, max_conjugator_length=4)
RESIDUAL_BUDGET = dataclasses.replace(BUDGET, max_conjugator_length=1)


class TestBudget:
    def test_rejects_composite_p(self):
        with pytest.raises(Exception):
            sep.SearchBudget(p=4)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(NotPPower):
            sep.SearchBudget(max_target_order=0)

    @pytest.mark.parametrize("p,bound", [(3, 2), (2, 1)])
    def test_rejects_bound_below_p(self, p, bound):
        """No nontrivial p-group has order at most a bound below p.  The
        budget and the catalog reject it, naming both values."""
        message = f"max_target_order {bound} is below p = {p}"
        with pytest.raises(NotPPower, match=message):
            sep.SearchBudget(p, bound)
        with pytest.raises(NotPPower, match=message):
            sep.p_group_catalog(p, bound)

    def test_replacing_p_checks_the_bound(self):
        """``separate -p`` replaces p with ``dataclasses.replace``, which
        checks the new budget."""
        with pytest.raises(NotPPower, match="max_target_order 2 is below p = 3"):
            dataclasses.replace(sep.SearchBudget(2, 2), p=3)


class TestCatalog:
    def test_orders_up_to_16(self):
        cat = sep.p_group_catalog(2, 16)
        assert sorted(X.order for X in cat) == \
            [2, 4, 4, 8, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16]

    def test_all_p_groups(self):
        for X in sep.p_group_catalog(2, 16):
            assert fg.is_p_group(X, 2)
        for X in sep.p_group_catalog(3, 27):
            assert fg.is_p_group(X, 3)

    def test_rejects_non_p_power_bound(self):
        """A cap that is not a power of p bounds the order from above, so
        cap 12 gives the catalog of cap 8; only a cap below p is rejected."""
        assert [X.table for X in sep.p_group_catalog(2, 12)] == \
            [X.table for X in sep.p_group_catalog(2, 8)]
        assert max(X.order for X in sep.p_group_catalog(3, 16)) == 9
        with pytest.raises(NotPPower):
            sep.p_group_catalog(3, 2)

    def test_rejects_order_bound_zero(self):
        """In a subprocess with a timeout: this call used to loop forever."""
        code = ("from amalgams.separability import p_group_catalog\n"
                "from amalgams.errors import NotPPower\n"
                "try:\n    p_group_catalog(2, 0)\n"
                "except NotPPower:\n    raise SystemExit(0)\n"
                "raise SystemExit('no NotPPower')\n")
        src = str(Path(sep.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_nonabelian_members_present(self):
        cat = sep.p_group_catalog(2, 8)
        nonabelian = [X for X in cat
                      if any(X.mul(a, b) != X.mul(b, a)
                             for a in X.elements() for b in X.elements())]
        assert len(nonabelian) == 2  # dihedral and quaternion of order 8

    def test_built_once(self):
        """Each order's groups are built once: two catalogs share them."""
        first, second = sep.p_group_catalog(2, 16), sep.p_group_catalog(2, 16)
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("p,order", [(2, 16), (3, 27)])
    def test_tables_distinct(self, p, order):
        cat = sep.p_group_catalog(p, order)
        assert len({X.table for X in cat}) == len(cat)

    def test_walk_builds_only_the_orders_it_reaches(self, monkeypatch):
        """From cold caches, a search whose witness has order 2 builds no
        catalog group of larger order, however large the bound: each
        order's groups are built when the walk first reaches them."""
        spec = make_amalg1()
        sep._groups_of_order.cache_clear()
        orders = []
        from_table = fg.from_table

        def spy(order, *args):
            orders.append(order)
            return from_table(order, *args)

        monkeypatch.setattr(fg, "from_table", spy)
        w = sep.search_witness(spec, W(("H", 1)), W(("K", 1)),
                               sep.SearchBudget(2, 64))
        assert w.target.order == 2
        assert orders and max(orders) == 2


class TestWordImage:
    def test_example(self, amalg1):
        c4 = fg.cyclic(4)
        psi = fg.GroupHom(c4, c4, (0, 1, 2, 3))
        psi_k = fg.GroupHom(c4, c4, (0, 3, 2, 1))
        assert sep.agrees_on_amalgam(amalg1, psi, psi_k)
        w = sep.Witness(c4, psi, psi_k)
        assert sep.word_image(w, W(("H", 1), ("K", 1))) == 0
        assert sep.word_image(w, W(("H", 1), ("K", 3))) == 2

    def test_agreement_required(self, amalg1):
        c4 = fg.cyclic(4)
        psi_h = fg.GroupHom(amalg1.H, c4, (0, 1, 2, 3))
        psi_k = fg.GroupHom(amalg1.K, c4, (0, 0, 0, 0))
        assert not sep.agrees_on_amalgam(amalg1, psi_h, psi_k)

    @pytest.mark.parametrize("make,X", [
        (make_s3_amalgam, fg.direct_product(fg.cyclic(2), fg.cyclic(2))),
        (make_d8_q8, fg.dihedral(4)),
    ])
    def test_agreeing_pairs_match_filtered_product(self, make, X):
        spec = make()
        expected = [(h.images, k.images)
                    for h, k in itertools.product(fg.enumerate_homs(spec.H, X),
                                                  fg.enumerate_homs(spec.K, X))
                    if sep.agrees_on_amalgam(spec, h, k)]
        got = [(h.images, k.images)
               for h, k in oracles.agreeing_pairs(spec, X)]
        assert got == expected

    def test_agreeing_pairs_all_agree(self, amalg1):
        for psi_h, psi_k in oracles.agreeing_pairs(amalg1, fg.cyclic(4)):
            assert sep.agrees_on_amalgam(amalg1, psi_h, psi_k)
            assert psi_h.is_valid() and psi_k.is_valid()


class TestVerifyWitness:
    def test_rejects_disagreement_on_amalgam(self, amalg1):
        c4 = fg.cyclic(4)
        w = sep.Witness(c4, fg.GroupHom(amalg1.H, c4, (0, 1, 2, 3)),
                        fg.GroupHom(amalg1.K, c4, (0, 0, 0, 0)))
        assert w.psi_H.is_valid() and w.psi_K.is_valid()
        assert not sep.verify_witness(amalg1, w, W(("H", 1)), W(), 2)

    def test_rejects_target_not_a_p_group(self, amalg1):
        c6 = fg.cyclic(6)
        w = sep.Witness(c6, fg.GroupHom(amalg1.H, c6, (0, 3, 0, 3)),
                        fg.GroupHom(amalg1.K, c6, (0, 3, 0, 3)))
        assert w.psi_H.is_valid() and w.psi_K.is_valid()
        assert sep.agrees_on_amalgam(amalg1, w.psi_H, w.psi_K)
        assert sep.word_image(w, W(("H", 1))) != sep.word_image(w, W())
        assert not sep.verify_witness(amalg1, w, W(("H", 1)), W(), 2)

    @pytest.mark.parametrize("change", [
        "target", "psi_H source", "psi_K source", "psi_K target"])
    def test_rejects_maps_between_other_groups(self, amalg1, change):
        """psi_H and psi_K must run from H and K into the witness's target.
        Each change passes every other check: (0, 1, 0, 1) is a hom
        C4 -> C2 but no map into C4, a hom from C2 x C2 is no map from H,
        and x -> 2x maps K into C4, not into the target C2."""
        c2, c4 = fg.cyclic(2), fg.cyclic(4)
        v = fg.direct_product(c2, c2)
        psi_H = fg.GroupHom(amalg1.H, c2, (0, 1, 0, 1))
        psi_K = fg.GroupHom(amalg1.K, c2, (0, 1, 0, 1))
        f, g = W(("H", 1)), W()
        assert sep.verify_witness(amalg1, sep.Witness(c2, psi_H, psi_K), f, g, 2)
        target = c4 if change == "target" else c2
        if change == "psi_H source":
            psi_H = fg.GroupHom(v, c2, (0, 1, 0, 1))
        elif change == "psi_K source":
            psi_K = fg.GroupHom(v, c2, (0, 1, 0, 1))
        elif change == "psi_K target":
            psi_K = fg.GroupHom(amalg1.K, c4, (0, 2, 0, 2))
        assert psi_H.is_valid() and psi_K.is_valid()
        assert not sep.verify_witness(amalg1, sep.Witness(target, psi_H, psi_K),
                                      f, g, 2)


class TestSearchWitness:
    def test_length_one_pair(self, amalg1):
        w = sep.search_witness(amalg1, W(("H", 1)), W(("K", 1)), BUDGET)
        assert sep.verify_witness(amalg1, w, W(("H", 1)), W(("K", 1)), 2)

    def test_conjugate_inputs_raise(self, amalg1):
        with pytest.raises(ElementsConjugate):
            sep.search_witness(amalg1, W(("H", 1), ("K", 1)),
                               W(("K", 1), ("H", 1)), BUDGET)

    def test_distinct_lengths(self, amalg1):
        f, g = W(("H", 1)), W(("H", 1), ("K", 1))
        w = sep.search_witness(amalg1, f, g, BUDGET)
        assert sep.verify_witness(amalg1, w, f, g, 2)

    def test_same_factor_distinct_classes(self, amalg1):
        f, g = W(("H", 1)), W(("H", 3))
        w = sep.search_witness(amalg1, f, g, BUDGET)
        assert sep.verify_witness(amalg1, w, f, g, 2)

    def test_length_two_pair(self, amalg1):
        f, g = W(("H", 1), ("K", 1)), W(("H", 1), ("K", 3))
        assert not am.is_conjugate_general(amalg1, f, g).conjugate
        w = sep.search_witness(amalg1, f, g, BUDGET)
        assert sep.verify_witness(amalg1, w, f, g, 2)

    def test_deterministic(self, amalg1):
        f, g = W(("H", 1)), W(("K", 1))
        w1 = sep.search_witness(amalg1, f, g, BUDGET)
        w2 = sep.search_witness(amalg1, f, g, BUDGET)
        assert w1 == w2

    def test_negative_control_c2_c3(self, c2c3):
        # C2 * C3 has no nontrivial agreeing pairs into 2-groups that keep
        # the C3 letter alive, so the search must exhaust its budget.
        with pytest.raises(BudgetExhausted):
            sep.search_witness(c2c3, W(("K", 1)), W(("K", 2)),
                               sep.SearchBudget(p=2, max_target_order=8,
                                                max_quotient_index=8))

    def test_d8_q8_order_32_exhausts(self):
        # No catalog 2-group of order <= 32 separates this pair: the
        # search must try every agreeing pair into all of them.
        spec = make_d8_q8()
        with pytest.raises(BudgetExhausted):
            sep.search_witness(spec, W(("H", 1), ("K", 1)),
                               W(("H", 1), ("K", 3)),
                               sep.SearchBudget(2, 32, 16, 4))

    def test_rejected_witness_raises(self, amalg1, monkeypatch):
        monkeypatch.setattr(sep, "verify_witness", lambda *args: False)
        with pytest.raises(VerificationFailed):
            sep.search_witness(amalg1, W(("H", 1)), W(("K", 1)), BUDGET)


class TestVerificationIndependence:
    def test_kernel_without_relation_checks_is_caught(self, monkeypatch):
        """With the hom enumerator replaced by one that checks no relation,
        the search reads maps that are not homomorphisms.  No catalog group
        of order <= 16 separates this pair, so the witness it builds from
        them is false; the re-check must reject it, not pass it on.  The
        spec is fresh, so its Hom tables are filled by the patched
        enumerator and die with it.  The stub returns its maps in the
        enumerator's layout, one column per element of G."""
        def tree_extensions(G, X):
            gens = fg.generating_sequence(G)
            homs = []
            for chosen in itertools.product(X.elements(), repeat=len(gens)):
                images = {0: 0}
                frontier = [0]
                for x in frontier:  # breadth-first spanning tree of G
                    for g, c in zip(gens, chosen):
                        y = G.mul(x, g)
                        if y not in images:
                            images[y] = X.mul(images[x], c)
                            frontier.append(y)
                homs.append(tuple(images[e] for e in G.elements()))
            return tuple(zip(*homs))

        monkeypatch.setattr(fg, "hom_images", tree_extensions)
        with pytest.raises(VerificationFailed):
            sep.search_witness(make_d8_q8(), W(("H", 1), ("K", 1)),
                               W(("H", 1), ("K", 3)), BUDGET)

    def test_class_tables_not_shared_with_the_search(self, monkeypatch):
        """With every class of every target a singleton, the search takes
        distinct images for non-conjugate ones.  No catalog group of order
        <= 16 separates this pair, so any witness it returns is false; the
        re-check searches for a conjugator itself and must reject it."""
        monkeypatch.setattr(fg, "class_index", lambda G: tuple(G.elements()))
        with pytest.raises(VerificationFailed):
            sep.search_witness(make_d8_q8(), W(("H", 1), ("K", 1)),
                               W(("K", 1), ("H", 3)), BUDGET)


def test_value_classes_are_slotted_and_pickle(amalg1):
    f, g = W(("H", 1), ("K", 1)), W(("K", 1), ("H", 3))
    witness = sep.search_witness(amalg1, W(("H", 1)), W(("K", 1)), BUDGET)
    values = [f, am.normal_form(amalg1, g),
              am.is_conjugate_central(amalg1, f, g), witness.psi_H, witness]
    assert [type(v).__name__ for v in values] == [
        "Word", "NormalForm", "ConjugacyVerdict", "GroupHom", "Witness"]
    for v in values:
        assert not hasattr(v, "__dict__")
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v)


class TestEnumeration:
    def test_cyclically_reduced_all_are(self, amalg1):
        for w in sep.enumerate_cyclically_reduced(amalg1, 3):
            assert oracles.is_cyclically_reduced(amalg1, w)

    def test_cyclically_reduced_length_0_is_the_identity(self, amalg1):
        assert sep.enumerate_cyclically_reduced(amalg1, 0) == (am.EMPTY,)

    def test_cyclically_reduced_distinct_elements(self, amalg1):
        ws = sep.enumerate_cyclically_reduced(amalg1, 3)
        nfs = {(am.normal_form(amalg1, w).amalgam_part,
                am.normal_form(amalg1, w).tail) for w in ws}
        assert len(nfs) == len(ws)

    @pytest.mark.parametrize("make", ALL_MAKERS, ids=lambda m: m.__name__)
    def test_no_cyclically_reduced_element_of_odd_length(self, make):
        """An alternating word of odd length >= 3 starts and ends in one
        factor, so odd lengths add no element."""
        spec = make()
        assert sep.enumerate_cyclically_reduced(spec, 3) == \
            sep.enumerate_cyclically_reduced(spec, 2)
        if make in (make_amalg1, make_c2c3):
            assert sep.enumerate_cyclically_reduced(spec, 5) == \
                sep.enumerate_cyclically_reduced(spec, 4)

    @pytest.mark.parametrize("make", ALL_MAKERS, ids=lambda m: m.__name__)
    def test_matches_the_generate_and_deduplicate_reference(self, make):
        """The words built from least left-coset representatives are the
        reference's first word per element, in its order.  S3 *_{C2} S3 and
        He3 *_{C3} C9 tell a left coset e*S from the right coset S*e."""
        spec = make()
        top = 5 if make in (make_amalg1, make_c2c3) else 4
        for n in range(top + 1):
            assert sep.enumerate_cyclically_reduced(spec, n) == \
                oracles.ref_enumerate_cyclically_reduced(spec, n), n

    def test_sampled_amalgams_match_the_reference(self):
        for spec in sample_amalgams(seed=0, draws=40):
            for n in range(5):
                assert sep.enumerate_cyclically_reduced(spec, n) == \
                    oracles.ref_enumerate_cyclically_reduced(spec, n), n


class TestReports:
    def test_cfp_report_amalg1(self, amalg1):
        budget = sep.SearchBudget(p=2, max_target_order=16,
                                  max_quotient_index=16,
                                  max_conjugator_length=2)
        report = sep.is_cfp_separable_bounded(amalg1, W(("H", 1)), budget)
        assert report.all_separated
        for entry in report.entries:
            assert sep.verify_witness(amalg1, entry.witness, entry.other,
                                      W(("H", 1)), 2)

    def test_cfp_report_records_exhausted_budget(self, c2c3):
        """In C2 * C3 with p = 2, K:1 maps to the identity of every 2-group,
        so it is not separated from the identity or from K:2: both entries
        carry the p-residual proof's message."""
        budget = sep.SearchBudget(p=2, max_conjugator_length=1)
        report = sep.is_cfp_separable_bounded(c2c3, W(("K", 1)), budget)
        assert not report.all_separated
        failed = {e.other.syllables: e for e in report.entries
                  if not e.separated}
        assert set(failed) == {(), (("K", 2),)}
        for entry in failed.values():
            assert entry.witness is None
            assert entry.proved
            assert entry.error.startswith(
                "no finite 2-group separates the inputs (p-residual proof)")
        assert [e.other.syllables for e in report.entries if e.separated] \
            == [(("H", 1),)]

    def test_cfp_report_marks_an_exhausted_budget_unproved(self, amalg1):
        """Only 2-groups of order 2 are tried, and every one kills H:2, so
        the search for H:2 against the identity runs out of catalog without
        a proof."""
        budget = sep.SearchBudget(p=2, max_target_order=2,
                                  max_quotient_index=2, max_conjugator_length=1)
        report = sep.is_cfp_separable_bounded(amalg1, W(("H", 2)), budget)
        entry = next(e for e in report.entries if not e.other.syllables)
        assert not entry.separated and not entry.proved
        assert entry.error.startswith("no agreeing homomorphism pair")
        assert not any(e.proved for e in report.entries)

    def test_residual_p_amalg1(self, amalg1):
        """Residual p is separation from the identity: every nontrivial
        cyclically reduced element of length <= 2 survives in the
        witness's 2-group."""
        budget = dataclasses.replace(BUDGET, max_conjugator_length=2)
        report = sep.is_cfp_separable_bounded(amalg1, am.EMPTY, budget)
        assert report.all_separated and report.entries
        for entry in report.entries:
            assert sep.word_image(entry.witness, entry.other) != 0

    def test_residual_p_negative_c2_c3(self, c2c3):
        budget = sep.SearchBudget(p=2, max_target_order=8,
                                  max_quotient_index=8, max_conjugator_length=1)
        report = sep.is_cfp_separable_bounded(c2c3, am.EMPTY, budget)
        assert not report.all_separated
        failed = {e.other.syllables for e in report.entries if not e.separated}
        assert failed == {(("K", 1),), (("K", 2),)}

    @pytest.mark.parametrize("make,separated", [(make_d8_d8, 363),
                                                (make_d8_q8, 372)],
                             ids=["d8_c2_d8", "d8_z_q8"])
    def test_residual_p_at_length_4(self, make, separated):
        """The bounded residual-p check over every cyclically reduced
        element of length <= 4: 373 entries, none proved, and every
        witness passes the independent re-check."""
        spec = make()
        report = sep.is_cfp_separable_bounded(spec, am.EMPTY,
                                              sep.SearchBudget(2, 16, 16, 4))
        assert len(report.entries) == 373
        assert not any(e.proved for e in report.entries)
        found = [e for e in report.entries if e.separated]
        assert len(found) == separated
        for entry in found:
            assert sep.verify_witness(spec, entry.witness, entry.other,
                                      am.EMPTY, 2)


class TestResidualReverification:
    """A pair the residual check (the search against the identity)
    returns is re-checked by code it does not share: a wrong pair raises
    instead of becoming an entry."""

    def test_pair_with_trivial_image_raises(self, amalg1, monkeypatch):
        X = fg.cyclic(2)
        trivial_H = fg.GroupHom(amalg1.H, X, (0,) * amalg1.H.order)
        trivial_K = fg.GroupHom(amalg1.K, X, (0,) * amalg1.K.order)
        monkeypatch.setattr(sep, "_first_agreeing_pair",
                            lambda *args: (X, trivial_H, trivial_K))
        with pytest.raises(VerificationFailed):
            sep.is_cfp_separable_bounded(amalg1, am.EMPTY, RESIDUAL_BUDGET)

    def test_pair_disagreeing_on_amalgam_raises(self, amalg1, monkeypatch):
        X = fg.cyclic(4)
        identity_H = fg.GroupHom(amalg1.H, X, tuple(amalg1.H.elements()))
        trivial_K = fg.GroupHom(amalg1.K, X, (0,) * amalg1.K.order)
        assert identity_H.is_valid() and trivial_K.is_valid()
        assert not sep.agrees_on_amalgam(amalg1, identity_H, trivial_K)
        monkeypatch.setattr(sep, "_first_agreeing_pair",
                            lambda *args: (X, identity_H, trivial_K))
        with pytest.raises(VerificationFailed):
            sep.is_cfp_separable_bounded(amalg1, am.EMPTY, RESIDUAL_BUDGET)


def make_c8_c2_c8():
    """C8 *_{C2} C8 over the subgroups of order 2; central.  H:4 is
    nontrivial in G^ab = (C8 x C8) / <(4, 4)>."""
    c8 = fg.cyclic(8)
    return am.make_amalgam(c8, c8, [0, 4], [0, 4], {0: 0, 4: 4})


class TestSpecHomTables:
    def test_search_fills_and_rereads_the_spec_tables(self, monkeypatch):
        """A search on a fresh spec fills one record for each target the
        walk reached, in walk order: X's class index and one column-major
        Hom table per factor (one column per element of the factor), each
        equal, transposed back to one row per hom, to what a fresh
        ``class_index`` or the brute force gives, in the same order.  A
        second search on the same spec enumerates nothing,
        reads the same record objects and returns the witness a freshly
        built equal spec gives.  The inputs differ in G^ab, so the walk
        tries the abelian targets too: C2, C4, C2^2 and then C8, the
        witness."""
        filled = []
        hom_images = fg.hom_images
        monkeypatch.setattr(fg, "hom_images", lambda G, X: (
            filled.append((G, X)) or hom_images(G, X)))
        f, g = am.EMPTY, W(("H", 4))
        spec = make_c8_c2_c8()
        assert spec.targets == {}
        w = sep.search_witness(spec, f, g, BUDGET)
        catalog = sep.p_group_catalog(2, BUDGET.max_target_order)
        reached = catalog[:catalog.index(w.target) + 1]
        assert len(reached) > 2
        assert list(spec.targets) == list(reached)
        assert filled == [(G, X) for X in reached for G in (spec.H, spec.K)]
        for X, (index, h_columns, k_columns) in spec.targets.items():
            assert index == fg.class_index(X)
            assert len(h_columns) == spec.H.order
            assert len(k_columns) == spec.K.order
            assert tuple(zip(*h_columns)) == \
                oracles.brute_force_homs(spec.H, X)
            assert tuple(zip(*k_columns)) == \
                oracles.brute_force_homs(spec.K, X)
        records = dict(spec.targets)
        again = sep.search_witness(spec, f, g, BUDGET)
        assert list(spec.targets) == list(reached)
        assert len(filled) == 2 * len(reached)
        assert all(spec.targets[X] is r for X, r in records.items())
        fresh = sep.search_witness(make_c8_c2_c8(), f, g, BUDGET)
        for other in (again, fresh):
            assert (other.target, other.psi_H, other.psi_K) == \
                (w.target, w.psi_H, w.psi_K)


def is_abelian(X):
    return all(X.mul(a, b) == X.mul(b, a)
               for a in X.elements() for b in X.elements())


class TestAbelianPreTest:
    """Inputs with equal images in the largest abelian p-quotient of G
    are equal in every abelian p-group an agreeing pair reaches, so the
    walk skips the abelian targets for them."""

    def test_agreeing_inputs_build_no_abelian_record(self, monkeypatch):
        """D16 *_Z Q16 with ("", H:2): r^2 is a commutator of D16, so the
        walk builds Hom tables into non-abelian targets only, and returns
        the witness the full catalog gives."""
        filled = []
        hom_images = fg.hom_images
        monkeypatch.setattr(fg, "hom_images", lambda G, X: (
            filled.append(X) or hom_images(G, X)))
        spec, f, g = make_d16_q16(), am.EMPTY, W(("H", 2))
        assert sep._agree_in_abelian_p_quotient(spec, 2, f, g)
        w = sep.search_witness(spec, f, g, BUDGET)
        assert filled and not any(map(is_abelian, filled))
        assert list(spec.targets) == list(dict.fromkeys(filled))
        catalog = sep.p_group_catalog(2, BUDGET.max_target_order)
        assert sep._first_agreeing_pair(make_d16_q16(), catalog, (f, g)) \
            == (w.target, w.psi_H, w.psi_K)

    @pytest.mark.parametrize("make, f, g, walked", [
        (make_amalg1, W(("H", 1), ("K", 1)), W(("K", 1), ("H", 1)), False),
        (make_c2c3, W(("K", 1)), W(("K", 2)), False),
        (make_s3_amalgam, W(("K", 1)), W(("K", 3)), False),
        (make_d8_q8, W(("H", 1), ("K", 1)), W(("H", 1), ("K", 3)), True),
        (make_amalg1, W(("H", 1)), W(("K", 1)), True),
    ], ids=["conjugate", "proved_c2_c3", "proved_s3", "exhausted", "found"])
    def test_runs_once_and_only_before_a_walk(self, make, f, g, walked,
                                              monkeypatch):
        """Conjugate inputs and inputs proved through G* never reach the
        test; a walked search runs it once, on the decider's reductions."""
        calls = []
        real = sep._agree_in_abelian_p_quotient
        monkeypatch.setattr(sep, "_agree_in_abelian_p_quotient",
                            lambda *args: calls.append(args) or real(*args))
        spec = make()
        budget = sep.SearchBudget(2, 32, 16)
        with contextlib.suppress(BudgetExhausted, ElementsConjugate):
            sep.search_witness(spec, f, g, budget)
        if walked:
            assert calls == [(spec, 2, *am._decide(spec, f, g).reduced)]
        else:
            assert calls == []

    def test_exhausted_text_says_why(self, amalg1):
        """The text names the skipped abelian targets only when the inputs
        agree in every abelian p-quotient, and always leads with "no
        agreeing homomorphism pair"."""
        texts = []
        for spec, f, g, budget in [
                (make_d16_q16(), W(("H", 1)), W(("H", 3)),
                 sep.SearchBudget(2, 8, 8)),
                (amalg1, am.EMPTY, W(("H", 2)), sep.SearchBudget(2, 2, 2))]:
            with pytest.raises(BudgetExhausted) as exc:
                sep.search_witness(spec, f, g, budget)
            assert not isinstance(exc.value, NotSeparable)
            texts.append(str(exc.value))
        assert texts == [
            "no agreeing homomorphism pair into a catalog 2-group of order "
            "at most 8 separates the inputs, and they agree in every "
            "abelian 2-quotient of G, so no abelian target was tried; the "
            "search budget ran out",
            "no agreeing homomorphism pair into a catalog 2-group of order "
            "at most 2 separates the inputs; the search budget ran out"]


class TestClassIndex:
    def test_shared_index_iff_conjugate(self):
        for X in sep.p_group_catalog(2, 16) + sep.p_group_catalog(3, 27) \
                + (fg.symmetric3(),):
            index = fg.class_index(X)
            for a, b in itertools.product(X.elements(), repeat=2):
                conjugate = fg.are_conjugate_in(X, a, b) is not None
                assert (index[a] == index[b]) == conjugate, (X.order, a, b)

    def test_catalog_is_the_only_module_level_cache(self):
        """``fingroup`` keeps no state, and the only ``lru_cache`` in the
        library is the catalog's ``separability._groups_of_order``."""
        assert not [name for name, value in vars(fg).items()
                    if hasattr(value, "cache_clear")]
        decorated = [(path.name, line.strip())
                     for path in sorted(Path(sep.__file__).parent.glob("*.py"))
                     for line in path.read_text().splitlines()
                     if re.match(r"\s*@(functools\.)?(lru_)?cache\b", line)]
        assert decorated == [("separability.py", "@lru_cache(maxsize=None)")]
        assert callable(sep._groups_of_order.cache_clear)


class TestWalkOnCyclicReductions:
    """The catalog walk runs on the decider's cyclic reductions of the
    inputs.  Conjugating the inputs changes neither the outcome nor the
    witness, which still passes the re-check on the inputs themselves."""

    @staticmethod
    def outcome(spec, f, g, budget):
        try:
            w = sep.search_witness(spec, f, g, budget)
        except ElementsConjugate:
            return "conjugate", None
        except NotSeparable:
            return "proved", None
        except BudgetExhausted:
            return "exhausted", None
        assert sep.verify_witness(spec, w, f, g, budget.p)
        return "found", (w.target, w.psi_H, w.psi_K)

    @pytest.mark.parametrize("make,order", [
        (make_d8_q8, 16), (make_d16_q16, 8),
    ], ids=["d8_z_q8", "d16_z_q16"])
    def test_conjugated_inputs_give_the_same_witness(self, make, order):
        spec = make()
        budget = sep.SearchBudget(2, order, order)
        rng = random.Random(order)
        kinds = set()
        for f, g in itertools.permutations(
                sep.enumerate_cyclically_reduced(spec, 1), 2):
            bare = self.outcome(spec, f, g, budget)
            moved = self.outcome(spec, random_conjugate(spec, f, rng),
                                 random_conjugate(spec, g, rng), budget)
            assert moved == bare, (f, g)
            kinds.add(bare[0])
        assert {"found", "conjugate"} <= kinds

    def test_walk_reads_the_verdict_reductions(self, amalg1, monkeypatch):
        walked = []
        walk = sep._first_agreeing_pair

        def spy(spec, catalog, words):
            walked.append(tuple(words))
            return walk(spec, catalog, words)

        monkeypatch.setattr(sep, "_first_agreeing_pair", spy)
        rng = random.Random(5)
        f = random_conjugate(amalg1, W(("H", 1), ("K", 1)), rng)
        g = random_conjugate(amalg1, W(("H", 1), ("K", 3)), rng)
        w = sep.search_witness(amalg1, f, g, BUDGET)
        assert walked == [am.is_conjugate_general(amalg1, f, g).reduced]
        for u, c in zip((f, g), walked[0]):
            assert oracles.is_cyclically_reduced(amalg1, c) and len(c) < len(u)
        assert sep.verify_witness(amalg1, w, f, g, 2)


class TestPendingChecks:
    """The search checks the cyclic reductions of f and g, from the
    decider's negative verdict (``amalgam._check_reductions``), only
    before a negative answer.  A found witness is re-checked on f and g
    themselves, and a negative verdict in G* backs no answer, so neither
    pays for them.  The inputs are conjugated, so that each cyclic check
    compares normal forms."""

    FOUND = [(make_amalg1, W(("H", 1), ("K", 1)), W(("H", 1), ("K", 3))),
             (make_s3_amalgam, W(("H", 1), ("K", 1)), W(("K", 3)))]
    EXHAUSTED = (make_d8_q8, W(("H", 1), ("K", 1)), W(("H", 1), ("K", 3)))
    PROVED = [(make_c2c3, W(("K", 1)), W(("K", 2))),
              (make_s3_amalgam, W(("K", 1)), W(("K", 3)))]

    @staticmethod
    def _count_checks(monkeypatch):
        calls = []
        real = am.equal_in_g

        def counted(spec, u, v):
            calls.append((spec, u, v))
            return real(spec, u, v)

        monkeypatch.setattr(am, "equal_in_g", counted)
        return calls

    @staticmethod
    def _inputs(make, f, g):
        spec, rng = make(), random.Random(1)
        return (spec, random_conjugate(spec, f, rng),
                random_conjugate(spec, g, rng))

    @pytest.mark.parametrize("make, f, g", FOUND, ids=["amalg1", "s3"])
    def test_found_search_makes_no_check(self, make, f, g, monkeypatch):
        """On S3 *_{C3} C6 the search also decides in G*, negatively."""
        spec, f, g = self._inputs(make, f, g)
        calls = self._count_checks(monkeypatch)
        w = sep.search_witness(spec, f, g, BUDGET)
        assert calls == [] and sep.verify_witness(spec, w, f, g, 2)

    def test_exhausted_search_checks_both_reductions_last(self, monkeypatch):
        spec, f, g = self._inputs(*self.EXHAUSTED)
        reduced = am.is_conjugate_general(spec, f, g).reduced
        calls = self._count_checks(monkeypatch)
        walk, at_walk = sep._first_agreeing_pair, []

        def spy(*args):
            found = walk(*args)
            at_walk.append(len(calls))
            return found

        monkeypatch.setattr(sep, "_first_agreeing_pair", spy)
        with pytest.raises(BudgetExhausted) as exc:
            sep.search_witness(spec, f, g, BUDGET)
        assert not isinstance(exc.value, NotSeparable) and at_walk == [0]
        assert [(s, c) for s, _, c in calls] == [(spec, c) for c in reduced]

    @pytest.mark.parametrize("make, f, g", PROVED, ids=["c2_c3", "s3"])
    def test_proof_checks_both_reductions_and_the_star_conjugator(
            self, make, f, g, monkeypatch):
        spec, f, g = self._inputs(make, f, g)
        reduced = am.is_conjugate_general(spec, f, g).reduced
        calls = self._count_checks(monkeypatch)
        with pytest.raises(NotSeparable) as exc:
            sep.search_witness(spec, f, g, BUDGET)
        pair, z = qt.p_residual(spec, 2), exc.value.conjugator
        star = pair.quotient_spec
        assert len(calls) == 3 and calls[0][0] is star
        assert calls[0][1] == am.inverse(star, z).concat(
            qt.project_word(pair, f)).concat(z)
        assert [(s, c) for s, _, c in calls[1:]] == [(spec, c)
                                                     for c in reduced]

    def test_failing_checks_leave_found_answers_alone(self, monkeypatch):
        """With every normal-form check failing, a found answer still
        stands on its re-check, and each negative answer raises."""
        monkeypatch.setattr(am, "equal_in_g", lambda spec, u, v: False)
        for make, f, g in self.FOUND:
            spec, f, g = self._inputs(make, f, g)
            w = sep.search_witness(spec, f, g, BUDGET)
            assert sep.verify_witness(spec, w, f, g, 2)
        for make, f, g in [self.EXHAUSTED, *self.PROVED]:
            spec, f, g = self._inputs(make, f, g)
            with pytest.raises(VerificationFailed):
                sep.search_witness(spec, f, g, BUDGET)

    @pytest.mark.parametrize("make, p, order, length", [
        (make_amalg1, 2, 16, 2),
        (make_c2c3, 2, 8, 2),
        (make_s3_amalgam, 2, 16, 1),
        (make_c9_amalgam, 3, 27, 1),
        (make_d8_q8, 2, 16, 1),
        (make_d8_v_d8_twisted, 2, 16, 1),
    ], ids=["amalg1", "c2_c3", "s3", "c9", "d8_q8", "d8_v_d8_twisted"])
    def test_corrupted_reduce_gives_no_negative_answer(
            self, make, p, order, length, monkeypatch):
        """A reduce that drops its last syllable corrupts the decider's
        cyclic reductions, which the walk reads unchecked.  Over every
        non-conjugate pair, conjugated, the search then never claims
        "exhausted" or "proved": it raises VerificationFailed, or returns
        a witness that passes the re-check on the inputs themselves."""
        spec, budget = make(), sep.SearchBudget(p, order, order)
        rng, pairs = random.Random(0), []
        for f, g in itertools.combinations(
                sep.enumerate_cyclically_reduced(spec, length), 2):
            f, g = random_conjugate(spec, f, rng), random_conjugate(spec, g, rng)
            kind = TestWalkOnCyclicReductions.outcome(spec, f, g, budget)[0]
            if kind != "conjugate":
                pairs.append((f, g, kind))
        real_reduce = am.reduce
        monkeypatch.setattr(am, "reduce", lambda spec, w:
                            am.Word(real_reduce(spec, w).syllables[:-1]))
        caught = 0
        for f, g, kind in pairs:
            try:
                w = sep.search_witness(spec, f, g, budget)
            except VerificationFailed:
                caught += 1
            else:
                assert kind == "found" and sep.verify_witness(spec, w, f, g, p)
        assert caught


class TestVerdictPinning:
    """Every unordered pair of distinct cyclically reduced elements gets
    the same verdict (found / exhausted / conjugate) whatever the search
    strategy, and every witness passes the independent re-check."""

    @pytest.fixture(autouse=True)
    def cold_catalog(self):
        sep._groups_of_order.cache_clear()

    @pytest.mark.parametrize("make,length,p,order,expected", [
        (make_s3_amalgam, 2, 2, 16, (81, 5, 19)),
        (make_c9_amalgam, 2, 3, 27, (729, 0, 12)),
        (make_d8_q8, 1, 2, 16, (84, 1, 6)),
    ])
    def test_verdict_counts(self, make, length, p, order, expected):
        spec = make()
        budget = sep.SearchBudget(p, order, order)
        reps = sep.enumerate_cyclically_reduced(spec, length)
        found = exhausted = conjugate = 0
        for f, g in itertools.combinations(reps, 2):
            try:
                w = sep.search_witness(spec, f, g, budget)
            except ElementsConjugate:
                conjugate += 1
            except BudgetExhausted:
                exhausted += 1
            else:
                assert sep.verify_witness(spec, w, f, g, p)
                found += 1
        assert (found, exhausted, conjugate) == expected
