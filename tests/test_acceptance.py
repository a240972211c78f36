"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import dataclasses
import random
import time

import pytest

import oracles
from amalgams import amalgam as am
from amalgams import fingroup as fg
from amalgams import graphgroups as gg
from amalgams import quotients as qt
from amalgams import separability as sep
from amalgams.amalgam import Word, word
from amalgams.errors import BudgetExhausted
from conftest import make_amalg1, make_c2c2, make_c2c3


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_normal_form_soundness():
    """Normal-form equality = rewriting reachability on AMALG1; < 60 s."""
    spec = make_amalg1()
    t0 = time.monotonic()
    comp = oracles.rewriting_components(spec, 3)
    words = list(comp)
    nf = {w: am.normal_form(spec, Word(w)) for w in words}
    mismatches = sum(
        1
        for i, u in enumerate(words)
        for v in words[i:]
        if (nf[u] == nf[v]) != (comp[u] == comp[v]))
    n_pairs = len(words) * (len(words) + 1) // 2

    comp6 = oracles.rewriting_components(spec, 6)
    words6 = list(comp6)
    rng = random.Random(101)
    for _ in range(1000):
        u, v = rng.choice(words6), rng.choice(words6)
        same_nf = am.normal_form(spec, Word(u)) == am.normal_form(spec, Word(v))
        if same_nf != (comp6[u] == comp6[v]):
            mismatches += 1
    elapsed = time.monotonic() - t0
    _report("criterion 1: normal-form soundness",
            mismatches == 0 and elapsed < 60,
            f"{n_pairs} short pairs + 1000 random length<=6 pairs, "
            f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_central_conjugacy_oracle_agreement():
    """is_conjugate_central vs brute-force conjugator search; conjugators
    verify by normal form; zero disagreements."""
    disagreements = 0
    bad_conjugators = 0
    checked = 0
    for spec in (make_amalg1(), make_c2c2()):
        candidates = oracles.conjugator_candidates(spec, 4)
        words = [Word(w) for w in oracles.all_words(spec, 3)]
        reps = {}
        for w in words:
            nf = am.normal_form(spec, w)
            reps.setdefault((nf.amalgam_part, nf.tail), w)
        reps = sorted(reps.values(), key=lambda w: (len(w.syllables), w.syllables))
        for i, x in enumerate(reps):
            for y in reps[i:]:
                got = am.is_conjugate_central(spec, x, y)
                want = oracles.brute_force_conjugate(spec, x, y, candidates)
                checked += 1
                if got.conjugate != want:
                    disagreements += 1
                if got.conjugate:
                    z = got.conjugator
                    zi = am.inverse(spec, z)
                    if not am.equal_in_g(spec, zi.concat(x).concat(z), y):
                        bad_conjugators += 1
    _report("criterion 2: central conjugacy matches brute force",
            disagreements == 0 and bad_conjugators == 0,
            f"{checked} element pairs, {disagreements} disagreements, "
            f"{bad_conjugators} invalid conjugators")


def test_criterion_3_general_vs_central_consistency():
    """General decider equals the central one on AMALG1 and matches the
    free-product cyclic-word oracle on C2*C2."""
    spec = make_amalg1()
    words = [Word(w) for w in oracles.all_words(spec, 3)]
    reps = {}
    for w in words:
        nf = am.normal_form(spec, w)
        reps.setdefault((nf.amalgam_part, nf.tail), w)
    reps = sorted(reps.values(), key=lambda w: (len(w.syllables), w.syllables))
    diff_central = sum(
        1
        for i, x in enumerate(reps)
        for y in reps[i:]
        if am.is_conjugate_general(spec, x, y).conjugate
        != am.is_conjugate_central(spec, x, y).conjugate)

    free = make_c2c2()
    fwords = [Word(w) for w in oracles.all_words(free, 3)]
    diff_free = sum(
        1
        for x in fwords
        for y in fwords
        if am.is_conjugate_general(free, x, y).conjugate
        != oracles.free_product_conjugate(free, x, y))
    _report("criterion 3: general/central consistency",
            diff_central == 0 and diff_free == 0,
            f"{diff_central} central mismatches, {diff_free} free-product "
            f"mismatches")


def test_criterion_4_compatibility_machinery():
    """Pair enumeration equals the brute-force filter (and contains the
    diagonal pairs), and projection is a homomorphism on 500 random word
    pairs."""
    spec = make_amalg1()
    pairs = qt.enumerate_compatible_pairs(spec, 2, 4)
    got = sorted((p.R.elements, p.S.elements) for p in pairs)
    brute = []
    for R in fg.enumerate_normal_subgroups(spec.H):
        for S in fg.enumerate_normal_subgroups(spec.K):
            if fg.index(spec.H, R) > 4 or fg.index(spec.K, S) > 4:
                continue
            if not (fg.is_p_power_index(spec.H, R, 2)
                    and fg.is_p_power_index(spec.K, S, 2)):
                continue
            lhs = {spec.phi_map[a] for a in spec.A.element_set() & R.element_set()}
            if lhs == spec.B.element_set() & S.element_set():
                brute.append((R.elements, S.elements))
    enumeration_ok = got == sorted(brute) and {
        ((0,), (0,)), ((0, 2), (0, 2)), ((0, 1, 2, 3), (0, 1, 2, 3))
    } <= set(got)

    rng = random.Random(104)
    alpha = oracles.syllable_alphabet(spec)
    hom_failures = 0
    for k in range(500):
        pair = pairs[k % len(pairs)]
        u = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(5))))
        v = Word(tuple(rng.choice(alpha) for _ in range(rng.randrange(5))))
        lhs = qt.project_word(pair, u.concat(v))
        rhs = qt.project_word(pair, u).concat(qt.project_word(pair, v))
        if not am.equal_in_g(pair.quotient_spec, lhs, rhs):
            hom_failures += 1
    _report("criterion 4: compatibility machinery",
            enumeration_ok and hom_failures == 0,
            f"{len(got)} pairs match brute force, "
            f"{hom_failures}/500 homomorphism failures")


def test_criterion_5_graph_of_groups_round_trip():
    """Fundamental presentation of the two-vertex graph equals the direct
    amalgam presentation."""
    spec = make_amalg1()
    via_graph = gg.fundamental_presentation(gg.amalgam_as_group_graph(spec))
    direct = gg.amalgam_presentation(spec)
    round_trip_ok = (
        sorted(via_graph.generators) == sorted(direct.generators)
        and sorted(via_graph.relators) == sorted(direct.relators))
    _report("criterion 5: graph-of-groups round trip", round_trip_ok,
            f"presentation multisets equal={round_trip_ok}")


def test_criterion_6_witness_engine():
    """Every non-conjugate pair of cyclically reduced words of length <= 2
    over AMALG1 gets a verified witness; < 5 min."""
    spec = make_amalg1()
    budget = sep.SearchBudget(p=2, max_target_order=16,
                              max_quotient_index=16)
    t0 = time.monotonic()
    words = sep.enumerate_cyclically_reduced(spec, 2)
    failures = 0
    total = 0
    cross_factor_witnessed = False
    for i, f in enumerate(words):
        for g in words[i + 1:]:
            if am.is_conjugate_general(spec, f, g).conjugate:
                continue
            total += 1
            try:
                w = sep.search_witness(spec, f, g, budget)
            except BudgetExhausted:
                failures += 1
                continue
            if not sep.verify_witness(spec, w, f, g, 2):
                failures += 1
            if {f.syllables, g.syllables} == {(("H", 1),), (("K", 1),)}:
                # the cross-factor generator pair must be separated by the
                # canonical-order witness (superseding any specific example)
                cross_factor_witnessed = True
    elapsed = time.monotonic() - t0
    _report("criterion 6: witness engine",
            failures == 0 and cross_factor_witnessed and elapsed < 300,
            f"{total} non-conjugate pairs, {failures} failures, "
            f"{elapsed:.1f}s")


def test_criterion_7_negative_control():
    """C2*C3 with p=2: the residual check reports the order-3 obstruction and
    search_witness exhausts its budget; confirmed exhaustively over the
    catalog."""
    spec = make_c2c3()
    budget = sep.SearchBudget(p=2, max_target_order=16,
                              max_quotient_index=16, max_conjugator_length=1)
    report = sep.is_cfp_separable_bounded(spec, am.EMPTY, budget)
    failed = {e.other.syllables for e in report.entries if not e.separated}
    obstruction_ok = (("K", 1),) in failed and (("K", 2),) in failed

    f, g = word([("K", 1)]), word([("K", 2)])
    try:
        sep.search_witness(spec, f, g, budget)
        budget_ok = False
    except BudgetExhausted:
        budget_ok = True

    # exhaustive confirmation: every agreeing pair into every catalog group
    # identifies the images of f and g up to conjugacy
    identified = True
    for X in sep.p_group_catalog(2, 16):
        for psi_H, psi_K in oracles.agreeing_pairs(spec, X):
            w = sep.Witness(X, psi_H, psi_K)
            fi, gi = sep.word_image(w, f), sep.word_image(w, g)
            if fg.are_conjugate_in(X, fi, gi) is None:
                identified = False
    _report("criterion 7: negative control",
            obstruction_ok and budget_ok and identified,
            f"order-3 obstruction reported={obstruction_ok}, budget "
            f"exhausted={budget_ok}, all homomorphisms identify images="
            f"{identified}")


def test_criterion_8_residual_separability_consistency():
    """AMALG1 passes the bounded residual check at L=4, and every
    non-conjugate pair of length <= 2 is separated (forward direction only;
    no claim about the converse)."""
    spec = make_amalg1()
    budget = sep.SearchBudget(p=2, max_target_order=16,
                              max_quotient_index=16,
                              max_conjugator_length=2)
    residual = sep.is_cfp_separable_bounded(
        spec, am.EMPTY, dataclasses.replace(budget, max_conjugator_length=4))
    residual_ok = residual.all_separated

    separated_ok = True
    for g in sep.enumerate_cyclically_reduced(spec, 2):
        rep = sep.is_cfp_separable_bounded(spec, g, budget)
        separated_ok &= rep.all_separated
    _report("criterion 8: residual/separability consistency",
            residual_ok and separated_ok,
            f"residual-2 at L=4: {residual_ok}; all length<=2 pairs "
            f"separated: {separated_ok}")
