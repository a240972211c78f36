import itertools
import math

import pytest

from amalgams import fileio
from amalgams import fingroup as fg
from amalgams.errors import (
    IndexOutOfRange,
    NotAGroup,
    NotNormal,
    NotPrime,
)
from amalgams.separability import p_group_catalog
from conftest import (
    make_amalg1,
    make_c2c3,
    make_c9_amalgam,
    make_d8_q8,
    make_d16_q16,
    make_s3_amalgam,
)
from oracles import brute_force_homs


def brute_force_subgroups(G):
    """All subsets containing 0 that are closed under product and inverse."""
    out = []
    rest = [e for e in G.elements() if e != 0]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            s = {0, *combo}
            if all(G.mul(a, b) in s for a in s for b in s) \
                    and all(G.inv(a) in s for a in s):
                out.append(tuple(sorted(s)))
    return sorted(out, key=lambda t: (len(t), t))


# The factors of the benchmark corpus's amalgams.
BENCHMARK_FACTORS = {
    "D8": fg.dihedral(4), "Q8": fg.quaternion(8),
    "D16": fg.dihedral(8), "Q16": fg.quaternion(16),
    "S3": fg.symmetric3(), "C6": fg.cyclic(6), "C4": fg.cyclic(4),
    "C9": fg.cyclic(9), "C3xC3": fg.direct_product(fg.cyclic(3), fg.cyclic(3)),
    "C2": fg.cyclic(2), "C3": fg.cyclic(3),
}


def brute_force_normal_subgroups(G):
    return [s for s in brute_force_subgroups(G)
            if all(G.conj(h, z) in set(s) for h in s for z in G.elements())]


class TestFromTable:
    def test_c2(self):
        G = fg.from_table(2, [[0, 1], [1, 0]])
        assert G.order == 2 and G.mul(1, 1) == 0

    def test_not_latin_square(self):
        with pytest.raises(NotAGroup) as exc:
            fg.from_table(2, [[0, 1], [0, 1]])
        assert exc.value.reason == "not-a-latin-square"

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_names_must_name_every_element(self, names):
        with pytest.raises(IndexOutOfRange):
            fg.from_table(2, [[0, 1], [1, 0]], names)

    def test_c4_mod_table(self):
        G = fg.from_table(4, [[(i + j) % 4 for j in range(4)] for i in range(4)])
        assert G.element_order(1) == 4

    def test_no_identity(self):
        # Latin square without a two-sided identity
        table = [[1, 0, 3, 2], [3, 2, 1, 0], [0, 1, 2, 3], [2, 3, 0, 1]]
        rows_ok = all(sorted(r) == [0, 1, 2, 3] for r in table)
        assert rows_ok
        with pytest.raises(NotAGroup):
            fg.from_table(4, table)

    def test_identity_not_element_zero_rejected(self):
        # C3 written with its identity at index 2
        with pytest.raises(NotAGroup) as exc:
            fg.from_table(3, [[1, 2, 0], [2, 0, 1], [0, 1, 2]])
        assert exc.value.reason == "no-identity"

    def test_library_groups_have_identity_zero_and_row_inverses(self):
        c2, c4 = fg.cyclic(2), fg.cyclic(4)
        d8 = fg.dihedral(4)
        groups = [c4, fg.cyclic(9), fg.direct_product(c2, c4), d8,
                  fg.quaternion(8), fg.quaternion(12), fg.symmetric3(),
                  fg.quotient(d8, fg.center(d8))[0],
                  fg.make_subgroup(d8, [0, 1, 2, 3]).as_group()[0],
                  *p_group_catalog(2, 16), *p_group_catalog(3, 27)]
        for G in groups:
            assert G.table[0] == tuple(G.elements())
            assert all(row[0] == x for x, row in enumerate(G.table))
            assert G._inv == tuple(row.index(0) for row in G.table)

    def test_non_associative_rejected(self):
        # A Latin square with identity that is not associative
        table = [[0, 1, 2, 3, 4],
                 [1, 0, 3, 4, 2],
                 [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1],
                 [4, 3, 1, 2, 0]]
        with pytest.raises(NotAGroup) as exc:
            fg.from_table(5, table)
        assert exc.value.reason in ("non-associative", "no-inverse")


class TestSubgroups:
    def test_closure_examples(self):
        c4 = fg.cyclic(4)
        assert fg.subgroup_closure(c4, {2}).elements == (0, 2)
        assert fg.subgroup_closure(c4, set()).elements == (0,)
        assert fg.subgroup_closure(c4, {1}).elements == (0, 1, 2, 3)

    def test_closure_index_error(self):
        with pytest.raises(IndexOutOfRange):
            fg.subgroup_closure(fg.cyclic(4), {7})
        with pytest.raises(IndexOutOfRange):
            fg.make_subgroup(fg.cyclic(4), [0, 9])

    def test_normal_subgroups_c4(self):
        c4 = fg.cyclic(4)
        got = [s.elements for s in fg.enumerate_normal_subgroups(c4)]
        assert got == [(0,), (0, 2), (0, 1, 2, 3)]

    @pytest.mark.parametrize("factory", [
        fg.symmetric3,
        lambda: fg.quaternion(8),
        lambda: fg.dihedral(4),
        lambda: fg.cyclic(8),
        lambda: fg.direct_product(fg.cyclic(2), fg.cyclic(4)),
        lambda: fg.dihedral(8),
    ])
    def test_normal_subgroups_match_brute_force(self, factory):
        G = factory()
        got = [s.elements for s in fg.enumerate_normal_subgroups(G)]
        assert got == brute_force_normal_subgroups(G)

    def test_s3_has_three_normal_subgroups(self):
        got = fg.enumerate_normal_subgroups(fg.symmetric3())
        assert [len(s) for s in got] == [1, 3, 6]

    def test_q8_all_subgroups_normal(self):
        q8 = fg.quaternion(8)
        assert len(fg.enumerate_normal_subgroups(q8)) == 6
        assert len(fg.enumerate_subgroups(q8)) == 6

    def test_subgroup_enumeration_matches_brute_force(self):
        for G in (fg.symmetric3(), fg.dihedral(4)):
            got = [s.elements for s in fg.enumerate_subgroups(G)]
            assert got == brute_force_subgroups(G)


class TestQuotient:
    def test_c4_mod_2(self):
        c4 = fg.cyclic(4)
        N = fg.make_subgroup(c4, [0, 2])
        Q, proj = fg.quotient(c4, N)
        assert Q.order == 2
        assert proj.images == (0, 1, 0, 1)

    def test_mod_full_and_trivial(self):
        G = fg.symmetric3()
        Q, _ = fg.quotient(G, fg.full_subgroup(G))
        assert Q.order == 1
        Q2, proj2 = fg.quotient(G, fg.trivial_subgroup(G))
        assert Q2.order == G.order and proj2.is_injective()

    def test_not_normal(self):
        s3 = fg.symmetric3()
        H = next(S for S in fg.enumerate_subgroups(s3) if len(S) == 2)
        with pytest.raises(NotNormal):
            fg.quotient(s3, H)

    def test_numeric_names_round_trip(self):
        # Names that read as indices must stay the quotient's own indices,
        # or the serialized quotient no longer parses.
        d8 = fg.dihedral(4)
        G = fg.from_table(d8.order, d8.table, [str(i) for i in d8.elements()])
        Q, _ = fg.quotient(G, fg.make_subgroup(G, [0, 2]))
        assert Q.names == ("0", "1", "2", "3")
        assert fileio.parse_group(fileio.serialize_group(Q)) == Q

    def test_other_names_inherited(self):
        d8 = fg.dihedral(4)
        names = ["e", "1", "r2", "7", "s", "5", "t", "u"]
        G = fg.from_table(d8.order, d8.table, names)
        Q, _ = fg.quotient(G, fg.make_subgroup(G, [0, 2]))
        assert Q.names == ("e", "1", "s", "3")
        assert fileio.parse_group(fileio.serialize_group(Q)) == Q

    def test_order_equals_index_and_section(self):
        for G in (fg.cyclic(8), fg.quaternion(8), fg.dihedral(4)):
            for N in fg.enumerate_normal_subgroups(G):
                Q, proj = fg.quotient(G, N)
                assert Q.order == fg.index(G, N)
                # minimal-index section composed with projection is identity
                for q in Q.elements():
                    rep = min(g for g in G.elements() if proj(g) == q)
                    assert proj(rep) == q


class TestConjugacyClasses:
    def test_abelian_singletons(self):
        for G in (fg.cyclic(6), fg.direct_product(fg.cyclic(2), fg.cyclic(2))):
            assert all(len(c) == 1 for c in fg.conjugacy_classes(G))

    def test_s3_sizes(self):
        sizes = sorted(len(c) for c in fg.conjugacy_classes(fg.symmetric3()))
        assert sizes == [1, 2, 3]

    def test_q8_sizes(self):
        sizes = sorted(len(c) for c in fg.conjugacy_classes(fg.quaternion(8)))
        assert sizes == [1, 1, 2, 2, 2]

    def test_partition_properties(self):
        for G in (fg.symmetric3(), fg.dihedral(4), fg.quaternion(8)):
            classes = fg.conjugacy_classes(G)
            assert sum(len(c) for c in classes) == G.order
            assert all(G.order % len(c) == 0 for c in classes)
            assert classes[0] == (0,)
            for cls in classes:
                assert cls == tuple(sorted({G.conj(cls[0], z)
                                            for z in G.elements()}))


class TestHoms:
    def test_c4_to_c2(self):
        homs = fg.enumerate_homs(fg.cyclic(4), fg.cyclic(2))
        assert len(homs) == 2
        assert {h.images for h in homs} == {(0, 0, 0, 0), (0, 1, 0, 1)}

    def test_c2_to_c4(self):
        homs = fg.enumerate_homs(fg.cyclic(2), fg.cyclic(4))
        assert {h.images for h in homs} == {(0, 0), (0, 2)}

    def test_s3_to_c3_only_trivial(self):
        homs = fg.enumerate_homs(fg.symmetric3(), fg.cyclic(3))
        assert len(homs) == 1
        assert set(homs[0].images) == {0}

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 6), (6, 4), (3, 5), (8, 12)])
    def test_cyclic_hom_count_is_gcd(self, m, n):
        homs = fg.enumerate_homs(fg.cyclic(m), fg.cyclic(n))
        assert len(homs) == math.gcd(m, n)
        assert all(h.is_valid() for h in homs)

    def test_all_returned_maps_are_homs(self):
        for G, X in [(fg.quaternion(8), fg.cyclic(4)),
                     (fg.dihedral(4), fg.cyclic(2)),
                     (fg.symmetric3(), fg.symmetric3())]:
            for h in fg.enumerate_homs(G, X):
                assert h.is_valid()

    @pytest.mark.parametrize("G,X", [
        (fg.quaternion(8), fg.dihedral(4)),
        (fg.dihedral(4), fg.quaternion(8)),
        (fg.symmetric3(), fg.symmetric3()),
        (fg.dihedral(4), fg.direct_product(fg.cyclic(2), fg.cyclic(2))),
        (fg.dihedral(8), fg.quaternion(8)),
    ])
    def test_homs_match_brute_force(self, G, X):
        """Same homs in the same order: the witness search returns the
        first passing pair in this order."""
        homs = tuple(h.images for h in fg.enumerate_homs(G, X))
        assert homs == brute_force_homs(G, X)

    def test_plan_checks_only_non_tree_relations(self):
        for G in BENCHMARK_FACTORS.values():
            orders, steps, checks = fg._hom_plan(G)
            n, d = G.order, len(fg.generating_sequence(G))
            assert len(steps) == n - 1
            assert len(checks) == n * d - (n - 1)
            tree = {(prev, gi) for _, prev, gi in steps}
            assert not tree & {(a, gi) for a, gi, _ in checks}

    @pytest.mark.parametrize("name", sorted(BENCHMARK_FACTORS))
    def test_benchmark_pairs_match_brute_force(self, name):
        """Every factor of the benchmark corpus into every group of the
        catalogs it meets: the same homs in the same order."""
        G = BENCHMARK_FACTORS[name]
        for X in p_group_catalog(2, 16) + p_group_catalog(3, 27):
            homs = tuple(h.images for h in fg.enumerate_homs(G, X))
            assert homs == brute_force_homs(G, X), (name, X.order)

    @pytest.mark.parametrize("make", [
        make_amalg1, make_s3_amalgam, make_c9_amalgam, make_c2c3,
        make_d8_q8, make_d16_q16,
    ], ids=["c4_c2_c4", "s3_c3_c6", "c9_c3_c3xc3", "c2_c3", "d8_z_q8",
            "d16_z_q16"])
    def test_keyed_kernel_is_first_brute_force_hom_per_key(self, make):
        """Each factor of a benchmark amalgam into every group of both
        catalogs: ``keyed_homs`` yields, in order, the first brute-force
        hom of each key, for keys of the amalgamated subgroup plus one
        letter and for the key of every element.  Each key is read once
        from an emptied Hom table and once from the table that read filled,
        with the same output."""
        spec = make()
        for G, amalg in ((spec.H, spec.A), (spec.K, spec.B)):
            keys = [amalg.elements + (letter,)
                    for letter in {1, G.order - 1}]
            keys.append(tuple(G.elements()))
            for X in p_group_catalog(2, 16) + p_group_catalog(3, 27):
                for key in keys:
                    first = {}
                    for images in brute_force_homs(G, X):
                        first.setdefault(tuple(images[e] for e in key), images)
                    fg._homs.cache_clear()
                    cold = list(fg.keyed_homs(G, X, key))
                    warm = list(fg.keyed_homs(G, X, key))
                    assert cold == warm == list(first.items()), \
                        (G.order, X.order, key)

    @pytest.mark.parametrize("name", sorted(BENCHMARK_FACTORS))
    def test_hom_table_gives_equal_homs_cold_and_warm(self, name):
        """Every benchmark factor into every group of both catalogs:
        ``enumerate_homs`` from an emptied Hom table equals it from the
        table that call filled."""
        G = BENCHMARK_FACTORS[name]
        for X in p_group_catalog(2, 16) + p_group_catalog(3, 27):
            fg._homs.cache_clear()
            cold = fg.enumerate_homs(G, X)
            assert fg.enumerate_homs(G, X) == cold, (name, X.order)

    def test_hom_table_is_a_clearable_cache(self):
        assert callable(fg._homs.cache_clear)

    def test_is_valid_rejects_out_of_range_images(self):
        c2 = fg.cyclic(2)
        assert not fg.GroupHom(c2, c2, (0, 2)).is_valid()
        assert not fg.GroupHom(c2, c2, (0, -1)).is_valid()
        assert not fg.GroupHom(c2, c2, ()).is_valid()

    def test_deterministic_order(self):
        a = fg.enumerate_homs(fg.cyclic(4), fg.cyclic(4))
        b = fg.enumerate_homs(fg.cyclic(4), fg.cyclic(4))
        assert a == b


class TestPredicates:
    def test_is_p_group(self):
        assert fg.is_p_group(fg.cyclic(4), 2)
        assert not fg.is_p_group(fg.symmetric3(), 2)
        with pytest.raises(NotPrime):
            fg.is_p_group(fg.cyclic(4), 4)

    def test_index_and_p_power_index(self):
        c4 = fg.cyclic(4)
        H = fg.make_subgroup(c4, [0, 2])
        assert fg.index(c4, H) == 2
        assert fg.is_p_power_index(c4, H, 2)
        assert fg.is_p_power_index(c4, fg.full_subgroup(c4), 2)  # p^0
        assert not fg.is_p_power_index(fg.cyclic(6), fg.make_subgroup(fg.cyclic(6), [0, 3]), 2)
