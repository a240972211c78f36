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
    NotSubgroup,
)
from amalgams import amalgam as am
from amalgams import separability as sep
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


# Every catalog group (p = 2 up to order 16, p = 3 up to order 27) and four
# non-catalog groups, for the table kernels against the plain loops below.
KERNEL_GROUPS = [*p_group_catalog(2, 16), *p_group_catalog(3, 27),
                 fg.symmetric3(), fg.cyclic(6), fg.dihedral(8), fg.quaternion(16)]


# The order-16 catalog groups, five abelian then D16 and Q16, and D8 x C2.
ORDER16_GROUPS = [*(G for G in p_group_catalog(2, 16) if G.order == 16),
                  fg.direct_product(fg.dihedral(4), fg.cyclic(2))]
ORDER16_NAMES = ["C16", "C8xC2", "C4xC4", "C4xC2xC2", "C2^4", "D16", "Q16",
                 "D8xC2"]


def ref_closure(G, gens):
    """Closure of {0} under products by the generators and their inverses,
    one ``mul`` at a time."""
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (G.mul(x, g), G.mul(x, G.inv(g))):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return tuple(sorted(seen))


def ref_class(G, x):
    return {G.conj(x, z) for z in G.elements()}


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
        assert exc.value.reason == "non-associative"
        assert str(exc.value) == "non-associative: (1*1)*2"

    def test_non_associative_reports_first_triple(self):
        """S3 with one intercalate swapped off row and column 0: a Latin
        square with identity 0, first non-associative at a = 2.  The
        reported triple is the first of a plain triple loop."""
        table = [[0, 1, 2, 3, 4, 5],
                 [1, 0, 4, 5, 2, 3],
                 [2, 3, 0, 1, 5, 4],
                 [3, 2, 5, 4, 1, 0],
                 [4, 5, 1, 0, 3, 2],
                 [5, 4, 3, 2, 0, 1]]
        n = len(table)
        first = next((a, b, c) for a in range(n) for b in range(n)
                     for c in range(n)
                     if table[table[a][b]][c] != table[a][table[b][c]])
        assert first == (2, 1, 4)
        with pytest.raises(NotAGroup) as exc:
            fg.from_table(n, table)
        assert exc.value.reason == "non-associative"
        assert str(exc.value) == "non-associative: ({}*{})*{}".format(*first)

    @pytest.mark.parametrize("table,message", [
        # row 1 repeats an entry and holds one out of range
        ([[0, 1, 2], [1, 1, 5], [2, 0, 1]],
         "not-a-latin-square: entry out of range"),
        # row 1 repeats an entry, and so do columns 1 and 2
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]],
         "not-a-latin-square: row is not a permutation"),
        # every row is a permutation, column 1 is not, row 0 is no identity
        ([[1, 0, 2], [0, 1, 2], [2, 0, 1]],
         "not-a-latin-square: column is not a permutation"),
        # x*y = -x-y mod 3: a Latin square, neither identity nor associative
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]],
         "no-identity: the identity must be element 0"),
    ], ids=["range-before-row", "row-before-column", "column-before-identity",
            "identity-before-associativity"])
    def test_check_order(self, table, message):
        with pytest.raises(NotAGroup) as exc:
            fg.from_table(len(table), table)
        assert str(exc.value) == message

    @pytest.mark.parametrize("table", [
        [[0, 1.5], [1.5, 0]],
        [["0", "1"], ["1", "0"]],
    ], ids=["float", "string"])
    def test_entries_checked_before_int_coercion(self, table):
        """``int`` would turn these into C2's table; an entry that equals
        no index is out of range."""
        with pytest.raises(NotAGroup) as exc:
            fg.from_table(2, table)
        assert str(exc.value) == "not-a-latin-square: entry out of range"


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

    @pytest.mark.parametrize("bad", [1.5, "1"])
    def test_non_index_elements_out_of_range(self, bad):
        c4 = fg.cyclic(4)
        with pytest.raises(IndexOutOfRange):
            fg.make_subgroup(c4, [0, bad])
        with pytest.raises(IndexOutOfRange):
            fg.subgroup_closure(c4, [bad])

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

    @pytest.mark.parametrize("G", ORDER16_GROUPS, ids=ORDER16_NAMES)
    def test_subgroups_of_order_16_are_closures_of_four_elements(self, G):
        """A group of order 2^4 needs at most 4 generators, so its
        subgroups are the closures of its subsets of at most 4 elements."""
        rest = [e for e in G.elements() if e != 0]
        closures = {ref_closure(G, gens) for r in range(5)
                    for gens in itertools.combinations(rest, r)}
        assert [s.elements for s in fg.enumerate_subgroups(G)] == \
            sorted(closures, key=lambda t: (len(t), t))

    @pytest.mark.parametrize("G", ORDER16_GROUPS[5:], ids=ORDER16_NAMES[5:])
    def test_normal_subgroups_are_the_closed_class_unions(self, G):
        """A normal subgroup is a union of conjugacy classes closed under
        products; brute force over the unions that contain {0}, for the
        non-abelian groups only (C2^4 alone has 2^15 unions)."""
        classes = {frozenset(ref_class(G, x)) for x in G.elements()} - {
            frozenset({0})}
        unions = []
        for r in range(len(classes) + 1):
            for combo in itertools.combinations(classes, r):
                s = {0}.union(*combo)
                if all(G.mul(a, b) in s for a in s for b in s):
                    unions.append(tuple(sorted(s)))
        assert [s.elements for s in fg.enumerate_normal_subgroups(G)] == \
            sorted(unions, key=lambda t: (len(t), t))

    def test_normal_subgroup_lattice_is_uncached(self):
        G = fg.dihedral(8)
        first, second = (fg.enumerate_normal_subgroups(G),
                         fg.enumerate_normal_subgroups(G))
        assert first == second and first is not second


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


class TestKernelAgainstBruteForce:
    """The table kernels against plain loops of ``mul``, ``inv`` and
    ``conj`` on every group of ``KERNEL_GROUPS``."""

    def test_subgroup_closure_of_every_pair(self):
        for G in KERNEL_GROUPS:
            for a in G.elements():
                for b in range(a, G.order):
                    assert fg.subgroup_closure(G, [a, b]).elements == \
                        ref_closure(G, [a, b]), (G.order, a, b)

    def test_normal_closure_and_is_normal(self):
        for G in KERNEL_GROUPS:
            for x in G.elements():
                assert fg.normal_closure(G, [x]).elements == \
                    ref_closure(G, ref_class(G, x)), (G.order, x)
            for S in fg.enumerate_subgroups(G):
                members = S.element_set()
                assert fg.is_normal(G, S) == all(
                    ref_class(G, h) <= members for h in S.elements), \
                    (G.order, S.elements)

    def test_center_classes_and_orders(self):
        for G in KERNEL_GROUPS:
            assert fg.center(G).elements == tuple(
                a for a in G.elements()
                if all(G.mul(a, b) == G.mul(b, a) for b in G.elements()))
            index, least = fg.class_index(G), {}
            for x in G.elements():
                rep = min(ref_class(G, x))
                least.setdefault(rep, len(least))
                assert index[x] == least[rep], (G.order, x)
            for x in G.elements():
                order, power = 1, x
                while power != 0:
                    power = G.mul(power, x)
                    order += 1
                assert G.element_order(x) == order, (G.order, x)

    def test_quotient_by_every_normal_subgroup(self):
        for G in KERNEL_GROUPS:
            for N in fg.enumerate_normal_subgroups(G):
                cosets = {g: min(G.mul(g, n) for n in N.elements)
                          for g in G.elements()}
                reps = sorted(set(cosets.values()))
                label = {g: reps.index(cosets[g]) for g in G.elements()}
                Q, proj = fg.quotient(G, N)
                assert Q.table == tuple(tuple(label[G.mul(a, b)] for b in reps)
                                        for a in reps), (G.order, N.elements)
                assert proj.images == tuple(label[g] for g in G.elements())

    def test_direct_products(self):
        small = [fg.cyclic(2), fg.cyclic(3), fg.cyclic(4), fg.symmetric3(),
                 fg.dihedral(4), fg.quaternion(8)]
        for G1 in small:
            for G2 in small:
                P, n2 = fg.direct_product(G1, G2), G2.order
                assert P.table == tuple(
                    tuple(G1.mul(a1, b1) * n2 + G2.mul(a2, b2)
                          for b1 in G1.elements() for b2 in G2.elements())
                    for a1 in G1.elements() for a2 in G2.elements())

    def test_generating_sequence_is_greedy(self):
        for G in KERNEL_GROUPS:
            gens = []
            while len(closed := ref_closure(G, gens)) < G.order:
                gens.append(min(set(G.elements()) - set(closed)))
            assert fg.generating_sequence(G) == tuple(gens), G.order

    def test_make_subgroup_reports_the_first_failure(self):
        """A subgroup plus one element outside it: ``make_subgroup``
        accepts it when it is closed, else rejects it at the first failure
        of a plain loop, per element its inverse before its products."""
        for G in (fg.symmetric3(), fg.dihedral(8), fg.quaternion(16)):
            for S in fg.enumerate_subgroups(G):
                for extra in sorted(set(G.elements()) - S.element_set()):
                    elts = sorted(S.elements + (extra,))
                    members = set(elts)
                    expected = next(
                        (f"not closed under inverse at {a}"
                         if G.inv(a) not in members else
                         f"not closed under product at ({a},{b})"
                         for a in elts for b in elts
                         if G.inv(a) not in members
                         or G.mul(a, b) not in members), None)
                    if expected is None:
                        assert fg.make_subgroup(G, elts).elements == tuple(elts)
                        continue
                    with pytest.raises(NotSubgroup) as exc:
                        fg.make_subgroup(G, elts)
                    assert str(exc.value) == expected


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
        """Every class is the sorted orbit of its least element, and the
        classes come in order of their least elements."""
        for G in KERNEL_GROUPS:
            classes = fg.conjugacy_classes(G)
            assert sum(len(c) for c in classes) == G.order
            assert all(G.order % len(c) == 0 for c in classes)
            assert classes[0] == (0,)
            for cls in classes:
                assert cls == tuple(sorted({G.conj(cls[0], z)
                                            for z in G.elements()}))
            least = [cls[0] for cls in classes]
            assert least == sorted(least), G.order


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
        (fg.cyclic(1), fg.dihedral(4)),
        (fg.quaternion(8), fg.cyclic(1)),
    ])
    def test_homs_match_brute_force(self, G, X):
        """Same homs in the same order: the witness search returns the
        first passing pair in this order.  ``hom_images`` gives them
        column-major, one column per element of G, down to a trivial
        source or target, where the one hom is trivial."""
        homs = tuple(h.images for h in fg.enumerate_homs(G, X))
        assert homs == brute_force_homs(G, X)
        table = fg.hom_images(G, X)
        assert table == tuple(zip(*homs))
        if 1 in (G.order, X.order):
            assert table == ((0,),) * G.order

    @pytest.mark.parametrize("name", sorted(BENCHMARK_FACTORS))
    def test_benchmark_pairs_match_brute_force(self, name):
        """Every factor of the benchmark corpus into every group of the
        catalogs it meets: the same homs in the same order, and
        ``hom_images`` holds them column-major: |G| columns of equal
        length, the identity's column all zeros."""
        G = BENCHMARK_FACTORS[name]
        for X in p_group_catalog(2, 16) + p_group_catalog(3, 27):
            homs = tuple(h.images for h in fg.enumerate_homs(G, X))
            assert homs == brute_force_homs(G, X), (name, X.order)
            table = fg.hom_images(G, X)
            assert table == tuple(zip(*brute_force_homs(G, X))), \
                (name, X.order)
            assert len(table) == G.order, (name, X.order)
            assert {len(column) for column in table} == {len(homs)}
            assert set(table[0]) == {0}, (name, X.order)

    @pytest.mark.parametrize("make", [
        make_amalg1, make_s3_amalgam, make_c9_amalgam, make_c2c3,
        make_d8_q8, make_d16_q16,
    ], ids=["c4_c2_c4", "s3_c3_c6", "c9_c3_c3xc3", "c2_c3", "d8_z_q8",
            "d16_z_q16"])
    def test_keyed_kernel_is_first_brute_force_hom_per_key(self, make):
        """Each factor of a benchmark amalgam into every group of both
        catalogs, keyed as the witness search keys it (images on the
        amalgamated subgroup in ``phi`` order, then on one letter), and
        keyed by every element: the first hom of each key in the Hom
        tables of X's record on the spec (``separability._target``),
        transposed back from its columns to one row per hom, is the first
        brute-force hom of that key, in the same order.  A fresh spec
        builds each record, and reading it again gives the same object."""
        spec = make()
        for X in p_group_catalog(2, 16) + p_group_catalog(3, 27):
            record = sep._target(spec, X)
            assert sep._target(spec, X) is record, X.order
            for tag, amalg, columns in (
                    ("H", [a for a, _ in spec.phi], record[1]),
                    ("K", [b for _, b in spec.phi], record[2])):
                G = spec.factor(tag)
                assert len(columns) == G.order, (tag, X.order)
                homs = list(zip(*columns))
                keys = [tuple(amalg) + (letter,)
                        for letter in {1, G.order - 1}]
                keys.append(tuple(G.elements()))
                for key in keys:
                    first = {}
                    for images in brute_force_homs(G, X):
                        first.setdefault(tuple(images[e] for e in key), images)
                    keyed = {}
                    for images in homs:
                        keyed.setdefault(tuple(images[e] for e in key), images)
                    assert list(keyed.items()) == list(first.items()), \
                        (tag, G.order, X.order, key)

    @pytest.mark.parametrize("name", sorted(BENCHMARK_FACTORS))
    def test_hom_table_gives_equal_homs_cold_and_warm(self, name):
        """Every benchmark factor into every group of both catalogs: the
        enumerator keeps no table of its own, so a second ``hom_images``
        call enumerates again and gives equal homs, and ``enumerate_homs``
        wraps the same images, the rows of the column-major table, in the
        same order."""
        G = BENCHMARK_FACTORS[name]
        for X in p_group_catalog(2, 16) + p_group_catalog(3, 27):
            cold = fg.hom_images(G, X)
            warm = fg.hom_images(G, X)
            assert warm == cold and warm is not cold, (name, X.order)
            homs = fg.enumerate_homs(G, X)
            assert tuple(h.images for h in homs) == tuple(zip(*cold)), \
                (name, X.order)

    def test_hom_table_is_a_clearable_cache(self):
        """The Hom tables of a search live on its spec, in the target
        records: a fresh spec has none, and once its ``targets`` are
        cleared the next search fills them again with equal records and
        finds the same witness."""
        spec = make_d16_q16()
        assert spec.targets == {}
        f, g = am.EMPTY, am.word([("H", 2)])
        budget = sep.SearchBudget(p=2, max_target_order=16,
                                  max_quotient_index=16,
                                  max_conjugator_length=4)
        w = sep.search_witness(spec, f, g, budget)
        records = dict(spec.targets)
        assert records
        spec.targets.clear()
        assert spec.targets == {}
        again = sep.search_witness(spec, f, g, budget)
        assert spec.targets == records
        assert all(spec.targets[X] is not r for X, r in records.items())
        assert (again.target, again.psi_H, again.psi_K) == \
            (w.target, w.psi_H, w.psi_K)

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
