"""Exact finite-group engine over multiplication tables.

Groups are order-n multiplication tables on element indices 0..n-1 with
identity 0.  Everything is immutable and pure, and the module keeps no
state: a caller that reuses a result keeps it.  Enumeration results are
returned in a deterministic order.

The kernels work one table row per step: a row of ``FiniteGroup.table``
is a tuple, so reading it at a run of indices (``operator.itemgetter``,
or ``map(row.__getitem__, xs)``) is one C-level call where a loop of
``mul`` calls would be one Python step per product.  Each law is still
checked on every product: ``from_table`` compares whole rows and then
finds the first failing product in them, ``make_subgroup`` tests each
row of products against the element set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import getitem, itemgetter
from typing import Collection, Iterable, Optional, Sequence

from .errors import (
    IndexOutOfRange,
    NotAGroup,
    NotNormal,
    NotPrime,
    NotSubgroup,
)


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple[tuple[int, ...], ...]
    names: Optional[tuple[str, ...]] = None
    _inv: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, z: int) -> int:
        """z^-1 * g * z."""
        return self.mul(self.mul(self.inv(z), g), z)

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        row, n, x = self.table[a], 1, a
        while x != 0:
            x = row[x]
            n += 1
        return n

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def index_of_name(self, token: str) -> int:
        if self.names and token in self.names:
            return self.names.index(token)
        try:
            idx = int(token)
        except ValueError:
            raise IndexOutOfRange(f"unknown element {token!r}")
        if not 0 <= idx < self.order:
            raise IndexOutOfRange(f"element {idx} out of range 0..{self.order - 1}")
        return idx


def from_table(order: int, table: Sequence[Sequence[int]],
               names: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Validate a multiplication table and build a group.

    The identity must be element 0: row 0 and column 0 read 0..n-1.  Raises
    NotAGroup with a reason on any axiom failure, IndexOutOfRange for a
    wrong number of ``names``.  An associative Latin square with identity 0
    is a group, so each inverse is read off its row as the column holding 0.

    The checks run in this order, each row or column in index order: an
    entry out of range (equal to no index 0..n-1; ``int`` reads entries
    only after this), then a repeated entry in the same row; a repeated
    entry in a column; row or column 0 not the identity; a product
    (a*b)*c != a*(b*c), reported at the first (a, b, c) in lexicographic
    order.  Associativity compares row a*b with row a read through row b,
    (a*b)*c = a*(b*c) for every c at once.
    """
    if order <= 0 or len(table) != order or any(len(row) != order for row in table):
        raise NotAGroup("not-a-latin-square", "table is not order x order")
    if names is not None and len(names) != order:
        raise IndexOutOfRange(f"{len(names)} names for order {order}")
    full = set(range(order))
    rows = []
    for row in table:
        entries = set(row)
        if entries != full:
            raise NotAGroup("not-a-latin-square",
                            "row is not a permutation" if entries <= full
                            else "entry out of range")
        rows.append(tuple(map(int, row)))
    columns = list(zip(*rows))
    if any(set(column) != full for column in columns):
        raise NotAGroup("not-a-latin-square", "column is not a permutation")
    if rows[0] != columns[0] or rows[0] != tuple(range(order)):
        raise NotAGroup("no-identity", "the identity must be element 0")
    # itemgetter of a single index returns an entry, not a row; the only
    # order-1 table left is the trivial group.
    readers = [itemgetter(*row) for row in rows] if order > 1 else []
    for a, row in enumerate(rows):
        for b, (ab, read_b) in enumerate(zip(row, readers)):
            if read_b(row) != rows[ab]:
                c = next(c for c, (x, y) in enumerate(zip(rows[ab], read_b(row)))
                         if x != y)
                raise NotAGroup("non-associative", f"({a}*{b})*{c}")
    return FiniteGroup(order, tuple(rows),
                       tuple(names) if names is not None else None,
                       tuple(row.index(0) for row in rows))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` as its sorted element tuple.

    The element set is built once, on first use, and shared by
    ``__contains__`` and ``element_set``; it is not a field, so equality
    and hashing see only ``parent`` and ``elements``.
    """
    parent: FiniteGroup
    elements: tuple[int, ...]  # sorted, contains 0

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset[int]:
        return self._members

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The subgroup as a standalone group plus the local->parent embedding."""
        emb = self.elements
        local = {p: i for i, p in enumerate(emb)}
        table = tuple(tuple(map(local.__getitem__,
                                map(self.parent.table[a].__getitem__, emb)))
                      for a in emb)
        names = tuple(self.parent.name_of(p) for p in emb) if self.parent.names else None
        return from_table(len(emb), table, names), emb


def make_subgroup(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Wrap an element set as a Subgroup, verifying closure: per element a
    in order, its inverse, then its row of products a*b.  An element must
    equal an index 0..n-1 before ``int`` reads it."""
    s = set(elements)
    if 0 not in s:
        raise NotSubgroup("missing identity")
    if not s.issubset(range(G.order)):
        raise IndexOutOfRange(f"element out of range 0..{G.order - 1}")
    elts = sorted(map(int, s))
    for a in elts:
        if G.inv(a) not in s:
            raise NotSubgroup(f"not closed under inverse at {a}")
        row = G.table[a]
        if not s.issuperset(map(row.__getitem__, elts)):
            b = next(b for b in elts if row[b] not in s)
            raise NotSubgroup(f"not closed under product at ({a},{b})")
    return Subgroup(G, tuple(elts))


def subgroup_closure(G: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators ({0} for an empty set):
    the closure of {0} under right products by the generators.  In a
    finite group that is already a subgroup, since each g^-1 is a power of
    g.  A generator must equal an index 0..n-1 before ``int`` reads it."""
    gens = list(generators)
    for g in gens:
        if g not in range(G.order):
            raise IndexOutOfRange(f"generator {g} out of range")
    gens = set(map(int, gens))
    return Subgroup(G, tuple(sorted(_grow(G.table, {0}, gens, [0]))))


def _grow(table: tuple[tuple[int, ...], ...], seen: set[int],
          gens: Collection[int], frontier: Iterable[int]) -> set[int]:
    """Add to ``seen`` every product x*g1*...*gk with x in ``frontier`` and
    each gi in ``gens``; returns ``seen``.  Each step reads one row at all
    of ``gens`` and at 0: x*0 = x is in ``seen`` already, and the extra
    index keeps ``itemgetter``'s result a tuple for a single generator."""
    if not gens:
        return seen
    read = itemgetter(0, *gens)
    while frontier:
        new = set()
        for x in frontier:
            new.update(read(table[x]))
        new -= seen
        seen |= new
        frontier = new
    return seen


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (0,))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def center(G: FiniteGroup) -> Subgroup:
    """The elements whose row equals their column."""
    z = [a for a, (row, column) in enumerate(zip(G.table, zip(*G.table)))
         if row == column]
    return Subgroup(G, tuple(z))


def conjugates(G: FiniteGroup, x: int) -> set[int]:
    """The conjugacy class of x: z^-1 * x * z for every z, read as row
    z^-1 at entry z of x's row."""
    return set(map(getitem, map(G.table.__getitem__, G._inv), G.table[x]))


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    return subgroup_closure(G, set().union(*(conjugates(G, x) for x in seed)))


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    s = H.element_set()
    return all(s.issuperset(conjugates(G, h)) for h in H.elements)


def enumerate_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups, sorted by size then lexicographically: the joins of
    cyclic subgroups.  Fine for desk-scale orders."""
    return _joins(G, [subgroup_closure(G, [g]) for g in G.elements()])


def enumerate_normal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups, sorted by size then lexicographically; uncached.

    Generated as joins of the normal closures of single elements, one per
    conjugacy class (the subgroup the class generates), which reach every
    normal subgroup without enumerating the full subgroup lattice.
    """
    return _joins(G, [subgroup_closure(G, c) for c in conjugacy_classes(G)])


def _joins(G: FiniteGroup, pieces: Iterable[Subgroup]) -> tuple[Subgroup, ...]:
    """Every join of some of the pieces (the trivial subgroup for none),
    sorted by size then lexicographically.  Pieces with equal elements are
    walked once."""
    pieces = list({C.elements: C for C in pieces}.values())
    found = {(0,): trivial_subgroup(G)}
    frontier = [trivial_subgroup(G)]
    while frontier:
        N = frontier.pop()
        for C in pieces:
            if C.element_set() <= N.element_set():
                continue
            join = Subgroup(G, tuple(sorted(_grow(
                G.table, {0}, N.element_set() | C.element_set(), [0]))))
            if join.elements not in found:
                found[join.elements] = join
                frontier.append(join)
    return tuple(sorted(found.values(), key=lambda s: (len(s), s.elements)))


@dataclass(frozen=True, slots=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_valid(self) -> bool:
        m = self.images
        if (len(m) != self.source.order or m[0] != 0
                or any(not 0 <= x < self.target.order for x in m)):
            return False
        return all(m[self.source.mul(a, b)] == self.target.mul(m[a], m[b])
                   for a in self.source.elements() for b in self.source.elements())

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.order


def coset_labels(G: FiniteGroup, S: Collection[int]) -> tuple[int, ...]:
    """Per element e of G, the least element of e*S, S a subgroup's elements."""
    labels = [-1] * G.order
    for e in G.elements():
        if labels[e] < 0:  # e is the least element of its coset e*S
            for x in map(G.table[e].__getitem__, S):
                labels[x] = e
    return tuple(labels)


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient on least coset representatives (``coset_labels``), numbered
    in increasing order, plus the projection."""
    if not is_normal(G, N):
        raise NotNormal(f"{N.elements} is not normal")
    least = coset_labels(G, N.elements)
    reps = sorted(set(least))
    label = tuple(map({r: i for i, r in enumerate(reps)}.__getitem__, least))
    table = tuple(tuple(map(label.__getitem__, map(G.table[a].__getitem__, reps)))
                  for a in reps)
    names = (tuple(_quotient_name(G.name_of(r), i) for i, r in enumerate(reps))
             if G.names else None)
    Q = from_table(len(reps), table, names)
    return Q, GroupHom(G, Q, label)


def _quotient_name(name: str, index: int) -> str:
    """A coset's name is its representative's, unless that reads as an
    index other than the coset's own: then it is the coset's index."""
    return str(index) if names_other_index(name, index) else name


def names_other_index(name: str, index: int) -> bool:
    """Whether an element name reads as an index other than the element's
    own.  Words are parsed by name before index and rendered by index, so
    such a name would make one token mean two elements."""
    try:
        return int(name) != index
    except ValueError:
        return False


def class_index(G: FiniteGroup) -> tuple[int, ...]:
    """Per element of G, the number of its conjugacy class, the classes
    numbered by their least element: the class of 0 is 0.  Two elements
    are conjugate exactly when their numbers are equal."""
    index = [-1] * G.order
    n = 0
    for g in G.elements():
        if index[g] < 0:  # g is the least element of a new class
            for x in conjugates(G, g):
                index[x] = n
            n += 1
    return tuple(index)


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes sorted by minimal element; the class of 0 is first.
    Read off ``class_index`` in one pass, each class in index order."""
    classes: dict[int, list[int]] = {}
    for e, i in enumerate(class_index(G)):
        classes.setdefault(i, []).append(e)
    return tuple(map(tuple, classes.values()))


def are_conjugate_in(G: FiniteGroup, a: int, b: int) -> Optional[int]:
    """A conjugating element z with z^-1 a z = b, or None."""
    for z in G.elements():
        if G.conj(a, z) == b:
            return z
    return None


def generating_sequence(G: FiniteGroup) -> tuple[int, ...]:
    """Greedy minimal generating sequence: repeatedly add the smallest
    element outside the closure so far.  The closure grows in place, each
    new generator applied with the earlier ones to all of it; every element
    below the last generator is already inside."""
    gens: list[int] = []
    closed = {0}
    g = 0
    while len(closed) < G.order:
        g = next(x for x in range(g + 1, G.order) if x not in closed)
        gens.append(g)
        _grow(G.table, closed, gens, list(closed))
    return tuple(gens)


def hom_images(G: FiniteGroup, X: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The table of Hom(G, X), column-major: per element of G, its images
    under every hom (hom i is ``tuple(column[i] for column in table)``;
    the trivial hom is always there), homs in lexicographic order of the
    images of G's greedy generating sequence.  Uncached.

    Tries the images of the generating sequence whose orders divide the
    generators' orders, as one ``itertools.product`` over the
    per-generator candidates, so candidates come in lexicographic order.
    Each is extended along a breadth-first spanning tree of G from the
    identity by rows of ``X.table`` and kept when it passes every relation
    img(a*s) = img(a)*img(s) that the tree does not already imply.  Those
    checks are the edges the tree leaves out, met on the same walk: n*d -
    (n - 1) of them for n elements and d generators, which give the full
    homomorphism law since the generators span G.  A kept candidate's
    images go onto one flat list, sliced into the columns at the end.
    """
    gens = generating_sequence(G)
    steps = []  # (e, prev, gi) with e = prev * gens[gi], each prev first
    checks = []  # (a, gi, a * gens[gi]) for every edge off the tree
    seen = {0}
    frontier = [0]
    for x in frontier:  # grows while iterated: breadth-first order
        for gi, g in enumerate(gens):
            y = G.table[x][g]
            if y in seen:
                checks.append((x, gi, y))
            else:
                seen.add(y)
                frontier.append(y)
                steps.append((y, x, gi))
    x_orders = [X.element_order(x) for x in X.elements()]
    candidates = [[x for x in X.elements()
                   if G.element_order(g) % x_orders[x] == 0] for g in gens]
    table = X.table
    n = G.order
    images = [0] * n
    flat = []  # hom i's images at flat[i*n:(i+1)*n]
    for chosen in itertools.product(*candidates):
        for e, prev, gi in steps:
            images[e] = table[images[prev]][chosen[gi]]
        for a, gi, b in checks:
            if images[b] != table[images[a]][chosen[gi]]:
                break
        else:
            flat.extend(images)
    return tuple(tuple(flat[e::n]) for e in range(n))


def enumerate_homs(G: FiniteGroup, X: FiniteGroup) -> tuple[GroupHom, ...]:
    """All homomorphisms G -> X, in ``hom_images`` order: the one place
    that reads the table as rows, each wrapped in a ``GroupHom``."""
    return tuple(GroupHom(G, X, images) for images in zip(*hom_images(G, X)))


def check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise NotPrime(str(p))


def p_exponent(n: int, p: int) -> Optional[int]:
    """k with n = p**k, or None when n is not a power of the prime p."""
    check_prime(p)
    if n < 1:
        return None
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else None


def is_p_group(G: FiniteGroup, p: int) -> bool:
    return p_exponent(G.order, p) is not None


def index(G: FiniteGroup, H: Subgroup) -> int:
    return G.order // len(H)


def is_p_power_index(G: FiniteGroup, H: Subgroup, p: int) -> bool:
    return p_exponent(index(G, H), p) is not None


# Standard constructions used throughout the test corpus and the witness
# catalog.

def cyclic(n: int) -> FiniteGroup:
    return from_table(n, [[(i + j) % n for j in range(n)] for i in range(n)])


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """G1 x G2 on indices a1 * |G2| + a2.  Row (a1, a2) joins, for each
    entry c of a1's row, the block c * |G2| + (a2's row)."""
    n1, n2 = G1.order, G2.order
    blocks = [[tuple(c * n2 + x for x in row2) for c in range(n1)]
              for row2 in G2.table]
    table = [tuple(itertools.chain.from_iterable(map(blocks[a2].__getitem__, row1)))
             for row1 in G1.table for a2 in range(n2)]
    return from_table(n1 * n2, table)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: r^i s^j with index j*n + i."""
    def mul(i1, j1, i2, j2):
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        return ((j1 + j2) % 2) * n + i
    table = [[mul(a % n, a // n, b % n, b // n) for b in range(2 * n)]
             for a in range(2 * n)]
    return from_table(2 * n, table)


def quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion group Q_{4m}: a^i b^j with index j*2m + i."""
    if order % 4 != 0 or order < 8:
        raise IndexOutOfRange("generalized quaternion groups have order 4m >= 8")
    m = order // 4
    n = 2 * m

    def mul(i1, j1, i2, j2):
        i = (i1 + (i2 if j1 == 0 else -i2) + (m if j1 and j2 else 0)) % n
        return ((j1 + j2) % 2) * n + i
    table = [[mul(a % n, a // n, b % n, b // n) for b in range(order)]
             for a in range(order)]
    return from_table(order, table)


def symmetric3() -> FiniteGroup:
    """S3 on indices 0..5 via composition of permutations of {0,1,2}."""
    perms = sorted(itertools.permutations(range(3)))
    perms.sort(key=lambda p: p != (0, 1, 2))  # identity first
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    return from_table(6, table)
