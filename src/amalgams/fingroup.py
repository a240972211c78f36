"""Exact finite-group engine over multiplication tables.

Groups are order-n multiplication tables on element indices 0..n-1 with
identity 0.  Everything is immutable and pure; enumeration results are
returned in a deterministic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence

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
        n, x = 1, a
        while x != 0:
            x = self.mul(x, a)
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
    """
    if order <= 0 or len(table) != order or any(len(row) != order for row in table):
        raise NotAGroup("not-a-latin-square", "table is not order x order")
    if names is not None and len(names) != order:
        raise IndexOutOfRange(f"{len(names)} names for order {order}")
    rows = [tuple(int(x) for x in row) for row in table]
    rng = range(order)
    full = set(rng)
    for row in rows:
        if any(not 0 <= x < order for x in row):
            raise NotAGroup("not-a-latin-square", "entry out of range")
        if set(row) != full:
            raise NotAGroup("not-a-latin-square", "row is not a permutation")
    for j in rng:
        if {rows[i][j] for i in rng} != full:
            raise NotAGroup("not-a-latin-square", "column is not a permutation")
    if any(rows[0][x] != x or rows[x][0] != x for x in rng):
        raise NotAGroup("no-identity", "the identity must be element 0")
    for a in rng:
        for b in rng:
            ab = rows[a][b]
            for c in rng:
                if rows[ab][c] != rows[a][rows[b][c]]:
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
        table = tuple(tuple(local[self.parent.mul(a, b)] for b in emb) for a in emb)
        names = tuple(self.parent.name_of(p) for p in emb) if self.parent.names else None
        return from_table(len(emb), table, names), emb


def make_subgroup(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Wrap an element set as a Subgroup, verifying closure."""
    elts = sorted(set(elements))
    s = set(elts)
    if 0 not in s:
        raise NotSubgroup("missing identity")
    if elts[0] < 0 or elts[-1] >= G.order:
        raise IndexOutOfRange(f"element out of range 0..{G.order - 1}")
    for a in elts:
        if G.inv(a) not in s:
            raise NotSubgroup(f"not closed under inverse at {a}")
        for b in elts:
            if G.mul(a, b) not in s:
                raise NotSubgroup(f"not closed under product at ({a},{b})")
    return Subgroup(G, tuple(elts))


def subgroup_closure(G: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators ({0} for an empty set)."""
    gens = list(generators)
    for g in gens:
        if not 0 <= g < G.order:
            raise IndexOutOfRange(f"generator {g} out of range")
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (G.mul(x, g), G.mul(x, G.inv(g))):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return Subgroup(G, tuple(sorted(seen)))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (0,))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def center(G: FiniteGroup) -> Subgroup:
    z = [a for a in G.elements()
         if all(G.mul(a, b) == G.mul(b, a) for b in G.elements())]
    return Subgroup(G, tuple(z))


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    gens = set()
    for x in seed:
        for z in G.elements():
            gens.add(G.conj(x, z))
    return subgroup_closure(G, gens)


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    s = H.element_set()
    return all(G.conj(h, z) in s for h in H.elements for z in G.elements())


def enumerate_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups, sorted by size then lexicographically: the joins of
    cyclic subgroups.  Fine for desk-scale orders."""
    return _joins(G, [subgroup_closure(G, [g]) for g in G.elements()])


@lru_cache(maxsize=None)
def enumerate_normal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups, sorted by size then lexicographically.

    Generated as joins of normal closures of single elements, which reach
    every normal subgroup without enumerating the full subgroup lattice.
    """
    return _joins(G, [normal_closure(G, [g]) for g in G.elements()])


def _joins(G: FiniteGroup, pieces: Sequence[Subgroup]) -> tuple[Subgroup, ...]:
    """Every join of some of the pieces (the trivial subgroup for none),
    sorted by size then lexicographically."""
    found = {(0,): trivial_subgroup(G)}
    frontier = [trivial_subgroup(G)]
    while frontier:
        N = frontier.pop()
        for C in pieces:
            if C.element_set() <= N.element_set():
                continue
            join = subgroup_closure(G, set(N.elements) | set(C.elements))
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

def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient on minimal-index coset representatives plus the projection."""
    if not is_normal(G, N):
        raise NotNormal(f"{N.elements} is not normal")
    coset_of = {}
    reps = []
    for g in G.elements():
        if g in coset_of:
            continue
        coset = sorted(G.mul(g, n) for n in N.elements)
        rep = coset[0]
        reps.append(rep)
        for x in coset:
            coset_of[x] = rep
    reps.sort()  # identity coset has rep 0, hence first
    label = {rep: i for i, rep in enumerate(reps)}
    table = tuple(tuple(label[coset_of[G.mul(a, b)]] for b in reps) for a in reps)
    names = (tuple(_quotient_name(G.name_of(r), i) for i, r in enumerate(reps))
             if G.names else None)
    Q = from_table(len(reps), table, names)
    proj = GroupHom(G, Q, tuple(label[coset_of[g]] for g in G.elements()))
    return Q, proj


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


@lru_cache(maxsize=None)
def class_index(G: FiniteGroup) -> tuple[int, ...]:
    """Per element of G, the number of its conjugacy class, the classes
    numbered by their least element: the class of 0 is 0.  Two elements
    are conjugate exactly when their numbers are equal."""
    index = [-1] * G.order
    n = 0
    for g in G.elements():
        if index[g] < 0:  # g is the least element of a new class
            for z in G.elements():
                index[G.conj(g, z)] = n
            n += 1
    return tuple(index)


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes sorted by minimal element; the class of 0 is first.
    Read off ``class_index``, each class in index order."""
    index = class_index(G)
    return tuple(tuple(e for e in G.elements() if index[e] == i)
                 for i in range(max(index) + 1))


def are_conjugate_in(G: FiniteGroup, a: int, b: int) -> Optional[int]:
    """A conjugating element z with z^-1 a z = b, or None."""
    for z in G.elements():
        if G.conj(a, z) == b:
            return z
    return None


def generating_sequence(G: FiniteGroup) -> tuple[int, ...]:
    """Greedy minimal generating sequence: repeatedly add the smallest
    element outside the closure so far."""
    gens: list[int] = []
    closed = subgroup_closure(G, gens)
    while len(closed) < G.order:
        g = min(set(G.elements()) - closed.element_set())
        gens.append(g)
        closed = subgroup_closure(G, gens)
    return tuple(gens)


@lru_cache(maxsize=None)
def _hom_plan(G: FiniteGroup) -> tuple[tuple[int, ...],
                                       tuple[tuple[int, int, int], ...],
                                       tuple[tuple[int, int, int], ...]]:
    """How ``_homs`` extends and checks generator images on G:
    (orders, steps, checks).

    ``orders`` are the orders of the greedy generating sequence.  ``steps``
    is a breadth-first spanning tree of G from the identity: (e, prev, gi)
    with e = prev * gens[gi], in discovery order, so each prev precedes the
    step that uses it.  ``checks`` are the relations img(a*s) = img(a)*img(s)
    as (a, gi, a*s), one per element a and generator s, except the n - 1
    tree edges, which the extension satisfies by construction: n*d - (n - 1)
    checks for n elements and d generators.  Only ``_homs`` reads the plan,
    once per (G, X) while its table is cached."""
    gens = generating_sequence(G)
    table = G.table
    steps = []
    seen = {0}
    frontier = [0]
    for x in frontier:  # grows while iterated: breadth-first order
        for gi, g in enumerate(gens):
            y = table[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
                steps.append((y, x, gi))
    tree = {(prev, gi) for _, prev, gi in steps}
    checks = tuple((a, gi, table[a][g]) for a in G.elements()
                   for gi, g in enumerate(gens) if (a, gi) not in tree)
    return tuple(map(G.element_order, gens)), tuple(steps), checks


@lru_cache(maxsize=None)
def _homs(G: FiniteGroup, X: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The table of Hom(G, X): every homomorphism as the tuple of images of
    G's elements, in lexicographic order of the images of G's greedy
    generating sequence.  Enumerated once per (G, X) and kept, unbounded,
    for the life of the process (0.19 MB after one sep-order16 benchmark
    pass, but Hom(C2^4, C2^4) alone is 11.5 MB); ``cache_clear`` empties it.

    Tries the images of the generating sequence whose orders divide the
    generators' orders, as one ``itertools.product`` over the
    per-generator candidates, read from X's element orders once per fill:
    candidates come in lexicographic order of their generator images.  Each
    candidate is extended along the spanning tree of G's plan
    (``_hom_plan``, read at call time) by rows of ``X.table``, and is kept
    when it passes the plan's relation checks, every img(a*s) =
    img(a)*img(s) that the tree does not already imply, which gives the
    full homomorphism law since the generators span G.
    """
    orders, steps, checks = _hom_plan(G)
    x_orders = [X.element_order(x) for x in X.elements()]
    candidates = [[x for x in X.elements() if order % x_orders[x] == 0]
                  for order in orders]
    table = X.table
    images = [0] * G.order
    homs = []
    for chosen in itertools.product(*candidates):
        for e, prev, gi in steps:
            images[e] = table[images[prev]][chosen[gi]]
        for a, gi, b in checks:
            if images[b] != table[images[a]][chosen[gi]]:
                break
        else:
            homs.append(tuple(images))
    return tuple(homs)


def keyed_homs(G: FiniteGroup, X: FiniteGroup,
               key: Sequence[int]) -> Iterator[tuple[tuple[int, ...],
                                                   tuple[int, ...]]]:
    """The first homomorphism G -> X of each distinct key, as (key, images):
    the key is the tuple of images of the elements ``key``, the images
    those of every element of G.  A filter over the table of Hom(G, X)
    (``_homs``, filled on first use), in its order; no relation is checked
    here."""
    seen = set()
    for images in _homs(G, X):
        k = tuple([images[e] for e in key])
        if k not in seen:
            seen.add(k)
            yield k, images


def enumerate_homs(G: FiniteGroup, X: FiniteGroup) -> tuple[GroupHom, ...]:
    """All homomorphisms G -> X, in lexicographic order of the images of
    G's greedy generating sequence: the table of Hom(G, X) (``_homs``,
    filled on first use and then shared with the witness search), each
    images tuple wrapped in a ``GroupHom``."""
    return tuple(GroupHom(G, X, images) for images in _homs(G, X))


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
    n1, n2 = G1.order, G2.order
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1, a2, b1, b2 in itertools.product(range(n1), range(n2), range(n1), range(n2)):
        table[a1 * n2 + a2][b1 * n2 + b2] = G1.mul(a1, b1) * n2 + G2.mul(a2, b2)
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
