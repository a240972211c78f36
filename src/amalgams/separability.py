"""Conjugacy p-separation witnesses and bounded separability diagnostics.

A witness for a non-conjugate pair (f, g) is a pair of factor homomorphisms
into a finite p-group that agree on the amalgamated subgroup (so the pair
extends to the whole amalgam) and send f and g to non-conjugate images.
The search runs over the agreeing homomorphism pairs into each group of
the p-group catalog, smallest first, and returns the first pair (psi_H
outer, in enumeration order) that separates the conjugacy classes.  Any
witness through a quotient amalgam composes to an agreeing pair into a
catalog group, so this one exhaustive stage decides the same verdicts.

The walk runs not on f and g but on their cyclically reduced conjugates
(cx, cy), which the conjugacy decider has already computed
(``ConjugacyVerdict.reduced``).  The test compares conjugacy classes, and
the images of conjugate elements are conjugate, so a pair passes on
(cx, cy) exactly when it passes on (f, g): the first passing pair, the
witness, is the same.  The shorter words with fewer letters only make the
walk cheaper.  The independent re-check and the certificate use f and g.
The walk reads (cx, cy) unchecked (``amalgam._decide``): a witness,
re-checked on f and g, proves them non-conjugate by itself, so the search
checks the reductions (``amalgam._check_reductions``) only right before a
negative answer, ``NotSeparable`` or ``BudgetExhausted``, which rests on
them.

A pair's images of the words depend only on the images of their letters,
so the search tests each distinct combination of letter images once (see
``_first_agreeing_pair``) and returns the pair the loop over all agreeing
pairs would return.  It reads each factor's homs from the table of
Hom(factor, X) as ``fingroup.hom_images`` builds it, column-major: one
tuple per element of the factor, holding its image under every hom.
A query reads only the columns of its key, and finds their distinct rows
in C, so its cost follows the number of distinct keys, not of homs.  The
first search on a spec to reach X pays for the whole table, where an
early return could have stopped sooner; every later search on that spec
only reads it.

Before it walks, the search tests whether (cx, cy) have equal images in
the largest abelian p-quotient of G (``_agree_in_abelian_p_quotient``).
Every homomorphism into an abelian p-group factors through that quotient,
so when they do, every agreeing pair into an abelian catalog group sends
them to one element, and the walk skips those groups, building neither
their records nor their Hom tables (the catalog lists each order's
abelian groups apart, as it builds them from partitions).  No skipped
pair passes, so the first passing pair, the witness, is the same, and so
is every verdict.  The test costs one pass over the letters and one set
lookup, and runs only for a search about to walk.

Caches on the witness path:

- one module-level cache (``lru_cache``, ``cache_clear`` empties it):
  ``_groups_of_order``, the catalog groups of each order, built when the
  walk first reaches it (``p_group_catalog`` is a view of them);
- per spec, living as long as the ``AmalgamSpec``: one record per target
  X (``AmalgamSpec.targets``, filled by ``_target``) holding X's class
  index, read for every pair tested, and both Hom tables as built,
  each unbounded (Hom(C2^4, C2^4) alone is 65,536 homs in 16 columns,
  8.4 MB kept, 18.2 MB at its build peak, within the default budget);
  the p-residuals (``AmalgamSpec.p_residuals``); and per p, the labels of
  the largest abelian p-quotient (``AmalgamSpec.abelian_p_quotients``,
  filled by ``_abelian_p_quotient``), one per element of each factor
  plus the label pairs of A.  A record never changes once built, so no
  query leaves state that a later one reads.

Before the catalog walk, the search consults the p-residual quotient
G* = H/R* * K/S* (``quotients.p_residual``), through which every
homomorphism onto a finite p-group factors.  Inputs whose images are
conjugate in G* raise NotSeparable, a proof that no finite p-group
separates them; the walk's answer there is always "none".  The proof
projects f and g themselves, so its conjugator, checked in G*, carries
the image of the first input to that of the second.  A negative verdict
in G* backs no answer, as the walk just goes on, so its cyclic
reductions are not checked.

Residual p is separation from the identity: the class of 1 is {1}, so a
finite p-group separates a from 1 exactly when a survives in it.  The
bounded residual-p check is ``is_cfp_separable_bounded(spec, am.EMPTY,
budget)``.  It tries the cyclically reduced elements only, and every
element is conjugate to one of them that is no longer; an element trivial
in G* gets a ``proved`` entry.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from . import amalgam as am
from . import fingroup
from . import quotients as qt
from .amalgam import TAG_H, TAG_K, AmalgamSpec, Word
from .errors import (
    BudgetExhausted,
    ElementsConjugate,
    NotPPower,
    NotSeparable,
    VerificationFailed,
)
from .fingroup import FiniteGroup, GroupHom


@dataclass(frozen=True, slots=True)
class Witness:
    target: FiniteGroup
    psi_H: GroupHom
    psi_K: GroupHom


@dataclass(frozen=True)
class SearchBudget:
    """Caps of the witness search, checked here only: p is prime, every
    cap is at least 1 and ``max_target_order`` is at least p, so every
    budget admits a nontrivial target.  ``max_target_order`` bounds the
    target order from above and need not be a power of p.
    ``max_quotient_index`` is checked but read by no search."""

    p: int = 2
    max_target_order: int = 16
    max_quotient_index: int = 16
    max_conjugator_length: int = 4

    def __post_init__(self):
        fingroup.check_prime(self.p)
        if min(self.max_target_order, self.max_quotient_index,
               self.max_conjugator_length) < 1:
            raise NotPPower("budget caps must be positive")
        if self.max_target_order < self.p:
            raise NotPPower(f"max_target_order {self.max_target_order} is "
                            f"below p = {self.p}: no nontrivial {self.p}-group "
                            f"fits the budget")


def word_image(w: Witness, u: Word) -> int:
    """Image of a word in the target, psi_H / psi_K applied syllable-wise."""
    x = 0
    for tag, e in u:
        x = w.target.mul(x, w.psi_H(e) if tag == TAG_H else w.psi_K(e))
    return x


def agrees_on_amalgam(spec: AmalgamSpec, psi_H: GroupHom, psi_K: GroupHom) -> bool:
    phi = spec.phi_map
    return all(psi_H(a) == psi_K(phi[a]) for a in spec.A.elements)


def verify_witness(spec: AmalgamSpec, w: Witness, f: Word, g: Word,
                   p: int) -> bool:
    """Independent re-check: psi_H and psi_K run from H and K into the
    witness's target, both are homomorphisms (checked on every product),
    they agree on A, the target is a p-group and no element of it
    conjugates the image of f to that of g.  The last test searches for a
    conjugator directly, sharing no class table with the search."""
    if w.psi_H.source != spec.H or w.psi_K.source != spec.K:
        return False
    if w.psi_H.target != w.target or w.psi_K.target != w.target:
        return False
    return (w.psi_H.is_valid() and w.psi_K.is_valid()
            and agrees_on_amalgam(spec, w.psi_H, w.psi_K)
            and fingroup.is_p_group(w.target, p)
            and fingroup.are_conjugate_in(w.target, word_image(w, f),
                                          word_image(w, g)) is None)


def _partitions(n: int,
                maxpart: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n (parts at most maxpart) in lexicographically
    decreasing order of parts, largest-first within each partition."""
    if n == 0:
        yield ()
    for first in range(min(n, maxpart or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _abelian_p_group(p: int, partition: tuple[int, ...]) -> FiniteGroup:
    G = fingroup.cyclic(1)
    for part in partition:
        G = fingroup.direct_product(G, fingroup.cyclic(p ** part))
    return G


@lru_cache(maxsize=None)
def _groups_of_order(p: int, exp: int
                     ) -> tuple[tuple[FiniteGroup, ...], tuple[FiniteGroup, ...]]:
    """The catalog groups of order p**exp, as two tuples: the abelian
    ones, one per partition, and the others, for p = 2 the dihedral and
    quaternion groups of order 8 and 16."""
    abelian = tuple(_abelian_p_group(p, partition)
                    for partition in _partitions(exp))
    if p == 2 and exp in (3, 4):
        return abelian, (fingroup.dihedral(2 ** (exp - 1)),
                         fingroup.quaternion(2 ** exp))
    return abelian, ()


def _catalog_walk(p: int, max_order: int,
                  abelian: bool = True) -> Iterator[FiniteGroup]:
    """The witness targets of order <= max_order, smallest order first
    and within an order the abelian ones first, for a prime p and a bound
    max_order >= p (``SearchBudget`` checks both); with ``abelian`` false,
    only the non-abelian ones.  Each order's groups are built when the
    walk first reaches them, so a large bound costs nothing until a search
    gets that far."""
    k = 0
    while p ** (k + 1) <= max_order:
        k += 1
    for exp in range(1, k + 1):
        commutative, others = _groups_of_order(p, exp)
        if abelian:
            yield from commutative
        yield from others


def p_group_catalog(p: int, max_order: int) -> tuple[FiniteGroup, ...]:
    """The whole search space of witness targets of order <= max_order,
    in the order ``search_witness`` walks it (``_catalog_walk``).  No two
    share a table.  The arguments are checked as ``SearchBudget``'s p and
    max_target_order: NotPrime or NotPPower before any group is built."""
    SearchBudget(p, max_order)
    return tuple(_catalog_walk(p, max_order))


def _target(spec: AmalgamSpec, X: FiniteGroup) -> tuple:
    """X's record on the spec, (class index of X, Hom(H, X), Hom(K, X)),
    built on the first call for the spec and kept in ``spec.targets``.
    Each Hom table is kept as ``fingroup.hom_images`` builds it,
    column-major: one tuple per element of the factor."""
    record = spec.targets.get(X)
    if record is None:
        record = spec.targets[X] = (fingroup.class_index(X),
                                    fingroup.hom_images(spec.H, X),
                                    fingroup.hom_images(spec.K, X))
    return record


def _abelian_p_labels(G: FiniteGroup, p: int) -> tuple[int, ...]:
    """Per element of G, the least element of its coset of N
    (``fingroup.coset_labels``), N being generated by the commutators of
    G and its elements of order prime to p.  N is normal (both generating
    sets are closed under conjugation) and it is the least normal subgroup
    whose quotient is an abelian p-group, so G/N is the largest abelian
    p-quotient of G and the labels multiply as its elements do."""
    table, inv = G.table, G._inv
    gens = {table[table[inv[x]][inv[y]]][table[x][y]]
            for x in G.elements() for y in G.elements()}
    gens.update(x for x in G.elements() if G.element_order(x) % p)
    return fingroup.coset_labels(G, fingroup.subgroup_closure(G, gens).elements)


def _abelian_p_quotient(spec: AmalgamSpec, p: int) -> tuple:
    """G's largest abelian p-quotient on the spec, (H labels, K labels,
    relations), built on the first call for p and kept in
    ``spec.abelian_p_quotients``.  The labels are each factor's
    ``_abelian_p_labels``; ``relations`` is the set of label pairs of
    (a, phi(a)^-1), a in A.  G^ab is H^ab x K^ab divided by the pairs
    (a, phi(a)^-1), and its p'-part is the image of the p'-parts of H^ab
    and K^ab, which the labels already divide out; so the relations are
    the kernel of H/N_H x K/N_K onto the largest abelian p-quotient of G,
    a subgroup given by its elements."""
    record = spec.abelian_p_quotients.get(p)
    if record is None:
        h_labels = _abelian_p_labels(spec.H, p)
        k_labels = _abelian_p_labels(spec.K, p)
        k_inv = spec.K._inv
        record = spec.abelian_p_quotients[p] = (
            h_labels, k_labels,
            frozenset((h_labels[a], k_labels[k_inv[b]]) for a, b in spec.phi))
    return record


def _agree_in_abelian_p_quotient(spec: AmalgamSpec, p: int,
                                 u: Word, v: Word) -> bool:
    """Whether u and v have equal images in the largest abelian p-quotient
    of G (``_abelian_p_quotient``): the product of u's H-letters and of
    the inverses of v's H-letters, and the same for K, label a pair in the
    relations.  The quotient is abelian, so the letters may be multiplied
    in any order."""
    h_labels, k_labels, relations = _abelian_p_quotient(spec, p)
    h_table, k_table = spec.H.table, spec.K.table
    h_inv, k_inv = spec.H._inv, spec.K._inv
    h = k = 0
    for tag, e in u:
        if tag == TAG_H:
            h = h_table[h][e]
        else:
            k = k_table[k][e]
    for tag, e in v:
        if tag == TAG_H:
            h = h_table[h][h_inv[e]]
        else:
            k = k_table[k][k_inv[e]]
    return (h_labels[h], k_labels[k]) in relations


def _distinct_keys(columns: Sequence[tuple[int, ...]]) -> Iterable[tuple]:
    """The distinct rows of the key columns, each a tuple, in order of
    first occurrence among the homs, found in C.  A single column is
    deduplicated as plain ints, with no tuple built per hom; no column
    leaves the one key ()."""
    if len(columns) > 1:
        return dict.fromkeys(zip(*columns))
    if columns:
        return [(x,) for x in dict.fromkeys(columns[0])]
    return [()]


def _first_hom(G: FiniteGroup, X: FiniteGroup, table: Sequence[tuple],
               columns: Sequence[tuple[int, ...]], key: tuple) -> GroupHom:
    """The first hom of the column-major ``table`` of Hom(G, X) whose
    rows of the key ``columns`` read ``key``."""
    i = operator.indexOf(zip(*columns), key) if columns else 0
    return GroupHom(G, X, tuple([column[i] for column in table]))


def _first_agreeing_pair(spec: AmalgamSpec, catalog: Iterable[FiniteGroup],
                         words: Sequence[Word]
                         ) -> Optional[tuple[FiniteGroup, GroupHom, GroupHom]]:
    """First (X, psi_H, psi_K) over the catalog that sends the two
    ``words`` into distinct conjugacy classes of X, read from X's record
    (``_target``); None if there is none.  Within each X the order is that
    of all agreeing pairs (psi_K(a phi) = psi_H(a) on A) with psi_H outer,
    each factor's homs in ``enumerate_homs`` order.

    A pair's images of the words depend only on the images of their
    letters.  So of each factor's Hom table only the first hom of each key
    is walked: for K the key is the images on B, then on the K-letters, and
    for H the images on A, then on the H-letters (the identity, sent to the
    identity by every hom, is left out).  Every pair a skipped hom would
    form was tested through the earlier one with its key, so the pair
    returned is the first passing one in that order.  The distinct keys
    come from the table's key columns in C (``_distinct_keys``), so Python
    loops over distinct keys and pair tests only, never over homs.  The
    keys of K are grouped by their images on B (dicts keep insertion
    order, so enumeration order survives), and the two ``GroupHom``s are
    rebuilt from the columns only for the pair returned."""
    letters = sorted(set().union(*words))  # "H" sorts before "K"
    slot = {s: i for i, s in enumerate(letters)}
    f_program, g_program = [[slot[s] for s in u] for u in words]
    h_key = [a for a, _ in spec.phi if a]
    k_key = [b for a, b in spec.phi if a]
    n = len(h_key)
    for tag, e in letters:
        (h_key if tag == TAG_H else k_key).append(e)
    for X in catalog:
        cls_index, h_table, k_table = _target(spec, X)
        h_columns = [h_table[e] for e in h_key]
        k_columns = [k_table[e] for e in k_key]
        by_b: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for key in _distinct_keys(k_columns):
            by_b.setdefault(key[:n], []).append(key[n:])
        table = X.table
        for key in _distinct_keys(h_columns):
            on_a, h_values = key[:n], key[n:]
            for k_values in by_b.get(on_a, ()):
                values = h_values + k_values  # images of the letters
                x = y = 0
                for i in f_program:
                    x = table[x][values[i]]
                for i in g_program:
                    y = table[y][values[i]]
                if cls_index[x] != cls_index[y]:
                    return (X,
                            _first_hom(spec.H, X, h_table, h_columns, key),
                            _first_hom(spec.K, X, k_table, k_columns,
                                       on_a + k_values))
    return None


def search_witness(spec: AmalgamSpec, f: Word, g: Word,
                   budget: SearchBudget) -> Witness:
    """A verified homomorphism pair separating the conjugacy classes of f
    and g in a finite p-group.

    Raises ElementsConjugate when f and g are conjugate in G.  Raises
    NotSeparable, without walking the catalog, when their images are
    conjugate in the p-residual quotient G* (``quotients.p_residual``):
    every homomorphism onto a finite p-group factors through G*, so none
    separates them.  Otherwise raises BudgetExhausted when no agreeing pair
    into a catalog group of order <= budget.max_target_order separates
    them: an inconclusive outcome.  A witness that fails the independent
    re-check raises VerificationFailed.

    The catalog walk runs on the cyclically reduced conjugates (cx, cy)
    that the decider returns with its negative verdict: conjugate inputs
    have conjugate images, so the walk returns the witness it would return
    on f and g, and the shorter words make it cheaper.  The re-check runs
    on f and g, and the G* proof projects f and g.  The walk reads
    (cx, cy) unchecked; ``amalgam._check_reductions`` checks them from the
    verdict, raising VerificationFailed when one fails, only right before
    NotSeparable or BudgetExhausted is raised, as a found witness needs no
    more than its re-check.

    Just before the walk, and only there, the search tests whether
    (cx, cy) have equal images in the largest abelian p-quotient of G.
    When they do, each agreeing pair into an abelian p-group factors
    through that quotient and sends them to one element, so the walk
    skips the abelian catalog groups: it loses no passing pair and returns
    the witness the whole catalog gives.  A BudgetExhausted raised after
    such a walk says that the inputs agree in every abelian p-quotient.
    """
    p = budget.p
    verdict = am._decide(spec, f, g)
    if verdict.conjugate:
        raise ElementsConjugate(verdict.conjugator)
    pair = qt.p_residual(spec, p)
    star = None if pair is None else am._decide(
        pair.quotient_spec, qt.project_word(pair, f), qt.project_word(pair, g))
    proved = star is not None and star.conjugate
    found = abelian_agree = None
    if not proved:
        abelian_agree = _agree_in_abelian_p_quotient(spec, p, *verdict.reduced)
        found = _first_agreeing_pair(
            spec, _catalog_walk(p, budget.max_target_order, not abelian_agree),
            verdict.reduced)
    if found is None:
        am._check_reductions(spec, f, g, verdict)
        if proved:
            raise NotSeparable(pair.R, pair.S, star.conjugator, p)
        why = (f", and they agree in every abelian {p}-quotient of G, so "
               f"no abelian target was tried" if abelian_agree else "")
        raise BudgetExhausted(
            f"no agreeing homomorphism pair into a catalog {p}-group of "
            f"order at most {budget.max_target_order} separates the "
            f"inputs{why}; the search budget ran out")
    witness = Witness(*found)
    if not verify_witness(spec, witness, f, g, p):
        raise VerificationFailed("witness failed the independent re-check")
    return witness


def enumerate_cyclically_reduced(spec: AmalgamSpec,
                                 max_length: int) -> tuple[Word, ...]:
    """One word per distinct cyclically reduced element of length <=
    max_length: the identity, every H letter, the K letters outside B,
    then per even length the alternating words of syllables outside the
    amalgam starting with H, then with K (no cyclically reduced element
    has odd length >= 3).  Moving each syllable's amalgam part into the
    next one gives every element one word whose syllables but the last are
    least in their left cosets e*S (``fingroup.coset_labels``, S the
    factor's amalgamated subgroup); only those words are built."""
    outside, least = {}, {}
    for tag in (TAG_H, TAG_K):
        G, S = spec.factor(tag), spec.amalg(tag)
        labels = fingroup.coset_labels(G, S.elements)
        outside[tag] = [e for e in range(1, G.order) if e not in S]
        least[tag] = [e for e in outside[tag] if labels[e] == e]
    words: list[Word] = [am.EMPTY]
    if max_length >= 1:
        words += [Word(((TAG_H, e),)) for e in range(1, spec.H.order)]
        words += [Word(((TAG_K, e),)) for e in outside[TAG_K]]
    for n in range(2, max_length + 1, 2):
        for tags in ((TAG_H, TAG_K) * (n // 2), (TAG_K, TAG_H) * (n // 2)):
            pools = [least[tag] for tag in tags[:-1]] + [outside[tags[-1]]]
            words += [Word(tuple(zip(tags, combo)))
                      for combo in itertools.product(*pools)]
    return tuple(words)


@dataclass(frozen=True)
class SeparationEntry:
    """One search of the report.  ``proved`` is set when the search raised
    NotSeparable, a proof that no finite p-group separates the pair; an
    unseparated entry without it only exhausted its budget."""
    other: Word
    separated: bool
    witness: Optional[Witness]
    error: str = ""
    proved: bool = False


@dataclass(frozen=True)
class SeparabilityReport:
    element: Word
    entries: tuple[SeparationEntry, ...]

    @property
    def all_separated(self) -> bool:
        return all(e.separated for e in self.entries)


def is_cfp_separable_bounded(spec: AmalgamSpec, g: Word,
                             budget: SearchBudget) -> SeparabilityReport:
    """Bounded, one-sided diagnostic for C_fp-separability of g: runs the
    witness search against every non-conjugate cyclically reduced element of
    length <= budget.max_conjugator_length.  Claims the negative only
    with a NotSeparable proof (``SeparationEntry.proved``).  With g the
    identity it is the bounded residual-p check: an entry is separated
    exactly when its element survives in the witness's p-group."""
    entries = []
    for a in enumerate_cyclically_reduced(spec, budget.max_conjugator_length):
        try:
            w = search_witness(spec, a, g, budget)
            entries.append(SeparationEntry(a, True, w))
        except ElementsConjugate:
            continue
        except BudgetExhausted as exc:
            entries.append(SeparationEntry(a, False, None, str(exc),
                                           isinstance(exc, NotSeparable)))
    return SeparabilityReport(g, tuple(entries))
