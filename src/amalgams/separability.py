"""Conjugacy p-separation witnesses and bounded residual-p diagnostics.

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

A pair's images of the words depend only on the images of their letters,
so the search tests each distinct combination of letter images once (see
``_first_agreeing_pair``) and returns the pair the loop over all agreeing
pairs would return.  The bounded residual-p check uses the same search
with "the image is not the identity" as its test, on the element words
themselves.

Before the catalog walk, both searches consult the p-residual quotient
G* = H/R* * K/S* (``quotients.p_residual``), through which every
homomorphism onto a finite p-group factors.  Inputs whose images are
conjugate in G* raise NotSeparable, a proof that no finite p-group
separates them, and an element trivial in G* dies in every finite
p-quotient; neither needs the walk, whose answer there is always "none".
The proof projects f and g themselves, so its conjugator carries the
image of the first input to that of the second.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

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
    strategy_tag: str


@dataclass(frozen=True)
class SearchBudget:
    """Caps of the witness search.  ``max_quotient_index`` is validated but
    no longer read by the search, which enumerates hom pairs directly."""

    p: int = 2
    max_target_order: int = 16
    max_quotient_index: int = 16
    max_conjugator_length: int = 4

    def __post_init__(self):
        fingroup.check_prime(self.p)
        if min(self.max_target_order, self.max_quotient_index,
               self.max_conjugator_length) < 1:
            raise NotPPower("budget caps must be positive")


def word_image(w: Witness, u: Word) -> int:
    """Image of a word in the target, psi_H / psi_K applied syllable-wise."""
    x = 0
    for tag, e in u:
        x = w.target.mul(x, w.psi_H(e) if tag == TAG_H else w.psi_K(e))
    return x


def agrees_on_amalgam(spec: AmalgamSpec, psi_H: GroupHom, psi_K: GroupHom) -> bool:
    phi = spec.phi_map
    return all(psi_H(a) == psi_K(phi[a]) for a in spec.A.elements)


def _is_agreeing_p_pair(spec: AmalgamSpec, w: Witness, p: int) -> bool:
    """Both maps are homomorphisms (checked on every product), they agree
    on A and the target is a p-group."""
    return (w.psi_H.is_valid() and w.psi_K.is_valid()
            and agrees_on_amalgam(spec, w.psi_H, w.psi_K)
            and fingroup.is_p_group(w.target, p))


def verify_witness(spec: AmalgamSpec, w: Witness, f: Word, g: Word,
                   p: int) -> bool:
    """Independent re-check: agreement on A, p-group target, images in
    distinct conjugacy classes."""
    if not _is_agreeing_p_pair(spec, w, p):
        return False
    fi, gi = word_image(w, f), word_image(w, g)
    return fingroup.class_of(w.target, fi) != fingroup.class_of(w.target, gi)


def _partitions(n: int,
                maxpart: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n (parts at most maxpart) in lexicographically
    decreasing order of parts, largest-first within each partition."""
    if n == 0:
        yield ()
    for first in range(min(n, maxpart or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _abelian_p_group(p: int, partition: tuple[int, ...]) -> FiniteGroup:
    G = fingroup.cyclic(1)
    for part in partition:
        G = fingroup.direct_product(G, fingroup.cyclic(p ** part))
    return G


@lru_cache(maxsize=None)
def p_group_catalog(p: int, max_order: int) -> tuple[FiniteGroup, ...]:
    """Search space of witness targets, smallest order first: all abelian
    p-groups of order <= max_order (one per partition) and, for p = 2, the
    dihedral and quaternion groups of order 8 and 16.  No two share a
    table.  Built once per (p, max_order)."""
    k = fingroup.p_exponent(max_order, p)
    if not k:  # None, or 0 for max_order 1
        raise NotPPower(f"{max_order} is not a power of {p} (>= p)")
    catalog: list[FiniteGroup] = []
    for exp in range(1, k + 1):
        for partition in _partitions(exp):
            catalog.append(_abelian_p_group(p, partition))
        if p == 2 and exp == 3:
            catalog.append(fingroup.dihedral(4))
            catalog.append(fingroup.quaternion(8))
        if p == 2 and exp == 4:
            catalog.append(fingroup.dihedral(8))
            catalog.append(fingroup.quaternion(16))
    return tuple(catalog)


def _first_agreeing_pair(spec: AmalgamSpec, catalog: Sequence[FiniteGroup],
                         words: Sequence[Word],
                         make_test: Callable[[FiniteGroup],
                                             Callable[[list[int]], bool]]
                         ) -> Optional[tuple[FiniteGroup, GroupHom, GroupHom]]:
    """First (X, psi_H, psi_K) over the catalog whose images of ``words``
    pass ``make_test(X)``; None if there is none.  Within each X the order
    is that of all agreeing pairs (psi_K(a phi) = psi_H(a) on A) with
    psi_H outer, each factor's homs in ``enumerate_homs`` order.

    A pair's images of the words depend only on the images of their
    letters.  So, per X, Hom(K, X) is first tabled by its images on B and
    then by its K-letter images, keeping the first psi_K of each (dicts
    keep insertion order, so enumeration order survives).  A psi_H whose
    images on A and on the H-letters were already seen is skipped: every
    pair it forms was tested through the earlier one.  The pair returned
    is therefore the first passing one in that order."""
    letters = sorted({s for u in words for s in u})  # "H" sorts before "K"
    slot = {s: i for i, s in enumerate(letters)}
    programs = [[slot[s] for s in u] for u in words]
    h_keys = [a for a, _ in spec.phi]  # images on A, then on the letters
    h_keys += [e for tag, e in letters if tag == TAG_H]
    b_elems = [b for _, b in spec.phi]
    k_letters = [e for tag, e in letters if tag == TAG_K]
    n = len(spec.phi)
    for X in catalog:
        test = make_test(X)
        by_b: dict[tuple[int, ...], dict[tuple[int, ...], GroupHom]] = {}
        for psi_K in fingroup.enumerate_homs(spec.K, X):
            img = psi_K.images.__getitem__
            by_b.setdefault(tuple(map(img, b_elems)), {}).setdefault(
                tuple(map(img, k_letters)), psi_K)
        table = X.table
        seen = set()
        for psi_H in fingroup.enumerate_homs(spec.H, X):
            key = tuple(map(psi_H.images.__getitem__, h_keys))
            if key in seen:
                continue
            seen.add(key)
            h_images = key[n:]
            for k_images, psi_K in by_b.get(key[:n], {}).items():
                values = h_images + k_images  # images of the letters
                images = []
                for program in programs:
                    x = 0
                    for i in program:
                        x = table[x][values[i]]
                    images.append(x)
                if test(images):
                    return X, psi_H, psi_K
    return None


@lru_cache(maxsize=None)
def _class_index(X: FiniteGroup) -> tuple[int, ...]:
    """Per element of X, the position of its class in
    ``fingroup.conjugacy_classes(X)``.  Built once per X."""
    index = [0] * X.order
    for i, cls in enumerate(fingroup.conjugacy_classes(X)):
        for e in cls:
            index[e] = i
    return tuple(index)


def _separates(X: FiniteGroup) -> Callable[[list[int]], bool]:
    """Test that the two images lie in distinct conjugacy classes of X,
    read from X's class index (``_class_index``, built once per X)."""
    cls_index = _class_index(X)
    return lambda images: cls_index[images[0]] != cls_index[images[1]]


def _nontrivial(images: list[int]) -> bool:
    return images[0] != 0


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
    on f and g, and the G* proof projects f and g.
    """
    p = budget.p
    verdict = am.is_conjugate_general(spec, f, g)
    if verdict.conjugate:
        raise ElementsConjugate(verdict.conjugator)
    pair = qt.p_residual(spec, p)
    if pair is not None:
        star = am.is_conjugate_general(pair.quotient_spec,
                                       qt.project_word(pair, f),
                                       qt.project_word(pair, g))
        if star.conjugate:
            raise NotSeparable(pair.R, pair.S, star.conjugator, p)
    found = _first_agreeing_pair(
        spec, p_group_catalog(p, budget.max_target_order), verdict.reduced,
        _separates)
    if found is None:
        raise BudgetExhausted(
            f"no agreeing homomorphism pair into a catalog {p}-group of "
            f"order at most {budget.max_target_order} separates the inputs; "
            f"the search budget ran out")
    witness = Witness(*found, "direct")
    if not verify_witness(spec, witness, f, g, p):
        raise VerificationFailed("witness failed the independent re-check")
    return witness


def enumerate_cyclically_reduced(spec: AmalgamSpec,
                                 max_length: int) -> tuple[Word, ...]:
    """One representative word per distinct cyclically reduced element of
    length <= max_length (deduplicated by normal form).  The candidates
    are cyclically reduced as built: longer ones alternate syllables
    outside the amalgam, first tag != last; a K-syllable in B shares its
    normal form with the H-syllable listed before it."""
    words: list[Word] = [am.EMPTY]
    if max_length >= 1:
        words += [am.word([(tag, e)]) for tag in (TAG_H, TAG_K)
                  for e in range(1, spec.factor(tag).order)]
    for n in range(2, max_length + 1):
        for start in (TAG_H, TAG_K):
            tags = [(TAG_H, TAG_K)[(i + (start == TAG_K)) % 2] for i in range(n)]
            if tags[0] == tags[-1]:
                continue
            pools = []
            for tag in tags:
                sub = spec.amalg(tag).element_set()
                pools.append([e for e in range(1, spec.factor(tag).order)
                              if e not in sub])
            for combo in itertools.product(*pools):
                words.append(Word(tuple(zip(tags, combo))))
    first: dict[am.NormalForm, Word] = {}
    for w in words:
        first.setdefault(am.normal_form(spec, w), w)
    return tuple(first.values())


def enumerate_elements(spec: AmalgamSpec, max_length: int) -> tuple[Word, ...]:
    """One word per element of G of length <= max_length, via normal forms."""
    reps_h = sorted({am._coset_decompose(spec, TAG_H, e)[1]
                     for e in spec.H.elements()} - {0})
    reps_k = sorted({am._coset_decompose(spec, TAG_K, e)[1]
                     for e in spec.K.elements()} - {0})
    out = []
    for n in range(0, max_length + 1):
        tails: list[tuple[tuple[str, int], ...]] = []
        if n == 0:
            tails.append(())
        else:
            for start in (TAG_H, TAG_K):
                tags = [(TAG_H, TAG_K)[(i + (start == TAG_K)) % 2]
                        for i in range(n)]
                pools = [reps_h if t == TAG_H else reps_k for t in tags]
                for combo in itertools.product(*pools):
                    tails.append(tuple(zip(tags, combo)))
        for a in spec.A.elements:
            for tail in tails:
                nf = am.NormalForm(a, tail)
                out.append(am.render(spec, nf))
    # distinct (a, tail) pairs are distinct elements: the reps avoid A, so
    # no tail syllable is absorbed into the amalgamated part.
    return tuple(out)


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
    with a NotSeparable proof (``SeparationEntry.proved``)."""
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


@dataclass(frozen=True)
class ResidualEntry:
    element: Word
    survives: bool
    witness: Optional[Witness]


@dataclass(frozen=True)
class ResidualReport:
    length_bound: int
    entries: tuple[ResidualEntry, ...]

    @property
    def residually_p_up_to_bound(self) -> bool:
        return all(e.survives for e in self.entries)

    @property
    def failures(self) -> tuple[ResidualEntry, ...]:
        return tuple(e for e in self.entries if not e.survives)


def check_residually_p_bounded(spec: AmalgamSpec, length_bound: int,
                               budget: SearchBudget) -> ResidualReport:
    """For every nontrivial element of length <= length_bound, look for an
    agreeing homomorphism pair into a catalog budget.p-group with nontrivial
    image; success for all yields a bounded residual-p certificate.  An
    element trivial in the p-residual quotient (``quotients.p_residual``)
    dies in every finite p-quotient, so it gets a failing entry without the
    catalog walk.

    Each pair found is re-checked independently of the search (both maps
    are homomorphisms, they agree on A, the target is a p-group and the
    element's image is not the identity); a pair that fails raises
    VerificationFailed."""
    catalog = p_group_catalog(budget.p, budget.max_target_order)
    pair = qt.p_residual(spec, budget.p)
    entries = []
    for w in enumerate_elements(spec, length_bound):
        if not w.syllables:
            continue
        if pair is not None and am.equal_in_g(
                pair.quotient_spec, qt.project_word(pair, w), am.EMPTY):
            entries.append(ResidualEntry(w, False, None))
            continue
        found = _first_agreeing_pair(spec, catalog, (w,),
                                     lambda X: _nontrivial)
        hit = Witness(*found, "residual-p") if found else None
        if hit and not (_is_agreeing_p_pair(spec, hit, budget.p)
                        and word_image(hit, w) != 0):
            raise VerificationFailed(
                "residual witness failed the independent re-check")
        entries.append(ResidualEntry(w, hit is not None, hit))
    return ResidualReport(length_bound, tuple(entries))
