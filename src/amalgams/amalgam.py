"""Words, reduced forms, normal forms, and conjugacy in G = (H*K; A=B, phi).

A word is an alternating-or-not sequence of syllables (tag, element index)
with tag 'H' or 'K'; the empty word is the identity of G.  Reduction merges
adjacent same-factor syllables, then absorbs syllables lying in the
amalgamated subgroup by transporting them across phi: into the left
neighbour, or the right one for a leading syllable.  The canonical normal
form uses fixed right transversals with minimal-index coset representatives,
so equality in G is decidable by comparison.  It is computed from the raw
syllables in one right-to-left pass, each syllable acting from the left on
the normal form built so far: one read of a per-amalgam step table when
the syllable's factor differs from that of the first tail syllable, and a
merge with that syllable otherwise.  It does not call the reduction: the
conjugator checks, which compare normal forms, share no code with the
reduction and rotation whose output they check.

One decider, ``is_conjugate_general``, applies the conjugacy theorem for
amalgamated products: cyclically reduced conjugates of length >= 2 differ
by a cyclic permutation and then a conjugation by some a in A.  It compares
u, v through their normal forms only for the rotations u' of u whose
syllables lie, position by position, in the double cosets A*v_i*A (B*v_i*B
for K).  That filter is exact: if a^-1*u'*a = v with a in A, the normal
form theorem puts each v_i in A*u'_i*A, so a rotation it drops never passes
the normal form test.  Tags alternate in those words, so only the
rotations by an even or only those by an odd offset can match.  When A is
central in both factors it is central in G, so a = 1 alone is tried.
``is_conjugate_central`` is the same decider behind a check that the
amalgam is central.

Each answer a public decider returns is checked by normal forms.  A
positive verdict checks z^-1*x*z = y for its whole conjugator z, which
backs it whatever the cyclic reductions were, so the reductions it went
through are not checked on their own.  A negative verdict rests on the
cyclic reductions c of x and y, and carries each with the syllables z
moved to reach it; one function, ``_check_reductions``, checks
z^-1*w*z = c for both inputs, skipping an input only when nothing moved
and c is w syllable for syllable.  ``cyclically_reduce`` makes the same
check.  The decision behind the deciders, ``_decide``, returns its
verdict unchecked, for a caller whose own answer is backed otherwise: the
witness search checks the reductions only before a negative answer, since
a found witness is re-checked on the inputs themselves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from . import fingroup
from .errors import (
    IndexOutOfRange,
    NotCentral,
    PhiNotIso,
    VerificationFailed,
)
from .fingroup import FiniteGroup, GroupHom, Subgroup

TAG_H = "H"
TAG_K = "K"


@dataclass(frozen=True, slots=True)
class Word:
    syllables: tuple[tuple[str, int], ...] = ()

    def __len__(self) -> int:
        return len(self.syllables)

    def __iter__(self):
        return iter(self.syllables)

    def concat(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)


def word(syllables: Iterable[tuple[str, int]]) -> Word:
    """Build a word, dropping identity syllables (never stored)."""
    out = []
    for tag, e in syllables:
        if tag not in (TAG_H, TAG_K):
            raise IndexOutOfRange(f"bad factor tag {tag!r}")
        if e != 0:
            out.append((tag, e))
    return Word(tuple(out))


EMPTY = Word()


@dataclass(frozen=True)
class AmalgamSpec:
    """(H, K, A <= H, B <= K, phi: A -> B) defining (H*K; A=B, phi).

    ``phi`` is stored as a sorted tuple of (a, b) pairs on parent element
    indices.  make_amalgam constructs checked specs.

    What the tables fix is built once per instance, on first use: whether
    A and B are central (``central``), phi and its inverse as dicts
    (``phi_map`` and ``phi_inv_map`` expose them read-only; their keys are
    the membership sets of A and B), and per factor the inverse table
    (``_inverses``) and the one coset table, ``_left_action``, with the
    double-coset labels and the step table ``_steps`` read from it.
    ``_steps`` holds |factor| x |H| entries per factor, each a reference to
    a coset-table entry, and lives as long as the spec, like the others.
    Three caches live exactly as long as the spec: ``p_residuals`` holds,
    per prime p, the p-residual pair that ``quotients.p_residual`` builds
    on first request, ``abelian_p_quotients``, per prime p, the labels of
    the largest abelian p-quotient that the witness search's pre-test
    reads, and ``targets`` one record per target group X that the
    witness search has reached.
    They are not fields, so equality and hashing see only the defining
    data.
    """
    H: FiniteGroup
    K: FiniteGroup
    A: Subgroup
    B: Subgroup
    phi: tuple[tuple[int, int], ...]

    def factor(self, tag: str) -> FiniteGroup:
        return self.H if tag == TAG_H else self.K

    def amalg(self, tag: str) -> Subgroup:
        return self.A if tag == TAG_H else self.B

    @cached_property
    def central(self) -> bool:
        """Whether A and B are central in H and K."""
        return (self.A.element_set() <= fingroup.center(self.H).element_set()
                and self.B.element_set() <= fingroup.center(self.K).element_set())

    @cached_property
    def p_residuals(self) -> dict:
        """Per prime p, the result of ``quotients.p_residual``, filled in
        on first request."""
        return {}

    @cached_property
    def abelian_p_quotients(self) -> dict:
        """Per prime p, the labels of G's largest abelian p-quotient,
        filled in on first request (``separability._abelian_p_quotient``):
        per factor, each element's coset label, and the label pairs of
        (a, phi(a)^-1), a in A."""
        return {}

    @cached_property
    def targets(self) -> dict:
        """Per target group X, the record (class index of X, Hom(H, X),
        Hom(K, X)), filled in by the witness search when it first reaches X
        (``separability._target``).  Each Hom table is kept as
        ``fingroup.hom_images`` builds it: per element of the factor, its
        images under every hom."""
        return {}

    @cached_property
    def _across(self) -> dict[str, dict[int, int]]:
        """Per tag, the amalgamated elements of that factor mapped to the
        other factor's indexing: phi for H, its inverse for K."""
        return {TAG_H: dict(self.phi), TAG_K: {b: a for a, b in self.phi}}

    @cached_property
    def _tables(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Per tag, the multiplication table of that factor."""
        return {TAG_H: self.H.table, TAG_K: self.K.table}

    @cached_property
    def _inverses(self) -> dict[str, tuple[int, ...]]:
        """Per tag, the inverse table of that factor."""
        return {TAG_H: self.H._inv, TAG_K: self.K._inv}

    @cached_property
    def _left_action(self) -> dict[str, tuple]:
        """Per tag, what ``normal_form`` reads: the factor's table, the map
        carrying an element of A (H-side index) into the factor, and the
        coset table e -> (a, rep) with e = a * rep, rep the minimal element
        of the right coset of e and a in the amalgamated subgroup, given by
        its H-side index."""
        fwd, back = self._across[TAG_H], self._across[TAG_K]
        ident = range(self.H.order)
        out = {}
        for tag, into, to_h in ((TAG_H, ident, ident),
                                (TAG_K, [fwd.get(a, 0) for a in ident], back)):
            G, sub = self.factor(tag), self.amalg(tag).elements
            rows = [None] * G.order
            for e in G.elements():
                if rows[e] is None:  # e is the least element of its coset A*e
                    for a in sub:
                        rows[G.table[a][e]] = (to_h[a], e)
            out[tag] = (G.table, tuple(into), tuple(rows))
        return out

    @cached_property
    def _steps(self) -> dict[str, tuple[tuple[tuple[int, int], ...], ...]]:
        """Per tag, the table e -> carry -> (a, rep) that ``normal_form``
        reads for a syllable e of a factor other than that of the first
        tail syllable: the coset-table entry of e * carry, carry an
        element of A given by its H-side index.  Rows are indexed by
        every H-side index; only those of A are read."""
        return {tag: tuple(tuple(cosets[row[c]] for c in into) for row in tab)
                for tag, (tab, into, cosets) in self._left_action.items()}

    @cached_property
    def _double_cosets(self) -> dict[str, tuple[int, ...]]:
        """Per tag, the table e -> min(S*e*S), S the amalgamated subgroup of
        that factor: the label of e's double coset, the least coset
        representative over e*S."""
        return {tag: tuple(min(cosets[row[b]][1]
                               for b in self.amalg(tag).elements)
                           for row in tab)
                for tag, (tab, _, cosets) in self._left_action.items()}

    @property
    def phi_map(self) -> Mapping[int, int]:
        return MappingProxyType(self._across[TAG_H])

    @property
    def phi_inv_map(self) -> Mapping[int, int]:
        return MappingProxyType(self._across[TAG_K])


def make_amalgam(H: FiniteGroup, K: FiniteGroup,
                 A: Iterable[int], B: Iterable[int],
                 phi: dict[int, int]) -> AmalgamSpec:
    """The checked spec of (H*K; A=B, phi), the one place an amalgam is
    checked: A and B must be subgroups of H and K (NotSubgroup,
    IndexOutOfRange) and phi, given on parent element indices, an
    isomorphism A -> B (PhiNotIso)."""
    A_sub, B_sub = fingroup.make_subgroup(H, A), fingroup.make_subgroup(K, B)
    if (sorted(phi) != list(A_sub.elements)
            or sorted(phi.values()) != list(B_sub.elements)):
        raise PhiNotIso("phi is not a bijection A -> B")
    elts = A_sub.elements
    images = [phi[a] for a in elts]
    for a1 in elts:  # phi of a1's row against phi(a1)'s row read at phi(A)
        left = list(map(phi.__getitem__, map(H.table[a1].__getitem__, elts)))
        right = list(map(K.table[phi[a1]].__getitem__, images))
        if left != right:
            a2 = next(a2 for a2, x, y in zip(elts, left, right) if x != y)
            raise PhiNotIso(f"phi not a homomorphism at ({a1},{a2})")
    return AmalgamSpec(H, K, A_sub, B_sub, tuple(sorted(phi.items())))


def _push(tab, across, out, syllables) -> None:
    """Push syllables onto ``out``, a reduced word with an open right end.
    A syllable merges with a last syllable of its factor; an amalgamated
    last syllable of the other factor is flipped into its left neighbour,
    which then merges with the syllable, or when alone into the syllable."""
    for syl in syllables:
        tag, e = syl
        if out:
            top_tag, top = out[-1]
            if top_tag == tag:
                out.pop()
                syl = tag, tab[tag][top][e]
            elif top in across[top_tag]:
                out.pop()
                t, top = tab[tag], across[top_tag][top]
                syl = tag, t[t[out.pop()[1]][top]][e] if out else t[top][e]
        if syl[1]:
            out.append(syl)


def _close(tab, across, out) -> None:
    """Push an identity onto ``out``: an amalgamated last syllable joins its
    left neighbour (a non-amalgamated product), a lone one gets tag H."""
    if out and out[-1][1] in across[out[-1][0]]:
        tag = TAG_H if len(out) == 1 or out[-1][0] == TAG_K else TAG_K
        _push(tab, across, out, ((tag, 0),))


def reduce(spec: AmalgamSpec, w: Word) -> Word:
    """A reduced form of w: adjacent syllables from different factors, no
    interior syllable in the amalgamated subgroup.  A length-1 result lying
    in the amalgam is canonicalized to tag H.  Same-tag merges come before
    absorption; an amalgamated syllable is absorbed into its left
    neighbour, a leading one into its right neighbour."""
    tab, across = spec._tables, spec._across
    merged: list[tuple[str, int]] = []
    for syl in w.syllables:
        tag = syl[0]
        if merged and merged[-1][0] == tag:
            syl = tag, tab[tag][merged.pop()[1]][syl[1]]
        if syl[1]:
            merged.append(syl)
    out: list[tuple[str, int]] = []
    _push(tab, across, out, merged)
    _close(tab, across, out)
    return Word(tuple(out))


def inverse(spec: AmalgamSpec, w: Word) -> Word:
    inv = spec._inverses
    return Word(tuple((tag, inv[tag][e]) for tag, e in reversed(w.syllables)))


@dataclass(frozen=True, slots=True)
class NormalForm:
    """w = a * t1 * ... * tn with a in A (H-side index) and each ti the
    minimal-index non-identity right-coset representative in its factor;
    tags alternate."""
    amalgam_part: int
    tail: tuple[tuple[str, int], ...]


def normal_form(spec: AmalgamSpec, w: Word) -> NormalForm:
    """Canonical form w.r.t. the fixed minimal-index transversals.

    Two words are equal in G iff their normal forms are identical.  The
    word need not be reduced: its syllables act from the left, last one
    first, on the normal form a * t1 ... tn built so far.  A syllable e
    with tag T gives y = e * a (a carried into T's factor), times t1 when
    t1 also has tag T, which is then popped; y = a' * rep by the coset
    table, rep is pushed unless it is the identity, and a' is the new
    carry.  Without a merge, (a', rep) is one read of the step table at
    (e, a).  After a pop the next tail syllable has the other tag, so no
    merge cascades: one table step per syllable.
    """
    act, steps = spec._left_action, spec._steps
    carry = 0  # element of A, H-side index
    tail: list[tuple[str, int]] = []  # tn ... t1
    for tag, e in reversed(w.syllables):
        if tail and tail[-1][0] == tag:
            tab, into, cosets = act[tag]
            carry, rep = cosets[tab[tab[e][into[carry]]][tail.pop()[1]]]
        else:
            try:
                carry, rep = steps[tag][e][carry]
            except KeyError:
                raise IndexOutOfRange(f"bad factor tag {tag!r}") from None
        if rep:
            tail.append((tag, rep))
    tail.reverse()
    return NormalForm(carry, tuple(tail))


def equal_in_g(spec: AmalgamSpec, u: Word, v: Word) -> bool:
    return normal_form(spec, u) == normal_form(spec, v)


def _cyclic(spec: AmalgamSpec, w: Word) -> tuple[Word, Word]:
    """A cyclically reduced c and the syllables z moved to reach it, with
    z^-1 * w * z = c in G, unchecked.  A first syllable of the last one's
    factor moves to z and to the end; z is left unreduced."""
    tab, across = spec._tables, spec._across
    syl = deque(reduce(spec, w).syllables)
    moved = []
    while len(syl) > 1 and syl[0][0] == syl[-1][0]:
        s = syl.popleft()
        moved.append(s)
        _push(tab, across, syl, (s,))
        _close(tab, across, syl)
    return Word(tuple(syl)), Word(tuple(moved))


def _check_cyclic(spec: AmalgamSpec, w: Word, c: Word, z: Word) -> None:
    """Raise VerificationFailed unless z^-1 * w * z = c in G, by normal
    forms; skipped when z is empty and c is w syllable for syllable."""
    if ((z.syllables or c.syllables != w.syllables)
            and not equal_in_g(spec, inverse(spec, z).concat(w).concat(z), c)):
        raise VerificationFailed("cyclic conjugator failed verification")


def cyclically_reduce(spec: AmalgamSpec, w: Word) -> tuple[Word, Word]:
    """A cyclically reduced c and reduced conjugator z with z^-1 * w * z = c
    in G; a first syllable of the last one's factor moves to z and to the
    end.  Checked by normal forms: z^-1 * w * z = c when something moved,
    otherwise w = c unless c is w syllable for syllable."""
    c, moved = _cyclic(spec, w)
    z = reduce(spec, moved)
    _check_cyclic(spec, w, c, z)
    return c, z


def _label_matches(spec: AmalgamSpec, cx: Word, cy: Word) -> list[int]:
    """The rotations i of cx that agree with cy position by position in
    (tag, double-coset label).  cx and cy are cyclically reduced, of equal
    length >= 2, so their tags alternate: a rotation has cy's tags exactly
    when its first tag is cy's, and then only the labels are compared."""
    dc = spec._double_cosets
    lx = [dc[tag][e] for tag, e in cx.syllables] * 2
    ly = [dc[tag][e] for tag, e in cy.syllables]
    n, first = len(ly), ly[0]
    start = 0 if cx.syllables[0][0] == cy.syllables[0][0] else 1
    return [i for i in range(start, n, 2)
            if lx[i] == first and lx[i:i + n] == ly]


@dataclass(frozen=True, slots=True)
class ConjugacyVerdict:
    conjugate: bool
    conjugator: Optional[Word]
    certificate: tuple
    """For CONJUGATE: ('conjugator', ...) with the verified conjugator word.
    For NOT-CONJUGATE: the exhausted comparison, one of
    ('length-mismatch', m, n), ('closure-exhausted', <sorted closure of a
    length-1 x>) or ('exhausted', <syllables of the cyclically reduced x>,
    <the elements a of A tried with each of its rotations>)."""
    reduced: Optional[tuple[Word, Word]] = field(default=None, compare=False)
    """For NOT-CONJUGATE: the cyclically reduced conjugates (cx, cy) of x
    and y that the decision compared; None for CONJUGATE."""
    moved: Optional[tuple[Word, Word]] = field(default=None, compare=False)
    """For NOT-CONJUGATE: the syllables (zx, zy), unreduced, moved to reach
    (cx, cy), so that zx^-1 * x * zx = cx and zy^-1 * y * zy = cy in G, as
    ``_check_reductions`` checks before a public decider returns the
    verdict; None for CONJUGATE.  Neither ``moved`` nor ``reduced`` is
    compared, so they leave verdict equality alone."""


def _verified(spec: AmalgamSpec, x: Word, y: Word, z: Word) -> ConjugacyVerdict:
    z = reduce(spec, z)
    if not equal_in_g(spec, inverse(spec, z).concat(x).concat(z), y):
        raise VerificationFailed("conjugator failed verification")
    return ConjugacyVerdict(True, z, ("conjugator", z.syllables))


def _check_reductions(spec: AmalgamSpec, x: Word, y: Word,
                      verdict: ConjugacyVerdict) -> None:
    """Raise VerificationFailed unless the cyclic reductions a negative
    verdict rests on hold in G: z^-1 * w * z = c for each input w, with c
    from ``verdict.reduced`` and z from ``verdict.moved``.  A positive
    verdict needs no such check, as ``_verified`` has checked its
    conjugator."""
    if not verdict.conjugate:
        for w, c, z in zip((x, y), verdict.reduced, verdict.moved):
            _check_cyclic(spec, w, c, z)


def _length1_closure(spec: AmalgamSpec, tag: str, e: int) -> dict[tuple[str, int], Word]:
    """Fixpoint closure of the factor conjugacy class of a length-<=1 element
    under transport through the amalgamated subgroups.  Maps each reachable
    (tag, element) to a word z with z^-1 x z equal to it, breadth first.  A
    factor class is listed from the element that entered it; its other
    elements add only their transports."""
    reached: dict[tuple[str, int], Word] = {(tag, e): EMPTY}
    frontier = deque([(tag, e, True)])
    while frontier:
        t, v, entered = frontier.popleft()
        zv = reached[(t, v)]
        if entered:
            G = spec.factor(t)
            tab, inv = G.table, G._inv
            for c in G.elements():  # c = 0 gives v, already reached
                nxt = (t, tab[tab[inv[c]][v]][c])
                if nxt not in reached:
                    reached[nxt] = Word(zv.syllables + ((t, c),))
                    frontier.append((*nxt, False))
        across = spec._across[t]
        if v in across:
            other = TAG_K if t == TAG_H else TAG_H
            nxt = (other, across[v])
            if nxt not in reached:
                reached[nxt] = zv
                frontier.append((*nxt, True))
    return reached


def _decide(spec: AmalgamSpec, x: Word, y: Word) -> ConjugacyVerdict:
    """The decision of ``is_conjugate_general``.  A positive verdict comes
    with its conjugator checked.  A negative one comes with its cyclic
    reductions unchecked: ``_check_reductions`` checks them from the
    verdict's ``reduced`` and ``moved`` pairs."""
    cx, zx = _cyclic(spec, x)
    cy, zy = _cyclic(spec, y)
    if len(cx) != len(cy):
        reason = ("length-mismatch", len(cx), len(cy))
    elif len(cx) == 0:
        return _verified(spec, x, y, zx.concat(inverse(spec, zy)))
    elif len(cx) == 1:
        closure = _length1_closure(spec, *cx.syllables[0])
        ty, ey = cy.syllables[0]
        if (ty, ey) in closure:
            return _verified(spec, x, y, zx.concat(closure[(ty, ey)])
                             .concat(inverse(spec, zy)))
        reason = ("closure-exhausted", tuple(sorted(closure)))
    else:
        a_tried = (0,) if spec.central else spec.A.elements
        nfy = normal_form(spec, cy)
        for i in _label_matches(spec, cx, cy):
            prefix = Word(cx.syllables[:i])
            u = Word(cx.syllables[i:] + prefix.syllables)
            for a in a_tried:
                a_word = word([(TAG_H, a)])
                cand = inverse(spec, a_word).concat(u).concat(a_word)
                if normal_form(spec, cand) == nfy:
                    return _verified(spec, x, y, zx.concat(prefix)
                                     .concat(a_word).concat(inverse(spec, zy)))
        reason = ("exhausted", cx.syllables, a_tried)
    return ConjugacyVerdict(False, None, reason, (cx, cy), (zx, zy))


def is_conjugate_general(spec: AmalgamSpec, x: Word, y: Word) -> ConjugacyVerdict:
    """Conjugacy decision in G (Magnus-Karrass-Solitar, Thm 4.6).

    Length > 1: finite search over a^-1 * u * a, a in A and u a cyclic
    permutation whose syllables share y's double-coset labels; conjugating
    by a keeps each syllable in its double coset, so no other u can match.
    When A and B are central in the factors, A is central in G, so
    a^-1 * u * a = u and only a = 1 is tried.
    Length <= 1: membership in the transport-closure of the factor class.
    A negative verdict carries the cyclically reduced conjugates (cx, cy)
    of x and y that it compared and the syllables moved to reach them
    (``ConjugacyVerdict.reduced`` and ``moved``).

    Each check backs the answer it is made for.  A positive verdict checks
    only its whole conjugator, z^-1 * x * z = y.  A negative one checks
    both cyclic reductions (``_check_reductions``) as
    ``cyclically_reduce`` does, since its certificate and ``reduced`` pair
    are read from them.
    """
    verdict = _decide(spec, x, y)
    _check_reductions(spec, x, y, verdict)
    return verdict


def is_conjugate_central(spec: AmalgamSpec, x: Word, y: Word) -> ConjugacyVerdict:
    """``is_conjugate_general`` behind a check: raises NotCentral unless A
    and B are central in H and K."""
    if not spec.central:
        raise NotCentral("amalgamated subgroups are not central in the factors")
    return is_conjugate_general(spec, x, y)
