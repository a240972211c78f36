"""Words, reduced forms, normal forms, and conjugacy in G = (H*K; A=B, phi).

A word is an alternating-or-not sequence of syllables (tag, element index)
with tag 'H' or 'K'; the empty word is the identity of G.  Reduction merges
adjacent same-factor syllables, then absorbs syllables lying in the
amalgamated subgroup by transporting them across phi: into the left
neighbour, or the right one for a leading syllable.  The canonical normal
form uses fixed right transversals with minimal-index coset representatives,
so equality in G is decidable by comparison.  It is computed from the raw
syllables in one right-to-left pass, each syllable acting from the left on
the normal form built so far, and does not call the reduction: the
conjugator checks, which compare normal forms, share no code with the
reduction and rotation whose output they check.

One decider, ``is_conjugate_general``, applies the conjugacy theorem for
amalgamated products: cyclically reduced conjugates of length >= 2 differ
by a cyclic permutation and then a conjugation by some a in A.  It compares
u, v through their normal forms only for the rotations u' of u whose
syllables lie, position by position, in the double cosets A*v_i*A (B*v_i*B
for K).  That filter is exact: if a^-1*u'*a = v with a in A, the normal
form theorem puts each v_i in A*u'_i*A, so a rotation it drops never passes
the normal form test.  When A is central in both factors it is central in
G, so a = 1 alone is tried.  ``is_conjugate_central`` is the same decider
behind a check that the amalgam is central.

Each answer is checked by normal forms on the path that returns it.  A
positive verdict checks z^-1*x*z = y for its whole conjugator z, which
backs it whatever the cyclic reductions were, so the reductions it went
through are not checked on their own.  A negative verdict rests on the
cyclic reductions c of x and y, so it first checks each: z^-1*w*z = c
when syllables moved to z, otherwise w = c unless c is w syllable for
syllable.  ``cyclically_reduce`` makes the same check.
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
    double-coset labels read from it.
    ``p_residuals`` holds, per prime p, the p-residual pair that
    ``quotients.p_residual`` builds on first request.
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
            rows = []
            for e in G.elements():
                rep = min(G.mul(a, e) for a in sub)
                rows.append((to_h[G.mul(e, G.inv(rep))], rep))
            out[tag] = (G.table, tuple(into), tuple(rows))
        return out

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
    for a1 in A_sub.elements:
        for a2 in A_sub.elements:
            if phi[H.mul(a1, a2)] != K.mul(phi[a1], phi[a2]):
                raise PhiNotIso(f"phi not a homomorphism at ({a1},{a2})")
    return AmalgamSpec(H, K, A_sub, B_sub, tuple(sorted(phi.items())))


def _push(tab, across, out, syllables) -> None:
    """Push syllables onto ``out``, a reduced word with an open right end.
    A syllable merges with a last syllable of its factor; an amalgamated
    last syllable of the other factor is flipped into its left neighbour,
    which then merges with the syllable, or when alone into the syllable."""
    for tag, e in syllables:
        if out:
            top_tag, top = out[-1]
            if top_tag == tag:
                out.pop()
                e = tab[tag][top][e]
            elif top in across[top_tag]:
                out.pop()
                t, top = tab[tag], across[top_tag][top]
                e = t[t[out.pop()[1]][top]][e] if out else t[top][e]
        if e:
            out.append((tag, e))


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
    for tag, e in w.syllables:
        if merged and merged[-1][0] == tag:
            e = tab[tag][merged.pop()[1]][e]
        if e:
            merged.append((tag, e))
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
    carry.  After a pop the next tail syllable has the other tag, so no
    merge cascades: one table step per syllable.
    """
    act = spec._left_action
    carry = 0  # element of A, H-side index
    tail: list[tuple[str, int]] = []  # tn ... t1
    for tag, e in reversed(w.syllables):
        try:
            tab, into, cosets = act[tag]
        except KeyError:
            raise IndexOutOfRange(f"bad factor tag {tag!r}") from None
        y = tab[e][into[carry]]
        if tail and tail[-1][0] == tag:
            y = tab[y][tail.pop()[1]]
        carry, rep = cosets[y]
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
        moved.append(syl.popleft())
        _push(tab, across, syl, moved[-1:])
        _close(tab, across, syl)
    return Word(tuple(syl)), Word(tuple(moved))


def _check_cyclic(spec: AmalgamSpec, w: Word, c: Word, z: Word) -> None:
    """Raise VerificationFailed unless z^-1 * w * z = c in G, by normal
    forms.  With z empty that is w = c, which needs no check when c is w
    syllable for syllable."""
    if z.syllables:
        if not equal_in_g(spec, inverse(spec, z).concat(w).concat(z), c):
            raise VerificationFailed("cyclic conjugator failed verification")
    elif c.syllables != w.syllables and not equal_in_g(spec, w, c):
        raise VerificationFailed("cyclic reduction failed verification")


def cyclically_reduce(spec: AmalgamSpec, w: Word) -> tuple[Word, Word]:
    """A cyclically reduced c and reduced conjugator z with z^-1 * w * z = c
    in G; a first syllable of the last one's factor moves to z and to the
    end.  Checked by normal forms: z^-1 * w * z = c when something moved,
    otherwise w = c unless c is w syllable for syllable."""
    c, moved = _cyclic(spec, w)
    z = reduce(spec, moved)
    _check_cyclic(spec, w, c, z)
    return c, z


def _rotation(w: Word, i: int) -> Word:
    """The rotation x_i...x_n x_1...x_{i-1}, unchecked: the decider rotates
    only cyclically reduced words from ``_cyclic``."""
    return Word(w.syllables[i:] + w.syllables[:i])


def _label_matches(spec: AmalgamSpec, cx: Word, cy: Word) -> list[int]:
    """The rotations i of cx that agree with cy position by position in
    (tag, double-coset label); cx and cy have equal length."""
    dc = spec._double_cosets
    lx = [(tag, dc[tag][e]) for tag, e in cx.syllables] * 2
    ly = [(tag, dc[tag][e]) for tag, e in cy.syllables]
    n = len(ly)
    return [i for i in range(n) if lx[i:i + n] == ly]


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
    and y that the decision compared, each checked against its input by
    normal forms before the verdict is returned; None for CONJUGATE.  Not
    compared, so it leaves verdict equality alone."""


def _verified(spec: AmalgamSpec, x: Word, y: Word, z: Word) -> ConjugacyVerdict:
    z = reduce(spec, z)
    if not equal_in_g(spec, inverse(spec, z).concat(x).concat(z), y):
        raise VerificationFailed("conjugator failed verification")
    return ConjugacyVerdict(True, z, ("conjugator", z.syllables))


def _not(spec: AmalgamSpec, reason: tuple, x: Word, y: Word,
         cx: Word, zx: Word, cy: Word, zy: Word) -> ConjugacyVerdict:
    """A negative verdict, once the cyclic reductions it rests on pass
    their checks."""
    _check_cyclic(spec, x, cx, zx)
    _check_cyclic(spec, y, cy, zy)
    return ConjugacyVerdict(False, None, reason, (cx, cy))


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


def is_conjugate_general(spec: AmalgamSpec, x: Word, y: Word) -> ConjugacyVerdict:
    """Conjugacy decision in G (Magnus-Karrass-Solitar, Thm 4.6).

    Length > 1: finite search over a^-1 * u * a, a in A and u a cyclic
    permutation whose syllables share y's double-coset labels; conjugating
    by a keeps each syllable in its double coset, so no other u can match.
    When A and B are central in the factors, A is central in G, so
    a^-1 * u * a = u and only a = 1 is tried.
    Length <= 1: membership in the transport-closure of the factor class.
    A negative verdict carries the cyclically reduced conjugates (cx, cy)
    of x and y that it compared (``ConjugacyVerdict.reduced``).

    Each check backs the answer it is made for.  A positive verdict checks
    only its whole conjugator, z^-1 * x * z = y.  A negative one checks
    both cyclic reductions as ``cyclically_reduce`` does, since its
    certificate and ``reduced`` pair are read from them.
    """
    cx, zx = _cyclic(spec, x)
    cy, zy = _cyclic(spec, y)
    if len(cx) != len(cy):
        return _not(spec, ("length-mismatch", len(cx), len(cy)),
                    x, y, cx, zx, cy, zy)
    if len(cx) == 0:
        return _verified(spec, x, y, zx.concat(inverse(spec, zy)))
    if len(cx) == 1:
        closure = _length1_closure(spec, *cx.syllables[0])
        ty, ey = cy.syllables[0]
        if (ty, ey) in closure:
            return _verified(spec, x, y, zx.concat(closure[(ty, ey)])
                             .concat(inverse(spec, zy)))
        return _not(spec, ("closure-exhausted", tuple(sorted(closure))),
                    x, y, cx, zx, cy, zy)
    a_tried = (0,) if spec.central else spec.A.elements
    nfy = normal_form(spec, cy)
    for i in _label_matches(spec, cx, cy):
        prefix, u = Word(cx.syllables[:i]), _rotation(cx, i)
        for a in a_tried:
            a_word = word([(TAG_H, a)])
            cand = inverse(spec, a_word).concat(u).concat(a_word)
            if normal_form(spec, cand) == nfy:
                return _verified(spec, x, y, zx.concat(prefix).concat(a_word)
                                 .concat(inverse(spec, zy)))
    return _not(spec, ("exhausted", cx.syllables, a_tried),
                x, y, cx, zx, cy, zy)


def is_conjugate_central(spec: AmalgamSpec, x: Word, y: Word) -> ConjugacyVerdict:
    """``is_conjugate_general`` behind a check: raises NotCentral unless A
    and B are central in H and K."""
    if not spec.central:
        raise NotCentral("amalgamated subgroups are not central in the factors")
    return is_conjugate_general(spec, x, y)
