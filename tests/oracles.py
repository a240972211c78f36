"""Independent oracles used by the tests.

These deliberately avoid the library's normal-form pushdown: equality is
decided by reachability in the merge/absorb/transport rewriting graph, and
conjugacy by exhaustive conjugator search.  The agreeing homomorphism
pairs are listed by a plain loop over Hom(H, X) and Hom(K, X), with none of
the witness search's deduplication, and the homomorphisms themselves by
trying every assignment of generator images against the full n^2 law
(``brute_force_homs``), not by the library's hom kernel.

The reference word layer (``ref_*``) is the word layer as it was before
the one-pass reduction and the lookup tables: ``ref_reduce`` runs a whole
merge pass again after every flip of an amalgamated syllable,
``ref_cyclically_reduce`` reduces the whole word again for every rotation,
``ref_normal_form`` reduces before its coset pass, and
``ref_is_conjugate_general`` tries every rotation with every a in A and
expands the whole factor class of every element its length-1 closure
reaches.  It reads only ``spec.phi``, the element lists of the
amalgamated subgroups and the factor tables, never the spec's derived
lookups (``_left_action``, ``_double_cosets``, ``_across``, ``central``)
that the library's word layer reads.

``ref_cyclic_by_push`` is the library's unchecked cyclic reduction
(``amalgam._cyclic``) as it was before it merged each moved syllable in
place: every rotation pushes the moved syllable onto the right end of a
deque and closes it, through the push and close helpers that ``reduce``
used then, copied with it unchanged.  It starts from the library's
``reduce``, which the tests hold to ``ref_reduce``.

``ref_enumerate_cyclically_reduced`` is the enumerator as it was before
it built only words of least left-coset representatives: it builds every
alternating word of syllables outside the amalgam and keeps the first one
met per element, deduplicating by the library's ``normal_form`` (which
the tests hold to ``ref_normal_form``).
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache
from typing import Iterator

from amalgams.amalgam import (
    EMPTY, TAG_H, TAG_K, AmalgamSpec, ConjugacyVerdict, NormalForm, Word, word)
from amalgams import amalgam as am
from amalgams import fingroup
from amalgams.errors import VerificationFailed


def other_tag(tag: str) -> str:
    return TAG_K if tag == TAG_H else TAG_H


def ref_in_amalg(spec: AmalgamSpec, tag: str, e: int) -> bool:
    return e in frozenset(spec.amalg(tag).elements)


def ref_transport(spec: AmalgamSpec, tag: str, e: int) -> int:
    """phi(e) for tag H, phi^-1(e) for tag K."""
    return dict(spec.phi)[e] if tag == TAG_H else {b: a for a, b in spec.phi}[e]


def ref_coset_decompose(spec: AmalgamSpec, tag: str, e: int) -> tuple[int, int]:
    """(a, rep) with e = a * rep, a in the amalgamated subgroup of the
    factor and rep the least element of the right coset of e."""
    G = spec.factor(tag)
    rep = min(G.mul(a, e) for a in spec.amalg(tag).elements)
    return G.mul(e, G.inv(rep)), rep


def ref_central(spec: AmalgamSpec) -> bool:
    """Whether A and B commute with every element of H and K."""
    return all(G.mul(s, g) == G.mul(g, s)
               for tag in (TAG_H, TAG_K) for G in (spec.factor(tag),)
               for s in spec.amalg(tag).elements for g in G.elements())


def ref_merge_pass(spec: AmalgamSpec, syl) -> list[tuple[str, int]]:
    out = []
    for tag, e in syl:
        if out and out[-1][0] == tag:
            merged = spec.factor(tag).mul(out[-1][1], e)
            out.pop()
            if merged != 0:
                out.append((tag, merged))
        elif e != 0:
            out.append((tag, e))
    return out


def ref_reduce(spec: AmalgamSpec, w: Word) -> Word:
    syl = list(w.syllables)
    while True:
        syl = ref_merge_pass(spec, syl)
        if len(syl) <= 1:
            break
        for i, (tag, e) in enumerate(syl):
            if ref_in_amalg(spec, tag, e):
                syl[i] = (other_tag(tag), ref_transport(spec, tag, e))
                break
        else:
            break
    if len(syl) == 1 and syl[0][0] == TAG_K and ref_in_amalg(spec, TAG_K, syl[0][1]):
        syl = [(TAG_H, ref_transport(spec, TAG_K, syl[0][1]))]
    return Word(tuple(syl))


def ref_normal_form(spec: AmalgamSpec, w: Word) -> NormalForm:
    syl = ref_reduce(spec, w).syllables
    if len(syl) == 1 and ref_in_amalg(spec, *syl[0]):
        tag, e = syl[0]
        return NormalForm(e if tag == TAG_H else ref_transport(spec, TAG_K, e), ())
    carry = 0
    tail = []
    for tag, e in reversed(syl):
        G = spec.factor(tag)
        c = carry if tag == TAG_H else ref_transport(spec, TAG_H, carry)
        a, rep = ref_coset_decompose(spec, tag, G.mul(e, c))
        tail.append((tag, rep))
        carry = a if tag == TAG_H else ref_transport(spec, TAG_K, a)
    tail.reverse()
    return NormalForm(carry, tuple(tail))


def ref_equal_in_g(spec: AmalgamSpec, u: Word, v: Word) -> bool:
    return ref_normal_form(spec, u) == ref_normal_form(spec, v)


def render(nf: NormalForm) -> Word:
    """A word spelling the normal form."""
    head = [(TAG_H, nf.amalgam_part)] if nf.amalgam_part != 0 else []
    return word(head + list(nf.tail))


def is_cyclically_reduced(spec: AmalgamSpec, w: Word) -> bool:
    """Reduced, and of length <= 1 or with first and last syllables from
    different factors."""
    return ref_reduce(spec, w) == w and (
        len(w) <= 1 or w.syllables[0][0] != w.syllables[-1][0])


def ref_cyclically_reduce(spec: AmalgamSpec, w: Word) -> tuple[Word, Word]:
    c = ref_reduce(spec, w)
    z = EMPTY
    while len(c) > 1 and c.syllables[0][0] == c.syllables[-1][0]:
        first = Word(c.syllables[:1])
        c = ref_reduce(spec, Word(c.syllables[1:]).concat(first))
        z = z.concat(first)
    z = ref_reduce(spec, z)
    if not ref_equal_in_g(spec, am.inverse(spec, z).concat(w).concat(z), c):
        raise VerificationFailed("cyclic conjugator failed verification")
    return c, z


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


def ref_cyclic_by_push(spec: AmalgamSpec, w: Word) -> tuple[Word, Word]:
    """A cyclically reduced c and the syllables z moved to reach it, with
    z^-1 * w * z = c in G, unchecked.  A first syllable of the last one's
    factor moves to z and to the end; z is left unreduced."""
    tab, across = spec._tables, spec._across
    syl = deque(am.reduce(spec, w).syllables)
    moved = []
    while len(syl) > 1 and syl[0][0] == syl[-1][0]:
        s = syl.popleft()
        moved.append(s)
        _push(tab, across, syl, (s,))
        _close(tab, across, syl)
    return Word(tuple(syl)), Word(tuple(moved))


def ref_length1_closure(spec: AmalgamSpec, tag: str, e: int) -> dict:
    """Breadth-first closure of a length-<=1 element under factor
    conjugation and transport, expanding the whole factor class of every
    element reached."""
    start = (tag, e)
    reached = {start: EMPTY}
    frontier = [start]
    while frontier:
        (t, v) = frontier.pop(0)
        zv = reached[(t, v)]
        G = spec.factor(t)
        for c in G.elements():
            nxt = (t, G.conj(v, c))
            if nxt not in reached:
                reached[nxt] = zv.concat(word([(t, c)]))
                frontier.append(nxt)
        if ref_in_amalg(spec, t, v):
            nxt = (other_tag(t), ref_transport(spec, t, v))
            if nxt not in reached:
                reached[nxt] = zv
                frontier.append(nxt)
    return reached


def _ref_verified(spec: AmalgamSpec, x: Word, y: Word,
                  z: Word) -> ConjugacyVerdict:
    z = ref_reduce(spec, z)
    if not ref_equal_in_g(spec, am.inverse(spec, z).concat(x).concat(z), y):
        raise VerificationFailed("conjugator failed verification")
    return ConjugacyVerdict(True, z, ("conjugator", z.syllables))


def _ref_not(reason: tuple, cx: Word, cy: Word) -> ConjugacyVerdict:
    return ConjugacyVerdict(False, None, reason, (cx, cy))


def ref_is_conjugate_general(spec: AmalgamSpec, x: Word,
                             y: Word) -> ConjugacyVerdict:
    """Every rotation of x against every a in A; the certificate of a
    negative names the elements a that the library needs to try: a = 1
    alone when A is central in G."""
    cx, zx = ref_cyclically_reduce(spec, x)
    cy, zy = ref_cyclically_reduce(spec, y)
    zy_inv = am.inverse(spec, zy)
    if len(cx) != len(cy):
        return _ref_not(("length-mismatch", len(cx), len(cy)), cx, cy)
    if len(cx) == 0:
        return _ref_verified(spec, x, y, zx.concat(zy_inv))
    if len(cx) == 1:
        closure = ref_length1_closure(spec, *cx.syllables[0])
        ty, ey = cy.syllables[0]
        if (ty, ey) in closure:
            return _ref_verified(spec, x, y,
                                 zx.concat(closure[(ty, ey)]).concat(zy_inv))
        return _ref_not(("closure-exhausted", tuple(sorted(closure))), cx, cy)
    A = spec.amalg(TAG_H).elements
    nfy = ref_normal_form(spec, cy)
    for i in range(len(cx)):
        prefix, rest = cx.syllables[:i], cx.syllables[i:]
        u = Word(rest + prefix)
        for a in A:
            a_word = word([(TAG_H, a)])
            cand = ref_reduce(spec, am.inverse(spec, a_word).concat(u)
                              .concat(a_word))
            if ref_normal_form(spec, cand) == nfy:
                return _ref_verified(spec, x, y, zx.concat(Word(prefix))
                                     .concat(a_word).concat(zy_inv))
    a_tried = (0,) if ref_central(spec) else A
    return _ref_not(("exhausted", cx.syllables, a_tried), cx, cy)


@lru_cache(maxsize=None)
def brute_force_homs(G: fingroup.FiniteGroup,
                     X: fingroup.FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The image tuples of every homomorphism G -> X: every assignment of
    images to G's greedy generating sequence, in lexicographic order,
    extended along a search from the identity and kept when it passes the
    full n^2 homomorphism law.  Built once per (G, X)."""
    gens = fingroup.generating_sequence(G)
    out = []
    for assignment in itertools.product(X.elements(), repeat=len(gens)):
        images = {0: 0}
        frontier = [0]
        while frontier:
            a = frontier.pop()
            for s, x in zip(gens, assignment):
                b = G.mul(a, s)
                if b not in images:
                    images[b] = X.mul(images[a], x)
                    frontier.append(b)
        h = fingroup.GroupHom(G, X, tuple(images[e] for e in G.elements()))
        if h.is_valid():
            out.append(h.images)
    return tuple(out)


def agreeing_pairs(spec: AmalgamSpec, X: fingroup.FiniteGroup
                   ) -> Iterator[tuple[fingroup.GroupHom, fingroup.GroupHom]]:
    """All (psi_H, psi_K) into X with psi_K(a phi) = psi_H(a) on A, in
    canonical enumeration order (psi_H outer), each factor's homs in
    ``brute_force_homs`` order.  Hom(K, X) is bucketed by its images on B,
    listed in phi order.  The reference for the witness search's
    deduplicated pair walk."""
    by_b: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for k in brute_force_homs(spec.K, X):
        by_b.setdefault(tuple(k[b] for _, b in spec.phi), []).append(k)
    for h in brute_force_homs(spec.H, X):
        for k in by_b.get(tuple(h[a] for a, _ in spec.phi), ()):
            yield fingroup.GroupHom(spec.H, X, h), fingroup.GroupHom(spec.K, X, k)


def syllable_alphabet(spec: AmalgamSpec) -> list[tuple[str, int]]:
    out = [(TAG_H, e) for e in range(1, spec.H.order)]
    out += [(TAG_K, e) for e in range(1, spec.K.order)]
    return out


def all_words(spec: AmalgamSpec, max_len: int) -> list[tuple]:
    alpha = syllable_alphabet(spec)
    words = []
    for n in range(max_len + 1):
        words.extend(itertools.product(alpha, repeat=n))
    return words


def rewrite_moves(spec: AmalgamSpec, w: tuple) -> list[tuple]:
    """Single rewriting steps: merge adjacent same-tag syllables, flip a
    syllable lying in the amalgamated subgroup to the other factor, and
    shift an amalgamated element between adjacent syllables."""
    out = []
    n = len(w)
    for i in range(n - 1):
        (t1, e1), (t2, e2) = w[i], w[i + 1]
        if t1 == t2:
            m = spec.factor(t1).mul(e1, e2)
            mid = ((t1, m),) if m != 0 else ()
            out.append(w[:i] + mid + w[i + 2:])
    for i in range(n):
        t, e = w[i]
        if ref_in_amalg(spec, t, e):
            flipped = (other_tag(t), ref_transport(spec, t, e))
            out.append(w[:i] + (flipped,) + w[i + 1:])
    phi = dict(spec.phi)
    for i in range(n - 1):
        (t1, e1), (t2, e2) = w[i], w[i + 1]
        for a in spec.amalg(TAG_H).elements:
            if a == 0:
                continue
            a1 = a if t1 == TAG_H else phi[a]
            a2 = a if t2 == TAG_H else phi[a]
            left = spec.factor(t1).mul(e1, spec.factor(t1).inv(a1))
            right = spec.factor(t2).mul(a2, e2)
            mid = tuple(s for s in ((t1, left), (t2, right)) if s[1] != 0)
            out.append(w[:i] + mid + w[i + 2:])
    return out


def shorten(spec: AmalgamSpec, w: tuple, max_len: int) -> tuple:
    """Rewrite w until it has at most max_len syllables, each step taking
    the first move, or pair of moves, that makes it shorter.  A word that is
    not reduced has such a step: a merge, or a flip followed by a merge."""
    while len(w) > max_len:
        shorter = [v for v in rewrite_moves(spec, w) if len(v) < len(w)]
        w = shorter[0] if shorter else next(
            v2 for v in rewrite_moves(spec, w)
            for v2 in rewrite_moves(spec, v) if len(v2) < len(w))
    return w


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def rewriting_components(spec: AmalgamSpec, max_len: int) -> dict[tuple, tuple]:
    """Map every word of length <= max_len to a component representative of
    the rewriting-reachability relation.  Two words denote the same element
    of G iff they share a component."""
    uf = _UnionFind()
    for w in all_words(spec, max_len):
        uf.find(w)
        for nxt in rewrite_moves(spec, w):
            uf.union(w, nxt)
    return {w: uf.find(w) for w in list(uf.parent)}


def conjugator_candidates(spec: AmalgamSpec, max_len: int) -> list[Word]:
    """All alternating words of length <= max_len (covers every element of
    that length)."""
    out = [am.EMPTY]
    for n in range(1, max_len + 1):
        for start in (TAG_H, TAG_K):
            tags = [(TAG_H, TAG_K)[(i + (start == TAG_K)) % 2] for i in range(n)]
            pools = [range(1, spec.factor(t).order) for t in tags]
            for combo in itertools.product(*pools):
                out.append(Word(tuple(zip(tags, combo))))
    return out


def brute_force_conjugate(spec: AmalgamSpec, x: Word, y: Word,
                          conjugators: list[Word]) -> bool:
    """One-sided: search z with z^-1 x z = y among the given candidates."""
    nfy = am.normal_form(spec, y)
    for z in conjugators:
        zi = am.inverse(spec, z)
        if am.normal_form(spec, zi.concat(x).concat(z)) == nfy:
            return True
    return False


def free_product_conjugate(spec: AmalgamSpec, x: Word, y: Word) -> bool:
    """Cyclic-word oracle for free products (trivial amalgamation): conjugate
    iff the cyclically reduced forms are rotations of each other, with factor
    conjugacy at length 1."""
    assert len(spec.A) == 1 and len(spec.B) == 1

    def cyc(w: Word) -> tuple:
        syl = list(w.syllables)
        changed = True
        while changed:
            changed = False
            out = []
            for tag, e in syl:
                if out and out[-1][0] == tag:
                    m = spec.factor(tag).mul(out[-1][1], e)
                    out.pop()
                    if m != 0:
                        out.append((tag, m))
                    changed = True
                elif e != 0:
                    out.append((tag, e))
            syl = out
            while len(syl) > 1 and syl[0][0] == syl[-1][0]:
                syl = syl[1:] + syl[:1]
                changed = True
        return tuple(syl)

    cx, cy = cyc(x), cyc(y)
    if len(cx) != len(cy):
        return False
    if len(cx) == 0:
        return True
    if len(cx) == 1:
        (tx, ex), (ty, ey) = cx[0], cy[0]
        return tx == ty and fingroup.are_conjugate_in(spec.factor(tx), ex, ey) is not None
    return any(cx[i:] + cx[:i] == cy for i in range(len(cx)))


def _derived_cosets(G: fingroup.FiniteGroup) -> list[frozenset]:
    """Per element of G, its coset of the derived subgroup G', G' grown
    from the commutators by multiplying until nothing new appears."""
    derived = {G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y))
               for x in G.elements() for y in G.elements()}
    while True:
        grown = derived | {G.mul(x, y) for x in derived for y in derived}
        if grown == derived:
            break
        derived = grown
    return [frozenset(G.mul(e, d) for d in derived) for e in G.elements()]


def ref_agree_in_abelian_p_quotient(spec: AmalgamSpec, p: int, u: Word,
                                    v: Word) -> bool:
    """Whether u and v have equal images in the largest abelian p-quotient
    of G, G^ab divided by its p'-part.  G^ab is H/H' x K/K' divided by the
    relation subgroup R of the pairs (a, phi(a)^-1), a in A, so the images
    agree exactly when the order of u v^-1 modulo R, the least n >= 1
    with (u v^-1)^n in R, is prime to p.  The image of a word in H/H' x
    K/K' is the pair of cosets of its H-letters' and its K-letters'
    products, in word order."""
    cosets = {TAG_H: _derived_cosets(spec.H), TAG_K: _derived_cosets(spec.K)}

    def image(w: Word) -> dict[str, int]:
        out = {TAG_H: 0, TAG_K: 0}
        for tag, e in w:
            out[tag] = spec.factor(tag).mul(out[tag], e)
        return out

    def coset_pair(h: int, k: int) -> tuple[frozenset, frozenset]:
        return cosets[TAG_H][h], cosets[TAG_K][k]

    relations = {coset_pair(a, spec.K.inv(b)) for a, b in spec.phi}
    x, y = image(u), image(v)
    d = {tag: spec.factor(tag).mul(x[tag], spec.factor(tag).inv(y[tag]))
         for tag in (TAG_H, TAG_K)}
    power, n = dict(d), 1
    while coset_pair(power[TAG_H], power[TAG_K]) not in relations:
        power = {tag: spec.factor(tag).mul(power[tag], d[tag])
                 for tag in (TAG_H, TAG_K)}
        n += 1
    return n % p != 0


def ref_enumerate_cyclically_reduced(spec: AmalgamSpec,
                                     max_length: int) -> tuple[Word, ...]:
    """One representative word per distinct cyclically reduced element of
    length <= max_length (deduplicated by normal form).  The candidates
    are cyclically reduced as built: longer ones alternate syllables
    outside the amalgam, first tag != last, so their length is even (there
    are no cyclically reduced elements of odd length >= 3); a K-syllable
    in B shares its normal form with the H-syllable listed before it."""
    words: list[Word] = [am.EMPTY]
    if max_length >= 1:
        words += [am.word([(tag, e)]) for tag in (TAG_H, TAG_K)
                  for e in range(1, spec.factor(tag).order)]
    for n in range(2, max_length + 1, 2):
        for start in (TAG_H, TAG_K):
            tags = [(TAG_H, TAG_K)[(i + (start == TAG_K)) % 2] for i in range(n)]
            pools = [[e for e in range(1, spec.factor(tag).order)
                      if e not in spec.amalg(tag)] for tag in tags]
            for combo in itertools.product(*pools):
                words.append(Word(tuple(zip(tags, combo))))
    first: dict[am.NormalForm, Word] = {}
    for w in words:
        first.setdefault(am.normal_form(spec, w), w)
    return tuple(first.values())
