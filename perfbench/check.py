"""Independent checks of each verdict.

A witness is re-checked from its serialized certificate with loops over the
multiplication tables; a conjugator with `amalgam.equal_in_g`; a verdict
whose answer is known (C2 * C3 at p = 2, the word pairs built conjugate or
proved non-conjugate) against that answer; and on central amalgams the other
conjugacy decider must agree.  Each check returns an error message, or ""
when the verdict holds.
"""

from __future__ import annotations

from amalgams import amalgam as am
from amalgams import fileio
from amalgams.amalgam import TAG_H, TAG_K, AmalgamSpec, Word

from corpus import Query, conjugated

FOUND, CONJUGATE, EXHAUSTED, NOT_CONJUGATE = (
    "found", "conjugate", "exhausted", "not-conjugate")


def render(w: Word) -> str:
    return " ".join(f"{tag}:{e}" for tag, e in w)


def _is_hom(source, target, images) -> bool:
    n = len(source)
    return len(images) == n and all(
        images[source[a][b]] == target[images[a]][images[b]]
        for a in range(n) for b in range(n))


def _image(table, psi, w: Word) -> int:
    x = 0
    for tag, e in w:
        x = table[x][psi[tag][e]]
    return x


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def check_witness(q: Query, witness, cert: dict) -> str:
    spec = q.spec
    X = cert["target"].table
    psi = {TAG_H: cert["psi_H"], TAG_K: cert["psi_K"]}
    if (cert["f"], cert["g"]) != (render(q.x), render(q.y)):
        return "certificate names other elements"
    if X != witness.target.table:
        return "certificate target differs from the witness"
    if not (_is_hom(spec.H.table, X, psi[TAG_H])
            and _is_hom(spec.K.table, X, psi[TAG_K])):
        return "witness map is not a homomorphism"
    if any(psi[TAG_H][a] != psi[TAG_K][b] for a, b in spec.phi):
        return "witness maps disagree on the amalgamated subgroup"
    if not _is_power_of(len(X), q.budget.p):
        return f"target order {len(X)} is not a power of {q.budget.p}"
    fi, gi = _image(X, psi, q.x), _image(X, psi, q.y)
    if (fi, gi) != (cert["images"]["f_image"], cert["images"]["g_image"]):
        return "certificate images are wrong"
    inv = [row.index(0) for row in X]
    if any(X[X[inv[t]][fi]][t] == gi for t in range(len(X))):
        return "witness images are conjugate in the target"
    return ""


def conjugator_holds(spec: AmalgamSpec, x: Word, y: Word, z) -> bool:
    return z is not None and am.equal_in_g(spec, conjugated(spec, x, z), y)


def _h_parity(w: Word) -> int:
    return sum(tag == TAG_H for tag, _ in w) % 2


def check_outcome(q: Query, outcome: str, conjugator) -> str:
    """Everything but the witness certificate."""
    spec = q.spec
    if outcome == CONJUGATE and not conjugator_holds(spec, q.x, q.y,
                                                     conjugator):
        return "conjugator fails"
    if q.conjugate is not None and (outcome == CONJUGATE) != q.conjugate:
        return f"known answer is conjugate={q.conjugate}, got {outcome}"
    if q.amalgam == "c2_c3" and outcome != CONJUGATE:
        # Every finite 2-quotient of C2 * C3 factors through C2, so a
        # witness exists iff the images in C2 differ.
        expected = FOUND if _h_parity(q.x) != _h_parity(q.y) else EXHAUSTED
        if outcome != expected:
            return f"C2 * C3 expects {expected}, got {outcome}"
    if spec.central and q.budget is not None and outcome != FOUND:
        other = am.is_conjugate_general(spec, q.x, q.y)
        if other.conjugate != (outcome == CONJUGATE):
            return "central and general deciders disagree"
        if other.conjugate and not conjugator_holds(spec, q.x, q.y,
                                                     other.conjugator):
            return "general decider's conjugator fails"
    return ""


def certify(q: Query, witness) -> dict:
    """Serialize a witness and parse it back."""
    return fileio.parse_certificate(
        fileio.serialize_certificate(q.spec, witness, q.x, q.y))
