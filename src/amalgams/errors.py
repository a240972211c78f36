"""Exception types shared across the library."""


class AmalgamsError(Exception):
    """Base class for all library errors."""


class NotAGroup(AmalgamsError):
    """Multiplication table fails a group axiom.

    ``reason`` is one of: not-a-latin-square, no-identity (element 0 is not
    the identity), non-associative.
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(f"{reason}" + (f": {detail}" if detail else ""))


class IndexOutOfRange(AmalgamsError):
    pass


class NotNormal(AmalgamsError):
    pass


class NotSubgroup(AmalgamsError):
    pass


class NotPrime(AmalgamsError):
    pass


class NotPPower(AmalgamsError):
    pass


class PhiNotIso(AmalgamsError):
    pass


class NotCentral(AmalgamsError):
    """Amalgamated subgroups are not central in their factors."""


class NotCompatible(AmalgamsError):
    pass


class NoRefinementFound(AmalgamsError):
    """No compatible refinement exists for the given normal subgroups.
    The library does not raise it; ``perfbench/spans.py`` names it."""


class NotConnected(AmalgamsError):
    pass


class WrongShape(AmalgamsError):
    """A graph of groups lists two edges under one name."""


class ElementsConjugate(AmalgamsError):
    """Witness search got inputs that are conjugate; carries the conjugator."""

    def __init__(self, conjugator):
        self.conjugator = conjugator
        super().__init__("input elements are conjugate")


class BudgetExhausted(AmalgamsError):
    """No witness found within the search budget.

    Raised as it is, the outcome is inconclusive: the budget ran out, and
    a larger one may or may not find a witness.  The subclass NotSeparable
    is the proved case: no witness exists at all.
    """


class NotSeparable(BudgetExhausted):
    """Proof that no finite p-group separates the inputs.

    Every homomorphism of G into a finite p-group kills (R*, S*), the end
    of the compatible lower exponent-p central series
    (``quotients.p_residual``), so it factors through G* = H/R* * K/S*;
    the inputs' images are conjugate there.  Carries R*, S* and
    ``conjugator``, a word of G* conjugating the image of the first input
    to that of the second.  A subclass of BudgetExhausted, so callers
    that treat an exhausted search as "no witness" treat the proof alike.
    """

    def __init__(self, R, S, conjugator, p):
        self.R, self.S, self.conjugator = R, S, conjugator
        super().__init__(
            f"no finite {p}-group separates the inputs (p-residual proof): "
            f"every homomorphism onto a finite {p}-group factors through "
            f"H/R* * K/S* with |R*| = {len(R)} and |S*| = {len(S)}, where "
            f"the inputs' images are conjugate by "
            f"{' '.join(f'{t}:{e}' for t, e in conjugator) or '(identity)'}")


class ParseError(AmalgamsError):
    pass


class VerificationFailed(AmalgamsError):
    """An independent re-check rejected a computed answer (a conjugator or a
    witness).  Signals a library fault, not bad input; raised explicitly so
    that ``python -O`` cannot strip the check."""
