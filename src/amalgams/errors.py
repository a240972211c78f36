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


class NotCyclicallyReduced(AmalgamsError):
    pass


class NotCentral(AmalgamsError):
    """Amalgamated subgroups are not central in their factors."""


class NotCompatible(AmalgamsError):
    pass


class NoRefinementFound(AmalgamsError):
    """No compatible refinement exists for the given normal subgroups."""


class NotConnected(AmalgamsError):
    pass


class InvalidTree(AmalgamsError):
    pass


class WrongShape(AmalgamsError):
    """Presentation does not have the expected collapsible shape."""


class ElementsConjugate(AmalgamsError):
    """Witness search got inputs that are conjugate; carries the conjugator."""

    def __init__(self, conjugator):
        self.conjugator = conjugator
        super().__init__("input elements are conjugate")


class BudgetExhausted(AmalgamsError):
    """No witness found within the search budget.

    Inconclusive by design: for amalgams of finite p-groups this outcome is
    consistent with the group simply not being residually a finite p-group,
    in which case no witness exists at any budget.
    """


class ParseError(AmalgamsError):
    pass


class VerificationFailed(AmalgamsError):
    """An independent re-check rejected a computed answer (a conjugator or a
    witness).  Signals a library fault, not bad input; raised explicitly so
    that ``python -O`` cannot strip the check."""
