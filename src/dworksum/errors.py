"""Exception types shared across the package.

Every error that a validating caller (in particular the CLI) needs to
distinguish gets its own class; they all derive from DworksumError so a
single except-clause can catch "anything this package raises on bad input".
"""


class DworksumError(Exception):
    pass


# -- coefficient ring ---------------------------------------------------

class NotPrime(DworksumError):
    pass


class UnsupportedPrime(DworksumError):
    """p = 2: pi**(p-1) = -p degenerates to pi = -2 and the twist collapses."""


class ParamsMismatch(DworksumError):
    pass


class PrecisionBudgetExceeded(DworksumError):
    pass


class NoRoot(DworksumError):
    """Internal consistency failure: modulus has no root where one must exist."""


# -- finite fields ------------------------------------------------------

class NotAField(DworksumError):
    """The powers of the chosen generator are not the whole of F_q^*: the
    modulus is reducible or the element does not generate."""


# -- polytope / GKZ -----------------------------------------------------

class RankDeficient(DworksumError):
    pass


class NotARelation(DworksumError):
    pass


class Timeout(DworksumError):
    """Raised by nothing in the package; bench/worker.py still maps it to
    exit 4, so the name stays until that worker changes."""


# -- Dwork operator -----------------------------------------------------

class NotTeichmueller(DworksumError):
    pass


class TwistOutsideCone(DworksumError):
    pass


# -- L-functions / budgets ----------------------------------------------

class LevelTooLarge(DworksumError):
    pass


class BudgetExceeded(DworksumError):
    pass


class NonUnitConstantTerm(DworksumError):
    pass


# -- CLI -----------------------------------------------------------------

class ParseError(DworksumError):
    pass


class ValidationError(DworksumError):
    pass
