"""Exception types shared across the toolkit."""


class QcftError(Exception):
    """Base class for all toolkit errors."""


# -- exact series ------------------------------------------------------------

class NonAlignablePrefactor(QcftError):
    """Sum of two series whose prefactor exponents differ by a non-integer."""


class ZeroLeadingCoefficient(QcftError):
    """Inversion of a series whose leading coefficient vanishes."""


class OrderTooLarge(QcftError):
    """A truncation order (or partition range) above series.MAX_ORDER coefficients."""


# -- partitions --------------------------------------------------------------

class ConflictingConstraint(QcftError):
    """A partition constraint with both a gap rule and a window rule."""


# -- regularization ----------------------------------------------------------

class InvalidProgression(QcftError):
    """An arithmetic progression (p, r) outside 1 <= r <= p, or overlap."""


# -- Virasoro ----------------------------------------------------------------

class LevelTooLarge(QcftError):
    """Gram matrix requested above the supported level cap."""


# -- numerics ----------------------------------------------------------------

class NotInUpperHalfPlane(QcftError):
    """tau with Im(tau) <= 0, or not finite, passed to a modular evaluation."""


class NonpositiveRadius(QcftError):
    """Compact boson radius R <= 0, or not finite (NaN, +-inf)."""


class CutoffTooLarge(QcftError):
    """A truncated q-sum needs more than special.MAX_CUTOFF terms (Im tau or R too small)."""


class ThetaConstantVanishes(QcftError):
    """A theta constant in a denominator evaluated to (numerically) zero."""


class ThetaZeroDivision(QcftError):
    """Appell-Lerch evaluation at a zero of theta_1, or at a pole 1 - q^n y = 0."""


class ZDependenceDetected(QcftError):
    """The mock-modular remainder failed its z-independence cross-check."""


class RoundingUnstable(QcftError):
    """A value that must be an integer was too far from one."""


# -- CLI / persistence -------------------------------------------------------

class ConfigParse(QcftError):
    """Malformed configuration file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GoldenMismatch(QcftError):
    """Golden-file comparison failed; message names the first bad record."""
