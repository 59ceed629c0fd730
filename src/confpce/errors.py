"""Exception hierarchy shared across the library."""


class ConfpceError(Exception):
    """Base class for all library errors."""


class DomainError(ConfpceError, ValueError):
    """An input point lies outside its declared box, beyond tolerance."""


class BasisSizeError(ConfpceError, OverflowError):
    """The requested total-degree basis is too large to materialize."""


class UnderdeterminedError(ConfpceError):
    """Fewer training samples than basis functions (M < K)."""


class RankDeficientError(ConfpceError):
    """Design matrix condition number exceeds the trustable ceiling."""


class LeverageError(ConfpceError):
    """A leverage is numerically 1, so leave-one-out residuals blow up."""


class NonFiniteFitError(ConfpceError):
    """A fitted quantity overflowed to inf or NaN; the outputs are too large."""


class ZeroVarianceError(ConfpceError):
    """Output variance estimate is zero; normalized quantities undefined."""


class IntervalError(ConfpceError):
    """An interval bound is NaN or its lower bound exceeds its upper bound."""
