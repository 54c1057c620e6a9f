"""Exception types shared across the package."""


class TgmatError(Exception):
    """Base class for every error raised by this package."""


class IndexOutOfRange(TgmatError):
    """An index tuple component lies outside 1..dim."""


class DuplicateEntry(TgmatError):
    """The same index tuple was listed twice, or with conflicting values."""


class NonFiniteValue(TgmatError):
    """A tensor entry is NaN or infinite."""


class DimensionMismatch(TgmatError):
    """A vector length does not match the tensor dimension."""


class NonPositiveScale(TgmatError):
    """A scaling vector has a zero or negative component."""


class GammaOutOfRange(TgmatError):
    """gamma must lie in [0, 1]."""


class BadSubset(TgmatError):
    """S must be a nonempty proper subset of {1..n}."""


class WrongDimension(TgmatError):
    """The operation requires a different tensor dimension."""


class BadGrid(TgmatError):
    """Grid specification is invalid."""


class ComplexDiagonal(TgmatError):
    """Diagonal tensor entries must be real."""


class OrderTooLarge(TgmatError):
    """Spin order 2j outside the supported range."""


class BadIndex(TgmatError):
    """Pauli label outside 0..3."""


class NonHermitian(TgmatError):
    """Density matrix is not Hermitian."""


class TraceNotOne(TgmatError):
    """Density matrix trace differs from one."""


class NotPositiveSemidefinite(TgmatError):
    """Density matrix has a negative eigenvalue."""


class WeightMismatch(TgmatError):
    """Mixture weights must be positive, sum to one, and match the directions."""


class BadAngle(TgmatError):
    """Angles must satisfy theta in [0, pi] and phi in [0, 2*pi)."""
