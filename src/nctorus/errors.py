"""Exception types shared across the package."""

__all__ = [
    "TruncationError",
    "UnsupportedConventionError",
    "DegenerateDeformationError",
]


class TruncationError(ArithmeticError):
    """A certified truncation cannot meet the requested tail bound within
    the term cap.

    Attributes
    ----------
    required : int or float
        Number of terms the certificate would need; a float (inf where no
        count certifies the bound) where it is past 2**53.
    cap : int
        The cap on every certified count, one million
        (:class:`~nctorus.theta.TruncationPolicy`).
    bound : float
        The tail bound achieved at the cap.
    """

    def __init__(self, message, required=None, cap=None, bound=None):
        super().__init__(message)
        self.required = required
        self.cap = cap
        self.bound = bound


class UnsupportedConventionError(ValueError):
    """The requested operation is only defined under a convention the
    input does not satisfy (e.g. T-transform phases at odd level)."""


class DegenerateDeformationError(ValueError):
    """Deformation parameter satisfies q**2 == 1, so the q-deformed
    generators are not defined (division by q - 1/q)."""

