"""Exact scalars and the admissibility gate for the deformation parameter.

A ``KappaParam`` is kappa validated against the pole set of one shape, and
it carries that shape: every consumer takes the pair as this one value.

Exact scalars are ``fractions.Fraction``: arbitrary-precision, always in
lowest terms, positive denominator, no rounding; exact matrices and vectors
are ``tableaux.Scaled``, Python ints over one denominator.  Complex floats
appear only in the numeric-verification modules (kernel evaluation, path
integration) and are never mixed back into exact computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleExcluded
from .tableaux import Partition


@dataclass(frozen=True)
class KappaParam:
    """A rational deformation parameter and the shape whose pole set it was validated against."""

    value: Fraction
    shape: Partition

    def __str__(self) -> str:
        return str(self.value)


def pole_witness(kappa: Fraction, shape: tuple[int, ...]) -> tuple[int, int] | None:
    """Return (m, c) if kappa = sgn * m/c lies in the excluded pole set, else None.

    The coefficient recurrence divides by gamma_1 + kappa*c(m, T) with
    gamma_1 >= 1 and contents ranging over 1 - ell(shape) .. shape[0] - 1,
    so the poles are the negative rationals with reduced denominator at most
    shape[0]-1 and the positive ones with reduced denominator at most
    ell(shape)-1.
    """
    if kappa == 0:
        return None
    c = kappa.denominator
    m = abs(kappa.numerator)
    if kappa < 0 and c <= shape[0] - 1:
        return (m, c)
    if kappa > 0 and c <= len(shape) - 1:
        return (m, c)
    return None


def make_kappa(p: int, q: int, shape: tuple[int, ...]) -> KappaParam:
    """Validate p/q against the excluded pole set of `shape`.

    Raises PoleExcluded with the witness m/c when the value is a pole of the
    coefficient recurrence, InvalidShape for one-row or one-column shapes.
    """
    part = Partition(shape)
    if q == 0:
        raise ZeroDivisionError("kappa denominator is zero")
    value = Fraction(p, q)
    witness = pole_witness(value, part.parts)
    if witness is not None:
        m, c = witness
        raise PoleExcluded(value, m, c, context=f"shape {part.parts}")
    return KappaParam(value, part)


def default_kappa(shape: tuple[int, ...]) -> KappaParam:
    """1/(h+1) for the maximal hook h: always admissible, always in the PSD window."""
    part = Partition(shape)
    return make_kappa(1, part.max_hook + 1, part.parts)

