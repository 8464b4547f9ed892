"""Exact scalars and the admissibility gate for the deformation parameter.

All exact arithmetic in the package runs on ``fractions.Fraction``:
arbitrary-precision, always in lowest terms, positive denominator, no
rounding.  Complex floats appear only in the numeric-verification modules
(kernel evaluation, path integration) and are never mixed back into exact
computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidShape, PoleExcluded


def rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    return Fraction(text)


def rational_str(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is one."""
    return str(q)


def _check_shape(parts: tuple[int, ...]) -> None:
    if len(parts) < 2 or parts[-1] < 1 or parts[0] < 2:
        raise InvalidShape(f"shape {parts} must have at least two rows and two columns")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InvalidShape(f"shape {parts} is not non-increasing")


@dataclass(frozen=True)
class KappaParam:
    """A validated rational deformation parameter for a fixed shape.

    `psd_range` records whether -1/h < value < 1/h where h is the maximal
    hook length of the shape; inside that window the torus form is
    positive-definite and the kernel approximants are PSD.
    """

    value: Fraction
    shape: tuple[int, ...]
    psd_range: bool

    def __str__(self) -> str:
        return rational_str(self.value)


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
    shape = tuple(shape)
    _check_shape(shape)
    if q == 0:
        raise ZeroDivisionError("kappa denominator is zero")
    value = Fraction(p, q)
    witness = pole_witness(value, shape)
    if witness is not None:
        m, c = witness
        raise PoleExcluded(value, m, c, context=f"shape {shape}")
    h = shape[0] + len(shape) - 1
    return KappaParam(value, shape, psd_range=abs(value) < Fraction(1, h))


def unchecked_kappa(p: int, q: int, shape: tuple[int, ...]) -> KappaParam:
    """Bypass the pole gate; used to demonstrate in-recurrence pole detection."""
    shape = tuple(shape)
    _check_shape(shape)
    value = Fraction(p, q)
    h = shape[0] + len(shape) - 1
    return KappaParam(value, shape, psd_range=abs(value) < Fraction(1, h))


def default_kappa(shape: tuple[int, ...]) -> KappaParam:
    """1/(h+1) for the maximal hook h: always admissible, always in the PSD window."""
    shape = tuple(shape)
    _check_shape(shape)
    h = shape[0] + len(shape) - 1
    return make_kappa(1, h + 1, shape)


def complex_pair(z: complex) -> list[float]:
    """Serialize a complex scalar as the pair [re, im]."""
    return [float(z.real), float(z.imag)]
