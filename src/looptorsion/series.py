"""Truncated power series and the loop-space Poincare transform.

Coefficients are exact rationals throughout; no floating point enters
anywhere in the package.  Dimension series of the presented algebras
are fed through the transform P(t)^-1 = (1+t)*A(t)^-1 - t + g2*t^2 -
r4*t^3, whose constants g2 and r4 count the degree-2 wedge summands and
degree-4 attaching cells of the underlying complex (8 and 13 for the
reference construction).  The `hilbert` command builds its series from
the closed-form count (`quotient.counted_dimensions`);
`dimension_series` computes one degree at a time from the rank of the
degree matrix and is that count's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .quotient import dimension
from .presentation import RelationSet


@dataclass(frozen=True)
class PowerSeries:
    """A power series truncated at degree len(coefficients) - 1."""

    coefficients: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, values, truncation: int | None = None) -> "PowerSeries":
        coeffs = [Fraction(v) for v in values]
        if truncation is not None:
            coeffs = coeffs[: truncation + 1]
            coeffs += [Fraction(0)] * (truncation + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("a power series needs at least the constant term")
        return cls(tuple(coeffs))

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.truncation, other.truncation)
        out = [Fraction(0)] * (n + 1)
        for i, ci in enumerate(self.coefficients[: n + 1]):
            if not ci:
                continue
            for j in range(n + 1 - i):
                cj = other.coefficients[j]
                if cj:
                    out[i + j] += ci * cj
        return PowerSeries(tuple(out))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coefficients)


def invert_series(s: PowerSeries) -> PowerSeries:
    """Multiplicative inverse up to the truncation; needs constant term 1."""
    if s[0] != 1:
        raise ValueError("series inversion requires constant term 1")
    n = s.truncation
    out = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            if s[i]:
                acc += s[i] * out[k - i]
        out[k] = -acc
    return PowerSeries(tuple(out))


def dimension_series(rels: RelationSet, field, truncation: int) -> PowerSeries:
    """Graded dimensions of the quotient over Q ("Q") or over F_p.

    Coefficient n is g^n minus the rank of the degree-n relation matrix
    over the chosen field.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    return PowerSeries.from_coeffs([dimension(rels, n, field) for n in range(truncation + 1)])


def roos_poincare(a_series: PowerSeries, g2: int = 8, r4: int = 13) -> PowerSeries:
    """Loop-space Poincare series from the algebra dimension series.

    Inverts (1+t) * A(t)^-1 - t + g2*t^2 - r4*t^3; rejects a right-hand
    side whose constant term is not 1 (equivalently A(0) != 1).
    """
    n = a_series.truncation
    rhs = list(invert_series(a_series).coefficients)
    for k in range(n, 0, -1):  # multiply by (1 + t) in place
        rhs[k] = rhs[k] + rhs[k - 1]
    if n >= 1:
        rhs[1] -= 1
    if n >= 2:
        rhs[2] += g2
    if n >= 3:
        rhs[3] -= r4
    if rhs[0] != 1:
        raise ValueError("transform is only invertible when the constant term is 1")
    return invert_series(PowerSeries(tuple(rhs)))


def format_series(s: PowerSeries) -> str:
    """Deterministic text form, e.g. "1 + 8 t + 64 t^2"."""
    parts = []
    for n, c in enumerate(s.coefficients):
        if c == 0:
            continue
        if n == 0:
            parts.append(str(c))
        elif n == 1:
            parts.append(f"{c} t")
        else:
            parts.append(f"{c} t^{n}")
    return " + ".join(parts) if parts else "0"


def series_json(s: PowerSeries) -> dict:
    """JSON form: integer coefficients stay ints, others become "p/q"."""
    coeffs = [int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in s.coefficients]
    return {"truncation": s.truncation, "coefficients": coeffs}
