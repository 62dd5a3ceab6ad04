"""Truncated integer power series and the loop-space Poincare transform.

A series is a list of ints, truncated at degree len(s) - 1.  Every
dimension series the package forms is integral with constant term 1, so
its inverse and the transform P(t)^-1 = (1+t)*A(t)^-1 - t + G2*t^2 -
R4*t^3 stay integral; no floating point enters anywhere in the package.
The `hilbert` command builds A(t) from the closed-form count
(`count.counted_dimensions`); `quotient.dimension` computes one
degree from the rank of the degree matrix and is that count's oracle.
"""

from __future__ import annotations

# The degree-2 wedge summands and degree-4 attaching cells of the complex
# behind AX: one 2-cell per generator (8) and one 4-cell per relation (13).
G2, R4 = 8, 13


def invert_series(s: list[int]) -> list[int]:
    """Multiplicative inverse up to the truncation; needs constant term 1."""
    if not s or s[0] != 1:
        raise ValueError("series inversion requires constant term 1")
    out = [1] + [0] * (len(s) - 1)
    for k in range(1, len(s)):
        out[k] = -sum(s[i] * out[k - i] for i in range(1, k + 1))
    return out


def roos_poincare(a: list[int]) -> list[int]:
    """Loop-space Poincare series from the AX dimension series A(t).

    Inverts (1+t) * A(t)^-1 - t + G2*t^2 - R4*t^3; refuses A(0) != 1.
    """
    rhs = invert_series(a)
    for k in range(len(rhs) - 1, 0, -1):  # multiply by (1 + t) in place
        rhs[k] += rhs[k - 1]
    for k, c in ((1, -1), (2, G2), (3, -R4)):
        if k < len(rhs):
            rhs[k] += c
    return invert_series(rhs)


def format_series(s: list[int]) -> str:
    """Deterministic text form, e.g. "1 + 8 t + 64 t^2"."""
    parts = []
    for n, c in enumerate(s):
        if c == 0:
            continue
        if n == 0:
            parts.append(str(c))
        elif n == 1:
            parts.append(f"{c} t")
        else:
            parts.append(f"{c} t^{n}")
    return " + ".join(parts) if parts else "0"


def series_json(s: list[int]) -> dict:
    """JSON form: the truncation degree and the integer coefficients."""
    return {"truncation": len(s) - 1, "coefficients": list(s)}
