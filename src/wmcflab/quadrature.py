"""Adaptive Gauss-Legendre quadrature with interval bisection.

Every integral the lab forms between the wells has a polynomial
integrand in the reference variable t, which the 10- and 20-point rules
both integrate exactly, so it converges on its first panel. The
bisection is the fallback that certifies any other integrand: a smooth
one (``sin``) or one with a kink (sqrt|t|), where a fixed rule stalls
and bisection confines the refinement to the kink.
"""

from functools import lru_cache

import numpy as np

from .errors import NumericError


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _apply(f, lo, hi, nodes, weights):
    half = 0.5 * (hi - lo)
    fx = np.asarray(f(0.5 * (hi + lo) + half * nodes), dtype=float)
    return half * float(weights @ fx)


def adaptive_gauss_legendre(f, lo, hi, tol=1e-10):
    """Integrate the scalar integrand ``f`` over [lo, hi] to absolute
    accuracy ``tol``.

    ``f`` maps a 1-d array of k nodes to its k values, so an integral is
    one point's and one component's alone: its panels and its sums do
    not depend on any other integral.

    Returns (value, error_estimate). Raises NumericError (carrying the
    achieved estimate) if the budget of 20000 panels is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if hi == lo:
        return 0.0, 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    total_len = hi - lo
    (n_lo, w_lo), (n_hi, w_hi) = gauss_legendre(10), gauss_legendre(20)
    stack = [(lo, hi)]
    value = None
    err_acc = 0.0
    panels = 0
    while stack:
        a, b = stack.pop()
        panels += 1
        if panels > 20000:
            raise NumericError(
                "quadrature did not converge within the panel budget",
                achieved=err_acc,
            )
        coarse = _apply(f, a, b, n_lo, w_lo)
        fine = _apply(f, a, b, n_hi, w_hi)
        err = abs(fine - coarse)
        share = tol * (b - a) / total_len
        if err <= share or (b - a) < 1e-14 * total_len:
            value = fine if value is None else value + fine
            err_acc += err
        else:
            mid = 0.5 * (a + b)
            stack.append((a, mid))
            stack.append((mid, b))
    return sign * value, err_acc
