"""Adaptive Gauss-Legendre quadrature with interval bisection.

The integrands met here (sqrt of a double well) are smooth in the interior
but only Lipschitz at the interval endpoints, so a fixed rule stalls near
the wells; bisection confines the refinement there.
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
    x = 0.5 * (hi + lo) + half * nodes
    fx = np.asarray(f(x), dtype=float)
    if fx.ndim == 1:
        return half * float(weights @ fx)
    # batch integrands: f maps (k,) nodes to (k, m) values
    return half * (weights @ fx)


def adaptive_gauss_legendre(f, lo, hi, tol=1e-10):
    """Integrate ``f`` over [lo, hi] to absolute accuracy ``tol``.

    ``f`` must be vectorized over a 1-d array of nodes; it may return a
    (k, m) array to integrate m integrands sharing the interval, in which
    case every component meets ``tol``.

    Returns (value, error_estimate). Raises NumericError (carrying the
    achieved estimate) if the budget of 20000 panels is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if hi == lo:
        probe = np.asarray(f(np.array([lo])), dtype=float)
        zero = 0.0 if probe.ndim == 1 else np.zeros(probe.shape[1])
        return zero, 0.0
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
        err = float(np.max(np.abs(fine - coarse)))
        share = tol * (b - a) / total_len
        if err <= share or (b - a) < 1e-14 * total_len:
            value = fine if value is None else value + fine
            err_acc += err
        else:
            mid = 0.5 * (a + b)
            stack.append((a, mid))
            stack.append((mid, b))
    return sign * value, err_acc
