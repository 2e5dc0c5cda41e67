"""Adaptive Gauss-Legendre quadrature on straight segments.

A 16-point rule is spectrally accurate for the analytic integrands the
surface generator produces; adaptivity only kicks in when an integrand
misbehaves, and a depth limit converts genuine non-convergence into an
error instead of a silent bad value.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODES = tuple(float(x) for x in _NODES)
_WEIGHTS = tuple(float(w) for w in _WEIGHTS)


class IntegrationError(Exception):
    """Quadrature failed to converge within the subdivision budget."""


def _panel(f: Callable[[float], complex], a: float, b: float) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0j
    for x, w in zip(_NODES, _WEIGHTS):
        acc += w * f(mid + half * x)
    return half * acc


def _refine(f, a: float, b: float, whole: complex, tol: float,
            depth: int) -> complex:
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid)
    right = _panel(f, mid, b)
    if abs(left + right - whole) <= tol:
        return left + right
    if depth <= 0:
        raise IntegrationError(
            f"no convergence on [{a}, {b}] (residual "
            f"{abs(left + right - whole):.3e} > {tol:.3e})")
    return (_refine(f, a, mid, left, 0.5 * tol, depth - 1)
            + _refine(f, mid, b, right, 0.5 * tol, depth - 1))


def adaptive_quad(f: Callable[[float], complex], a: float, b: float,
                  tol: float = 1e-10, max_depth: int = 30) -> complex:
    """Integrate f over [a, b] to absolute tolerance tol."""
    if a == b:
        return 0j
    return _refine(f, a, b, _panel(f, a, b), tol, max_depth)


def integrate_segment(f: Callable[[complex], complex], w0: complex,
                      w1: complex, tol: float = 1e-10,
                      max_depth: int = 30) -> complex:
    """Line integral of f along the straight segment from w0 to w1.

    An IntegrationError names the segment's end points in the (u, v)
    plane ahead of the sub-interval of [0, 1] that failed.
    """
    dw = w1 - w0
    if dw == 0:
        return 0j
    try:
        return dw * adaptive_quad(lambda t: f(w0 + t * dw), 0.0, 1.0,
                                  tol, max_depth)
    except IntegrationError as err:
        raise IntegrationError(
            f"segment ({w0.real!r}, {w0.imag!r}) -> ({w1.real!r}, "
            f"{w1.imag!r}): {err}") from None
