"""Adaptive Gauss-Legendre quadrature on straight segments.

A 16-point rule is spectrally accurate for the analytic integrands the
surface generator produces; adaptivity only kicks in when an integrand
misbehaves, and a depth limit converts genuine non-convergence into an
error instead of a silent bad value.
"""

from __future__ import annotations

from typing import Callable

# (node, weight) pairs of the 16-point rule on [-1, 1]: the reprs of
# numpy.polynomial.legendre.leggauss(16), written out so that importing
# the integrator does not import numpy
_RULE = (
    (-0.9894009349916499, 0.027152459411754176),
    (-0.9445750230732326, 0.062253523938647456),
    (-0.8656312023878318, 0.0951585116824926),
    (-0.755404408355003, 0.12462897125553407),
    (-0.6178762444026438, 0.1495959888165767),
    (-0.45801677765722737, 0.16915651939500265),
    (-0.2816035507792589, 0.18260341504492364),
    (-0.09501250983763744, 0.18945061045506864),
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)


_MAX_DEPTH = 30  # bisection levels below the whole interval


class IntegrationError(Exception):
    """Quadrature failed to converge within the subdivision budget."""


def _panel(f, a: float, b: float, origin, step) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0j
    for x, w in _RULE:
        acc += w * f(origin + (mid + half * x) * step)
    return half * acc


def _refine(f, a: float, b: float, whole: complex, tol: float,
            depth: int, origin, step) -> complex:
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid, origin, step)
    right = _panel(f, mid, b, origin, step)
    if abs(left + right - whole) <= tol:
        return left + right
    if depth <= 0:
        raise IntegrationError(
            f"no convergence on [{a}, {b}] (residual "
            f"{abs(left + right - whole):.3e} > {tol:.3e})")
    return (_refine(f, a, mid, left, 0.5 * tol, depth - 1, origin, step)
            + _refine(f, mid, b, right, 0.5 * tol, depth - 1, origin, step))


def adaptive_quad(f: Callable, a: float, b: float, tol: float = 1e-10,
                  origin=-0.0, step=1.0) -> complex:
    """Integrate t -> f(origin + t * step) over [a, b] to absolute
    tolerance tol, bisecting at most 30 levels deep.

    The defaults integrate f itself: -0.0 + t * 1.0 is t for every
    float t, the sign of a zero included.
    """
    if a == b:
        return 0j
    return _refine(f, a, b, _panel(f, a, b, origin, step), tol, _MAX_DEPTH,
                   origin, step)


def integrate_segment(f: Callable[[complex], complex], w0: complex,
                      w1: complex, tol: float = 1e-10) -> complex:
    """Line integral of f along the straight segment from w0 to w1.

    An IntegrationError names the segment's end points in the (u, v)
    plane ahead of the sub-interval of [0, 1] that failed.
    """
    dw = w1 - w0
    if dw == 0:
        return 0j
    try:
        return dw * adaptive_quad(f, 0.0, 1.0, tol, w0, dw)
    except IntegrationError as err:
        raise IntegrationError(
            f"segment ({w0.real!r}, {w0.imag!r}) -> ({w1.real!r}, "
            f"{w1.imag!r}): {err}") from None
