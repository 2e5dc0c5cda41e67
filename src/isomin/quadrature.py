"""Adaptive Gauss-Legendre quadrature on straight segments.

A 16-point rule is spectrally accurate for the analytic integrands the
surface generator produces; adaptivity only kicks in when an integrand
misbehaves, and a depth limit converts genuine non-convergence into an
error instead of a silent bad value.  A level is accepted when its two
halves agree with the whole to the absolute tolerance, or to 50 machine
epsilons of their value (QUADPACK's round-off stop), since no bisection
can resolve a residual below the rounding of the value itself.  A level
whose halves sum to a non-finite value, from finite integrand values,
is an overflow, refused as an EvalError without bisecting.
"""

from __future__ import annotations

import cmath
import sys
from typing import Callable

from .expr import EvalError

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
_ROUNDOFF = 50 * sys.float_info.epsilon  # QUADPACK's 50*epmach


class IntegrationError(Exception):
    """Quadrature failed to converge within the subdivision budget."""


class _SumOverflow(EvalError):
    """A level's panel sum is not finite; integrate_segment names the
    segment ahead of the message."""


def _converged(err, value, tol, margin=1.0):
    """Whether a level whose halves sum to value, err away from the
    whole, is accepted: err within tol or within 50 machine epsilons of
    |value|, each times margin.  Elementwise on numpy arrays."""
    return (err <= margin * tol) | (err <= margin * _ROUNDOFF * abs(value))


def _nodes(a: float, b: float) -> tuple[float, tuple[float, ...]]:
    """The half width of [a, b] and the 16 nodes in it, as _panel
    computes them."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half, tuple(mid + half * x for x, _ in _RULE)


# level 0 of adaptive_quad on [0, 1]: the whole panel, then its halves
_LEVEL0 = (_nodes(0.0, 1.0), _nodes(0.0, 0.5), _nodes(0.5, 1.0))


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
    value = left + right
    if not cmath.isfinite(value):
        raise _SumOverflow(f"overflow: panel sum is not finite on [{a}, {b}]")
    err = abs(value - whole)
    if _converged(err, value, tol):
        return value
    if depth <= 0:
        raise IntegrationError(
            f"no convergence on [{a}, {b}] (residual {err:.3e} > "
            f"{max(tol, _ROUNDOFF * abs(value)):.3e})")
    return (_refine(f, a, mid, left, 0.5 * tol, depth - 1, origin, step)
            + _refine(f, mid, b, right, 0.5 * tol, depth - 1, origin, step))


def adaptive_quad(f: Callable, a: float, b: float, tol: float = 1e-10,
                  origin=-0.0, step=1.0) -> complex:
    """Integrate t -> f(origin + t * step) over [a, b], bisecting at
    most 30 levels deep.

    A level whose halves agree with the whole to within tol (halved at
    each bisection) or to within 50 machine epsilons of their own value
    is accepted, so tol is absolute until it falls below the rounding of
    the value.

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

    An IntegrationError, or the EvalError of a panel sum that is not
    finite, names the segment's end points in the (u, v) plane ahead of
    the sub-interval of [0, 1] that failed.
    """
    dw = w1 - w0
    if dw == 0:
        return 0j
    try:
        return dw * adaptive_quad(f, 0.0, 1.0, tol, w0, dw)
    except (IntegrationError, _SumOverflow) as err:
        raise type(err)(
            f"segment ({w0.real!r}, {w0.imag!r}) -> ({w1.real!r}, "
            f"{w1.imag!r}): {err}") from None
