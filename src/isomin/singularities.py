"""Zeros of the conformal factor and the local shape of the map there.

The immersion degenerates exactly where F vanishes.  This module finds
those points (grid scan for local minima of |F| plus Newton polishing),
measures their multiplicity with the argument principle and reports the
rank of the Jacobian of the generated map, which drops to 1 when only F
vanishes and to 0 when G vanishes with it.  That rank is read from the
zeros of G and checked once against the singular values of the patch's
first partials.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain, compress
from operator import le
from typing import NamedTuple, Sequence

from .expr import Expr, EvalError, compile_expr, differentiate
from .geometry import Rect, _axis, _jets
from .weierstrass import WeierstrassData, surface_from_data


class ContourError(Exception):
    """|F| got too small on the integration contour."""


class MultiplicityError(Exception):
    """The winding integral refused to settle on an integer."""


class RankDisagreementError(Exception):
    """The rank from the zeros of G and the singular-value rank differ."""


class SingularPoint(NamedTuple):
    w: complex
    multiplicity: int
    rank: int
    refined: bool
    g_vanishes: bool


def _newton(fn, dfn, w: complex, tol: float, domain: Rect
            ) -> tuple[complex, bool]:
    """Newton iteration on fn; returns (point, converged).

    Near a multiple zero plain Newton still converges (linearly), and the
    stagnation test below stops it once steps fall to rounding level.
    """
    scale = max(domain.extent, 1.0)
    for _ in range(_NEWTON_STEPS):
        try:
            val = fn(w)
        except EvalError:
            return w, False
        if abs(val) < tol:
            return w, True
        try:
            dval = dfn(w)
        except EvalError:
            return w, False
        if dval == 0:
            return w, False
        step = val / dval
        w -= step
        if abs(step) < 1e-16 * scale:
            try:
                return w, abs(fn(w)) < tol
            except EvalError:
                return w, False
        if abs(w - complex(*domain.centre)) > 10.0 * scale:
            return w, False  # escaped far outside; not our zero
    try:
        return w, abs(fn(w)) < tol
    except EvalError:
        return w, False


def _seed_cells(mod: Sequence[Sequence[float]]) -> list[tuple[int, int]]:
    """Interior cells, in row-major order, whose finite value is the
    minimum of their 3x3 window and below a quarter of the largest finite
    value (or exactly zero).

    mod is any sequence of equal-length rows (a list of lists or a 2-D
    array); inf marks a failed sample.
    """
    cut = 0.25 * max(filter(math.isfinite, chain.from_iterable(mod)),
                     default=math.inf)
    seeds = []
    for i in range(1, len(mod) - 1):
        above, row, below = mod[i - 1], mod[i], mod[i + 1]
        # a C-level pass keeps the cells no larger than their left
        # neighbour; the other seven neighbours are compared for those alone
        for j in compress(range(1, len(row) - 1), map(le, row[1:-1], row)):
            x = row[j]
            if (x <= row[j + 1] and math.isfinite(x)
                    and (x < cut or x == 0.0)
                    and x <= min(above[j - 1], above[j], above[j + 1],
                                 below[j - 1], below[j], below[j + 1])):
                seeds.append((i, j))
    return seeds


def find_zeros(ast: Expr, domain: Rect, grid: tuple[int, int] = (64, 64),
               tol: float = 1e-10, with_diagnostics: bool = False):
    """Zeros of the expression inside the rectangle.

    Interior local minima of |F| on the scan grid seed Newton runs (by
    the minimum-modulus principle a holomorphic function has no interior
    modulus minima other than zeros).  Zeros closer than half a grid cell
    to each other can merge; callers who expect clusters should scan
    finer.  Duplicates within 10*tol collapse to one zero.  The scan
    keeps |F| as a list of rows, inf where F fails to evaluate or |F|
    overflows.
    """
    fn = compile_expr(ast)
    dfn = compile_expr(differentiate(ast))
    nu, nv = grid
    us = _axis(domain.u0, domain.u1, nu)
    vs = _axis(domain.v0, domain.v1, nv)
    if min(nu, nv) < 3:
        # Newton starts only from interior nodes, and such a grid has none
        raise ValueError(f"find_zeros needs at least 3 nodes per axis, "
                         f"got {nu}x{nv}")
    mod = []
    for u in us:
        row = []
        for v in vs:
            try:
                row.append(abs(fn(complex(u, v))))
            except (EvalError, OverflowError):  # abs overflows past 1.8e308
                row.append(math.inf)
        mod.append(row)
    seeds = [complex(us[i], vs[j]) for i, j in _seed_cells(mod)]

    zeros: list[complex] = []
    unconverged: list[complex] = []
    du = (domain.u1 - domain.u0) / (nu - 1)
    dv = (domain.v1 - domain.v0) / (nv - 1)
    merge_radius = max(10.0 * tol, 0.25 * min(du, dv))
    for seed in seeds:
        w, ok = _newton(fn, dfn, seed, tol, domain)
        if not ok:
            unconverged.append(seed)
            continue
        if not domain.contains(w.real, w.imag):
            continue
        if all(abs(w - z) > merge_radius for z in zeros):
            zeros.append(w)
    zeros.sort(key=lambda z: (abs(z), z.real, z.imag))
    if with_diagnostics:
        return zeros, unconverged
    return zeros


def _sharpen(fn, dfn, w: complex, mult: int, domain: Rect) -> complex:
    """Modified Newton (step scaled by the known order).

    Plain Newton only creeps linearly into a multiple zero and stalls
    as soon as |F| underflows the tolerance, which can leave the
    position off by tol^(1/m).  Scaling the step by the multiplicity
    restores quadratic convergence, so the location is recovered to
    rounding accuracy.  Falls back to the input on any sign of trouble.
    """
    best = w
    try:
        best_val = abs(fn(w))
    except EvalError:
        return w
    cur = w
    scale = max(domain.extent, 1.0)
    for _ in range(_SHARPEN_STEPS):
        try:
            val = fn(cur)
            dval = dfn(cur)
        except EvalError:
            break
        if dval == 0:
            break
        step = mult * val / dval
        cur -= step
        if not domain.contains(cur.real, cur.imag, 1e-6 * scale):
            break
        try:
            cur_val = abs(fn(cur))
        except EvalError:
            break
        if cur_val <= best_val:
            best, best_val = cur, cur_val
        if abs(step) < 1e-15 * scale:
            break
    return best


_NEWTON_STEPS = 80  # most steps of _newton
_SHARPEN_STEPS = 40  # most steps of _sharpen
_CONTOUR_SAMPLES = 512  # trapezoid nodes on the argument-principle circle


def zero_multiplicity(ast: Expr, center: complex, radius: float) -> int:
    """Order of the zero at ``center`` by the argument principle.

    Trapezoidal integration of F'/F around the circle is spectrally
    accurate for periodic integrands, so a non-integer result signals a
    genuine problem (zero on or near the contour) and raises rather than
    being rounded away.
    """
    fn = compile_expr(ast)
    dfn = compile_expr(differentiate(ast))
    if radius <= 0:
        raise ValueError("radius must be positive")
    acc = 0j
    for k in range(_CONTOUR_SAMPLES):
        ang = 2.0 * math.pi * k / _CONTOUR_SAMPLES
        offset = radius * cmath.exp(1j * ang)
        w = center + offset
        try:
            val = fn(w)
            dval = dfn(w)
        except EvalError as exc:
            raise ContourError(f"evaluation failed on contour at {w}: {exc}")
        if abs(val) < 1e-13 * max(1.0, abs(dval) * radius):
            raise ContourError(f"|F| = {abs(val):.3e} on the contour at {w}")
        acc += dval / val * offset
    winding = acc / _CONTOUR_SAMPLES  # mean of F'/F * (w - center) over the circle
    nearest = round(winding.real)
    if abs(winding.real - nearest) > 0.1 or abs(winding.imag) > 0.1:
        raise MultiplicityError(
            f"winding integral {winding} not within 0.1 of an integer")
    if nearest < 0:
        raise MultiplicityError(f"negative winding {nearest}: pole inside?")
    return int(nearest)


def _singular_values(r1: Sequence[float], r2: Sequence[float]
                     ) -> tuple[float, float]:
    """Singular values s1 >= s2 of the 2x3 matrix with rows r1 and r2.

    s1 is the root of the larger Gram eigenvalue; s2 = |r1 x r2| / s1,
    which stays accurate for nearly parallel rows, where the smaller
    eigenvalue cancels.  Exact power-of-two scaling keeps the squares
    from underflowing or overflowing.
    """
    top = max(map(abs, (*r1, *r2)))
    if top == 0.0:
        return 0.0, 0.0
    exp = math.frexp(top)[1]
    x1, y1, z1 = (math.ldexp(x, -exp) for x in r1)
    x2, y2, z2 = (math.ldexp(x, -exp) for x in r2)
    a = x1 * x1 + y1 * y1 + z1 * z1
    b = x1 * x2 + y1 * y2 + z1 * z2
    c = x2 * x2 + y2 * y2 + z2 * z2
    s1 = math.sqrt(0.5 * (a + c) + math.hypot(0.5 * (a - c), b))
    cross = math.hypot(y1 * z2 - z1 * y2, z1 * x2 - x1 * z2,
                       x1 * y2 - y1 * x2)
    return math.ldexp(s1, exp), math.ldexp(cross / s1, exp)


def jacobian_rank_at(data: WeierstrassData, w: complex) -> int:
    """Numeric rank of the differential of the generated map at w.

    The singular values of the 2x3 Jacobian (f_u, f_v), the patch's own
    first partials from geometry._jets, above 1e-6 * max(1, sigma_1).
    """
    f_u, f_v = _jets(surface_from_data(data), w.real, w.imag)[:2]
    s1, s2 = _singular_values(f_u, f_v)
    return sum(s > 1e-6 * max(1.0, s1) for s in (s1, s2))


def singular_report(data: WeierstrassData, grid: tuple[int, int] = (64, 64),
                    tol: float = 1e-10) -> list[SingularPoint]:
    """All singular points of the datum, sorted by distance from 0.

    Multiplicity contours use half the distance to the nearest other
    zero or to the boundary, whichever is smaller.  When F and G vanish
    together the ties are broken by polishing G's own zero from the same
    seed and comparing locations, not by thresholding alone.  A rank that
    differs from jacobian_rank_at's, the count of the patch's singular
    values above the 1e-6 cut, raises RankDisagreementError.
    """
    zeros, unconverged = find_zeros(data.F, data.domain, grid, tol,
                                    with_diagnostics=True)
    f_fn, g_fn = data.compiled[:2]
    f_dfn, g_dfn = (compile_expr(differentiate(t)) for t in (data.F, data.G))
    dom = data.domain
    points: list[SingularPoint] = []

    for w in zeros:
        others = [abs(w - z) for z in zeros if z != w]
        radius = 0.5 * min([dom.margin(w.real, w.imag)] + others)
        radius = min(radius, 0.25 * dom.extent)
        mult = zero_multiplicity(data.F, w, max(radius, 16.0 * tol))
        if mult >= 2:
            w = _sharpen(f_fn, f_dfn, w, mult, dom)

        g_here = abs(g_fn(w))
        g_tol = max(100.0 * tol, 1e-8)
        if g_here <= g_tol:
            g_vanishes = True
        else:
            # maybe G has a zero nearby but not here; polish and compare
            zg, ok = _newton(g_fn, g_dfn, w, tol, dom)
            g_vanishes = bool(ok and abs(zg - w) <= max(10.0 * tol, 1e-8))
        rank = 1 if not g_vanishes else 0
        checked = jacobian_rank_at(data, w)
        if checked != rank:
            raise RankDisagreementError(
                f"rank at {w}: {rank} from the zeros of G (|G|={g_here:.2e}) "
                f"vs {checked} from jacobian_rank_at")
        points.append(SingularPoint(w, mult, rank, True, g_vanishes))

    for seed in unconverged:
        points.append(SingularPoint(seed, 0, 2, False, False))

    points.sort(key=lambda p: (abs(p.w), p.w.real, p.w.imag))
    return points
