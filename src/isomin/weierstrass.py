"""Weierstrass-type generation of isotropic minimal surfaces.

A pair (F, G) of holomorphic functions on a simply connected domain, F
without zeros, produces a conformal minimal immersion

    f(u + iv) = Re integral (F, -i F, G) dw

whose pullback metric is |F|^2 (du^2 + dv^2).  Rotating the integrand by
exp(-i theta) sweeps the associated family; theta = pi/2 is the conjugate
surface, equivalently the data (-i F, -i G).  Zeros of F are exactly the
points where the immersion degenerates; the singularities module finds
and classifies them.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .expr import (EvalError, Expr, _div, _failed, _mul, _sub, compile_expr,
                   differentiate, majorant, primitive)
from .geometry import (DegenerateMetricError, FundamentalForms, Rect,
                       SurfacePatch, Vec021, default_step, _axis, _stencil)
from .quadrature import integrate_segment


class CompiledData(NamedTuple):
    """F, G and Phi = G' - G F'/F compiled to functions of z."""

    f: Callable[[complex], complex]
    g: Callable[[complex], complex]
    phi: Callable[[complex], complex]


@dataclass(frozen=True, slots=True)
class WeierstrassData:
    """Holomorphic pair with its base point and parameter rectangle.

    The base point defaults to the rectangle's centre.  The rectangle is
    convex, so every straight segment from the base point stays inside
    it and the path integrals below are well defined without any path
    bookkeeping.  ``compiled`` holds F, G and Phi (second_form_from_data)
    compiled once, so per-point callers never hash the trees again.
    """

    F: Expr
    G: Expr
    base: complex | None = None
    domain: Rect = Rect(-1.0, 1.0, -1.0, 1.0)
    compiled: CompiledData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base is None:
            object.__setattr__(self, "base", complex(*self.domain.centre))
        if not self.domain.contains(self.base.real, self.base.imag):
            raise ValueError(
                f"base point {self.base} outside domain {self.domain}")
        phi = _sub(differentiate(self.G),
                   _mul(self.G, _div(differentiate(self.F), self.F)))
        object.__setattr__(self, "compiled", CompiledData(
            compile_expr(self.F), compile_expr(self.G), compile_expr(phi)))


def integrate_holomorphic(ast: Expr, w0: complex, w1: complex) -> complex:
    """Integral of the expression along the straight segment [w0, w1]."""
    return integrate_segment(compile_expr(ast), w0, w1)


def _rotor(theta: float) -> complex:
    """exp(-i theta) of the family angle taken modulo 2*pi."""
    return cmath.exp(-1j * (theta % (2.0 * math.pi)))


def surface_from_data(data: WeierstrassData, theta: float = 0.0
                      ) -> SurfacePatch:
    """Member of the associated family as an evaluatable patch.

    The rotation by exp(-i theta) commutes with integration, so it is
    applied to the integral values instead of the integrands.  The
    patch's jets are the 17-point stencil on integrals anchored at the
    sample itself: a translation leaves every partial as it is, and the
    rounding of each stencil value is then relative to |F| times the
    step, not to the distance from the base point.
    """
    rot = _rotor(theta)
    f_fn, g_fn = data.compiled[:2]
    domain = data.domain
    slack = 1e-9 * max(domain.extent, 1.0)

    def from_anchor(anchor: complex) -> Callable[[float, float], Vec021]:
        def ev(u: float, v: float) -> Vec021:
            if not domain.contains(u, v, slack):
                raise ValueError(
                    f"({u}, {v}) outside parameter domain {domain}")
            w = complex(u, v)
            zf = rot * integrate_segment(f_fn, anchor, w)
            zg = rot * integrate_segment(g_fn, anchor, w)
            return Vec021(zf.real, zf.imag, zg.real)
        return ev

    def jets(u: float, v: float) -> tuple:
        return _stencil(from_anchor(complex(u, v)), u, v,
                        default_step(domain))[1:]

    return SurfacePatch(from_anchor(data.base), domain, jets=jets)


_SPLIT_MIN = 1024  # vertices per process below which forking costs more


def _rows(data: WeierstrassData, rot: complex, us: list[float],
          vs: list[float], quad_tol: float) -> list[list[tuple]]:
    """Surface points (x, y, z) of the rows v in vs, each at every u in us.

    Integrates once to the start of each row and then incrementally along
    it, so the work is one short segment per vertex instead of one long
    path.
    """
    f_fn, g_fn = data.compiled[:2]
    rows = []
    for v in vs:
        w = complex(us[0], v)
        int_f = integrate_segment(f_fn, data.base, w, quad_tol)
        int_g = integrate_segment(g_fn, data.base, w, quad_tol)
        row = []
        for i, u in enumerate(us):
            if i > 0:
                w_prev, w = w, complex(u, v)
                int_f += integrate_segment(f_fn, w_prev, w, quad_tol)
                int_g += integrate_segment(g_fn, w_prev, w, quad_tol)
            zf = rot * int_f
            zg = rot * int_g
            row.append((zf.real, zf.imag, zg.real))
        rows.append(row)
    return rows


def _block_count(vertices: int) -> int:
    """Processes that share a grid: one per usable CPU, each with at
    least _SPLIT_MIN vertices.  One where there is no fork, or where
    another thread runs, since a forked copy of a threaded process can
    deadlock on a lock some other thread held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, vertices // _SPLIT_MIN))


def _fork_rows(data: WeierstrassData, rot: complex, us: list[float],
               vs: list[float], quad_tol: float) -> tuple[int, int]:
    """Fork a child that pickles the rows of _rows into a pipe and exits;
    returns its pid and the pipe's read end.  The child leaves by
    os._exit, with status 0 only once its rows are written."""
    import pickle
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            rows = _rows(data, rot, us, vs, quad_tol)
            with open(w, "wb") as fh:
                pickle.dump(rows, fh, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _split_rows(data: WeierstrassData, rot: complex, us: list[float],
                blocks: list[list[float]], quad_tol: float
                ) -> list[list[tuple]]:
    """_rows of consecutive blocks of v values, concatenated.

    The parent runs the first block and a forked child each other one.
    A block without rows from a child, because the child failed or died
    or was never forked, runs in the parent after the blocks before it;
    so the rows, and the error of the lowest failing row, are those of
    the serial loop.  Every child is reaped before this returns, and
    killed first if the parent fails.
    """
    # imported here, not at the top: every command's start-up would pay
    import pickle
    import signal
    children: list[tuple[int, int]] = []
    statuses: list[int] = []
    try:
        for block in blocks[1:]:
            try:
                children.append(_fork_rows(data, rot, us, block, quad_tol))
            except OSError:
                break
        rows = _rows(data, rot, us, blocks[0], quad_tol)
        replies = []
        for _, fd in children:
            with open(fd, "rb", closefd=False) as fh:
                replies.append(fh.read())
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in children:
            os.close(fd)
            statuses.append(os.waitpid(pid, 0)[1])
    for k, block in enumerate(blocks[1:]):
        if k < len(children) and statuses[k] == 0:
            rows += pickle.loads(replies[k])
        else:
            rows += _rows(data, rot, us, block, quad_tol)
    return rows


# vertices from which numpy's import pays: batched and scalar rows break
# even near 3,400 on two CPUs, and 4,608 is the golden forked grid
_BATCH_MIN = 5000

# bound on the closed form's rounding, in machine epsilons of max(1, M),
# M the majorant of P on the domain: against 40-digit references the
# worst vertex of 3,000 drawn pairs was at 2.8 of them (see the
# cancellation test in tests/test_weierstrass.py)
_KAPPA = 16.0


def _closed_rows(data: WeierstrassData, rot: complex, us: list[float],
                 vs: list[float], quad_tol: float) -> list[list[tuple]] | None:
    """The rows of _rows as rot * (P(w) - P(base)), P the primitives of F
    and G from expr.primitive; None where either has none, where P fails
    to evaluate at the base or a vertex, or where its rounding, _KAPPA
    epsilons of max(1, M), could exceed quad_tol.  M is the larger
    expr.majorant of the two on the disc through the domain's farthest
    corner: the terms of P can cancel, so |P| itself can be far smaller
    than what its rounding scales with."""
    trees = primitive(data.F), primitive(data.G)
    if trees[0] is None or trees[1] is None:
        return None
    dom = data.domain
    radius = max(math.hypot(u, v) for u in (dom.u0, dom.u1)
                 for v in (dom.v0, dom.v1))
    top = max(1.0, *(majorant(t, radius) for t in trees))
    if not _KAPPA * sys.float_info.epsilon * top <= quad_tol:
        return None
    pf, pg = compile_expr(trees[0]), compile_expr(trees[1])
    try:
        f0, g0 = pf(data.base), pg(data.base)
        values = [[(pf(w), pg(w)) for w in [complex(u, v) for u in us]]
                  for v in vs]
    except EvalError:
        return None
    rows = []
    for row in values:
        out = []
        for a, b in row:
            zf = rot * (a - f0)
            zg = rot * (b - g0)
            out.append((zf.real, zf.imag, zg.real))
        rows.append(out)
    return rows


def grid_eval(data: WeierstrassData, theta: float = 0.0,
              nu: int = 64, nv: int = 64, quad_tol: float = 1e-10):
    """Evaluate the surface on a full grid.

    Returns (us, vs, rows) with rows[j][i] = (x, y, z) at (us[i], vs[j]).
    Each row is its own path integral from the base point (see _rows).
    On grids of at least _BATCH_MIN vertices, where F and G both have a
    primitive whose rounding fits quad_tol, the vertices are that closed
    form (see _closed_rows), serially and without numpy.  Else, there,
    where numpy imports, numpy computes level 0 of the row segments (see
    _batch).  Either may move a vertex in its 13th significant digit,
    and the error raised is the serial loop's.  Otherwise, on
    grids of at least 2 * _SPLIT_MIN vertices the rows are cut into
    contiguous blocks that forked processes integrate side by side, one
    per usable CPU.  The split changes neither the arithmetic nor any
    value: the rows, and the error raised, are the serial loop's.
    """
    rot = _rotor(theta)
    dom = data.domain
    us = _axis(dom.u0, dom.u1, nu)
    vs = _axis(dom.v0, dom.v1, nv)
    if nu * nv >= _BATCH_MIN:
        rows = _closed_rows(data, rot, us, vs, quad_tol)
        if rows is not None:
            return us, vs, rows
        try:
            import numpy  # noqa: F401
        except ImportError:
            pass
        else:
            from ._batch import batched_rows
            return us, vs, batched_rows(data, rot, us, vs, quad_tol)
    n = min(_block_count(nu * nv), nv)
    if n < 2:
        return us, vs, _rows(data, rot, us, vs, quad_tol)
    blocks = [vs[nv * k // n:nv * (k + 1) // n] for k in range(n)]
    return us, vs, _split_rows(data, rot, us, blocks, quad_tol)


def _moduli(f_val: complex, w: complex) -> tuple[float, float]:
    """|F| and |F|^2 from F's value at w; EvalError naming w where
    either is not finite."""
    try:
        abs_f = abs(f_val)
    except OverflowError:
        abs_f = math.inf
    square = abs_f * abs_f
    if not math.isfinite(square):
        raise _failed("overflow: |F|^2 is not finite", ("z",), (w,))
    return abs_f, square


def metric_at(data: WeierstrassData, w: complex) -> float:
    """Conformal factor of the pullback metric, |F(w)|^2."""
    return _moduli(data.compiled.f(w), w)[1]


def second_form_from_data(data: WeierstrassData, w: complex,
                          tol: float = 1e-9, theta: float = 0.0
                          ) -> FundamentalForms:
    """Both fundamental forms of the theta member, in closed form.

    The metric is |F|^2 (du^2 + dv^2), and the second form is the real
    part of one holomorphic function, Phi = G' - G F'/F:

        h11 = Re Phi,   h12 = -Im Phi,   h22 = -h11,   det h = -|Phi|^2

    Phi dw^2 is the surface's Hopf differential (H. Hopf, Differential
    Geometry in the Large, ch. VI), and the Cauchy-Riemann equations of
    Phi are the Codazzi equations of h.  The theta member is the theta = 0
    surface of the data (r F, r G), r = _rotor(theta), so its F and Phi
    are r F and r Phi, except at theta = 0 modulo 2*pi.  F is evaluated
    first: |F| <= tol raises DegenerateMetricError before Phi, which
    divides by F, is evaluated.
    """
    c = data.compiled
    f_val = c.f(w)
    rotated = theta % (2.0 * math.pi) != 0.0
    if rotated:
        r = _rotor(theta)
        f_val = r * f_val
    abs_f, g11 = _moduli(f_val, w)
    if abs_f <= tol:
        raise DegenerateMetricError(
            f"|F({w})| = {abs_f:.3e}: singular point, forms undefined")
    phi = r * c.phi(w) if rotated else c.phi(w)
    return FundamentalForms(g11, 0.0, g11, phi.real, -phi.imag, -phi.real)


def det_h_from_data(data: WeierstrassData, w: complex) -> float:
    """Determinant of h straight from the data, -|Phi(w)|^2 (see
    second_form_from_data), the same for every member of the family."""
    if data.compiled.f(w) == 0:
        raise DegenerateMetricError(f"|F({w})| = 0: singular point")
    return -abs(data.compiled.phi(w)) ** 2
