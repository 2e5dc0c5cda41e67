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
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .expr import Expr, compile_expr, differentiate
from .geometry import (FundamentalForms, Rect, SurfacePatch, Vec021,
                       default_step, _axis, _stencil)
from .quadrature import integrate_segment


class CompiledData(NamedTuple):
    """F, G, F' and G' compiled to functions of z."""

    f: Callable[[complex], complex]
    g: Callable[[complex], complex]
    df: Callable[[complex], complex]
    dg: Callable[[complex], complex]


@dataclass(frozen=True, slots=True)
class WeierstrassData:
    """Holomorphic pair with its base point and parameter rectangle.

    The rectangle is convex, so every straight segment from the base
    point stays inside it and the path integrals below are well defined
    without any path bookkeeping.  ``compiled`` holds F, G and their
    derivatives compiled once, so per-point callers never hash the
    expression trees again.
    """

    F: Expr
    G: Expr
    base: complex = 0j
    domain: Rect = Rect(-1.0, 1.0, -1.0, 1.0)
    compiled: CompiledData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.domain.contains(self.base.real, self.base.imag):
            raise ValueError(
                f"base point {self.base} outside domain {self.domain}")
        object.__setattr__(self, "compiled", CompiledData(
            compile_expr(self.F), compile_expr(self.G),
            compile_expr(differentiate(self.F)),
            compile_expr(differentiate(self.G))))


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


def grid_eval(data: WeierstrassData, theta: float = 0.0,
              nu: int = 64, nv: int = 64, quad_tol: float = 1e-10):
    """Evaluate the surface on a full grid.

    Returns (us, vs, rows) with rows[j][i] = (x, y, z) at (us[i], vs[j]).
    Each row is its own path integral from the base point (see _rows),
    so on grids of at least 2 * _SPLIT_MIN vertices the rows are cut
    into contiguous blocks that forked processes integrate side by side,
    one per usable CPU.  The split changes neither the arithmetic nor
    any value: the rows, and the error raised, are the serial loop's.
    """
    rot = _rotor(theta)
    dom = data.domain
    us = _axis(dom.u0, dom.u1, nu)
    vs = _axis(dom.v0, dom.v1, nv)
    n = min(_block_count(nu * nv), nv)
    if n < 2:
        return us, vs, _rows(data, rot, us, vs, quad_tol)
    blocks = [vs[nv * k // n:nv * (k + 1) // n] for k in range(n)]
    return us, vs, _split_rows(data, rot, us, blocks, quad_tol)


def metric_at(data: WeierstrassData, w: complex) -> float:
    """Conformal factor of the pullback metric, |F(w)|^2."""
    return abs(data.compiled.f(w)) ** 2


def _data_values(data: WeierstrassData, w: complex):
    """F, G, F' and G' at w."""
    c = data.compiled
    return c.f(w), c.g(w), c.df(w), c.dg(w)


def second_form_from_data(data: WeierstrassData, w: complex,
                          tol: float = 1e-9, theta: float = 0.0
                          ) -> FundamentalForms:
    """Both fundamental forms of the theta member, in closed form.

    The theta member is the theta = 0 surface of the data (r F, r G),
    r = _rotor(theta), so F, G, F' and G' are each multiplied by r,
    except at theta = 0 modulo 2*pi.  Holomorphy turns the parameter
    derivatives of Re G and |F| into algebraic combinations of F, G and
    their complex derivatives:

        (Re G)_u = Re G',             (Re G)_v = -Im G'
        |F|_u = Re(F' conj F) / |F|,  |F|_v = -Im(F' conj F) / |F|

    from which h11 = -h22 and h12 follow without any finite differences.
    """
    f_val, g_val, fp, gp = _data_values(data, w)
    if theta % (2.0 * math.pi) != 0.0:
        r = _rotor(theta)
        f_val, g_val, fp, gp = r * f_val, r * g_val, r * fp, r * gp
    abs_f = abs(f_val)
    if abs_f <= tol:
        raise ZeroDivisionError(
            f"|F({w})| = {abs_f:.3e}: singular point, forms undefined")
    re_g_u = gp.real
    re_g_v = -gp.imag
    cross = fp * f_val.conjugate()
    abs_f_u = cross.real / abs_f
    abs_f_v = -cross.imag / abs_f
    h11 = (re_g_u - (abs_f_u / abs_f) * g_val.real
           - (abs_f_v / abs_f) * g_val.imag)
    h12 = (re_g_v - (abs_f_v / abs_f) * g_val.real
           + (abs_f_u / abs_f) * g_val.imag)
    g11 = abs_f * abs_f
    return FundamentalForms(g11, 0.0, g11, h11, h12, -h11)


def det_h_from_data(data: WeierstrassData, w: complex) -> float:
    """Determinant of h straight from the data.

    det h = -(|G|_u^2 + |G|_v^2) - |G/F|^2 (|F|_u^2 + |F|_v^2)
            + 2 |G/F| (|F|_u |G|_u + |F|_v |G|_v)

    |G| is not differentiable at zeros of G, but there the whole
    expression has the limit -|G'(w)|^2 (the first bracket tends to
    |G'|^2 and both G/F terms vanish with |G|), which also covers
    G identically zero.
    """
    f_val, g_val, fp, gp = _data_values(data, w)
    abs_f, abs_g = abs(f_val), abs(g_val)
    if abs_f == 0.0:
        raise ZeroDivisionError(f"|F({w})| = 0: singular point")
    if abs_g < 1e-300:
        return -abs(gp) ** 2
    cross_f = fp * f_val.conjugate()
    cross_g = gp * g_val.conjugate()
    abs_f_u, abs_f_v = cross_f.real / abs_f, -cross_f.imag / abs_f
    abs_g_u, abs_g_v = cross_g.real / abs_g, -cross_g.imag / abs_g
    ratio = abs_g / abs_f
    return (-(abs_g_u ** 2 + abs_g_v ** 2)
            - ratio ** 2 * (abs_f_u ** 2 + abs_f_v ** 2)
            + 2.0 * ratio * (abs_f_u * abs_g_u + abs_f_v * abs_g_v))
