"""Rebuild a graph surface from a prescribed second fundamental form.

Over the degenerate plane metric a graph (u, v, F(u, v)) has first form
the identity and second form equal to the Hessian of F, so prescribing
(h11, h12, h22) on a rectangle amounts to prescribing that Hessian.  The
data must satisfy the compatibility equations

    d(h11)/dv = d(h12)/du        d(h12)/dv = d(h22)/du

and then F is determined up to an affine function A*u + B*v + C, fixed
here by a seed (value and both first derivatives at a base point).

Prescriptions come either as expressions in u and v or as arrays on a
grid.  Expression input is integrated with adaptive quadrature through
an exact Taylor remainder identity; grid input is integrated with the
trapezoid rule at the grid's own resolution, cross-checking the two
possible integration orders against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .expr import Expr, parse_real_expr, compile_real, differentiate
from .geometry import Rect, SurfacePatch, _axis, graph_patch
from .quadrature import IntegrationError, adaptive_quad

if TYPE_CHECKING:
    import numpy as np


class CodazziViolationError(Exception):
    """The prescribed form is not the Hessian of any function."""


class GridMismatchError(Exception):
    """Trapezoid integration in the two L orders disagreed badly."""


RealFn = Callable[[float, float], float]


def _as_real_expr(src) -> Expr:
    if isinstance(src, str):
        return parse_real_expr(src)
    return src


@dataclass(frozen=True, slots=True)
class PrescribedForms:
    """Symmetric second-form components over a rectangle.

    Exactly one of the two storage modes is active: ``exprs`` holds three
    expression trees in u and v, ``grids`` holds three equally shaped
    arrays of node values (row index along u, column index along v).
    """

    domain: Rect
    exprs: tuple[Expr, Expr, Expr] | None = None
    grids: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if (self.exprs is None) == (self.grids is None):
            raise ValueError("provide exactly one of exprs or grids")
        if self.grids is not None:
            shapes = {g.shape for g in self.grids}
            if len(shapes) != 1:
                raise ValueError(f"grid shapes differ: {shapes}")
            (shape,) = shapes
            if len(shape) != 2 or shape[0] < 2 or shape[1] < 2:
                raise ValueError(f"need a 2d grid of at least 2x2, got {shape}")

    @staticmethod
    def from_expressions(h11, h12, h22, domain: Rect) -> "PrescribedForms":
        return PrescribedForms(domain, exprs=(
            _as_real_expr(h11), _as_real_expr(h12), _as_real_expr(h22)))

    @staticmethod
    def from_grid(h11, h12, h22, domain: Rect) -> "PrescribedForms":
        import numpy as np
        arrs = tuple(np.asarray(a, dtype=float) for a in (h11, h12, h22))
        return PrescribedForms(domain, grids=arrs)


def _bilinear(grid: np.ndarray, rect: Rect) -> RealFn:
    nu, nv = grid.shape
    du = (rect.u1 - rect.u0) / (nu - 1)
    dv = (rect.v1 - rect.v0) / (nv - 1)

    def fn(u: float, v: float) -> float:
        s = (u - rect.u0) / du
        t = (v - rect.v0) / dv
        i = min(max(int(s), 0), nu - 2)
        j = min(max(int(t), 0), nv - 2)
        a, b = s - i, t - j
        return float((1 - a) * (1 - b) * grid[i, j]
                     + a * (1 - b) * grid[i + 1, j]
                     + (1 - a) * b * grid[i, j + 1]
                     + a * b * grid[i + 1, j + 1])

    return fn


@dataclass(frozen=True, slots=True)
class CodazziReport:
    max_residual: float
    worst_point: tuple[float, float]
    mode: str
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def codazzi_check(forms: PrescribedForms, tol: float = 1e-8,
                  grid: tuple[int, int] = (33, 33)) -> CodazziReport:
    """Largest violation of the two compatibility equations.

    Expression input is differentiated symbolically, so the residual is
    the true pointwise defect sampled on the grid.  Grid input uses
    central differences on interior nodes at the grid's own spacing.
    """
    if forms.exprs is not None:
        h11, h12, h22 = forms.exprs
        r1 = _diff_pair(h11, "v", h12, "u")
        r2 = _diff_pair(h12, "v", h22, "u")
        worst, where = 0.0, (forms.domain.u0, forms.domain.v0)
        nu, nv = grid
        us = _axis(forms.domain.u0, forms.domain.u1, nu)
        vs = _axis(forms.domain.v0, forms.domain.v1, nv)
        for u in us:
            for v in vs:
                res = abs(r1(u, v)) + abs(r2(u, v))
                if res > worst:
                    worst, where = res, (u, v)
        return CodazziReport(worst, where, "symbolic", tol)

    import numpy as np
    h11, h12, h22 = forms.grids
    nu, nv = h11.shape
    du = (forms.domain.u1 - forms.domain.u0) / (nu - 1)
    dv = (forms.domain.v1 - forms.domain.v0) / (nv - 1)
    r1 = ((h11[1:-1, 2:] - h11[1:-1, :-2]) / (2 * dv)
          - (h12[2:, 1:-1] - h12[:-2, 1:-1]) / (2 * du))
    r2 = ((h12[1:-1, 2:] - h12[1:-1, :-2]) / (2 * dv)
          - (h22[2:, 1:-1] - h22[:-2, 1:-1]) / (2 * du))
    res = np.abs(r1) + np.abs(r2)
    if res.size == 0:
        return CodazziReport(0.0, (forms.domain.u0, forms.domain.v0),
                             "grid-fd", tol)
    flat = int(np.argmax(res))
    i, j = np.unravel_index(flat, res.shape)
    where = (_axis(forms.domain.u0, forms.domain.u1, nu)[i + 1],
             _axis(forms.domain.v0, forms.domain.v1, nv)[j + 1])
    return CodazziReport(float(res.max()), where, "grid-fd", tol)


def _diff_pair(a: Expr, va: str, b: Expr, vb: str) -> RealFn:
    fa = compile_real(differentiate(a, va))
    fb = compile_real(differentiate(b, vb))
    return lambda u, v: fa(u, v) - fb(u, v)


def _node_index(rect: Rect, base: tuple[float, float],
                shape: tuple[int, int]) -> tuple[int, int]:
    """Grid indices of the base point, which must sit on a node."""
    u0, v0 = base
    nu, nv = shape
    du = (rect.u1 - rect.u0) / (nu - 1)
    dv = (rect.v1 - rect.v0) / (nv - 1)
    ib = round((u0 - rect.u0) / du)
    jb = round((v0 - rect.v0) / dv)
    tol = 1e-9 * max(rect.extent, 1.0)
    if not (0 <= ib < nu and 0 <= jb < nv) \
            or abs(rect.u0 + ib * du - u0) > tol \
            or abs(rect.v0 + jb * dv - v0) > tol:
        raise ValueError(f"base {base} does not sit on a grid node")
    return ib, jb


def _sample_grids(forms: PrescribedForms, grid: tuple[int, int]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if forms.grids is not None:
        return forms.grids
    import numpy as np
    nu, nv = grid
    dom = forms.domain
    us = _axis(dom.u0, dom.u1, nu)
    vs = _axis(dom.v0, dom.v1, nv)
    fns = [compile_real(e) for e in forms.exprs]
    return tuple(np.array([[fn(u, v) for v in vs] for u in us]) for fn in fns)


def integrate_hessian(forms: PrescribedForms,
                      base: tuple[float, float] | None = None,
                      seed: Sequence[float] = (0.0, 0.0, 0.0),
                      grid: tuple[int, int] = (33, 33),
                      tol: float = 1e-8) -> np.ndarray:
    """Node values of F by trapezoid integration from a corner base.

    Runs the double integration in both L orders (along v = v0 first,
    then in v; and along u = u0 first, then in u) and raises when the
    two node arrays disagree beyond 10*tol: for compatible data the
    orders agree up to the trapezoid's own discretization error, so tol
    should be chosen at the grid's resolution scale.  Constant and
    linear prescriptions integrate exactly.  Expression input is
    sampled on ``grid``; grid input keeps its own shape.

    The base defaults to the domain center and must sit on a grid node
    (odd sample counts put the center of a symmetric domain on one).
    """
    import numpy as np
    h11, h12, h22 = _sample_grids(forms, grid)
    nu, nv = h11.shape
    dom = forms.domain
    if base is None:
        base = (0.5 * (dom.u0 + dom.u1), 0.5 * (dom.v0 + dom.v1))
    ib, jb = _node_index(dom, base, (nu, nv))
    f0, fu0, fv0 = (float(s) for s in seed)
    du = (dom.u1 - dom.u0) / (nu - 1)
    dv = (dom.v1 - dom.v0) / (nv - 1)

    def from_base(arr: np.ndarray, axis: int, d: float, b: int) -> np.ndarray:
        """Trapezoid integral from node b to every node along axis."""
        n = arr.shape[axis]
        mids = 0.5 * d * (np.take(arr, range(1, n), axis)
                          + np.take(arr, range(0, n - 1), axis))
        p = np.zeros_like(arr)
        csum = np.cumsum(mids, axis=axis)
        if arr.ndim == 1:
            p[1:] = csum
            return p - p[b]
        if axis == 0:
            p[1:, :] = csum
            return p - p[b:b + 1, :]
        p[:, 1:] = csum
        return p - p[:, b:b + 1]

    # order A: march along the row v = v_jb, then integrate in v
    fu_row = fu0 + from_base(h11[:, jb], 0, du, ib)         # F_u on the row
    fv_row = fv0 + from_base(h12[:, jb], 0, du, ib)         # F_v on the row
    f_row = f0 + from_base(fu_row, 0, du, ib)               # F on the row
    fv_a = fv_row[:, None] + from_base(h22, 1, dv, jb)      # F_v everywhere
    f_a = f_row[:, None] + from_base(fv_a, 1, dv, jb)

    # order B: march along the column u = u_ib, then integrate in u
    fv_col = fv0 + from_base(h22[ib, :], 0, dv, jb)
    fu_col = fu0 + from_base(h12[ib, :], 0, dv, jb)
    f_col = f0 + from_base(fv_col, 0, dv, jb)
    fu_b = fu_col[None, :] + from_base(h11, 0, du, ib)
    f_b = f_col[None, :] + from_base(fu_b, 0, du, ib)

    gap = float(np.abs(f_a - f_b).max())
    if gap > 10.0 * tol:
        raise GridMismatchError(
            f"L-order integrations disagree by {gap:.3e} (> 10*tol = "
            f"{10.0 * tol:.3e}); data incompatible at this resolution")
    return 0.5 * (f_a + f_b)


def surface_from_forms(forms: PrescribedForms,
                       seed: Sequence[float] = (0.0, 0.0, 0.0),
                       grid: tuple[int, int] = (33, 33),
                       base: tuple[float, float] | None = None,
                       tol: float = 1e-8) -> SurfacePatch:
    """Graph patch whose Hessian realizes the prescription.

    Raises CodazziViolationError before doing any integration when the
    compatibility residual exceeds tol.  Expression input evaluates

        F(u,v) = F0 + (u-u0) Fu0
               + int_{u0}^{u} (u-s) h11(s, v0) ds
               + (v-v0) [ Fv0 + int_{u0}^{u} h12(s, v0) ds ]
               + int_{v0}^{v} (v-t) h22(u, t) dt

    by adaptive quadrature; the identity is exact for compatible data,
    so the patch is as smooth as the prescription and safe to probe
    with finite differences.  Grid input interpolates the node values
    of integrate_hessian bilinearly.
    """
    report = codazzi_check(forms, tol=max(tol, 1e-8))
    if not report.passed:
        raise CodazziViolationError(
            f"compatibility residual {report.max_residual:.3e} at "
            f"{report.worst_point} exceeds tol {report.tol:.1e}")

    dom = forms.domain
    if base is None:
        base = (0.5 * (dom.u0 + dom.u1), 0.5 * (dom.v0 + dom.v1))
    u0, v0 = base
    if not dom.contains(u0, v0):
        raise ValueError(f"base {base} outside domain")
    f0, fu0, fv0 = (float(s) for s in seed)

    if forms.exprs is not None:
        h11f, h12f, h22f = (compile_real(e) for e in forms.exprs)

        def height(u: float, v: float) -> float:
            try:
                bend_u = adaptive_quad(lambda s: (u - s) * h11f(s, v0), u0, u)
                shear = adaptive_quad(lambda s: h12f(s, v0), u0, u)
                bend_v = adaptive_quad(lambda t: (v - t) * h22f(u, t), v0, v)
            except IntegrationError as err:
                raise IntegrationError(
                    f"height at ({u!r}, {v!r}) from base ({u0!r}, {v0!r}): "
                    f"{err}") from None
            return (f0 + (u - u0) * fu0 + float(bend_u.real)
                    + (v - v0) * (fv0 + float(shear.real))
                    + float(bend_v.real))

        return graph_patch(height, dom)

    values = integrate_hessian(forms, base, seed, grid, tol)
    return graph_patch(_bilinear(values, dom), dom)
