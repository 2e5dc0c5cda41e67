"""Rebuild a graph surface from a prescribed second fundamental form.

Over the degenerate plane metric a graph (u, v, F(u, v)) has first form
the identity and second form equal to the Hessian of F, so prescribing
(h11, h12, h22) on a rectangle amounts to prescribing that Hessian.  The
data must satisfy the compatibility equations

    d(h11)/dv = d(h12)/du        d(h12)/dv = d(h22)/du

and then F is determined up to an affine function A*u + B*v + C, fixed
here by F = F_u = F_v = 0 at a base point.

Prescriptions come either as expressions in u and v or as node values
on a grid.  Expression input is integrated through an exact Taylor
remainder identity: in closed form when expr.primitive finds the five
primitives it needs, by adaptive quadrature otherwise.  Grid input,
kept as lists of rows, is integrated with the trapezoid rule at the
grid's own resolution, cross-checking the two possible integration
orders against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .expr import (EvalError, Expr, compile_real, differentiate,
                   parse_real_expr, primitive)
from .geometry import Rect, SurfacePatch, _axis, graph_patch
from .quadrature import IntegrationError, adaptive_quad


class CodazziViolationError(Exception):
    """The prescribed form is not the Hessian of any function; report is
    the CodazziReport that failed."""

    def __init__(self, report: "CodazziReport"):
        self.report = report
        super().__init__(
            f"compatibility residual {report.max_residual:.3e} at "
            f"{report.worst_point} exceeds tol {report.tol:.1e}")


class GridMismatchError(Exception):
    """Trapezoid integration in the two L orders disagreed badly."""


RealFn = Callable[[float, float], float]
Grid = list[list[float]]  # node values, row index along u


def _as_real_expr(src) -> Expr:
    if isinstance(src, str):
        return parse_real_expr(src)
    return src


@dataclass(frozen=True, slots=True)
class PrescribedForms:
    """Symmetric second-form components over a rectangle.

    Exactly one of the two storage modes is active: ``exprs`` holds three
    expression trees in u and v, ``grids`` holds three equally shaped
    grids of node values (row index along u, column index along v).
    """

    domain: Rect
    exprs: tuple[Expr, Expr, Expr] | None = None
    grids: tuple[Grid, Grid, Grid] | None = None

    def __post_init__(self):
        if (self.exprs is None) == (self.grids is None):
            raise ValueError("provide exactly one of exprs or grids")
        if self.grids is not None:
            shapes = {_shape(g) for g in self.grids}
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
        """Each component is a 2d array or a sequence of equally long
        rows of numbers."""
        return PrescribedForms(domain, grids=tuple(
            _rows(a) for a in (h11, h12, h22)))


def _rows(arr) -> Grid:
    try:
        if getattr(arr, "ndim", 2) != 2:
            raise TypeError
        return [[float(x) for x in row] for row in arr]
    except TypeError:
        raise ValueError("need a 2d grid: a sequence of rows of "
                         "numbers") from None


def _shape(grid) -> tuple[int, ...]:
    widths = {len(row) for row in grid}
    if len(widths) > 1:
        raise ValueError(f"grid rows differ in length: {sorted(widths)}")
    return (len(grid), *widths)


def _bilinear(grid: Grid, rect: Rect) -> RealFn:
    nu, nv = len(grid), len(grid[0])
    du = (rect.u1 - rect.u0) / (nu - 1)
    dv = (rect.v1 - rect.v0) / (nv - 1)

    def fn(u: float, v: float) -> float:
        s = (u - rect.u0) / du
        t = (v - rect.v0) / dv
        i = min(max(int(s), 0), nu - 2)
        j = min(max(int(t), 0), nv - 2)
        a, b = s - i, t - j
        return ((1 - a) * (1 - b) * grid[i][j]
                + a * (1 - b) * grid[i + 1][j]
                + (1 - a) * b * grid[i][j + 1]
                + a * b * grid[i + 1][j + 1])

    return fn


class CodazziReport(NamedTuple):
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

    h11, h12, h22 = forms.grids
    nu, nv = len(h11), len(h11[0])
    du = (forms.domain.u1 - forms.domain.u0) / (nu - 1)
    dv = (forms.domain.v1 - forms.domain.v0) / (nv - 1)
    # interior nodes in row-major order
    res = [abs((h11[i][j + 1] - h11[i][j - 1]) / (2 * dv)
               - (h12[i + 1][j] - h12[i - 1][j]) / (2 * du))
           + abs((h12[i][j + 1] - h12[i][j - 1]) / (2 * dv)
                 - (h22[i + 1][j] - h22[i - 1][j]) / (2 * du))
           for i in range(1, nu - 1) for j in range(1, nv - 1)]
    if not res:
        return CodazziReport(0.0, (forms.domain.u0, forms.domain.v0),
                             "grid-fd", tol)
    k = _argmax(res)
    i, j = divmod(k, nv - 2)
    where = (_axis(forms.domain.u0, forms.domain.u1, nu)[i + 1],
             _axis(forms.domain.v0, forms.domain.v1, nv)[j + 1])
    return CodazziReport(res[k], where, "grid-fd", tol)


def _argmax(xs: list[float]) -> int:
    """Index of the first largest entry, or of the first NaN, as
    np.argmax picks it."""
    best = 0
    for k, x in enumerate(xs):
        if x != x:
            return k
        if x > xs[best]:
            best = k
    return best


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


def _from_base(xs: Sequence[float], d: float, b: int) -> list[float]:
    """Trapezoid integral from node b to every node of xs.

    The steps are c * (x[k+1] + x[k]) with c = 0.5 * d, summed from the
    first step on (so a -0.0 survives, as in np.cumsum), and the sum at
    node b is subtracted from every node's.
    """
    c = 0.5 * d
    sums = [0.0]
    acc = None
    for k in range(len(xs) - 1):
        step = c * (xs[k + 1] + xs[k])
        acc = step if acc is None else acc + step
        sums.append(acc)
    at_b = sums[b]
    return [p - at_b for p in sums]


def _columns(rows: Grid) -> Grid:
    return [list(col) for col in zip(*rows)]


def integrate_hessian(forms: PrescribedForms,
                      base: tuple[float, float] | None = None,
                      tol: float = 1e-8) -> Grid:
    """Node values of F on the grid of grid input, by trapezoid
    integration from a base node where F, F_u and F_v are 0.

    Runs the double integration in both L orders (along v = v0 first,
    then in v; and along u = u0 first, then in u) and raises when the
    two node arrays disagree beyond 10*tol: for compatible data the
    orders agree up to the trapezoid's own discretization error, so tol
    should be chosen at the grid's resolution scale.  Constant and
    linear prescriptions integrate exactly.  The result is a list of
    rows, row index along u.

    The base defaults to the domain center and must sit on a grid node
    (odd sample counts put the center of a symmetric domain on one).
    """
    if forms.grids is None:
        raise ValueError("integrate_hessian needs grid input")
    h11, h12, h22 = forms.grids
    nu, nv = len(h11), len(h11[0])
    dom = forms.domain
    if base is None:
        base = (0.5 * (dom.u0 + dom.u1), 0.5 * (dom.v0 + dom.v1))
    ib, jb = _node_index(dom, base, (nu, nv))
    du = (dom.u1 - dom.u0) / (nu - 1)
    dv = (dom.v1 - dom.v0) / (nv - 1)

    def shifted(offsets: Sequence[float], lines: Grid, d: float,
                b: int) -> Grid:
        """offsets[k] plus the integral from node b along lines[k]."""
        return [[o + p for p in _from_base(line, d, b)]
                for o, line in zip(offsets, lines)]

    # order A: march along the row v = v_jb, then integrate in v
    fu_row = _from_base([row[jb] for row in h11], du, ib)  # F_u on the row
    fv_row = _from_base([row[jb] for row in h12], du, ib)  # F_v on the row
    f_row = _from_base(fu_row, du, ib)                     # F on the row
    fv_a = shifted(fv_row, h22, dv, jb)                     # F_v everywhere
    f_a = shifted(f_row, fv_a, dv, jb)

    # order B: march along the column u = u_ib, then integrate in u
    fv_col = _from_base(h22[ib], dv, jb)
    fu_col = _from_base(h12[ib], dv, jb)
    f_col = _from_base(fv_col, dv, jb)
    fu_b = shifted(fu_col, _columns(h11), du, ib)           # by columns
    f_b = _columns(shifted(f_col, fu_b, du, ib))

    gaps = [abs(a - b) for ra, rb in zip(f_a, f_b) for a, b in zip(ra, rb)]
    gap = gaps[_argmax(gaps)]
    if gap > 10.0 * tol:
        raise GridMismatchError(
            f"L-order integrations disagree by {gap:.3e} (> 10*tol = "
            f"{10.0 * tol:.3e}); data incompatible at this resolution")
    return [[0.5 * (a + b) for a, b in zip(ra, rb)]
            for ra, rb in zip(f_a, f_b)]


def surface_from_forms(forms: PrescribedForms,
                       base: tuple[float, float] | None = None,
                       tol: float = 1e-8) -> SurfacePatch:
    """Graph patch whose Hessian realizes the prescription, with F, F_u
    and F_v 0 at the base point (by default the domain centre).

    Raises CodazziViolationError before doing any integration when the
    compatibility residual, checked on codazzi_check's default grid,
    exceeds tol.  Expression input evaluates

        F(u,v) = int_{u0}^{u} (u-s) h11(s, v0) ds
               + (v-v0) int_{u0}^{u} h12(s, v0) ds
               + int_{v0}^{v} (v-t) h22(u, t) dt

    in closed form when expr.primitive integrates the prescription
    (see _closed_form_height), by adaptive quadrature otherwise; the
    identity is exact for compatible data, so the patch is as smooth as
    the prescription and safe to probe with finite differences.  Grid
    input interpolates the node values of integrate_hessian bilinearly.
    """
    report = codazzi_check(forms, tol=max(tol, 1e-8))
    if not report.passed:
        raise CodazziViolationError(report)

    dom = forms.domain
    if base is None:
        base = (0.5 * (dom.u0 + dom.u1), 0.5 * (dom.v0 + dom.v1))
    u0, v0 = base
    if not dom.contains(u0, v0):
        raise ValueError(f"base {base} outside domain")

    if forms.exprs is not None:
        height = (_closed_form_height(forms.exprs, base)
                  or _quadrature_height(forms.exprs, base))
        return graph_patch(height, dom)

    values = integrate_hessian(forms, base, tol)
    return graph_patch(_bilinear(values, dom), dom)


def _closed_form_height(exprs: tuple[Expr, Expr, Expr],
                        base: tuple[float, float]) -> RealFn | None:
    """The identity of surface_from_forms with P11 = int h11 du,
    Q11 = int P11 du, P12 = int h12 du, P22 = int h22 dv and
    Q22 = int P22 dv:

        bend_u = Q11(u, v0) - Q11(u0, v0) - (u - u0) P11(u0, v0)
        shear  = P12(u, v0) - P12(u0, v0)
        bend_v = Q22(u, v) - Q22(u, v0) - (v - v0) P22(u, v0)

    None when one of the primitives does not exist or fails to evaluate
    at the base point.
    """
    h11, h12, h22 = exprs
    p11, p12, p22 = primitive(h11, "u"), primitive(h12, "u"), primitive(h22, "v")
    q11 = None if p11 is None else primitive(p11, "u")
    q22 = None if p22 is None else primitive(p22, "v")
    if None in (p12, q11, q22):
        return None
    Q11, P11, P12, Q22, P22 = (compile_real(t)
                               for t in (q11, p11, p12, q22, p22))
    u0, v0 = base
    try:
        q11_0, p11_0, p12_0 = Q11(u0, v0), P11(u0, v0), P12(u0, v0)
    except EvalError:
        return None

    def height(u: float, v: float) -> float:
        try:
            bend_u = Q11(u, v0) - q11_0 - (u - u0) * p11_0
            shear = P12(u, v0) - p12_0
            bend_v = Q22(u, v) - Q22(u, v0) - (v - v0) * P22(u, v0)
        except EvalError as err:
            raise EvalError(
                f"height at ({u!r}, {v!r}) from base ({u0!r}, {v0!r}): "
                f"{err}") from None
        return bend_u + (v - v0) * shear + bend_v

    return height


def _quadrature_height(exprs: tuple[Expr, Expr, Expr],
                       base: tuple[float, float]) -> RealFn:
    """The identity of surface_from_forms by adaptive quadrature."""
    h11f, h12f, h22f = (compile_real(e) for e in exprs)
    u0, v0 = base

    def height(u: float, v: float) -> float:
        try:
            bend_u = adaptive_quad(lambda s: (u - s) * h11f(s, v0), u0, u)
            shear = adaptive_quad(lambda s: h12f(s, v0), u0, u)
            bend_v = adaptive_quad(lambda t: (v - t) * h22f(u, t), v0, v)
        except IntegrationError as err:
            raise IntegrationError(
                f"height at ({u!r}, {v!r}) from base ({u0!r}, {v0!r}): "
                f"{err}") from None
        return (float(bend_u.real) + (v - v0) * float(shear.real)
                + float(bend_v.real))

    return height
