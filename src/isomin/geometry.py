"""Geometry kernel for R^3 with the degenerate inner product dx^2 + dy^2.

The metric ignores the z-direction entirely.  Every tangent plane that is
non-degenerate for this product is transversal to the constant field
XI = (0, 0, 1), so XI plays the role the unit normal plays in Euclidean
geometry: second derivatives of a parametrisation split into a tangential
part plus a multiple of XI, and that multiple is the second fundamental
form.  Surfaces given by expression trees (graphs and charts) carry
exact jets from symbolic differentiation; any other patch is
differentiated by Richardson-extrapolated central differences.
SurfacePatch is also the surface type of the Minkowski side of the
correspondence (see minkowski), whose points are four-vectors, and
_componentwise gives both sides' vector types (Vec021 here, Vec4M there)
their one vector arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, neg, sub, truediv
from typing import Callable, NamedTuple

from .expr import Expr, Lit, Var, compile_real, differentiate


class DegenerateMetricError(Exception):
    """The induced metric is singular at the requested point."""


def _componentwise(cls):
    """The one vector arithmetic of Vec021 and minkowski.Vec4M, component
    by component: + and - with a vector of the same type, * by a scalar on
    either side (always component * scalar), / by a scalar, unary -."""
    new = tuple.__new__

    def __add__(a, b):
        return new(cls, map(add, a, b)) if type(b) is cls else NotImplemented

    def __sub__(a, b):
        return new(cls, map(sub, a, b)) if type(b) is cls else NotImplemented

    def __mul__(a, s):
        return new(cls, map(mul, a, repeat(s)))

    def __truediv__(a, s):
        return new(cls, map(truediv, a, repeat(s)))

    def __neg__(a):
        return new(cls, map(neg, a))

    cls.__add__, cls.__sub__, cls.__neg__ = __add__, __sub__, __neg__
    cls.__mul__ = cls.__rmul__ = __mul__
    cls.__truediv__ = __truediv__
    return cls


@_componentwise
class Vec021(NamedTuple):
    x: float
    y: float
    z: float


XI = Vec021(0.0, 0.0, 1.0)


def deg_inner(a: Vec021, b: Vec021) -> float:
    """Degenerate inner product; the z-components do not contribute."""
    return a.x * b.x + a.y * b.y


def sigma(a: Vec021) -> float:
    """Coordinate sum x + y + z; the bilinear weight of the deformed
    connections below is sigma(X) * sigma(Y)."""
    return a.x + a.y + a.z


@dataclass(frozen=True, slots=True)
class Rect:
    u0: float
    u1: float
    v0: float
    v1: float

    def __post_init__(self):
        if not (self.u0 < self.u1 and self.v0 < self.v1):
            raise ValueError(f"empty parameter rectangle {self}")

    @property
    def extent(self) -> float:
        return max(self.u1 - self.u0, self.v1 - self.v0)

    def contains(self, u: float, v: float, slack: float = 0.0) -> bool:
        return (self.u0 - slack <= u <= self.u1 + slack
                and self.v0 - slack <= v <= self.v1 + slack)

    def margin(self, u: float, v: float) -> float:
        return min(u - self.u0, self.u1 - u, v - self.v0, self.v1 - v)


def _axis(lo: float, hi: float, n: int, inset: float = 0.0) -> list[float]:
    """The lattice of every grid sweep: n nodes from lo + inset to hi - inset.

    Bit for bit np.linspace(lo + inset, hi - inset, n).tolist(), including
    its branch for a step that underflows to zero.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes per axis, got {n}")
    lo, hi = float(lo + inset), float(hi - inset)
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        xs = [k / div * delta + lo for k in range(n)]
    else:
        xs = [k * step + lo for k in range(n)]
    xs[-1] = hi
    return xs


@dataclass(frozen=True)
class SurfacePatch:
    """A parametrised piece of surface, in R^{0,2,1} (Vec021 values) or
    in R^4_1 (minkowski.Vec4M values, a chart or a lift of a patch).

    flat marks a graph, whose parameters are flat coordinates, which
    analyze's Codazzi check needs.
    jets, when given, returns (f_u, f_v, f_uu, f_uv, f_vv) at a point and
    replaces the stencil on the evaluator in _jets, the one source of
    partials: exact for expression trees, a stencil on sample-anchored
    integrals for a Weierstrass patch.  flat comes before jets, so jets
    is always passed by keyword.
    """

    evaluator: Callable[[float, float], tuple]
    domain: Rect
    flat: bool = False
    jets: Callable[[float, float], tuple] | None = None

    def __call__(self, u: float, v: float) -> Vec021:
        return self.evaluator(u, v)


def expr_chart(trees: tuple[Expr, ...], vec: Callable
               ) -> tuple[Callable, Callable]:
    """Evaluator and exact jets of the chart (u, v) -> vec(*trees) of
    real trees in u and v.

    The jets function gives (f_u, f_v, f_uu, f_uv, f_vv), each a vec of
    the component partials.  A partial that differentiates to a finite
    literal is a constant of its generated code, every other one a
    compiled call.  Each component that is not a literal or a variable
    is evaluated first, so a chart undefined at the point fails there as
    it would under a stencil.
    """
    fns = [compile_real(t) for t in trees]

    def ev(u: float, v: float):
        return vec(*(fn(u, v) for fn in fns))

    ns: dict = {"_vec": vec}

    def term(e: Expr) -> str:
        if isinstance(e, Lit) and not e.value.imag \
                and math.isfinite(e.value.real):
            return repr(e.value.real)
        name = f"_f{len(ns)}"
        ns[name] = compile_real(e)
        return f"{name}(u, v)"

    d_u = [differentiate(t, "u") for t in trees]
    d_v = [differentiate(t, "v") for t in trees]
    rows = (d_u, d_v, [differentiate(e, "u") for e in d_u],
            [differentiate(e, "v") for e in d_u],
            [differentiate(e, "v") for e in d_v])
    checks = "".join(f"    {term(t)}\n" for t in trees
                     if not isinstance(t, (Lit, Var)))
    vecs = ", ".join(f"_vec({', '.join(map(term, row))})" for row in rows)
    exec(f"def jets(u, v):\n{checks}    return ({vecs})\n", ns)  # noqa: S102
    return ev, ns["jets"]


def graph_patch(height: Callable[[float, float], float] | Expr,
                domain: Rect) -> SurfacePatch:
    """Patch (u, v, F(u, v)) from a callable or a real expression tree.

    A tree makes the chart (u, v, F) of expr_chart, whose exact jets
    take six compiled calls per point: F and its five partials.
    """
    if not callable(height):
        ev, jets = expr_chart((Var("u"), Var("v"), height), Vec021)
        return SurfacePatch(ev, domain, flat=True, jets=jets)

    def ev(u: float, v: float) -> Vec021:
        return Vec021(u, v, float(height(u, v)))

    return SurfacePatch(ev, domain, flat=True)


def chart_patch(trees: tuple[Expr, ...], domain: Rect, vec: Callable
                ) -> SurfacePatch:
    """Patch (u, v) -> vec(*trees) of real expression trees, exact jets:
    Vec021 for a chart in R^{0,2,1}, minkowski.Vec4M for one in R^4_1."""
    ev, jets = expr_chart(trees, vec)
    return SurfacePatch(ev, domain, jets=jets)


class FundamentalForms(NamedTuple):
    g11: float
    g12: float
    g22: float
    h11: float
    h12: float
    h22: float

    @property
    def det_g(self) -> float:
        return self.g11 * self.g22 - self.g12 ** 2

    @property
    def det_h(self) -> float:
        return self.h11 * self.h22 - self.h12 ** 2


def default_step(domain: Rect) -> float:
    return 1e-4 * max(domain.extent, 1.0)


def _rich1(fm: Vec021, fmh: Vec021, fph: Vec021, fp: Vec021, h: float):
    """4th-order first derivative from values at -h, -h/2, +h/2, +h."""
    d_h = (fp - fm) / (2.0 * h)
    d_h2 = (fph - fmh) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _rich2(fm, fmh, f0, fph, fp, h: float):
    """4th-order second derivative from -h, -h/2, 0, +h/2, +h."""
    c_h = (fp - 2.0 * f0 + fm) / (h * h)
    c_h2 = (fph - 2.0 * f0 + fmh) / (h * h / 4.0)
    return (4.0 * c_h2 - c_h) / 3.0


def _rich_mixed(vals: dict, h: float):
    """4th-order mixed derivative from the two corner stencils."""
    m_h = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) \
        / (4.0 * h * h)
    m_h2 = (vals[(0.5, 0.5)] - vals[(0.5, -0.5)] - vals[(-0.5, 0.5)]
            + vals[(-0.5, -0.5)]) / (h * h)
    return (4.0 * m_h2 - m_h) / 3.0


_OFFSETS = (-1, -0.5, 0.5, 1)


def _stencil(ev: Callable, u: float, v: float, h: float):
    """Value and jets (f, f_u, f_v, f_uu, f_uv, f_vv) of ev at (u, v).

    Seventeen samples: the centre, offsets -h, -h/2, +h/2, +h along each
    axis and the same offsets along both diagonals.  ev may return any
    vector type with componentwise + and - and scalar * and /.
    """
    f0 = ev(u, v)
    um, umh, uph, up = (ev(u + s * h, v) for s in _OFFSETS)
    vm, vmh, vph, vp = (ev(u, v + s * h) for s in _OFFSETS)
    corners = {(su, sv): ev(u + su * h, v + sv * h)
               for su in _OFFSETS for sv in _OFFSETS if abs(su) == abs(sv)}
    return (f0,
            _rich1(um, umh, uph, up, h),
            _rich1(vm, vmh, vph, vp, h),
            _rich2(um, umh, f0, uph, up, h),
            _rich_mixed(corners, h),
            _rich2(vm, vmh, f0, vph, vp, h))


def _jets(s, u: float, v: float):
    """(f_u, f_v, f_uu, f_uv, f_vv) of a SurfacePatch at (u, v): its own
    jets when it has them, else the stencil on its evaluator with
    default_step."""
    if s.jets is not None:
        return s.jets(u, v)
    return _stencil(s.evaluator, u, v, default_step(s.domain))[1:]


def patch_jets(s: SurfacePatch, u: float, v: float):
    """First and second partial derivatives of the patch at (u, v).

    Returns _jets(s, u, v) once (u, v) is checked to sit at parameter
    distance >= 2 * default_step from the domain boundary.
    """
    h = default_step(s.domain)
    if s.domain.margin(u, v) < 2.0 * h - 1e-12 * s.domain.extent:
        raise ValueError(
            f"({u}, {v}) closer than 2*step={2 * h} to the domain boundary")
    return _jets(s, u, v)


def _degeneracy_threshold(g11: float, g22: float) -> float:
    # scale-aware cutoff with an absolute floor of 1e-10: a metric whose
    # determinant sits below floating-point resolution is singular for
    # every practical purpose
    scale = max(1.0, 0.5 * (g11 + g22))
    return 1e-10 * scale * scale


def fundamental_forms(s: SurfacePatch, u: float, v: float
                      ) -> FundamentalForms:
    """Both fundamental forms at an interior parameter point.

    g is the pullback of the degenerate product.  For h, the xy-parts of
    f_u and f_v frame the tangent plane's projection, so the tangential
    component of each second derivative is found by a 2x2 solve in the
    xy-plane; what remains of the z-component is the coefficient of XI.
    """
    return _forms_from_jets(patch_jets(s, u, v), u, v)


def _forms_from_jets(jets, u: float, v: float) -> FundamentalForms:
    f_u, f_v, f_uu, f_uv, f_vv = jets
    g11 = deg_inner(f_u, f_u)
    g12 = deg_inner(f_u, f_v)
    g22 = deg_inner(f_v, f_v)
    det_g = g11 * g22 - g12 * g12
    if det_g <= _degeneracy_threshold(g11, g22):
        raise DegenerateMetricError(
            f"metric degenerate at ({u}, {v}): det g = {det_g:.3e}")
    det2 = f_u.x * f_v.y - f_u.y * f_v.x

    def normal_part(S: Vec021) -> float:
        alpha = (S.x * f_v.y - S.y * f_v.x) / det2
        beta = (f_u.x * S.y - f_u.y * S.x) / det2
        return S.z - alpha * f_u.z - beta * f_v.z

    return FundamentalForms(g11, g12, g22,
                            normal_part(f_uu),
                            normal_part(f_uv),
                            normal_part(f_vv))


def mean_curvature(forms: FundamentalForms) -> float:
    """Half the g-trace of h (curvature relative to XI)."""
    num = (forms.g22 * forms.h11
           - 2.0 * forms.g12 * forms.h12
           + forms.g11 * forms.h22)
    return 0.5 * num / forms.det_g


def relative_gauss_curvature(forms: FundamentalForms) -> float:
    return forms.det_h / forms.det_g


def classify_point(k: float, tol: float = 1e-8) -> str:
    if k > tol:
        return "elliptic"
    if k < -tol:
        return "hyperbolic"
    return "parabolic"


def h_lambda(s: SurfacePatch, lam: float, u: float, v: float
             ) -> FundamentalForms:
    """Second form taken against the connection deformed by lambda.

    The deformation adds lam * sigma(f_i) * sigma(f_j) to h_ij and leaves
    the metric untouched; lam = 0 recovers the flat connection.
    """
    jets = patch_jets(s, u, v)
    base = _forms_from_jets(jets, u, v)
    su, sv = sigma(jets[0]), sigma(jets[1])
    return FundamentalForms(
        base.g11, base.g12, base.g22,
        base.h11 + lam * su * su,
        base.h12 + lam * su * sv,
        base.h22 + lam * sv * sv,
    )


# intrinsic curvature --------------------------------------------------------

MetricFn = Callable[[float, float], tuple[float, float, float]]


def brioschi_curvature(metric: MetricFn, u: float, v: float,
                       step: float = 0.02) -> float:
    """Gaussian curvature of an abstract metric via the Brioschi formula.

    Only metric samples are consumed; the caller is
    minkowski.gaussian_curvature_induced, on the Lorentzian induced
    metric of a spacelike surface.
    """
    def triple(uu: float, vv: float) -> Vec021:
        return Vec021(*metric(uu, vv))

    jets = [(j.x, j.y, j.z) for j in _stencil(triple, u, v, step)]
    (E, F, G), (E_u, F_u, G_u), (E_v, F_v, G_v), \
        (E_uu, F_uu, G_uu), (E_uv, F_uv, G_uv), (E_vv, F_vv, G_vv) = jets

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    m1 = ((-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v),
          (F_v - 0.5 * G_u, E, F),
          (0.5 * G_v, F, G))
    m2 = ((0.0, 0.5 * E_v, 0.5 * G_u),
          (0.5 * E_v, E, F),
          (0.5 * G_u, F, G))
    den = E * G - F * F
    if abs(den) < 1e-300:
        raise DegenerateMetricError("Brioschi denominator vanished")
    return (det3(m1) - det3(m2)) / (den * den)
