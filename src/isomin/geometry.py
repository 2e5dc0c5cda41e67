"""Geometry kernel for R^3 with the degenerate inner product dx^2 + dy^2.

The metric ignores the z-direction entirely.  Every tangent plane that is
non-degenerate for this product is transversal to the constant field
XI = (0, 0, 1), so XI plays the role the unit normal plays in Euclidean
geometry: second derivatives of a parametrisation split into a tangential
part plus a multiple of XI, and that multiple is the second fundamental
form.  Derivatives are Richardson-extrapolated central differences,
except on graphs of expression trees, which carry exact jets from
symbolic differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .expr import Expr, compile_real, differentiate


class DegenerateMetricError(Exception):
    """The induced metric is singular at the requested point."""


class InvalidIsometryError(Exception):
    """Linear part fails T^T T = I or the z-scale c vanishes."""


@dataclass(frozen=True, slots=True)
class Vec021:
    x: float
    y: float
    z: float

    def __add__(self, other: "Vec021") -> "Vec021":
        return Vec021(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec021") -> "Vec021":
        return Vec021(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec021":
        return Vec021(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec021":
        return Vec021(self.x / s, self.y / s, self.z / s)


XI = Vec021(0.0, 0.0, 1.0)


def deg_inner(a: Vec021, b: Vec021) -> float:
    """Degenerate inner product; the z-components do not contribute."""
    return a.x * b.x + a.y * b.y


def deg_norm(a: Vec021) -> float:
    return math.hypot(a.x, a.y)


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


def grid_points(rect: Rect, nu: int, nv: int, margin: float = 0.0
                ) -> list[tuple[float, float]]:
    """Row-major (u, v) samples, optionally inset from the boundary."""
    us = _axis(rect.u0, rect.u1, nu, margin)
    vs = _axis(rect.v0, rect.v1, nv, margin)
    return [(u, v) for u in us for v in vs]


def _clusters(mask) -> list[list[tuple[int, int]]]:
    """8-connected components of the True entries of a 2-D mask.

    Seeds are taken in row-major order and each component lists its
    members in depth-first visiting order.
    """
    n, m = len(mask), len(mask[0])
    seen = [[False] * m for _ in range(n)]
    out = []
    for i in range(n):
        for j in range(m):
            if not mask[i][j] or seen[i][j]:
                continue
            stack = [(i, j)]
            seen[i][j] = True
            members = []
            while stack:
                a, b = stack.pop()
                members.append((a, b))
                for da in (-1, 0, 1):
                    for db in (-1, 0, 1):
                        na, nb = a + da, b + db
                        if 0 <= na < n and 0 <= nb < m \
                                and mask[na][nb] and not seen[na][nb]:
                            seen[na][nb] = True
                            stack.append((na, nb))
            out.append(members)
    return out


@dataclass(frozen=True)
class SurfacePatch:
    """A parametrised piece of surface.

    kind is "closed-form", "weierstrass" or "graph"; a few operations
    (graph Hessians, Codazzi residuals) are only meaningful for graphs.
    jets, when given, returns the exact (f_u, f_v, f_uu, f_uv, f_vv) at
    a point and replaces the finite-difference stencil in patch_jets.
    """

    evaluator: Callable[[float, float], Vec021]
    domain: Rect
    kind: str = "closed-form"
    jets: Callable[[float, float], tuple] | None = None

    def __call__(self, u: float, v: float) -> Vec021:
        return self.evaluator(u, v)


def graph_patch(height: Callable[[float, float], float] | Expr,
                domain: Rect) -> SurfacePatch:
    """Patch (u, v, F(u, v)) from a callable or a real expression tree.

    A tree also gives the patch exact jets: the first and second partial
    derivatives of F come from symbolic differentiation, and F itself is
    still evaluated at the point so a height that is undefined there
    fails as it would under a stencil.
    """
    if callable(height):
        h, jets = height, None
    else:
        h_u, h_v = differentiate(height, "u"), differentiate(height, "v")
        h, d_u, d_v, d_uu, d_uv, d_vv = (compile_real(e, ("u", "v")) for e in (
            height, h_u, h_v, differentiate(h_u, "u"),
            differentiate(h_u, "v"), differentiate(h_v, "v")))

        def jets(u: float, v: float):
            h(u, v)
            return (Vec021(1.0, 0.0, d_u(u, v)), Vec021(0.0, 1.0, d_v(u, v)),
                    Vec021(0.0, 0.0, d_uu(u, v)), Vec021(0.0, 0.0, d_uv(u, v)),
                    Vec021(0.0, 0.0, d_vv(u, v)))

    def ev(u: float, v: float) -> Vec021:
        return Vec021(u, v, float(h(u, v)))

    return SurfacePatch(ev, domain, kind="graph", jets=jets)


@dataclass(frozen=True, slots=True)
class FundamentalForms:
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


def patch_jets(s: SurfacePatch, u: float, v: float, step: float | None = None):
    """First and second partial derivatives of the patch at (u, v).

    Returns (f_u, f_v, f_uu, f_uv, f_vv): the patch's exact jets when it
    has them, else the finite-difference stencil.  Either way the caller
    must keep (u, v) at parameter distance >= 2 * step from the domain
    boundary.
    """
    h = default_step(s.domain) if step is None else step
    if s.domain.margin(u, v) < 2.0 * h - 1e-12 * s.domain.extent:
        raise ValueError(
            f"({u}, {v}) closer than 2*step={2 * h} to the domain boundary")
    if s.jets is not None:
        return s.jets(u, v)
    return _stencil(s.evaluator, u, v, h)[1:]


def _degeneracy_threshold(g11: float, g22: float) -> float:
    # scale-aware cutoff with an absolute floor of 1e-10: a metric whose
    # determinant sits below floating-point resolution is singular for
    # every practical purpose
    scale = max(1.0, 0.5 * (g11 + g22))
    return 1e-10 * scale * scale


def fundamental_forms(s: SurfacePatch, u: float, v: float,
                      step: float | None = None) -> FundamentalForms:
    """Both fundamental forms at an interior parameter point.

    g is the pullback of the degenerate product.  For h, the xy-parts of
    f_u and f_v frame the tangent plane's projection, so the tangential
    component of each second derivative is found by a 2x2 solve in the
    xy-plane; what remains of the z-component is the coefficient of XI.
    """
    return _forms_from_jets(patch_jets(s, u, v, step), u, v)


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


def h_lambda(s: SurfacePatch, lam: float, u: float, v: float,
             step: float | None = None) -> FundamentalForms:
    """Second form taken against the connection deformed by lambda.

    The deformation adds lam * sigma(f_i) * sigma(f_j) to h_ij and leaves
    the metric untouched; lam = 0 recovers the flat connection.
    """
    jets = patch_jets(s, u, v, step)
    base = _forms_from_jets(jets, u, v)
    su, sv = sigma(jets[0]), sigma(jets[1])
    return FundamentalForms(
        base.g11, base.g12, base.g22,
        base.h11 + lam * su * su,
        base.h12 + lam * su * sv,
        base.h22 + lam * sv * sv,
    )


def codazzi_residual(s: SurfacePatch, u: float, v: float,
                     step: float | None = None,
                     outer_step: float | None = None) -> float:
    """max(|d_v h11 - d_u h12|, |d_u h22 - d_v h12|) for a graph patch.

    Vanishes identically for genuine surfaces; the residual measures
    numerical self-consistency of the sampled h field.
    """
    if s.kind != "graph":
        raise ValueError("Codazzi residual is defined for graph patches")
    h = default_step(s.domain) if step is None else step
    d = 50.0 * h if outer_step is None else outer_step

    def forms_at(uu: float, vv: float) -> FundamentalForms:
        return fundamental_forms(s, uu, vv, h)

    fe, fw = forms_at(u + d, v), forms_at(u - d, v)
    fn_, fs = forms_at(u, v + d), forms_at(u, v - d)
    h11_v = (fn_.h11 - fs.h11) / (2.0 * d)
    h12_u = (fe.h12 - fw.h12) / (2.0 * d)
    h22_u = (fe.h22 - fw.h22) / (2.0 * d)
    h12_v = (fn_.h12 - fs.h12) / (2.0 * d)
    return max(abs(h11_v - h12_u), abs(h22_u - h12_v))


# rigid motions -------------------------------------------------------------

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True, slots=True)
class AffineIsometry:
    """(x, y, z) -> (T (x, y), a x + b y + c z) + t with T^T T = I, c != 0.

    Preserves the degenerate product exactly; the second fundamental form
    of an image surface is c times the original.
    """

    t_matrix: Matrix2 = ((1.0, 0.0), (0.0, 1.0))
    a: float = 0.0
    b: float = 0.0
    c: float = 1.0
    translation: Vec021 = field(default=Vec021(0.0, 0.0, 0.0))

    def __post_init__(self):
        (t11, t12), (t21, t22) = self.t_matrix
        gram = (t11 * t11 + t21 * t21, t11 * t12 + t21 * t22,
                t12 * t12 + t22 * t22)
        if (abs(gram[0] - 1.0) > 1e-12 or abs(gram[1]) > 1e-12
                or abs(gram[2] - 1.0) > 1e-12):
            raise InvalidIsometryError(f"T^T T != I for {self.t_matrix}")
        if self.c == 0.0:
            raise InvalidIsometryError("z-scale c must be nonzero")

    def apply(self, p: Vec021) -> Vec021:
        (t11, t12), (t21, t22) = self.t_matrix
        return Vec021(
            t11 * p.x + t12 * p.y + self.translation.x,
            t21 * p.x + t22 * p.y + self.translation.y,
            self.a * p.x + self.b * p.y + self.c * p.z + self.translation.z,
        )

    @staticmethod
    def rotation(angle: float) -> Matrix2:
        ca, sa = math.cos(angle), math.sin(angle)
        return ((ca, -sa), (sa, ca))

    @staticmethod
    def reflection(angle: float) -> Matrix2:
        ca, sa = math.cos(2 * angle), math.sin(2 * angle)
        return ((ca, sa), (sa, -ca))


def apply_isometry(iso: AffineIsometry, s: SurfacePatch) -> SurfacePatch:
    return SurfacePatch(lambda u, v: iso.apply(s.evaluator(u, v)), s.domain,
                        kind="closed-form")


# curves --------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    evaluator: Callable[[float], Vec021]
    t0: float
    t1: float

    def __call__(self, t: float) -> Vec021:
        return self.evaluator(t)


@dataclass(frozen=True, slots=True)
class NullCurveReport:
    is_null: bool
    max_speed: float
    xy_constant: bool | None
    alarm: str | None = None


def _velocity(c: Curve, t: float, h: float) -> Vec021:
    return _rich1(c(t - h), c(t - h / 2), c(t + h / 2), c(t + h), h)


def curve_speed(c: Curve, t: float, step: float | None = None) -> float:
    h = step if step is not None else 1e-5 * max(c.t1 - c.t0, 1.0)
    return deg_norm(_velocity(c, t, h))


def is_null_curve(c: Curve, samples: int = 100, tol: float = 1e-8
                  ) -> NullCurveReport:
    """A null curve has identically vanishing speed.

    Such a curve can only move in the z-direction, so when the speed test
    passes the x and y coordinates are checked for constancy as an
    internal cross-validation; a mismatch flags an inconsistency instead
    of being absorbed silently.
    """
    h = 1e-5 * max(c.t1 - c.t0, 1.0)
    ts = _axis(c.t0, c.t1, samples, 2.0 * h)
    max_speed = max(deg_norm(_velocity(c, t, h)) for t in ts)
    if max_speed > tol:
        return NullCurveReport(False, max_speed, None)
    p0 = c(ts[0])
    drift = max(max(abs(c(t).x - p0.x), abs(c(t).y - p0.y)) for t in ts)
    if drift > 100.0 * tol * max(1.0, abs(p0.x), abs(p0.y)):
        return NullCurveReport(True, max_speed, False,
                               alarm=f"xy drift {drift:.3e} on a null curve")
    return NullCurveReport(True, max_speed, True)


def arc_length_admissible(c: Curve, samples: int = 100, tol: float = 1e-7
                          ) -> bool:
    """True when the degenerate speed stays bounded away from zero, so
    arc length gives a legitimate parameter.

    A zero of the speed can hide between samples, so the sampled minimum
    is sharpened by a ternary search before comparing against tol.
    """
    h = 1e-5 * max(c.t1 - c.t0, 1.0)
    ts = _axis(c.t0, c.t1, samples, 2.0 * h)

    def speed(t: float) -> float:
        return deg_norm(_velocity(c, t, h))

    speeds = [speed(t) for t in ts]
    k_min = min(range(samples), key=speeds.__getitem__)
    if speeds[k_min] <= tol:
        return False
    a = ts[max(0, k_min - 1)]
    b = ts[min(samples - 1, k_min + 1)]
    for _ in range(60):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if speed(m1) < speed(m2):
            b = m2
        else:
            a = m1
    return speed(0.5 * (a + b)) > tol


# intrinsic curvature --------------------------------------------------------

MetricFn = Callable[[float, float], tuple[float, float, float]]


def brioschi_curvature(metric: MetricFn, u: float, v: float,
                       step: float = 0.02) -> float:
    """Gaussian curvature of an abstract metric via the Brioschi formula.

    Only metric samples are consumed, so this is usable both for the
    degenerate pullback (where it must vanish) and for Lorentzian induced
    metrics on spacelike surfaces.
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


def intrinsic_curvature(s: SurfacePatch, u: float, v: float,
                        step: float | None = None,
                        metric_step: float | None = None) -> float:
    """Intrinsic curvature of the pullback metric (zero for immersions,
    because the degenerate product only sees the flat xy-projection)."""
    h = default_step(s.domain) if step is None else step
    hm = 0.01 * max(s.domain.extent, 1.0) if metric_step is None else metric_step

    def metric(uu: float, vv: float):
        f_u, f_v, *_ = patch_jets(s, uu, vv, h)
        return (deg_inner(f_u, f_u), deg_inner(f_u, f_v),
                deg_inner(f_v, f_v))

    return brioschi_curvature(metric, u, v, hm)
