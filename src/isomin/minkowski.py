"""Surfaces of the degenerate product inside four-dimensional spacetime.

The map (x, y, z) -> (z, x, y, z) carries the degenerate product space
isometrically onto the null slice {x1 = x4} of Minkowski space with
metric -dx1^2 + dx2^2 + dx3^2 + dx4^2.  Under it the minimal graphs of
this package become spacelike surfaces that are intrinsically flat and
have vanishing mean curvature vector, and this module checks each piece
of that statement numerically: induced Gram matrices, mean curvature
vectors with the tangential part removed, Gaussian curvature of the
induced metric by the Gauss equation, and the locus where the second
form of the original patch dies.  Both sides of the correspondence are
geometry.SurfacePatch: a surface here is a patch whose values are Vec4M,
either a chart (geometry.chart_patch with vec=Vec4M) or the lift of a
patch (iota_lift), and Vec4M has the one vector arithmetic of Vec021
(geometry._componentwise).  Every surface reads its partials through
geometry._jets: its own jets function when it has one (expression charts
and every lift, which maps the jets of its patch), else a 17-point
stencil on its evaluator; the Brioschi curvature of
gaussian_curvature_induced is a test oracle only.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .geometry import (DegenerateMetricError, FundamentalForms, Rect,
                       SurfacePatch, Vec021, brioschi_curvature, default_step,
                       _OFFSETS, _axis, _componentwise, _jets, _rich1)


class NonSpacelikeError(Exception):
    """Induced Gram matrix fails positive definiteness."""


@_componentwise
class Vec4M(NamedTuple):
    x1: float
    x2: float
    x3: float
    x4: float

    @property
    def sup_norm(self) -> float:
        return max(abs(self.x1), abs(self.x2), abs(self.x3), abs(self.x4))


def lorentz_inner(v: Vec4M, w: Vec4M) -> float:
    """Scalar product of signature (-,+,+,+).

    The x4 and x1 products are grouped together so that they cancel
    exactly (not just approximately) for vectors in the null slice
    {x1 = x4}, making the slice embedding an isometry in floating
    point and not only in exact arithmetic.
    """
    return (v.x2 * w.x2 + v.x3 * w.x3) + (v.x4 * w.x4 - v.x1 * w.x1)


def iota_embed(p: Vec021) -> Vec4M:
    """(x, y, z) -> (z, x, y, z), the isometry onto the null slice."""
    return Vec4M(p.z, p.x, p.y, p.z)


def iota_lift(s: SurfacePatch) -> SurfacePatch:
    """Push a degenerate-product patch through the slice embedding.

    The embedding is linear, so the patch's jets (from geometry._jets)
    map through it too; it copies components, so the lift's jets equal
    the stencil on the lifted evaluator bit for bit when the patch has
    none of its own.
    """
    def jets(u: float, v: float) -> tuple:
        return tuple(map(iota_embed, _jets(s, u, v)))

    return SurfacePatch(lambda u, v: iota_embed(s(u, v)), s.domain,
                        jets=jets)


def _gram(f_u: Vec4M, f_v: Vec4M) -> tuple[float, float, float]:
    return (lorentz_inner(f_u, f_u), lorentz_inner(f_u, f_v),
            lorentz_inner(f_v, f_v))


def _require_spacelike(g11: float, g12: float, g22: float,
                       where: tuple[float, float]) -> float:
    scale = max(1.0, abs(g11), abs(g22))
    det = g11 * g22 - g12 * g12
    if g11 <= 1e-10 * scale or det <= 1e-10 * scale * scale:
        raise NonSpacelikeError(
            f"Gram matrix not positive definite at {where}: "
            f"g11 = {g11:.3e}, det = {det:.3e}")
    return det


def normal_second_form(s: SurfacePatch, u: float, v: float):
    """Normal components (N_uu, N_uv, N_vv) plus the Gram triple.

    The tangential part of each second partial is removed by solving
    the 2x2 Gram system with the ambient scalar product; what remains
    is normal to the surface whatever the causal type of the normal
    plane is.  The partials come from geometry._jets.
    """
    f_u, f_v, f_uu, f_uv, f_vv = _jets(s, u, v)
    g11, g12, g22 = _gram(f_u, f_v)
    det = _require_spacelike(g11, g12, g22, (u, v))

    def reject(x: Vec4M) -> Vec4M:
        b1 = lorentz_inner(x, f_u)
        b2 = lorentz_inner(x, f_v)
        a = (g22 * b1 - g12 * b2) / det
        b = (g11 * b2 - g12 * b1) / det
        return x - a * f_u - b * f_v

    return (reject(f_uu), reject(f_uv), reject(f_vv)), (g11, g12, g22)


def _curvatures(s: SurfacePatch, u: float, v: float) -> tuple[Vec4M, float]:
    """Mean curvature vector and Gaussian curvature from one set of jets;
    the ambient space is flat, so the Gauss equation gives
    K = (<N_uu, N_vv> - <N_uv, N_uv>) / det g."""
    (n_uu, n_uv, n_vv), (g11, g12, g22) = normal_second_form(s, u, v)
    det = g11 * g22 - g12 * g12
    traced = (g22 * n_uu - 2.0 * g12 * n_uv + g11 * n_vv) / det
    gauss = (lorentz_inner(n_uu, n_vv) - lorentz_inner(n_uv, n_uv)) / det
    return 0.5 * traced, gauss


def mean_curvature_vector(s: SurfacePatch, u: float, v: float) -> Vec4M:
    """Half the metric trace of the normal-valued second form."""
    return _curvatures(s, u, v)[0]


def gaussian_curvature_induced(s: SurfacePatch, u: float, v: float) -> float:
    """Brioschi curvature of metric samples taken by first differences,
    independent of the Gauss equation that verify_flat_zmc uses.

    This is the one Brioschi test oracle; no command calls it.
    """
    h = default_step(s.domain)

    def metric(uu: float, vv: float) -> tuple[float, float, float]:
        f_u = _rich1(*(s(uu + d * h, vv) for d in _OFFSETS), h)
        f_v = _rich1(*(s(uu, vv + d * h) for d in _OFFSETS), h)
        g = _gram(f_u, f_v)
        _require_spacelike(*g, (uu, vv))
        return g

    return brioschi_curvature(metric, u, v,
                              step=0.01 * max(s.domain.extent, 1.0))


class FlatZmcReport(NamedTuple):
    max_mean_curvature: float
    max_abs_curvature: float
    spacelike_violations: tuple[tuple[float, float], ...]
    tol: float
    samples: int

    @property
    def passed(self) -> bool:
        return (self.max_mean_curvature <= self.tol
                and self.max_abs_curvature <= self.tol
                and not self.spacelike_violations)


def verify_flat_zmc(s: SurfacePatch, grid: tuple[int, int] = (9, 9),
                    tol: float = 1e-5) -> FlatZmcReport:
    """Sample the three defining conditions over an interior grid.

    Verdict passes only when the worst sampled mean curvature vector
    norm and the worst sampled intrinsic curvature are both below tol
    and the induced metric stayed positive definite everywhere.  H and K
    come from one set of jets per sample; K is zero up to rounding in the
    slice.
    """
    dom = s.domain
    margin = 0.05 * max(dom.extent, 1.0)
    nu, nv = grid
    # an inset of at most a quarter of each side keeps the lattice inside
    us = _axis(dom.u0, dom.u1, nu, min(margin, (dom.u1 - dom.u0) / 4))
    vs = _axis(dom.v0, dom.v1, nv, min(margin, (dom.v1 - dom.v0) / 4))
    worst_h = worst_k = 0.0
    violations: list[tuple[float, float]] = []
    for u in us:
        for v in vs:
            try:
                hvec, kval = _curvatures(s, u, v)
            except NonSpacelikeError:
                violations.append((u, v))
                continue
            worst_h = max(worst_h, hvec.sup_norm)
            worst_k = max(worst_k, abs(kval))
    return FlatZmcReport(worst_h, worst_k, tuple(violations), tol, nu * nv)


class LocusCluster(NamedTuple):
    point: tuple[float, float]
    node_count: int
    isolated: bool


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


_LOCUS_GRID = (65, 65)  # nodes of the vanishing_h_locus lattice
_LOCUS_TOL = 0.05  # ‖h‖∞ below which a lattice node is a hit


def vanishing_h_locus(forms_at: Callable[[float, float], FundamentalForms],
                      domain: Rect) -> list[LocusCluster]:
    """Grid clusters where the second form forms_at(u, v).h vanishes.

    Nodes of the _LOCUS_GRID lattice with ‖h‖∞ < _LOCUS_TOL merge by
    8-connectivity; a node where forms_at raises DegenerateMetricError
    is not a hit.  A cluster is isolated when it spans at most a couple
    of cells and no other cluster comes within five grid cells; anything
    larger is flagged as a suspected totally geodesic region, not a
    singular point.
    """
    nu, nv = _LOCUS_GRID
    margin = 0.02 * max(domain.extent, 1.0)
    # an inset of at most a quarter of each side keeps the lattice inside
    us = _axis(domain.u0, domain.u1, nu,
               min(margin, (domain.u1 - domain.u0) / 4))
    vs = _axis(domain.v0, domain.v1, nv,
               min(margin, (domain.v1 - domain.v0) / 4))
    hit = []
    for u in us:
        row = []
        for v in vs:
            try:
                forms = forms_at(u, v)
            except DegenerateMetricError:
                row.append(False)
                continue
            norm = max(abs(forms.h11), abs(forms.h12), abs(forms.h22))
            row.append(norm < _LOCUS_TOL)
        hit.append(row)

    clusters = _clusters(hit)
    out: list[LocusCluster] = []
    for nodes in clusters:
        ii, jj = zip(*nodes)
        ci, cj = sum(ii) / len(nodes), sum(jj) / len(nodes)
        diam = max(max(ii) - min(ii), max(jj) - min(jj))
        # the gap only matters for clusters small enough to be isolated
        isolated = diam <= 2 and not any(
            min(max(abs(a - c), abs(b - d))
                for a, b in nodes for c, d in other) <= 5
            for other in clusters if other is not nodes)
        point = (us[int(round(ci))], vs[int(round(cj))])
        out.append(LocusCluster(point, len(nodes), isolated))
    out.sort(key=lambda c: (c.point[0] ** 2 + c.point[1] ** 2, c.point))
    return out

