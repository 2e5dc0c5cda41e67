"""Named reference surfaces with their expected invariants.

Each entry records what the analysis modules should find (minimality,
umbilicity, the sign of the relative Gaussian curvature), so the test
suite can sweep the whole table through the geometry kernel and catch
regressions in either side.  Every surface is one row of _SURFACES: a
graph height or an (x, y, z) chart as expression sources, its domain
and those facts, so each patch carries exact jets.  The lambda-deformed
geodesic graph, whose height and domain depend on the deformation
parameter, has its builder in place of a row.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .expr import BinOp, Call, Lit, Var, parse_real_expr
from .geometry import Rect, SurfacePatch, Vec021, chart_patch, graph_patch


class UnknownSurfaceError(LookupError):
    pass


class CatalogEntry(NamedTuple):
    name: str
    patch: SurfacePatch
    is_minimal: bool
    is_umbilical: bool
    k_sign: int  # -1: K <= 0 on the patch, 0: K == 0, +1: K > 0
    note: str = ""


def _dlambda_geodesic(lam: float) -> tuple:
    """(patch, is_minimal, is_umbilical, k_sign, note) for lam."""
    if lam == 0.0:
        raise ValueError("lam must be nonzero; lam = 0 is the flat case")
    if lam > 0:
        dom = Rect(-1.0 / lam + 0.1, 3.0, -1.0, 1.0)
    else:
        dom = Rect(-3.0, -1.0 / lam - 0.1, -1.0, 1.0)
    # log(lam*u + 1)/lam - u - v; lam*u + 1 >= 0.1*|lam| > 0 on dom
    lit, u, v = Lit(complex(lam)), Var("u"), Var("v")
    arg = BinOp("+", BinOp("*", lit, u), Lit(1 + 0j))
    height = BinOp("-", BinOp("-", BinOp("/", Call("log", arg), lit), u), v)
    return (graph_patch(height, dom), False, False, 0,
            f"graph whose lambda-deformed second form vanishes "
            f"(lam = {lam}); plain h is nonzero")


# name -> (graph height or (x, y, z) chart, domain, is_minimal,
# is_umbilical, k_sign, note), in list order
_SURFACES = {
    "plane": ("0", Rect(-2.0, 2.0, -2.0, 2.0), True, True, 0,
              "totally geodesic graph z = 0"),
    "paraboloid": ("u^2+v^2", Rect(-1.5, 1.5, -1.5, 1.5), False, True, 1,
                   "h = 2 g everywhere, the non-planar umbilical model"),
    "helicoid2": (("v*cos(u)", "v*sin(u)", "u"),
                  Rect(-math.pi, math.pi, 0.5, 2.5), True, False, -1,
                  "helicoid over the punctured plane; K = -1/v^4"),
    "hyp_paraboloid_uv": ("u*v", Rect(-2.0, 2.0, -2.0, 2.0), True, False, -1,
                          "graph z = uv, K = -1"),
    "hyp_paraboloid_diff": (
        "0.5*(u^2-v^2)", Rect(-2.0, 2.0, -2.0, 2.0), True, False, -1,
        "graph z = (u^2 - v^2)/2, conjugate in shape to z = uv"),
    "rotational_log": (
        ("exp(u)*cos(v)", "exp(u)*sin(v)", "u"),
        Rect(-1.0, 1.0, -math.pi, math.pi), True, False, -1,
        "rotational surface with logarithmic profile, K = -exp(-4u)"),
    "dlambda_geodesic": _dlambda_geodesic,
    "cubic_harmonic": ("u^3-3*u*v^2", Rect(-1.0, 1.0, -1.0, 1.0),
                       True, False, -1,
                       "harmonic cubic graph; h vanishes only at the origin"),
}


def names() -> tuple[str, ...]:
    return tuple(_SURFACES)


def get(name: str, lam: float = 1.0) -> CatalogEntry:
    """Look up an entry; a builder row takes the deformation parameter."""
    try:
        row = _SURFACES[name]
    except KeyError:
        raise UnknownSurfaceError(
            f"no surface named {name!r}; known: {', '.join(names())}"
        ) from None
    if callable(row):
        patch, *facts = row(lam)
    else:
        shape, dom, *facts = row
        patch = (graph_patch(parse_real_expr(shape), dom)
                 if isinstance(shape, str) else
                 chart_patch(tuple(map(parse_real_expr, shape)), dom, Vec021))
    return CatalogEntry(name, patch, *facts)


def _takes_lam(name: str) -> bool:
    """Whether get(name) reads lam: a builder row does, a table row does
    not; an unknown name is left for get to report."""
    return not isinstance(_SURFACES.get(name), tuple)


def entries() -> Iterator[CatalogEntry]:
    for name in names():
        yield get(name)


def minimal_entries() -> Iterator[CatalogEntry]:
    for entry in entries():
        if entry.is_minimal:
            yield entry


def rotational_profile_check(c1: float, c2: float) -> float:
    """Integrate the rotational-minimality profile equation y'' = -y'/x
    with 1000 classic RK4 steps and return the largest deviation from
    the closed form y = c1 log x + c2 on [1, e], away from the
    degenerate point x = 0.
    """
    x0, x1, steps = 1.0, math.e, 1000

    def rhs(x: float, y: float, p: float) -> tuple[float, float]:
        return p, -p / x

    h = (x1 - x0) / steps
    x, y, p = x0, c1 * math.log(x0) + c2, c1 / x0
    worst = 0.0
    for _ in range(steps):
        k1y, k1p = rhs(x, y, p)
        k2y, k2p = rhs(x + h / 2, y + h / 2 * k1y, p + h / 2 * k1p)
        k3y, k3p = rhs(x + h / 2, y + h / 2 * k2y, p + h / 2 * k2p)
        k4y, k4p = rhs(x + h, y + h * k3y, p + h * k3p)
        y += h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        p += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        x += h
        worst = max(worst, abs(y - (c1 * math.log(x) + c2)))
    return worst
