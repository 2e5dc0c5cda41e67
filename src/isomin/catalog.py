"""Named reference surfaces with their expected invariants.

Each entry records what the analysis modules should find (minimality,
umbilicity, the sign of the relative Gaussian curvature), so the test
suite can sweep the whole table through the geometry kernel and catch
regressions in either side.  Every surface is built from expression
trees, as a graph height or a three-component chart, so each patch
carries exact jets.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

from .expr import BinOp, Call, Lit, Var, parse_real_expr
from .geometry import Rect, SurfacePatch, Vec021, chart_patch, graph_patch


class UnknownSurfaceError(KeyError):
    pass


class CatalogEntry(NamedTuple):
    name: str
    patch: SurfacePatch
    is_minimal: bool
    is_umbilical: bool
    k_sign: int  # -1: K <= 0 on the patch, 0: K == 0, +1: K > 0
    note: str = ""


def _graph(src: str, domain: Rect) -> SurfacePatch:
    return graph_patch(parse_real_expr(src), domain)


def _chart(srcs: tuple[str, str, str], domain: Rect) -> SurfacePatch:
    return chart_patch(tuple(map(parse_real_expr, srcs)), domain, Vec021)


def _plane() -> CatalogEntry:
    return CatalogEntry(
        "plane",
        _graph("0", Rect(-2.0, 2.0, -2.0, 2.0)),
        is_minimal=True, is_umbilical=True, k_sign=0,
        note="totally geodesic graph z = 0",
    )


def _paraboloid() -> CatalogEntry:
    return CatalogEntry(
        "paraboloid",
        _graph("u^2+v^2", Rect(-1.5, 1.5, -1.5, 1.5)),
        is_minimal=False, is_umbilical=True, k_sign=1,
        note="h = 2 g everywhere, the non-planar umbilical model",
    )


def _helicoid2() -> CatalogEntry:
    return CatalogEntry(
        "helicoid2",
        _chart(("v*cos(u)", "v*sin(u)", "u"),
               Rect(-math.pi, math.pi, 0.5, 2.5)),
        is_minimal=True, is_umbilical=False, k_sign=-1,
        note="helicoid over the punctured plane; K = -1/v^4",
    )


def _hyp_paraboloid_uv() -> CatalogEntry:
    return CatalogEntry(
        "hyp_paraboloid_uv",
        _graph("u*v", Rect(-2.0, 2.0, -2.0, 2.0)),
        is_minimal=True, is_umbilical=False, k_sign=-1,
        note="graph z = uv, K = -1",
    )


def _hyp_paraboloid_diff() -> CatalogEntry:
    return CatalogEntry(
        "hyp_paraboloid_diff",
        _graph("0.5*(u^2-v^2)", Rect(-2.0, 2.0, -2.0, 2.0)),
        is_minimal=True, is_umbilical=False, k_sign=-1,
        note="graph z = (u^2 - v^2)/2, conjugate in shape to z = uv",
    )


def _rotational_log() -> CatalogEntry:
    return CatalogEntry(
        "rotational_log",
        _chart(("exp(u)*cos(v)", "exp(u)*sin(v)", "u"),
               Rect(-1.0, 1.0, -math.pi, math.pi)),
        is_minimal=True, is_umbilical=False, k_sign=-1,
        note="rotational surface with logarithmic profile, K = -exp(-4u)",
    )


def _dlambda_geodesic(lam: float) -> CatalogEntry:
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
    return CatalogEntry(
        "dlambda_geodesic",
        graph_patch(height, dom),
        is_minimal=False, is_umbilical=False, k_sign=0,
        note=(f"graph whose lambda-deformed second form vanishes "
              f"(lam = {lam}); plain h is nonzero"),
    )


def _cubic_harmonic() -> CatalogEntry:
    return CatalogEntry(
        "cubic_harmonic",
        _graph("u^3-3*u*v^2", Rect(-1.0, 1.0, -1.0, 1.0)),
        is_minimal=True, is_umbilical=False, k_sign=-1,
        note="harmonic cubic graph; h vanishes only at the origin",
    )


_BUILDERS: dict[str, Callable[..., CatalogEntry]] = {
    "plane": _plane,
    "paraboloid": _paraboloid,
    "helicoid2": _helicoid2,
    "hyp_paraboloid_uv": _hyp_paraboloid_uv,
    "hyp_paraboloid_diff": _hyp_paraboloid_diff,
    "rotational_log": _rotational_log,
    "dlambda_geodesic": _dlambda_geodesic,
    "cubic_harmonic": _cubic_harmonic,
}


def names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def get(name: str, lam: float = 1.0) -> CatalogEntry:
    """Look up an entry; dlambda_geodesic takes the deformation parameter."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownSurfaceError(
            f"no surface named {name!r}; known: {', '.join(names())}"
        ) from None
    if name == "dlambda_geodesic":
        return builder(lam)
    return builder()


def entries() -> Iterator[CatalogEntry]:
    for name in names():
        yield get(name)


def minimal_entries() -> Iterator[CatalogEntry]:
    for entry in entries():
        if entry.is_minimal:
            yield entry


def rotational_profile_check(c1: float, c2: float,
                             x_range: tuple[float, float] = (1.0, math.e),
                             steps: int = 1000) -> float:
    """Integrate the rotational-minimality profile equation y'' = -y'/x
    with classic RK4 and return the largest deviation from the closed
    form y = c1 log x + c2 over the range.

    The equation degenerates at x = 0, so the range must avoid it.
    """
    x0, x1 = x_range
    if x0 <= 0.0 or x1 <= x0:
        raise ValueError("x_range must satisfy 0 < x0 < x1")

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
