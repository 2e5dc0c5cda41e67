"""Closed-form answers for the benchmark's input families.

Nothing here imports isomin.  Every reference value is derived from the
mathematics of the surface, not from the program's code paths:

* A holomorphic pair (F, G) and family angle theta give the surface
  x + i y = r * int_base^w F,  z = Re(r * int_base^w G),  r = exp(-i theta),
  so vertices follow from closed-form antiderivatives.
* Its second form is h11 = Re X, h12 = -Im X, h22 = -h11 with
  X = r (G' - G F'/F), and its metric is |F|^2 (du^2 + dv^2); this comes
  from splitting the second derivatives of the immersion into their
  xy-tangential part and the multiple of (0, 0, 1).
* A graph z = p(u, v) has the identity as first form and the Hessian of
  p as second form.

Families are plain dicts so that the workload generator (which renders
them as CLI expressions) and the output checkers share one description.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# complex functions of z -------------------------------------------------
#
# A function is a list of terms, each a dict:
#   {"kind": "poly", "coeffs": [c0, c1, ...]}            sum c_k z^k
#   {"kind": "roots", "scale": c, "roots": [(r, m), ...]}  c prod (z - r)^m
#   {"kind": k, "a": a, "c": c} for k in exp, sin, cos, sinh, cosh: c k(a z)

_ELEMENTARY = {
    # kind: (value, derivative of k(x), antiderivative of k(x))
    "exp": (cmath.exp, cmath.exp, cmath.exp),
    "sin": (cmath.sin, cmath.cos, lambda x: -cmath.cos(x)),
    "cos": (cmath.cos, lambda x: -cmath.sin(x), cmath.sin),
    "sinh": (cmath.sinh, cmath.cosh, cmath.cosh),
    "cosh": (cmath.cosh, cmath.sinh, cmath.sinh),
}


def num(x: float) -> str:
    """Render a real literal; generated values carry at most 3 decimals."""
    text = f"{x:.3f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def cnum(c: complex) -> str:
    """Render a complex literal in the CLI grammar (i is predefined)."""
    if c.imag == 0:
        return f"({num(c.real)})"
    sign = "-" if c.imag < 0 else "+"
    return f"({num(c.real)}{sign}{num(abs(c.imag))}*i)"


def expand_roots(term: dict) -> list[complex]:
    """Coefficients c_0..c_n of a product-of-roots term."""
    coeffs = np.array([complex(term["scale"])])
    for root, mult in term["roots"]:
        for _ in range(mult):
            coeffs = np.convolve(coeffs, [-root, 1.0])
    return [complex(c) for c in coeffs]


def _coeffs(term: dict) -> list[complex]:
    return term["coeffs"] if term["kind"] == "poly" else expand_roots(term)


def _horner(coeffs, w: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


def csrc(terms: list[dict]) -> str:
    """CLI expression in z for a list of terms."""
    parts = []
    for t in terms:
        kind = t["kind"]
        if kind == "poly":
            mono = []
            for k, c in enumerate(t["coeffs"]):
                if c == 0:
                    continue
                mono.append(cnum(c) + ("" if k == 0 else
                                       "*z" if k == 1 else f"*z^{k}"))
            parts.append("+".join(mono) or "0")
        elif kind == "roots":
            factors = [cnum(t["scale"])]
            for root, mult in t["roots"]:
                f = f"(z-{cnum(root)})"
                factors.append(f if mult == 1 else f"{f}^{mult}")
            parts.append("*".join(factors))
        else:
            parts.append(f"{cnum(t['c'])}*{kind}({cnum(t['a'])}*z)")
    return "+".join(parts)


def cvalue(terms: list[dict], w: complex) -> complex:
    acc = 0j
    for t in terms:
        if t["kind"] == "roots":
            val = complex(t["scale"])
            for root, mult in t["roots"]:
                val *= (w - root) ** mult
            acc += val
        elif t["kind"] == "poly":
            acc += _horner(t["coeffs"], w)
        else:
            acc += t["c"] * _ELEMENTARY[t["kind"]][0](t["a"] * w)
    return acc


def cderiv(terms: list[dict], w: complex) -> complex:
    acc = 0j
    for t in terms:
        if t["kind"] in ("poly", "roots"):
            c = _coeffs(t)
            acc += _horner([k * c[k] for k in range(1, len(c))], w)
        else:
            acc += t["c"] * t["a"] * _ELEMENTARY[t["kind"]][1](t["a"] * w)
    return acc


def canti(terms: list[dict], w: complex) -> complex:
    """An antiderivative (any constant; only differences are used)."""
    acc = 0j
    for t in terms:
        if t["kind"] in ("poly", "roots"):
            c = _coeffs(t)
            acc += w * _horner([c[k] / (k + 1) for k in range(len(c))], w)
        else:
            acc += t["c"] / t["a"] * _ELEMENTARY[t["kind"]][2](t["a"] * w)
    return acc


def weier_vertex(F, G, theta: float, base: complex, w: complex
                 ) -> tuple[float, float, float]:
    r = cmath.exp(-1j * theta)
    xy = r * (canti(F, w) - canti(F, base))
    z = r * (canti(G, w) - canti(G, base))
    return xy.real, xy.imag, z.real


def weier_x(F, G, theta: float, w: complex) -> complex:
    """X = h11 - i h12 of the theta member at w."""
    f = cvalue(F, w)
    return cmath.exp(-1j * theta) * (cderiv(G, w) - cvalue(G, w) * cderiv(F, w) / f)


def weier_forms(F, G, w: complex, theta: float = 0.0):
    """(g11, g12, g22, h11, h12, h22) of the theta member at w."""
    x = weier_x(F, G, theta, w)
    g = abs(cvalue(F, w)) ** 2
    return g, 0.0, g, x.real, -x.imag, -x.real


# real polynomials in u, v -----------------------------------------------
#
# A polynomial is a dict {(i, j): c} for the monomial c u^i v^j.

def psrc(poly: dict) -> str:
    mono = []
    for (i, j), c in sorted(poly.items()):
        if c == 0:
            continue
        factors = [f"({num(c)})"]
        for var, k in (("u", i), ("v", j)):
            if k == 1:
                factors.append(var)
            elif k > 1:
                factors.append(f"{var}^{k}")
        mono.append("*".join(factors))
    return "+".join(mono) or "0"


def pderiv(poly: dict, du: int, dv: int) -> dict:
    out = {}
    for (i, j), c in poly.items():
        if i >= du and j >= dv:
            coef = c * math.perm(i, du) * math.perm(j, dv)
            out[(i - du, j - dv)] = out.get((i - du, j - dv), 0.0) + coef
    return out


def pvalue(poly: dict, u: float, v: float) -> float:
    return sum(c * u ** i * v ** j for (i, j), c in poly.items())


def hessian(poly: dict):
    return pderiv(poly, 2, 0), pderiv(poly, 1, 1), pderiv(poly, 0, 2)


def graph_forms(poly: dict, u: float, v: float):
    h11, h12, h22 = (pvalue(p, u, v) for p in hessian(poly))
    return 1.0, 0.0, 1.0, h11, h12, h22


def is_harmonic(poly: dict) -> bool:
    h11, _, h22 = hessian(poly)
    lap = dict(h11)
    for k, c in h22.items():
        lap[k] = lap.get(k, 0.0) + c
    return all(c == 0 for c in lap.values())


# catalog surfaces -------------------------------------------------------
#
# name -> (domain, minimal, forms(u, v)); forms in closed form from the
# parametrisations: helicoid (v cos u, v sin u, u), rotational
# (e^u cos v, e^u sin v, u), and graphs.

def _graph(hfn):
    def forms(u, v):
        h11, h12, h22 = hfn(u, v)
        return 1.0, 0.0, 1.0, h11, h12, h22
    return forms


CATALOG = {
    "plane": ((-2.0, 2.0, -2.0, 2.0), True, _graph(lambda u, v: (0.0, 0.0, 0.0))),
    "paraboloid": ((-1.5, 1.5, -1.5, 1.5), False,
                   _graph(lambda u, v: (2.0, 0.0, 2.0))),
    "helicoid2": ((-math.pi, math.pi, 0.5, 2.5), True,
                  lambda u, v: (v * v, 0.0, 1.0, 0.0, -1.0 / v, 0.0)),
    "hyp_paraboloid_uv": ((-2.0, 2.0, -2.0, 2.0), True,
                          _graph(lambda u, v: (0.0, 1.0, 0.0))),
    "hyp_paraboloid_diff": ((-2.0, 2.0, -2.0, 2.0), True,
                            _graph(lambda u, v: (1.0, 0.0, -1.0))),
    "rotational_log": ((-1.0, 1.0, -math.pi, math.pi), True,
                       lambda u, v: (math.exp(2 * u), 0.0, math.exp(2 * u),
                                     -1.0, 0.0, 1.0)),
    # lam = 1: height log|u + 1| - u - v
    "dlambda_geodesic": ((-0.9, 3.0, -1.0, 1.0), False,
                         _graph(lambda u, v: (-1.0 / (u + 1.0) ** 2, 0.0, 0.0))),
    "cubic_harmonic": ((-1.0, 1.0, -1.0, 1.0), True,
                       _graph(lambda u, v: (6.0 * u, -6.0 * v, -6.0 * u))),
}

GRAPH_ENTRIES = ("plane", "paraboloid", "hyp_paraboloid_uv",
                 "hyp_paraboloid_diff", "dlambda_geodesic", "cubic_harmonic")
CHART_ENTRIES = ("helicoid2", "rotational_log")


# sampling lattices and thresholds the subcommands document -------------

CLASS_TOL = 1e-6    # analyze: |det h| and |H| at or below this count as zero
LOCUS_TOL = 0.05    # embed: a node with |h|_inf below this is on e_locus
LOCUS_NODES = 65    # embed: nodes per axis of the second-form scan

def inset_axis(lo: float, hi: float, n: int) -> list[float]:
    """analyze samples: 2% inset from each edge, n uniform nodes."""
    m = 0.02 * (hi - lo)
    a, b = lo + m, hi - m
    return [a + (b - a) * k / (n - 1) for k in range(n)]


def locus_axes(dom):
    """embed's second-form scan: inset by 2% of max(extent, 1)."""
    u0, u1, v0, v1 = dom
    m = 0.02 * max(u1 - u0, v1 - v0, 1.0)
    return (np.linspace(u0 + m, u1 - m, LOCUS_NODES),
            np.linspace(v0 + m, v1 - m, LOCUS_NODES))


def classify(det_h: float) -> str:
    if det_h > CLASS_TOL:
        return "elliptic"
    if det_h < -CLASS_TOL:
        return "hyperbolic"
    return "parabolic"


def analyze_summary(forms, dom, grid):
    """Expected verdict, class counts and curvature range of analyze.

    Also returns the smallest distance of any sampled det h from the
    class thresholds, so generators can avoid inputs whose class rests
    on the last digits.
    """
    us = inset_axis(dom[0], dom[1], grid[0])
    vs = inset_axis(dom[2], dom[3], grid[1])
    counts: dict[str, int] = {}
    ks, hs = [], []
    margin = math.inf
    for v in vs:
        for u in us:
            g11, g12, g22, h11, h12, h22 = forms(u, v)
            det_g = g11 * g22 - g12 * g12
            det_h = h11 * h22 - h12 * h12
            cls = classify(det_h)
            counts[cls] = counts.get(cls, 0) + 1
            margin = min(margin, abs(det_h - CLASS_TOL), abs(det_h + CLASS_TOL))
            ks.append(det_h / det_g)
            hs.append(abs(0.5 * (g22 * h11 - 2 * g12 * h12 + g11 * h22) / det_g))
    verdict = "d-minimal" if max(hs) <= CLASS_TOL else "not d-minimal"
    return {"counts": counts, "k_min": min(ks), "k_max": max(ks),
            "max_h": max(hs), "verdict": verdict, "margin": margin}


def locus(hnorm: np.ndarray, us, vs):
    """Expected e_locus: 8-connected clusters of nodes with |h|_inf < LOCUS_TOL.

    A cluster is isolated when it spans at most two cells and no other
    cluster comes within five cells; it is reported at the node nearest
    its mean index.  Returns (clusters, margin) where margin is the
    smallest distance of any node's |h|_inf from LOCUS_TOL.
    """
    nu, nv = hnorm.shape
    hit = hnorm < LOCUS_TOL
    margin = float(np.abs(hnorm - LOCUS_TOL).min())
    seen = np.zeros_like(hit)
    clusters = []
    for i in range(nu):
        for j in range(nv):
            if not hit[i, j] or seen[i, j]:
                continue
            seen[i, j] = True
            stack, nodes = [(i, j)], []
            while stack:
                a, b = stack.pop()
                nodes.append((a, b))
                for na in (a - 1, a, a + 1):
                    for nb in (b - 1, b, b + 1):
                        if 0 <= na < nu and 0 <= nb < nv and hit[na, nb] \
                                and not seen[na, nb]:
                            seen[na, nb] = True
                            stack.append((na, nb))
            clusters.append(nodes)
    out = []
    for nodes in clusters:
        ii = [a for a, _ in nodes]
        jj = [b for _, b in nodes]
        diam = max(max(ii) - min(ii), max(jj) - min(jj))
        near = any(
            min(max(abs(a - c), abs(b - d)) for a, b in nodes for c, d in other) <= 5
            for other in clusters if other is not nodes)
        ci = round(sum(ii) / len(ii))
        cj = round(sum(jj) / len(jj))
        out.append({"point": (float(us[ci]), float(vs[cj])),
                    "node_count": len(nodes),
                    "isolated": diam <= 2 and not near})
    out.sort(key=lambda c: (c["point"][0] ** 2 + c["point"][1] ** 2, c["point"]))
    return out, margin


def hnorm_grid(forms, dom):
    us, vs = locus_axes(dom)
    grid = np.empty((LOCUS_NODES, LOCUS_NODES))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            _, _, _, h11, h12, h22 = forms(float(u), float(v))
            grid[i, j] = max(abs(h11), abs(h12), abs(h22))
    return grid, us, vs
