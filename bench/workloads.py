"""Seeded job lists for the benchmark's workloads.

A job is a dict:
    name     slot name, unique within the workload
    cmd      isomin subcommand
    argv     the arguments after the program name, exactly as a user types
    rc       the exit code a correct program returns
    outputs  files the job writes besides stdout (relative to its cwd)
    check    what checks.py compares the outputs with

The schedule of a workload (which subcommands, grids, formats and input
families run in which order) is fixed; the seed only draws the numbers
inside each family.  So every seed costs about the same, and the spread
between runs with different seeds measures the machine and the program,
not the draw.
"""

from __future__ import annotations

import math
import random

import reference as ref

WORKLOADS = ("mesh", "inspect", "lift")

DOMAIN = (-1.0, 1.0, -1.0, 1.0)  # the CLI's default --domain
MARGIN_CLASS = 1e-5   # |det h -+ tol| of every analyze sample
MARGIN_LOCUS = 1e-3   # | |h|_inf - 0.05 | of every locus node
REDRAWS = 200         # draws before a family counts as exhausted


def _r3(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{rng.uniform(lo, hi):.3f}")


def _c3(rng, lo, hi, ilo=None, ihi=None) -> complex:
    ilo = lo if ilo is None else ilo
    ihi = hi if ihi is None else ihi
    return complex(_r3(rng, lo, hi), _r3(rng, ilo, ihi))


def _dyadic(rng, k: int = 8) -> float:
    val = 0
    while val == 0:
        val = rng.randint(-k, k)
    return val / 8.0


def _root_outside(rng) -> complex:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    rad = rng.uniform(1.6, 2.4)
    return complex(float(f"{rad * math.cos(ang):.3f}"),
                   float(f"{rad * math.sin(ang):.3f}"))


def _job(name, argv, check, outputs=(), rc=0) -> dict:
    return {"name": name, "cmd": argv[0], "argv": list(argv), "rc": rc,
            "outputs": list(outputs), "check": check}


def _redraw(rng, draw, ok, what: str):
    """First draw that passes ok(); deterministic for a given rng state."""
    for _ in range(REDRAWS):
        item = draw(rng)
        if ok(item):
            return item
    raise RuntimeError(f"no admissible {what} in {REDRAWS} draws")


# mesh ------------------------------------------------------------------

def _gen(name, F, G, grid, fmt, theta=0.0, base=None, srcs=None):
    f_src, g_src = srcs or (ref.csrc(F), ref.csrc(G))
    argv = ["gen", "--F", f_src, "--G", g_src, "--grid", f"{grid[0]},{grid[1]}"]
    if fmt:
        argv += ["--format", fmt]
    if theta:
        argv += ["--theta", ref.num(theta)]
    if base is not None:
        argv += ["--base", f"{ref.num(base.real)},{ref.num(base.imag)}"]
    check = {"kind": "gen", "F": F, "G": G, "grid": grid, "fmt": fmt or "obj",
             "theta": theta, "base": base or 0j, "domain": DOMAIN}
    return _job(name, argv, check)


def _poly(rng, degree):
    return [{"kind": "poly", "coeffs": [_c3(rng, -1.0, 1.0) for _ in range(degree + 1)]}]


def mesh(rng: random.Random) -> list[dict]:
    """gen jobs: short incremental row segments, grid_eval and formatting."""
    base = _c3(rng, -0.5, 0.5)
    jobs = [
        _gen("gen_roots_96_obj",
             [{"kind": "roots", "scale": _c3(rng, 0.5, 1.5),
               "roots": [(_root_outside(rng), 1), (_root_outside(rng), 1)]}],
             _poly(rng, 2), (96, 96), "obj"),
        _gen("gen_exp_112_csv",
             [{"kind": "exp", "a": _c3(rng, -1.2, 1.2, -1.0, 1.0),
               "c": _c3(rng, 0.5, 1.5, -0.5, 0.5)}],
             _poly(rng, 2), (112, 112), "csv", theta=_r3(rng, 0.2, 3.0)),
        _gen("gen_trig_128_json",
             [{"kind": "cosh", "a": complex(_r3(rng, 0.3, 1.0), 0.0),
               "c": _c3(rng, 0.5, 1.5)}],
             [{"kind": "sin", "a": _c3(rng, 0.3, 1.0, -0.3, 0.3),
               "c": _c3(rng, 0.5, 1.5)}] + _poly(rng, 1),
             (128, 128), "json", base=base),
        _gen("gen_cos_192_obj",
             [{"kind": "cos", "a": _c3(rng, 0.3, 1.0, -0.3, 0.3), "c": 1 + 0j}],
             [{"kind": "cosh", "a": _c3(rng, 0.3, 1.0, -0.3, 0.3), "c": 1 + 0j}],
             (192, 192), "obj", theta=_r3(rng, 0.2, 3.0)),
        # Large-modulus probe: |F| reaches 3e6, so an absolute-only
        # quadrature tolerance cannot be met.  Kept verbatim on purpose.
        _gen("gen_probe_exp15",
             [{"kind": "exp", "a": 15 + 0j, "c": 1 + 0j}],
             [{"kind": "poly", "coeffs": [1 + 0j]}],
             (4, 4), None, srcs=("exp(15*z)", "1")),
    ]
    return jobs


# inspect ----------------------------------------------------------------

def _harmonic_cubic(rng) -> dict:
    a1, a2, b1, b2 = (_dyadic(rng) for _ in range(4))
    # Re(a z^3 + b z^2) with a = a1 + i a2, b = b1 + i b2, z = u + i v
    return {(3, 0): a1, (1, 2): -3 * a1, (2, 1): -3 * a2, (0, 3): a2,
            (2, 0): b1, (0, 2): -b1, (1, 1): -2 * b2}


def _cubic(rng) -> dict:
    return {(i, j): _dyadic(rng) for i in range(4) for j in range(4)
            if 2 <= i + j <= 3}


def _graph_analyze_ok(poly) -> bool:
    s = ref.analyze_summary(lambda u, v: ref.graph_forms(poly, u, v), DOMAIN, (33, 33))
    return s["margin"] > MARGIN_CLASS


def _locus_ok(forms, dom) -> bool:
    hn, us, vs = ref.hnorm_grid(forms, dom)
    return ref.locus(hn, us, vs)[1] > MARGIN_LOCUS


def _graph_locus_ok(poly) -> bool:
    return _locus_ok(lambda u, v: ref.graph_forms(poly, u, v), DOMAIN)


def _zero_free(rng):
    """F = c exp(a z): no zeros anywhere, |F| of order 1 on the domain."""
    return [{"kind": "exp", "a": _c3(rng, -0.8, 0.8), "c": _c3(rng, 0.6, 1.4, -0.4, 0.4)}]


def _zero_free_pair(rng):
    G = [{"kind": "poly", "coeffs": [_c3(rng, -0.5, 0.5), _c3(rng, -0.5, 0.5),
                                     _c3(rng, -1.0, 1.0)]}]
    return _zero_free(rng), G


def _singular_zeros(rng, mults):
    def draw(r):
        return [complex(_r3(r, -0.65, 0.65), _r3(r, -0.65, 0.65)) for _ in mults]

    def ok(zs):
        return all(abs(a - b) >= 0.45 for k, a in enumerate(zs) for b in zs[k + 1:])

    return list(zip(_redraw(rng, draw, ok, "zero set"), mults))


def _singular(name, roots, G, shared):
    F = [{"kind": "roots", "scale": 1 + 0j, "roots": roots}]
    argv = ["singular", "--F", ref.csrc(F), "--G", ref.csrc(G), "--grid", "256,256"]
    expect = [{"w": r, "multiplicity": m, "rank": 0 if r == shared else 1,
               "g_vanishes": r == shared} for r, m in roots]
    return _job(name, argv, {"kind": "singular", "points": expect})


def inspect(rng: random.Random) -> list[dict]:
    """Closed-form surfaces: FD jets, symbolic derivatives, Newton, Codazzi."""
    dom = DOMAIN
    jobs = []

    harm = _redraw(rng, _harmonic_cubic, _graph_analyze_ok, "harmonic cubic")
    jobs.append(_job("analyze_graph_harmonic",
                     ["analyze", "--graph", ref.psrc(harm), "--grid", "33,33"],
                     {"kind": "analyze", "graph": harm, "domain": dom, "grid": (33, 33)}))

    cubic = _redraw(rng, _cubic, lambda p: not ref.is_harmonic(p)
                    and _graph_analyze_ok(p), "cubic")
    jobs.append(_job("analyze_graph_cubic_csv",
                     ["analyze", "--graph", ref.psrc(cubic), "--grid", "33,33",
                      "--out", "forms.csv"],
                     {"kind": "analyze", "graph": cubic, "domain": dom,
                      "grid": (33, 33), "forms_csv": "forms.csv"},
                     outputs=["forms.csv"]))
    jobs.append(_job("reconstruct_forms_csv",
                     ["reconstruct", "--forms-csv", "forms.csv", "--out", "graph_csv.csv"],
                     {"kind": "reconstruct", "poly": cubic, "file": "graph_csv.csv",
                      "base": (0.0, 0.0), "lattice": ref.inset_axis(-1.0, 1.0, 33),
                      "trapezoid": True},
                     outputs=["graph_csv.csv"]))

    name = rng.choice(ref.GRAPH_ENTRIES)
    jobs.append(_job("analyze_catalog_graph", ["analyze", "--catalog", name],
                     {"kind": "analyze", "catalog": name, "grid": (33, 33)}))
    name = rng.choice(ref.CHART_ENTRIES)
    jobs.append(_job("analyze_catalog_chart", ["analyze", "--catalog", name],
                     {"kind": "analyze", "catalog": name, "grid": (33, 33)}))

    def pair_ok(fg):
        s = ref.analyze_summary(lambda u, v: ref.weier_forms(*fg, complex(u, v)),
                                dom, (65, 65))
        return s["margin"] > MARGIN_CLASS

    F, G = _redraw(rng, _zero_free_pair, pair_ok, "zero-free pair")
    jobs.append(_job("analyze_weierstrass",
                     ["analyze", "--F", ref.csrc(F), "--G", ref.csrc(G), "--grid", "65,65"],
                     {"kind": "analyze", "F": F, "G": G, "domain": dom, "grid": (65, 65)}))

    mults = [1, 2, 3]
    rng.shuffle(mults)
    roots = _singular_zeros(rng, mults)
    shared = rng.choice(roots)[0]
    G = [{"kind": "roots", "scale": _c3(rng, 0.5, 1.5), "roots": [(shared, 1)]}]
    jobs.append(_singular("singular_shared", roots, G, shared))
    roots = _singular_zeros(rng, [rng.choice((1, 2)), rng.choice((2, 3))])
    G = [{"kind": "poly", "coeffs": [_c3(rng, 0.5, 1.5), _c3(rng, -0.3, 0.3)]}]
    jobs.append(_singular("singular_plain", roots, G, None))

    quartic = {(i, j): _dyadic(rng) for i in range(5) for j in range(5)
               if 2 <= i + j <= 4}
    h11, h12, h22 = (ref.psrc(h) for h in ref.hessian(quartic))
    base = (_dyadic(rng, 4), _dyadic(rng, 4))
    jobs.append(_job("reconstruct_hessian",
                     ["reconstruct", "--h11", h11, "--h12", h12, "--h22", h22,
                      "--grid", "41,41", "--base", f"{ref.num(base[0])},{ref.num(base[1])}",
                      "--out", "graph_expr.csv"],
                     {"kind": "reconstruct", "poly": quartic, "file": "graph_expr.csv",
                      "base": base, "lattice": [-1.0 + 2.0 * k / 40 for k in range(41)],
                      "trapezoid": False},
                     outputs=["graph_expr.csv"]))

    graph = _redraw(rng, rng.choice((_harmonic_cubic, _cubic)), _graph_locus_ok,
                    "embed graph")
    jobs.append(_job("embed_graph", ["embed", "--graph", ref.psrc(graph)],
                     {"kind": "embed", "graph": graph, "domain": dom, "grid": (9, 9)}))
    name = rng.choice(sorted(ref.CATALOG))
    jobs.append(_job("embed_catalog", ["embed", "--catalog", name],
                     {"kind": "embed", "catalog": name, "grid": (9, 9)}))

    lifted = rng.choice((_harmonic_cubic, _cubic))(rng)
    src = ref.psrc(lifted)
    jobs.append(_job("embed_chart_null_lift",
                     ["embed", "--x1", src, "--x2", "u", "--x3", "v", "--x4", src],
                     {"kind": "embed", "verdict": "pass" if ref.is_harmonic(lifted)
                      else "fail", "grid": (9, 9)}))
    quad = {(2, 0): _dyadic(rng), (1, 1): _dyadic(rng), (0, 2): _dyadic(rng)}
    jobs.append(_job("embed_chart_euclidean",
                     ["embed", "--x1", "0", "--x2", "u", "--x3", "v", "--x4", ref.psrc(quad)],
                     {"kind": "embed", "verdict": "fail", "grid": (9, 9)}))
    return jobs


# lift -------------------------------------------------------------------

def _lift_pair(rng):
    # F from one family for every seed, so that seeds cost the same; a
    # quadratic G puts a zero of h (an e_locus point) near its vertex
    F = _zero_free(rng)
    G = [{"kind": "roots", "scale": _c3(rng, 0.5, 1.5),
          "roots": [(_c3(rng, -0.5, 0.5), 2)]},
         {"kind": "poly", "coeffs": [_c3(rng, -0.05, 0.05)]}]
    return F, G


def lift(rng: random.Random) -> list[dict]:
    """embed --F/--G: long base-anchored segments behind the patch cache.

    One job per pass (a job takes 7-13 s here), so a run holds enough
    passes for a median; the seed decides whether theta is 0.
    """
    theta = _r3(rng, 0.3, 2.8) if rng.random() < 0.5 else 0.0
    F, G = _redraw(rng, _lift_pair,
                   lambda fg: _locus_ok(lambda u, v: ref.weier_forms(
                       *fg, complex(u, v), theta), DOMAIN),
                   "lift pair")
    argv = ["embed", "--F", ref.csrc(F), "--G", ref.csrc(G), "--grid", "3,3"]
    if theta:
        argv += ["--theta", ref.num(theta)]
    return [_job("embed_weierstrass", argv, {"kind": "embed", "F": F, "G": G, "theta": theta,
                                             "domain": DOMAIN, "grid": (3, 3)})]


_BUILDERS = {"mesh": mesh, "inspect": inspect, "lift": lift}


def build(workload: str, seed: int) -> list[dict]:
    """The job list of one pass; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
