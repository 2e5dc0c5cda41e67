"""Command line front end.

Subcommands, each accepting only the flags _SUBCOMMANDS lists for it
from _FLAGS, where every flag is declared once (any other exits 2):
    gen          mesh a member of a holomorphic-pair family
    analyze      per-sample forms, curvatures and a summary verdict
    singular     locate and classify zeros of the conformal factor
    reconstruct  integrate a prescribed second form into a graph
    embed        check the flat zero-mean-curvature conditions in R^4_1
    list         show the built-in reference surfaces

Exit codes: 0 success (including honest "fail"/"not d-minimal" verdicts),
2 bad input (a parse error, a non-finite number in a flag or a --forms-csv
table, a node listed twice in that table, an expression that fails to
evaluate, a domain smaller than the sampling margins), 3 integration
failure, 4 degenerate or non-spacelike samples beyond the allowed budget,
5 incompatible prescribed forms (a Codazzi residual above tol, or node
values whose two integration orders disagree).

Numbers in CSV/OBJ output are printed with a fixed 12-digit format and
JSON floats are rounded the same way, so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .catalog import UnknownSurfaceError, entries, get
from .expr import EvalError, ParseError, parse_expr, parse_real_expr
from .geometry import (DegenerateMetricError, FundamentalForms, Rect, _axis,
                       chart_patch, classify_point, fundamental_forms,
                       graph_patch, mean_curvature, relative_gauss_curvature)
from .minkowski import Vec4M, iota_lift, vanishing_h_locus, verify_flat_zmc
from .quadrature import IntegrationError
from .reconstruct import (CodazziViolationError, GridMismatchError,
                          PrescribedForms, codazzi_check, surface_from_forms)
from .singularities import (ContourError, MultiplicityError,
                            RankDisagreementError, singular_report)
from .weierstrass import (WeierstrassData, grid_eval, metric_at,
                          second_form_from_data, surface_from_data)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTEGRATION = 3
EXIT_DEGENERATE = 4
EXIT_CODAZZI = 5


class CliError(Exception):
    """Failure with a process exit code; the message goes to stderr."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _fmt(x: float) -> str:
    # a nan of either sign prints as "nan"
    return format(float(x), ".12e")


def _jround(x: float) -> float:
    # floats pass through the same 12-digit format as the text outputs,
    # so JSON reports are reproducible byte for byte as well
    return float(_fmt(x))


def _parse_floats(text: str, count: int, flag: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise CliError(EXIT_INPUT,
                       f"{flag} expects {count} comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise CliError(EXIT_INPUT, f"{flag}: could not parse {text!r}") from None


def _parse_domain(text: str) -> Rect:
    u0, u1, v0, v1 = _parse_floats(text, 4, "--domain")
    try:
        return Rect(u0, u1, v0, v1)
    except ValueError as err:
        raise CliError(EXIT_INPUT, f"--domain: {err}") from None


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(EXIT_INPUT, f"--grid expects N,M, got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(EXIT_INPUT, f"--grid: could not parse {text!r}") from None
    return n, m


def _parse_flag(parse, src: str, flag: str):
    # parse is parse_expr for --F/--G, parse_real_expr for the u, v flags
    try:
        return parse(src)
    except ParseError as err:
        raise CliError(EXIT_INPUT, f"{flag}: {err}") from None


def _weier_data(cfg: argparse.Namespace) -> WeierstrassData:
    f_ast = _parse_flag(parse_expr, cfg.f_src, "--F")
    g_ast = _parse_flag(parse_expr, cfg.g_src, "--G")
    base = complex(*cfg.base) if cfg.base is not None else 0j
    return WeierstrassData(f_ast, g_ast, base=base, domain=cfg.domain)


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _obj_mesh(verts: list[tuple[float, float, float]], nu: int, nv: int) -> str:
    lines = [f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in verts]

    def idx(i: int, j: int) -> int:
        return j * nu + i + 1

    for j in range(nv - 1):
        for i in range(nu - 1):
            a, b, c, d = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def cmd_gen(cfg: argparse.Namespace) -> int:
    if not cfg.f_src or not cfg.g_src:
        raise CliError(EXIT_INPUT, "gen needs --F and --G")
    data = _weier_data(cfg)
    nu, nv = cfg.grid or (64, 64)
    quad_tol = cfg.tol if cfg.tol is not None else 1e-10
    us, vs, rows = grid_eval(data, theta=cfg.theta, nu=nu, nv=nv,
                             quad_tol=quad_tol)

    # vertex j * nu + i is rows[j][i]
    verts = [p for row in rows for p in row]
    fmt = cfg.fmt or "obj"
    if fmt == "obj":
        _emit(cfg, _obj_mesh(verts, nu, nv))
    elif fmt == "csv":
        rows = ["u,v,x,y,z"]
        for j in range(nv):
            for i in range(nu):
                x, y, z = verts[j * nu + i]
                rows.append(",".join((_fmt(us[i]), _fmt(vs[j]),
                                      _fmt(x), _fmt(y), _fmt(z))))
        _emit(cfg, "\n".join(rows) + "\n")
    else:
        payload = {
            "schema": 1,
            "command": "gen",
            "grid": [nu, nv],
            "domain": [cfg.domain.u0, cfg.domain.u1, cfg.domain.v0, cfg.domain.v1],
            "theta": _jround(cfg.theta),
            "vertices": [[_jround(x), _jround(y), _jround(z)] for x, y, z in verts],
        }
        _emit(cfg, _json_text(payload))
    return EXIT_OK


def _single_source(cfg: argparse.Namespace, allow_x: bool = False) -> str:
    picked = [name for name, val in (
        ("catalog", cfg.catalog),
        ("graph", cfg.graph_src),
        ("weierstrass", cfg.f_src or cfg.g_src),
        ("minkowski", cfg.x_srcs if allow_x else None),
    ) if val]
    if len(picked) != 1:
        extra = ", or --x1..--x4" if allow_x else ""
        raise CliError(EXIT_INPUT,
                       "need exactly one source: --catalog, --graph, "
                       f"or --F with --G{extra}")
    if picked[0] == "weierstrass" and not (cfg.f_src and cfg.g_src):
        raise CliError(EXIT_INPUT, "--F and --G must be given together")
    return picked[0]


def _source(cfg: argparse.Namespace, kind: str):
    """(patch or data, label) for the source _single_source picked.

    Catalog and graph sources give a SurfacePatch, Weierstrass sources
    their WeierstrassData and an explicit Minkowski chart None.
    """
    if kind == "catalog":
        try:
            patch = get(cfg.catalog, lam=cfg.lam).patch
        except UnknownSurfaceError as err:
            raise CliError(EXIT_INPUT, str(err)) from None
        return patch, f"catalog:{cfg.catalog}"
    if kind == "graph":
        height = _parse_flag(parse_real_expr, cfg.graph_src, "--graph")
        return graph_patch(height, cfg.domain), f"graph:{cfg.graph_src}"
    if kind == "weierstrass":
        return _weier_data(cfg), f"weierstrass:F={cfg.f_src},G={cfg.g_src}"
    return None, "minkowski:" + ",".join(cfg.x_srcs)


def _forms_sampler(cfg: argparse.Namespace, kind: str, src, tol: float):
    """forms_at(u, v): closed forms of the --theta member for Weierstrass
    data (|F| <= max(tol, 1e-12) is a zero of F), the patch's exact jets
    for a catalog or graph patch."""
    if kind == "weierstrass":
        def forms_at(u: float, v: float) -> FundamentalForms:
            return second_form_from_data(src, complex(u, v),
                                         max(tol, 1e-12), cfg.theta)
    else:
        def forms_at(u: float, v: float) -> FundamentalForms:
            return fundamental_forms(src, u, v)
    return forms_at


def cmd_analyze(cfg: argparse.Namespace) -> int:
    kind = _single_source(cfg)
    nu, nv = cfg.grid or (33, 33)
    tol = cfg.tol if cfg.tol is not None else 1e-6
    fmt = cfg.fmt or "csv"
    if fmt == "obj":
        raise CliError(EXIT_INPUT, "analyze writes csv or json, not obj")
    src, label = _source(cfg, kind)
    forms_at = _forms_sampler(cfg, kind, src, tol)
    dom = src.domain

    nan = float("nan")
    if kind == "weierstrass":
        # the metric columns are |F|^2 even where the forms are undefined
        def metric(u: float, v: float, forms) -> tuple[float, float, float]:
            g = metric_at(src, complex(u, v))
            return g, 0.0, g
    else:
        def metric(u: float, v: float, forms) -> tuple[float, float, float]:
            if forms is None:
                return nan, nan, nan
            return forms.g11, forms.g12, forms.g22

    # patch_jets refuses points within two steps of the boundary
    us = _axis(dom.u0, dom.u1, nu, 0.02 * (dom.u1 - dom.u0))
    vs = _axis(dom.v0, dom.v1, nv, 0.02 * (dom.v1 - dom.v0))

    rows = []           # (u, v, g11, g12, g22, h11, h12, h22, H, K, cls)
    h_grid = {}         # (i, j) -> (h11, h12, h22) for the Codazzi sweep
    degenerate = 0
    for j, v in enumerate(vs):
        for i, u in enumerate(us):
            try:
                forms = forms_at(u, v)
            except (ZeroDivisionError, DegenerateMetricError):
                forms = None
            g = metric(u, v, forms)
            if forms is None:
                degenerate += 1
                rows.append((u, v, *g, nan, nan, nan, nan, nan, "degenerate"))
                continue
            h11, h12, h22 = forms.h11, forms.h12, forms.h22
            h_grid[(i, j)] = (h11, h12, h22)
            rows.append((u, v, *g, h11, h12, h22, mean_curvature(forms),
                         relative_gauss_curvature(forms),
                         classify_point(h11 * h22 - h12 * h12, tol)))

    budget = max(4, (nu * nv) // 100)
    if degenerate > budget:
        raise CliError(EXIT_DEGENERATE,
                       f"{degenerate} degenerate samples exceed the allowed "
                       f"budget of {budget}")

    # The flat-coordinate Codazzi identity (h11)_v = (h12)_u,
    # (h12)_v = (h22)_u only makes sense when the parameter lines are
    # flat coordinates: graphs and conformal holomorphic-pair charts.
    # General parametrizations get null rather than a misleading number.
    # The residual is normalized by the local gradient scale of h, so a
    # second form that blows up toward a singular point reports how well
    # the identity holds, not how large h got.
    codazzi_max = None
    if kind == "weierstrass" or src.flat:
        def h_at(uu: float, vv: float):
            f = forms_at(uu, vv)
            return f.h11, f.h12, f.h22

        step = 1e-3 * max(dom.extent, 1.0)
        bad = [(i, j) for j in range(nv) for i in range(nu)
               if (i, j) not in h_grid]
        codazzi_max = 0.0
        for (i, j) in h_grid:
            if any(max(abs(i - bi), abs(j - bj)) <= 2 for bi, bj in bad):
                continue
            u, v = us[i], vs[j]
            try:
                left, right = h_at(u - step, v), h_at(u + step, v)
                down, up = h_at(u, v - step), h_at(u, v + step)
            except (ZeroDivisionError, DegenerateMetricError):
                continue
            d_u = [(r - l) / (2 * step) for l, r in zip(left, right)]
            d_v = [(t - b) / (2 * step) for b, t in zip(down, up)]
            resid = abs(d_v[0] - d_u[1]) + abs(d_v[1] - d_u[2])
            scale = max(1.0, *(abs(x) for x in d_u + d_v))
            codazzi_max = max(codazzi_max, resid / scale)

    live = [r for r in rows if r[10] != "degenerate"]
    h_abs = [abs(r[8]) for r in live]
    ks = [r[9] for r in live]
    counts: dict[str, int] = {}
    for r in rows:
        counts[r[10]] = counts.get(r[10], 0) + 1
    verdict = "d-minimal" if live and max(h_abs) <= tol else "not d-minimal"

    summary = {
        "schema": 1,
        "command": "analyze",
        "source": label,
        "samples": nu * nv,
        "degenerate_samples": degenerate,
        "tol": _jround(tol),
        "max_abs_mean_curvature": _jround(max(h_abs)) if h_abs else None,
        "k_min": _jround(min(ks)) if ks else None,
        "k_max": _jround(max(ks)) if ks else None,
        "codazzi_residual_max":
            _jround(codazzi_max) if codazzi_max is not None else None,
        "class_counts": dict(sorted(counts.items())),
        "verdict": verdict,
    }

    if cfg.out:
        if fmt == "csv":
            lines = ["u,v,g11,g12,g22,h11,h12,h22,H,K,class"]
            for r in rows:
                lines.append(",".join([_fmt(x) for x in r[:10]] + [r[10]]))
            _emit(cfg, "\n".join(lines) + "\n")
        else:
            payload = dict(summary)
            payload["rows"] = [
                [_jround(x) for x in r[:10]] + [r[10]] for r in rows]
            _emit(cfg, _json_text(payload))
    sys.stdout.write(_json_text(summary))
    return EXIT_OK


def cmd_singular(cfg: argparse.Namespace) -> int:
    if not cfg.f_src or not cfg.g_src:
        raise CliError(EXIT_INPUT, "singular needs --F and --G")
    data = _weier_data(cfg)
    grid = cfg.grid or (64, 64)
    tol = cfg.tol if cfg.tol is not None else 1e-10
    try:
        points = singular_report(data, grid=grid, tol=tol)
    except (ContourError, MultiplicityError, RankDisagreementError) as err:
        raise CliError(EXIT_DEGENERATE, f"singular analysis failed: {err}") from None

    payload = {
        "schema": 1,
        "command": "singular",
        "source": f"F={cfg.f_src},G={cfg.g_src}",
        "points": [
            {
                "w": [_jround(p.w.real), _jround(p.w.imag)],
                "multiplicity": p.multiplicity,
                "rank": p.rank,
                "refined": p.refined,
                "g_vanishes": p.g_vanishes,
            }
            for p in points
        ],
    }
    _emit(cfg, _json_text(payload))
    return EXIT_OK


def _forms_from_csv(path: str) -> tuple[PrescribedForms, tuple[int, int]]:
    """Prescription from a node table with header u,v,h11,h12,h22.

    The rows must cover a complete, uniformly spaced rectangular
    lattice; order does not matter.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        raise CliError(EXIT_INPUT, f"--forms-csv: {err}") from None
    needed = ("u", "v", "h11", "h12", "h22")
    if not rows or any(k not in rows[0] for k in needed):
        raise CliError(EXIT_INPUT,
                       "--forms-csv: header must contain u,v,h11,h12,h22")
    table = {}
    for r in rows:
        try:
            u, v, *h = (float(r[k]) for k in needed)
        except (TypeError, ValueError):
            raise CliError(EXIT_INPUT, "--forms-csv: non-numeric entry") from None
        for k, x in zip(needed, (u, v, *h)):
            if not math.isfinite(x):
                raise CliError(EXIT_INPUT, f"--forms-csv: {k} must be "
                               f"finite, got {x} at node ({u}, {v})")
        if (u, v) in table:
            raise CliError(EXIT_INPUT,
                           f"--forms-csv: node ({u}, {v}) listed twice")
        table[(u, v)] = h
    us = sorted({u for u, _ in table})
    vs = sorted({v for _, v in table})
    nu, nv = len(us), len(vs)
    if nu < 2 or nv < 2 or len(table) != nu * nv:
        raise CliError(EXIT_INPUT,
                       f"--forms-csv: {len(table)} nodes do not fill a "
                       f"{nu}x{nv} lattice")
    for axis in (us, vs):
        gaps = [b - a for a, b in zip(axis, axis[1:])]
        if max(gaps) - min(gaps) > 1e-9 * (axis[-1] - axis[0]):
            raise CliError(EXIT_INPUT, "--forms-csv: spacing is not uniform")
    # nu * nv distinct nodes drawn from us x vs cover the whole lattice
    h = [[[table[(u, v)][c] for v in vs] for u in us] for c in range(3)]
    domain = Rect(us[0], us[-1], vs[0], vs[-1])
    return PrescribedForms.from_grid(*h, domain), (nu, nv)


def cmd_reconstruct(cfg: argparse.Namespace) -> int:
    given = [s for s in cfg.h_srcs if s]
    if cfg.forms_csv:
        if given:
            raise CliError(EXIT_INPUT, "--forms-csv excludes --h11/--h12/--h22")
        forms, grid = _forms_from_csv(cfg.forms_csv)
        dom = forms.domain
        du = (dom.u1 - dom.u0) / (grid[0] - 1)
        dv = (dom.v1 - dom.v0) / (grid[1] - 1)
        # sampled data carries the trapezoid's own discretization error
        tol = cfg.tol if cfg.tol is not None else max(du, dv) ** 2
    else:
        if len(given) != 3:
            raise CliError(EXIT_INPUT,
                           "reconstruct needs --h11/--h12/--h22 or --forms-csv")
        asts = tuple(_parse_flag(parse_real_expr, src, flag) for src, flag
                     in zip(cfg.h_srcs, ("--h11", "--h12", "--h22")))
        forms = PrescribedForms.from_expressions(*asts, cfg.domain)
        dom = cfg.domain
        grid = cfg.grid or (33, 33)
        tol = cfg.tol if cfg.tol is not None else 1e-8

    # the output lattice and surface_from_forms' own grid are both
    # checked; the verdict prints the residual of the check that failed
    report = codazzi_check(forms, tol=tol, grid=grid)
    try:
        if not report.passed:
            raise CodazziViolationError(report)
        patch = surface_from_forms(forms, base=cfg.base, tol=tol)
    except CodazziViolationError as err:
        sys.stdout.write(f"codazzi_residual_max: "
                         f"{_fmt(err.report.max_residual)}\n"
                         "verdict: incompatible\n")
        sys.stderr.write(f"{err}\n")
        return EXIT_CODAZZI
    except GridMismatchError as err:
        # the central-difference Codazzi residual never reads a corner
        # node; a bad one shows as two integration orders that disagree
        raise CliError(EXIT_CODAZZI, str(err)) from None
    residual = f"codazzi_residual_max: {_fmt(report.max_residual)}\n"

    nu, nv = grid
    us = _axis(dom.u0, dom.u1, nu)
    vs = _axis(dom.v0, dom.v1, nv)
    samples = [(u, v, patch(u, v).z) for v in vs for u in us]
    # the verdict goes out only once the surface exists: an integration
    # failure while sampling must not leave "compatible" on stdout
    sys.stdout.write(residual + "verdict: compatible\n")

    fmt = cfg.fmt or "csv"
    if fmt == "csv":
        lines = ["u,v,F"]
        lines += [",".join((_fmt(u), _fmt(v), _fmt(z))) for u, v, z in samples]
        _emit(cfg, "\n".join(lines) + "\n")
    elif fmt == "obj":
        _emit(cfg, _obj_mesh(samples, nu, nv))
    else:
        payload = {
            "schema": 1,
            "command": "reconstruct",
            "domain": [dom.u0, dom.u1, dom.v0, dom.v1],
            "grid": [nu, nv],
            "codazzi_residual_max": _jround(report.max_residual),
            "rows": [[_jround(u), _jround(v), _jround(z)] for u, v, z in samples],
        }
        _emit(cfg, _json_text(payload))
    return EXIT_OK


def cmd_embed(cfg: argparse.Namespace) -> int:
    kind = _single_source(cfg, allow_x=True)
    grid = cfg.grid or (9, 9)
    tol = cfg.tol if cfg.tol is not None else 1e-5
    src, label = _source(cfg, kind)

    if kind == "minkowski":
        asts = tuple(_parse_flag(parse_real_expr, x_src, flag) for x_src, flag
                     in zip(cfg.x_srcs, ("--x1", "--x2", "--x3", "--x4")))
        surface = chart_patch(asts, cfg.domain, Vec4M)
        loci = None
    else:
        surface = iota_lift(surface_from_data(src, theta=cfg.theta)
                            if kind == "weierstrass" else src)
        loci = vanishing_h_locus(_forms_sampler(cfg, kind, src, tol),
                                 src.domain)

    report = verify_flat_zmc(surface, grid=grid, tol=tol)
    if report.spacelike_violations:
        first = report.spacelike_violations[0]
        raise CliError(EXIT_DEGENERATE,
                       f"{len(report.spacelike_violations)} non-spacelike "
                       f"samples, first at ({first[0]:.6g}, {first[1]:.6g})")

    payload = {
        "schema": 1,
        "command": "embed",
        "source": label,
        "samples": report.samples,
        "tol": _jround(report.tol),
        "max_mean_curvature": _jround(report.max_mean_curvature),
        "max_abs_curvature": _jround(report.max_abs_curvature),
        "verdict": "pass" if report.passed else "fail",
    }
    if loci is not None:
        payload["e_locus"] = [
            {
                "point": [_jround(c.point[0]), _jround(c.point[1])],
                "node_count": c.node_count,
                "isolated": c.isolated,
            }
            for c in loci
        ]
    _emit(cfg, _json_text(payload))
    return EXIT_OK


def cmd_list(cfg: argparse.Namespace) -> int:
    payload = {
        "schema": 1,
        "command": "list",
        "surfaces": [
            {
                "name": e.name,
                "minimal": e.is_minimal,
                "umbilical": e.is_umbilical,
                "k_sign": e.k_sign,
                "domain": [e.patch.domain.u0, e.patch.domain.u1,
                           e.patch.domain.v0, e.patch.domain.v1],
                "note": e.note,
            }
            for e in entries()
        ],
    }
    _emit(cfg, _json_text(payload))
    return EXIT_OK


# every flag once, with its add_argument keywords; _join_value_flags joins
# each to its value, which may start with '-' (a bound, -u*v)
_FLAGS = {
    "--F": dict(dest="f_src"),
    "--G": dict(dest="g_src"),
    "--graph": dict(dest="graph_src", help="height expression in u, v"),
    "--catalog": dict(help="reference surface name"),
    "--lam": dict(type=float, default=1.0),
    "--h11": {}, "--h12": {}, "--h22": {},
    "--forms-csv": dict(help="node table u,v,h11,h12,h22 instead of expressions"),
    "--x1": {}, "--x2": {}, "--x3": {}, "--x4": {},
    "--theta": dict(type=float, default=0.0),
    "--base": dict(help="base point re,im (reconstruct: u0,v0)"),
    "--domain": dict(default="-1,1,-1,1", help="parameter rectangle u0,u1,v0,v1"),
    "--grid": dict(help="sample counts N,M"),
    "--tol": dict(type=float),
    "--out": dict(help="output file (default stdout)"),
    "--format": dict(dest="fmt", default="", choices=("", "obj", "csv", "json")),
}

_SHARED = ("--domain", "--grid", "--tol", "--out")

# name -> (function, help, the flags it accepts)
_SUBCOMMANDS = {
    "gen": (cmd_gen, "mesh a family member from --F/--G",
            ("--F", "--G", "--theta", "--base", *_SHARED, "--format")),
    "analyze": (cmd_analyze, "forms, curvatures and verdict",
                ("--F", "--G", "--graph", "--catalog", "--lam", "--base",
                 *_SHARED, "--format")),
    "singular": (cmd_singular, "zeros of the conformal factor",
                 ("--F", "--G", "--base", *_SHARED)),
    "reconstruct": (cmd_reconstruct, "graph from a prescribed form",
                    ("--h11", "--h12", "--h22", "--forms-csv", "--base",
                     *_SHARED, "--format")),
    "embed": (cmd_embed, "flat zero-mean-curvature check",
              ("--F", "--G", "--graph", "--catalog", "--lam", "--x1", "--x2",
               "--x3", "--x4", "--theta", "--base", *_SHARED)),
    "list": (cmd_list, "built-in reference surfaces", ("--out",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isomin",
        description="Surfaces with a degenerate product: generation, "
                    "analysis, reconstruction and embedding checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {}
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            action = p.add_argument(flag, **_FLAGS[flag])
            defaults[action.dest] = action.default
    # a flag that a subcommand lacks reads as its default
    parser.set_defaults(**defaults)
    return parser


def _checked(ns: argparse.Namespace) -> argparse.Namespace:
    """The parsed command line with --base, --domain and --grid parsed in
    place, the sources h_srcs and x_srcs added, and every value checked."""
    ns.base = _parse_floats(ns.base, 2, "--base") if ns.base else None
    ns.h_srcs = (ns.h11, ns.h12, ns.h22)
    ns.x_srcs = None
    xs = (ns.x1, ns.x2, ns.x3, ns.x4)
    if any(x is not None for x in xs):
        if not all(x is not None for x in xs):
            raise CliError(EXIT_INPUT, "--x1..--x4 must be given together")
        ns.x_srcs = xs
    ns.domain = d = _parse_domain(ns.domain)
    ns.grid = _parse_grid(ns.grid) if ns.grid else None
    for flag, values in (("--tol", (ns.tol or 0.0,)),
                         ("--theta", (ns.theta,)), ("--lam", (ns.lam,)),
                         ("--domain", (d.u0, d.u1, d.v0, d.v1)),
                         ("--base", ns.base or ())):
        if not all(map(math.isfinite, values)):
            raise CliError(EXIT_INPUT, f"{flag} must be finite, got "
                           + ",".join(map(str, values)))
    if ns.grid is not None and min(ns.grid) < 2:
        raise CliError(EXIT_INPUT, f"grid must be at least 2x2, got {ns.grid}")
    if ns.tol is not None and ns.tol <= 0:
        raise CliError(EXIT_INPUT, f"tol must be positive, got {ns.tol}")
    return ns


def _join_value_flags(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in _FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    ns = parser.parse_args(_join_value_flags(list(argv)))
    try:
        return _SUBCOMMANDS[ns.command][0](_checked(ns))
    except CliError as err:
        failure = err
    except IntegrationError as err:
        failure = CliError(EXIT_INTEGRATION, f"integration failed: {err}")
    except EvalError as err:
        failure = CliError(EXIT_INPUT, f"evaluation failed: {err}")
    except ValueError as err:
        # a domain too small for the sampling margins, a base point
        # outside the domain or off the grid: the library names which
        failure = CliError(EXIT_INPUT, str(err))
    sys.stderr.write(f"isomin {ns.command}: {failure}\n")
    return failure.code


if __name__ == "__main__":
    sys.exit(main())
