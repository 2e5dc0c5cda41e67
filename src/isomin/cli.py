"""Command line front end.

Subcommands, each accepting only the flags _SUBCOMMANDS lists for it
from _FLAGS, where every flag is declared once (any other exits 2):
    gen          mesh a member of a holomorphic-pair family
    analyze      per-sample forms, curvatures and a summary verdict
    singular     locate and classify zeros of the conformal factor
    reconstruct  integrate a prescribed second form into a graph
    embed        check the flat zero-mean-curvature conditions in R^4_1
    list         show the built-in reference surfaces

Every subcommand but list reads exactly one source, picked by the flags
that select it in _SOURCES: --F/--G, --graph, --catalog, --x1..--x4,
--h11/--h12/--h22 or --forms-csv.  Any given flag that the picked source
does not read exits 2; --lam is read only by a catalog entry that takes
it.  --F/--G data are anchored at --base (gen only), or at the domain
centre; the outputs of analyze, singular and embed do not depend on it.

Exit codes: 0 success (including honest "fail"/"not d-minimal" verdicts),
2 bad input (no single source, a flag the source does not read, a parse
error, a non-finite number in a flag or a --forms-csv table, a node listed
twice in that table, an expression that fails to evaluate, a domain
smaller than the sampling margins), 3 integration failure, 4 degenerate or
non-spacelike samples beyond the allowed budget, or a singular point whose
rank from the zeros of G differs from the count of the Jacobian's singular
values above the cut, 5 incompatible prescribed forms (a Codazzi residual
above tol, or node values whose two integration orders disagree).

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

from .catalog import UnknownSurfaceError, _takes_lam, entries, get
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
    """--F and --G on --domain, anchored at --base, by default at the
    domain centre."""
    f_ast = _parse_flag(parse_expr, cfg.f_src, "--F")
    g_ast = _parse_flag(parse_expr, cfg.g_src, "--G")
    base = complex(*cfg.base) if cfg.base else None
    return WeierstrassData(f_ast, g_ast, base=base, domain=cfg.domain)


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _obj_mesh(verts: list[tuple[float, float, float]], nu: int, nv: int) -> str:
    # one %-format per line type over the flat values; %.12e is _fmt
    flat = [c for p in verts for c in p]
    # vertex j * nu + i is number a = j * nu + i + 1; each cell is the
    # triangles (a, a+1, a+nu+1) and (a, a+nu+1, a+nu)
    faces = [k for j in range(nv - 1) for a in range(j * nu + 1, j * nu + nu)
             for k in (a, a + 1, a + nu + 1, a, a + nu + 1, a + nu)]
    return ("v %.12e %.12e %.12e\n" * len(verts) % tuple(flat)
            + "f %d %d %d\nf %d %d %d\n" * (len(faces) // 6) % tuple(faces))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _gen_json(head: dict, verts: list[tuple[float, float, float]]) -> str:
    """_json_text of head with the key "vertices" added last, holding the
    vertices rounded by _jround; json.dumps writes only the head."""
    flat = [c for p in verts for c in p]
    rounded = list(map(float, ("%.12e " * len(flat) % tuple(flat)).split()))
    body = (",\n    [\n      %r,\n      %r,\n      %r\n    ]" * len(verts)
            % tuple(rounded))
    if "n" in body:
        # an infinity (an integral past the float limit, as for F = 1e307
        # on a 200-wide domain) or a nan, which json spells differently
        return _json_text({**head, "vertices": [
            rounded[k:k + 3] for k in range(0, len(rounded), 3)]})
    # json.dumps(head, indent=2) ends with "\n}"
    return (json.dumps(head, indent=2)[:-2] + ',\n  "vertices": ['
            + body[1:] + "\n  ]\n}\n")


def cmd_gen(cfg: argparse.Namespace) -> int:
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
        flat = [c for v, row in zip(vs, rows) for u, p in zip(us, row)
                for c in (u, v, *p)]
        _emit(cfg, "u,v,x,y,z\n" + "%.12e,%.12e,%.12e,%.12e,%.12e\n"
              * len(verts) % tuple(flat))
    else:
        _emit(cfg, _gen_json({
            "schema": 1,
            "command": "gen",
            "grid": [nu, nv],
            "domain": [cfg.domain.u0, cfg.domain.u1, cfg.domain.v0, cfg.domain.v1],
            "theta": _jround(cfg.theta),
        }, verts))
    return EXIT_OK


def _real_exprs(cfg: argparse.Namespace, srcs: tuple[str, ...]) -> tuple:
    """srcs, the values of cfg.source's selecting flags, parsed in u, v."""
    return tuple(_parse_flag(parse_real_expr, src, flag)
                 for src, flag in zip(srcs, _SOURCES[cfg.source][0]))


def _source(cfg: argparse.Namespace):
    """(patch or data, label) of cfg.source.

    Catalog and graph sources give a SurfacePatch, Weierstrass sources
    their WeierstrassData and --x1..--x4 their chart in R^4_1.
    """
    if cfg.source == "catalog":
        return get(cfg.catalog, lam=cfg.lam).patch, f"catalog:{cfg.catalog}"
    if cfg.source == "graph":
        height, = _real_exprs(cfg, (cfg.graph_src,))
        return graph_patch(height, cfg.domain), f"graph:{cfg.graph_src}"
    if cfg.source == "weierstrass":
        return _weier_data(cfg), f"weierstrass:F={cfg.f_src},G={cfg.g_src}"
    xs = (cfg.x1, cfg.x2, cfg.x3, cfg.x4)
    return (chart_patch(_real_exprs(cfg, xs), cfg.domain, Vec4M),
            "minkowski:" + ",".join(xs))


def _forms_sampler(cfg: argparse.Namespace, src, tol: float):
    """forms_at(u, v): closed forms of the --theta member for Weierstrass
    data (|F| <= max(tol, 1e-12) is a zero of F), the patch's exact jets
    for a catalog or graph patch."""
    if cfg.source == "weierstrass":
        def forms_at(u: float, v: float) -> FundamentalForms:
            return second_form_from_data(src, complex(u, v),
                                         max(tol, 1e-12), cfg.theta)
    else:
        def forms_at(u: float, v: float) -> FundamentalForms:
            return fundamental_forms(src, u, v)
    return forms_at


def cmd_analyze(cfg: argparse.Namespace) -> int:
    nu, nv = cfg.grid or (33, 33)
    tol = cfg.tol if cfg.tol is not None else 1e-6
    fmt = cfg.fmt or "csv"
    if fmt == "obj":
        raise CliError(EXIT_INPUT, "analyze writes csv or json, not obj")
    src, label = _source(cfg)
    forms_at = _forms_sampler(cfg, src, tol)
    dom = src.domain

    nan = float("nan")
    if cfg.source == "weierstrass":
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
    degenerate = 0
    for v in vs:
        for u in us:
            try:
                forms = forms_at(u, v)
            except DegenerateMetricError:
                forms = None
            g = metric(u, v, forms)
            if forms is None:
                degenerate += 1
                rows.append((u, v, *g, nan, nan, nan, nan, nan, "degenerate"))
                continue
            h11, h12, h22 = forms.h11, forms.h12, forms.h22
            rows.append((u, v, *g, h11, h12, h22, mean_curvature(forms),
                         relative_gauss_curvature(forms),
                         classify_point(h11 * h22 - h12 * h12, tol)))

    budget = max(4, (nu * nv) // 100)
    if degenerate > budget:
        raise CliError(EXIT_DEGENERATE,
                       f"{degenerate} degenerate samples exceed the allowed "
                       f"budget of {budget}")

    # The flat-coordinate Codazzi identity (h11)_v = (h12)_u,
    # (h12)_v = (h22)_u holds exactly for every source whose parameter
    # lines are flat, so codazzi_residual_max is 0.0 there.  A graph's h
    # is its height's Hessian (geometry._forms_from_jets with
    # f_u = (1, 0, phi_u)), and the identity is Schwarz's theorem; for
    # Weierstrass data h11 - i h12 is the holomorphic Phi of
    # second_form_from_data, and the identity is its Cauchy-Riemann
    # equations (zeros of F are degenerate samples).  General
    # parametrizations get null rather than a misleading number.
    flat = cfg.source == "weierstrass" or src.flat

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
        "codazzi_residual_max": 0.0 if flat else None,
        "class_counts": dict(sorted(counts.items())),
        "verdict": verdict,
    }

    if cfg.out:
        if fmt == "csv":
            lines = ["u,v,g11,g12,g22,h11,h12,h22,H,K,class"] + [
                ",".join([*map(_fmt, r[:10]), r[10]]) for r in rows]
            _emit(cfg, "\n".join(lines) + "\n")
        else:
            payload = dict(summary)
            payload["rows"] = [
                [_jround(x) for x in r[:10]] + [r[10]] for r in rows]
            _emit(cfg, _json_text(payload))
    sys.stdout.write(_json_text(summary))
    return EXIT_OK


def cmd_singular(cfg: argparse.Namespace) -> int:
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
    if cfg.source == "forms-csv":
        forms, grid = _forms_from_csv(cfg.forms_csv)
        dom = forms.domain
        du = (dom.u1 - dom.u0) / (grid[0] - 1)
        dv = (dom.v1 - dom.v0) / (grid[1] - 1)
        # sampled data carries the trapezoid's own discretization error
        tol = cfg.tol if cfg.tol is not None else max(du, dv) ** 2
    else:
        asts = _real_exprs(cfg, (cfg.h11, cfg.h12, cfg.h22))
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
    grid = cfg.grid or (9, 9)
    tol = cfg.tol if cfg.tol is not None else 1e-5
    src, label = _source(cfg)

    if cfg.source == "minkowski":
        surface, loci = src, None
    else:
        surface = iota_lift(surface_from_data(src, theta=cfg.theta)
                            if cfg.source == "weierstrass" else src)
        loci = vanishing_h_locus(_forms_sampler(cfg, src, tol), src.domain)

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
            {"point": [_jround(c.point[0]), _jround(c.point[1])],
             "node_count": c.node_count, "isolated": c.isolated}
            for c in loci]
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


# every flag once, with its add_argument keywords (default: what it reads
# as when not given); _join_value_flags joins each to its value, even -u*v
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

# flag -> the attribute argparse stores its value in
_DESTS = {flag: kw.get("dest", flag[2:].replace("-", "_"))
          for flag, kw in _FLAGS.items()}

_SHARED = ("--domain", "--grid", "--tol", "--out")

# source -> (the flags that select it, all of them together; the other
# flags it reads); a catalog entry reads --lam only if catalog says so
_SOURCES = {
    "weierstrass": (("--F", "--G"), ("--theta", "--base", *_SHARED, "--format")),
    "graph": (("--graph",), (*_SHARED, "--format")),
    "catalog": (("--catalog",), ("--lam", "--grid", "--tol", "--out", "--format")),
    "minkowski": (("--x1", "--x2", "--x3", "--x4"), _SHARED),
    "forms": (("--h11", "--h12", "--h22"), ("--base", *_SHARED, "--format")),
    "forms-csv": (("--forms-csv",), ("--base", "--tol", "--out", "--format")),
}

# name -> (function, help, the flags it accepts)
_SUBCOMMANDS = {
    "gen": (cmd_gen, "mesh a family member from --F/--G",
            ("--F", "--G", "--theta", "--base", *_SHARED, "--format")),
    "analyze": (cmd_analyze, "forms, curvatures and verdict",
                ("--F", "--G", "--graph", "--catalog", "--lam", *_SHARED,
                 "--format")),
    "singular": (cmd_singular, "zeros of the conformal factor",
                 ("--F", "--G", *_SHARED)),
    "reconstruct": (cmd_reconstruct, "graph from a prescribed form",
                    ("--h11", "--h12", "--h22", "--forms-csv", "--base",
                     *_SHARED, "--format")),
    "embed": (cmd_embed, "flat zero-mean-curvature check",
              ("--F", "--G", "--graph", "--catalog", "--lam", "--x1", "--x2",
               "--x3", "--x4", "--theta", *_SHARED)),
    "list": (cmd_list, "built-in reference surfaces", ("--out",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isomin",
        description="Surfaces with a degenerate product: generation, "
                    "analysis, reconstruction and embedding checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            # None marks a flag not given; _checked applies the default
            p.add_argument(flag, **{**_FLAGS[flag], "default": None})
    return parser


def _pick_source(ns: argparse.Namespace, given: set[str]) -> str:
    """The one source of ns.command whose selecting flags were given,
    once every other given flag is one that source reads."""
    offered = {name: row for name, row in _SOURCES.items()
               if set(row[0]) <= set(_SUBCOMMANDS[ns.command][2])}
    named = [name for name, (select, _) in offered.items()
             if given & set(select)]
    if len(named) != 1 or not set(offered[named[0]][0]) <= given:
        alts = [" and ".join(select) for select, _ in offered.values()]
        raise CliError(EXIT_INPUT, f"{ns.command} needs " + (
            alts[0] if len(alts) == 1 else "one of " + "; ".join(alts)))
    select, reads = offered[named[0]]
    if named[0] == "catalog" and not _takes_lam(ns.catalog):
        reads = tuple(flag for flag in reads if flag != "--lam")
    unread = sorted(given - set(select + reads))
    if unread:
        raise CliError(EXIT_INPUT, f"{unread[0]} does not apply to " + " ".join(
            f"{f} {getattr(ns, _DESTS[f])}" for f in select))
    return named[0]


def _checked(ns: argparse.Namespace) -> argparse.Namespace:
    """The parsed command line with every flag not given set to its
    default, --base, --domain and --grid parsed in place, every value
    checked and the source picked as ns.source (except for list)."""
    # an empty value, such as --F "", counts as not given
    given = {flag for flag in _SUBCOMMANDS[ns.command][2]
             if getattr(ns, _DESTS[flag]) not in (None, "")}
    for flag, kw in _FLAGS.items():
        if getattr(ns, _DESTS[flag], None) is None:
            setattr(ns, _DESTS[flag], kw.get("default"))
    ns.base = _parse_floats(ns.base, 2, "--base") if ns.base else None
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
    if ns.command != "list":
        ns.source = _pick_source(ns, given)
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
    except (ValueError, UnknownSurfaceError) as err:
        # a domain too small for the sampling margins, a base point
        # outside the domain or off the grid, an unknown catalog name:
        # the library names which
        failure = CliError(EXIT_INPUT, str(err))
    sys.stderr.write(f"isomin {ns.command}: {failure}\n")
    return failure.code


if __name__ == "__main__":
    sys.exit(main())
