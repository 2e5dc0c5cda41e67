"""Span tracing of isomin's public functions, installed from outside.

Tracer.install() wraps every public function defined in isomin's
library modules and rebinds the wrapper under each name that refers to
the function in any isomin module (including the CLI and the package
namespace), so calls made through `from .x import f` are seen too.
uninstall() puts every original object back.

Each wrapped call records a span (name, start, end, parent, status) in
memory; status is the exception class name when the call raised.  The
spans are written out with the job's id when the job ends.
Calls that are far too frequent for a span are counted instead:
evaluations of compiled expressions, integrand evaluations, evaluations
of Weierstrass patches and of reconstructed height functions.

A span's self time is its duration minus the union of its children's
intervals.  layer_metrics() turns summed job summaries into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time

PACKAGE = "isomin"
LIBRARY = ("expr", "quadrature", "geometry", "weierstrass", "singularities",
           "reconstruct", "minkowski", "catalog")

# scalar helpers called per vector operation; a span would cost more than
# the call, so their time stays in the caller's self time
LEAF_HELPERS = frozenset(("deg_inner", "deg_norm", "sigma", "default_step",
                          "lorentz_inner", "iota_embed"))

COUNTERS = ("evals", "integrand_evals", "patch_evals", "patch_segments",
            "height_evals", "vertices", "unconverged")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._saved: list = []
        self._compiled: dict = {}
        self._patch_depth = 0

    # installation ------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in LIBRARY + ("cli",)]
        wrappers = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            if layer not in LIBRARY:
                continue
            for name, obj in vars(mod).items():
                if (name.startswith("_") or name in LEAF_HELPERS
                        or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in mods + [pkg]:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            mod, name, obj = self._saved.pop()
            setattr(mod, name, obj)

    # wrappers ----------------------------------------------------------

    def _wrap(self, qual: str, fn):
        pre = getattr(self, "_pre_" + qual.replace(".", "_"), None)
        post = getattr(self, "_post_" + qual.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(fn, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            status = ""
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (qual, t0, t1, parent, status)
            return result if post is None else post(result, args, kwargs)

        return wrapper

    def _counting(self, fn, key: str):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _post_expr_compile_expr(self, run, args, kwargs):
        hit = self._compiled.get(id(run))
        if hit is None or hit[0] is not run:
            hit = (run, self._counting(run, "evals"))
            self._compiled[id(run)] = hit
        return hit[1]

    def _pre_quadrature_adaptive_quad(self, fn, args, kwargs):
        if args:
            args = (self._counting(args[0], "integrand_evals"),) + args[1:]
        else:
            kwargs = dict(kwargs, f=self._counting(kwargs["f"], "integrand_evals"))
        return args, kwargs

    def _pre_quadrature_integrate_segment(self, fn, args, kwargs):
        if self._patch_depth:
            self.counts["patch_segments"] += 1
        return args, kwargs

    def _post_weierstrass_surface_from_data(self, patch, args, kwargs):
        ev, counts = patch.evaluator, self.counts

        def counted(u, v):
            counts["patch_evals"] += 1
            self._patch_depth += 1
            try:
                return ev(u, v)
            finally:
                self._patch_depth -= 1

        return dataclasses.replace(patch, evaluator=counted)

    def _post_reconstruct_surface_from_forms(self, patch, args, kwargs):
        return dataclasses.replace(
            patch, evaluator=self._counting(patch.evaluator, "height_evals"))

    def _pre_weierstrass_grid_eval(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts["vertices"] += bound.arguments["nu"] * bound.arguments["nv"]
        return args, kwargs

    def _post_singularities_find_zeros(self, result, args, kwargs):
        if isinstance(result, tuple):  # with_diagnostics=True
            self.counts["unconverged"] += len(result[1])
        return result

    # output ------------------------------------------------------------

    def summary(self, t_main0: float, t_main1: float) -> dict:
        """Per-function totals and counters of one job."""
        return summarize(self.spans, self.counts, t_main1 - t_main0)

    def write_spans(self, path: str, job_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("job\tid\tparent\tname\tstart\tend\tstatus\n")
            fh.writelines(f"{job_id}\t{i}\t{p}\t{n}\t{a!r}\t{b!r}\t{s}\n"
                          for i, (n, a, b, p, s) in enumerate(self.spans))


def self_times(spans) -> list[float]:
    """Duration minus the union of the children's intervals, per span.

    spans are (name, start, end, parent, status) with parent = -1 for a
    root and parents listed before their children.
    """
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)
    order = sorted(range(len(spans)), key=lambda i: spans[i][1])
    for i in order:
        _, a, b, p, _ = spans[i]
        if p < 0:
            continue
        lo = max(a, reach[p])
        if b > lo:
            covered[p] += b - lo
        reach[p] = max(reach[p], b)
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def summarize(spans, counts, main_s: float) -> dict:
    own = self_times(spans)
    fns: dict[str, dict] = {}
    roots = []
    line_quads = quad_errors = 0
    for i, (name, a, b, p, status) in enumerate(spans):
        pname = spans[p][0] if p >= 0 else ""
        rec = fns.setdefault(name, {"calls": 0, "outer_calls": 0, "incl_s": 0.0,
                                    "self_s": 0.0, "errors": {}})
        rec["calls"] += 1
        rec["self_s"] += own[i]
        if pname != name:  # outermost of a direct recursion
            rec["outer_calls"] += 1
            rec["incl_s"] += b - a
        if status:
            rec["errors"][status] = rec["errors"].get(status, 0) + 1
        if p < 0:
            roots.append((a, b))
        if name == "quadrature.adaptive_quad" and pname != "quadrature.integrate_segment":
            line_quads += 1
        if (status == "IntegrationError" and name.startswith("quadrature.")
                and not pname.startswith("quadrature.")):
            quad_errors += 1
    lib_s, reach = 0.0, float("-inf")
    for a, b in sorted(roots):
        lo = max(a, reach)
        if b > lo:
            lib_s += b - lo
        reach = max(reach, b)
    return {"fn": fns, "counts": dict(counts), "main_s": main_s, "lib_s": lib_s,
            "line_quads": line_quads, "quad_errors": quad_errors}


def merge(total: dict | None, part: dict) -> dict:
    """Sum two summaries (or their nested numbers)."""
    if total is None:
        return part
    out = dict(total)
    for key, val in part.items():
        if isinstance(val, dict):
            out[key] = merge(total.get(key, {}), val) if key in total else val
        else:
            out[key] = total.get(key, 0) + val
    return out


# per-layer metrics ------------------------------------------------------

PER_LAYER = (
    ("expr.compile_calls", "count"), ("expr.compile_s", "s"),
    ("expr.evals", "count"), ("expr.differentiate_calls", "count"),
    ("quadrature.segments", "count"), ("quadrature.line_quads", "count"),
    ("quadrature.integrand_evals", "count"), ("quadrature.panels_per_quad", "ratio"),
    ("quadrature.self_s", "s"), ("quadrature.errors", "count"),
    ("weierstrass.grid_eval_s", "s"), ("weierstrass.vertices", "count"),
    ("weierstrass.patch_evals", "count"), ("weierstrass.cache_hit_ratio", "ratio"),
    ("weierstrass.closed_form_s", "s"),
    ("geometry.forms_calls", "count"), ("geometry.forms_self_s", "s"),
    ("geometry.degenerate", "count"),
    ("singularities.find_zeros_s", "s"), ("singularities.multiplicity_s", "s"),
    ("singularities.rank_check_s", "s"), ("singularities.unconverged", "count"),
    ("reconstruct.codazzi_s", "s"), ("reconstruct.build_s", "s"),
    ("reconstruct.height_evals", "count"),
    ("minkowski.flat_zmc_s", "s"), ("minkowski.locus_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
)


def layer_metrics(s: dict, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics from the summed summaries of one pass."""
    fn, counts = s.get("fn", {}), s.get("counts", {})

    def get(name, key):
        return fn.get(name, {}).get(key, {} if key == "errors" else 0)

    segments = get("quadrature.integrate_segment", "calls")
    quads = segments + s.get("line_quads", 0)
    patch_evals = counts.get("patch_evals", 0)
    return {
        "expr.compile_calls": get("expr.compile_expr", "calls"),
        "expr.compile_s": get("expr.compile_expr", "incl_s"),
        "expr.evals": counts.get("evals", 0),
        "expr.differentiate_calls": get("expr.differentiate", "outer_calls"),
        "quadrature.segments": segments,
        "quadrature.line_quads": s.get("line_quads", 0),
        "quadrature.integrand_evals": counts.get("integrand_evals", 0),
        "quadrature.panels_per_quad":
            counts.get("integrand_evals", 0) / 16.0 / quads if quads else 0.0,
        "quadrature.self_s": sum(rec["self_s"] for name, rec in fn.items()
                                 if name.startswith("quadrature.")),
        "quadrature.errors": s.get("quad_errors", 0),
        "weierstrass.grid_eval_s": get("weierstrass.grid_eval", "incl_s"),
        "weierstrass.vertices": counts.get("vertices", 0),
        "weierstrass.patch_evals": patch_evals,
        "weierstrass.cache_hit_ratio":
            1.0 - counts.get("patch_segments", 0) / (2.0 * patch_evals)
            if patch_evals else 0.0,
        "weierstrass.closed_form_s": sum(
            get(f"weierstrass.{n}", "incl_s")
            for n in ("second_form_from_data", "metric_at", "det_h_from_data")),
        "geometry.forms_calls": get("geometry.fundamental_forms", "calls"),
        "geometry.forms_self_s": get("geometry.fundamental_forms", "self_s")
        + get("geometry.patch_jets", "self_s"),
        "geometry.degenerate":
            get("geometry.fundamental_forms", "errors").get("DegenerateMetricError", 0),
        "singularities.find_zeros_s": get("singularities.find_zeros", "incl_s"),
        "singularities.multiplicity_s": get("singularities.zero_multiplicity", "incl_s"),
        "singularities.rank_check_s": get("singularities.jacobian_rank_at", "incl_s"),
        "singularities.unconverged": counts.get("unconverged", 0),
        "reconstruct.codazzi_s": get("reconstruct.codazzi_check", "incl_s"),
        "reconstruct.build_s": get("reconstruct.surface_from_forms", "incl_s"),
        "reconstruct.height_evals": counts.get("height_evals", 0),
        "minkowski.flat_zmc_s": get("minkowski.verify_flat_zmc", "incl_s"),
        "minkowski.locus_s": get("minkowski.vanishing_h_locus", "incl_s"),
        "cli.self_s": s.get("main_s", 0.0) - s.get("lib_s", 0.0),
        "cli.bytes_out": bytes_out,
    }
