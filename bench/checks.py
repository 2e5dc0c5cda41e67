"""Output checkers: each compares one job's output with reference.py.

A checker takes the job, its stdout and a mapping of the files it wrote
(name -> bytes) and raises CheckError on the first mismatch.  No isomin
code is imported.  Tolerances follow the acceptance criteria they are
named after.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref


class CheckError(Exception):
    """The output misses its independent reference."""


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not (abs(got - want) <= tol * max(1.0, abs(want))):
        raise CheckError(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def _floats(text: str, what: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise CheckError(f"{what}: unparsable row {text!r}") from None


def _json(data: bytes, what: str) -> dict:
    try:
        return json.loads(data)
    except ValueError as err:
        raise CheckError(f"{what}: not JSON ({err})") from None


# gen: vertices against closed-form antiderivatives (criterion 01) -------

def check_gen(job, stdout: bytes, files) -> None:
    c = job["check"]
    nu, nv = c["grid"]
    u0, u1, v0, v1 = c["domain"]
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    text = stdout.decode()
    if c["fmt"] == "json":
        doc = _json(stdout, "gen json")
        if doc.get("grid") != [nu, nv] or doc.get("command") != "gen":
            raise CheckError(f"gen json header {doc.get('grid')}")
        verts = doc["vertices"]
    elif c["fmt"] == "csv":
        lines = text.splitlines()
        if lines[0] != "u,v,x,y,z":
            raise CheckError(f"gen csv header {lines[0]!r}")
        rows = [_floats(line, "gen csv") for line in lines[1:]]
        verts = [r[2:] for r in rows]
        for k, r in enumerate(rows[:nu * nv]):
            _close(r[0], us[k % nu], 1e-12, "csv u")
            _close(r[1], vs[k // nu], 1e-12, "csv v")
    else:
        lines = text.splitlines()
        verts = [_floats(line[2:].replace(" ", ","), "obj vertex")
                 for line in lines if line.startswith("v ")]
        faces = [line for line in lines if line.startswith("f ")]
        want = []
        for j in range(nv - 1):
            for i in range(nu - 1):
                a, b = j * nu + i + 1, j * nu + i + 2
                cc, d = b + nu, a + nu
                want += [f"f {a} {b} {cc}", f"f {a} {cc} {d}"]
        if faces != want or len(lines) != len(verts) + len(faces):
            raise CheckError("obj face list differs from the grid topology")
    if len(verts) != nu * nv:
        raise CheckError(f"gen wrote {len(verts)} vertices, want {nu * nv}")
    for k, got in enumerate(verts):
        w = complex(us[k % nu], vs[k // nu])
        want = ref.weier_vertex(c["F"], c["G"], c["theta"], c["base"], w)
        for g, e, axis in zip(got, want, "xyz"):
            _close(g, e, 1e-8, f"vertex {axis} at {w}")


# analyze: verdict, classes and K (criterion 06) -------------------------

def _analyze_reference(c):
    if "graph" in c:
        return (lambda u, v: ref.graph_forms(c["graph"], u, v)), c["domain"]
    if "catalog" in c:
        dom, _, forms = ref.CATALOG[c["catalog"]]
        return forms, dom
    return (lambda u, v: ref.weier_forms(c["F"], c["G"], complex(u, v))), c["domain"]


def check_analyze(job, stdout: bytes, files) -> None:
    c = job["check"]
    forms, dom = _analyze_reference(c)
    want = ref.analyze_summary(forms, dom, c["grid"])
    got = _json(stdout, "analyze summary")
    nu, nv = c["grid"]
    if got.get("samples") != nu * nv or got.get("degenerate_samples") != 0:
        raise CheckError(f"analyze samples {got.get('samples')}, "
                         f"degenerate {got.get('degenerate_samples')}")
    if got.get("verdict") != want["verdict"]:
        raise CheckError(f"analyze verdict {got.get('verdict')!r}, want {want['verdict']!r}")
    if got.get("class_counts") != dict(sorted(want["counts"].items())):
        raise CheckError(f"analyze classes {got.get('class_counts')}, want {want['counts']}")
    _close(got["k_min"], want["k_min"], 1e-6, "k_min")
    _close(got["k_max"], want["k_max"], 1e-6, "k_max")
    _close(got["max_abs_mean_curvature"], want["max_h"], 1e-6, "max |H|")
    if "forms_csv" in c:
        _check_forms_csv(files[c["forms_csv"]], forms, dom, c["grid"])


def _check_forms_csv(data: bytes, forms, dom, grid) -> None:
    lines = data.decode().splitlines()
    if lines[0] != "u,v,g11,g12,g22,h11,h12,h22,H,K,class":
        raise CheckError(f"forms csv header {lines[0]!r}")
    us = ref.inset_axis(dom[0], dom[1], grid[0])
    vs = ref.inset_axis(dom[2], dom[3], grid[1])
    nodes = [(u, v) for v in vs for u in us]
    if len(lines) - 1 != len(nodes):
        raise CheckError(f"forms csv has {len(lines) - 1} rows, want {len(nodes)}")
    for line, (u, v) in zip(lines[1:], nodes):
        *vals, cls = line.split(",")
        row = _floats(",".join(vals), "forms csv")
        want = forms(u, v)
        _close(row[0], u, 1e-12, "forms csv u")
        _close(row[1], v, 1e-12, "forms csv v")
        for got, exp, name in zip(row[2:8], want, ("g11", "g12", "g22", "h11", "h12", "h22")):
            _close(got, exp, 1e-6, f"forms csv {name} at ({u}, {v})")
        det_h = want[3] * want[5] - want[4] ** 2
        if cls != ref.classify(det_h):
            raise CheckError(f"forms csv class {cls!r} at ({u}, {v})")


# singular: every zero within 1e-8, exact multiplicity (criterion 07) ----

def check_singular(job, stdout: bytes, files) -> None:
    want = job["check"]["points"]
    got = _json(stdout, "singular report")["points"]
    if len(got) != len(want):
        raise CheckError(f"singular found {len(got)} points, want {len(want)}")
    for exp in want:
        near = [p for p in got
                if abs(complex(*p["w"]) - exp["w"]) <= 1e-8 * max(1.0, abs(exp["w"]))]
        if len(near) != 1:
            raise CheckError(f"zero {exp['w']} matched {len(near)} reported points")
        p = near[0]
        for key in ("multiplicity", "rank", "g_vanishes"):
            if p[key] != exp[key]:
                raise CheckError(f"zero {exp['w']}: {key} {p[key]!r}, want {exp[key]!r}")
        if p["refined"] is not True:
            raise CheckError(f"zero {exp['w']} not refined")


# reconstruct: the seeded polynomial within 1e-5 (criterion 08) ---------

def check_reconstruct(job, stdout: bytes, files) -> None:
    c = job["check"]
    head = stdout.decode().splitlines()
    if len(head) != 2 or head[1] != "verdict: compatible":
        raise CheckError(f"reconstruct verdict lines {head!r}")
    poly, (bu, bv) = c["poly"], c["base"]
    p0 = ref.pvalue(poly, bu, bv)
    pu = ref.pvalue(ref.pderiv(poly, 1, 0), bu, bv)
    pv = ref.pvalue(ref.pderiv(poly, 0, 1), bu, bv)
    puuu = ref.pvalue(ref.pderiv(poly, 3, 0), 0.0, 0.0)
    pvvv = ref.pvalue(ref.pderiv(poly, 0, 3), 0.0, 0.0)
    axis = c["lattice"]
    step = (axis[-1] - axis[0]) / (len(axis) - 1)
    lines = files[c["file"]].decode().splitlines()
    if lines[0] != "u,v,F" or len(lines) - 1 != len(axis) ** 2:
        raise CheckError(f"reconstruct csv: header {lines[0]!r}, {len(lines) - 1} rows")
    for k, line in enumerate(lines[1:]):
        u, v, f = _floats(line, "reconstruct csv")
        eu, ev = axis[k % len(axis)], axis[k // len(axis)]
        if abs(u - eu) > 1e-9 or abs(v - ev) > 1e-9:
            raise CheckError(f"reconstruct node ({u}, {v}), want ({eu}, {ev})")
        want = ref.pvalue(poly, eu, ev) - p0 - pu * (eu - bu) - pv * (ev - bv)
        if c["trapezoid"]:
            # sampled cubic data: the trapezoid rule integrates the linear
            # Hessian exactly and the quadratic gradient with the exact
            # remainder (step^2 / 12) * (end - start) * third derivative
            want += step * step / 12.0 * ((eu - bu) * puuu + (ev - bv) * pvvv)
        if abs(f - want) > 1e-5:
            raise CheckError(f"reconstruct F({eu}, {ev}) = {f!r}, want {want!r} "
                             f"(tol 1e-5)")


# embed: verdict and e_locus (criterion 09) ------------------------------

def _embed_reference(c):
    if "graph" in c:
        forms = lambda u, v: ref.graph_forms(c["graph"], u, v)  # noqa: E731
        return forms, c["domain"], ref.is_harmonic(c["graph"])
    if "catalog" in c:
        dom, minimal, forms = ref.CATALOG[c["catalog"]]
        return forms, dom, minimal
    if "F" in c:
        def forms(u, v):
            return ref.weier_forms(c["F"], c["G"], complex(u, v), c["theta"])

        # every member of the associated family is d-minimal
        return forms, c["domain"], True
    return None, None, c["verdict"] == "pass"


def check_embed(job, stdout: bytes, files) -> None:
    c = job["check"]
    got = _json(stdout, "embed report")
    forms, dom, passes = _embed_reference(c)
    want = "pass" if passes else "fail"
    if got.get("verdict") != want:
        raise CheckError(f"embed verdict {got.get('verdict')!r}, want {want!r}")
    if got.get("samples") != c["grid"][0] * c["grid"][1]:
        raise CheckError(f"embed samples {got.get('samples')}")
    if forms is None:
        if "e_locus" in got:
            raise CheckError("embed reported e_locus for an explicit chart")
        return
    if "e_locus" not in got:
        raise CheckError("embed did not report e_locus")
    hn, us, vs = ref.hnorm_grid(forms, dom)
    expect, _ = ref.locus(hn, us, vs)
    loci = got["e_locus"]
    if len(loci) != len(expect):
        raise CheckError(f"e_locus has {len(loci)} clusters, want {len(expect)}")
    for g, e in zip(loci, expect):
        if math.dist(g["point"], e["point"]) > 1e-8 \
                or g["node_count"] != e["node_count"] or g["isolated"] != e["isolated"]:
            raise CheckError(f"e_locus cluster {g}, want {e}")


CHECKERS = {
    "gen": check_gen,
    "analyze": check_analyze,
    "singular": check_singular,
    "reconstruct": check_reconstruct,
    "embed": check_embed,
}


def check(job, stdout: bytes, files) -> None:
    """Raise CheckError unless the job's output matches its reference."""
    CHECKERS[job["check"]["kind"]](job, stdout, files)
