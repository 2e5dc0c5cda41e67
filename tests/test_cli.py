"""End-to-end exercises of the command line front end.

Everything runs main() in-process for speed; subprocess tests check the
module entry point and the installed console script. Output files go to
tmp_path.
"""

import argparse
import ast
import cmath
import contextlib
import importlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from isomin import catalog, cli, geometry, minkowski, weierstrass
from isomin.cli import main
from isomin.expr import (BinOp, compile_expr, compile_real, differentiate,
                         parse_expr, parse_real_expr)


def run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_obj(text):
    verts, faces = [], []
    for line in text.splitlines():
        if line.startswith("v "):
            verts.append(tuple(float(p) for p in line.split()[1:]))
        elif line.startswith("f "):
            faces.append(tuple(int(p) for p in line.split()[1:]))
    return verts, faces


def write_zero_forms(path):
    """A --forms-csv node table of the zero form on a 3x3 lattice."""
    path.write_text("u,v,h11,h12,h22\n" + "".join(
        f"{u},{v},0,0,0\n" for u in (0, 1, 2) for v in (0, 1, 2)))
    return path


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestGen:
    def test_obj_mesh_counts_and_indices(self, capsys, tmp_path):
        out = tmp_path / "mesh.obj"
        rc = main(["gen", "--F", "z", "--G", "1", "--grid", "8,8",
                   "--out", str(out)])
        assert rc == 0
        verts, faces = parse_obj(out.read_text())
        assert len(verts) == 64
        assert len(faces) == 2 * 7 * 7
        for face in faces:
            assert len(face) == 3
            assert all(1 <= ix <= 64 for ix in face)
        # first cell winds counter-clockwise in (u, v)
        assert faces[0] == (1, 2, 10)
        assert faces[1] == (1, 10, 9)

    def test_vertices_match_closed_form(self, capsys, tmp_path):
        out = tmp_path / "mesh.obj"
        rc = main(["gen", "--F", "z", "--G", "1", "--grid", "5,5",
                   "--out", str(out)])
        assert rc == 0
        verts, _ = parse_obj(out.read_text())
        k = 0
        for j in range(5):
            v = -1.0 + 0.5 * j
            for i in range(5):
                u = -1.0 + 0.5 * i
                x, y, z = verts[k]
                assert abs(x - 0.5 * (u * u - v * v)) < 1e-9
                assert abs(y - u * v) < 1e-9
                assert abs(z - u) < 1e-9
                k += 1
        # the (1,1) corner in particular
        assert max(abs(a - b) for a, b in zip(verts[-1], (0.0, 1.0, 1.0))) < 1e-9

    def test_quarter_turn_mesh(self, capsys, tmp_path):
        out = tmp_path / "mesh.obj"
        rc = main(["gen", "--F", "exp(z)", "--G", "1",
                   "--theta", "1.5707963", "--grid", "4,4",
                   "--out", str(out)])
        assert rc == 0
        verts, _ = parse_obj(out.read_text())
        assert len(verts) == 16

    def test_parse_error_exits_2_with_offset(self, capsys):
        rc, _, err = run(capsys, ["gen", "--F", "z+", "--G", "1"])
        assert rc == 2
        assert "offset" in err

    def test_pole_on_path_exits_3(self, capsys):
        rc, _, err = run(capsys, ["gen", "--F", "1/z", "--G", "1",
                                  "--grid", "3,3"])
        assert rc == 3
        assert "integration" in err

    def test_base_outside_domain_exits_2(self, capsys):
        rc, _, err = run(capsys, ["gen", "--F", "z", "--G", "1",
                                  "--base", "5,5"])
        assert rc == 2

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "mesh.csv"
        rc = main(["gen", "--F", "z", "--G", "1", "--grid", "5,5",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["u", "v", "x", "y", "z"]
        assert len(rows) == 25

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "mesh.json"
        rc = main(["gen", "--F", "z", "--G", "1", "--grid", "4,6",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["grid"] == [4, 6]
        assert len(payload["vertices"]) == 24

    @pytest.mark.parametrize("F", ["exp(15*z)", "exp(z^2+15*z)"])
    def test_large_modulus_data_integrates(self, capsys, F):
        # |F| reaches e^15 and e^16 on the domain, so every segment's
        # value lies far above the absolute tolerance
        rc, out, err = run(capsys, ["gen", "--F", F, "--G", "1",
                                    "--grid", "4,4"])
        assert (rc, err) == (0, "")
        verts, _ = parse_obj(out)
        lattice = [complex(-1 + 2 * i / 3, -1 + 2 * j / 3)
                   for j in range(4) for i in range(4)]
        with mpmath.workdps(30):
            for (x, y, z), w in zip(verts, lattice, strict=True):
                if F == "exp(15*z)":
                    ref = (cmath.exp(15 * w) - 1) / 15
                else:
                    ref = complex(w * mpmath.quad(
                        lambda t: mpmath.exp((t * w) ** 2 + 15 * t * w),
                        [0, 1]))
                assert abs(complex(x, y) - ref) <= 1e-8 * max(1, abs(ref))
                assert abs(z - w.real) <= 1e-8

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        args = ["gen", "--F", "exp(z)", "--G", "z", "--grid", "6,6"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestAnalyze:
    def test_catalog_helicoid(self, capsys):
        rc, out, _ = run(capsys, ["analyze", "--catalog", "helicoid2",
                                  "--grid", "9,9"])
        assert rc == 0
        s = json.loads(out)
        assert s["schema"] == 1
        assert s["verdict"] == "d-minimal"
        assert s["k_max"] < 0
        # parameter lines are not flat coordinates here
        assert s["codazzi_residual_max"] is None

    def test_graph_saddle_is_minimal(self, capsys):
        rc, out, _ = run(capsys, ["analyze", "--graph", "u*v",
                                  "--grid", "9,9"])
        assert rc == 0
        s = json.loads(out)
        assert s["verdict"] == "d-minimal"
        assert s["class_counts"] == {"hyperbolic": 81}
        assert s["codazzi_residual_max"] < 1e-3

    def test_graph_paraboloid_elliptic_everywhere(self, capsys):
        rc, out, _ = run(capsys, ["analyze", "--graph", "u^2+v^2",
                                  "--grid", "9,9"])
        assert rc == 0
        s = json.loads(out)
        assert s["verdict"] == "not d-minimal"
        assert s["class_counts"] == {"elliptic": 81}
        assert abs(s["max_abs_mean_curvature"] - 2.0) < 1e-6

    def test_weierstrass_source_flags_center(self, capsys):
        rc, out, _ = run(capsys, ["analyze", "--F", "z", "--G", "1",
                                  "--grid", "9,9"])
        assert rc == 0
        s = json.loads(out)
        assert s["degenerate_samples"] == 1
        assert s["verdict"] == "d-minimal"
        assert s["codazzi_residual_max"] < 1e-3

    def test_degenerate_budget_exits_4(self, capsys):
        rc, _, err = run(capsys, ["analyze", "--F", "z", "--G", "1",
                                  "--domain", "-1e-7,1e-7,-1e-7,1e-7",
                                  "--grid", "9,9"])
        assert rc == 4
        assert "budget" in err

    def test_csv_grid_written(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["analyze", "--F", "z", "--G", "1", "--grid", "9,9",
                   "--out", str(out)])
        assert rc == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["u", "v", "g11", "g12", "g22",
                          "h11", "h12", "h22", "H", "K", "class"]
        assert len(rows) == 81
        flagged = [r for r in rows if r[10] == "degenerate"]
        assert len(flagged) == 1
        assert flagged[0][8] == "nan"

    def test_helicoid_centre_node_is_exactly_zero(self, capsys, tmp_path):
        # the inset lattice is np.linspace between exact ends, which
        # puts the middle of the symmetric u axis (-pi, pi) on 0
        out = tmp_path / "grid.csv"
        rc = main(["analyze", "--catalog", "helicoid2", "--grid", "7,7",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        _, rows = parse_csv(out.read_text())
        assert rows[3][0] == "0.000000000000e+00"

    def test_obj_format_rejected(self, capsys):
        rc, _, err = run(capsys, ["analyze", "--graph", "u*v",
                                  "--format", "obj"])
        assert rc == 2

    def test_two_sources_rejected(self, capsys):
        rc, _, err = run(capsys, ["analyze", "--graph", "u*v",
                                  "--catalog", "plane"])
        assert rc == 2

    def test_unknown_catalog_name_exits_2(self, capsys):
        rc, _, err = run(capsys, ["analyze", "--catalog", "helicoid3"])
        assert rc == 2
        known = ", ".join(catalog.names())
        assert err == (f"isomin analyze: no surface named 'helicoid3'; "
                       f"known: {known}\n")


def _sweep(forms_at, u: float, v: float, step: float = 1e-3):
    """(residual, scale) of the flat-coordinate Codazzi identity
    (h11)_v = (h12)_u, (h12)_v = (h22)_u from central differences of h at
    +-step around (u, v): the residual |(h11)_v - (h12)_u| +
    |(h12)_v - (h22)_u|, and the largest |h| the four samples read.
    analyze printed the residual as codazzi_residual_max before that
    became exact; kept as a test oracle."""
    samples = [forms_at(u + du, v + dv) for du, dv in
               ((-step, 0.0), (step, 0.0), (0.0, -step), (0.0, step))]
    left, right, down, up = ((f.h11, f.h12, f.h22) for f in samples)
    d_u = [(r - l) / (2 * step) for l, r in zip(left, right)]
    d_v = [(t - b) / (2 * step) for b, t in zip(down, up)]
    return (abs(d_v[0] - d_u[1]) + abs(d_v[1] - d_u[2]),
            max(abs(x) for x in left + right + down + up))


def _graph_third(height: str):
    """(u, v) -> |(h11)_vvv| + |(h12)_uuu| + |(h12)_vvv| + |(h22)_uuu| for
    the graph of height, whose h is its Hessian: the partials that bound
    the truncation of the four central differences of _sweep."""
    def d(tree, names):
        for name in names:
            tree = differentiate(tree, name)
        return tree

    tree = parse_real_expr(height)
    fns = [compile_real(d(tree, names))
           for names in ("uuvvv", "uvuuu", "uvvvv", "vvuuu")]
    return lambda u, v: sum(abs(fn(u, v)) for fn in fns)


def _weierstrass_third(g_src: str, p_src: str):
    """(u, v) -> 4 |Phi'''(u + iv)| for F = c exp(p) and G, where
    Phi = G' - G F'/F = G' - G p' is h11 - i h12: each third partial
    _graph_third sums is the real or the imaginary part of Phi''', up to
    sign."""
    g = parse_expr(g_src)
    phi = BinOp("-", differentiate(g),
                BinOp("*", g, differentiate(parse_expr(p_src))))
    fn = compile_expr(differentiate(differentiate(differentiate(phi))))
    return lambda u, v: 4.0 * abs(fn(complex(u, v)))


def _printed_forms_satisfy_the_sweep(tmp_path, monkeypatch, args, third):
    """Run analyze with --out and check every node it printed: the
    sampler analyze read reprints its h there, and the _sweep residual is
    within its truncation, step^2/6 times the largest third partial sum
    over the five stencil points, plus the rounding of the differences."""
    samplers = []
    made = cli._forms_sampler
    monkeypatch.setattr(cli, "_forms_sampler",
                        lambda *a: samplers.append(made(*a)) or samplers[-1])
    out = tmp_path / "forms.csv"
    assert main(args + ["--out", str(out)]) == 0
    _, rows = parse_csv(out.read_text())
    forms_at = samplers[-1]
    step = 1e-3
    for row in rows:
        u, v = float(row[0]), float(row[1])
        assert [cli._fmt(x) for x in forms_at(u, v)[3:]] == row[5:8]
        resid, scale = _sweep(forms_at, u, v, step)
        sup = max(third(u + du, v + dv) for du, dv in
                  ((0, 0), (-step, 0), (step, 0), (0, -step), (0, step)))
        bound = (1.01 * step ** 2 / 6 * sup
                 + 64 * sys.float_info.epsilon * max(1.0, scale) / step)
        if not resid <= bound:
            return False
    return True


_COEF = st.floats(-1.5, 1.5).map(lambda x: round(x, 3))
_HEIGHT = st.lists(st.one_of(
    st.builds(lambda c, i, j: f"{c!r}*u^{i}*v^{j}", _COEF,
              st.integers(0, 4), st.integers(0, 4)),
    st.builds(lambda c, k, a, b: f"{c!r}*{k}({a!r}*u+{b!r}*v)", _COEF,
              st.sampled_from(["sin", "cos", "exp"]), _COEF, _COEF)),
    min_size=1, max_size=4).map("+".join)
_PARTS = st.tuples(_COEF, _COEF)
_Z_COEF = _PARTS.map(lambda ab: f"({ab[0]!r}+{ab[1]!r}*i)")
_NONZERO = _PARTS.filter(any).map(lambda ab: f"({ab[0]!r}+{ab[1]!r}*i)")
_EXPONENT = st.builds(lambda a, b: f"{a}*z+{b}*z^2", _Z_COEF, _Z_COEF)
_POLY_G = st.lists(_Z_COEF, min_size=1, max_size=4).map(
    lambda cs: "+".join(f"{c}*z^{k}" for k, c in enumerate(cs)))


class TestCodazziOracle:
    """analyze prints codazzi_residual_max = 0.0 for flat sources, where
    the identity holds exactly; the finite-difference sweep it replaced
    checks, within its truncation, that the forms analyze prints obey
    it, and that a wrong form does not."""

    @settings(max_examples=15, deadline=None)
    @given(height=_HEIGHT)
    def test_graph_forms(self, tmp_path_factory, height):
        with pytest.MonkeyPatch.context() as mp:
            assert _printed_forms_satisfy_the_sweep(
                tmp_path_factory.mktemp("graph"), mp,
                ["analyze", "--graph", height, "--grid", "5,5"],
                _graph_third(height))

    @settings(max_examples=15, deadline=None)
    @given(c=_NONZERO, p_src=_EXPONENT, g_src=_POLY_G)
    def test_weierstrass_forms(self, tmp_path_factory, c, p_src, g_src):
        # F = c exp(p) has no zeros
        with pytest.MonkeyPatch.context() as mp:
            assert _printed_forms_satisfy_the_sweep(
                tmp_path_factory.mktemp("weierstrass"), mp,
                ["analyze", "--F", f"{c}*exp({p_src})", "--G", g_src,
                 "--grid", "5,5"],
                _weierstrass_third(g_src, p_src))

    @pytest.mark.parametrize("args, third, patched", [
        (["analyze", "--graph", "u^3*v+sin(u-v)", "--grid", "5,5"],
         _graph_third("u^3*v+sin(u-v)"), "fundamental_forms"),
        (["analyze", "--F", "exp(0.5*z)", "--G", "z^2+i*z", "--grid", "5,5"],
         _weierstrass_third("z^2+i*z", "0.5*z"),
         "second_form_from_data"),
    ], ids=["graph", "weierstrass"])
    def test_a_wrong_form_fails_the_sweep(self, tmp_path, monkeypatch, args,
                                          third, patched):
        assert _printed_forms_satisfy_the_sweep(tmp_path, monkeypatch, args,
                                                third)
        right = getattr(cli, patched)

        def flipped(*a):
            forms = right(*a)
            return forms._replace(h12=-forms.h12)

        monkeypatch.setattr(cli, patched, flipped)
        assert not _printed_forms_satisfy_the_sweep(tmp_path, monkeypatch,
                                                    args, third)


class TestSingular:
    def test_triple_zero(self, capsys):
        rc, out, _ = run(capsys, ["singular", "--F", "z^3", "--G", "1"])
        assert rc == 0
        pts = json.loads(out)["points"]
        assert len(pts) == 1
        assert pts[0]["multiplicity"] == 3
        assert pts[0]["rank"] == 1
        assert abs(pts[0]["w"][0]) < 1e-7 and abs(pts[0]["w"][1]) < 1e-7

    def test_rank_zero_point(self, capsys):
        rc, out, _ = run(capsys, ["singular", "--F", "z", "--G", "z^2"])
        assert rc == 0
        pts = json.loads(out)["points"]
        assert len(pts) == 1
        assert pts[0]["multiplicity"] == 1
        assert pts[0]["rank"] == 0
        assert pts[0]["g_vanishes"] is True

    def test_nowhere_singular(self, capsys):
        rc, out, _ = run(capsys, ["singular", "--F", "exp(z)", "--G", "1"])
        assert rc == 0
        assert json.loads(out)["points"] == []

    def test_rank_the_cross_check_disputes_exits_4(self, capsys):
        # G's zero 1e-7 away is not F's, so the printed rank would be 1,
        # but the Jacobian's one nonzero singular value, |G| = 1e-7, is
        # under jacobian_rank_at's cut of 1e-6
        rc, out, err = run(capsys, ["singular", "--F", "z", "--G", "z-1e-7"])
        assert rc == 4
        assert out == ""
        assert err.startswith("isomin singular: singular analysis failed: "
                              "rank at 0j: 1 from the zeros of G")
        assert "vs 0 from jacobian_rank_at" in err

    @pytest.mark.parametrize("grid", ["2,2", "2,9", "9,2"])
    def test_grid_without_interior_node_exits_2(self, capsys, grid):
        # F vanishes at the origin, but a scan grid with two nodes on an
        # axis has no interior node to start Newton from
        rc, out, err = run(capsys, ["singular", "--F", "z", "--G", "1",
                                    "--grid", grid])
        assert (rc, out) == (2, "")
        assert err.startswith("isomin singular: find_zeros needs at least "
                              "3 nodes per axis")

    @pytest.mark.parametrize("g_src", ["z-2e-6", "z-1e-5"])
    def test_g_small_but_not_zero_is_rank_one(self, capsys, g_src):
        # |G| at F's zero is above the singular-value cut of 1e-6, so
        # both rank rules read 1
        rc, out, err = run(capsys, ["singular", "--F", "z", "--G", g_src])
        assert (rc, err) == (0, "")
        (pt,) = json.loads(out)["points"]
        assert (pt["rank"], pt["g_vanishes"]) == (1, False)


@pytest.mark.parametrize("command", ["analyze", "singular", "embed"])
def test_weierstrass_data_off_the_origin(capsys, command):
    # the data is anchored at the domain centre, so a domain without 0
    # needs no base point
    rc, out, err = run(capsys, [command, "--F", "z", "--G", "1",
                                "--domain", "1,2,1,2", "--grid", "5,5"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["command"] == command


def test_gen_off_the_origin_anchors_at_the_centre(capsys):
    rc, out, err = run(capsys, ["gen", "--F", "z", "--G", "1",
                                "--domain", "1,2,1,2", "--grid", "3,3"])
    assert (rc, err) == (0, "")
    verts, _ = parse_obj(out)
    assert max(map(abs, verts[4])) <= 1e-12  # the vertex at (1.5, 1.5)


class TestReconstruct:
    def test_saddle_graph(self, capsys, tmp_path):
        out = tmp_path / "graph.csv"
        rc = main(["reconstruct", "--h11", "1", "--h12", "0", "--h22", "-1",
                   "--grid", "5,5", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[0].startswith("codazzi_residual_max:")
        assert lines[1] == "verdict: compatible"
        _, rows = parse_csv(out.read_text())
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        for (u, v), want in [
            (("5.000000000000e-01", "0.000000000000e+00"), 0.125),
            (("0.000000000000e+00", "1.000000000000e+00"), -0.5),
            (("1.000000000000e+00", "-1.000000000000e+00"), 0.0),
        ]:
            assert abs(table[(u, v)] - want) < 1e-9

    def test_umbilical_pair(self, capsys, tmp_path):
        out = tmp_path / "graph.csv"
        rc = main(["reconstruct", "--h11", "2", "--h12", "0", "--h22", "2",
                   "--grid", "5,5", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        _, rows = parse_csv(out.read_text())
        for r in rows:
            u, v, f = float(r[0]), float(r[1]), float(r[2])
            assert abs(f - (u * u + v * v)) < 1e-9

    def test_incompatible_exits_5_without_file(self, capsys, tmp_path):
        out = tmp_path / "nope.csv"
        rc = main(["reconstruct", "--h11", "v", "--h12", "0", "--h22", "0",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 5
        assert not out.exists()
        assert "verdict: incompatible" in captured.out

    def test_residual_missed_by_the_lattice_is_printed(self, capsys):
        # d(h22)/du = 2*pi*sin(2*pi*u) vanishes on every node of the 5x5
        # lattice; surface_from_forms' own check finds it between them
        rc, out, _ = run(capsys, ["reconstruct", "--h11", "0", "--h12", "0",
                                  "--h22", "1-cos(2*pi*u)", "--grid", "5,5"])
        assert rc == 5
        first, verdict = out.splitlines()
        assert float(first.split(": ")[1]) > 1e-8
        assert verdict == "verdict: incompatible"

    def test_obj_output(self, capsys, tmp_path):
        out = tmp_path / "graph.obj"
        rc = main(["reconstruct", "--h11", "0", "--h12", "1", "--h22", "0",
                   "--grid", "4,4", "--format", "obj", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        verts, faces = parse_obj(out.read_text())
        assert len(verts) == 16
        assert len(faces) == 18
        for x, y, z in verts:
            assert abs(z - x * y) < 1e-9

    def test_off_center_base(self, capsys, tmp_path):
        out = tmp_path / "graph.csv"
        rc = main(["reconstruct", "--h11", "1", "--h12", "0", "--h22", "-1",
                   "--grid", "5,5", "--base", "-1,-1", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        _, rows = parse_csv(out.read_text())
        for r in rows:
            u, v, f = float(r[0]), float(r[1]), float(r[2])
            want = 0.5 * ((u + 1.0) ** 2 - (v + 1.0) ** 2)
            assert abs(f - want) < 1e-9

    @staticmethod
    def write_forms(path, fn11, fn12, fn22, n=5):
        nodes = [-1.0 + 0.5 * k for k in range(n)]
        rows = [(u, v, fn11(u, v), fn12(u, v), fn22(u, v))
                for u in nodes for v in nodes]
        rng = random.Random(7)
        rng.shuffle(rows)  # node order must not matter
        lines = ["u,v,h11,h12,h22"]
        lines += [",".join(repr(x) for x in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_forms_csv_roundtrip(self, capsys, tmp_path):
        src = tmp_path / "forms.csv"
        out = tmp_path / "graph.csv"
        self.write_forms(src, lambda u, v: 2.0, lambda u, v: 0.0,
                         lambda u, v: 2.0)
        rc = main(["reconstruct", "--forms-csv", str(src), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "verdict: compatible" in captured.out
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 25
        for r in rows:
            u, v, f = float(r[0]), float(r[1]), float(r[2])
            assert abs(f - (u * u + v * v)) < 1e-12

    def test_forms_csv_incompatible(self, capsys, tmp_path):
        src = tmp_path / "forms.csv"
        out = tmp_path / "nope.csv"
        self.write_forms(src, lambda u, v: v, lambda u, v: 0.0,
                         lambda u, v: 0.0)
        rc = main(["reconstruct", "--forms-csv", str(src), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 5
        assert not out.exists()
        assert "verdict: incompatible" in captured.out

    def test_forms_csv_incomplete_lattice(self, capsys, tmp_path):
        src = tmp_path / "forms.csv"
        self.write_forms(src, lambda u, v: 2.0, lambda u, v: 0.0,
                         lambda u, v: 2.0)
        body = src.read_text().splitlines()
        src.write_text("\n".join(body[:-1]) + "\n")
        rc, _, err = run(capsys, ["reconstruct", "--forms-csv", str(src)])
        assert rc == 2
        assert "lattice" in err

    def test_forms_csv_bad_header(self, capsys, tmp_path):
        src = tmp_path / "forms.csv"
        src.write_text("u,v,h11,h12\n0,0,1,0\n")
        rc, _, err = run(capsys, ["reconstruct", "--forms-csv", str(src)])
        assert rc == 2
        assert "h22" in err

    def test_forms_csv_excludes_expressions(self, capsys, tmp_path):
        src = tmp_path / "forms.csv"
        self.write_forms(src, lambda u, v: 2.0, lambda u, v: 0.0,
                         lambda u, v: 2.0)
        rc, _, err = run(capsys, ["reconstruct", "--forms-csv", str(src),
                                  "--h11", "2"])
        assert rc == 2

    @pytest.mark.parametrize("column, node, value", [
        ("h11", (-1.0, -1.0), "nan"),
        ("h12", (0.0, 0.5), "nan"),
        ("h22", (0.5, -0.5), "inf"),
    ], ids=["corner-nan", "interior-nan", "interior-inf"])
    def test_forms_csv_non_finite_exits_2(self, capsys, tmp_path, column,
                                          node, value):
        # the Codazzi check reads interior nodes only and a NaN gap passes
        # every comparison, so the table itself is checked
        src = tmp_path / "forms.csv"
        out = tmp_path / "graph.csv"
        fns = {c: (lambda u, v: 2.0) for c in ("h11", "h12", "h22")}
        fns[column] = lambda u, v: float(value) if (u, v) == node else 2.0
        self.write_forms(src, fns["h11"], fns["h12"], fns["h22"])
        rc, stdout, err = run(capsys, ["reconstruct", "--forms-csv", str(src),
                                       "--out", str(out)])
        assert rc == 2
        assert stdout == ""
        assert not out.exists()
        assert err == (f"isomin reconstruct: --forms-csv: {column} must be "
                       f"finite, got {value} at node {node}\n")

    def test_forms_csv_corner_spike_exits_5(self, capsys, tmp_path):
        # the central-difference Codazzi residual never reads a corner
        # node, so the spike passes it and the two integration orders
        # are what disagree
        src = tmp_path / "forms.csv"
        out = tmp_path / "graph.csv"
        self.write_forms(src, lambda u, v: 0.0, lambda u, v: 0.0,
                         lambda u, v: 1000.0 if (u, v) == (-1.0, -1.0)
                         else 0.0)
        rc, stdout, err = run(capsys, ["reconstruct", "--forms-csv", str(src),
                                       "--out", str(out)])
        assert rc == 5
        assert stdout == ""
        assert not out.exists()
        assert err == ("isomin reconstruct: L-order integrations disagree "
                       "by 6.250e+01 (> 10*tol = 2.500e+00); data "
                       "incompatible at this resolution\n")

    def test_forms_csv_repeated_node_exits_2(self, capsys, tmp_path):
        src = tmp_path / "forms.csv"
        out = tmp_path / "graph.csv"
        self.write_forms(src, lambda u, v: 0.0, lambda u, v: 0.0,
                         lambda u, v: 0.0)
        with src.open("a") as fh:
            fh.write("0.0,0.0,5.0,0.0,0.0\n")
        rc, stdout, err = run(capsys, ["reconstruct", "--forms-csv", str(src),
                                       "--out", str(out)])
        assert rc == 2
        assert stdout == ""
        assert not out.exists()
        assert err == ("isomin reconstruct: --forms-csv: node (0.0, 0.0) "
                       "listed twice\n")

    def test_neither_mode_rejected(self, capsys):
        rc, _, err = run(capsys, ["reconstruct"])
        assert rc == 2
        assert "--forms-csv" in err


# the Hessian of a cubic with one rim node moved: main exits 0, 2 (an
# even node count puts the centre base between nodes) or 5, and says
# compatible and writes --out only when it exits 0
@settings(max_examples=60, deadline=None)
@given(nu=st.integers(3, 7), nv=st.integers(3, 7),
       coef=st.lists(st.floats(-10.0, 10.0), min_size=7, max_size=7),
       side=st.integers(0, 3), pos=st.integers(0, 6),
       component=st.integers(0, 2), amount=st.floats(-1e6, 1e6))
@example(nu=5, nv=5, coef=[0.0] * 7, side=0, pos=0, component=2,
         amount=1000.0)
def test_forms_csv_exit_codes(nu, nv, coef, side, pos, component, amount):
    a, b, c, d, e, f, g = coef
    us = [-1.0 + 2.0 * i / (nu - 1) for i in range(nu)]
    vs = [-1.0 + 2.0 * j / (nv - 1) for j in range(nv)]
    moved = [(0, pos % nv), (nu - 1, pos % nv),
             (pos % nu, 0), (pos % nu, nv - 1)][side]
    lines = ["u,v,h11,h12,h22"]
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            h = [6 * a * u + 2 * b * v + 2 * e, 2 * b * u + 2 * c * v + f,
                 2 * c * u + 6 * d * v + 2 * g]
            if (i, j) == moved:
                h[component] += amount
            lines.append(",".join(map(repr, [u, v, *h])))
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "forms.csv")
        out = os.path.join(tmp, "graph.csv")
        with open(src, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = main(["reconstruct", "--forms-csv", src, "--out", out])
        wrote = os.path.exists(out)
    assert rc in (0, 2, 5)
    assert ("verdict: compatible" in stdout.getvalue()) == (rc == 0)
    assert wrote == (rc == 0)


# the class of every sample of each catalog entry's analyze; no exact
# jet may move a sample across a class threshold
CATALOG_CLASSES = {
    "plane": "parabolic", "paraboloid": "elliptic",
    "helicoid2": "hyperbolic", "hyp_paraboloid_uv": "hyperbolic",
    "hyp_paraboloid_diff": "hyperbolic", "rotational_log": "hyperbolic",
    "dlambda_geodesic": "parabolic", "cubic_harmonic": "hyperbolic",
}


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("name, lam", [(name, "1") for name in CATALOG_CLASSES]
                         + [("dlambda_geodesic", "-0.5")])
def test_catalog_class_counts_pinned(capsys, name, lam, n):
    # only dlambda_geodesic takes --lam; the other entries refuse it
    lam_args = ["--lam", lam] if name == "dlambda_geodesic" else []
    rc, out, _ = run(capsys, ["analyze", "--catalog", name, *lam_args,
                              "--grid", f"{n},{n}"])
    assert rc == 0
    want = {CATALOG_CLASSES[name]: n * n}
    if name == "cubic_harmonic":
        # the flat point at the origin is the centre node
        want = {"hyperbolic": n * n - 1, "parabolic": 1}
    assert json.loads(out)["class_counts"] == want


class TestEmbed:
    def test_catalog_passes(self, capsys):
        rc, out, _ = run(capsys, ["embed", "--catalog", "rotational_log",
                                  "--grid", "5,5"])
        assert rc == 0
        s = json.loads(out)
        assert s["verdict"] == "pass"
        assert s["max_mean_curvature"] < 1e-5

    def test_paraboloid_chart_fails_on_mean_vector(self, capsys):
        rc, out, _ = run(capsys, ["embed", "--x1", "0", "--x2", "u",
                                  "--x3", "v", "--x4", "u^2+v^2",
                                  "--grid", "5,5"])
        assert rc == 0
        s = json.loads(out)
        assert s["verdict"] == "fail"
        assert s["max_mean_curvature"] > 1.0
        assert "e_locus" not in s

    def test_harmonic_cubic_with_isolated_locus(self, capsys):
        rc, out, _ = run(capsys, ["embed", "--graph", "u^3-3*u*v^2",
                                  "--grid", "5,5"])
        assert rc == 0
        s = json.loads(out)
        assert s["verdict"] == "pass"
        assert len(s["e_locus"]) == 1
        cluster = s["e_locus"][0]
        assert cluster["point"] == [0.0, 0.0]
        assert cluster["isolated"] is True

    def test_timelike_chart_exits_4(self, capsys):
        rc, _, err = run(capsys, ["embed", "--x1", "u", "--x2", "v",
                                  "--x3", "0", "--x4", "0",
                                  "--grid", "3,3"])
        assert rc == 4
        assert "non-spacelike" in err

    def test_partial_chart_flags_rejected(self, capsys):
        rc, _, err = run(capsys, ["embed", "--x1", "0", "--x2", "u"])
        assert rc == 2

    def test_weierstrass_source(self, capsys):
        rc, out, _ = run(capsys, ["embed", "--F", "exp(z)", "--G", "1",
                                  "--grid", "3,3"])
        assert rc == 0
        s = json.loads(out)
        assert s["verdict"] == "pass"

    @pytest.mark.parametrize("f_src, g_src", [
        ("exp(3*z)", "1"), ("exp(6*z)", "1"), ("exp(6*z)", "z")])
    def test_large_f_spread_passes(self, capsys, f_src, g_src):
        # |F| varies by a factor of e^6 or e^12 over the domain; stencil
        # values integrated from the base point gave H up to 0.16 here
        rc, out, _ = run(capsys, ["embed", "--F", f_src, "--G", g_src])
        assert rc == 0
        s = json.loads(out)
        assert s["verdict"] == "pass", s
        assert s["max_mean_curvature"] < 1e-6

    def test_zero_of_f_on_locus_grid_not_a_locus_node(self, capsys):
        # F = z vanishes at the centre node of the 65^2 locus grid; the
        # 4x4 verification grid misses it
        rc, out, _ = run(capsys, ["embed", "--F", "z", "--G", "1",
                                  "--grid", "4,4"])
        assert rc == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_zero_of_f_on_verification_grid_exits_4(self, capsys):
        rc, _, err = run(capsys, ["embed", "--F", "z", "--G", "1",
                                  "--grid", "3,3"])
        assert rc == 4
        assert "1 non-spacelike samples, first at (0, 0)" in err


class TestLibraryErrors:
    @pytest.mark.parametrize("args, code, text", [
        (["embed", "--F", "1/z", "--G", "1", "--grid", "3,3"], 2,
         "evaluation failed: division by zero at z="),
        (["embed", "--graph", "log(u)", "--grid", "3,3"], 2,
         "evaluation failed: expression does not evaluate to a real value "
         "at u="),
        (["embed", "--x1", "0", "--x2", "u", "--x3", "v", "--x4", "1/u",
          "--grid", "3,3"], 2, "evaluation failed: division by zero at u="),
        (["reconstruct", "--h11", "1/u", "--h12", "0", "--h22", "0",
          "--grid", "5,5"], 3, "integration failed: "),
        # domains smaller than the sampling margins
        (["analyze", "--graph", "u*v", "--domain", "0,0.001,0,0.001",
          "--grid", "5,5"], 2,
         "(2e-05, 2e-05) closer than 2*step=0.0002 to the domain boundary"),
        # |F| past the float limit, and |F| finite with |F|^2 not
        (["analyze", "--F", "1.5e308*(1+i)", "--G", "1", "--grid", "3,3"],
         2, "evaluation failed: overflow: |F|^2 is not finite at "
            "z=(-0.96-0.96j)"),
        (["analyze", "--F", "1.5e308", "--G", "1", "--grid", "3,3"], 2,
         "evaluation failed: overflow: |F|^2 is not finite at "
         "z=(-0.96-0.96j)"),
        (["embed", "--F", "1.5e308*(1+i)", "--G", "1", "--grid", "3,3"], 2,
         "evaluation failed: overflow: |F|^2 is not finite at z="),
    ], ids=["embed-pole", "embed-graph-log", "embed-chart-pole",
            "reconstruct-pole", "analyze-tiny-domain",
            "analyze-modulus-overflow", "analyze-metric-overflow",
            "embed-modulus-overflow"])
    def test_documented_exit_code(self, capsys, args, code, text):
        rc, _, err = run(capsys, args)
        assert rc == code
        assert err.startswith(f"isomin {args[0]}: {text}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["embed", "--graph", "u*v", "--domain", "0,0.001,0,0.001",
         "--grid", "3,3"],
        ["embed", "--graph", "u*v", "--domain", "0,10,0,0.05",
         "--grid", "3,3"],
        ["embed", "--F", "exp(z)", "--G", "z", "--domain", "0,0.05,0,0.05",
         "--grid", "3,3"],
        ["embed", "--x1", "u", "--x2", "u", "--x3", "v", "--x4", "u",
         "--domain", "0,0.01,0,0.01"],
    ], ids=["embed-tiny-domain", "embed-thin-domain",
            "embed-weierstrass-small-domain", "embed-chart-tiny-domain"])
    def test_embed_lattices_stay_in_the_domain(self, capsys, monkeypatch,
                                               args):
        # the flat-ZMC and locus lattices are inset by at most a quarter
        # of each side, so on a side shorter than twice the usual inset
        # every node still lies strictly inside the domain
        axes = []

        def recording_axis(lo, hi, n, inset=0.0):
            xs = geometry._axis(lo, hi, n, inset)
            axes.append((lo, hi, xs))
            return xs

        monkeypatch.setattr(minkowski, "_axis", recording_axis)
        rc, out, err = run(capsys, args)
        assert (rc, err) == (0, "")
        assert json.loads(out)["verdict"] == "pass"
        assert len(axes) == (2 if "--x1" in args else 4)
        for lo, hi, xs in axes:
            assert all(lo < x < hi for x in xs), (lo, hi, xs)

    def test_singular_of_an_overflowing_constant_is_empty(self, capsys):
        # the scan counts an overflowing |F| as inf, as it does a failed
        # evaluation; a nonzero constant has no zero
        rc, out, err = run(capsys, ["singular", "--F", "1.5e308*(1+i)",
                                    "--G", "1", "--grid", "4,4"])
        assert (rc, err) == (0, "")
        assert json.loads(out)["points"] == []

    def test_chart_on_a_small_domain_embeds(self, capsys):
        # an explicit chart has no boundary margin of its own
        rc, out, _ = run(capsys, ["embed", "--x1", "u", "--x2", "u",
                                  "--x3", "v", "--x4", "u",
                                  "--domain", "0,0.05,0,0.05"])
        assert rc == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_unbuildable_form_is_not_called_compatible(self, capsys):
        # the symbolic Codazzi residual of h11 = 1/u vanishes, so the
        # pole first shows while the surface is integrated
        rc, out, err = run(capsys, ["reconstruct", "--h11", "1/u",
                                    "--h12", "0", "--h22", "0",
                                    "--grid", "5,5"])
        assert rc == 3
        assert "compatible" not in out
        assert "height at (-1.0, -1.0)" in err

    def test_integration_error_names_its_segment(self, capsys):
        rc, _, err = run(capsys, ["gen", "--F", "1/z", "--G", "1",
                                  "--grid", "3,3"])
        assert rc == 3
        assert err.startswith("isomin gen: integration failed: segment "
                              "(0.0, 0.0) -> (-1.0, -1.0): "
                              "no convergence on [")

    @pytest.mark.parametrize("args", [
        ["gen", "--F", "z", "--G", "1", "--theta", "nan"],
        ["analyze", "--F", "z", "--G", "1", "--tol", "nan"],
        ["gen", "--F", "z", "--G", "1", "--domain", "-inf,1,-1,1"],
        ["analyze", "--catalog", "helicoid2", "--lam", "inf"],
        ["gen", "--F", "z", "--G", "1", "--base", "nan,0"],
    ], ids=["theta", "tol", "domain", "lam", "base"])
    def test_non_finite_number_exits_2(self, capsys, args):
        rc, out, err = run(capsys, args)
        assert rc == 2
        assert "must be finite" in err
        assert out == ""


class TestListAndConfig:
    def test_list_names(self, capsys):
        rc, out, _ = run(capsys, ["list"])
        assert rc == 0
        s = json.loads(out)
        assert s["schema"] == 1
        names = [e["name"] for e in s["surfaces"]]
        assert "helicoid2" in names
        assert "rotational_log" in names
        assert len(names) == 8

    def test_tiny_grid_rejected(self, capsys):
        rc, _, err = run(capsys, ["analyze", "--graph", "u*v",
                                  "--grid", "1,5"])
        assert rc == 2

    def test_degenerate_domain_rejected(self, capsys):
        rc, _, err = run(capsys, ["analyze", "--graph", "u*v",
                                  "--domain", "1,1,-1,1"])
        assert rc == 2

    def test_negative_tol_rejected(self, capsys):
        rc, _, err = run(capsys, ["analyze", "--graph", "u*v",
                                  "--tol", "-1e-6"])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["list", "--domain", "0,1,0,1"],
        ["list", "--grid", "3,3"],
        ["list", "--tol", "1e-6"],
        ["list", "--format", "json"],
        ["singular", "--F", "z", "--G", "1", "--format", "json"],
        ["embed", "--catalog", "helicoid2", "--format", "json"],
        ["analyze", "--F", "z", "--G", "1", "--base", "0,0"],
        ["singular", "--F", "z", "--G", "1", "--base", "0,0"],
        ["embed", "--F", "z", "--G", "1", "--base", "0,0"],
    ], ids=["list-domain", "list-grid", "list-tol", "list-format",
            "singular-format", "embed-format", "analyze-base",
            "singular-base", "embed-base"])
    def test_flag_the_subcommand_does_not_read_is_refused(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag, source", [
        (["embed", "--catalog", "helicoid2", "--theta", "0.7"], "--theta",
         "--catalog helicoid2"),
        (["embed", "--catalog", "helicoid2", "--domain", "0,1,0,1"],
         "--domain", "--catalog helicoid2"),
        (["embed", "--catalog", "helicoid2", "--lam", "3"], "--lam",
         "--catalog helicoid2"),
        (["analyze", "--catalog", "plane", "--grid", "5,5", "--domain",
          "0,1,0,1"], "--domain", "--catalog plane"),
        (["analyze", "--catalog", "plane", "--grid", "5,5", "--lam", "3"],
         "--lam", "--catalog plane"),
        (["analyze", "--graph", "u*v", "--grid", "5,5", "--lam", "3"],
         "--lam", "--graph u*v"),
        (["reconstruct", "--forms-csv", "{T}", "--grid", "3,3"], "--grid",
         "--forms-csv {T}"),
        (["reconstruct", "--forms-csv", "{T}", "--domain", "0,9,0,9"],
         "--domain", "--forms-csv {T}"),
        (["embed", "--x1", "0", "--x2", "u", "--x3", "v", "--x4", "u*v",
          "--grid", "3,3", "--theta", "1"], "--theta",
         "--x1 0 --x2 u --x3 v --x4 u*v"),
        (["embed", "--x1", "0", "--x2", "u", "--x3", "v", "--x4", "u*v",
          "--grid", "3,3", "--lam", "2"], "--lam",
         "--x1 0 --x2 u --x3 v --x4 u*v"),
    ], ids=["embed-catalog-theta", "embed-catalog-domain", "embed-catalog-lam",
            "analyze-catalog-domain", "analyze-catalog-lam",
            "analyze-graph-lam", "reconstruct-csv-grid",
            "reconstruct-csv-domain", "embed-chart-theta", "embed-chart-lam"])
    def test_flag_the_source_does_not_read_is_refused(self, capsys, tmp_path,
                                                      args, flag, source):
        table = write_zero_forms(tmp_path / "T.csv")
        args = [a.replace("{T}", str(table)) for a in args]
        source = source.replace("{T}", str(table))
        rc, out, err = run(capsys, args)
        assert (rc, out) == (2, "")
        assert err == f"isomin {args[0]}: {flag} does not apply to {source}\n"

    @pytest.mark.parametrize("args", [
        ["gen", "--G", "1"],
        ["singular", "--G", "1"],
        ["gen", "--F", "", "--G", "1"],
    ], ids=["gen", "singular", "gen-empty-F"])
    def test_weierstrass_commands_need_both_functions(self, capsys, args):
        rc, out, err = run(capsys, args)
        assert rc == 2
        assert f"{args[0]} needs --F and --G" in err
        assert out == ""

    # a value for each flag that selects a source; {T} is a node table
    SOURCE_VALUES = {"--F": "exp(z)", "--G": "1", "--graph": "u*v",
                     "--catalog": "dlambda_geodesic", "--x1": "0", "--x2": "u",
                     "--x3": "v", "--x4": "u*v", "--h11": "0", "--h12": "0",
                     "--h22": "0", "--forms-csv": "{T}"}

    def test_every_flag_is_read(self, capsys, tmp_path, monkeypatch):
        # a flag in the table that no code reads would be a setting that
        # does nothing: each dest must be read as cfg.<dest> or ns.<dest>
        with open(cli.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("cfg", "ns")}
        dest_of = {flag: argparse.ArgumentParser().add_argument(flag,
                                                                **kw).dest
                   for flag, kw in cli._FLAGS.items()}
        dests = set(dest_of.values())
        assert len(dests) == len(cli._FLAGS)
        assert dests - read == set()

        # and on each source's own path, every flag that its _SOURCES
        # entry lists and the subcommand accepts is read by the command
        # (after _checked, which picks the source)
        table = write_zero_forms(tmp_path / "T.csv")
        seen = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                seen.add(name)
                return super().__getattribute__(name)

        checked = cli._checked
        monkeypatch.setattr(cli, "_checked",
                            lambda ns: Recording(**vars(checked(ns))))
        paths = 0
        for command, (_, _, accepted) in cli._SUBCOMMANDS.items():
            for name, (select, reads) in cli._SOURCES.items():
                if not set(select) <= set(accepted):
                    continue
                listed = [f for f in select + reads if f in accepted]
                args = [command]
                for flag in select:
                    args += [flag, self.SOURCE_VALUES[flag].replace(
                        "{T}", str(table))]
                if "--grid" in listed:
                    args += ["--grid", "3,3"]
                seen.clear()
                rc, _, err = run(capsys, args)
                assert (rc, err) == (0, ""), (args, err)
                unread = {f for f in listed if dest_of[f] not in seen}
                assert unread == set(), (command, name)
                paths += 1
        assert paths == 11

    def test_console_script_entry_point(self, capsys, monkeypatch):
        # what the installed script runs, resolved from pyproject.toml
        # itself, so this runs without the script on PATH
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"),
                  "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["isomin"]
        assert target == "isomin.cli:main"
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        assert entry is main
        monkeypatch.setattr(sys, "argv", ["isomin", "list"])
        rc = entry()
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["schema"] == 1

    @pytest.mark.skipif(shutil.which("isomin") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["isomin", "list"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == 1


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _python(*args):
    """`python ARGS` in a fresh process that imports isomin from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=env)


def _numpy_imports(args, run=("-m", "isomin.cli")):
    """Exit code of `python -X importtime -m isomin.cli ARGS` and the
    numpy modules its import trace lists; `run` replaces `-m isomin.cli`."""
    proc = _python("-X", "importtime", *run, *args)
    loaded = [line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:")]
    assert "isomin.expr" in loaded
    return proc.returncode, [m for m in loaded
                             if m == "numpy" or m.startswith("numpy.")]


_MAIN = "import sys; from isomin.cli import main; sys.exit(main(sys.argv[1:]))"
_NO_NUMPY = "import sys; sys.modules['numpy'] = None; "


def _batch_grid(vertices: int) -> str:
    """--grid value of a two-row grid with vertices vertices (even)."""
    assert vertices % 2 == 0
    return f"{vertices // 2},2"


class TestStartup:
    """Importing the CLI loads no numpy, and no command does, except gen
    on a grid of at least weierstrass._BATCH_MIN vertices whose F or G
    has no primitive, which loads it where it is installed."""

    def test_importing_the_cli_loads_no_numpy(self):
        proc = _python("-c", "import sys, isomin.cli; "
                       "assert 'numpy' not in sys.modules, 'numpy loaded'")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("args", [
        ["gen", "--F", "z", "--G", "1", "--grid", "3,3"],
        ["analyze", "--graph", "u*v", "--grid", "5,5"],
        ["analyze", "--catalog", "helicoid2", "--grid", "5,5"],
        ["analyze", "--F", "z", "--G", "1", "--grid", "5,5"],
        ["singular", "--F", "z^3-0.1", "--G", "1", "--grid", "16,16"],
        ["embed", "--F", "exp(z)", "--G", "1", "--grid", "3,3"],
        ["embed", "--graph", "u*v", "--grid", "3,3"],
        ["embed", "--x1", "0", "--x2", "u", "--x3", "v", "--x4", "0",
         "--grid", "3,3"],
        ["reconstruct", "--h11", "6*u", "--h12", "-6*v", "--h22", "-6*u",
         "--grid", "5,5"],
        ["reconstruct", "--h11", "1/(u+2)", "--h12", "0", "--h22", "0",
         "--grid", "5,5"],
    ], ids=["gen", "analyze-graph", "analyze-catalog", "analyze-fg", "singular",
            "embed-fg", "embed-graph", "embed-chart", "reconstruct-expr",
            "reconstruct-expr-quadrature"])
    def test_command_loads_no_numpy(self, args):
        rc, numpy_modules = _numpy_imports(args)
        assert rc == 0
        assert numpy_modules == []

    def test_reconstruct_from_csv_loads_no_numpy(self, tmp_path):
        path = tmp_path / "forms.csv"
        path.write_text("u,v,h11,h12,h22\n" + "".join(
            f"{u},{v},2,0,-2\n" for u in (-1, 0, 1) for v in (-1, 0, 1)))
        rc, numpy_modules = _numpy_imports(
            ["reconstruct", "--forms-csv", str(path)])
        assert rc == 0
        assert numpy_modules == []

    def test_trace_lists_numpy_once_it_is_imported(self):
        # positive control of the checks above: the same trace of the same
        # gen run does list numpy when the process imports it
        rc, numpy_modules = _numpy_imports(
            ["gen", "--F", "z", "--G", "1", "--grid", "3,3"],
            run=("-c", "import numpy, sys; from isomin.cli import main; "
                       "sys.exit(main(sys.argv[1:]))"))
        assert rc == 0
        assert "numpy" in numpy_modules

    def test_gen_just_below_the_batch_threshold_loads_no_numpy(self):
        rc, numpy_modules = _numpy_imports(
            ["gen", "--F", "z", "--G", "1",
             "--grid", _batch_grid(weierstrass._BATCH_MIN - 2)])
        assert rc == 0
        assert numpy_modules == []

    def test_gen_at_the_batch_threshold_loads_numpy(self):
        # exp(z^2) has no primitive, so the batched rows run
        rc, numpy_modules = _numpy_imports(
            ["gen", "--F", "exp(z^2)", "--G", "1",
             "--grid", _batch_grid(weierstrass._BATCH_MIN)])
        assert rc == 0
        assert "numpy" in numpy_modules

    def test_gen_with_primitives_at_the_threshold_loads_no_numpy(self):
        rc, numpy_modules = _numpy_imports(
            ["gen", "--F", "z", "--G", "1",
             "--grid", _batch_grid(weierstrass._BATCH_MIN)])
        assert rc == 0
        assert numpy_modules == []


class TestBatchedGen:
    """gen above weierstrass._BATCH_MIN, against the scalar rows."""

    SIDE = math.isqrt(weierstrass._BATCH_MIN) + 1
    GRID = f"{SIDE},{SIDE}"

    @pytest.mark.parametrize("f_src, code, message", [
        ("exp(800*z)", 2, "evaluation failed: overflow at z="),
        ("1/z", 3, "integration failed: segment (0.0, 0.0) -> "),
    ], ids=["overflow", "row-start"])
    def test_refusal_is_the_scalar_rows_refusal(self, capsys, monkeypatch,
                                                f_src, code, message):
        argv = ["gen", "--F", f_src, "--G", "1", "--grid", self.GRID]
        batched = run(capsys, argv)
        monkeypatch.setattr(weierstrass, "_BATCH_MIN", self.SIDE ** 2 + 1)
        scalar = run(capsys, argv)
        assert batched == scalar
        assert scalar[0] == code and scalar[1] == ""
        assert scalar[2].startswith(f"isomin gen: {message}")

    def test_without_numpy_gen_prints_the_scalar_rows(self):
        # exp(z^2) has no primitive, so neither run takes the closed form
        argv = ["gen", "--F", "exp(z^2)", "--G", "z^2", "--theta", "0.7",
                "--grid", self.GRID]
        blocked = _python("-c", _NO_NUMPY + _MAIN, *argv)
        scalar = _python("-c", "import sys, isomin.weierstrass as w; "
                         f"w._BATCH_MIN = {self.SIDE ** 2 + 1}; " + _MAIN,
                         *argv)
        assert blocked.returncode == scalar.returncode == 0, blocked.stderr
        assert blocked.stdout == scalar.stdout
        assert blocked.stdout.count("\nv ") + 1 == self.SIDE ** 2

    @pytest.mark.parametrize("f_src, tol, code", [
        ("exp(800*z)", None, 2),
        ("exp(z)", "1e-14", 0),
    ], ids=["overflow", "tight-tol"])
    def test_closed_form_falls_back_to_the_quadrature(
            self, capsys, monkeypatch, f_src, tol, code):
        argv = ["gen", "--F", f_src, "--G", "z^2", "--grid", self.GRID]
        if tol:
            argv += ["--tol", tol]
        got = run(capsys, argv)
        # with no primitive found, grid_eval takes its quadrature path
        monkeypatch.setattr(weierstrass, "primitive", lambda tree: None)
        assert got == run(capsys, argv)
        assert got[0] == code
        if code:
            assert got[2].startswith(
                "isomin gen: evaluation failed: overflow at z=")

    def test_closed_form_prints_the_same_bytes_without_numpy(self):
        argv = ["gen", "--F", "exp(z)", "--G", "z^2", "--theta", "0.7",
                "--grid", self.GRID, "--format", "csv"]
        blocked = _python("-c", _NO_NUMPY + _MAIN, *argv)
        plain = _python("-c", _MAIN, *argv)
        assert blocked.returncode == plain.returncode == 0, blocked.stderr
        assert blocked.stdout == plain.stdout
        assert blocked.stdout.count("\n") == self.SIDE ** 2 + 1


def test_panel_sum_overflow_exits_2(capsys):
    # each integrand value is finite, but the 16-term sums near u = 0.887
    # overflow; refused at once as an overflow, not bisected 30 levels
    rc, out, err = run(capsys, ["gen", "--F", "exp(800*z)", "--G", "1",
                                "--grid", "3502,2"])
    assert (rc, out) == (2, "")
    assert err == (
        "isomin gen: evaluation failed: segment (0.8863181948014853, -1.0) "
        "-> (0.8868894601542416, -1.0): overflow: panel sum is not finite "
        "on [0.0, 1.0]\n")


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e16,
                     9.9999999999995e-5, math.inf, -math.inf, math.nan]))


@settings(max_examples=150, deadline=None)
@given(verts=st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS), min_size=4,
                      max_size=12),
       nu=st.integers(2, 4))
def test_bulk_writers_print_the_per_value_bytes(verts, nu):
    nv = len(verts) // nu
    verts = verts[:nu * nv]
    if nv < 2:
        return
    lines = [f"v {cli._fmt(x)} {cli._fmt(y)} {cli._fmt(z)}" for x, y, z in verts]
    for j in range(nv - 1):
        for i in range(nu - 1):
            a, b = j * nu + i + 1, j * nu + i + 2
            c, d = b + nu, a + nu
            lines += [f"f {a} {b} {c}", f"f {a} {c} {d}"]
    assert cli._obj_mesh(verts, nu, nv) == "\n".join(lines) + "\n"
    head = {"schema": 1, "command": "gen", "theta": 0.5}
    assert cli._gen_json(head, verts) == cli._json_text(
        {**head, "vertices": [[cli._jround(x) for x in p] for p in verts]})
