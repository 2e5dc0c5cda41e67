"""Degenerate-metric kernel: forms, curvatures, the grid lattice."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import isomin.geometry as geometry
from isomin.expr import (compile_real, differentiate, parse_expr,
                         parse_real_expr)
from isomin.geometry import (
    XI,
    DegenerateMetricError,
    FundamentalForms,
    Rect,
    SurfacePatch,
    Vec021,
    brioschi_curvature,
    classify_point,
    deg_inner,
    fundamental_forms,
    graph_patch,
    h_lambda,
    mean_curvature,
    patch_jets,
    relative_gauss_curvature,
)
from isomin.minkowski import iota_lift, verify_flat_zmc
from isomin.singularities import find_zeros
from isomin.weierstrass import WeierstrassData, grid_eval

SQ2 = Rect(-2.0, 2.0, -2.0, 2.0)


def helicoid():
    return SurfacePatch(
        lambda u, v: Vec021(v * math.cos(u), v * math.sin(u), u),
        Rect(-math.pi, math.pi, 0.25, 2.5),
    )


class TestInnerProduct:
    def test_z_is_invisible(self):
        assert deg_inner(Vec021(1, 2, 7), Vec021(3, -1, 100)) == 1
        assert deg_inner(XI, XI) == 0

class TestFundamentalForms:
    def test_graph_uv_at_3_5(self):
        # hand computation: f_u = (1,0,v), f_v = (0,1,u), Hessian = ((0,1),(1,0))
        s = graph_patch(lambda u, v: u * v, Rect(-6, 6, -6, 6))
        f = fundamental_forms(s, 3.0, 5.0)
        assert abs(f.g11 - 1) < 1e-9 and abs(f.g12) < 1e-9
        assert abs(f.g22 - 1) < 1e-9
        assert abs(f.h11) < 1e-7 and abs(f.h12 - 1) < 1e-7
        assert abs(f.h22) < 1e-7

    def test_helicoid_at_0_1(self):
        # exact decomposition: f_uv = (1/v) f_u - (1/v) XI, so h12 = -1/v
        f = fundamental_forms(helicoid(), 0.0, 1.0)
        assert abs(f.g11 - 1) < 1e-9
        assert abs(f.g12) < 1e-9
        assert abs(f.g22 - 1) < 1e-9
        assert abs(f.h11) < 1e-7
        assert abs(f.h12 + 1) < 1e-7
        assert abs(f.h22) < 1e-7

    def test_helicoid_general_point(self):
        f = fundamental_forms(helicoid(), 0.7, 1.3)
        assert abs(f.g11 - 1.3 ** 2) < 1e-8
        assert abs(f.h12 + 1 / 1.3) < 1e-7

    def test_degenerate_curve_rejected(self):
        # z-graph over a line: image is the curve (t, 0, ...) swept in v
        s = SurfacePatch(lambda u, v: Vec021(u, 0.0, v), SQ2)
        with pytest.raises(DegenerateMetricError):
            fundamental_forms(s, 0.0, 0.0)

    def test_margin_precondition(self):
        s = graph_patch(lambda u, v: 0.0, Rect(-1, 1, -1, 1))
        with pytest.raises(ValueError):
            fundamental_forms(s, 0.99999, 0.0)


class TestCurvature:
    def test_paraboloid_h_is_2g_and_k_is_4(self):
        s = graph_patch(lambda u, v: u * u + v * v, SQ2)
        for (u, v) in [(0, 0), (0.5, -0.3), (1.0, 1.0)]:
            f = fundamental_forms(s, u, v)
            assert abs(f.h11 - 2 * f.g11) < 1e-6
            assert abs(f.h12 - 2 * f.g12) < 1e-6
            assert abs(f.h22 - 2 * f.g22) < 1e-6
            assert abs(mean_curvature(f) - 2) < 1e-6
            assert abs(relative_gauss_curvature(f) - 4) < 1e-6

    def test_graph_mean_curvature_is_half_laplacian(self):
        s = graph_patch(lambda u, v: u ** 3 + v ** 2, SQ2)
        f = fundamental_forms(s, 0.5, 0.2)
        assert abs(mean_curvature(f) - 0.5 * (6 * 0.5 + 2)) < 1e-6

    def test_helicoid_k(self):
        for (u, v) in [(0.0, 1.0), (1.0, 0.8), (-2.0, 2.0)]:
            f = fundamental_forms(helicoid(), u, v)
            assert abs(relative_gauss_curvature(f) + 1 / v ** 4) < 1e-6

    def test_minimal_graphs_have_nonpositive_k(self):
        s = graph_patch(lambda u, v: u ** 3 - 3 * u * v * v, SQ2)
        for u, v in product(geometry._axis(SQ2.u0, SQ2.u1, 7, 0.2), repeat=2):
            f = fundamental_forms(s, u, v)
            k = relative_gauss_curvature(f)
            assert k <= 1e-8
            assert abs(k + 36 * (u * u + v * v)) < 1e-4

    def test_classify(self):
        assert classify_point(4.0) == "elliptic"
        assert classify_point(-1.0) == "hyperbolic"
        assert classify_point(0.0) == "parabolic"
        assert classify_point(5e-9) == "parabolic"

    def test_umbilical_k_is_lambda_squared(self):
        f = FundamentalForms(1.0, 0.0, 1.0, 3.0, 0.0, 3.0)
        assert relative_gauss_curvature(f) == 9.0


class TestHLambda:
    def test_lambda_zero_recovers_plain_forms(self):
        s = graph_patch(lambda u, v: u * v, SQ2)
        base = fundamental_forms(s, 0.5, 0.5)
        lam0 = h_lambda(s, 0.0, 0.5, 0.5)
        assert lam0 == base

    def test_plane_picks_up_constant_form(self):
        # f_u = (1,0,0), f_v = (0,1,0): sigma = 1 for both, so h + lam*1
        s = graph_patch(lambda u, v: 0.0, SQ2)
        f = h_lambda(s, 1.0, 0.0, 0.0)
        for val in (f.h11, f.h12, f.h22):
            assert abs(val - 1.0) < 1e-7

    def test_log_graph_is_lambda_geodesic(self):
        # exact cancellation: 1 + F_u = 1/(lam*u+1), 1 + F_v = 0
        lam = 1.0
        dom = Rect(-1.0 / lam + 0.1, 3.0, -1.0, 1.0)
        s = graph_patch(
            lambda u, v: math.log(abs(lam * u + 1.0)) / lam - u - v, dom)
        f = h_lambda(s, lam, 1.0, 0.0)
        assert abs(f.h11) < 1e-6
        assert abs(f.h12) < 1e-6
        assert abs(f.h22) < 1e-6
        plain = fundamental_forms(s, 1.0, 0.0)
        assert abs(plain.h11) > 0.1  # the undeformed form is far from zero

    def test_one_stencil_per_call(self):
        calls = []

        def ev(u, v):
            calls.append((u, v))
            return Vec021(u, v, u * u - v * v)

        f = h_lambda(SurfacePatch(ev, SQ2), 0.5, 0.3, -0.2)
        assert len(calls) == 17
        assert len(set(calls)) == 17
        assert f == h_lambda(graph_patch(lambda u, v: u * u - v * v, SQ2),
                             0.5, 0.3, -0.2)


class TestIntrinsicCurvature:
    def test_brioschi_on_product_metric(self):
        # g = diag(1, x^2-ish): hyperbolic-like metric E=1, G=exp(2u)
        def metric(u, v):
            return 1.0, 0.0, math.exp(2.0 * u)

        # for ds^2 = du^2 + e^{2u} dv^2 the curvature is -1
        k = brioschi_curvature(metric, 0.2, 0.1, step=0.02)
        assert abs(k + 1.0) < 1e-6

    def test_pullback_metric_is_flat(self):
        for s in [
            graph_patch(lambda u, v: u ** 3 - 3 * u * v * v, SQ2),
            helicoid(),
            SurfacePatch(lambda u, v: Vec021(math.exp(u) * math.cos(v),
                                             math.exp(u) * math.sin(v), u),
                         Rect(-1.0, 1.0, -math.pi, math.pi)),
        ]:
            dom = s.domain

            def metric(uu, vv):
                f_u, f_v, *_ = patch_jets(s, uu, vv)
                return (deg_inner(f_u, f_u), deg_inner(f_u, f_v),
                        deg_inner(f_v, f_v))

            margin = 0.3 * dom.extent / 2
            for u, v in product(geometry._axis(dom.u0, dom.u1, 4, margin),
                                geometry._axis(dom.v0, dom.v1, 4, margin)):
                k = brioschi_curvature(metric, u, v,
                                       step=0.01 * max(dom.extent, 1.0))
                assert abs(k) < 1e-5


class TestGrid:
    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-1e3, 1e3), width=st.floats(5e-324, 1e3),
           frac=st.floats(0.0, 0.45), n=st.integers(2, 300))
    # a subnormal width makes the step underflow to zero, which linspace
    # handles by scaling k / (n - 1) instead
    @example(lo=0.0, width=5e-324, frac=0.0, n=4)
    @example(lo=0.0, width=1e-322, frac=0.25, n=7)
    def test_axis_is_linspace_with_exact_ends(self, lo, width, frac, n):
        hi = lo + width
        inset = frac * (hi - lo)
        xs = geometry._axis(lo, hi, n, inset)
        assert repr(xs) == repr(
            np.linspace(lo + inset, hi - inset, n).tolist())
        assert all(type(x) is float for x in xs)
        assert xs[0] == lo + inset and xs[-1] == hi - inset

    @pytest.mark.parametrize("sweep", [
        lambda n: geometry._axis(SQ2.u0, SQ2.u1, n),
        lambda n: grid_eval(WeierstrassData(parse_expr("exp(z)"),
                                            parse_expr("z"), domain=SQ2),
                            nu=3, nv=n),
        lambda n: find_zeros(parse_expr("z"), SQ2, grid=(3, n)),
        lambda n: verify_flat_zmc(
            iota_lift(graph_patch(lambda u, v: u * v, SQ2)), grid=(n, 3)),
    ], ids=["axis", "grid_eval", "find_zeros", "verify_flat_zmc"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_sweeps_need_two_nodes_per_axis(self, sweep, n):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            sweep(n)

    def test_rect_validation(self):
        with pytest.raises(ValueError):
            Rect(1.0, 1.0, 0.0, 2.0)


def test_graph_patch_from_expression():
    ast = parse_real_expr("u^2 - v^2")
    s = graph_patch(ast, SQ2)
    assert s.flat
    p = s(1.0, 2.0)
    assert p == Vec021(1.0, 2.0, -3.0)


class TestExactGraphJets:
    HEIGHTS = ["u^3-3*u*v^2+u*v", "exp(0.5*u)*sin(v)", "log(3+u)*v^2",
               "0.1*u^4-0.05*u^2+0.02*v^2", "u*v/(4+u^2)"]

    @pytest.mark.parametrize("src", HEIGHTS)
    def test_forms_match_finite_differences(self, src):
        ast = parse_real_expr(src)
        exact = graph_patch(ast, SQ2)
        fd = graph_patch(compile_real(ast), SQ2)
        assert exact.jets is not None and fd.jets is None
        d_u = compile_real(differentiate(ast, "u"))
        d_v = compile_real(differentiate(ast, "v"))
        for u, v in product(geometry._axis(SQ2.u0, SQ2.u1, 5, 0.3), repeat=2):
            a, b = fundamental_forms(exact, u, v), fundamental_forms(fd, u, v)
            for name in ("g11", "g12", "g22", "h11", "h12", "h22"):
                assert abs(getattr(a, name) - getattr(b, name)) < 1e-6
            assert (a.g11, a.g12, a.g22) == (1.0, 0.0, 1.0)
            # sigma(f_u) = 1 + F_u and sigma(f_v) = 1 + F_v on a graph
            lam = h_lambda(exact, 0.7, u, v)
            assert lam.h12 == a.h12 + 0.7 * (1 + d_u(u, v)) * (1 + d_v(u, v))

    def test_one_height_evaluation_per_forms_call(self, monkeypatch):
        ast = parse_real_expr("u^3-3*u*v^2+u*v")
        calls = []

        def counted(tree):
            fn = compile_real(tree)
            if tree != ast:
                return fn
            return lambda u, v: calls.append((u, v)) or fn(u, v)

        monkeypatch.setattr(geometry, "compile_real", counted)
        exact = graph_patch(ast, SQ2)
        fd = graph_patch(counted(ast), SQ2)
        fundamental_forms(exact, 0.3, -0.2)
        assert calls == [(0.3, -0.2)]
        calls.clear()
        fundamental_forms(fd, 0.3, -0.2)
        assert len(calls) == 17

    def test_boundary_margin_still_checked(self):
        s = graph_patch(parse_real_expr("u*v"), Rect(-1, 1, -1, 1))
        with pytest.raises(ValueError, match="domain boundary"):
            fundamental_forms(s, 0.99999, 0.0)

