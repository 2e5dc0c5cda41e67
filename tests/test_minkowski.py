"""Embedding into Minkowski 4-space and the flat-ZMC correspondence."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import isomin.geometry as geometry
from isomin.catalog import entries as catalog_entries, get
from isomin.expr import EvalError, parse_expr, parse_real_expr
from isomin.geometry import (Rect, SurfacePatch, Vec021, chart_patch,
                             default_step, deg_inner, fundamental_forms,
                             graph_patch, _stencil)
from isomin.minkowski import (FlatZmcReport, NonSpacelikeError, Vec4M,
                              gaussian_curvature_induced, iota_embed,
                              iota_lift, lorentz_inner, mean_curvature_vector,
                              normal_second_form, vanishing_h_locus,
                              verify_flat_zmc, _curvatures)
from isomin.weierstrass import WeierstrassData, surface_from_data

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def graph(src: str, domain: Rect = SQUARE):
    return graph_patch(parse_expr(src, variables=("u", "v"),
                                  allow_imaginary=False), domain)


def mink_chart(x1: str, x2: str, x3: str, x4: str, domain: Rect = SQUARE):
    """The R^4_1 chart (x1, x2, x3, x4)(u, v) of four expressions."""
    return chart_patch(tuple(map(parse_real_expr, (x1, x2, x3, x4))),
                       domain, Vec4M)


def locus(p, **kwargs):
    return vanishing_h_locus(lambda u, v: fundamental_forms(p, u, v),
                             p.domain, **kwargs)


class TestLorentzInner:
    def test_timelike_axis(self):
        assert lorentz_inner(Vec4M(1, 0, 0, 0), Vec4M(1, 0, 0, 0)) == -1.0

    def test_lightlike_direction(self):
        assert lorentz_inner(Vec4M(1, 0, 0, 1), Vec4M(1, 0, 0, 1)) == 0.0

    def test_spatial_vector(self):
        assert lorentz_inner(Vec4M(0, 1, 2, 3), Vec4M(0, 1, 2, 3)) == 14.0

    def test_vector_arithmetic(self):
        a = Vec4M(1, 2, 3, 4)
        b = Vec4M(0.5, 0.5, 0.5, 0.5)
        assert (a - b).x4 == 3.5
        assert (2.0 * b).x1 == 1.0
        assert (a / 2).x2 == 1.0
        assert (-a).x3 == -3.0
        assert a.sup_norm == 4.0


class TestIotaEmbed:
    def test_reference_point(self):
        assert iota_embed(Vec021(1, 2, 3)) == Vec4M(3, 1, 2, 3)

    def test_origin(self):
        assert iota_embed(Vec021(0, 0, 0)) == Vec4M(0, 0, 0, 0)

    def test_isometry_on_random_differences(self):
        """deg inner of differences transfers exactly: z terms cancel."""
        rng = random.Random(42)
        for _ in range(1000):
            p = Vec021(rng.uniform(-5, 5), rng.uniform(-5, 5),
                       rng.uniform(-5, 5))
            q = Vec021(rng.uniform(-5, 5), rng.uniform(-5, 5),
                       rng.uniform(-5, 5))
            d3 = p - q
            d4 = iota_embed(p) - iota_embed(q)
            assert deg_inner(d3, d3) == lorentz_inner(d4, d4)

    def test_lift_carries_domain(self):
        patch = graph("u*v")
        lifted = iota_lift(patch)
        assert lifted.domain == patch.domain
        p = lifted(0.5, 0.25)
        assert p == Vec4M(0.125, 0.5, 0.25, 0.125)


class TestMeanCurvatureVector:
    def test_harmonic_cubic_graph_is_zmc(self):
        lifted = iota_lift(graph("u^3 - 3*u*v^2"))
        for u, v in [(0.0, 0.0), (0.5, 0.3), (-0.7, -0.2)]:
            assert mean_curvature_vector(lifted, u, v).sup_norm < 1e-6

    def test_product_graph_is_zmc(self):
        lifted = iota_lift(graph("u*v"))
        for u, v in [(0.4, 0.4), (-0.5, 0.8)]:
            assert mean_curvature_vector(lifted, u, v).sup_norm < 1e-6

    def test_spacelike_slice_paraboloid(self):
        s = mink_chart("0", "u", "v", "u^2 + v^2", SQUARE)
        h = mean_curvature_vector(s, 0.0, 0.0)
        assert abs(h.x1) < 1e-9
        assert abs(h.x2) < 1e-9
        assert abs(h.x3) < 1e-9
        assert abs(h.x4 - 2.0) < 1e-9

    def test_lifted_paraboloid_has_null_mean_vector(self):
        lifted = iota_lift(graph("u^2 + v^2"))
        h = mean_curvature_vector(lifted, 0.0, 0.0)
        assert abs(h.x1 - 2.0) < 1e-8
        assert abs(h.x2) < 1e-8
        assert abs(h.x3) < 1e-8
        assert abs(h.x4 - 2.0) < 1e-8
        # nonzero as a vector, but of zero causal length
        assert abs(lorentz_inner(h, h)) < 1e-12

    def test_timelike_surface_rejected(self):
        s = mink_chart("u", "v", "0", "0", SQUARE)
        with pytest.raises(NonSpacelikeError):
            mean_curvature_vector(s, 0.0, 0.0)

    def test_normal_part_parallel_to_null_direction(self):
        """The whole normal second form lives on the line of (1,0,0,1)."""
        for src in ("u^3 - 3*u*v^2", "u*v", "u^2 + v^2"):
            lifted = iota_lift(graph(src))
            for u, v in [(0.3, -0.4), (-0.5, 0.5)]:
                (n_uu, n_uv, n_vv), _ = normal_second_form(lifted, u, v)
                for n in (n_uu, n_uv, n_vv):
                    assert abs(n.x2) < 1e-6
                    assert abs(n.x3) < 1e-6
                    assert abs(n.x1 - n.x4) < 1e-6


class TestInducedCurvature:
    def test_lifted_graphs_are_flat(self):
        for src in ("u^3 - 3*u*v^2", "u^2 + v^2", "u*v"):
            lifted = iota_lift(graph(src))
            for u, v in [(0.2, 0.3), (-0.4, -0.6)]:
                assert abs(gaussian_curvature_induced(lifted, u, v)) < 1e-5

    def test_flat_plane_in_slice(self):
        s = mink_chart("0", "u", "v", "0", SQUARE)
        assert abs(gaussian_curvature_induced(s, 0.1, 0.2)) < 1e-10

    def test_sphere_patch_curvature(self):
        r = 1.3
        s = mink_chart(
            "0", f"{r}*cos(u)*cos(v)", f"{r}*cos(u)*sin(v)", f"{r}*sin(u)",
            Rect(-0.5, 0.5, -0.5, 0.5))
        k = gaussian_curvature_induced(s, 0.0, 0.0)
        assert abs(k - 1.0 / r ** 2) < 0.02 / r ** 2


class TestVerifyFlatZmc:
    def test_all_minimal_catalog_surfaces_pass(self):
        for entry in catalog_entries():
            if not entry.is_minimal:
                continue
            report = verify_flat_zmc(iota_lift(entry.patch), grid=(5, 5))
            assert report.passed, \
                f"{entry.name}: H={report.max_mean_curvature:.2e}, " \
                f"K={report.max_abs_curvature:.2e}"

    def test_non_minimal_catalog_surfaces_fail_on_mean_vector(self):
        for entry in catalog_entries():
            if entry.is_minimal:
                continue
            report = verify_flat_zmc(iota_lift(entry.patch), grid=(5, 5))
            assert not report.passed, entry.name
            assert report.max_mean_curvature > report.tol, entry.name

    def test_slice_paraboloid_fails(self):
        s = mink_chart("0", "u", "v", "u^2 + v^2", SQUARE)
        report = verify_flat_zmc(s, grid=(5, 5))
        assert not report.passed
        assert report.max_mean_curvature > 1.0

    def test_timelike_region_reported_not_raised(self):
        s = mink_chart("u", "v", "0", "0", SQUARE)
        report = verify_flat_zmc(s, grid=(3, 3))
        assert not report.passed
        assert len(report.spacelike_violations) == 9

    def test_one_stencil_per_sample(self):
        chart = mink_chart("0.3*u*v", "u", "v", "u^2 - v^2", SQUARE)
        calls = []

        def counted(u, v):
            calls.append((u, v))
            return chart(u, v)

        verify_flat_zmc(SurfacePatch(counted, SQUARE), grid=(3, 3))
        assert len(calls) == 9 * 17

    def test_slice_lifts_are_flat_to_rounding(self):
        """The Gauss equation cancels x1 against x4 exactly in the slice."""
        for entry in catalog_entries():
            if not entry.is_minimal:
                continue
            report = verify_flat_zmc(iota_lift(entry.patch))
            assert report.max_abs_curvature < 1e-20, \
                f"{entry.name}: K={report.max_abs_curvature:.2e}"


# off the null slice, where the induced metric is curved
OFF_SLICE_CHARTS = {
    "sphere": (("0", "1.3*cos(u)*cos(v)", "1.3*cos(u)*sin(v)",
                "1.3*sin(u)"), Rect(-0.5, 0.5, -0.5, 0.5)),
    "paraboloid": (("0", "u", "v", "u^2 + v^2"), SQUARE),
    "tilted": (("0.3*u*v", "u", "v", "u^2 - v^2"), SQUARE),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(OFF_SLICE_CHARTS)),
       s=st.floats(-0.8, 0.8), t=st.floats(-0.8, 0.8))
def test_gauss_equation_matches_brioschi(name, s, t):
    coords, dom = OFF_SLICE_CHARTS[name]
    chart = mink_chart(*coords, dom)
    u = 0.5 * (dom.u0 + dom.u1) + 0.5 * s * (dom.u1 - dom.u0)
    v = 0.5 * (dom.v0 + dom.v1) + 0.5 * t * (dom.v1 - dom.v0)
    _, k = _curvatures(chart, u, v)
    oracle = gaussian_curvature_induced(chart, u, v)
    assert abs(oracle) > 0.05   # |K| >= 0.1 on these charts
    assert abs(k - oracle) < 1e-6


# surfaces with exact jets: lifts of a graph and of two catalog charts,
# and expression charts in and off the null slice
JET_SURFACES = {
    "graph": lambda: iota_lift(graph("u^3 - 3*u*v^2 + u*v")),
    "helicoid2": lambda: iota_lift(get("helicoid2").patch),
    "rotational_log": lambda: iota_lift(get("rotational_log").patch),
    "dlambda": lambda: iota_lift(get("dlambda_geodesic", lam=-0.5).patch),
    "tilted": lambda: mink_chart("0.3*u*v", "u", "v", "u^2 - v^2", SQUARE),
    "sphere": lambda: mink_chart(
        "0", "1.3*cos(u)*cos(v)", "1.3*cos(u)*sin(v)", "1.3*sin(u)",
        Rect(-0.5, 0.5, -0.5, 0.5)),
    "null lift": lambda: mink_chart(
        "exp(u)*sin(v)", "u", "v", "exp(u)*sin(v)", SQUARE),
}

# graphs of plain callables carry no jets of their own
CALLABLE_HEIGHTS = {
    "product": lambda u, v: u * v,
    "cubic": lambda u, v: u ** 3 - 3 * u * v * v + u * v,
    "exp-sin": lambda u, v: math.exp(0.5 * u) * math.sin(v),
    "log": lambda u, v: math.log(3 + u) * v * v,
}


class TestJets:
    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(JET_SURFACES)),
           s=st.floats(0.1, 0.9), t=st.floats(0.1, 0.9))
    def test_jets_match_stencil_on_evaluator(self, name, s, t):
        surface = JET_SURFACES[name]()
        dom = surface.domain
        u = dom.u0 + s * (dom.u1 - dom.u0)
        v = dom.v0 + t * (dom.v1 - dom.v0)
        exact = surface.jets(u, v)
        fd = _stencil(surface.evaluator, u, v, default_step(dom))[1:]
        for a, b in zip(exact, fd):
            assert (a - b).sup_norm <= 1e-6 * max(1.0, a.sup_norm)

    def test_jets_are_passed_by_keyword(self):
        # flat is SurfacePatch's third field: jets passed by position
        # would switch on the base-anchored stencil instead
        patches = (get("rotational_log").patch, surface_from_data(
            WeierstrassData(parse_expr("exp(3*z)"), parse_expr("1"))))
        for surface in (*map(iota_lift, patches),
                        mink_chart("0", "u", "v", "u*v")):
            assert surface.jets is not None and surface.flat is False
        for patch in patches:
            for u, v in [(0.3, -0.2), (-0.6, 0.45)]:
                assert repr(iota_lift(patch).jets(u, v)) == repr(
                    tuple(map(iota_embed, patch.jets(u, v))))

    def test_lift_maps_patch_jets_through_iota(self):
        patch = get("rotational_log").patch
        assert iota_lift(patch).jets(0.3, -0.2) == tuple(
            iota_embed(j) for j in patch.jets(0.3, -0.2))
        flat = graph_patch(lambda u, v: u * v, SQUARE)
        assert iota_lift(flat).jets(0.3, -0.2) == tuple(
            iota_embed(j) for j in _stencil(flat.evaluator, 0.3, -0.2,
                                            default_step(SQUARE))[1:])

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CALLABLE_HEIGHTS)),
           s=st.floats(0.05, 0.95), t=st.floats(0.05, 0.95))
    def test_patch_without_jets_takes_the_stencil(self, name, s, t):
        patch = graph_patch(CALLABLE_HEIGHTS[name], SQUARE)
        lifted = iota_lift(patch)
        u, v = -1.0 + 2.0 * s, -1.0 + 2.0 * t
        h = default_step(SQUARE)
        assert repr(geometry._jets(patch, u, v)) == repr(
            _stencil(patch.evaluator, u, v, h)[1:])
        assert repr(lifted.jets(u, v)) == repr(
            _stencil(lifted.evaluator, u, v, h)[1:])

    def test_surfaces_with_jets_take_no_stencil(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("stencil called on a surface with jets")

        monkeypatch.setattr(geometry, "_stencil", refuse)
        for entry in catalog_entries():
            verify_flat_zmc(iota_lift(entry.patch), grid=(3, 3))
        for make in JET_SURFACES.values():
            verify_flat_zmc(make(), grid=(3, 3))

    def test_chart_pole_raises_at_the_point(self):
        # 0/u differentiates to 0, so only evaluating the component itself
        # finds the pole, as the centre of a stencil would
        s = mink_chart("0", "u", "v", "u*v + 0/u", SQUARE)
        with pytest.raises(EvalError, match="division by zero at u=0.0"):
            s.jets(0.0, 0.2)


class TestVanishingHLocus:
    def test_cubic_isolated_origin(self):
        clusters = locus(graph("u^3 - 3*u*v^2"))
        assert len(clusters) == 1
        (cluster,) = clusters
        assert abs(cluster.point[0]) < 1e-12
        assert abs(cluster.point[1]) < 1e-12
        assert cluster.isolated

    def test_constant_form_empty(self):
        assert locus(graph("u*v"), grid=(17, 17)) == []

    def test_plane_flagged_as_region(self):
        clusters = locus(graph("0"), grid=(17, 17))
        assert len(clusters) == 1
        assert clusters[0].node_count == 17 * 17
        assert not clusters[0].isolated


# the vector records are tuples underneath; their one shared arithmetic
# (geometry._componentwise) must stay componentwise and never fall
# through to concatenation or repetition

@pytest.mark.parametrize("vec, n", [(Vec021, 3), (Vec4M, 4)])
def test_vector_arithmetic_is_componentwise(vec, n):
    a = vec(*(float(k + 1) for k in range(n)))
    b = vec(*(0.5 * (k - 1) for k in range(n)))
    assert a + b == vec(*(x + y for x, y in zip(a, b)))
    assert a - b == vec(*(x - y for x, y in zip(a, b)))
    for s in (2, 2.5, -0.0, True):
        assert a * s == s * a == vec(*(x * s for x in a))
    assert a / 4 == vec(*(x / 4 for x in a))
    assert -b == vec(*(-x for x in b))
    for result in (a + b, a - b, a * 2, 2 * a, a / 4, -a):
        assert type(result) is vec and len(result) == n
    assert repr(-0.0 * a) == repr(vec(*(-0.0,) * n))
    # negation flips the sign of a zero, as -x does
    assert repr(-vec(*(0.0,) * n)) == repr(vec(*(-0.0,) * n))
    # a sum or difference takes a vector of the same type only
    for other in (tuple(b), Vec021(1.0, 2.0, 3.0) if n == 4
                  else Vec4M(1.0, 2.0, 3.0, 4.0)):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a - other
