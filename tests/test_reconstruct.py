"""Rebuilding graphs from prescribed second fundamental forms."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import isomin.reconstruct as rc
from isomin.expr import (BinOp, Call, EvalError, Neg, Var, compile_real,
                         differentiate, parse_real_expr, primitive, to_source)
from isomin.geometry import Rect, _axis, fundamental_forms, mean_curvature
from isomin.quadrature import IntegrationError
from isomin.reconstruct import (CodazziViolationError, GridMismatchError,
                                PrescribedForms, codazzi_check,
                                integrate_hessian, surface_from_forms)
from test_expr import MEMBERS, _magnitude

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def exprs(h11: str, h12: str, h22: str,
          domain: Rect = SQUARE) -> PrescribedForms:
    return PrescribedForms.from_expressions(h11, h12, h22, domain)


def sampled(h11: str, h12: str, h22: str, n: int,
            domain: Rect = SQUARE) -> PrescribedForms:
    """Grid input: the three expressions at the nodes of an n x n lattice."""
    us = _axis(domain.u0, domain.u1, n)
    vs = _axis(domain.v0, domain.v1, n)
    fns = [compile_real(parse_real_expr(h)) for h in (h11, h12, h22)]
    return PrescribedForms.from_grid(
        *([[fn(u, v) for v in vs] for u in us] for fn in fns), domain)


class TestPrescribedForms:
    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            PrescribedForms(SQUARE)
        with pytest.raises(ValueError):
            PrescribedForms(SQUARE,
                            exprs=(parse_real_expr("1"),) * 3,
                            grids=(np.zeros((3, 3)),) * 3)

    def test_grid_shape_validation(self):
        with pytest.raises(ValueError):
            PrescribedForms.from_grid(np.zeros((3, 3)), np.zeros((3, 4)),
                                      np.zeros((3, 3)), SQUARE)
        with pytest.raises(ValueError):
            PrescribedForms.from_grid(np.zeros(5), np.zeros(5), np.zeros(5),
                                      SQUARE)

    def test_modes_reported(self):
        forms = exprs("1", "0", "-1")
        assert forms.exprs is not None and forms.grids is None
        g = np.zeros((4, 4))
        forms = PrescribedForms.from_grid(g, g, g, SQUARE)
        assert forms.grids is not None and forms.exprs is None


class TestCodazziCheck:
    def test_constant_form_passes(self):
        report = codazzi_check(exprs("1", "0", "-1"))
        assert report.passed
        assert report.max_residual == 0.0
        assert report.mode == "symbolic"

    def test_linear_incompatible_fails(self):
        report = codazzi_check(exprs("v", "0", "0"))
        assert not report.passed
        assert abs(report.max_residual - 1.0) < 1e-12

    def test_harmonic_cubic_passes(self):
        report = codazzi_check(exprs("6*u", "-6*v", "-6*u"))
        assert report.passed
        assert report.max_residual < 1e-7

    def test_grid_mode_uses_finite_differences(self):
        us = np.linspace(-1, 1, 17)
        vs = np.linspace(-1, 1, 17)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        good = PrescribedForms.from_grid(6 * uu, -6 * vv, -6 * uu, SQUARE)
        report = codazzi_check(good)
        assert report.mode == "grid-fd"
        assert report.passed

        bad = PrescribedForms.from_grid(vv, np.zeros_like(uu),
                                        np.zeros_like(uu), SQUARE)
        report = codazzi_check(bad)
        assert not report.passed
        assert abs(report.max_residual - 1.0) < 1e-9


class TestIntegrateHessian:
    @pytest.mark.parametrize("h,potential", [
        (("1", "0", "-1"), lambda u, v: 0.5 * (u * u - v * v)),
        (("0", "1", "0"), lambda u, v: u * v),
        (("2", "0", "2"), lambda u, v: u * u + v * v),
    ])
    def test_constant_forms_integrate_exactly(self, h, potential):
        vals = integrate_hessian(sampled(*h, 9))
        us = np.linspace(-1, 1, 9)
        exact = np.array([[potential(u, v) for v in us] for u in us])
        assert np.abs(vals - exact).max() < 1e-14

    def test_off_center_node_base(self):
        forms = sampled("1", "0", "-1", 5, Rect(0.0, 2.0, 0.0, 2.0))
        vals = integrate_hessian(forms, base=(1.0, 1.0))
        us = np.linspace(0, 2, 5)
        exact = np.array([[0.5 * ((u - 1) ** 2 - (v - 1) ** 2)
                           for v in us] for u in us])
        assert np.abs(vals - exact).max() < 1e-14

    def test_base_must_sit_on_node(self):
        with pytest.raises(ValueError):
            integrate_hessian(sampled("1", "0", "-1", 5), base=(0.3, 0.0))

    def test_expression_input_is_refused(self):
        with pytest.raises(ValueError, match="grid input"):
            integrate_hessian(exprs("1", "0", "-1"))

    def test_incompatible_grid_raises(self):
        us = np.linspace(-1, 1, 9)
        uu, vv = np.meshgrid(us, us, indexing="ij")
        forms = PrescribedForms.from_grid(vv, np.zeros_like(vv),
                                          np.zeros_like(vv), SQUARE)
        with pytest.raises(GridMismatchError):
            integrate_hessian(forms)

    def test_smooth_compatible_grid_at_matching_tol(self):
        """Trapezoid L orders agree to discretization order, not to 1e-8."""
        us = np.linspace(-1, 1, 33)
        uu, vv = np.meshgrid(us, us, indexing="ij")
        forms = PrescribedForms.from_grid(
            6 * uu * vv ** 2, 6 * uu ** 2 * vv, 2 * uu ** 3, SQUARE)
        # potential u^3 v^2: orders differ by O(spacing^2)
        vals = integrate_hessian(forms, tol=1e-2)
        exact = uu ** 3 * vv ** 2
        assert np.abs(vals - exact).max() < 5e-3


class TestSurfaceFromForms:
    def test_rejects_incompatible_before_integrating(self):
        with pytest.raises(CodazziViolationError) as err:
            surface_from_forms(exprs("v", "0", "0"))
        assert "1.000e+00" in str(err.value)
        assert err.value.report == codazzi_check(exprs("v", "0", "0"))

    def test_simple_product_roundtrip(self):
        patch = surface_from_forms(exprs("0", "1", "0"))
        assert patch.flat
        for u, v in [(0.5, 0.5), (-0.3, 0.8)]:
            forms = fundamental_forms(patch, u, v)
            assert abs(forms.h11) < 1e-6
            assert abs(forms.h12 - 1.0) < 1e-6
            assert abs(forms.h22) < 1e-6
            assert abs(forms.g11 - 1.0) < 1e-9
            assert abs(forms.g12) < 1e-9

    def test_harmonic_cubic_roundtrip(self):
        patch = surface_from_forms(exprs("6*u", "-6*v", "-6*u"))
        for u, v in [(0.4, 0.1), (-0.5, -0.5), (0.2, 0.7)]:
            forms = fundamental_forms(patch, u, v)
            assert abs(forms.h11 - 6 * u) < 1e-5
            assert abs(forms.h12 - (-6 * v)) < 1e-5
            assert abs(forms.h22 - (-6 * u)) < 1e-5

    def test_trace_free_input_gives_minimal_graph(self):
        # Hessian of the harmonic quartic u^4 - 6 u^2 v^2 + v^4
        patch = surface_from_forms(exprs("12*u^2 - 12*v^2", "-24*u*v",
                                         "12*v^2 - 12*u^2"))
        for u, v in [(0.3, 0.3), (-0.6, 0.4)]:
            forms = fundamental_forms(patch, u, v)
            assert abs(mean_curvature(forms)) < 1e-6

    def test_grid_mode_interpolates_node_values(self):
        us = np.linspace(-1, 1, 9)
        uu, vv = np.meshgrid(us, us, indexing="ij")
        forms = PrescribedForms.from_grid(
            np.full_like(uu, 2.0), np.zeros_like(uu), np.full_like(uu, 2.0),
            SQUARE)
        patch = surface_from_forms(forms)
        nodes = integrate_hessian(forms)
        for i in (0, 4, 8):
            for j in (2, 6):
                p = patch(float(us[i]), float(us[j]))
                assert abs(p.z - nodes[i][j]) < 1e-12

    def test_explicit_base_point(self):
        patch = surface_from_forms(exprs("1", "0", "-1"), base=(-1.0, -1.0))
        # zero seed at the corner: F = ((u+1)^2 - (v+1)^2) / 2
        p = patch(0.5, 0.25)
        assert abs(p.z - 0.5 * (1.5 ** 2 - 1.25 ** 2)) < 1e-12


def random_polynomial_potential(rng: random.Random):
    """Source string of a random degree <= 4 polynomial in u, v."""
    terms = []
    for i in range(5):
        for j in range(5 - i):
            if rng.random() < 0.4:
                c = rng.uniform(-1.0, 1.0)
                terms.append(f"({c!r})" + "*u" * i + "*v" * j)
    if not terms:
        terms = ["0.5*u*u*v"]
    return " + ".join(terms)


class TestRandomRoundtrips:
    def test_random_hessians_reconstruct(self):
        """Seeded sweep: Hessian of a random potential survives the trip."""
        rng = random.Random(99)
        for trial in range(8):
            potential = parse_real_expr(random_polynomial_potential(rng))
            pu = differentiate(potential, "u")
            pv = differentiate(potential, "v")
            h11 = differentiate(pu, "u")
            h12 = differentiate(pu, "v")
            h22 = differentiate(pv, "v")
            forms = PrescribedForms(SQUARE, exprs=(h11, h12, h22))
            assert codazzi_check(forms).passed
            patch = surface_from_forms(forms)
            h11f, h12f, h22f = (compile_real(e) for e in (h11, h12, h22))
            for _ in range(4):
                u = rng.uniform(-0.9, 0.9)
                v = rng.uniform(-0.9, 0.9)
                got = fundamental_forms(patch, u, v)
                assert abs(got.h11 - h11f(u, v)) < 1e-5, f"trial {trial}"
                assert abs(got.h12 - h12f(u, v)) < 1e-5, f"trial {trial}"
                assert abs(got.h22 - h22f(u, v)) < 1e-5, f"trial {trial}"

    def test_reconstructed_height_matches_potential(self):
        """The height itself equals the potential minus its base jet."""
        rng = random.Random(123)
        for _ in range(4):
            src = random_polynomial_potential(rng)
            potential = parse_real_expr(src)
            pf = compile_real(potential)
            pu = compile_real(differentiate(potential, "u"))
            pv = compile_real(differentiate(potential, "v"))
            h11 = differentiate(differentiate(potential, "u"), "u")
            h12 = differentiate(differentiate(potential, "u"), "v")
            h22 = differentiate(differentiate(potential, "v"), "v")
            forms = PrescribedForms(SQUARE, exprs=(h11, h12, h22))
            patch = surface_from_forms(forms)
            p0, pu0, pv0 = pf(0, 0), pu(0, 0), pv(0, 0)
            for u, v in [(0.7, -0.7), (-0.9, 0.3), (0.1, 0.9)]:
                expected = pf(u, v) - p0 - pu0 * u - pv0 * v
                assert abs(patch(u, v).z - expected) < 1e-9


# closed-form heights against the quadrature -------------------------------

def _swap_uv(node):
    """The tree with u and v exchanged."""
    if isinstance(node, Var):
        return Var({"u": "v", "v": "u"}.get(node.name, node.name))
    if isinstance(node, BinOp):
        return BinOp(node.op, _swap_uv(node.lhs), _swap_uv(node.rhs))
    if isinstance(node, (Neg, Call)):
        return node._replace(arg=_swap_uv(node.arg))
    return node


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(h11=MEMBERS, h12=MEMBERS, h22=MEMBERS.map(_swap_uv),
       base=st.tuples(_UNIT, _UNIT), at=st.tuples(_UNIT, _UNIT))
def test_closed_form_heights_equal_quadrature(h11, h12, h22, base, at):
    # the identity holds term by term for any data, compatible or not
    exprs_ = (h11, h12, h22)
    closed = rc._closed_form_height(exprs_, base)
    assert closed is not None, [to_source(h) for h in exprs_]
    try:
        want = rc._quadrature_height(exprs_, base)(*at)
    except IntegrationError:
        assume(False)
    got = closed(*at)
    # the bound, set from the rounding of the primitives' evaluations:
    # 1e-12 of their magnitudes (over 4000 ulps), plus the quadrature's
    # absolute tolerance of 1e-10 on each of its three integrals
    (u0, v0), (u, v) = base, at
    p11, p12, p22 = (primitive(h11, "u"), primitive(h12, "u"),
                     primitive(h22, "v"))
    q11, q22 = primitive(p11, "u"), primitive(p22, "v")
    terms = [(q11, u, v0, 1.0), (q11, u0, v0, 1.0), (p11, u0, v0, u - u0),
             (p12, u, v0, v - v0), (p12, u0, v0, v - v0),
             (q22, u, v, 1.0), (q22, u, v0, 1.0), (p22, u, v0, v - v0)]
    scale = sum(abs(w) * _magnitude(t, {"u": complex(x), "v": complex(y)})
                for t, x, y, w in terms)
    assert abs(got - want) <= 1e-12 * scale + 4e-10


def test_elementary_input_integrates_without_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(rc, "adaptive_quad", refuse)
    patch = surface_from_forms(exprs("12*u^2 - 12*v^2", "-24*u*v",
                                     "12*v^2 - 12*u^2"))
    # u^4 - 6 u^2 v^2 + v^4 with a zero jet at the centre
    assert abs(patch(0.5, -0.25).z - (0.0625 - 0.09375 + 0.00390625)) < 1e-15
    patch = surface_from_forms(exprs("exp(u+v)", "exp(u+v)", "exp(u+v)"),
                               base=(0.0, 0.0))
    assert abs(patch(0.3, -0.7).z
               - (math.exp(-0.4) - 1.0 - 0.3 + 0.7)) < 1e-15


def test_input_outside_the_class_keeps_quadrature(monkeypatch):
    calls = []
    quad = rc.adaptive_quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(rc, "adaptive_quad", counted)
    # the Hessian of (u+2) log(u+2)
    patch = surface_from_forms(exprs("1/(u+2)", "0", "0"))
    x = 0.5
    want = (x + 2) * math.log(x + 2) - 2 * math.log(2) - (math.log(2) + 1) * x
    assert abs(patch(x, 0.25).z - want) < 1e-12
    assert calls


def test_closed_form_failure_names_the_height_point():
    # exp(800 u) overflows beyond u = 0.887; the quadrature fails there too
    forms = exprs("640000*exp(800*u)", "0", "0")
    patch = surface_from_forms(forms, base=(0.0, 0.0))
    assert abs(patch(0.5, 0.0).z - (math.exp(400) - 1 - 400)) \
        < 1e-12 * math.exp(400)
    with pytest.raises(EvalError) as err:
        patch(0.9, -0.5)
    assert str(err.value) == ("height at (0.9, -0.5) from base (0.0, 0.0): "
                              "overflow at u=0.9, v=0.0")


# the list-based grid path against the numpy code it replaced --------------

def _np_codazzi(grids, dom):
    h11, h12, h22 = (np.asarray(g, dtype=float) for g in grids)
    nu, nv = h11.shape
    du = (dom.u1 - dom.u0) / (nu - 1)
    dv = (dom.v1 - dom.v0) / (nv - 1)
    r1 = ((h11[1:-1, 2:] - h11[1:-1, :-2]) / (2 * dv)
          - (h12[2:, 1:-1] - h12[:-2, 1:-1]) / (2 * du))
    r2 = ((h12[1:-1, 2:] - h12[1:-1, :-2]) / (2 * dv)
          - (h22[2:, 1:-1] - h22[:-2, 1:-1]) / (2 * du))
    res = np.abs(r1) + np.abs(r2)
    if res.size == 0:
        return 0.0, (dom.u0, dom.v0)
    i, j = np.unravel_index(int(np.argmax(res)), res.shape)
    return float(res.max()), (_axis(dom.u0, dom.u1, nu)[i + 1],
                              _axis(dom.v0, dom.v1, nv)[j + 1])


def _np_integrate(grids, dom, ib, jb, tol):
    h11, h12, h22 = (np.asarray(g, dtype=float) for g in grids)
    nu, nv = h11.shape
    du = (dom.u1 - dom.u0) / (nu - 1)
    dv = (dom.v1 - dom.v0) / (nv - 1)

    def from_base(arr, axis, d, b):
        n = arr.shape[axis]
        mids = 0.5 * d * (np.take(arr, range(1, n), axis)
                          + np.take(arr, range(0, n - 1), axis))
        p = np.zeros_like(arr)
        csum = np.cumsum(mids, axis=axis)
        if arr.ndim == 1:
            p[1:] = csum
            return p - p[b]
        if axis == 0:
            p[1:, :] = csum
            return p - p[b:b + 1, :]
        p[:, 1:] = csum
        return p - p[:, b:b + 1]

    fu_row = from_base(h11[:, jb], 0, du, ib)
    fv_row = from_base(h12[:, jb], 0, du, ib)
    f_row = from_base(fu_row, 0, du, ib)
    fv_a = fv_row[:, None] + from_base(h22, 1, dv, jb)
    f_a = f_row[:, None] + from_base(fv_a, 1, dv, jb)
    fv_col = from_base(h22[ib, :], 0, dv, jb)
    fu_col = from_base(h12[ib, :], 0, dv, jb)
    f_col = from_base(fv_col, 0, dv, jb)
    fu_b = fu_col[None, :] + from_base(h11, 0, du, ib)
    f_b = f_col[None, :] + from_base(fu_b, 0, du, ib)
    gap = float(np.abs(f_a - f_b).max())
    if gap > 10.0 * tol:
        return f"disagree by {gap:.3e} ("
    return 0.5 * (f_a + f_b)


def _np_bilinear(grid, rect, u, v):
    nu, nv = grid.shape
    du = (rect.u1 - rect.u0) / (nu - 1)
    dv = (rect.v1 - rect.v0) / (nv - 1)
    s = (u - rect.u0) / du
    t = (v - rect.v0) / dv
    i = min(max(int(s), 0), nu - 2)
    j = min(max(int(t), 0), nv - 2)
    a, b = s - i, t - j
    return float((1 - a) * (1 - b) * grid[i, j] + a * (1 - b) * grid[i + 1, j]
                 + (1 - a) * b * grid[i, j + 1] + a * b * grid[i + 1, j + 1])


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0, 1e-300, -7.5,
                     math.inf, math.nan]),
    st.floats(-10.0, 10.0))
_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def _grid_case(draw):
    nu, nv = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    entries = _ZEROS if draw(st.booleans()) else _ENTRIES
    grids = [[[draw(entries) for _ in range(nv)] for _ in range(nu)]
             for _ in range(3)]
    dom = draw(st.sampled_from([SQUARE, Rect(0.0, 2.0, -0.5, 0.25),
                                Rect(-3.0, -1.0, 0.0, 1.0)]))
    ib, jb = draw(st.integers(0, nu - 1)), draw(st.integers(0, nv - 1))
    tol = draw(st.sampled_from([1e-8, 1.0, 1e300]))
    return grids, dom, ib, jb, tol


@settings(max_examples=300, deadline=None)
@given(case=_grid_case(), ab=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_grid_path_matches_numpy_by_repr(case, ab):
    grids, dom, ib, jb, tol = case
    forms = PrescribedForms.from_grid(*grids, dom)
    assert repr(forms.grids) == repr(tuple(
        np.asarray(g, dtype=float).tolist() for g in grids))
    assert repr(forms) == repr(PrescribedForms.from_grid(
        *(np.asarray(g) for g in grids), dom))
    report = codazzi_check(forms, tol=tol)
    with np.errstate(all="ignore"):  # inf and nan entries
        assert repr((report.max_residual, report.worst_point)) \
            == repr(_np_codazzi(grids, dom))
        nu, nv = len(grids[0]), len(grids[0][0])
        base = (_axis(dom.u0, dom.u1, nu)[ib], _axis(dom.v0, dom.v1, nv)[jb])
        want = _np_integrate(grids, dom, ib, jb, tol)
    try:
        got = integrate_hessian(forms, base, tol=tol)
    except GridMismatchError as err:
        assert isinstance(want, str) and want in str(err)
        return
    assert repr(got) == repr(want.tolist())
    u = dom.u0 + ab[0] * (dom.u1 - dom.u0)
    v = dom.v0 + ab[1] * (dom.v1 - dom.v0)
    with np.errstate(all="ignore"):
        assert repr(rc._bilinear(got, dom)(u, v)) \
            == repr(_np_bilinear(want, dom, u, v))


@settings(max_examples=200, deadline=None)
@given(line=st.lists(_ZEROS | _ENTRIES, min_size=1, max_size=8),
       d=st.sampled_from([0.25, 2.0, -0.5]), data=st.data())
def test_trapezoid_line_matches_cumsum_by_repr(line, d, data):
    b = data.draw(st.integers(0, len(line) - 1))
    arr = np.asarray(line)
    with np.errstate(all="ignore"):
        p = np.zeros_like(arr)
        p[1:] = np.cumsum(0.5 * d * (arr[1:] + arr[:-1]))
        want = (p - p[b]).tolist()
    assert repr(rc._from_base(line, d, b)) == repr(want)


@pytest.mark.parametrize("rows", [
    [[0.0, 1.0], [2.0]],
    [[0.0, 1.0], [2.0, 3.0, 4.0]],
    [1.0, 2.0],
    np.zeros(5),
    np.zeros((3, 3, 1)),
])
def test_from_grid_rejects_other_shapes(rows):
    with pytest.raises(ValueError):
        PrescribedForms.from_grid(rows, rows, rows, SQUARE)
