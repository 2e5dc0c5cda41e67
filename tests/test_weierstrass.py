"""Generation of minimal surfaces from holomorphic pairs.

Closed-form comparisons anchor both sides at the base parameter: the
generator is a path integral from the base point, so it reproduces any
antiderivative-style closed form only up to that form's value at the
base.  Subtracting the base value from both sides removes the ambiguity
without touching anything the geometry can see.
"""

import cmath
import contextlib
import dataclasses
import math
import os
import random
import signal
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import isomin.weierstrass as weierstrass
from isomin.expr import BinOp, Call, Lit, Var, compile_expr, differentiate, \
    parse_expr
from isomin.geometry import (Rect, _axis, default_step, fundamental_forms,
                             mean_curvature, patch_jets)
from isomin.minkowski import _curvatures, iota_lift
from isomin.quadrature import IntegrationError
from isomin.weierstrass import (WeierstrassData, det_h_from_data, grid_eval,
                                integrate_holomorphic, metric_at,
                                second_form_from_data, surface_from_data)

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def data(f_src: str, g_src: str, domain: Rect = SQUARE) -> WeierstrassData:
    return WeierstrassData(parse_expr(f_src), parse_expr(g_src),
                           domain=domain)


def scaled(d: WeierstrassData, theta: float) -> WeierstrassData:
    """Data (r F, r G), r = _rotor(theta), as trees: their theta = 0
    closed forms are those of the theta member of d's family; theta = 0
    modulo 2*pi returns d itself."""
    if theta % (2.0 * math.pi) == 0.0:
        return d
    r = Lit(weierstrass._rotor(theta))
    return WeierstrassData(BinOp("*", r, d.F), BinOp("*", r, d.G),
                           d.base, d.domain)


def anchored(closed, base: complex):
    """Shift a closed form so it vanishes at the base parameter."""
    bx, by, bz = closed(base.real, base.imag)

    def shifted(u: float, v: float):
        x, y, z = closed(u, v)
        return x - bx, y - by, z - bz

    return shifted


# closed forms of the classical trio and their conjugates
SADDLE = ("z", "1", lambda u, v: (0.5 * (u * u - v * v), u * v, u))
SADDLE_CONJ = ("z", "1", lambda u, v: (u * v, -0.5 * (u * u - v * v), v))
LOG_SHEET = ("exp(z)", "1",
             lambda u, v: (math.exp(u) * math.cos(v),
                           math.exp(u) * math.sin(v), u))
LOG_SHEET_CONJ = ("exp(z)", "1",
                  lambda u, v: (math.exp(u) * math.sin(v),
                                -math.exp(u) * math.cos(v), v))
FLAT_GRAPH = ("1", "z", lambda u, v: (u, v, 0.5 * (u * u - v * v)))
# the formula yields (v, -u, uv); the display (u, -v, uv) is the same
# graph z = -xy with the parameters swapped
FLAT_GRAPH_CONJ = ("1", "z", lambda u, v: (v, -u, u * v))


class TestClosedForms:
    @pytest.mark.parametrize("f_src,g_src,closed,theta", [
        (*SADDLE, 0.0),
        (*SADDLE_CONJ, math.pi / 2),
        (*LOG_SHEET, 0.0),
        (*LOG_SHEET_CONJ, math.pi / 2),
        (*FLAT_GRAPH, 0.0),
        (*FLAT_GRAPH_CONJ, math.pi / 2),
    ])
    def test_matches_closed_form_on_grid(self, f_src, g_src, closed, theta):
        d = data(f_src, g_src)
        ref = anchored(closed, d.base)
        us, vs, rows = grid_eval(d, theta, nu=33, nv=33)
        worst = 0.0
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                x, y, z = ref(u, v)
                gx, gy, gz = rows[j][i]
                worst = max(worst, abs(gx - x), abs(gy - y), abs(gz - z))
        assert worst < 1e-8, f"sup deviation {worst:.3e} for {f_src}, {g_src}"

    def test_saddle_spot_value(self):
        patch = surface_from_data(
            data(*SADDLE[:2], Rect(-3.0, 3.0, -3.0, 3.0)))
        p = patch(1.0, 2.0)
        assert abs(p.x - (-1.5)) < 1e-10
        assert abs(p.y - 2.0) < 1e-10
        assert abs(p.z - 1.0) < 1e-10

    def test_flat_graph_spot_value(self):
        patch = surface_from_data(
            data(*FLAT_GRAPH[:2], Rect(-3.0, 3.0, -3.0, 3.0)))
        p = patch(2.0, 1.0)
        assert abs(p.x - 2.0) < 1e-10
        assert abs(p.y - 1.0) < 1e-10
        assert abs(p.z - 1.5) < 1e-10

    def test_log_sheet_conjugate_spot_value(self):
        # the classical display gives (1, 0, pi/2) at w = i*pi/2; the
        # path integral from 0 differs from it by the display's value
        # at 0, which is (0, -1, 0)
        d = data("exp(z)", "1", Rect(-1.0, 1.0, -2.0, 2.0))
        patch = surface_from_data(d, math.pi / 2)
        p = patch(0.0, math.pi / 2)
        display = (1.0, 0.0, math.pi / 2)
        at_base = (0.0, -1.0, 0.0)
        assert abs(p.x - (display[0] - at_base[0])) < 1e-10
        assert abs(p.y - (display[1] - at_base[1])) < 1e-10
        assert abs(p.z - (display[2] - at_base[2])) < 1e-10

    def test_conjugate_flat_graph_is_same_point_set(self):
        # generated conjugate satisfies the display's implicit equation
        patch = surface_from_data(data(*FLAT_GRAPH[:2]), math.pi / 2)
        for u, v in [(0.3, 0.7), (-0.8, 0.2), (0.5, -0.5), (1.0, 1.0)]:
            p = patch(u, v)
            assert abs(p.z - (-p.x * p.y)) < 1e-10


class TestFamilyMachinery:
    def test_angle_normalisation(self):
        rotor = weierstrass._rotor
        assert abs(rotor(2.0 * math.pi + 0.5) - cmath.exp(-0.5j)) < 1e-15
        assert abs(rotor(-math.pi / 2) - cmath.exp(-1.5j * math.pi)) < 1e-15
        assert abs(rotor(math.pi / 2) - (-1j)) < 1e-15
        assert rotor(2.0 * math.pi) == rotor(0.0) == 1.0

    def test_base_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            WeierstrassData(parse_expr("z"), parse_expr("1"),
                            base=5.0 + 0j, domain=SQUARE)

    def test_grid_eval_matches_pointwise(self):
        d = data("exp(z)", "z")
        us, vs, rows = grid_eval(d, 0.7, nu=9, nv=9)
        patch = surface_from_data(d, 0.7)
        for i in (0, 4, 8):
            for j in (0, 3, 8):
                p = patch(us[i], vs[j])
                x, y, z = rows[j][i]
                assert abs(p.x - x) < 1e-11
                assert abs(p.y - y) < 1e-11
                assert abs(p.z - z) < 1e-11

    def test_integrate_holomorphic_exact_segment(self):
        val = integrate_holomorphic(parse_expr("z^2"), 0j, 1 + 1j)
        assert abs(val - (1 + 1j) ** 3 / 3) < 1e-12

    def test_theta_pi_is_pointwise_negative(self):
        d = data("exp(z)", "z")
        f0 = surface_from_data(d, 0.0)
        fpi = surface_from_data(d, math.pi)
        for u, v in [(0.4, -0.3), (-0.9, 0.8), (0.0, 0.0)]:
            a, b = f0(u, v), fpi(u, v)
            assert abs(a.x + b.x) < 1e-10
            assert abs(a.y + b.y) < 1e-10
            assert abs(a.z + b.z) < 1e-10


@contextlib.contextmanager
def _split_into(blocks: int):
    """Force grid_eval to cut its rows into this many blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weierstrass, "_block_count", lambda vertices: blocks)
        yield


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def grid_error(d, nu, nv, blocks):
    """The exception grid_eval raises with the rows cut into blocks."""
    with _split_into(blocks), pytest.raises(Exception) as info:
        grid_eval(d, 0.3, nu=nu, nv=nv)
    assert_no_child_left()
    return info.value


POLY = st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=4).map(
    lambda cs: "+".join(f"({c.real!r}+{c.imag!r}*i)*z^{k}"
                        for k, c in enumerate(cs)))
EXP = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(
    lambda ab: f"exp(({ab[0]!r}+{ab[1]!r}*i)*z)")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestSplitRows:
    """Rows cut into blocks that forked children integrate."""

    @settings(max_examples=15, deadline=None)
    @given(f_src=st.one_of(POLY, EXP), g_src=st.one_of(POLY, EXP),
           theta=st.floats(-4, 4), nu=st.integers(2, 5),
           nv=st.integers(2, 9), blocks=st.integers(2, 4))
    def test_split_rows_equal_the_serial_rows(self, f_src, g_src, theta,
                                              nu, nv, blocks):
        d = WeierstrassData(parse_expr(f_src), parse_expr(g_src),
                            base=0.2 - 0.1j, domain=SQUARE)
        with _split_into(blocks):
            us, vs, rows = grid_eval(d, theta, nu=nu, nv=nv, quad_tol=1e-9)
        assert_no_child_left()
        serial = weierstrass._rows(d, weierstrass._rotor(theta), us, vs,
                                   1e-9)
        assert repr(rows) == repr(serial)

    @staticmethod
    def poles_at(rows_):
        """Data whose F has a pole at u = 0.5 on each of the given rows
        of a 5 x 7 grid: the segment that ends there cannot converge."""
        vs = _axis(SQUARE.v0, SQUARE.v1, 7)
        factors = "*".join(f"(z-(0.5+{vs[j]!r}*i))" for j in rows_)
        return data(f"1/({factors})", "z")

    @pytest.mark.parametrize("rows_", [(5,), (3, 5), (1, 5), (1,)],
                             ids=["child", "two-children", "parent-and-child",
                                  "parent"])
    def test_error_is_the_lowest_rows_serial_error(self, rows_):
        # 7 rows in 3 blocks: rows 0-1 in the parent, 2-3 and 4-6 in
        # children
        d = self.poles_at(rows_)
        serial = grid_error(d, 5, 7, 1)
        split = grid_error(d, 5, 7, 3)
        assert type(split) is type(serial) is IntegrationError
        assert str(split) == str(serial)
        assert f"{_axis(SQUARE.v0, SQUARE.v1, 7)[rows_[0]]!r})" in str(split)

    def test_child_that_dies_is_rerun(self):
        d = data("exp(z)", "z^2")
        parent = os.getpid()
        rows_ = weierstrass._rows

        def dying(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return rows_(*args)

        with _split_into(3), pytest.MonkeyPatch.context() as mp:
            mp.setattr(weierstrass, "_rows", dying)
            us, vs, rows = grid_eval(d, 0.7, nu=4, nv=6)
        assert_no_child_left()
        assert repr(rows) == repr(grid_eval(d, 0.7, nu=4, nv=6)[2])

    def test_failing_childs_block_is_rerun_here(self):
        # 7 rows in 3 blocks, the pole on row 3: the first child fails,
        # and the parent integrates its block again after its own
        d = self.poles_at((3,))
        serial = grid_error(d, 5, 7, 1)
        rows_ = weierstrass._rows
        parent = os.getpid()
        here = []

        def counted(data_, rot, us, vs, tol):
            if os.getpid() == parent:
                here.append(vs)
            return rows_(data_, rot, us, vs, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weierstrass, "_rows", counted)
            split = grid_error(d, 5, 7, 3)
        vs = _axis(SQUARE.v0, SQUARE.v1, 7)
        assert here == [vs[0:2], vs[2:4]]
        assert type(split) is type(serial) is IntegrationError
        assert str(split) == str(serial)

    def test_rows_run_here_when_fork_fails(self):
        d = data("exp(z)", "z^2")

        def fork_fails():
            raise BlockingIOError("Resource temporarily unavailable")

        with _split_into(3), pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", fork_fails)
            us, vs, rows = grid_eval(d, 0.7, nu=4, nv=6)
        assert_no_child_left()
        assert repr(rows) == repr(grid_eval(d, 0.7, nu=4, nv=6)[2])

    def test_parent_interrupt_kills_and_reaps_children(self):
        # the parent's own block raises while its children still run
        d = data("exp(z)", "z^2")
        rows_ = weierstrass._rows
        parent = os.getpid()

        def interrupted(data_, rot, us, vs, tol):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return rows_(data_, rot, us, vs, tol)

        t0 = time.perf_counter()
        with _split_into(3), pytest.MonkeyPatch.context() as mp:
            mp.setattr(weierstrass, "_rows", interrupted)
            with pytest.raises(KeyboardInterrupt):
                grid_eval(d, 0.7, nu=4, nv=6)
        assert_no_child_left()
        assert time.perf_counter() - t0 < 30

    @staticmethod
    def no_fork():
        raise AssertionError("forked")

    def test_too_few_nodes_raise_before_any_fork(self):
        with _split_into(4), pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", self.no_fork)
            with pytest.raises(ValueError, match="at least 2 nodes"):
                grid_eval(data("exp(z)", "z"), nu=3, nv=1)

    def test_small_grids_stay_in_one_process(self):
        assert weierstrass._block_count(2 * weierstrass._SPLIT_MIN - 1) == 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", self.no_fork)
            us, vs, rows = grid_eval(data("exp(z)", "z"), nu=12, nv=10)
        assert len(rows) == 10 and all(len(row) == 12 for row in rows)


class TestMetric:
    def test_metric_at_closed_forms(self):
        d = data(*SADDLE[:2])
        assert abs(metric_at(d, 0.6 + 0.8j) - 1.0) < 1e-12
        d = data(*LOG_SHEET[:2])
        assert abs(metric_at(d, 0.5 + 0.3j) - math.exp(1.0)) < 1e-12

    def test_metric_is_conformal_factor(self):
        """FD first fundamental form equals |F|^2 times the identity."""
        d = data("exp(z)", "z")
        patch = surface_from_data(d)
        rng = random.Random(7)
        for _ in range(25):
            u = rng.uniform(-0.9, 0.9)
            v = rng.uniform(-0.9, 0.9)
            forms = fundamental_forms(patch, u, v)
            factor = metric_at(d, complex(u, v))
            assert abs(forms.g11 - factor) < 1e-6
            assert abs(forms.g22 - factor) < 1e-6
            assert abs(forms.g12) < 1e-6

    def test_metric_same_across_family(self):
        """The associated family is isometric: same |F|^2 for every theta."""
        d = data("exp(z)", "1")
        thetas = [k * math.pi / 3 for k in range(6)]
        samples = [(-0.5, -0.5), (0.0, 0.3), (0.5, 0.5), (0.8, -0.2)]
        grids = []
        for theta in thetas:
            patch = surface_from_data(d, theta)
            grids.append([fundamental_forms(patch, u, v) for u, v in samples])
        for row in zip(*grids):
            g11s = [f.g11 for f in row]
            g12s = [f.g12 for f in row]
            g22s = [f.g22 for f in row]
            assert max(g11s) - min(g11s) < 1e-8
            assert max(g22s) - min(g22s) < 1e-8
            assert max(abs(x) for x in g12s) < 1e-8


class TestHarmonicityAndMinimality:
    def test_coordinates_harmonic(self):
        d = data("exp(z)", "z^2")
        patch = surface_from_data(d, 0.4)
        for u, v in [(0.0, 0.0), (0.5, -0.4), (-0.7, 0.6)]:
            _, _, f_uu, _, f_vv = patch_jets(patch, u, v)
            lap = f_uu + f_vv
            assert abs(lap.x) < 1e-5
            assert abs(lap.y) < 1e-5
            assert abs(lap.z) < 1e-5

    def test_mean_curvature_vanishes(self):
        d = data("z^2 + 2", "z")
        for theta in (0.0, 1.0, math.pi / 2):
            patch = surface_from_data(d, theta)
            for u, v in [(0.3, 0.3), (-0.5, 0.2)]:
                forms = fundamental_forms(patch, u, v)
                assert abs(mean_curvature(forms)) < 1e-6


_PARTS = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(a=st.complex_numbers(max_magnitude=4.0),
       c=st.complex_numbers(min_magnitude=0.5, max_magnitude=1.5),
       g=st.tuples(_PARTS, _PARTS, _PARTS, _PARTS),
       theta=st.floats(0.0, 2.0 * math.pi),
       u=st.floats(-0.9, 0.9), v=st.floats(-0.9, 0.9))
def test_sample_anchored_h_within_base_anchored_rounding(a, c, g, theta,
                                                         u, v):
    """The patch's jets integrate from the sample; the stencil on its
    evaluator integrates from the base point.  Both give the same H up to
    the base-anchored rounding floor eps |x| / (h^2 |F|^2), with |x| the
    distance the base-anchored values carry (plus |F| h, one step)."""
    z = Var("z")
    f_ast = BinOp("*", Lit(c), Call("exp", BinOp("*", Lit(a), z)))
    g_ast = BinOp("+", Lit(complex(g[0], g[1])), BinOp(
        "*", Lit(complex(g[2], g[3])), BinOp("^", z, Lit(2 + 0j))))
    d = WeierstrassData(f_ast, g_ast)
    abs_f = abs(d.compiled.f(complex(u, v)))
    assume(abs_f > 0.1)
    patch = surface_from_data(d, theta)
    lift = iota_lift(patch)
    h_sample, _ = _curvatures(lift, u, v)
    h_base, _ = _curvatures(dataclasses.replace(lift, jets=None), u, v)
    step = default_step(d.domain)
    x = patch(u, v)
    scale = max(abs(x.x), abs(x.y), abs(x.z)) + abs_f * step
    floor = 2.0 ** -52 * scale / (step * step * abs_f * abs_f)
    # the Richardson second differences weigh each value's rounding by
    # about 23 / h^2; 256 leaves room for the quadrature's own rounding
    assert (h_sample - h_base).sup_norm <= 256.0 * floor


class TestSecondFormFromData:
    def test_flat_graph_constant_form(self):
        d = data(*FLAT_GRAPH[:2])
        forms = second_form_from_data(d, 0.4 - 0.2j)
        assert abs(forms.h11 - 1.0) < 1e-12
        assert abs(forms.h12) < 1e-12
        assert abs(forms.h22 - (-1.0)) < 1e-12
        assert abs(forms.g11 - 1.0) < 1e-12 and abs(forms.g12) < 1e-12

    def test_log_sheet_constant_form(self):
        d = data(*LOG_SHEET[:2])
        for w in (0j, 0.5 + 0.5j, -0.3 + 0.9j):
            forms = second_form_from_data(d, w)
            assert abs(forms.h11 - (-1.0)) < 1e-12
            assert abs(forms.h12) < 1e-12

    def test_saddle_form_profile(self):
        d = data(*SADDLE[:2])
        for w in (0.6 + 0.3j, -0.5 + 0.5j):
            forms = second_form_from_data(d, w)
            r2 = abs(w) ** 2
            assert abs(forms.h11 - (-w.real / r2)) < 1e-12
            assert abs(forms.h12 - (-w.imag / r2)) < 1e-12

    def test_zero_g_gives_zero_form(self):
        d = data("exp(z)", "0")
        forms = second_form_from_data(d, 0.3 + 0.1j)
        assert forms.h11 == 0.0 and forms.h12 == 0.0 and forms.h22 == 0.0

    def test_singular_point_raises(self):
        with pytest.raises(ZeroDivisionError):
            second_form_from_data(data(*SADDLE[:2]), 0j)

    def test_matches_finite_differences(self):
        """Closed-form components of the rotated data track the FD forms
        of the actual family member."""
        rng = random.Random(11)
        for theta in (0.0, 0.7, math.pi / 2, 2.5):
            for f_src, g_src in [("exp(z)", "1"), ("z^2 + 2", "z"),
                                 ("exp(z)", "z^2")]:
                d = data(f_src, g_src)
                patch = surface_from_data(d, theta)
                member = scaled(d, theta)
                for _ in range(6):
                    u = rng.uniform(-0.8, 0.8)
                    v = rng.uniform(-0.8, 0.8)
                    fd = fundamental_forms(patch, u, v)
                    cf = second_form_from_data(member, complex(u, v))
                    assert abs(fd.h11 - cf.h11) < 1e-5, (theta, u, v)
                    assert abs(fd.h12 - cf.h12) < 1e-5, (theta, u, v)
                    assert abs(fd.h22 - cf.h22) < 1e-5, (theta, u, v)
                    assert abs(fd.g11 - cf.g11) < 1e-6, (theta, u, v)


def _outcome(call) -> str:
    """repr of the forms with every zero unsigned, or the error text.

    A derivative that folds to the literal 0 evaluates to an unsigned
    zero in a tree, where a rotated zero value may carry a sign; sums and
    products of the four values then differ at most in the sign of a zero
    result (x + 0.0 is x for every other x).  The one caller with
    theta != 0, vanishing_h_locus, reads absolute values only.
    """
    try:
        forms = call()
    except ZeroDivisionError as exc:
        return f"ZeroDivisionError: {exc}"
    return repr(type(forms)(*(x + 0.0 for x in forms)))


_POINT = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                            allow_infinity=False)


@settings(max_examples=25, deadline=None)
@example(f_src="exp(z)", g_src="z^2", theta=1.0, w=0.3 + 0.2j,
         at_zero=False)
@example(f_src="z^2+1", g_src="exp(z)", theta=math.pi, w=0.5j,
         at_zero=True)
# F' and G' fold to the literal 0: the rotated values are signed zeros
@example(f_src="(0.0+-1.0*i)*z^0", g_src="(0.0+0.0*i)*z^0",
         theta=math.pi, w=0j, at_zero=False)
@given(f_src=st.one_of(POLY, EXP, st.just("1"), st.just("-2.5")),
       g_src=st.one_of(POLY, EXP, st.just("0")),
       theta=st.one_of(st.just(math.pi), st.just(0.0),
                       st.just(2.0 * math.pi), st.floats(-7, 7)),
       w=_POINT, at_zero=st.booleans())
def test_rotated_values_equal_tree_scaled_data(f_src, g_src, theta, w,
                                                at_zero):
    """The closed forms of the theta member, from F, G, F' and G'
    multiplied by the rotor, equal those of the tree-scaled data by repr
    up to the sign of a zero; at a zero of F both raise the same
    ZeroDivisionError."""
    f_ast = parse_expr(f_src)
    if at_zero:
        f_ast = BinOp("*", BinOp("-", Var("z"), Lit(w)), f_ast)
    d = WeierstrassData(f_ast, parse_expr(g_src))
    expected = _outcome(lambda: second_form_from_data(scaled(d, theta), w))
    assert _outcome(
        lambda: second_form_from_data(d, w, 1e-9, theta)) == expected


class TestCompiledView:
    PAIRS = [("exp(z)", "z^2"), ("1.2*exp(-0.5*z)", "(z+0.3-0.2*i)^2+0.02*i"),
             ("z", "z^2+1"), ("cosh(z)", "sin(z)/(z-3)")]

    @staticmethod
    def recompiled(d, w):
        return (compile_expr(d.F)(w), compile_expr(d.G)(w),
                compile_expr(differentiate(d.F))(w),
                compile_expr(differentiate(d.G))(w))

    @pytest.mark.parametrize("f_src, g_src", PAIRS)
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_closed_forms_bit_identical(self, f_src, g_src, theta,
                                        monkeypatch):
        member = scaled(data(f_src, g_src), theta)
        rng = random.Random(11)
        points = [complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
                  for _ in range(25)]
        viewed = [(weierstrass._data_values(member, w),
                   second_form_from_data(member, w),
                   det_h_from_data(member, w), metric_at(member, w))
                  for w in points]
        monkeypatch.setattr(weierstrass, "_data_values", self.recompiled)
        for w, (values, forms, det_h, metric) in zip(points, viewed):
            assert values == self.recompiled(member, w)
            assert forms == second_form_from_data(member, w)
            assert det_h == det_h_from_data(member, w)
            assert metric == abs(compile_expr(member.F)(w)) ** 2

    def test_view_is_outside_equality_and_repr(self):
        a, b = data("exp(z)", "z^2"), data("exp(z)", "z^2")
        assert a == b and hash(a) == hash(b)
        assert a.compiled is not None and "compiled" not in repr(a)
        assert a.compiled.df(0.5) == compile_expr(differentiate(a.F))(0.5)


class TestDetH:
    def test_consistent_with_component_formula(self):
        rng = random.Random(3)
        for f_src, g_src in [("z", "1"), ("exp(z)", "1"), ("z^2 + 2", "z"),
                             ("exp(z)", "z^2")]:
            d = data(f_src, g_src)
            for _ in range(8):
                w = complex(rng.uniform(0.2, 0.9), rng.uniform(0.2, 0.9))
                forms = second_form_from_data(d, w)
                expected = -(forms.h11 ** 2) - forms.h12 ** 2
                assert abs(det_h_from_data(d, w) - expected) < 1e-10

    def test_limit_at_zero_of_g(self):
        # G(0) = 0: the display degenerates but the limit is -|G'(0)|^2
        d = data("1", "z")
        assert abs(det_h_from_data(d, 0j) - (-1.0)) < 1e-12
        d = data("exp(z)", "z^2")
        assert abs(det_h_from_data(d, 0j)) < 1e-12  # G'(0) = 0 as well

    def test_zero_g_everywhere(self):
        d = data("exp(z)", "0")
        assert det_h_from_data(d, 0.4 + 0.2j) == 0.0

    def test_never_positive(self):
        """det h <= 0: these surfaces have no elliptic points."""
        rng = random.Random(19)
        d = data("exp(z)", "z^2 + z")
        for _ in range(40):
            w = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            assert det_h_from_data(d, w) <= 1e-15


class TestConjugate:
    """The conjugate surface is the theta = pi/2 member; its data are
    scaled(d, pi/2) = (-i F, -i G) up to rounding."""

    def test_conjugate_data_is_quarter_turn(self):
        d = data("exp(z)", "z")
        conj_patch = surface_from_data(scaled(d, math.pi / 2))
        quarter = surface_from_data(d, math.pi / 2)
        for u, v in [(0.5, 0.5), (-0.7, 0.1), (0.0, -0.9)]:
            a, b = conj_patch(u, v), quarter(u, v)
            assert abs(a.x - b.x) < 1e-10
            assert abs(a.y - b.y) < 1e-10
            assert abs(a.z - b.z) < 1e-10

    def test_double_conjugate_is_half_turn(self):
        d = data("z^2 + 2", "z")
        twice = surface_from_data(
            scaled(scaled(d, math.pi / 2), math.pi / 2))
        half = surface_from_data(d, math.pi)
        for u, v in [(0.3, 0.6), (-0.4, -0.8)]:
            a, b = twice(u, v), half(u, v)
            assert abs(a.x - b.x) < 1e-10
            assert abs(a.y - b.y) < 1e-10
            assert abs(a.z - b.z) < 1e-10

    def test_conjugate_is_imaginary_part_of_integral(self):
        """Quarter-turn surface = Im of the untwisted path integrals."""
        d = data("exp(z)", "z^2")
        patch = surface_from_data(d, math.pi / 2)
        minus_i_f = parse_expr("-i*exp(z)")
        for u, v in [(0.5, 0.2), (-0.3, 0.7), (0.9, -0.9)]:
            w = complex(u, v)
            i1 = integrate_holomorphic(d.F, d.base, w)
            i2 = integrate_holomorphic(minus_i_f, d.base, w)
            i3 = integrate_holomorphic(d.G, d.base, w)
            p = patch(u, v)
            assert abs(p.x - i1.imag) < 1e-10
            assert abs(p.y - i2.imag) < 1e-10
            assert abs(p.z - i3.imag) < 1e-10

    def test_conjugate_preserves_metric(self):
        d = data("exp(z)", "z")
        w = 0.4 + 0.7j
        conj = scaled(d, math.pi / 2)
        assert abs(metric_at(d, w) - metric_at(conj, w)) < 1e-12
