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
import sys
import time

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import isomin._batch as _batch
import isomin.weierstrass as weierstrass
from isomin.expr import BinOp, Call, EvalError, Lit, Var, _div, _mul, _sub, \
    compile_expr, differentiate, majorant, parse_expr, primitive
from isomin.geometry import (DegenerateMetricError, FundamentalForms, Rect,
                             _axis, default_step, fundamental_forms,
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


TRIG = st.tuples(st.sampled_from(["sin", "cos", "sinh", "cosh"]),
                 st.floats(-2, 2), st.floats(-2, 2)).map(
    lambda fab: f"{fab[0]}(({fab[1]!r}+{fab[2]!r}*i)*z)")
BATCHED = st.one_of(POLY, EXP, TRIG,
                    st.tuples(POLY, st.one_of(EXP, TRIG)).map("*".join))


@contextlib.contextmanager
def _batched(segments: int = _batch._BATCH_SEGMENTS):
    """grid_eval batches every grid, in blocks of about this many row
    segments, and never forks."""
    def no_fork():
        raise AssertionError("forked")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weierstrass, "_BATCH_MIN", 0)
        mp.setattr(_batch, "_BATCH_SEGMENTS", segments)
        mp.setattr(os, "fork", no_fork)
        yield


def _serial(d, theta, nu, nv, tol=1e-10):
    dom = d.domain
    return weierstrass._rows(d, weierstrass._rotor(theta),
                             _axis(dom.u0, dom.u1, nu),
                             _axis(dom.v0, dom.v1, nv), tol)


class TestBatchedRows:
    """Level 0 of the row segments computed by numpy on large grids."""

    @settings(max_examples=60, deadline=None)
    @given(f_src=BATCHED, g_src=BATCHED, theta=st.floats(-4, 4),
           base=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
           nu=st.integers(2, 12), nv=st.integers(2, 9),
           segments=st.integers(1, 40))
    def test_batched_rows_match_the_scalar_rows(self, f_src, g_src, theta,
                                                base, nu, nv, segments):
        # every drawn pair has a primitive, so grid_eval would take the
        # closed form: the batched rows are called directly
        d = WeierstrassData(parse_expr(f_src), parse_expr(g_src),
                            base=complex(*base), domain=SQUARE)
        us, vs = _axis(-1.0, 1.0, nu), _axis(-1.0, 1.0, nv)
        with _batched(segments):
            rows = _batch.batched_rows(d, weierstrass._rotor(theta), us, vs,
                                       1e-10)
        serial = _serial(d, theta, nu, nv)
        assert len(rows) == nv and all(len(row) == nu for row in rows)
        for row, want in zip(rows, serial):
            for vertex, ref in zip(row, want):
                for x, y in zip(vertex, ref):
                    assert abs(x - y) <= 1e-13 * max(1.0, abs(y)), (x, y)

    def test_level0_refusals_go_to_the_scalar_rule(self):
        # a pole beside row v = 0: level 0 of the segments next to it
        # misses the margins, so integrate_segment refines them
        d = data("1/(z-(0.03+0.02*i))", "z")
        calls = []
        segment = weierstrass.integrate_segment

        def counted(f, w0, w1, tol=1e-10):
            calls.append((w0, w1))
            return segment(f, w0, w1, tol)

        with _batched(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(weierstrass, "integrate_segment", counted)
            rows = grid_eval(d, 0.4, nu=21, nv=21)[2]
        serial = _serial(d, 0.4, 21, 21)
        # two row starts per row, and a few refined segments near the pole
        assert 2 * 21 < len(calls) < 2 * 21 + 20
        for row, want in zip(rows, serial):
            for vertex, ref in zip(row, want):
                for x, y in zip(vertex, ref):
                    assert abs(x - y) <= 1e-13 * max(1.0, abs(y))

    @pytest.mark.parametrize("segments", [10_000, 30],
                             ids=["one-block", "later-block"])
    @pytest.mark.parametrize("f_src", ["exp(800*z)", "1/exp(800*z)",
                                       "exp(-exp(800*z))", "exp(-800*i*z)"])
    def test_overflow_raises_the_serial_error(self, f_src, segments):
        # numpy overflows to inf, or through 1/inf to 0, where cmath
        # raises; the block reruns through the scalar rows (exp(-800*i*z)
        # overflows only on the last rows)
        d = data(f_src, "1")
        with pytest.raises(EvalError) as serial:
            _serial(d, 0.0, 12, 12)
        with _batched(segments), pytest.raises(EvalError) as batched:
            grid_eval(d, 0.0, nu=12, nv=12)
        assert str(batched.value) == str(serial.value)

    def test_non_finite_block_that_the_scalar_rows_accept(self):
        # (z-z+1)*1e200*1e200 overflows to inf+0j in both frames, and 1
        # over it is 0: the array frame gives nan, the block reruns
        d = data("1/((z-z+1)*1e200*1e200) + z", "1")
        with _batched(40):
            rows = grid_eval(d, 0.3, nu=9, nv=7)[2]
        assert repr(rows) == repr(_serial(d, 0.3, 9, 7))

    def test_integration_error_is_the_serial_one(self):
        # poles on rows 2 and 5 of a 5 x 7 grid
        d = TestSplitRows.poles_at((5, 2))
        with pytest.raises(IntegrationError) as serial:
            _serial(d, 0.3, 5, 7)
        with _batched(8), pytest.raises(IntegrationError) as batched:
            grid_eval(d, 0.3, nu=5, nv=7)
        assert str(batched.value) == str(serial.value)

    def test_threshold_picks_the_path(self):
        # exp(z^2) has no primitive, so the closed form does not apply
        d = data("exp(z^2)", "z^2")
        paths = []
        batched, rows_ = _batch.batched_rows, weierstrass._rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weierstrass, "_BATCH_MIN", 30)
            mp.setattr(_batch, "batched_rows",
                       lambda *a: paths.append("batched") or batched(*a))
            mp.setattr(weierstrass, "_rows",
                       lambda *a: paths.append("scalar") or rows_(*a))
            for nu, nv in ((6, 5), (15, 2), (7, 4), (9, 3)):
                grid_eval(d, nu=nu, nv=nv)
        assert paths == ["batched", "batched", "scalar", "scalar"]

    def test_without_numpy_the_scalar_rows_run(self):
        d = data("exp(z^2)", "z^2")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weierstrass, "_BATCH_MIN", 0)
            mp.setitem(sys.modules, "numpy", None)
            rows = grid_eval(d, 0.7, nu=6, nv=5)[2]
        assert repr(rows) == repr(_serial(d, 0.7, 6, 5))


def _majorant_top(d: WeierstrassData) -> float:
    """max(1, M), M the larger expr.majorant of F's and G's primitives on
    the disc through the domain's farthest corner: the scale of the
    closed form's rounding."""
    dom = d.domain
    radius = max(math.hypot(u, v) for u in (dom.u0, dom.u1)
                 for v in (dom.v0, dom.v1))
    return max(1.0, *(majorant(primitive(t), radius) for t in (d.F, d.G)))


def _lit(c: complex) -> str:
    return f"({c.real!r}+{c.imag!r}*i)"


# the primitives K_1, K_2, ... of each kernel k, repeating with period
# len(chain): K_(m+1) is the primitive of K_m
_CHAINS = {
    "exp": [mpmath.exp],
    "sin": [lambda x: -mpmath.cos(x), lambda x: -mpmath.sin(x),
            mpmath.cos, mpmath.sin],
    "cos": [mpmath.sin, lambda x: -mpmath.cos(x),
            lambda x: -mpmath.sin(x), mpmath.cos],
    "sinh": [mpmath.cosh, mpmath.sinh],
    "cosh": [mpmath.sinh, mpmath.cosh],
}


def _term(kind: str, c: complex, a: complex, n: int):
    """(source of c * z^n * k(a z), or of c * z^n for kind "poly", and its
    primitive as a function of an mpmath number, written out here)."""
    mc, ma = mpmath.mpc(c), mpmath.mpc(a)
    if kind == "poly":
        return f"{_lit(c)}*z^{n}", lambda z: mc * z ** (n + 1) / (n + 1)
    chain = _CHAINS[kind]
    # integration by parts, n times
    return (f"{_lit(c)}*z^{n}*{kind}({_lit(a)}*z)",
            lambda z: mc * mpmath.fsum(
                (-1) ** j * math.perm(n, j) * z ** (n - j)
                * chain[j % len(chain)](ma * z) / ma ** (j + 1)
                for j in range(n + 1)))


def _polar(lo: float, hi: float):
    return st.builds(cmath.rect, st.floats(lo, hi), st.floats(-4.0, 4.0))


TERMS = st.lists(st.one_of(
    st.builds(_term, st.just("poly"), _polar(0.2, 3.0), st.just(0j),
              st.integers(0, 3)),
    st.builds(_term, st.sampled_from(list(_CHAINS)), _polar(0.2, 3.0),
              _polar(0.02, 2.0), st.integers(0, 3))),
    min_size=1, max_size=3)


class TestClosedRows:
    """rot * (P(w) - P(base)) on large grids where F and G both have a
    primitive."""

    @settings(max_examples=80, deadline=None)
    # |P| stays below 2.8 on the square while its terms reach 6,227: the
    # closed form is 1.8e-13 off, 300 epsilons of max(1, |P|)
    @example(f_src="exp((0.0+1.1249061228526998*i)*z)",
             g_src="(2.0+0.0*i)*z^3*sin((0.0+0.25*i)*z)", theta=0.0,
             base=(0.0, 0.0), nu=2, nv=2)
    @given(f_src=BATCHED, g_src=BATCHED, theta=st.floats(-4, 4),
           base=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
           nu=st.integers(2, 12), nv=st.integers(2, 9))
    def test_closed_rows_match_the_scalar_rows(self, f_src, g_src, theta,
                                               base, nu, nv):
        d = WeierstrassData(parse_expr(f_src), parse_expr(g_src),
                            base=complex(*base), domain=SQUARE)
        assume(primitive(d.F) is not None and primitive(d.G) is not None)
        us, vs = _axis(-1.0, 1.0, nu), _axis(-1.0, 1.0, nv)
        rows = weierstrass._closed_rows(d, weierstrass._rotor(theta), us,
                                        vs, 1e-10)
        rounding = weierstrass._KAPPA * sys.float_info.epsilon * \
            _majorant_top(d)
        if rows is None:
            # only the guard refuses: every value here is finite
            assert rounding > 1e-10
            return
        for row, want in zip(rows, _serial(d, theta, nu, nv)):
            for vertex, ref in zip(row, want):
                for x, y in zip(vertex, ref):
                    assert abs(x - y) <= rounding + 1e-13 * max(1.0, abs(y))

    @settings(max_examples=60, deadline=None)
    @given(f_terms=TERMS, g_terms=TERMS, theta=st.floats(-4, 4),
           centre=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
           offset=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
           half=st.sampled_from([1e-3, 1.0]))
    def test_cancellation_within_kappa_epsilons(self, f_terms, g_terms,
                                                theta, centre, offset, half):
        # terms with |a| down to 0.02 give |P| up to about 50 times the
        # integrand, integration by parts up to n = 3 makes terms that
        # cancel, and on the small domain every vertex is within 1.5e-3
        # of the base: |P| >> |P(w) - P(base)|.  Seeded draws of this
        # kind (3,000 of them) put the worst vertex at 2.8 epsilons of
        # max(1, M), M the majorant; _KAPPA is 16
        dom = Rect(centre[0] - half, centre[0] + half,
                   centre[1] - half, centre[1] + half)
        base = complex(centre[0] + offset[0] * half,
                       centre[1] + offset[1] * half)
        d = WeierstrassData(parse_expr("+".join(s for s, _ in f_terms)),
                            parse_expr("+".join(s for s, _ in g_terms)),
                            base=base, domain=dom)
        assume(primitive(d.F) is not None and primitive(d.G) is not None)
        us, vs = _axis(dom.u0, dom.u1, 9), _axis(dom.v0, dom.v1, 9)
        rot = weierstrass._rotor(theta)
        rows = weierstrass._closed_rows(d, rot, us, vs, 1.0)
        assert rows is not None
        bound = weierstrass._KAPPA * sys.float_info.epsilon * \
            _majorant_top(d)
        with mpmath.workdps(40):
            def exact(terms, w):
                return mpmath.fsum(p(mpmath.mpc(w)) for _, p in terms)

            f0, g0 = exact(f_terms, base), exact(g_terms, base)
            for row, v in zip(rows, vs):
                for vertex, u in zip(row, us):
                    zf = rot * (exact(f_terms, complex(u, v)) - f0)
                    zg = rot * (exact(g_terms, complex(u, v)) - g0)
                    for x, y in zip(vertex, (zf.real, zf.imag, zg.real)):
                        assert abs(x - y) <= bound, (float(abs(x - y)), bound)

    @pytest.mark.parametrize("f_term, g_term, tol, kept", [
        # |P| <= 0.42 on the square, but its terms reach 4e4: the closed
        # form would be 9.6e-13 off
        (("poly", 1, 0, 0), ("sin", 3, 0.16, 3), 1e-13, False),
        # the draw pinned above: 1.8e-13 off, well within 1e-10
        (("exp", 1, 1.1249061228526998j, 0), ("sin", 2, 0.25j, 3), 1e-10,
         True),
    ], ids=["tight-tol", "loose-tol"])
    def test_tol_holds_where_terms_cancel(self, f_term, g_term, tol, kept):
        (f_src, pf), (g_src, pg) = _term(*f_term), _term(*g_term)
        d = WeierstrassData(parse_expr(f_src), parse_expr(g_src),
                            base=0j, domain=SQUARE)
        us = vs = _axis(-1.0, 1.0, 2)
        rows = weierstrass._closed_rows(d, 1 + 0j, us, vs, tol)
        assert (rows is not None) == kept
        with mpmath.workdps(40):
            for row, v in zip(rows or [], vs):
                for vertex, u in zip(row, us):
                    w = mpmath.mpc(u, v)
                    zf, zg = pf(w) - pf(0), pg(w) - pg(0)
                    for x, y in zip(vertex, (zf.real, zf.imag, zg.real)):
                        assert abs(x - y) <= tol

    def test_large_grid_takes_the_closed_form(self):
        d = data("exp(z)", "z^2")

        def refused(*args):
            raise AssertionError("left the closed form")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weierstrass, "_BATCH_MIN", 30)
            mp.setattr(_batch, "batched_rows", refused)
            mp.setattr(weierstrass, "_rows", refused)
            mp.setattr(os, "fork", refused)
            rows = grid_eval(d, 0.7, nu=6, nv=5)[2]
        us, vs = _axis(-1.0, 1.0, 6), _axis(-1.0, 1.0, 5)
        assert rows == weierstrass._closed_rows(
            d, weierstrass._rotor(0.7), us, vs, 1e-10)

    @pytest.mark.parametrize("f_src, tol", [
        ("exp(800*z)", 1e-10),  # P overflows at u near 0.887
        ("2*exp(709.5*z)", 1e-10),  # P finite, F not: M fails the guard
        ("1.5e308*(1+i)", 1e-10),  # P finite, |P| not
        ("exp(z)", 1e-14),  # a tol below _KAPPA epsilons
        ("exp(z^2)", 1e-10),  # no primitive
    ], ids=["overflow", "guard-large-P", "modulus-overflows",
            "guard-tight-tol", "no-primitive"])
    def test_falls_back_to_the_quadrature(self, f_src, tol):
        d = data(f_src, "1")
        us, vs = _axis(-1.0, 1.0, 7), _axis(-1.0, 1.0, 4)
        assert weierstrass._closed_rows(d, 1 + 0j, us, vs, tol) is None


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
        with pytest.raises(DegenerateMetricError):
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


def _phi_tree(d: WeierstrassData):
    """Phi = G' - G F'/F, built from the constructors as WeierstrassData
    builds it."""
    return _sub(differentiate(d.G),
                _mul(d.G, _div(differentiate(d.F), d.F)))


def _four_values(d: WeierstrassData, w: complex, theta: float):
    """F, G, F' and G' at w from their own trees, each multiplied by the
    rotor unless theta = 0 modulo 2*pi."""
    values = [compile_expr(t)(w) for t in
              (d.F, d.G, differentiate(d.F), differentiate(d.G))]
    if theta % (2.0 * math.pi) != 0.0:
        r = weierstrass._rotor(theta)
        values = [r * x for x in values]
    return values


def _four_value_forms(d: WeierstrassData, w: complex, theta: float):
    """The forms as second_form_from_data computed them from F, G, F' and
    G' before Phi was one tree: the derivatives of Re G and |F| in closed
    form.  Kept as an oracle."""
    f_val, g_val, fp, gp = _four_values(d, w, theta)
    abs_f = abs(f_val)
    cross = fp * f_val.conjugate()
    abs_f_u = cross.real / abs_f
    abs_f_v = -cross.imag / abs_f
    h11 = (gp.real - (abs_f_u / abs_f) * g_val.real
           - (abs_f_v / abs_f) * g_val.imag)
    h12 = (-gp.imag - (abs_f_v / abs_f) * g_val.real
           + (abs_f_u / abs_f) * g_val.imag)
    return FundamentalForms(abs_f * abs_f, 0.0, abs_f * abs_f,
                            h11, h12, -h11)


def _four_value_det_h(d: WeierstrassData, w: complex) -> float:
    """det h as det_h_from_data computed it before Phi was one tree, with
    its limit -|G'|^2 at a zero of G.  Kept as an oracle."""
    f_val, g_val, fp, gp = _four_values(d, w, 0.0)
    abs_f, abs_g = abs(f_val), abs(g_val)
    if abs_g < 1e-300:
        return -abs(gp) ** 2
    cross_f = fp * f_val.conjugate()
    cross_g = gp * g_val.conjugate()
    abs_f_u, abs_f_v = cross_f.real / abs_f, -cross_f.imag / abs_f
    abs_g_u, abs_g_v = cross_g.real / abs_g, -cross_g.imag / abs_g
    ratio = abs_g / abs_f
    return (-(abs_g_u ** 2 + abs_g_v ** 2)
            - ratio ** 2 * (abs_f_u ** 2 + abs_f_v ** 2)
            + 2.0 * ratio * (abs_f_u * abs_g_u + abs_f_v * abs_g_v))


_POINT = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                            allow_infinity=False)
_THETA = st.one_of(st.just(math.pi), st.just(0.0), st.just(2.0 * math.pi),
                   st.floats(-7, 7))


@settings(max_examples=80, deadline=None)
@example(f_src="exp(z)", g_src="z^2", theta=1.0, w=0.3 + 0.2j,
         g_zero=False)
@example(f_src="z^2+1", g_src="exp(z)", theta=0.0, w=0.5j, g_zero=True)
@example(f_src="exp((2.0+-2.0*i)*z)", g_src="exp((2.0+-2.0*i)*z)",
         theta=math.pi, w=0.5j, g_zero=False)
# det h -34.18780470768873 against the old -34.18780470768869: 4.9
# epsilons of T^2
@example(f_src="(-0.8552996466259848+0.22833973624392634*i)*z^0"
               "+(2.7512191176741827+-1.0859375*i)*z^1",
         g_src="(1.75+0.0*i)*z^0", theta=math.pi, w=0j, g_zero=False)
@given(f_src=st.one_of(POLY, EXP, st.just("1"), st.just("-2.5")),
       g_src=st.one_of(POLY, EXP, st.just("0")), theta=_THETA, w=_POINT,
       g_zero=st.booleans())
def test_phi_forms_agree_with_the_four_value_formulas(f_src, g_src, theta,
                                                      w, g_zero):
    """second_form_from_data and det_h_from_data agree with the formulas
    in F, G, F' and G' they replaced: g exactly, h within 8 epsilons of
    T = max(1, |G'| + |G F'/F|) and det h within 8 epsilons of T^2, also
    at a drawn zero of G, where the old det h took its limit branch.
    Both sides round relative to the terms of Phi, which cancel where
    |Phi| is small (F = G gives Phi = 0), and the old det h sums three
    products of size T^2; each side is within about 4 epsilons of them.
    20,000 seeded draws of this kind reached 3.3 epsilons of T for h and
    5.3 of T^2 for det h."""
    g_ast = parse_expr(g_src)
    if g_zero:
        g_ast = BinOp("*", BinOp("-", Var("z"), Lit(w)), g_ast)
    d = WeierstrassData(parse_expr(f_src), g_ast)
    assume(abs(compile_expr(d.F)(w)) > 1e-3)
    f_val, g_val, fp, gp = _four_values(d, w, 0.0)
    terms = max(1.0, abs(gp) + abs(g_val * fp / f_val))
    eps8 = 8.0 * sys.float_info.epsilon
    forms = second_form_from_data(d, w, 1e-9, theta)
    want = _four_value_forms(d, w, theta)
    assert forms[:3] == want[:3]
    for x, y in zip(forms[3:], want[3:]):
        assert abs(x - y) <= eps8 * terms, (x, y, terms)
    det_h, want_det = det_h_from_data(d, w), _four_value_det_h(d, w)
    assert abs(det_h - want_det) <= eps8 * terms ** 2, (det_h, want_det)


def _outcome(call) -> str:
    """repr of the forms, or the name of the error raised."""
    try:
        return repr(call())
    except DegenerateMetricError:
        return "DegenerateMetricError"


@settings(max_examples=25, deadline=None)
@example(f_src="exp(z)", g_src="z^2", theta=1.0, w=0.3 + 0.2j,
         at_zero=False)
@example(f_src="z^2+1", g_src="exp(z)", theta=math.pi, w=0.5j,
         at_zero=True)
# F' and G' fold to the literal 0: Phi is the unsigned literal 0
@example(f_src="(0.0+-1.0*i)*z^0", g_src="(0.0+0.0*i)*z^0",
         theta=math.pi, w=0j, at_zero=False)
@given(f_src=st.one_of(POLY, EXP, st.just("1"), st.just("-2.5")),
       g_src=st.one_of(POLY, EXP, st.just("0")), theta=_THETA, w=_POINT,
       at_zero=st.booleans())
def test_rotated_values_equal_tree_scaled_data(f_src, g_src, theta, w,
                                                at_zero):
    """The closed forms of the theta member are, by repr, those of r F(w)
    and r Phi(w), r = _rotor(theta), or of F(w) and Phi(w) at theta = 0
    modulo 2*pi; a zero of F raises DegenerateMetricError, as it does for
    the tree-scaled data (r F, r G), whose Phi is r Phi up to rounding.
    test_phi_forms_agree_with_the_four_value_formulas checks the values
    against the rotated F, G, F' and G'."""
    f_ast = parse_expr(f_src)
    if at_zero:
        f_ast = BinOp("*", BinOp("-", Var("z"), Lit(w)), f_ast)
    d = WeierstrassData(f_ast, parse_expr(g_src))

    def from_phi():
        f_val = compile_expr(d.F)(w)
        r = weierstrass._rotor(theta)
        if theta % (2.0 * math.pi) != 0.0:
            f_val = r * f_val
        if abs(f_val) <= 1e-9:
            raise DegenerateMetricError("zero of F")
        phi = compile_expr(_phi_tree(d))(w)
        if theta % (2.0 * math.pi) != 0.0:
            phi = r * phi
        g11 = abs(f_val) * abs(f_val)
        return FundamentalForms(g11, 0.0, g11, phi.real, -phi.imag,
                                -phi.real)

    got = _outcome(lambda: second_form_from_data(d, w, 1e-9, theta))
    assert got == _outcome(from_phi)
    if at_zero:
        assert got == _outcome(
            lambda: second_form_from_data(scaled(d, theta), w))


class TestCompiledView:
    PAIRS = [("exp(z)", "z^2"), ("1.2*exp(-0.5*z)", "(z+0.3-0.2*i)^2+0.02*i"),
             ("z", "z^2+1"), ("cosh(z)", "sin(z)/(z-3)")]

    @pytest.mark.parametrize("f_src, g_src", PAIRS)
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_closed_forms_bit_identical(self, f_src, g_src, theta):
        """The view holds F, G and Phi compiled from their trees, and the
        closed forms read those three values alone."""
        member = scaled(data(f_src, g_src), theta)
        rng = random.Random(11)
        for _ in range(25):
            w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            f, g, phi = (compile_expr(t)(w)
                         for t in (member.F, member.G, _phi_tree(member)))
            assert tuple(fn(w) for fn in member.compiled) == (f, g, phi)
            g11 = abs(f) * abs(f)
            assert repr(second_form_from_data(member, w)) == repr(
                FundamentalForms(g11, 0.0, g11, phi.real, -phi.imag,
                                 -phi.real))
            assert det_h_from_data(member, w) == -abs(phi) ** 2
            assert metric_at(member, w) == abs(f) ** 2

    def test_view_is_outside_equality_and_repr(self):
        a, b = data("exp(z)", "z^2"), data("exp(z)", "z^2")
        assert a == b and hash(a) == hash(b)
        assert a.compiled is not None and "compiled" not in repr(a)
        assert a.compiled._fields == ("f", "g", "phi")
        assert a.compiled.phi(0.5) == compile_expr(_phi_tree(a))(0.5)


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
