"""Locating and classifying the zeros of the conformal factor."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isomin.expr import BinOp, Lit, Var, parse_expr
from isomin.geometry import Rect
from isomin.singularities import (ContourError, _seed_cells,
                                  _singular_values, MultiplicityError,
                                  RankDisagreementError, find_zeros,
                                  jacobian_rank_at, singular_report,
                                  zero_multiplicity)
from isomin.weierstrass import WeierstrassData

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def pair(f_src: str, g_src: str, domain: Rect = SQUARE) -> WeierstrassData:
    return WeierstrassData(parse_expr(f_src), parse_expr(g_src),
                           domain=domain)


def product_with_roots(roots) -> "BinOp":
    """AST of prod (z - r_k), built directly to avoid formatting noise."""
    acc = BinOp("-", Var("z"), Lit(complex(roots[0])))
    for r in roots[1:]:
        acc = BinOp("*", acc, BinOp("-", Var("z"), Lit(complex(r))))
    return acc


class TestFindZeros:
    def test_single_zero_at_origin(self):
        zeros = find_zeros(parse_expr("z"), SQUARE)
        assert len(zeros) == 1
        assert abs(zeros[0]) < 1e-10

    def test_no_zeros_for_exponential(self):
        assert find_zeros(parse_expr("exp(z)"), SQUARE) == []

    def test_nowhere_evaluable_has_no_zeros(self):
        # log(0*z) fails at every node: no seeds, and no error
        assert find_zeros(parse_expr("log(0*z)"), SQUARE, grid=(8, 8),
                          with_diagnostics=True) == ([], [])

    def test_two_symmetric_zeros(self):
        zeros = find_zeros(parse_expr("z^2 - 0.25"), SQUARE)
        assert len(zeros) == 2
        assert abs(zeros[0] - (-0.5)) < 1e-9
        assert abs(zeros[1] - 0.5) < 1e-9

    def test_zero_outside_domain_ignored(self):
        zeros = find_zeros(parse_expr("z - 3"), SQUARE)
        assert zeros == []

    def test_diagnostics_mode_returns_two_lists(self):
        zeros, unconverged = find_zeros(parse_expr("z"), SQUARE,
                                        with_diagnostics=True)
        assert len(zeros) == 1
        assert isinstance(unconverged, list)

    def test_planted_simple_roots_recovered(self):
        """Seeded sweep: every planted well-separated root is found."""
        rng = random.Random(2024)
        for trial in range(50):
            k = rng.randint(1, 3)
            roots = []
            while len(roots) < k:
                cand = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                if all(abs(cand - r) >= 0.3 for r in roots):
                    roots.append(cand)
            ast = product_with_roots(roots)
            found = find_zeros(ast, SQUARE)
            assert len(found) == len(roots), \
                f"trial {trial}: expected {roots}, found {found}"
            for r in roots:
                nearest = min(found, key=lambda z: abs(z - r))
                assert abs(nearest - r) < 1e-8, \
                    f"trial {trial}: root {r} recovered as {nearest}"

    def test_scaled_products_still_found(self):
        # a nonvanishing factor must not confuse the modulus scan
        ast = BinOp("*", parse_expr("exp(z)"),
                    product_with_roots([0.4 + 0.2j, -0.5 - 0.5j]))
        found = find_zeros(ast, SQUARE)
        assert len(found) == 2
        for r in (0.4 + 0.2j, -0.5 - 0.5j):
            assert min(abs(z - r) for z in found) < 1e-8


class TestMultiplicity:
    @pytest.mark.parametrize("src,mult", [
        ("z", 1), ("z^2", 2), ("z^3", 3), ("z^4", 4),
    ])
    def test_monomial_orders(self, src, mult):
        assert zero_multiplicity(parse_expr(src), 0j, 0.4) == mult

    def test_shifted_double_root(self):
        ast = product_with_roots([0.3 + 0.1j, 0.3 + 0.1j, -0.4 + 0j])
        assert zero_multiplicity(ast, 0.3 + 0.1j, 0.2) == 2
        assert zero_multiplicity(ast, -0.4 + 0j, 0.2) == 1

    def test_regular_center_has_order_zero(self):
        assert zero_multiplicity(parse_expr("exp(z)"), 0j, 0.5) == 0
        assert zero_multiplicity(parse_expr("z - 5"), 0j, 0.5) == 0

    def test_zero_on_contour_raises(self):
        with pytest.raises(ContourError):
            zero_multiplicity(parse_expr("z"), 0.2 + 0j, 0.2)

    def test_pole_inside_raises(self):
        with pytest.raises(MultiplicityError):
            zero_multiplicity(parse_expr("1/z"), 0j, 0.3)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            zero_multiplicity(parse_expr("z"), 0j, 0.0)


class TestJacobianRank:
    def test_regular_point_rank_two(self):
        assert jacobian_rank_at(pair("z", "1"), 0.5 + 0.5j) == 2
        assert jacobian_rank_at(pair("exp(z)", "0"), 0j) == 2

    def test_f_zero_g_nonzero_rank_one(self):
        assert jacobian_rank_at(pair("z", "1"), 0j) == 1
        assert jacobian_rank_at(pair("z^2", "1"), 0j) == 1

    def test_both_zero_rank_zero(self):
        assert jacobian_rank_at(pair("z", "z^2"), 0j) == 0
        assert jacobian_rank_at(pair("z^2", "z"), 0j) == 0

    def test_disagreement_raises_with_both_ranks(self):
        # |F| = 1e-7 passes the analytic test (rank 2), while the second
        # singular value, about |F| too, falls below the 1e-6 cut
        with pytest.raises(RankDisagreementError) as err:
            jacobian_rank_at(pair("z", "1"), 1e-7 + 0j)
        msg = str(err.value)
        assert "analytic 2" in msg and "SVD 1" in msg
        assert "sigma=1.000e+00, 1.000e-07" in msg


def _svd_rank(svals):
    return sum(s > 1e-6 * max(1.0, svals[0]) for s in svals)


_unit = st.floats(-1.0, 1.0)
_row = st.tuples(_unit, _unit, _unit)


@st.composite
def jacobians(draw):
    """2x3 matrices: random rows, nearly parallel rows (the second row a
    multiple of the first plus a perturbation down to rounding level), or
    one zero row; every entry scaled by 1e-8 .. 1e3."""
    r1 = draw(_row)
    kind = draw(st.sampled_from(["random", "parallel", "zero"]))
    if kind == "random":
        r2 = draw(_row)
    elif kind == "parallel":
        c = draw(_unit)
        eps = 10.0 ** draw(st.floats(-17.0, -2.0))
        d = draw(_row)
        r2 = tuple(c * a + eps * b for a, b in zip(r1, d))
    else:
        r2 = (0.0, 0.0, 0.0)
        if draw(st.booleans()):
            r1, r2 = r2, r1
    scale = 10.0 ** draw(st.floats(-8.0, 3.0))
    return (tuple(scale * x for x in r1), tuple(scale * x for x in r2))


@settings(max_examples=500, deadline=None)
@given(jac=jacobians())
def test_closed_form_singular_values_match_svd(jac):
    s1, s2 = _singular_values(*jac)
    ref = np.linalg.svd(np.array(jac), compute_uv=False)
    assert abs(s1 - ref[0]) <= 1e-14 * ref[0]
    assert abs(s2 - ref[1]) <= 1e-14 * ref[0]
    # the rank cut agrees wherever no singular value sits within the
    # error bound of it
    cut = 1e-6 * max(1.0, ref[0])
    if all(abs(s - cut) > 2e-14 * ref[0] for s in ref):
        assert _svd_rank((s1, s2)) == _svd_rank(ref)


MONOMIAL_DATA = [
    # (F, G, multiplicity, rank) for the six reference singular data
    ("z", "1", 1, 1),
    ("z^2", "1", 2, 1),
    ("z^3", "1", 3, 1),
    ("z^4", "1", 4, 1),
    ("z", "z^2", 1, 0),
    ("z^2", "z", 2, 0),
]


class TestSingularReport:
    @pytest.mark.parametrize("f_src,g_src,mult,rank", MONOMIAL_DATA)
    def test_reference_data(self, f_src, g_src, mult, rank):
        points = singular_report(pair(f_src, g_src))
        assert len(points) == 1
        p = points[0]
        assert abs(p.w) < 1e-8
        assert p.multiplicity == mult
        assert p.rank == rank
        assert p.refined
        assert p.g_vanishes == (rank == 0)

    def test_sorted_by_distance_from_origin(self):
        points = singular_report(pair("(z - 0.5)*(z + 0.25)", "1"))
        assert len(points) == 2
        assert abs(points[0].w - (-0.25)) < 1e-8
        assert abs(points[1].w - 0.5) < 1e-8

    def test_regular_data_empty_report(self):
        assert singular_report(pair("exp(z)", "z")) == []

    def test_g_vanishing_elsewhere_not_confused(self):
        # G has its zero away from F's zero: rank stays 1
        points = singular_report(pair("z", "z - 0.5"))
        assert len(points) == 1
        assert points[0].rank == 1
        assert not points[0].g_vanishes

    def test_double_root_product_position_and_order(self):
        # Newton at a double root stalls at |step| ~ sqrt(tol); the
        # argument principle still counts the order exactly
        ast = product_with_roots([0.2 - 0.3j, 0.2 - 0.3j, -0.6 + 0.1j])
        d = WeierstrassData(ast, parse_expr("1"), domain=SQUARE)
        points = singular_report(d)
        assert len(points) == 2
        double = min(points, key=lambda p: abs(p.w - (0.2 - 0.3j)))
        simple = min(points, key=lambda p: abs(p.w - (-0.6 + 0.1j)))
        assert abs(double.w - (0.2 - 0.3j)) < 1e-4
        assert double.multiplicity == 2
        assert abs(simple.w - (-0.6 + 0.1j)) < 1e-8
        assert simple.multiplicity == 1


def loop_seed_cells(mod):
    """The scalar scan find_zeros used before its seed scan was
    vectorised: one 3x3 window minimum per interior cell."""
    finite = mod[np.isfinite(mod)]
    gmax = float(finite.max())
    nu, nv = mod.shape
    seeds = []
    for i in range(1, nu - 1):
        for j in range(1, nv - 1):
            val = mod[i, j]
            if not math.isfinite(val):
                continue
            window = mod[i - 1:i + 2, j - 1:j + 2]
            if val <= window.min() and (val < 0.25 * gmax or val == 0.0):
                seeds.append((i, j))
    return seeds


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(2, 9), st.integers(2, 9)),
       data=st.data())
def test_vectorised_seed_scan_matches_loop(shape, data):
    # few distinct values, so ties and plateaus are common; inf marks
    # cells where F failed to evaluate
    cells = data.draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 8.0, math.inf]),
        min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    mod = np.array(cells).reshape(shape)
    if not np.isfinite(mod).any():
        mod[0, 0] = 1.0
    assert _seed_cells(mod) == loop_seed_cells(mod)
