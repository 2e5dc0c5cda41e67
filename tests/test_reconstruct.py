"""Rebuilding graphs from prescribed second fundamental forms."""

import math
import random

import numpy as np
import pytest

from isomin.expr import parse_real_expr, differentiate, compile_real
from isomin.geometry import Rect, fundamental_forms, mean_curvature
from isomin.reconstruct import (CodazziViolationError, GridMismatchError,
                                PrescribedForms, codazzi_check,
                                integrate_hessian, surface_from_forms)

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def exprs(h11: str, h12: str, h22: str,
          domain: Rect = SQUARE) -> PrescribedForms:
    return PrescribedForms.from_expressions(h11, h12, h22, domain)


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
        vals = integrate_hessian(exprs(*h), grid=(9, 9))
        us = np.linspace(-1, 1, 9)
        exact = np.array([[potential(u, v) for v in us] for u in us])
        assert np.abs(vals - exact).max() < 1e-14

    def test_off_center_node_base(self):
        forms = exprs("1", "0", "-1", Rect(0.0, 2.0, 0.0, 2.0))
        vals = integrate_hessian(forms, base=(1.0, 1.0), grid=(5, 5))
        us = np.linspace(0, 2, 5)
        exact = np.array([[0.5 * ((u - 1) ** 2 - (v - 1) ** 2)
                           for v in us] for u in us])
        assert np.abs(vals - exact).max() < 1e-14

    def test_base_must_sit_on_node(self):
        with pytest.raises(ValueError):
            integrate_hessian(exprs("1", "0", "-1"), base=(0.3, 0.0),
                              grid=(5, 5))

    def test_seed_adds_affine_part(self):
        vals = integrate_hessian(exprs("0", "1", "0"), seed=(2.0, 3.0, -1.0),
                                 grid=(5, 5))
        us = np.linspace(-1, 1, 5)
        exact = np.array([[u * v + 2.0 + 3.0 * u - v for v in us]
                          for u in us])
        assert np.abs(vals - exact).max() < 1e-14

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

    def test_seed_invariance_is_exact_affine(self):
        forms = exprs("2", "0", "2")
        plain = surface_from_forms(forms)
        seeded = surface_from_forms(forms, seed=(1.5, -2.0, 0.75))
        rng = random.Random(5)
        for _ in range(20):
            u = rng.uniform(-1, 1)
            v = rng.uniform(-1, 1)
            gap = seeded(u, v).z - plain(u, v).z
            affine = 1.5 - 2.0 * u + 0.75 * v
            assert abs(gap - affine) < 1e-9

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
                assert abs(p.z - nodes[i, j]) < 1e-12

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
