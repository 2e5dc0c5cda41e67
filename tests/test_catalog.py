"""Reference surfaces: the recorded flags must match the geometry kernel."""

import dataclasses
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from isomin.catalog import (UnknownSurfaceError, entries, get,
                            minimal_entries, names,
                            rotational_profile_check)
from isomin.geometry import (fundamental_forms, h_lambda, mean_curvature,
                             relative_gauss_curvature)


def seed_for(name: str) -> int:
    return zlib.crc32(name.encode())  # stable across processes


def interior_samples(rect, rng, count=5, inset=0.12):
    pts = []
    for _ in range(count):
        pts.append((rng.uniform(rect.u0 + inset, rect.u1 - inset),
                    rng.uniform(rect.v0 + inset, rect.v1 - inset)))
    return pts


class TestFlagsAgainstKernel:
    @pytest.mark.parametrize("name", names())
    def test_minimality_flag(self, name):
        entry = get(name)
        rng = random.Random(seed_for(name))
        hs = []
        for u, v in interior_samples(entry.patch.domain, rng):
            forms = fundamental_forms(entry.patch, u, v)
            hs.append(abs(mean_curvature(forms)))
        # finite differences leave ~1e-7 of noise on an exact zero
        if entry.is_minimal:
            assert max(hs) < 1e-6, f"{name} flagged minimal but H != 0"
        else:
            assert max(hs) > 1e-3, f"{name} flagged non-minimal but H ~ 0"

    @pytest.mark.parametrize("name", names())
    def test_umbilical_flag(self, name):
        entry = get(name)
        rng = random.Random(seed_for(name) ^ 0xA5A5)
        worst = 0.0
        for u, v in interior_samples(entry.patch.domain, rng):
            f = fundamental_forms(entry.patch, u, v)
            lam = (f.h11 * f.g11 + 2 * f.h12 * f.g12 + f.h22 * f.g22) \
                / (f.g11 ** 2 + 2 * f.g12 ** 2 + f.g22 ** 2)
            residual = max(abs(f.h11 - lam * f.g11),
                           abs(f.h12 - lam * f.g12),
                           abs(f.h22 - lam * f.g22))
            worst = max(worst, residual)
        if entry.is_umbilical:
            assert worst < 1e-6, f"{name} flagged umbilical, residual {worst}"
        else:
            assert worst > 1e-3, f"{name} flagged non-umbilical"

    @pytest.mark.parametrize("name", names())
    def test_curvature_sign_flag(self, name):
        entry = get(name)
        rng = random.Random(seed_for(name) ^ 0x5A5A)
        for u, v in interior_samples(entry.patch.domain, rng):
            forms = fundamental_forms(entry.patch, u, v)
            k = relative_gauss_curvature(forms)
            if entry.k_sign > 0:
                assert k > 1e-9
            elif entry.k_sign < 0:
                # harmonic cubic has an isolated flat point; stay off it
                assert k < 1e-9
            else:
                assert abs(k) < 1e-8


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(names()), lam=st.floats(0.25, 4.0),
       sign=st.sampled_from((1.0, -1.0)), s=st.floats(0.1, 0.9),
       t=st.floats(0.1, 0.9))
def test_exact_forms_match_finite_differences(name, lam, sign, s, t):
    """Every entry's exact jets against the stencil on its own evaluator;
    lam (with its sign) only reaches dlambda_geodesic."""
    exact = get(name, lam=sign * lam).patch
    assert exact.jets is not None
    fd = dataclasses.replace(exact, jets=None)
    dom = exact.domain
    u, v = dom.u0 + s * (dom.u1 - dom.u0), dom.v0 + t * (dom.v1 - dom.v0)
    a, b = fundamental_forms(exact, u, v), fundamental_forms(fd, u, v)
    for field in ("g11", "g12", "g22", "h11", "h12", "h22"):
        x, y = getattr(a, field), getattr(b, field)
        assert abs(x - y) <= 1e-6 * max(1.0, abs(x)), (field, x, y)


class TestSpotValues:
    def test_helicoid_point_and_curvature(self):
        entry = get("helicoid2")
        p = entry.patch(0.0, 1.0)
        assert abs(p.x - 1.0) < 1e-15
        assert abs(p.y) < 1e-15
        assert abs(p.z) < 1e-15
        for u, v in [(0.5, 1.0), (-1.0, 2.0), (2.0, 0.8)]:
            forms = fundamental_forms(entry.patch, u, v)
            k = relative_gauss_curvature(forms)
            assert abs(k - (-1.0 / v ** 4)) < 1e-5

    def test_rotational_log_point(self):
        entry = get("rotational_log")
        p = entry.patch(0.0, 0.0)
        assert abs(p.x - 1.0) < 1e-15
        assert abs(p.y) < 1e-15
        assert abs(p.z) < 1e-15

    def test_paraboloid_umbilical_factor_is_two(self):
        entry = get("paraboloid")
        for u, v in [(0.0, 0.0), (0.5, -0.3)]:
            f = fundamental_forms(entry.patch, u, v)
            assert abs(f.h11 - 2.0 * f.g11) < 1e-7
            assert abs(f.h12 - 2.0 * f.g12) < 1e-7
            assert abs(f.h22 - 2.0 * f.g22) < 1e-7

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownSurfaceError):
            get("helicoid3")

    def test_minimal_entries_subset(self):
        minimal = {e.name for e in minimal_entries()}
        assert minimal == {e.name for e in entries() if e.is_minimal}
        assert "paraboloid" not in minimal
        assert "helicoid2" in minimal


class TestDeformedFamily:
    def test_lambda_one_deformed_form_vanishes(self):
        entry = get("dlambda_geodesic", lam=1.0)
        for u, v in [(0.0, 0.0), (1.0, 0.5), (2.5, -0.5)]:
            vals = h_lambda(entry.patch, 1.0, u, v)
            assert max(abs(vals.h11), abs(vals.h12), abs(vals.h22)) < 1e-6

    def test_other_lambdas(self):
        for lam in (0.5, 2.0):
            entry = get("dlambda_geodesic", lam=lam)
            u, v = 1.0, 0.0
            vals = h_lambda(entry.patch, lam, u, v)
            assert max(abs(vals.h11), abs(vals.h12), abs(vals.h22)) < 1e-6

    def test_negative_lambda_mirrored_domain(self):
        entry = get("dlambda_geodesic", lam=-1.0)
        dom = entry.patch.domain
        assert dom.u1 < 1.0 / 1.0  # stays left of the pole at u = 1
        vals = h_lambda(entry.patch, -1.0, dom.u0 + 0.5, 0.0)
        assert max(abs(vals.h11), abs(vals.h12), abs(vals.h22)) < 1e-6

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            get("dlambda_geodesic", lam=0.0)


class TestRotationalProfile:
    def test_profile_satisfies_log_ode(self):
        """x y'' + y' = 0 on [1, e] reproduces c1 log x + c2."""
        for c1, c2 in [(1.0, 0.0), (2.0, -1.0), (-0.5, 3.0)]:
            assert rotational_profile_check(c1, c2) < 1e-7

    def test_profile_on_other_interval(self):
        assert rotational_profile_check(1.5, 0.25, x_range=(0.5, 4.0)) < 1e-6

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            rotational_profile_check(1.0, 0.0, x_range=(-1.0, 2.0))
        with pytest.raises(ValueError):
            rotational_profile_check(1.0, 0.0, x_range=(2.0, 1.0))
