"""Full-contract suite: every stated guarantee at its stated tolerance.

One test per numbered guarantee; running with -v gives one pass/fail
line per guarantee. Values that are exact in closed form are asserted
tightly; finite-difference comparisons use the contracted bounds.
"""

import math
import random
import time

import pytest

from isomin.catalog import get, minimal_entries, rotational_profile_check
from isomin.expr import (BinOp, Lit, Var, compile_real, differentiate,
                         parse_expr, parse_real_expr)
from isomin.geometry import (Rect, deg_inner, fundamental_forms, graph_patch,
                             h_lambda, patch_jets, relative_gauss_curvature)
from isomin.minkowski import (iota_lift, gaussian_curvature_induced,
                              vanishing_h_locus, verify_flat_zmc)
from isomin.reconstruct import (CodazziViolationError, PrescribedForms,
                                surface_from_forms)
from isomin.singularities import find_zeros, singular_report
from isomin.weierstrass import (WeierstrassData, det_h_from_data,
                                integrate_holomorphic, metric_at,
                                second_form_from_data, surface_from_data)

HALF_PI = 0.5 * math.pi
SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def data(f_src, g_src, domain=SQUARE):
    return WeierstrassData(parse_expr(f_src), parse_expr(g_src),
                           domain=domain)


def interior(rect, rng, inset=0.05):
    mu = inset * (rect.u1 - rect.u0)
    mv = inset * (rect.v1 - rect.v0)
    return (rng.uniform(rect.u0 + mu, rect.u1 - mu),
            rng.uniform(rect.v0 + mv, rect.v1 - mv))


# The generator anchors at the base parameter, so each closed form is
# shifted by its own value at w = 0.
CLOSED_FORMS = [
    ("z", "1", 0.0,
     lambda u, v: (0.5 * (u * u - v * v), u * v, u)),
    ("z", "1", HALF_PI,
     lambda u, v: (u * v, -0.5 * (u * u - v * v), v)),
    ("exp(z)", "1", 0.0,
     lambda u, v: (math.exp(u) * math.cos(v) - 1.0,
                   math.exp(u) * math.sin(v), u)),
    ("exp(z)", "1", HALF_PI,
     lambda u, v: (math.exp(u) * math.sin(v),
                   1.0 - math.exp(u) * math.cos(v), v)),
    ("1", "z", 0.0,
     lambda u, v: (u, v, 0.5 * (u * u - v * v))),
    ("1", "z", HALF_PI,
     lambda u, v: (v, -u, u * v)),
]

GENERATED = [(f, g, th) for f, g, th, _ in CLOSED_FORMS]


def test_criterion_01_closed_form_reproduction():
    nodes = [-1.0 + 2.0 * k / 63 for k in range(64)]
    for f_src, g_src, theta, closed in CLOSED_FORMS:
        started = time.perf_counter()
        patch = surface_from_data(data(f_src, g_src), theta=theta)
        sup = 0.0
        for v in nodes:
            for u in nodes:
                p = patch(u, v)
                cx, cy, cz = closed(u, v)
                sup = max(sup, abs(p.x - cx), abs(p.y - cy), abs(p.z - cz))
        elapsed = time.perf_counter() - started
        assert sup < 1e-8, f"({f_src},{g_src},{theta}): sup {sup:.3e}"
        assert elapsed < 2.0, f"({f_src},{g_src},{theta}): {elapsed:.2f}s"
    print("criterion 1 PASS: six closed forms, sup < 1e-8, < 2 s each")


def test_criterion_02_metric_law():
    for f_src, g_src, theta in GENERATED:
        d = data(f_src, g_src)
        patch = surface_from_data(d, theta=theta)
        rng = random.Random(20201)
        worst = 0.0
        for _ in range(200):
            u, v = interior(SQUARE, rng)
            f_u, f_v, *_ = patch_jets(patch, u, v)
            mu = metric_at(d, complex(u, v))
            worst = max(worst,
                        abs(deg_inner(f_u, f_u) - mu),
                        abs(deg_inner(f_v, f_v) - mu))
        assert worst < 1e-6, f"({f_src},{g_src},{theta}): {worst:.3e}"
    print("criterion 2 PASS: FD metric equals |F|^2 within 1e-6, "
          "200 samples per surface")


def test_criterion_03_harmonic_isothermal():
    for f_src, g_src, theta in GENERATED:
        patch = surface_from_data(data(f_src, g_src), theta=theta)
        rng = random.Random(30303)
        worst_lap = 0.0
        worst_iso = 0.0
        for _ in range(50):
            u, v = interior(SQUARE, rng)
            f_u, f_v, f_uu, _, f_vv = patch_jets(patch, u, v)
            lap = f_uu + f_vv
            worst_lap = max(worst_lap, abs(lap.x), abs(lap.y), abs(lap.z))
            g11 = deg_inner(f_u, f_u)
            g12 = deg_inner(f_u, f_v)
            g22 = deg_inner(f_v, f_v)
            worst_iso = max(worst_iso, abs(g11 - g22), abs(g12))
        assert worst_lap < 1e-5, f"({f_src},{g_src},{theta}): {worst_lap:.3e}"
        assert worst_iso < 1e-6, f"({f_src},{g_src},{theta}): {worst_iso:.3e}"
    print("criterion 3 PASS: coordinates harmonic within 1e-5, "
          "isothermal within 1e-6")


def _negate_i(ast):
    return BinOp("*", Lit(-1j), ast)


def test_criterion_04_associated_family():
    thetas = [k * math.pi / 3.0 for k in range(6)]
    nodes = [-0.8 + 1.6 * k / 4 for k in range(5)]
    for f_src, g_src in [("z", "1"), ("exp(z)", "1"), ("1", "z")]:
        d = data(f_src, g_src)

        def fd_metric_grid(theta):
            patch = surface_from_data(d, theta=theta)
            vals = []
            for v in nodes:
                for u in nodes:
                    f_u, f_v, *_ = patch_jets(patch, u, v)
                    vals.append(deg_inner(f_u, f_u))
            return vals

        reference = fd_metric_grid(thetas[0])
        for theta in thetas[1:]:
            moved = fd_metric_grid(theta)
            gap = max(abs(a - b) for a, b in zip(reference, moved))
            assert gap < 1e-8, f"({f_src},{g_src}) theta={theta}: {gap:.3e}"

        # conjugation commutes with integration componentwise
        f_ast = parse_expr(f_src)
        g_ast = parse_expr(g_src)
        phi = (f_ast, _negate_i(f_ast), g_ast)
        conj_phi = (_negate_i(f_ast), BinOp("*", Lit(-1.0), f_ast),
                    _negate_i(g_ast))
        rng = random.Random(40404)
        for _ in range(25):
            w1 = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            for a, b in zip(conj_phi, phi):
                lhs = integrate_holomorphic(a, 0j, w1).real
                rhs = integrate_holomorphic(b, 0j, w1).imag
                assert abs(lhs - rhs) < 1e-8
    print("criterion 4 PASS: six-member family isometric within 1e-8, "
          "conjugate identity within 1e-8")


def test_criterion_05_second_form_formula():
    cases = [
        ("1", "z", 0.0),
        ("exp(z)", "1", 0.0),
        ("z", "1", 0.4),      # stay away from the isolated zero of F
    ]
    for f_src, g_src, hole in cases:
        d = data(f_src, g_src)
        patch = surface_from_data(d)
        rng = random.Random(50505)
        checked = 0
        worst_h = 0.0
        worst_det = 0.0
        while checked < 20:
            u, v = interior(SQUARE, rng)
            if math.hypot(u, v) <= hole:
                continue
            checked += 1
            w = complex(u, v)
            forms = second_form_from_data(d, w)
            fd = fundamental_forms(patch, u, v)
            worst_h = max(worst_h,
                          abs(forms.h11 - fd.h11),
                          abs(forms.h12 - fd.h12),
                          abs(forms.h22 - fd.h22))
            det_direct = forms.h11 * forms.h22 - forms.h12 * forms.h12
            worst_det = max(worst_det,
                            abs(det_h_from_data(d, w) - det_direct))
        assert worst_h < 1e-5, f"({f_src},{g_src}): {worst_h:.3e}"
        assert worst_det < 1e-6, f"({f_src},{g_src}): {worst_det:.3e}"
    print("criterion 5 PASS: closed-form h matches FD within 1e-5, "
          "det display consistent within 1e-6")


def test_criterion_06_curvature_signs():
    rng = random.Random(60606)
    paraboloid = get("paraboloid").patch
    for _ in range(10):
        u, v = interior(paraboloid.domain, rng)
        k = relative_gauss_curvature(fundamental_forms(paraboloid, u, v))
        assert abs(k - 4.0) < 1e-6

    helicoid = get("helicoid2").patch
    for _ in range(10):
        u, v = interior(helicoid.domain, rng)
        k = relative_gauss_curvature(fundamental_forms(helicoid, u, v))
        assert abs(k - (-1.0 / v ** 4)) < 1e-5

    for entry in minimal_entries():
        for _ in range(20):
            u, v = interior(entry.patch.domain, rng)
            k = relative_gauss_curvature(fundamental_forms(entry.patch, u, v))
            assert k <= 1e-8, f"{entry.name}: K = {k:.3e} at ({u}, {v})"
    print("criterion 6 PASS: paraboloid K=4, helicoid2 K=-1/v^4, "
          "d-minimal K <= 1e-8")


MONOMIAL_DATA = [
    ("z", "1", 1, 1),
    ("z^2", "1", 2, 1),
    ("z^3", "1", 3, 1),
    ("z^4", "1", 4, 1),
    ("z", "z^2", 1, 0),
    ("z^2", "z", 2, 0),
]


def test_criterion_07_singularity_suite():
    for f_src, g_src, mult, rank in MONOMIAL_DATA:
        points = singular_report(data(f_src, g_src))
        assert len(points) == 1, f"({f_src},{g_src}): {points}"
        p = points[0]
        assert abs(p.w) < 1e-8
        assert p.multiplicity == mult
        assert p.rank == rank

    rng = random.Random(70707)
    recovered = 0
    for _ in range(50):
        count = rng.randint(1, 3)
        roots = []
        while len(roots) < count:
            cand = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if all(abs(cand - r) > 0.3 for r in roots):
                roots.append(cand)
        product = BinOp("-", Var("z"), Lit(roots[0]))
        for r in roots[1:]:
            product = BinOp("*", product, BinOp("-", Var("z"), Lit(r)))
        found = find_zeros(product, SQUARE)
        assert len(found) == len(roots)
        for r in roots:
            assert min(abs(z - r) for z in found) < 1e-8
        recovered += 1
    assert recovered == 50
    print("criterion 7 PASS: monomial multiplicities/ranks exact, "
          "50/50 planted roots within 1e-8")


def _random_potential(rng):
    terms = []
    for p in range(5):
        for q in range(5 - p):
            if p + q >= 2 and rng.random() < 0.4:
                c = rng.uniform(-1.0, 1.0)
                terms.append(f"({c:.6f})*u^{p}*v^{q}")
    return "+".join(terms) if terms else "0.5*u^2*v"


def test_criterion_08_reconstruction_roundtrip():
    rng = random.Random(80808)
    for trial in range(20):
        potential = parse_real_expr(_random_potential(rng))
        h11 = differentiate(differentiate(potential, "u"), "u")
        h12 = differentiate(differentiate(potential, "u"), "v")
        h22 = differentiate(differentiate(potential, "v"), "v")
        forms = PrescribedForms.from_expressions(h11, h12, h22, SQUARE)
        patch = surface_from_forms(forms)
        worst = 0.0
        for _ in range(4):
            u, v = interior(SQUARE, rng)
            fd = fundamental_forms(patch, u, v)
            have = (fd.h11, fd.h12, fd.h22)
            want = tuple(compile_real(ast)(u, v) for ast in (h11, h12, h22))
            worst = max(worst, max(abs(a - b) for a, b in zip(have, want)))
        assert worst < 1e-5, f"trial {trial}: {worst:.3e}"

    bad = PrescribedForms.from_expressions(
        parse_real_expr("v"), parse_real_expr("0"), parse_real_expr("0"),
        SQUARE)
    with pytest.raises(CodazziViolationError):
        surface_from_forms(bad)
    print("criterion 8 PASS: 20 random triples roundtrip within 1e-5, "
          "(v,0,0) rejected")


def test_criterion_09_minkowski_correspondence():
    for entry in minimal_entries():
        report = verify_flat_zmc(iota_lift(entry.patch), tol=1e-5)
        assert report.passed, f"{entry.name}: {report}"

    cubic = get("cubic_harmonic").patch
    assert verify_flat_zmc(iota_lift(cubic), tol=1e-5).passed
    loci = vanishing_h_locus(lambda u, v: fundamental_forms(cubic, u, v),
                             cubic.domain)
    assert len(loci) == 1
    assert loci[0].point == (0.0, 0.0)
    assert loci[0].isolated

    paraboloid = verify_flat_zmc(iota_lift(get("paraboloid").patch), tol=1e-5)
    assert not paraboloid.passed
    assert paraboloid.max_mean_curvature > 1.0
    assert not paraboloid.spacelike_violations
    print("criterion 9 PASS: minimal lifts flat+ZMC at 1e-5, cubic locus "
          "{(0,0)}, paraboloid fails on the mean vector")


def test_criterion_10_deformed_connection():
    for lam in (0.5, 1.0, 2.0):
        entry = get("dlambda_geodesic", lam=lam)
        rng = random.Random(101010)
        worst = 0.0
        for _ in range(15):
            u, v = interior(entry.patch.domain, rng)
            forms = h_lambda(entry.patch, lam, u, v)
            worst = max(worst, abs(forms.h11), abs(forms.h12),
                        abs(forms.h22))
        assert worst < 1e-6, f"lam={lam}: {worst:.3e}"
    print("criterion 10 PASS: deformed second form vanishes on the "
          "logarithmic graph for lam in {0.5, 1, 2}")


def test_criterion_11_rotational_ode():
    for c1, c2 in [(1.0, 0.0), (2.0, -1.0), (-0.5, 3.0)]:
        deviation = rotational_profile_check(c1, c2)
        assert deviation < 1e-7, f"({c1},{c2}): {deviation:.3e}"
    print("criterion 11 PASS: rotational profile matches c1*log x + c2 "
          "within 1e-7 on [1, e]")


def test_criterion_12_property_suites():
    rng = random.Random(121212)
    for entry in minimal_entries():
        lift = iota_lift(entry.patch)
        for _ in range(30):
            u, v = interior(entry.patch.domain, rng, inset=0.1)
            k = gaussian_curvature_induced(lift, u, v)
            assert abs(k) < 1e-5, f"{entry.name}: K = {k:.3e}"

        p = entry.patch
        loci = vanishing_h_locus(lambda u, v: fundamental_forms(p, u, v),
                                 p.domain)
        if entry.name == "plane":
            # totally geodesic: h vanishes on the whole grid, and the
            # report must say so rather than fake discreteness
            assert len(loci) == 1 and not loci[0].isolated
        else:
            assert all(c.isolated for c in loci), f"{entry.name}: {loci}"
    print("criterion 12 PASS: lifted minimal surfaces intrinsically flat "
          "within 1e-5; degeneracy loci isolated away from the plane")
