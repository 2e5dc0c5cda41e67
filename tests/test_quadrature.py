"""The fused segment map against the lambda formulation it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isomin.expr import (BinOp, Call, EvalError, Lit, Var, compile_expr,
                         compile_real, parse_real_expr)
from isomin.quadrature import (_RULE, IntegrationError, adaptive_quad,
                               integrate_segment)

# the quadrature as it was written before the segment map moved into the
# panel: nodes on [a, b], a lambda mapping them onto the segment


def _old_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0j
    for x, w in _RULE:
        acc += w * f(mid + half * x)
    return half * acc


def _old_refine(f, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = _old_panel(f, a, mid)
    right = _old_panel(f, mid, b)
    if abs(left + right - whole) <= tol:
        return left + right
    if depth <= 0:
        raise IntegrationError(
            f"no convergence on [{a}, {b}] (residual "
            f"{abs(left + right - whole):.3e} > {tol:.3e})")
    return (_old_refine(f, a, mid, left, 0.5 * tol, depth - 1)
            + _old_refine(f, mid, b, right, 0.5 * tol, depth - 1))


def _old_adaptive_quad(f, a, b, tol=1e-10, max_depth=30):
    if a == b:
        return 0j
    return _old_refine(f, a, b, _old_panel(f, a, b), tol, max_depth)


def _old_integrate_segment(f, w0, w1, tol=1e-10, max_depth=30):
    dw = w1 - w0
    if dw == 0:
        return 0j
    try:
        return dw * _old_adaptive_quad(lambda t: f(w0 + t * dw), 0.0, 1.0,
                                       tol, max_depth)
    except IntegrationError as err:
        raise IntegrationError(
            f"segment ({w0.real!r}, {w0.imag!r}) -> ({w1.real!r}, "
            f"{w1.imag!r}): {err}") from None


def _outcome(quad, *args):
    """repr of the value, or the error's type and text."""
    try:
        return repr(quad(*args))
    except (IntegrationError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"


_Z = Var("z")
_SMOOTH = [
    BinOp("+", BinOp("*", Call("exp", _Z), BinOp("^", _Z, Lit(2 + 0j))),
          Lit(1 + 0j)),
    BinOp("*", Lit(1 + 0j), Call("cos", BinOp("*", Lit(0.435 + 0.005j), _Z))),
    BinOp("^", BinOp("+", _Z, Lit(0.3 - 0.2j)), Lit(2 + 0j)),
    Call("sinh", BinOp("*", Lit(-0.5 + 0j), _Z)),
]
_COORDS = st.floats(-2.0, 2.0)
_ENDS = st.builds(complex, _COORDS, _COORDS)
_TOLS = st.sampled_from([1e-6, 1e-10, 1e-14])


def _pole_near(w0, w1, s, gap):
    """1/(z - p) with p at distance gap beside the point w0 + s (w1 - w0)."""
    dw = w1 - w0
    p = w0 + s * dw + gap * 1j * dw / abs(dw)
    return BinOp("/", Lit(1 + 0j), BinOp("-", _Z, Lit(p)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), w0=_ENDS, w1=_ENDS, tol=_TOLS)
def test_segment_matches_the_lambda_formulation(data, w0, w1, tol):
    kind = data.draw(st.sampled_from(["smooth", "pole", "zero-length"]))
    if kind == "zero-length" or w0 == w1:
        w1 = w0
        tree = data.draw(st.sampled_from(_SMOOTH))
    elif kind == "pole":
        tree = _pole_near(w0, w1, data.draw(st.floats(0.0, 1.0)),
                          data.draw(st.sampled_from([1e-1, 1e-2, 1e-3])))
    else:
        tree = data.draw(st.sampled_from(_SMOOTH))
    f = compile_expr(tree)
    want = _outcome(_old_integrate_segment, f, w0, w1, tol)
    assert _outcome(integrate_segment, f, w0, w1, tol) == want


def test_pole_forces_several_levels_and_the_same_failure():
    w0, w1 = complex(-0.5, 0.25), complex(0.75, -0.5)
    calls = []
    f = compile_expr(_pole_near(w0, w1, 0.3, 1e-3))

    def counted(z):
        calls.append(z)
        return f(z)

    got = integrate_segment(counted, w0, w1, 1e-10)
    assert len(calls) > 48 * 4  # refined well past the first level
    assert repr(got) == repr(_old_integrate_segment(f, w0, w1, 1e-10))
    # 1e-14 halves at every level, below rounding long before depth 30
    with pytest.raises(IntegrationError) as new:
        integrate_segment(f, w0, w1, 1e-14)
    with pytest.raises(IntegrationError) as old:
        _old_integrate_segment(f, w0, w1, 1e-14)
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith("segment (-0.5, 0.25) -> (0.75, -0.5): "
                                     "no convergence on [")


_H = [parse_real_expr(s) for s in ("6*u", "-6*v", "u*v - 1/(u + 3)",
                                   "exp(u)*cos(v)", "1/(u - 0.3)")]


@settings(max_examples=200, deadline=None)
@given(h=st.sampled_from(_H), u0=_COORDS, u=_COORDS, v0=_COORDS, tol=_TOLS)
def test_real_interval_matches_the_direct_formulation(h, u0, u, v0, tol):
    # the shape of reconstruct's bending integral along the base row
    hf = compile_real(h)

    def bend(s):
        return (u - s) * hf(s, v0)

    want = _outcome(_old_adaptive_quad, bend, u0, u, tol)
    assert _outcome(adaptive_quad, bend, u0, u, tol) == want


def test_default_path_keeps_the_sign_of_a_zero_node():
    # a = -5e-324, b = 0 puts the nodes of the negative half at -0.0
    seen = []
    adaptive_quad(lambda t: seen.append(repr(t)) or 1.0, -5e-324, 0.0)
    old = []
    _old_adaptive_quad(lambda t: old.append(repr(t)) or 1.0, -5e-324, 0.0)
    assert "-0.0" in old and seen == old


def test_rule_is_numpys_16_point_legendre_rule():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert repr(_RULE) == repr(tuple(zip(nodes.tolist(), weights.tolist())))
