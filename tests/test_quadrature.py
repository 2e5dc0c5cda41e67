"""The fused segment map against the lambda formulation it replaced, and
the round-off stop against the absolute-only rule it extends."""

import operator
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isomin.expr import (BinOp, Call, EvalError, Lit, Var, compile_expr,
                         compile_real, parse_real_expr)
from isomin.quadrature import (_RULE, IntegrationError, adaptive_quad,
                               integrate_segment)

_EPS = sys.float_info.epsilon
_ROUNDOFF = 50 * _EPS  # QUADPACK's round-off stop, 50*epmach

# the quadrature as it was written before the segment map moved into the
# panel: nodes on [a, b], a lambda mapping them onto the segment; it has
# the round-off stop, so that it differs from the module only in the map


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
    err = abs(left + right - whole)
    if err <= tol or err <= _ROUNDOFF * abs(left + right):
        return left + right
    if depth <= 0:
        raise IntegrationError(
            f"no convergence on [{a}, {b}] (residual {err:.3e} > "
            f"{max(tol, _ROUNDOFF * abs(left + right)):.3e})")
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


# the absolute-only rule verbatim, as it stood before the round-off stop


def _abs_panel(f, a: float, b: float, origin, step) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0j
    for x, w in _RULE:
        acc += w * f(origin + (mid + half * x) * step)
    return half * acc


def _abs_refine(f, a: float, b: float, whole: complex, tol: float,
                depth: int, origin, step) -> complex:
    mid = 0.5 * (a + b)
    left = _abs_panel(f, a, mid, origin, step)
    right = _abs_panel(f, mid, b, origin, step)
    if abs(left + right - whole) <= tol:
        return left + right
    if depth <= 0:
        raise IntegrationError(
            f"no convergence on [{a}, {b}] (residual "
            f"{abs(left + right - whole):.3e} > {tol:.3e})")
    return (_abs_refine(f, a, mid, left, 0.5 * tol, depth - 1, origin, step)
            + _abs_refine(f, mid, b, right, 0.5 * tol, depth - 1, origin,
                          step))


def _abs_integrate_segment(f, w0, w1, tol):
    dw = w1 - w0
    if dw == 0:
        return 0j
    return dw * _abs_refine(f, 0.0, 1.0, _abs_panel(f, 0.0, 1.0, w0, dw),
                            tol, 30, w0, dw)


_MP_FUNCS = {"exp": mpmath.exp, "cos": mpmath.cos, "sinh": mpmath.sinh}
_MP_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def _mp_walk(node, z):
    """The tree at z in mpmath arithmetic (the trees of this module)."""
    if isinstance(node, Lit):
        return mpmath.mpc(node.value)
    if isinstance(node, Var):
        return z
    if isinstance(node, Call):
        return _MP_FUNCS[node.fn](_mp_walk(node.arg, z))
    return _MP_OPS[node.op](_mp_walk(node.lhs, z), _mp_walk(node.rhs, z))


def _mp_segment(tree, w0, w1, breaks=()):
    """(integral of the tree along the segment, integral of its modulus
    over t in [0, 1]) by mpmath.quad, split at the parameters breaks."""
    dw = mpmath.mpc(w1 - w0)
    at = [0, *breaks, 1]
    with mpmath.workdps(30):
        value = dw * mpmath.quad(lambda t: _mp_walk(tree, w0 + t * dw), at)
        modulus = mpmath.quad(lambda t: abs(_mp_walk(tree, w0 + t * dw)), at)
    return complex(value), float(modulus)


def _stop_bound(w0, w1, tol, modulus):
    """How far the round-off stop may move a segment's value: 2 tol plus
    100 epsilons of the integral of |f|, both scaled by |w1 - w0|."""
    return abs(w1 - w0) * (2 * tol + 100 * _EPS * modulus)


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
# |F| up to e^30 and e^34 on the drawn segments: the data that exits 3
# without a round-off stop
_LARGE = [
    Call("exp", BinOp("*", Lit(15 + 0j), _Z)),
    Call("exp", BinOp("+", BinOp("^", _Z, Lit(2 + 0j)),
                      BinOp("*", Lit(15 + 0j), _Z))),
]


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


def _attempt(quad, f, w0, w1, tol):
    """(value, None), or (None, the error) where quad refuses."""
    try:
        return quad(f, w0, w1, tol), None
    except (IntegrationError, EvalError) as exc:
        return None, exc


def _check_roundoff_stop(kind, tree, w0, w1, s, tol):
    f = compile_expr(tree)
    old, old_err = _attempt(_abs_integrate_segment, f, w0, w1, tol)
    new, new_err = _attempt(integrate_segment, f, w0, w1, tol)
    if (isinstance(new_err, EvalError) and isinstance(old_err, EvalError)
            and str(new_err) == str(old_err)):
        # the integrand itself failed, at the same point under both rules
        return
    if new is None:
        # the stop accepts every level the copy accepts, so it refuses
        # only where the copy refuses; a level whose sum is not finite
        # is refused as an overflow at once, where the copy bisects it
        assert old is None
        # the integral is finite off the path, but a pole 1e-3 away
        # costs digits to cancellation in z - p, and at tol 1e-14 the
        # halved tolerance still falls below what the stop accepts
        assert kind == "on-path" or (kind == "pole" and tol == 1e-14)
        return
    if kind == "on-path":
        # a pole on the path refuses whenever the copy refuses; both
        # accept only where symmetric nodes cancel it
        assert old is not None
        return
    ref, modulus = _mp_segment(tree, w0, w1, (s,) if kind == "pole" else ())
    bound = _stop_bound(w0, w1, tol, modulus)
    assert abs(new - (ref if old is None else old)) <= bound


@settings(max_examples=120, deadline=None)
@given(data=st.data(), w0=_ENDS, w1=_ENDS, tol=_TOLS)
def test_roundoff_stop_against_the_absolute_only_rule(data, w0, w1, tol):
    kind = data.draw(st.sampled_from(["smooth", "large", "pole", "on-path"]))
    if w0 == w1:
        w1 = w0 + 1
    s = data.draw(st.floats(0.0, 1.0))
    if kind in ("pole", "on-path"):
        gap = data.draw(st.sampled_from([1e-1, 1e-2, 1e-3]))
        tree = _pole_near(w0, w1, s, gap if kind == "pole" else 0.0)
    else:
        tree = data.draw(st.sampled_from(_LARGE if kind == "large"
                                         else _SMOOTH))
    _check_roundoff_stop(kind, tree, w0, w1, s, tol)


def test_roundoff_stop_on_a_subnormal_segment_through_a_pole():
    # a drawn case: across a segment 1.1e-308 long every node is within
    # 1.1e-308 of the pole, so 1/(z - p) overflows at the first node, and
    # both rules raise the integrand's EvalError there
    w0, w1 = 0j, 1.1125369292536007e-308j
    tree = _pole_near(w0, w1, 0.0, 0.0)
    with pytest.raises(EvalError, match="overflow: result is not finite "
                                        "at z=5.8959256186744e-311j"):
        integrate_segment(compile_expr(tree), w0, w1, 1e-6)
    _check_roundoff_stop("on-path", tree, w0, w1, 0.0, 1e-6)


def test_non_finite_panel_sum_is_refused_after_one_level():
    # every value is finite, but 16 of them weighted sum past the float
    # limit: whole panel and two halves, 48 calls, then the refusal
    calls = []

    def huge(z):
        calls.append(z)
        return 1.7e308 + 0j

    with pytest.raises(EvalError) as info:
        integrate_segment(huge, 0j, 1 + 0j, 1e-10)
    assert len(calls) == 48
    assert str(info.value) == ("segment (0.0, 0.0) -> (1.0, 0.0): overflow: "
                               "panel sum is not finite on [0.0, 1.0]")
    assert not isinstance(info.value, IntegrationError)


def test_pole_forces_several_levels_and_the_same_failure():
    w0, w1 = complex(-0.5, 0.25), complex(0.75, -0.5)
    calls = []
    tree = _pole_near(w0, w1, 0.3, 1e-3)
    f = compile_expr(tree)

    def counted(z):
        calls.append(z)
        return f(z)

    got = integrate_segment(counted, w0, w1, 1e-10)
    assert len(calls) > 48 * 4  # refined well past the first level
    assert repr(got) == repr(_old_integrate_segment(f, w0, w1, 1e-10))
    # 1e-14 halves at every level, below rounding long before depth 30:
    # the absolute-only rule refuses this finite integral, the round-off
    # stop gives it
    with pytest.raises(IntegrationError):
        _abs_integrate_segment(f, w0, w1, 1e-14)
    ref, modulus = _mp_segment(tree, w0, w1, (0.3,))
    got = integrate_segment(f, w0, w1, 1e-14)
    assert abs(got - ref) <= _stop_bound(w0, w1, 1e-14, modulus)
    # a pole on the segment still refuses, naming the segment
    on_path = compile_expr(_pole_near(w0, w1, 0.3, 0.0))
    with pytest.raises(IntegrationError) as new:
        integrate_segment(on_path, w0, w1, 1e-10)
    with pytest.raises(IntegrationError) as old:
        _old_integrate_segment(on_path, w0, w1, 1e-10)
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
