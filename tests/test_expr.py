"""Parser, evaluator, derivative and holomorphy checks."""

import cmath
import hashlib
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isomin.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    EvalError,
    Lit,
    Neg,
    ParseError,
    UnknownIdentifierError,
    Var,
    compile_expr,
    compile_real,
    differentiate,
    eval_expr,
    parse_expr,
    parse_real_expr,
    primitive,
    to_source,
)


def ev(src, w):
    return eval_expr(parse_expr(src), w)


class TestParse:
    def test_precedence_pow_before_mul(self):
        assert ev("2*z^3", 2) == 16

    def test_pow_right_associative(self):
        assert ev("2^3^2", 0) == 512

    def test_pow_binds_tighter_than_unary_minus(self):
        assert ev("-z^2", 3) == -9

    def test_unary_minus_in_exponent(self):
        assert ev("2^-2", 0) == 0.25

    def test_whitespace_insensitive(self):
        a = parse_expr("z ^ 2 + 1")
        b = parse_expr("z^2+1")
        assert a == b

    def test_structure(self):
        assert parse_expr("z+1") == BinOp("+", Var("z"), Lit(1 + 0j))
        assert parse_expr("-z") == Neg(Var("z"))
        assert parse_expr("exp(z)") == Call("exp", Var("z"))

    def test_constants(self):
        assert ev("i^2 + 1", 0) == 0
        assert abs(ev("e^(i*pi)", 0) + 1) < 1e-15

    def test_number_forms(self):
        assert ev("1.5e2", 0) == 150
        assert ev(".5", 0) == 0.5

    def test_syntax_error_offset_and_expected(self):
        with pytest.raises(ParseError) as ei:
            parse_expr("z +")
        assert ei.value.offset == 3
        assert any("identifier" in e for e in ei.value.expected)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as ei:
            parse_expr("(z + 1")
        assert ei.value.offset == 6

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as ei:
            parse_expr("w + 1")
        assert ei.value.name == "w"
        assert ei.value.offset == 0

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("tan(z)")

    def test_stray_character(self):
        with pytest.raises(ParseError) as ei:
            parse_expr("z ? 1")
        assert ei.value.offset == 2

    def test_real_mode_rejects_imaginary_unit(self):
        with pytest.raises(UnknownIdentifierError):
            parse_real_expr("i*u")
        ast = parse_real_expr("u^2 - v^2")
        assert eval_expr(ast, {"u": 3, "v": 1}) == 8

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("z 1")


class TestEval:
    def test_principal_log(self):
        assert abs(ev("log(z)", -1) - cmath.pi * 1j) < 1e-15

    def test_log_zero_is_domain_error(self):
        with pytest.raises(EvalError):
            ev("log(z)", 0)
        with pytest.raises(EvalError, match=r"^math domain error at z=0j$"):
            ev("log(z)", 0)

    def test_error_names_the_real_bindings(self):
        fn = compile_real(parse_real_expr("u/(v - 0.5)"))
        with pytest.raises(EvalError,
                           match=r"^division by zero at u=0\.0, v=0\.5$"):
            fn(0.0, 0.5)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/z", 0)

    def test_overflow_flagged(self):
        with pytest.raises(EvalError):
            ev("exp(exp(z))", 10)
        with pytest.raises(EvalError):
            compile_expr(parse_expr("1e400"))(0)

    def test_inf_product_flagged(self):
        with pytest.raises(EvalError):
            ev("(10^200)*(10^200)", 0)

    def test_zero_to_fractional_power(self):
        with pytest.raises(EvalError):
            ev("z^0.5", 0)

    def test_integer_power_of_zero(self):
        assert ev("z^3", 0) == 0

    def test_principal_fractional_power(self):
        got = ev("z^0.5", -4)
        assert abs(got - 2j) < 1e-14

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            eval_expr(Var("q"), {"z": 1})
        with pytest.raises(EvalError, match="unbound variable 'abs'"):
            eval_expr(Var("abs"), {})

    def test_variables_named_like_generated_helpers(self):
        ast = parse_expr("_pow^2 + exp(_complex) + inf",
                         variables=("_pow", "_complex", "inf"))
        assert eval_expr(ast, {"_pow": 2, "_complex": 0, "inf": 1}) == 6

    def test_matches_handwritten_cmath(self):
        rng = random.Random(7)
        corpus = {
            "z^3 - 2*z + 1": lambda z: z ** 3 - 2.0 * z + 1.0,
            "exp(z)*sin(z)": lambda z: cmath.exp(z) * cmath.sin(z),
            "log(z + 3)": lambda z: cmath.log(z + 3.0),
            "cosh(z)/(1 + z^2)": lambda z: cmath.cosh(z) / (1.0 + z ** 2),
            "(z - i)^2 * (z + i)": lambda z: (z - 1j) ** 2 * (z + 1j),
            "sin(cos(z))": lambda z: cmath.sin(cmath.cos(z)),
            "z^(1/3)": lambda z: cmath.exp((1.0 / 3.0) * cmath.log(z)),
            "1/(z - 0.25)": lambda z: 1.0 / (z - 0.25),
        }
        for src, ref in corpus.items():
            ast = parse_expr(src)
            fn = compile_expr(ast)
            for _ in range(20):
                w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                want = ref(w)
                for got in (eval_expr(ast, w), fn(w)):
                    assert cmath.isclose(got, want, rel_tol=1e-15), (src, w)
        with pytest.raises(EvalError):
            ev("1/(z - 0.25)", 0.25)
        with pytest.raises(EvalError):
            ev("log(z + 3)", -3)


class TestRoundTrip:
    CORPUS = [
        "z", "-z", "z+1", "z - 1 + 2", "2*z^3", "-z^2", "2^3^2",
        "z*(z + 1)", "(z + 1)/(z - 1)", "exp(z)", "log(z)*sin(z)",
        "cos(z)^2 + sin(z)^2", "z/2/3", "1 - -z", "-(z + 1)^2",
        "i*z", "pi*e", "z^-2", "sinh(z) + cosh(z)", "(-z)^2",
        "z^(z + 1)", "1/z^2", "-2^2", "z*2^z", "exp(-z^2/2)",
        "z - (1 - z)", "(z/(1 + z))^3", "0.5*z", "1.5e-2 + z",
        "sin(z*pi)", "log(exp(z))", "z^2^z", "-(-z)", "3.25*z^4",
        "(z + i)*(z - i)", "z/(2*i)", "cos(-z)", "2/(3/z)",
        "z^(1/2)", "exp(i*z)", "-i*z", "(1 + z)^(1 + z)",
        "z*z*z", "z + z + z", "1 - z - 1", "sinh(cosh(z))",
        "pi", "e", "i", "-pi*z^2", "(2 - z)^3",
    ]

    @pytest.mark.parametrize("src", CORPUS)
    def test_parse_print_parse(self, src):
        ast = parse_expr(src)
        assert parse_expr(to_source(ast)) == ast


class TestDifferentiate:
    def test_polynomial(self):
        d = differentiate(parse_expr("z^2"))
        assert eval_expr(d, 5) == 10

    def test_exp(self):
        d = differentiate(parse_expr("exp(z)"))
        assert d == Call("exp", Var("z"))

    def test_constant(self):
        assert differentiate(parse_expr("pi")) == Lit(0j)

    def test_quotient_and_chain(self):
        ast = parse_expr("sin(z^2)/z")
        d = differentiate(ast)
        w = 1.3 + 0.2j
        h = 1e-6
        fd = (eval_expr(ast, w + h) - eval_expr(ast, w - h)) / (2 * h)
        assert abs(eval_expr(d, w) - fd) < 1e-7

    def test_general_power(self):
        ast = parse_expr("z^z")
        d = differentiate(ast)
        w = 1.2 + 0.3j
        expect = eval_expr(ast, w) * (cmath.log(w) + 1)
        assert abs(eval_expr(d, w) - expect) < 1e-12

    def test_partial_derivatives_two_vars(self):
        ast = parse_real_expr("u^3 - 3*u*v^2")
        du = differentiate(ast, "u")
        dv = differentiate(ast, "v")
        env = {"u": 2.0, "v": 1.0}
        assert eval_expr(du, env) == 9  # 3u^2 - 3v^2
        assert eval_expr(dv, env) == -12  # -6uv

    @pytest.mark.parametrize("first, then", [(1j, complex(-0.0, 1.0)),
                                             (complex(-0.0, 1.0), 1j)])
    @pytest.mark.parametrize("nested", [False, True])
    def test_cache_tells_signed_zeros_apart(self, first, then, nested):
        # Lit equality (complex ==) does not tell -0.0 from 0.0; the
        # derivative must be the tree a cold cache builds from `then`
        def tree(k):
            cos = Call("cos", BinOp("*", Lit(k), Var("z")))
            return Call("exp", cos) if nested else cos

        def cold(k):
            kz = BinOp("*", Lit(k), Var("z"))
            d = BinOp("*", Neg(Call("sin", kz)), Lit(k))
            return BinOp("*", Call("exp", Call("cos", kz)), d) if nested else d

        differentiate(tree(first))
        assert repr(differentiate(tree(then))) == repr(cold(then))

    def test_derivative_source_reparses_to_same_values(self):
        for src in ["z^3*exp(z)", "log(z + 2)/z", "cos(z)^3"]:
            d = differentiate(parse_expr(src))
            d2 = parse_expr(to_source(d))
            w = 0.7 - 0.4j
            assert abs(eval_expr(d, w) - eval_expr(d2, w)) < 1e-14


def _dlambda_height(lam):
    # catalog.dlambda_geodesic's tree: log(lam*u + 1)/lam - u - v
    lit, u, v = Lit(complex(lam)), Var("u"), Var("v")
    arg = BinOp("+", BinOp("*", lit, u), Lit(1 + 0j))
    return BinOp("-", BinOp("-", BinOp("/", Call("log", arg), lit), u), v)


# sha256 prefixes of the reprs of every first and second partial of the
# catalog's heights and chart components, of the golden cases'
# expressions and of two trees whose partials fold literals
_PINNED_PARTIALS = {
    "0": "c37d50c4520e9ff1",
    "u^2+v^2": "18c57ac66fe13568",
    "u*v": "491e31c496e1be5f",
    "0.5*(u^2-v^2)": "56d4b7d8d48c3788",
    "u^3-3*u*v^2": "462e82ce41786340",
    "v*cos(u)": "3e51cd85135fa2be",
    "v*sin(u)": "aad898e504691dd7",
    "u": "e279140ec26f12f7",
    "exp(u)*cos(v)": "d5d2b339d6e75495",
    "exp(u)*sin(v)": "1feff2c136fd2c90",
    "u^3-3*u*v^2+u*v": "700d8d9abdae3290",
    "6*u": "a49742d27c794bfa",
    "-6*v": "4317fb675d3087a1",
    "-6*u": "175049e23e932edf",
    "1/(u+2)": "f1fc19ea2d8c23eb",
    "0.1*u^4-0.05*u^2+0.02*v^2": "41d4e019d2c8ebd5",
    "u^2-v^2": "ae96465411f2e4f0",
    "v": "0fdf3abe4ca0723d",
    "2*u+3*u": "dd69765402b40e5d",
    "(u-1)^3/2 - 2*u*(v+1)": "eb0ca7e718730f28",
    "dlambda 1.0": "5ec5782d86ddca1e",
    "dlambda -0.5": "61d6e6d5e9c85505",
    "exp(z)": "acdc9c7defafce7f",
    "z^2": "f4bc81a77c973d51",
    "z": "28bff74dbfda24bb",
    "z^2+1": "f4bc81a77c973d51",
    "z^2*(z-0.5)": "7eb13b76d3b10c6d",
    "1.2*exp(-0.5*z)": "20e40cc13d2da0b3",
    "(z+0.3-0.2*i)^2+0.02*i": "671403c0ac7692f8",
    "z^2 - 0.25": "f4bc81a77c973d51",
    "1": "bc385580d7e6c83f",
}


@pytest.mark.parametrize("name", sorted(_PINNED_PARTIALS))
def test_partial_derivative_trees_are_pinned(name):
    if name.startswith("dlambda"):
        tree, variables = _dlambda_height(float(name.split()[1])), ("u", "v")
    elif "z" in name or name == "1":
        tree, variables = parse_expr(name), ("z",)
    else:
        tree, variables = parse_real_expr(name), ("u", "v")
    reprs = []
    for a in variables:
        first = differentiate(tree, a)
        reprs.append(repr(first))
        reprs += [repr(differentiate(first, b)) for b in variables]
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest[:16] == _PINNED_PARTIALS[name]


def _random_ast(rng, depth, variables=("z",)):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        kind = rng.random()
        if kind < 0.45:
            return Lit(complex(round(rng.uniform(-2, 2), 3)))
        if kind < 0.55:
            return Lit(complex(0, round(rng.uniform(-2, 2), 3)))
        return Var(rng.choice(variables))
    if roll < 0.35:
        return Neg(_random_ast(rng, depth - 1, variables))
    if roll < 0.75:
        op = rng.choice("+-*/")
        return BinOp(op, _random_ast(rng, depth - 1, variables),
                     _random_ast(rng, depth - 1, variables))
    if roll < 0.85:
        # keep exponents small integers so derivatives stay tame
        return BinOp("^", _random_ast(rng, depth - 1, variables),
                     Lit(complex(rng.randint(1, 3))))
    fn = rng.choice(["exp", "log", "sin", "cos", "sinh", "cosh"])
    return Call(fn, _random_ast(rng, depth - 1, variables))


def _tame_at(fn, w, bound=1e3):
    try:
        vals = [fn(w), fn(w + 1e-5), fn(w - 1e-5),
                fn(w + 1e-5j), fn(w - 1e-5j)]
    except EvalError:
        return None
    if any(abs(v) > bound for v in vals):
        return None
    return vals[0]


def test_derivative_matches_finite_difference_1000_samples():
    rng = random.Random(20260814)
    checked = 0
    while checked < 1000:
        ast = _random_ast(rng, rng.randint(1, 3))
        d = differentiate(ast)
        fn = compile_expr(ast)
        dfn = compile_expr(d)
        w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if _tame_at(fn, w) is None or _tame_at(dfn, w) is None:
            continue
        h = 1e-5
        try:
            fd1 = (fn(w + h) - fn(w - h)) / (2 * h)
            fd2 = (fn(w + h / 2) - fn(w - h / 2)) / h
            # the same quotient along i: a holomorphic f has the same
            # derivative in every direction (Cauchy-Riemann)
            fi1 = (fn(w + 1j * h) - fn(w - 1j * h)) / (2j * h)
            fi2 = (fn(w + 0.5j * h) - fn(w - 0.5j * h)) / (1j * h)
            exact = dfn(w)
        except EvalError:
            continue
        # two-step agreement certifies the stencil converged at this point;
        # only then is the comparison against the symbolic value meaningful
        scale = max(1.0, abs(exact))
        if abs(fd1 - fd2) > 1e-7 * scale or abs(fi1 - fi2) > 1e-7 * scale:
            continue
        assert abs(fd2 - exact) <= 1e-5 * scale, (
            f"{to_source(ast)} at {w}: {fd2} vs {exact}")
        assert abs(fi2 - exact) <= 1e-5 * scale, (
            f"{to_source(ast)} at {w}: {fi2} along i vs {exact}")
        checked += 1
    assert checked == 1000


def test_round_trip_50_random_expressions():
    rng = random.Random(99)
    done = 0
    while done < 50:
        ast = _random_ast(rng, 3)
        src = to_source(ast)
        reparsed = parse_expr(src)
        # structural equality after one more print/parse cycle
        assert parse_expr(to_source(reparsed)) == reparsed
        done += 1


def test_compile_real_rejects_complex_values():
    ast = parse_real_expr("u^0.5")
    f = compile_real(ast)
    assert f(4.0, 0.0) == 2.0
    with pytest.raises(EvalError):
        f(-4.0, 0.0)


# one-frame compiled functions against a tree walk ---------------------------

def _walk(node, env):
    """The evaluator's contract in plain cmath: a literal with zero
    imaginary part is a float, integer exponents go through a ** n, any
    other power through the principal branch."""
    if isinstance(node, Lit):
        return node.value if node.value.imag else node.value.real
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_walk(node.arg, env)
    if isinstance(node, Call):
        return getattr(cmath, node.fn)(_walk(node.arg, env))
    a, b = _walk(node.lhs, env), _walk(node.rhs, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    if b.imag == 0 and float(b.real).is_integer():
        return a ** int(b.real)
    if a == 0:
        raise EvalError("zero raised to a non-integer power")
    return cmath.exp(b * cmath.log(a))


def _walk_value(node, args: dict, real: bool = False):
    """repr of the walk's value at args, or the EvalError message it must
    give; a binding is named by its complex or float value."""
    at = "at " + ", ".join(
        f"{k}={(complex(a) if isinstance(a, complex) else float(a))!r}"
        for k, a in args.items())
    try:
        val = complex(_walk(node, {k: complex(a) for k, a in args.items()}))
    except ZeroDivisionError:
        return f"division by zero {at}"
    except OverflowError:
        return f"overflow {at}"
    except (ValueError, EvalError) as exc:
        return f"{exc} {at}"
    if not cmath.isfinite(val):
        return f"overflow: result is not finite {at}"
    if real:
        if abs(val.imag) > 1e-9 * (1.0 + abs(val.real)):
            return f"expression does not evaluate to a real value {at}"
        return repr(val.real)
    return repr(val)


def _compiled_value(fn, *args):
    try:
        return repr(fn(*args))
    except EvalError as exc:
        return str(exc)


_REALS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.289, -2.0, -3.5,
                          1e-3, 1e150, -1e200, 710.0])
_LITERALS = st.one_of(
    _REALS.map(lambda x: Lit(complex(x, 0.0))),
    st.tuples(_REALS, _REALS.filter(bool)).map(lambda p: Lit(complex(*p))))
_EXPONENTS = st.one_of(
    st.integers(-6, 6).map(lambda n: Lit(complex(n))),
    st.integers(1, 6).map(lambda n: Neg(Lit(complex(n)))),
    st.sampled_from([Lit(101 + 0j), Lit(-150 + 0j), Lit(0.5 + 0j),
                     Lit(-1.5 + 0j), Lit(2 + 1j)]))


def _trees(leaves):
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(BinOp, st.just("^"), sub, st.one_of(_EXPONENTS, sub)),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub)), max_leaves=8)


# every kind of number a caller passes: ints, bools, signed zeros, numpy
# scalars and complex values with signed-zero parts
_SCALARS = st.one_of(
    st.sampled_from([0, 3, -2, True, False, 0.0, -0.0, np.float64(-0.0),
                     np.float64(1.5), np.float64(-2.25)]),
    st.floats(-5.0, 5.0))
_POINTS = st.one_of(
    _SCALARS,
    st.sampled_from([0j, complex(0.0, -0.0), complex(-0.0, 0.0),
                     complex(-0.0, -0.0), complex(-1.5, -0.0),
                     complex(-0.0, 2.0), 1 + 0j, -1 + 0j, -1.289 + 0j,
                     0.3 - 0.2j, 1j, 700 + 0j, -2.5 + 1e-300j, 1e200 + 0j]),
    st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                       allow_infinity=False))


@settings(max_examples=400, deadline=None)
@given(tree=_trees(st.one_of(st.just(Var("z")), _LITERALS)), z=_POINTS)
def test_compiled_matches_tree_walk_bit_for_bit(tree, z):
    want = _walk_value(tree, {"z": z})
    assert _compiled_value(compile_expr(tree), z) == want, to_source(tree)


@settings(max_examples=300, deadline=None)
@given(tree=_trees(st.one_of(st.sampled_from([Var("u"), Var("v")]),
                             _REALS.map(lambda x: Lit(complex(x, 0.0))))),
       u=_SCALARS, v=_SCALARS)
def test_compiled_real_matches_tree_walk_bit_for_bit(tree, u, v):
    want = _walk_value(tree, {"u": u, "v": v}, real=True)
    got = _compiled_value(compile_real(tree, ("u", "v")), u, v)
    assert got == want, to_source(tree)


def test_negative_literal_base_keeps_its_parentheses():
    ast = BinOp("^", Lit(-1.289 + 0j), Lit(2 + 0j))
    assert compile_expr(ast)(0) == (-1.289) ** 2
    assert compile_expr(BinOp("^", Lit(-2 + 0j), Neg(Lit(3 + 0j))))(0) \
        == -0.125


def test_non_real_literals_keep_signed_zeros():
    # repr(complex(0.0, -1.0)) is '-1j', which reads back as (-0-1j);
    # the sign of that zero decides the side of log's branch cut
    k = complex(0.0, -1.0)
    ast = Call("log", BinOp("*", Lit(k), Lit(k)))
    assert compile_expr(ast)(0) == cmath.log(k * k) == -math.pi * 1j


# constant subtrees are folded when compiling ---------------------------------

@pytest.mark.parametrize("src, message", [
    ("log(0)*z", "math domain error"),
    ("(1/0)+z", "division by zero"),
    ("exp(1000)*z", "overflow"),
    ("0^(-1)*z", "division by zero"),
    ("z*(1e200*1e200-1e200*1e200)", "overflow: result is not finite"),
])
def test_constant_subtree_that_fails_still_fails_at_call_time(src, message):
    fn = compile_expr(parse_expr(src))  # compiling does not raise
    with pytest.raises(EvalError) as exc:
        fn(0.5 - 1j)
    assert str(exc.value) == f"{message} at z=(0.5-1j)"


@pytest.mark.parametrize("src, want", [
    ("2*3", "(6+0j)"),
    ("exp(1)", "(2.718281828459045+0j)"),
    ("(0.871+0.07*i)", "(0.871+0.07j)"),
    ("-0*i", "(-0+0j)"),
    ("-(0*i)", "(-0-0j)"),
    ("log(-1)", "3.141592653589793j"),
    ("2^0.5", "(1.414213562373095+0j)"),
])
def test_constants_only_tree_keeps_its_value_and_type(src, want):
    assert repr(compile_expr(parse_expr(src), ())()) == want


def test_constant_subtree_is_evaluated_once():
    fn = compile_expr(parse_expr("exp(1)*z + cos((0.435+0.005*i))"))
    assert "_exp" not in fn.__code__.co_names
    assert "_cos" not in fn.__code__.co_names
    assert repr(compile_real(parse_real_expr("sinh(-0)*u"))(1.0, 0.0)) == "-0.0"


# node records ---------------------------------------------------------------

@pytest.mark.parametrize("node, want", [
    (Lit(0j), "Lit(value=0j)"),
    (Lit(complex(-0.0, 0.0)), "Lit(value=(-0+0j))"),
    (Lit(complex(0.0, -0.0)), "Lit(value=-0j)"),
    (Lit(complex(-0.0, -0.0)), "Lit(value=(-0-0j))"),
    (Lit(complex(-1.5, 2.0)), "Lit(value=(-1.5+2j))"),
    (Var("z"), "Var(name='z')"),
    (Neg(Lit(complex(-0.0, 0.0))), "Neg(arg=Lit(value=(-0+0j)))"),
    (BinOp("^", Var("u"), Lit(2 + 0j)),
     "BinOp(op='^', lhs=Var(name='u'), rhs=Lit(value=(2+0j)))"),
    (Call("exp", Neg(Var("z"))), "Call(fn='exp', arg=Neg(arg=Var(name='z')))"),
])
def test_node_reprs_are_pinned(node, want):
    # the compile and differentiate caches key on repr, because Lit
    # equality does not tell -0.0 from 0.0
    assert repr(node) == want


def test_signed_zero_literals_compile_apart():
    pos, neg = Lit(0j), Lit(complex(-0.0, 0.0))
    assert pos == neg and repr(pos) != repr(neg)
    assert repr(compile_real(BinOp("*", pos, Var("u")))(-1.0, 0.0)) == "-0.0"
    assert repr(compile_real(BinOp("*", neg, Var("u")))(-1.0, 0.0)) == "0.0"


# primitives -----------------------------------------------------------------

def _magnitude(node, env) -> float:
    """Rounding scale of evaluating the tree at env: its value with every
    sum and difference taken over absolute values.  Each function of the
    primitive class is at most exp(|Re x|) in modulus."""
    if isinstance(node, Lit):
        return abs(node.value)
    if isinstance(node, Var):
        return abs(env[node.name])
    if isinstance(node, Neg):
        return _magnitude(node.arg, env)
    if isinstance(node, Call):
        return (math.exp(abs(_walk(node.arg, env).real))
                * (1.0 + _magnitude(node.arg, env)))
    a, b = _magnitude(node.lhs, env), _magnitude(node.rhs, env)
    if node.op in "+-":
        return a + b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / abs(_walk(node.rhs, env))
    return a ** int(_walk(node.rhs, env).real)


def _lit(x):
    return Lit(complex(x))


# coefficients: constants for the variable u, v being a parameter
_PARAMS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.25, -3.0]).map(_lit),
    st.sampled_from([Var("v"), BinOp("*", Var("v"), Var("v"))]))
_DIVISORS = st.sampled_from([_lit(2.0), _lit(-0.5),
                             parse_real_expr("v*v + 1")])


def _polys(max_leaves, powers):
    leaves = st.one_of(_PARAMS, st.just(Var("u")))
    if powers:
        bases = st.one_of(st.just(Var("u")),
                          _PARAMS.map(lambda c: BinOp("+", Var("u"), c)))
        leaves = st.one_of(leaves, st.builds(
            lambda b, n: BinOp("^", b, _lit(n)), bases, st.integers(0, 3)))
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
        st.builds(BinOp, st.just("/"), sub, _DIVISORS)), max_leaves=max_leaves)


# k(a*u + b) with |a| up to 4; the polynomial factor stays of degree <= 3,
# so integration by parts gains at most 3!/0.5^4 = 96
_KERNEL_CALLS = st.builds(
    lambda fn, a, b: Call(fn, BinOp("+", BinOp("*", _lit(a), Var("u")), b)),
    st.sampled_from(["exp", "sin", "cos", "sinh", "cosh"]),
    st.sampled_from([0.5, -1.0, 1.0, 2.0, -3.0, 4.0, -4.0]), _PARAMS)
_LOW = _polys(3, powers=False)
MEMBERS = st.one_of(
    _polys(5, powers=True),
    st.builds(lambda p, k: BinOp("*", p, k), _LOW, _KERNEL_CALLS),
    st.builds(lambda k, p, q: BinOp("+", BinOp("*", k, p), q),
              _KERNEL_CALLS, _LOW, _polys(4, powers=True)))


# exp(2*u + 0)*v + 0 at a subnormal v: the derivative of the primitive
# computes v*0.5*(exp(2*u + 0)*2), and 0.5*5e-324 underflows to 0, so the
# bound needs an absolute floor where the scale itself is subnormal
_UNDERFLOW = BinOp("+", BinOp("*", Call("exp", BinOp(
    "+", BinOp("*", _lit(2.0), Var("u")), _lit(0.0))), Var("v")), _lit(0.0))


@settings(max_examples=300, deadline=None)
@given(tree=MEMBERS, u=st.floats(-1.0, 1.0), v=st.floats(-1.0, 1.0))
@example(tree=_UNDERFLOW, u=0.0, v=5e-324)
def test_primitive_differentiates_back(tree, u, v):
    prim = primitive(tree, "u")
    assert prim is not None, to_source(tree)
    deriv = differentiate(prim, "u")
    got, want = compile_real(deriv)(u, v), compile_real(tree)(u, v)
    env = {"u": complex(u), "v": complex(v)}
    scale = _magnitude(deriv, env) + _magnitude(tree, env)
    bound = max(1e-12 * scale, sys.float_info.min)
    assert abs(got - want) <= bound, (to_source(tree), to_source(prim))


@pytest.mark.parametrize("src, want", [
    ("0", "0"),
    ("3*v", "3*v*u"),
    ("6*u", "3*u^2"),
    ("-(u-1)^2/2", "-0.16666666666666666*u^3 + 0.5*u^2 + -0.5*u"),
    ("u*exp(2*u+v)", "0.5*(u*exp(2*u + v)) + -0.25*exp(2*u + v)"),
    ("cos(u/2)", "2*sin(u/2)"),
    # a zero coefficient drops as in differentiate, log(v) included
    ("(u-u)*log(v)", "0"),
])
def test_primitive_trees(src, want):
    assert to_source(primitive(parse_real_expr(src), "u")) == want


@pytest.mark.parametrize("src", [
    "log(u)", "log(u+2)*3", "u^0.5", "u^(-1)", "(u+1)^v", "2^u",
    "1/(u+2)", "v/u", "exp(u^2)", "sin(u*v)", "exp(u)*sin(u)",
    "exp(0*u)", "u^33", "u^6*exp(u/4)", "exp(0.00001*u)",
])
def test_primitive_outside_the_class_is_none(src):
    assert primitive(parse_real_expr(src), "u") is None


def test_primitive_treats_other_variables_as_constants():
    # log(v) and 1/v do not involve u: the class only looks at u
    prim = primitive(parse_real_expr("log(v)*u + 1/v"), "u")
    assert to_source(prim) == "log(v)/2*u^2 + 1/v*u"
    assert primitive(parse_expr("z^2*exp(i*z)"), "z") is not None
