"""Expression trees for holomorphic functions of one complex variable.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?    # right-associative; binds tighter than
                                    # unary minus, so -z^2 == -(z^2)
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Predefined constants: i, pi, e.  Functions: exp, log, sin, cos, sinh,
cosh.  log and non-integer powers use the principal branch.  The same
grammar doubles as a real two-variable language for graph surfaces; pass
``variables=("u", "v")`` and the imaginary unit is not predefined.

Evaluation never lets non-finite values escape silently: log(0),
division by zero and overflow all raise :class:`EvalError`, and give
nan in the array frame of ``isomin._batch``.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Union


class ExprError(Exception):
    """Base class for expression handling failures."""


class ParseError(ExprError):
    """Syntax error; carries the byte offset and the expected token set."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str = ""):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.found = found
        what = f", found {found!r}" if found else ""
        super().__init__(
            f"syntax error at offset {offset}: expected "
            f"{' or '.join(self.expected)}{what}"
        )


class UnknownIdentifierError(ParseError):
    def __init__(self, offset: int, name: str, known: tuple[str, ...]):
        self.offset = offset
        self.name = name
        self.expected = known
        ExprError.__init__(
            self,
            f"unknown identifier {name!r} at offset {offset} "
            f"(known: {', '.join(known)})",
        )


class EvalError(ExprError):
    """Domain error, division by zero or overflow during evaluation."""


class Lit(NamedTuple):
    value: complex


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Expr"


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


class Call(NamedTuple):
    fn: str
    arg: "Expr"


Expr = Union[Lit, Var, Neg, BinOp, Call]

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            # only whitespace may remain unmatched
            rest = src[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(bad, ("number", "identifier", "operator"),
                             src[bad])
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str, variables: tuple[str, ...],
                 allow_imaginary: bool):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = variables
        self.constants = {"pi": complex(cmath.pi), "e": complex(cmath.e)}
        if allow_imaginary:
            self.constants["i"] = 1j

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def match_op(self, *ops: str) -> str | None:
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.advance()
            return text
        return None

    def expect_op(self, op: str) -> None:
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(off, (f"'{op}'",), text)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(off, ("operator", "end of input"), text)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            op = self.match_op("+", "-")
            if op is None:
                return node
            node = BinOp(op, node, self.term())

    def term(self) -> Expr:
        node = self.factor()
        while True:
            op = self.match_op("*", "/")
            if op is None:
                return node
            node = BinOp(op, node, self.factor())

    def factor(self) -> Expr:
        if self.match_op("-"):
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.match_op("^"):
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Lit(complex(float(text)))
        if kind == "ident":
            if self.match_op("("):
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(off, text, FUNCTIONS)
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in self.variables:
                return Var(text)
            if text in self.constants:
                return Lit(self.constants[text])
            known = self.variables + tuple(self.constants) + FUNCTIONS
            raise UnknownIdentifierError(off, text, known)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(off, ("number", "identifier", "'('", "'-'"), text)


def parse_expr(src: str, variables: tuple[str, ...] = ("z",), *,
               allow_imaginary: bool = True) -> Expr:
    """Parse ``src`` into an expression tree over the given variables."""
    return _Parser(src, variables, allow_imaginary).parse()


def parse_real_expr(src: str) -> Expr:
    """Real variables u and v, no imaginary unit; used for graph surfaces."""
    return parse_expr(src, ("u", "v"), allow_imaginary=False)


# evaluation ---------------------------------------------------------------

def _pow_value(a: complex, b: complex) -> complex:
    # integer exponents go through repeated multiplication, everything
    # else through the principal branch
    if b.imag == 0 and float(b.real).is_integer():
        return a ** int(b.real)
    if a == 0:
        raise EvalError("zero raised to a non-integer power")
    return cmath.exp(b * cmath.log(a))


_FUNC_IMPL: dict[str, Callable[[complex], complex]] = {
    "exp": cmath.exp,
    "log": cmath.log,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
}


def eval_expr(ast: Expr, env: complex | float | Mapping[str, complex]) -> complex:
    """Evaluate the tree once through :func:`compile_expr`.

    ``env`` is either a mapping of variable names to values or a single
    number bound to the variable ``z``.
    """
    if not isinstance(env, Mapping):
        env = {"z": complex(env)}
    fn = compile_expr(ast, tuple(env))
    try:
        return fn(*env.values())
    except NameError as exc:
        raise EvalError(f"unbound variable {exc.name!r}") from None


def _small_int(node: Expr) -> int | None:
    """n when the node is a literal integer exponent with |n| <= 100."""
    sign = 1
    if isinstance(node, Neg):
        sign, node = -1, node.arg
    if isinstance(node, Lit) and node.value.imag == 0:
        x = node.value.real
        if x.is_integer() and abs(x) <= 100:
            return sign * int(x)
    return None


# how _emit writes each operator, "^" with a small integer exponent n:
# inline in the scalar frame; in the array frame a product, quotient or
# power is a call into its namespace (see isomin._batch)
_SCALAR_OPS = {**{op: f"({{l}} {op} {{r}})" for op in "+-*/"},
               "^": "(({l}) ** {n})"}
_ARRAY_OPS = {**_SCALAR_OPS, "*": "_mul({l}, {r})", "/": "_div({l}, {r})",
              "^": "_ipow({l}, {n})"}


def _emit(node: Expr, names: Mapping[str, str], consts: list,
          ops: Mapping[str, str] = _SCALAR_OPS) -> str:
    """Python source of the tree.  names maps variables to local names;
    each non-real literal is appended to consts and read as _k<index>,
    because its repr can lose the sign of a zero real part.  A largest
    subtree without variables is evaluated here, with the code the
    scalar function would run, and read as a _k constant of the value's
    own type; one that raises stays in the code, so the call raises as
    before.  ops are the operators' templates, _SCALAR_OPS or
    _ARRAY_OPS."""

    def fold(node: Expr, src: str) -> str:
        if isinstance(node, Lit):
            return src
        ns = dict(_NAMESPACE, _div=operator.truediv, _ipow=operator.pow,
                  _mul=operator.mul)
        ns.update((f"_k{k}", c) for k, c in enumerate(consts))
        try:
            value = eval(src, ns)  # noqa: S307 - our own emitted code
        except Exception:  # whatever it raises, the call must raise
            return src
        consts.append(value)
        return f"_k{len(consts) - 1}"

    def rec(node: Expr) -> tuple[str, bool]:
        """(source, whether the subtree has no variable)"""
        if isinstance(node, Lit):
            if not node.value.imag:
                return repr(node.value.real), True
            consts.append(node.value)
            return f"_k{len(consts) - 1}", True
        if isinstance(node, Var):
            return names.get(node.name, node.name), False
        if isinstance(node, Neg):
            a, const = rec(node.arg)
            return f"(-{a})", const
        if isinstance(node, Call):
            a, const = rec(node.arg)
            return f"_{node.fn}({a})", const
        if not isinstance(node, BinOp):
            raise TypeError(f"not an expression node: {node!r}")
        n = _small_int(node.rhs) if node.op == "^" else None
        (l, lconst), (r, rconst) = rec(node.lhs), (
            (str(n), True) if n is not None else rec(node.rhs))
        if not (lconst and rconst):
            if lconst:
                l = fold(node.lhs, l)
            if rconst and n is None:
                r = fold(node.rhs, r)
        if node.op != "^":
            return ops[node.op].format(l=l, r=r), lconst and rconst
        if n is None:
            return f"_pow({l}, {r})", lconst and rconst
        # a ** n takes the same complex power as _pow_value's
        # a ** int(b.real); the base keeps its parentheses because a
        # negative literal is printed bare
        return ops["^"].format(l=l, n=n), lconst

    src, const = rec(node)
    return fold(node, src) if const else src


def _failed(message: str, variables: tuple[str, ...], args) -> EvalError:
    """EvalError whose message ends with the bindings it failed at."""
    bound = ", ".join(
        f"{name}={(complex(a) if isinstance(a, complex) else float(a))!r}"
        for name, a in zip(variables, args))
    return EvalError(f"{message} at {bound}" if bound else message)


# names the generated functions see; no builtins, so an unbound variable
# cannot resolve to one, and inf stands for a literal that overflowed
# while parsing
_NAMESPACE = {
    "__builtins__": {}, "inf": math.inf, "_pow": _pow_value,
    "_complex": complex, "_type": type, "_abs": abs, "_str": str,
    "_isfinite": cmath.isfinite, "_failed": _failed,
    "_ZeroDivisionError": ZeroDivisionError, "_OverflowError": OverflowError,
    "_ValueError": ValueError, "_EvalError": EvalError,
    **{"_" + name: fn for name, fn in _FUNC_IMPL.items()},
}

_TEMPLATE = """\
def _f({params}):
    try:
{converts}        _r = {body}
{convert}    except _ZeroDivisionError:
        raise _failed("division by zero", _names, {args}) from None
    except _OverflowError:
        raise _failed("overflow", _names, {args}) from None
    except (_ValueError, _EvalError) as _exc:
        raise _failed(_str(_exc), _names, {args}) from None
    if not _isfinite(_r):
        raise _failed("overflow: result is not finite", _names, {args})
{tail}"""

# emitted only for a tree whose value can be real (see _returns_complex)
_CONVERT = """\
        if _type(_r) is not _complex:
            _r = _complex(_r)
"""

_REAL_TAIL = """\
    if _abs(_r.imag) > 1e-9 * (1.0 + _abs(_r.real)):
        raise _failed("expression does not evaluate to a real value",
                      _names, {args})
    return _r.real
"""


def _returns_complex(node: Expr, variables: tuple[str, ...]) -> bool:
    """Whether the emitted code of the tree yields a complex for any
    arguments: the converted variables, non-real literals and cmath
    calls are complex, and so is +, -, * or / with a complex operand; a
    power is complex when its base is, since a real base to an integer
    power stays real.  An unbound name reads the generator's namespace,
    which holds the float inf."""
    if isinstance(node, Lit):
        return bool(node.value.imag)
    if isinstance(node, Var):
        return node.name in variables
    if isinstance(node, Call):
        return True
    if isinstance(node, Neg):
        return _returns_complex(node.arg, variables)
    if node.op == "^":
        return _returns_complex(node.lhs, variables)
    return (_returns_complex(node.lhs, variables)
            or _returns_complex(node.rhs, variables))


def _generate(ast: Expr, variables: tuple[str, ...], real: bool) -> Callable:
    """One python function that converts its arguments with complex()
    unless they are complex already, evaluates the tree inline and
    raises EvalError naming the arguments it was called with."""
    # positional names only, so no variable can shadow a helper
    params = [f"_a{k}" for k in range(len(variables))]
    consts: list[complex] = []
    body = _emit(ast, {v: f"_x{k}" for k, v in enumerate(variables)}, consts)
    args = f"({', '.join(params)},)" if params else "()"
    code = _TEMPLATE.format(
        params=", ".join(params),
        converts="".join(
            f"        _x{k} = {a} if _type({a}) is _complex else _complex({a})\n"
            for k, a in enumerate(params)),
        body=body,
        convert="" if _returns_complex(ast, variables) else _CONVERT,
        args=args,
        tail=_REAL_TAIL.format(args=args) if real else "    return _r\n")
    ns = dict(_NAMESPACE, _names=variables)
    ns.update((f"_k{k}", c) for k, c in enumerate(consts))
    exec(code, ns)  # noqa: S102 - codegen from our own AST only
    return ns["_f"]


@lru_cache(maxsize=1024)
def _compiled(ast: Expr, variables: tuple[str, ...], real: bool,
              key: str) -> Callable:
    # key is repr(ast): Lit equality (complex ==) does not tell -0.0 from
    # 0.0, and the sign of a zero can change a value
    return _generate(ast, variables, real)


def compile_expr(ast: Expr, variables: tuple[str, ...] = ("z",)
                 ) -> Callable[..., complex]:
    """Compile the tree to a python function of the given variables.

    This is the only evaluator: integer powers multiply, everything else
    takes the principal branch, and log(0), division by zero and
    non-finite results raise :class:`EvalError`.  A name that is not
    among ``variables`` raises ``NameError`` when called.
    """
    return _compiled(ast, variables, False, repr(ast))


def compile_real(ast: Expr) -> Callable[[float, float], float]:
    """Compile a real tree in u and v; rejects non-real values at runtime."""
    return _compiled(ast, ("u", "v"), True, repr(ast))


# differentiation ----------------------------------------------------------

_ZERO = Lit(0j)
_ONE = Lit(1 + 0j)


def _is_lit(node: Expr, value: complex | None = None) -> bool:
    return isinstance(node, Lit) and (value is None or node.value == value)


def _number(node: Expr) -> complex | None:
    """Value of a tree without variables, None when it has one or
    fails to evaluate."""
    if isinstance(node, Lit):
        return node.value
    try:
        return _compiled(node, (), False, repr(node))()
    except (EvalError, NameError):
        return None


def _fold(op: str, a: Expr, b: Expr) -> Expr | None:
    """a op b as one literal when both are literals and it evaluates."""
    if isinstance(a, Lit) and isinstance(b, Lit):
        value = _number(BinOp(op, a, b))
        return None if value is None else Lit(value)
    return None


def _add(a: Expr, b: Expr) -> Expr:
    if _is_lit(a, 0):
        return b
    if _is_lit(b, 0):
        return a
    return _fold("+", a, b) or BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_lit(b, 0):
        return a
    if _is_lit(a, 0):
        return _neg(b)
    return _fold("-", a, b) or BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_lit(a, 0) or _is_lit(b, 0):
        return _ZERO
    if _is_lit(a, 1):
        return b
    if _is_lit(b, 1):
        return a
    return _fold("*", a, b) or BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_lit(a, 0) and not _is_lit(b, 0):
        return _ZERO
    if _is_lit(b, 1):
        return a
    return _fold("/", a, b) or BinOp("/", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Lit):
        return Lit(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow_node(a: Expr, b: Expr) -> Expr:
    if _is_lit(b, 1):
        return a
    if _is_lit(b, 0):
        return _ONE
    return BinOp("^", a, b)


def differentiate(ast: Expr, var: str = "z") -> Expr:
    """Symbolic derivative with respect to ``var``, lightly simplified."""
    return _derive(ast, var, repr(ast))


@lru_cache(maxsize=512)
def _derive(ast: Expr, var: str, key: str) -> Expr:
    # key is repr(ast), as in _compiled: Lit equality does not tell -0.0
    # from 0.0, so trees differing only there would share a derivative
    if isinstance(ast, Lit):
        return _ZERO
    if isinstance(ast, Var):
        return _ONE if ast.name == var else _ZERO
    if isinstance(ast, Neg):
        return _neg(differentiate(ast.arg, var))
    if isinstance(ast, BinOp):
        a, b = ast.lhs, ast.rhs
        da, db = differentiate(a, var), differentiate(b, var)
        if ast.op == "+":
            return _add(da, db)
        if ast.op == "-":
            return _sub(da, db)
        if ast.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if ast.op == "/":
            num = _sub(_mul(da, b), _mul(a, db))
            return _div(num, _pow_node(b, Lit(2 + 0j)))
        # power rule; constant exponent stays polynomial-friendly
        if _is_lit(db, 0):
            return _mul(_mul(b, _pow_node(a, _sub(b, _ONE))), da)
        log_term = _mul(db, Call("log", a))
        frac = _div(_mul(b, da), a)
        return _mul(ast, _add(log_term, frac))
    if isinstance(ast, Call):
        da = differentiate(ast.arg, var)
        a = ast.arg
        if ast.fn == "exp":
            outer: Expr = Call("exp", a)
        elif ast.fn == "log":
            return _div(da, a)
        elif ast.fn == "sin":
            outer = Call("cos", a)
        elif ast.fn == "cos":
            outer = _neg(Call("sin", a))
        elif ast.fn == "sinh":
            outer = Call("cosh", a)
        else:  # cosh
            outer = Call("sinh", a)
        return _mul(outer, da)
    raise TypeError(f"not an expression node: {ast!r}")


# primitives ---------------------------------------------------------------

# the functions k whose p(var)*k(a*var + b) integrate in closed form, each
# with its own primitive as (sign, function)
_KERNELS = {"exp": (1, "exp"), "sin": (-1, "cos"), "cos": (1, "sin"),
            "sinh": (1, "cosh"), "cosh": (1, "sinh")}
_DEGREE_CAP = 32  # largest power of var an expanded product may reach
# largest factor n!/(n-j)!/|a|^(j+1) integration by parts may put on a
# term: the terms of the primitive then cancel to at most about 1e-12 of
# absolute error where var and the coefficients are of order one
_PARTS_GAIN = 1e4


def _free_of(node: Expr, var: str) -> bool:
    if isinstance(node, Var):
        return node.name != var
    if isinstance(node, Lit):
        return True
    if isinstance(node, BinOp):
        return _free_of(node.lhs, var) and _free_of(node.rhs, var)
    return _free_of(node.arg, var)


def _merge(into: dict, key, coef: Expr, kernel,
           combine: Callable[[Expr, Expr], Expr] = _add) -> None:
    into[key] = (combine(into[key][0] if key in into else _ZERO, coef), kernel)


def _series(node: Expr, var: str) -> dict | None:
    """node as a sum of c * var^n * k over {(n, key of k): (c, k)}.

    c is a tree without var and k is None or (fn, arg, a) for fn(arg)
    with arg = a*var + (a tree without var), a a non-zero number.  None
    when node is outside that class.
    """
    if _free_of(node, var):
        return {(0, None): (node, None)}
    if isinstance(node, Var):
        return {(1, None): (_ONE, None)}
    if isinstance(node, Neg):
        inner = _series(node.arg, var)
        if inner is None:
            return None
        return {key: (_neg(c), k) for key, (c, k) in inner.items()}
    if isinstance(node, Call):
        arg = _series(node.arg, var) if node.fn in _KERNELS else None
        if arg is None or any(k is not None or n > 1 for n, k in arg):
            return None
        a = _number(arg[(1, None)][0]) if (1, None) in arg else None
        if not a:
            return None
        return {(0, (node.fn, repr(node.arg))): (_ONE, (node.fn, node.arg, a))}
    lhs = _series(node.lhs, var)
    if lhs is None:
        return None
    if node.op in "+-":
        rhs = _series(node.rhs, var)
        if rhs is None:
            return None
        out = dict(lhs)
        for key, (c, k) in rhs.items():
            _merge(out, key, c, k, _add if node.op == "+" else _sub)
        return out
    if node.op == "/":
        if not _free_of(node.rhs, var):
            return None
        return {key: (_div(c, node.rhs), k) for key, (c, k) in lhs.items()}
    if node.op == "*":
        rhs = _series(node.rhs, var)
        return None if rhs is None else _product(lhs, rhs)
    n = _small_int(node.rhs)
    if n is None or n < 0:
        return None
    out: dict | None = {(0, None): (_ONE, None)}
    for _ in range(n):
        out = _product(out, lhs)
        if out is None:
            return None
    return out


def _product(a: dict, b: dict) -> dict | None:
    out: dict = {}
    for (n1, key1), (c1, k1) in a.items():
        for (n2, key2), (c2, k2) in b.items():
            if (k1 is not None and k2 is not None) or n1 + n2 > _DEGREE_CAP:
                return None
            _merge(out, (n1 + n2, key1 or key2), _mul(c1, c2), k1 or k2)
    return out


def primitive(ast: Expr, var: str = "z") -> Expr | None:
    """A tree P with dP/dvar = ast, or None outside the closed class.

    A subtree without var is a constant, so another variable is a
    parameter.  The class: sums, differences and negation; constant
    factors and division by a constant; polynomials in var, expanding
    products and non-negative integer powers up to degree 32; and
    p(var) * k(a*var + b) for k among exp, sin, cos, sinh and cosh, a a
    non-zero number, by repeated integration by parts,

        int x^n k(ax+b) dx = sum_j (-1)^j n!/(n-j)! x^(n-j) K_(j+1)(ax+b)

    with K_m the m-th primitive of k(ax+b) in x, which carries 1/a^m,
    as long as no factor n!/(n-j)!/|a|^(j+1) exceeds 1e4.  log,
    non-integer powers, a division by a tree in var, k of a non-affine
    argument and larger factors return None: their primitives, where
    they exist, are left to quadrature.
    """
    series = _series(ast, var)
    if series is None:
        return None
    x = Var(var)
    total: Expr = _ZERO
    for (n, _), (c, k) in series.items():
        if _is_lit(c, 0):
            continue
        if k is None:
            total = _add(total, _mul(_div(c, Lit(complex(n + 1))),
                                     _pow_node(x, Lit(complex(n + 1)))))
            continue
        fn, arg, a = k
        sign, scale = 1, 1 + 0j
        for j in range(n + 1):
            step, fn = _KERNELS[fn]
            sign, scale = sign * step, scale * a
            if math.perm(n, j) > _PARTS_GAIN * abs(scale):
                return None
            factor = (-1) ** j * math.perm(n, j) * sign / scale
            term = _mul(_pow_node(x, Lit(complex(n - j))), Call(fn, arg))
            total = _add(total, _mul(_mul(c, Lit(complex(factor))), term))
    return total


def majorant(ast: Expr, radius: float, var: str = "z") -> float:
    """A bound on the sum of the moduli of the tree's terms where
    |var| <= radius: the modulus of a subtree without var, radius for
    var, a sum for + and -, a product for * and non-negative integer
    powers, division by the modulus of a divisor without var, and e^m
    for exp, sin, cos, sinh and cosh of an argument bounded by m.
    Anything else is inf.  It sizes the rounding of evaluating the tree,
    which the value alone does not where terms cancel, as in the
    integration by parts of primitive.
    """
    if _free_of(ast, var):
        value = _number(ast)
        return math.inf if value is None else math.hypot(value.real,
                                                         value.imag)
    if isinstance(ast, Var):
        return radius
    if isinstance(ast, Neg):
        return majorant(ast.arg, radius, var)
    if isinstance(ast, Call):
        m = majorant(ast.arg, radius, var) if ast.fn in _KERNELS else math.inf
        return math.exp(m) if m < 709.0 else math.inf
    lhs = majorant(ast.lhs, radius, var)
    if ast.op in "+-*":
        rhs = majorant(ast.rhs, radius, var)
        return lhs * rhs if ast.op == "*" else lhs + rhs
    if ast.op == "/":
        div = majorant(ast.rhs, radius, var) if _free_of(ast.rhs, var) else 0.0
        return lhs / div if div else math.inf
    n = _small_int(ast.rhs)
    try:
        return lhs ** n if n is not None and n >= 0 else math.inf
    except OverflowError:
        return math.inf


# printing -----------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Lit):
        v = node.value
        if v.imag != 0 and v.real != 0:
            return _PREC_ATOM  # printed with its own parens
        if v.imag < 0 or (v.imag == 0 and v.real < 0):
            return _PREC_NEG
        if v.imag != 0 and v.imag != 1:
            return _PREC_MUL  # printed as b*i
        return _PREC_ATOM
    return _PREC_ATOM


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_lit(v: complex) -> str:
    if v.imag == 0:
        return _fmt_real(v.real)
    if v.real == 0:
        if v.imag == 1:
            return "i"
        if v.imag == -1:
            return "-i"
        return f"{_fmt_real(v.imag)}*i"
    return f"({_fmt_real(v.real)} + {_fmt_real(v.imag)}*i)"


def to_source(ast: Expr) -> str:
    """Render the tree in the input grammar with minimal parentheses."""

    def wrap(node: Expr, minimum: int) -> str:
        text = rec(node)
        if _prec(node) < minimum:
            return f"({text})"
        return text

    def rec(node: Expr) -> str:
        if isinstance(node, Lit):
            return _fmt_lit(node.value)
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Neg):
            return "-" + wrap(node.arg, _PREC_NEG)
        if isinstance(node, BinOp):
            if node.op in "+-":
                return (wrap(node.lhs, _PREC_ADD)
                        + f" {node.op} "
                        + wrap(node.rhs, _PREC_ADD + 1))
            if node.op in "*/":
                return (wrap(node.lhs, _PREC_MUL)
                        + node.op
                        + wrap(node.rhs, _PREC_MUL + 1))
            # '^' is right-associative and the base must be atomic
            return (wrap(node.lhs, _PREC_POW + 1)
                    + "^"
                    + wrap(node.rhs, _PREC_POW))
        if isinstance(node, Call):
            return f"{node.fn}({rec(node.arg)})"
        raise TypeError(f"not an expression node: {node!r}")

    return rec(ast)
