"""Level 0 of `gen`'s row segments with numpy, for grid_eval's large grids.

weierstrass.grid_eval imports this module only on grids of at least
_BATCH_MIN vertices and only where numpy imports, so no other command
loads numpy or compiles this code.  The integrand is expr._emit's code
for the same tree, run in a second namespace (the array frame), and
every segment that level 0 does not accept goes to the scalar rule.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from . import weierstrass
from .expr import FUNCTIONS, Expr, _ARRAY_OPS, _emit
from .quadrature import _LEVEL0, _RULE, _converged

_BATCH_SEGMENTS = 2048  # row segments per numpy block


def _namespace() -> dict:
    """Names of the array frame.  Products, quotients and small whole
    powers take python's complex arithmetic, one rounding per operation,
    where numpy's complex loops may fuse a multiply and an add or
    multiply by a reciprocal.  A call, quotient or power gives nan
    wherever an argument or the value is not finite, so that every point
    where the scalar frame raises is non-finite here (1/exp(800) is 0 in
    numpy, an overflow in cmath)."""
    isfinite, where, real, imag = np.isfinite, np.where, np.real, np.imag

    def mul(a, b):
        if not (np.iscomplexobj(a) and np.iscomplexobj(b)):
            return a * b  # a real factor rounds alike either way
        ar, ai, br, bi = real(a), imag(a), real(b), imag(b)
        out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)),
                       dtype=complex)
        re, im = out.real, out.imag
        np.multiply(ar, br, out=re)
        re -= ai * bi
        np.multiply(ar, bi, out=im)
        im += ai * br
        return out

    def quot(a, b):
        # Smith's method, as python divides complex numbers; a zero
        # divisor gives nan through 0/0
        if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
            return np.divide(a, b)
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        wide = abs(br) >= abs(bi)
        ratio = where(wide, bi / br, br / bi)
        denom = where(wide, br + bi * ratio, br * ratio + bi)
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
        out.real = where(wide, ar + ai * ratio, ar * ratio + ai) / denom
        out.imag = where(wide, ai - ar * ratio, ai * ratio - ar) / denom
        return out

    def checked(fn):
        def call(*args):
            value = fn(*args)
            ok = isfinite(value)
            for a in args:
                ok &= isfinite(a)
            return value if ok.all() else where(ok, value, np.nan)
        return call

    exp, log, power = checked(np.exp), checked(np.log), checked(np.power)

    def ipow(a, n):
        # python's a ** n for |n| <= 100: squarings, and one over the
        # positive power for n < 0
        r, m = 1 + 0j, abs(n)
        while m:
            if m & 1:
                r = mul(r, a)
            m >>= 1
            if m:
                a = mul(a, a)
        return quot(1.0, r) if n < 0 else r

    def pow_(a, b):
        # _pow_value elementwise: a whole exponent up to 100 multiplies,
        # a larger one takes python's polar formula, left to the scalar
        # frame as nan, and any other the principal branch, which is nan
        # at a = 0 through log
        n = real(b)
        whole = (imag(b) == 0) & (n == np.trunc(n))
        small = where(n < 0, quot(1.0, power(a, -n)), power(a, n))
        return where(whole, where(abs(n) <= 100, small, np.nan),
                     exp(mul(b, log(a))))

    def result(value, z):
        return np.broadcast_to(np.asarray(value, dtype=complex), np.shape(z))

    return {"__builtins__": {}, "inf": math.inf, "_mul": mul,
            "_div": checked(quot), "_ipow": checked(ipow), "_pow": pow_,
            "_result": result,
            **{"_" + name: checked(getattr(np, name)) for name in FUNCTIONS}}


@lru_cache(maxsize=64)
def _compiled_array(ast: Expr, key: str) -> Callable:
    consts: list[complex] = []
    body = _emit(ast, {"z": "_x0"}, consts, _ARRAY_OPS)
    ns = _namespace()
    ns.update((f"_k{k}", c) for k, c in enumerate(consts))
    exec(f"def _f(_x0):\n    return _result({body}, _x0)\n", ns)  # noqa: S102
    return ns["_f"]


def compile_array(ast: Expr) -> Callable:
    """Compile a tree in z to a function of a numpy array of points.

    The code is _emit's, as in compile_expr, with numpy's ufuncs in
    place of cmath's functions and python's rounding of complex
    products, quotients and small whole powers, so only numpy's
    elementary functions and its powers to any other exponent can round
    differently.  The value is a complex array of the argument's shape,
    nan wherever a call, a quotient or a power met a non-finite value,
    and non-finite wherever the scalar function raises.
    """
    return _compiled_array(ast, repr(ast))


def _level0(fns, w0, dw, tol: float):
    """(integrals, accepted) of each of fns on the segments w0 -> w0 + dw
    at level 0 of adaptive_quad, elementwise; None where some value is
    not finite.  The nodes are _panel's, and each panel sums its 16
    weighted values one at a time in _RULE order, so a value differs
    from integrate_segment's only where numpy's elementary functions
    round differently from cmath's.  A segment counts as accepted only
    within half of each of the scalar rule's bounds, so that the scalar
    rule accepts it too."""
    ts = np.array([t for _, nodes in _LEVEL0 for t in nodes])
    z = w0 + ts[:, None, None] * dw
    out = []
    for fn in fns:
        values = fn(z)
        if not np.isfinite(values).all():
            return None
        panels = []
        for p, (half, _) in enumerate(_LEVEL0):
            acc = 0j
            for k, (_, weight) in enumerate(_RULE):
                acc = acc + weight * values[16 * p + k]
            panels.append(half * acc)
        whole, left, right = panels
        value = left + right
        out.append((dw * value, _converged(abs(value - whole), value, tol,
                                           0.5)))
    return out


def batched_rows(data, rot: complex, us: list[float], vs: list[float],
                 quad_tol: float) -> list[list[tuple]]:
    """_rows, with level 0 of every row segment computed by numpy for
    blocks of rows.  Row starts and every segment that level 0 does not
    accept go to integrate_segment in the serial loop's order, and a
    block with a non-finite value reruns through _rows, so the error
    raised is the serial loop's."""
    f_fn, g_fn = data.compiled[:2]
    fns = (compile_array(data.F), compile_array(data.G))
    segment = weierstrass.integrate_segment
    per_block = max(1, _BATCH_SEGMENTS // (len(us) - 1))
    rows: list[list[tuple]] = []
    with np.errstate(all="ignore"):
        for j in range(0, len(vs), per_block):
            block = vs[j:j + per_block]
            w = np.empty((len(block), len(us)), dtype=complex)
            w.real = us
            w.imag = np.array(block)[:, None]
            level = _level0(fns, w[:, :-1], w[:, 1:] - w[:, :-1], quad_tol)
            if level is None:
                rows += weierstrass._rows(data, rot, us, block, quad_tol)
                continue
            (seg_f, ok_f), (seg_g, ok_g) = level
            start_f = np.empty(len(block), dtype=complex)
            start_g = np.empty(len(block), dtype=complex)
            for r, v in enumerate(block):
                start = complex(us[0], v)
                start_f[r] = segment(f_fn, data.base, start, quad_tol)
                start_g[r] = segment(g_fn, data.base, start, quad_tol)
                for i in np.flatnonzero(~(ok_f[r] & ok_g[r])).tolist():
                    a, b = complex(us[i], v), complex(us[i + 1], v)
                    if not ok_f[r, i]:
                        seg_f[r, i] = segment(f_fn, a, b, quad_tol)
                    if not ok_g[r, i]:
                        seg_g[r, i] = segment(g_fn, a, b, quad_tol)
            int_f = np.cumsum(np.column_stack((start_f, seg_f)), axis=1)
            int_g = np.cumsum(np.column_stack((start_g, seg_g)), axis=1)
            # rot * int as python multiplies complex numbers, one rounding
            # per product and sum, where numpy's complex loop may fuse them
            x = rot.real * int_f.real - rot.imag * int_f.imag
            y = rot.real * int_f.imag + rot.imag * int_f.real
            z = rot.real * int_g.real - rot.imag * int_g.imag
            rows += (list(zip(*xyz)) for xyz in zip(
                x.tolist(), y.tolist(), z.tolist()))
    return rows
