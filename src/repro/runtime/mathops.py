"""Shared numpy-backed math builtins for all three execution engines.

The tree walker, the batch engine, and the codegen engine must produce
bit-identical outputs.  numpy's float64 ufuncs (``np.exp`` …) are not
bitwise equal to libm's (:mod:`math`) for every input, so the engines
cannot mix the two families.  This module makes *numpy* the single
reference implementation:

* the tree walker calls the scalar wrappers below (one element at a
  time, through ``_BUILTIN_IMPL``);
* the batch and codegen engines call the vector implementations over
  whole lane vectors.

numpy evaluates a 0-d/scalar ufunc call through the same kernel as the
corresponding lane of a vectorized call, so scalar and vector results
are bitwise equal by construction (the engine-differential suite pins
this).  What numpy does **not** share with :mod:`math` is error
behaviour — ufuncs return ``nan``/``inf`` where ``math.log`` raises —
so each wrapper restores the :mod:`math` error contract exactly:
``ValueError("math domain error")`` and ``OverflowError("math range
error")`` under the same conditions ``math.exp``/``log``/``sin``/
``cos``/``pow`` raise them.

The vector engines hold MiniC ``int`` values in int64 lanes, where the
tree walker uses Python integers.  The lane-range helpers at the end of
this module keep the two equal: every integer result a vector engine
computes, and every value it stores, is checked on the active lanes,
and one that int64 (or the target array) cannot hold raises
``OverflowError`` — the engines' signal to let the tree walker compute
the exact value, or raise the exact error.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "scalar_exp",
    "scalar_log",
    "scalar_sin",
    "scalar_cos",
    "scalar_pow",
    "vector_exp",
    "vector_log",
    "vector_sin",
    "vector_cos",
    "vector_pow",
    "checked_int",
    "checked_neg",
    "checked_trunc",
    "checked_shift",
    "check_int64_min",
    "check_store",
]


# --------------------------------------------------------------------------
# Scalar wrappers (tree walker)
# --------------------------------------------------------------------------


def scalar_exp(x):
    """``math.exp`` semantics computed through ``np.exp``."""
    x = float(x)
    with np.errstate(over="ignore"):
        r = float(np.exp(x))
    if math.isinf(r) and not math.isinf(x):
        raise OverflowError("math range error")
    return r


def scalar_log(x):
    """``math.log`` semantics computed through ``np.log``."""
    x = float(x)
    if x <= 0.0:
        raise ValueError("math domain error")
    return float(np.log(x))


def scalar_sin(x):
    """``math.sin`` semantics computed through ``np.sin``."""
    x = float(x)
    if math.isinf(x):
        raise ValueError("math domain error")
    return float(np.sin(x))


def scalar_cos(x):
    """``math.cos`` semantics computed through ``np.cos``."""
    x = float(x)
    if math.isinf(x):
        raise ValueError("math domain error")
    return float(np.cos(x))


def scalar_pow(x, y):
    """``math.pow`` semantics computed through ``np.power``.

    Both arguments are forced to float64 first — ``np.power(2, 3)``
    would otherwise stay integer where ``math.pow`` returns a float.
    """
    x = float(x)
    y = float(y)
    with np.errstate(all="ignore"):
        r = float(np.power(np.float64(x), np.float64(y)))
    if math.isnan(r) and not (math.isnan(x) or math.isnan(y)):
        raise ValueError("math domain error")
    if math.isinf(r) and not (math.isinf(x) or math.isinf(y)):
        if x == 0.0:
            raise ValueError("math domain error")
        raise OverflowError("math range error")
    return r


# --------------------------------------------------------------------------
# Vector implementations (batch + codegen engines)
# --------------------------------------------------------------------------


def vector_exp(a):
    """Vector ``exp`` with ``math.exp``'s overflow contract.

    The second ``isinf`` pass (was the *input* already infinite, which
    ``math.exp`` forgives?) only runs when the result overflowed
    somewhere — the common all-finite case costs exp + isinf + any."""
    with np.errstate(all="ignore"):
        r = np.exp(a)
    bad = np.isinf(r)
    if bad.any():
        if bool((bad & ~np.isinf(a)).any()):
            raise OverflowError("math range error")
    return r


def vector_log(a):
    """Vector ``log`` with ``math.log``'s domain contract."""
    if (a <= 0.0).any():
        raise ValueError("math domain error")
    with np.errstate(all="ignore"):
        return np.log(a)


def vector_sin(a):
    """Vector ``sin`` with ``math.sin``'s domain contract."""
    if np.isinf(a).any():
        raise ValueError("math domain error")
    return np.sin(a)


def vector_cos(a):
    """Vector ``cos`` with ``math.cos``'s domain contract."""
    if np.isinf(a).any():
        raise ValueError("math domain error")
    return np.cos(a)


def vector_pow(a, b):
    """Vector ``pow`` with ``math.pow``'s domain/range contract.

    Either argument may be a scalar; the error raised matches what the
    tree walker would raise on the first offending lane.
    """
    with np.errstate(all="ignore"):
        r = np.power(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    if not (np.isnan(r) | np.isinf(r)).any():
        return r  # all results finite: no contract to enforce
    ab = np.broadcast_to(np.asarray(a, dtype=np.float64), r.shape)
    bb = np.broadcast_to(np.asarray(b, dtype=np.float64), r.shape)
    bad = (np.isnan(r) & ~(np.isnan(ab) | np.isnan(bb))) | (
        np.isinf(r) & ~(np.isinf(ab) | np.isinf(bb))
    )
    if bool(np.any(bad)):
        i = int(np.argmax(bad))
        if np.isnan(r.flat[i]) or ab.flat[i] == 0.0:
            raise ValueError("math domain error")
        raise OverflowError("math range error")
    return r


#: Scalar implementations keyed by builtin name (what the tree walker's
#: ``_BUILTIN_IMPL`` splices in for the libm-divergent builtins).
SCALAR_IMPL = {
    "exp": scalar_exp,
    "log": scalar_log,
    "sin": scalar_sin,
    "cos": scalar_cos,
    "pow": scalar_pow,
}

#: Single-argument vector implementations keyed by builtin name.
VECTOR_IMPL = {
    "exp": vector_exp,
    "log": vector_log,
    "sin": vector_sin,
    "cos": vector_cos,
}


# --------------------------------------------------------------------------
# Lane-range checks (batch + codegen engines)
# --------------------------------------------------------------------------

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
#: Integers beyond this magnitude may round differently when numpy
#: converts an int64 lane than when it converts a Python integer.
_EXACT_FLOAT_INT = 2**53

_INT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _active(v, mask):
    return v if mask is None else v[mask]


def _span(v):
    """(min, max) of an int lane vector or a Python integer."""
    if isinstance(v, np.ndarray):
        if v.size == 0:
            return 0, 0
        return int(v.min()), int(v.max())
    v = int(v)
    return v, v


def _exact(v, mask):
    """Active lanes as Python integers (object array), or the scalar."""
    if isinstance(v, np.ndarray):
        return _active(v, mask).astype(object)
    return int(v)


def _overflows(exact) -> bool:
    if isinstance(exact, np.ndarray):
        return bool(((exact < INT64_MIN) | (exact > INT64_MAX)).any())
    return exact < INT64_MIN or exact > INT64_MAX


def checked_int(op: str, a, b, mask):
    """``a op b`` (``+``, ``-``, ``*``) over int64 lanes.

    Interval bounds of the operands prove the common case safe with two
    reductions per vector operand; only when they cannot is the exact
    result of every active lane computed with Python integers.  Raises
    ``OverflowError`` when an active lane's exact result leaves int64.
    """
    fn = _INT_OPS[op]
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return fn(a, b)
    alo, ahi = _span(a)
    blo, bhi = _span(b)
    if op == "+":
        lo, hi = alo + blo, ahi + bhi
    elif op == "-":
        lo, hi = alo - bhi, ahi - blo
    else:
        corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        lo, hi = min(corners), max(corners)
    if (lo < INT64_MIN or hi > INT64_MAX) and _overflows(
        fn(_exact(a, mask), _exact(b, mask))
    ):
        raise OverflowError(f"integer {op} leaves int64 on an active lane")
    return fn(a, b)


def check_int64_min(v, mask) -> None:
    """Raise when an active int lane holds INT64_MIN, whose negation,
    absolute value or quotient by -1 int64 cannot represent."""
    if isinstance(v, np.ndarray) and v.dtype.kind != "f" and v.size:
        if int(v.min()) == INT64_MIN and bool(
            (_active(v, mask) == INT64_MIN).any()
        ):
            raise OverflowError("INT64_MIN on an active lane")


def checked_neg(v, mask):
    """``-v`` over int64 lanes, exact on every active lane."""
    check_int64_min(v, mask)
    return -v


def checked_trunc(v, mask):
    """Float lanes truncated to int64, as the tree's ``int()`` does.

    Raises ``OverflowError`` when an active lane is NaN, infinite or
    beyond int64 (the tree would raise, or produce a wider integer);
    inactive lanes are zeroed so their cast is defined."""
    t = np.trunc(v)
    lo, hi = t.min(), t.max()  # NaN propagates and fails both tests
    if not (lo >= INT64_MIN and hi < 2.0**63):
        act = _active(t, mask)
        if act.size and not (act.min() >= INT64_MIN and act.max() < 2.0**63):
            raise OverflowError("float lane does not fit int64")
        with np.errstate(invalid="ignore"):
            fits = (t >= INT64_MIN) & (t < 2.0**63)
        t = np.where(fits, t, 0.0)
    return t.astype(np.int64)


def checked_shift(op: str, a, b, mask):
    """``a << b`` / ``a >> b`` over int64 lanes.

    Shift counts outside 0..63 and results beyond int64 are checked on
    the active lanes with Python integers."""
    shift = operator.lshift if op == "<<" else operator.rshift
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return shift(a, b)
    ea, eb = _exact(a, mask), _exact(b, mask)
    counts = eb if isinstance(eb, np.ndarray) else np.array([eb], dtype=object)
    if counts.size and bool(((counts < 0) | (counts > 63)).any()):
        raise OverflowError("shift count outside 0..63 on an active lane")
    if op == "<<" and _overflows(shift(ea, eb)):
        raise OverflowError("integer << leaves int64 on an active lane")
    bv = b if isinstance(b, np.ndarray) else np.int64(b)
    if isinstance(b, np.ndarray) and mask is not None:
        bv = np.where(mask, b, 0)
    return shift(a, bv)


def check_store(dtype: np.dtype, values) -> None:
    """Raise unless *values* (active lanes, or one scalar) store into an
    array of *dtype* exactly as the tree's per-element assignment does.

    Integers must fit an integer target (floats after truncation, and
    finite); integers stored into a float target must convert exactly.
    Bool targets and float-into-float stores always match."""
    kind = dtype.kind
    if kind == "b":
        return
    if isinstance(values, np.ndarray):
        if values.size == 0:
            return
        vkind = "f" if values.dtype.kind == "f" else "i"
        lo, hi = values.min(), values.max()
    else:
        vkind = "f" if isinstance(values, (float, np.floating)) else "i"
        lo = hi = values
    if kind in "iu":
        if vkind == "f":
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise OverflowError(f"non-finite value stored into {dtype}")
            lo, hi = math.trunc(lo), math.trunc(hi)
        info = np.iinfo(dtype)
        if int(lo) < int(info.min) or int(hi) > int(info.max):
            raise OverflowError(f"stored value does not fit {dtype}")
    elif kind == "f" and vkind == "i":
        if max(abs(int(lo)), abs(int(hi))) > _EXACT_FLOAT_INT:
            raise OverflowError(f"integer stored into {dtype} loses precision")
