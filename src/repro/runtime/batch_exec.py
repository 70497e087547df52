"""Vectorized batch execution of parallel loops.

The tree-walking interpreter in :mod:`repro.runtime.executor` evaluates
every iteration of every ``#pragma omp parallel for`` loop trip by trip,
which makes ``_eval`` the hot path of every workload run.  The paper's
own premise (Section IV) is that regular, affine loop bodies vectorize —
and the same regularity lets us *interpret* them as whole-array numpy
operations: one symbolic walk of the body evaluates each expression for
all iterations ("lanes") at once.

Semantics are bit-identical to the tree walker by construction:

* Scalar loads become float64/int64 lane vectors holding exactly the
  Python ``float``/``int`` values the tree walker computes per lane;
  stores cast back with the same numpy casting rules.  An active lane
  whose exact integer result leaves int64, or a stored value its array
  cannot hold, raises ``OverflowError`` (see :mod:`repro.runtime.mathops`)
  and the tree computes it with Python integers.
* Builtins whose numpy ufuncs are not bit-identical to :mod:`math`
  (``exp``, ``log``, ``pow``, ``sin``, ``cos``) share one numpy-backed
  reference implementation with the tree walker — the tree calls the
  scalar path of :mod:`repro.runtime.mathops` and this engine calls the
  vector path, so both evaluate through the same ufunc kernels.
* Control flow is predicated: ``if``/``?:`` evaluate both arms under
  masks and blend with ``np.where``; ``&&``/``||`` evaluate their right
  side only under the lanes the tree's short-circuit would reach;
  ``return`` inside an inlined function narrows the frame's live mask.
* Op counters accrue analytically — each operation adds its per-lane
  cost multiplied by the number of active lanes, which equals the tree
  walker's per-lane ``+= 1`` total exactly (every increment is an
  integer-valued float far below 2**53, so no rounding can differ).
* Cross-lane dependences are detected, not assumed away: every array
  touched by the body is shadowed by ``written_by``/``read_max``
  lane-ordinal maps keyed by array identity (so aliases share maps), and
  any read or write whose lane-sequential tree result could differ from
  the vector result bails out.

Any construct the walker does not handle — ``while``/``break``,
lane-varying inner-loop bounds, writes to enclosing scalars, unknown
calls, cross-lane hazards, mixed-type blends — raises the internal
:class:`BatchIneligible` signal and the loop falls back transparently to
the tree walker.  Runtime faults (out-of-bounds, division by zero,
missing transfers, math domain errors) also fall back, so the tree path
reproduces the exact error *and* the exact partial side effects the
sequential semantics mandate.  The fallback is safe because batch
execution is side-effect-free until commit: array writes are staged
copy-on-write, counters accumulate locally, and the only re-executed
work — the loop init — is required pure.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ExecutionError, ReproError
from repro.analysis.array_access import AccessKind
from repro.hardware.device import OpCounters
from repro.minic import ast_nodes as ast
from repro.runtime import mathops

__all__ = ["BatchIneligible", "analyze_loop", "try_run_parallel_for"]

#: Site classes the locality model charges as irregular accesses.
_IRREGULAR = (AccessKind.INDIRECT, AccessKind.NONLINEAR, AccessKind.AFFINE)


class BatchIneligible(Exception):
    """Internal signal: fall back to the tree-walking interpreter."""


class _Lanes:
    """A per-lane vector of scalar values (one element per iteration).

    Wrapping keeps lane vectors distinguishable from real MiniC arrays,
    which are also ``np.ndarray`` but live in the memory spaces.
    """

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray):
        self.a = a


class _Partial:
    """A lane vector initialized only where ``mask`` holds."""

    __slots__ = ("a", "mask")

    def __init__(self, a: np.ndarray, mask: np.ndarray):
        self.a = a
        self.mask = mask


class _Frame:
    """One inlining level: the loop body or an inlined function call.

    ``active`` is the frame's live mask (narrowed by ``return``); scopes
    are ``(bindings, entry_mask)`` pairs so an assignment under the same
    mask its scope was entered with can overwrite in place instead of
    blending — which keeps lane-invariant scalars (inner loop counters)
    plain Python values.
    """

    __slots__ = ("scopes", "active", "ret_value", "ret_mask", "parent_env", "is_func")

    def __init__(self, parent_env, active, bindings=None, is_func=False):
        self.scopes: List[Tuple[dict, object]] = [(bindings or {}, active)]
        self.active = active
        self.ret_value = None
        self.ret_mask = None  # lanes that have executed a return
        self.parent_env = parent_env
        self.is_func = is_func


# --------------------------------------------------------------------------
# Builtins
# --------------------------------------------------------------------------

# numpy's SIMD float64 kernels differ from libm by ULPs for these, so the
# tree walker and the vector engines share the numpy-backed reference
# implementations in repro.runtime.mathops (scalar and vector calls go
# through the same ufunc kernels and are bitwise equal).


# ==========================================================================
# Static eligibility
# ==========================================================================


class _StaticInfo:
    """Cacheable per-loop-node verdict."""

    __slots__ = ("eligible", "reason")

    def __init__(self):
        self.eligible = True
        self.reason = ""

    def reject(self, reason: str) -> None:
        self.eligible = False
        self.reason = self.reason or reason


_REJECTED_STMTS = (
    ast.While,
    ast.DoWhile,
    ast.Break,
    ast.Continue,
    ast.PragmaStmt,
    ast.OffloadBlock,
)

_DISALLOWED_FUNCS = frozenset(
    {
        "malloc",
        "free",
        "Offload_shared_malloc",
        "Offload_shared_free",
        "shared_malloc",
        "shared_free",
        "arena_alloc",
        "arena_free",
    }
)


def _loop_var_name(loop: ast.For) -> Optional[str]:
    if isinstance(loop.init, ast.VarDecl):
        return loop.init.name
    if isinstance(loop.init, ast.Assign) and isinstance(loop.init.target, ast.Ident):
        return loop.init.target.name
    return None


def _walk_expr(expr: ast.Expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in node.children() if isinstance(c, ast.Expr))


def analyze_loop(loop: ast.For, functions: Dict[str, ast.FuncDef]) -> _StaticInfo:
    """One-time static screen of a parallel loop body.

    Rejects constructs the vectorizer never handles: irregular control
    flow, writes to scalars the body did not declare, allocation
    intrinsics, recursion, unknown calls.  Dynamic conditions —
    lane-varying inner-loop bounds, cross-lane hazards, mixed-type
    blends — are checked during the vector walk itself.
    """
    info = _StaticInfo()
    loop_var = _loop_var_name(loop)
    if loop_var is None:
        info.reject("unrecognized induction variable")
        return info

    checked_functions: Set[str] = set()

    def check_expr(expr: ast.Expr, stack: Tuple[str, ...]) -> None:
        for node in _walk_expr(expr):
            if isinstance(node, ast.UnOp) and node.op not in ("-", "!"):
                info.reject(f"unary operator {node.op!r}")
            elif isinstance(node, ast.Call):
                name = node.func
                if name in _DISALLOWED_FUNCS:
                    info.reject(f"allocation intrinsic {name}()")
                elif name in functions:
                    if name in stack:
                        info.reject(f"recursive call to {name}()")
                    else:
                        check_function(functions[name], stack + (name,))
                elif name not in _VECTOR_BUILTINS:
                    info.reject(f"call to unknown function {name}()")

    def record_write(target, declared: List[Set[str]], in_function: bool) -> None:
        if isinstance(target, ast.Ident):
            if not in_function and target.name == loop_var:
                info.reject("assignment to the induction variable")
            elif not any(target.name in scope for scope in declared):
                info.reject(f"write to enclosing scalar {target.name!r}")
        elif isinstance(target, ast.Subscript) and isinstance(target.base, ast.Ident):
            pass  # array writes are hazard-tracked dynamically by identity
        elif (
            isinstance(target, ast.Member)
            and isinstance(target.base, ast.Subscript)
            and isinstance(target.base.base, ast.Ident)
        ):
            pass
        else:
            info.reject(f"write to {type(target).__name__}")

    def check_stmt(stmt, declared, in_function: bool, stack) -> None:
        if isinstance(stmt, _REJECTED_STMTS):
            info.reject(f"{type(stmt).__name__} in loop body")
            return
        if isinstance(stmt, ast.For) and stmt.pragmas:
            info.reject("pragma on an inner loop")
            return
        if isinstance(stmt, ast.VarDecl):
            if not isinstance(stmt.type, (ast.BaseType, ast.PointerType)):
                info.reject(f"local of type {stmt.type}")
            if stmt.init is not None:
                check_expr(stmt.init, stack)
            declared[-1].add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            check_expr(stmt.value, stack)
            if not isinstance(stmt.target, ast.Ident):
                check_expr(stmt.target, stack)
            record_write(stmt.target, declared, in_function)
        elif isinstance(stmt, ast.ExprStmt):
            check_expr(stmt.expr, stack)
        elif isinstance(stmt, ast.Block):
            declared.append(set())
            for s in stmt.stmts:
                check_stmt(s, declared, in_function, stack)
            declared.pop()
        elif isinstance(stmt, ast.If):
            check_expr(stmt.cond, stack)
            check_stmt(stmt.then, declared, in_function, stack)
            if stmt.other is not None:
                check_stmt(stmt.other, declared, in_function, stack)
        elif isinstance(stmt, ast.For):
            declared.append(set())
            if stmt.init is None or stmt.cond is None or stmt.step is None:
                info.reject("inner loop without init/cond/step")
            else:
                check_stmt(stmt.init, declared, in_function, stack)
                check_expr(stmt.cond, stack)
                check_stmt(stmt.step, declared, in_function, stack)
            check_stmt(stmt.body, declared, in_function, stack)
            declared.pop()
        elif isinstance(stmt, ast.Return):
            if not in_function:
                info.reject("return inside parallel loop body")
            elif stmt.value is not None:
                check_expr(stmt.value, stack)
        else:
            info.reject(f"{type(stmt).__name__} statement")

    def check_function(func: ast.FuncDef, stack) -> None:
        if func.name in checked_functions or not info.eligible:
            return
        checked_functions.add(func.name)
        if func.body is None:
            info.reject(f"{func.name}() has no body")
            return
        declared = [set(p.name for p in func.params)]
        check_stmt(func.body, declared, True, stack)

    check_stmt(loop.body, [{loop_var}], False, ())
    return info


# ==========================================================================
# Loop-bounds recognition
# ==========================================================================


def _is_pure(expr: ast.Expr) -> bool:
    """No calls or memory reads: safe to evaluate once, and to re-evaluate
    on fallback."""
    return not any(
        isinstance(n, (ast.Call, ast.Subscript, ast.Member)) for n in _walk_expr(expr)
    )


def _step_increment(step: ast.Stmt, var: str) -> Optional[ast.Expr]:
    """The per-trip increment expression, or None when unrecognized.

    Handles ``i += c`` / ``i -= c`` / ``i = i + c`` / ``i = c + i`` /
    ``i = i - c`` (subtractions return a negating UnOp)."""
    if not (
        isinstance(step, ast.Assign)
        and isinstance(step.target, ast.Ident)
        and step.target.name == var
    ):
        return None
    if step.op == "+=":
        return step.value
    if step.op == "-=":
        return ast.UnOp("-", step.value)
    if step.op == "=" and isinstance(step.value, ast.BinOp):
        b = step.value
        if b.op == "+" and isinstance(b.left, ast.Ident) and b.left.name == var:
            return b.right
        if b.op == "+" and isinstance(b.right, ast.Ident) and b.right.name == var:
            return b.left
        if b.op == "-" and isinstance(b.left, ast.Ident) and b.left.name == var:
            return ast.UnOp("-", b.right)
    return None


def _trip_count(start: int, bound: int, op: str, stride: int) -> Optional[int]:
    """Exact trip count of ``for (i = start; i OP bound; i += stride)``."""
    if op in ("<", "<="):
        limit = bound + (1 if op == "<=" else 0)
        if start >= limit:
            return 0
        if stride <= 0:
            return None  # the tree walker would not terminate either
        return -((start - limit) // stride)
    if op in (">", ">="):
        limit = bound - (1 if op == ">=" else 0)
        if start <= limit:
            return 0
        if stride >= 0:
            return None
        return -((limit - start) // (-stride))
    return None


# ==========================================================================
# The vector walker
# ==========================================================================


class _BatchRunner:
    """Executes one parallel loop body across all lanes at once."""

    def __init__(self, executor, lanes: np.ndarray, global_induction: Optional[str]):
        self.ex = executor
        self.lanes = lanes
        self.n = len(lanes)
        self.ordinals = np.arange(self.n, dtype=np.int64)
        self.counters = OpCounters()
        # Induction variable visible at file scope (assignment-style init):
        # inlined functions must not read its stale pre-loop root value.
        self.global_induction = global_induction
        # id(real array) -> staged copy-on-write image / the real array
        self.staged: Dict[int, np.ndarray] = {}
        self.real: Dict[int, np.ndarray] = {}
        # (id(real array), field) -> lane-ordinal hazard maps.  Keying by
        # identity makes aliased names (pointer locals, pre-loop aliases)
        # share one dependence record.
        self.written_by: Dict[Tuple[int, Optional[str]], np.ndarray] = {}
        self.read_max: Dict[Tuple[int, Optional[str]], np.ndarray] = {}
        self.call_stack: Tuple[str, ...] = ()
        #: (id(site), loop variable) -> [site, lanes charged, lowest
        #: lane, its integer bindings] for sites not classified yet.
        self.unclassified: Dict[Tuple[int, str], list] = {}
        #: False while a loop clause runs uncharged (``_uncounted``).
        self.counting = True

    # -- masks -------------------------------------------------------------

    def _popcount(self, mask) -> int:
        return self.n if mask is None else int(np.count_nonzero(mask))

    @staticmethod
    def _and(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a & b

    @staticmethod
    def _masks_equal(a, b) -> bool:
        if a is b:
            return True
        if a is None:
            return b is not None and bool(b.all())
        if b is None:
            return bool(a.all())
        return bool((a == b).all())

    def _first_active(self, mask) -> int:
        if mask is None:
            return 0
        return int(np.argmax(mask))

    def _full(self, mask) -> np.ndarray:
        return np.ones(self.n, dtype=bool) if mask is None else mask

    # -- value helpers ------------------------------------------------------

    def _as_vector(self, value) -> np.ndarray:
        """Broadcast a value to a full lane vector."""
        if isinstance(value, _Lanes):
            return value.a
        if isinstance(value, (bool, int, np.integer)):
            return np.full(self.n, int(value), dtype=np.int64)
        if isinstance(value, (float, np.floating)):
            return np.full(self.n, float(value), dtype=np.float64)
        raise BatchIneligible(f"cannot broadcast {type(value).__name__}")

    @staticmethod
    def _kind(value) -> str:
        """'f' for float-valued, 'i' for int-valued, '?' otherwise."""
        if isinstance(value, _Lanes):
            return "f" if value.a.dtype.kind == "f" else "i"
        if isinstance(value, (bool, int, np.integer)):
            return "i"
        if isinstance(value, (float, np.floating)):
            return "f"
        return "?"

    def _where(self, mask, new, old):
        """Per-lane blend; bails on mixed int/float (the tree walker keeps
        per-lane Python types that a promoted vector cannot model)."""
        new_kind, old_kind = self._kind(new), self._kind(old)
        if new_kind == "?" or old_kind == "?":
            raise BatchIneligible("blend of non-numeric values")
        if new_kind != old_kind:
            raise BatchIneligible("blend of int and float lanes")
        return _Lanes(
            np.where(
                mask,
                new.a if isinstance(new, _Lanes) else new,
                old.a if isinstance(old, _Lanes) else old,
            )
        )

    def _truthy(self, value):
        """Per-lane truthiness: a bool vector, or a plain bool when the
        value is lane-invariant."""
        if isinstance(value, _Lanes):
            return value.a != 0
        if isinstance(value, _Partial):
            raise BatchIneligible("truth test of a partially-defined value")
        return bool(value)

    @staticmethod
    def _coerce_int(value, eff):
        if isinstance(value, _Lanes):
            if value.a.dtype.kind == "f":
                return _Lanes(mathops.checked_trunc(value.a, eff))
            return value
        if isinstance(value, (float, np.floating)):
            if not math.isfinite(value):
                raise OverflowError("non-finite value converted to int")
            return int(value)
        return value

    # -- name resolution ----------------------------------------------------

    def _lookup(self, name: str, frame: _Frame, eff):
        for scope, _ in reversed(frame.scopes):
            if name in scope:
                value = scope[name]
                if value is None:
                    raise ExecutionError(f"variable {name!r} used uninitialized")
                if isinstance(value, _Partial):
                    uninit = self._and(eff, ~value.mask)
                    if uninit is None or bool(np.any(uninit)):
                        raise ExecutionError(f"variable {name!r} used uninitialized")
                    return _Lanes(value.a)
                return value
        if frame.is_func and name == self.global_induction:
            # The root binding still holds the pre-loop value; the tree
            # walker would see the current lane's value there.
            raise BatchIneligible("function reads the induction variable")
        return frame.parent_env.get(name)

    def _assign_scalar(self, name: str, value, frame: _Frame, eff) -> None:
        """Assign to a frame-local name, blending under partial masks."""
        for scope, entry_mask in reversed(frame.scopes):
            if name not in scope:
                continue
            old = scope[name]
            old_is_int = (
                isinstance(old, (bool, int, np.integer))
                or (isinstance(old, (_Lanes, _Partial)) and old.a.dtype.kind != "f")
            )
            if old_is_int and not isinstance(value, np.ndarray):
                value = self._coerce_int(value, eff)
            if self._masks_equal(eff, entry_mask) or self._masks_equal(
                eff, self._and(entry_mask, frame.active)
            ):
                # Every lane this scope will ever run under is covered:
                # overwrite in place (keeps scalars scalar).
                scope[name] = value
            elif old is None:
                vec = self._as_vector(value)
                scope[name] = _Partial(vec, self._full(eff).copy())
            elif isinstance(old, _Partial):
                blended = self._where(
                    self._full(eff), _Lanes(self._as_vector(value)), _Lanes(old.a)
                )
                mask = old.mask | self._full(eff)
                scope[name] = blended if bool(mask.all()) else _Partial(blended.a, mask)
            else:
                scope[name] = self._where(
                    self._full(eff),
                    _Lanes(self._as_vector(value)),
                    _Lanes(self._as_vector(old)),
                )
            return
        # The static screen only admits writes to locally declared names;
        # reaching here means it missed a case — bail rather than guess.
        raise BatchIneligible(f"assignment to non-local {name!r}")

    # -- arrays --------------------------------------------------------------

    def _array_image(self, arr: np.ndarray) -> np.ndarray:
        return self.staged.get(id(arr), arr)

    def _array_image_for_write(self, arr: np.ndarray) -> np.ndarray:
        key = id(arr)
        img = self.staged.get(key)
        if img is None:
            img = arr.copy()
            self.staged[key] = img
            self.real[key] = arr
        return img

    def _hazard_maps(self, arr: np.ndarray, field: Optional[str]):
        key = (id(arr), field)
        wb = self.written_by.get(key)
        if wb is None:
            wb = np.full(len(arr), -1, dtype=np.int64)
            self.written_by[key] = wb
            self.read_max[key] = np.full(len(arr), -1, dtype=np.int64)
        return wb, self.read_max[key]

    def _check_read(self, arr, field, slots, ords) -> None:
        """A tree-walk lane sees writes from *earlier* lanes only: bail if
        a later lane has already written a slot this lane reads."""
        wb, rm = self._hazard_maps(arr, field)
        if bool(np.any(wb[slots] > ords)):
            raise BatchIneligible("cross-lane read-after-write dependence")
        np.maximum.at(rm, slots, ords)

    def _check_write(self, arr, field, slots, ords) -> None:
        wb, rm = self._hazard_maps(arr, field)
        if bool(np.any(rm[slots] > ords)):
            # A later lane already read this slot's old value in vector
            # order, but the tree walker would have shown it this write.
            raise BatchIneligible("cross-lane write-after-read dependence")
        if bool(np.any(wb[slots] > ords)):
            raise BatchIneligible("cross-lane write-after-write dependence")
        if len(slots) > 1:
            in_order = np.sort(slots)
            if bool(np.any(in_order[1:] == in_order[:-1])):
                raise BatchIneligible("duplicate write indices in one event")
        wb[slots] = ords

    # -- subscript resolution ----------------------------------------------

    def _resolve_subscript(self, node: ast.Subscript, frame: _Frame, eff):
        """Evaluate base and index; returns (array, slots, ordinals) where
        slots/ordinals cover the effective lanes only.  Index operations
        are charged, exactly like the tree's ``_resolve_subscript``."""
        if not isinstance(node.base, ast.Ident):
            raise BatchIneligible("subscript base is not a name")
        base = self._lookup(node.base.name, frame, eff)
        if not isinstance(base, np.ndarray):
            raise BatchIneligible("subscript of a non-array value")
        index = self._expr(node.index, frame, eff)
        if isinstance(index, _Lanes):
            if index.a.dtype.kind == "f":
                raise BatchIneligible("non-integer subscript")
            idx_full = index.a
        elif isinstance(index, (bool, int, np.integer)):
            idx_full = np.full(self.n, int(index), dtype=np.int64)
        else:
            raise BatchIneligible("non-integer subscript")
        if eff is None:
            slots, ords = idx_full, self.ordinals
        else:
            slots, ords = idx_full[eff], self.ordinals[eff]
        if len(slots) and (slots.min() < 0 or slots.max() >= len(base)):
            bad = slots[(slots < 0) | (slots >= len(base))][0]
            raise ExecutionError(f"index {bad} out of range for array of {len(base)}")
        return base, slots, ords

    def _count_access(self, node, frame, eff, is_write, itemsize, aos, array):
        ex = self.ex
        n_eff = self._popcount(eff)
        cached = array.nbytes * ex.machine.scale <= ex.CACHED_ARRAY_BYTES
        counters = self.counters
        if is_write:
            counters.stores += n_eff
            if not cached:
                counters.bytes_written += itemsize * n_eff
        else:
            counters.loads += n_eff
            if not cached:
                counters.bytes_read += itemsize * n_eff
        if cached:
            return
        if aos:
            counters.irregular_accesses += n_eff
        else:
            self._charge_site(node, frame, eff, n_eff)

    def _charge_site(self, node: ast.Subscript, frame: _Frame, eff, n_eff) -> None:
        """Charge site *node*'s irregular accesses by its class against
        the innermost loop variable, from the executor's shared cache.

        The tree runs lane by lane, so it classifies a site at the
        lowest lane that reaches it, at that lane's first reach.  A
        site not classified yet is therefore only recorded here, and
        :meth:`settle_sites` classifies and charges it when the entry
        commits."""
        ex = self.ex
        if not ex._loop_vars:
            return
        key = (id(node), ex._loop_vars[-1])
        cls = ex._access_cache.get(key)
        if cls is not None:
            if cls in _IRREGULAR:
                self.counters.irregular_accesses += n_eff
            return
        lane = self._first_active(eff)
        rec = self.unclassified.get(key)
        if rec is None:
            rec = self.unclassified[key] = [node, 0, None, None]
        if self.counting:
            rec[1] += n_eff
        if rec[2] is None or lane < rec[2]:
            rec[2], rec[3] = lane, self._int_bindings(frame, eff)

    def settle_sites(self) -> None:
        """Classify the sites this entry reached unclassified and charge
        them.  Each charge is an integer-valued float below 2**53, so
        adding them last gives the tree's total exactly."""
        ex = self.ex
        for (_, var), (node, count, _, bindings) in self.unclassified.items():
            cls = ex._classify_site(node.index, var, bindings)
            ex._access_cache[(id(node), var)] = cls
            if cls in _IRREGULAR:
                self.counters.irregular_accesses += count

    def _int_bindings(self, frame: _Frame, eff) -> Dict[str, int]:
        """Integer bindings as the tree walker's scope chain would show
        them to the first active lane of *eff* (site classification)."""
        lane = self._first_active(eff)
        bindings: Dict[str, int] = {}
        for scope, _ in reversed(frame.scopes):
            for name, value in scope.items():
                if name in bindings:
                    continue
                if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                    bindings[name] = int(value)
                elif isinstance(value, _Lanes) and value.a.dtype.kind != "f":
                    bindings[name] = int(value.a[lane])
        for name, value in frame.parent_env.int_bindings().items():
            bindings.setdefault(name, value)
        return bindings

    # ======================================================================
    # Statements
    # ======================================================================

    def run_body(self, body: ast.Stmt, frame: _Frame) -> None:
        self._stmt(body, frame, None)

    def _stmt(self, stmt: ast.Stmt, frame: _Frame, mask) -> None:
        eff = self._and(frame.active, mask)
        if eff is not None and not eff.any():
            return
        t = type(stmt)
        if t is ast.Assign:
            self._stmt_assign(stmt, frame, eff)
        elif t is ast.VarDecl:
            self._stmt_decl(stmt, frame, eff)
        elif t is ast.ExprStmt:
            self._expr(stmt.expr, frame, eff)
        elif t is ast.Block:
            frame.scopes.append(({}, eff))
            try:
                for s in stmt.stmts:
                    self._stmt(s, frame, mask)
            finally:
                frame.scopes.pop()
        elif t is ast.If:
            self._stmt_if(stmt, frame, mask, eff)
        elif t is ast.For:
            self._stmt_for(stmt, frame, mask)
        elif t is ast.Return:
            self._stmt_return(stmt, frame, eff)
        else:
            raise BatchIneligible(f"cannot vectorize {t.__name__}")

    def _stmt_decl(self, stmt: ast.VarDecl, frame: _Frame, eff) -> None:
        if stmt.init is not None:
            value = self._vcoerce(stmt.type, self._expr(stmt.init, frame, eff), eff)
        else:
            value = None
        frame.scopes[-1][0][stmt.name] = value

    def _vcoerce(self, typ: ast.Type, value, eff):
        """The tree walker's ``_coerce`` lifted to lane vectors."""
        if not isinstance(typ, ast.BaseType):
            return value  # pointers and the like pass through unchanged
        if typ.name == "int" and not isinstance(value, np.ndarray):
            return self._coerce_int(value, eff)
        if typ.name in ("float", "double"):
            if isinstance(value, _Lanes):
                if value.a.dtype.kind != "f":
                    return _Lanes(value.a.astype(np.float64))
                return value
            if not isinstance(value, np.ndarray):
                return float(value)
        return value

    def _stmt_assign(self, stmt: ast.Assign, frame: _Frame, eff) -> None:
        value = self._expr(stmt.value, frame, eff)
        target = stmt.target
        if stmt.op != "=":
            current = self._expr(target, frame, eff)
            value = self._vbinop_value(stmt.op[0], current, value, eff)
        t = type(target)
        if t is ast.Ident:
            self._assign_scalar(target.name, value, frame, eff)
        elif t is ast.Subscript:
            arr, slots, ords = self._resolve_subscript(target, frame, eff)
            self._count_access(
                target, frame, eff,
                is_write=True, itemsize=arr.dtype.itemsize, aos=False, array=arr,
            )
            if arr.dtype.names is not None:
                raise BatchIneligible("whole-struct element write")
            self._check_write(arr, None, slots, ords)
            img = self._array_image_for_write(arr)
            img[slots] = self._write_values(value, eff, arr.dtype)
        elif t is ast.Member and isinstance(target.base, ast.Subscript):
            arr, slots, ords = self._resolve_subscript(target.base, frame, eff)
            if arr.dtype.names is None or target.field not in arr.dtype.names:
                raise ExecutionError(f"array {arr.dtype} has no field {target.field!r}")
            self._count_access(
                target.base, frame, eff,
                is_write=True, itemsize=arr.dtype[target.field].itemsize,
                aos=True, array=arr,
            )
            self._check_write(arr, target.field, slots, ords)
            img = self._array_image_for_write(arr)
            img[target.field][slots] = self._write_values(
                value, eff, arr.dtype[target.field]
            )
        else:
            raise BatchIneligible(f"cannot assign to {t.__name__}")

    def _write_values(self, value, eff, dtype):
        if isinstance(value, _Lanes):
            values = value.a if eff is None else value.a[eff]
        elif isinstance(value, (bool, int, np.integer, float, np.floating)):
            values = value
        else:
            raise BatchIneligible(f"cannot store {type(value).__name__}")
        mathops.check_store(dtype, values)
        return values

    def _stmt_if(self, stmt: ast.If, frame: _Frame, mask, eff) -> None:
        self.counters.branches += self._popcount(eff)
        truth = self._truthy(self._expr(stmt.cond, frame, eff))
        if not isinstance(truth, np.ndarray):
            # Lane-invariant condition: one arm, no mask refinement.
            if truth:
                self._stmt(stmt.then, frame, mask)
            elif stmt.other is not None:
                self._stmt(stmt.other, frame, mask)
            return
        self._stmt(stmt.then, frame, self._and(mask, truth))
        if stmt.other is not None:
            self._stmt(stmt.other, frame, self._and(mask, ~truth))

    def _stmt_return(self, stmt: ast.Return, frame: _Frame, eff) -> None:
        value = None if stmt.value is None else self._expr(stmt.value, frame, eff)
        ret_mask = self._full(eff)
        if frame.ret_mask is None:
            frame.ret_mask = ret_mask.copy()
            frame.ret_value = value
        else:
            if (value is None) != (frame.ret_value is None):
                raise BatchIneligible("mixed void and value returns")
            if value is not None:
                frame.ret_value = self._where(ret_mask, value, frame.ret_value)
            frame.ret_mask = frame.ret_mask | ret_mask
        frame.active = self._full(frame.active) & ~ret_mask

    # -- inner (sequential) loops --------------------------------------------

    def _stmt_for(self, loop: ast.For, frame: _Frame, mask) -> None:
        if loop.init is None or loop.cond is None or loop.step is None:
            raise BatchIneligible("inner loop without init/cond/step")
        eff = self._and(frame.active, mask)
        frame.scopes.append(({}, eff))
        var = _loop_var_name(loop)
        if var is not None:
            self.ex._loop_vars.append(var)
        try:
            # Init is charged (once per entry per lane), exactly like the
            # tree's _run_loop; condition and step are not.
            self._stmt(loop.init, frame, mask)
            while True:
                with _uncounted(self):
                    truth = self._truthy(self._expr(loop.cond, frame, eff))
                if isinstance(truth, np.ndarray):
                    raise BatchIneligible("lane-varying inner loop bound")
                if not truth:
                    break
                self._stmt(loop.body, frame, mask)
                if frame.active is not None and not frame.active.any():
                    break
                with _uncounted(self):
                    self._stmt(loop.step, frame, mask)
        finally:
            if var is not None:
                self.ex._loop_vars.pop()
            frame.scopes.pop()

    # ======================================================================
    # Expressions
    # ======================================================================

    def _expr(self, expr: ast.Expr, frame: _Frame, eff):
        t = type(expr)
        if t is ast.Ident:
            return self._lookup(expr.name, frame, eff)
        if t is ast.BinOp:
            return self._expr_binop(expr, frame, eff)
        if t is ast.IntLit or t is ast.FloatLit or t is ast.StringLit:
            return expr.value
        if t is ast.Subscript:
            return self._expr_subscript(expr, frame, eff)
        if t is ast.Call:
            return self._expr_call(expr, frame, eff)
        if t is ast.UnOp:
            return self._expr_unop(expr, frame, eff)
        if t is ast.Member:
            return self._expr_member(expr, frame, eff)
        if t is ast.Cond:
            return self._expr_cond(expr, frame, eff)
        if t is ast.Cast:
            return self._vcoerce(expr.type, self._expr(expr.operand, frame, eff), eff)
        if t is ast.SizeOf:
            from repro.analysis.symbols import sizeof_type

            return sizeof_type(expr.type, self.ex.structs)
        raise BatchIneligible(f"cannot vectorize {t.__name__}")

    def _expr_subscript(self, expr: ast.Subscript, frame: _Frame, eff):
        arr, slots, ords = self._resolve_subscript(expr, frame, eff)
        self._count_access(
            expr, frame, eff,
            is_write=False, itemsize=arr.dtype.itemsize, aos=False, array=arr,
        )
        if arr.dtype.names is not None:
            raise BatchIneligible("whole-struct element read")
        self._check_read(arr, None, slots, ords)
        return self._gather(self._array_image(arr), slots, eff)

    def _expr_member(self, expr: ast.Member, frame: _Frame, eff):
        if not isinstance(expr.base, ast.Subscript):
            raise BatchIneligible("member access on a non-subscript base")
        arr, slots, ords = self._resolve_subscript(expr.base, frame, eff)
        if arr.dtype.names is None or expr.field not in arr.dtype.names:
            raise ExecutionError(f"no field {expr.field!r} in {arr.dtype}")
        self._count_access(
            expr.base, frame, eff,
            is_write=False, itemsize=arr.dtype[expr.field].itemsize,
            aos=True, array=arr,
        )
        self._check_read(arr, expr.field, slots, ords)
        return self._gather(self._array_image(arr)[expr.field], slots, eff)

    def _gather(self, img: np.ndarray, slots: np.ndarray, eff):
        values = img[slots]
        if values.dtype.kind == "f":
            # The tree's .item() loads float32 elements as Python float.
            dtype = np.float64
        elif values.dtype.kind in ("i", "u", "b"):
            dtype = np.int64
        else:
            raise BatchIneligible(f"load of dtype {values.dtype}")
        if eff is None:
            return _Lanes(values.astype(dtype))
        full = np.zeros(self.n, dtype=dtype)
        full[eff] = values.astype(dtype)
        return _Lanes(full)

    # -- operators ----------------------------------------------------------

    def _expr_binop(self, expr: ast.BinOp, frame: _Frame, eff):
        if expr.op in ("&&", "||"):
            return self._expr_logic(expr, frame, eff)
        left = self._expr(expr.left, frame, eff)
        right = self._expr(expr.right, frame, eff)
        return self._vbinop_value(expr.op, left, right, eff)

    def _expr_logic(self, expr: ast.BinOp, frame: _Frame, eff):
        self.counters.int_ops += self._popcount(eff)
        lt = self._truthy(self._expr(expr.left, frame, eff))
        if not isinstance(lt, np.ndarray):
            # Lane-invariant left side: short-circuit exactly like the tree.
            if (expr.op == "&&" and not lt) or (expr.op == "||" and lt):
                return int(lt)
            rt = self._truthy(self._expr(expr.right, frame, eff))
            if isinstance(rt, np.ndarray):
                return _Lanes(rt.astype(np.int64))
            return int(rt)
        # Lane-varying left: the tree evaluates the right side only on the
        # lanes that short-circuiting reaches — charge exactly those.
        rhs_mask = self._and(eff, lt if expr.op == "&&" else ~lt)
        if not bool(rhs_mask.any()):
            return _Lanes(lt.astype(np.int64))
        rt = self._truthy(self._expr(expr.right, frame, rhs_mask))
        rt_vec = rt if isinstance(rt, np.ndarray) else np.full(self.n, bool(rt))
        if expr.op == "&&":
            return _Lanes((lt & rt_vec).astype(np.int64))
        return _Lanes((lt | (rt_vec & rhs_mask)).astype(np.int64))

    def _vbinop_value(self, op: str, left, right, eff):
        n_eff = self._popcount(eff)
        lk, rk = self._kind(left), self._kind(right)
        if lk == "?" or rk == "?":
            raise BatchIneligible("arithmetic on non-numeric values")
        is_float = lk == "f" or rk == "f"
        counters = self.counters
        if is_float and op in ("+", "-", "*", "/"):
            counters.flops += n_eff
        else:
            counters.int_ops += n_eff
        lv = left.a if isinstance(left, _Lanes) else left
        rv = right.a if isinstance(right, _Lanes) else right
        vector = isinstance(left, _Lanes) or isinstance(right, _Lanes)
        if op in ("+", "-", "*") and not is_float:
            result = mathops.checked_int(op, lv, rv, eff)
        elif op == "+":
            result = lv + rv
        elif op == "-":
            result = lv - rv
        elif op == "*":
            result = lv * rv
        elif op == "/":
            result = self._divide(lv, rv, is_float, eff, vector)
        elif op == "%":
            result = self._modulo(lv, rv, eff, vector)
        elif op in _COMPARE_OPS:
            cmp = _COMPARE_OPS[op](lv, rv)
            result = cmp.astype(np.int64) if isinstance(cmp, np.ndarray) else int(cmp)
        elif op in ("<<", ">>"):
            result = mathops.checked_shift(
                op, self._to_int(lv, eff), self._to_int(rv, eff), eff
            )
        elif op in _BITWISE_OPS:
            result = _BITWISE_OPS[op](self._to_int(lv, eff), self._to_int(rv, eff))
        else:
            raise BatchIneligible(f"operator {op!r}")
        return _Lanes(result) if isinstance(result, np.ndarray) else result

    @staticmethod
    def _to_int(v, eff):
        if isinstance(v, np.ndarray):
            return v if v.dtype.kind != "f" else mathops.checked_trunc(v, eff)
        return int(v)

    def _divide(self, lv, rv, is_float, eff, vector):
        if not vector:
            # Lane-invariant: Python semantics are the tree's semantics.
            if is_float:
                return lv / rv
            q = abs(int(lv)) // abs(int(rv))
            return q if (lv >= 0) == (rv >= 0) else -q
        rvec = rv if isinstance(rv, np.ndarray) else np.full(self.n, rv)
        zero = rvec == 0
        if eff is not None:
            zero = zero & eff
        if bool(np.any(zero)):
            raise ZeroDivisionError(
                "float division by zero"
                if is_float
                else "integer division or modulo by zero"
            )
        safe = np.where(rvec == 0, 1, rvec)
        if is_float:
            return np.asarray(lv, dtype=np.float64) / safe
        mathops.check_int64_min(lv, eff)
        mathops.check_int64_min(safe, eff)
        la = np.asarray(lv)
        q = np.abs(la) // np.abs(safe)
        return np.where((la >= 0) == (rvec >= 0), q, -q).astype(np.int64)

    def _modulo(self, lv, rv, eff, vector):
        if not vector:
            r = abs(int(lv)) % abs(int(rv))
            return r if lv >= 0 else -r
        rvec = rv if isinstance(rv, np.ndarray) else np.full(self.n, rv)
        zero = rvec == 0
        if eff is not None:
            zero = zero & eff
        if bool(np.any(zero)):
            raise ZeroDivisionError("integer division or modulo by zero")
        safe = self._to_int(np.where(rvec == 0, 1, rvec), eff)
        la = self._to_int(np.asarray(lv), eff)
        mathops.check_int64_min(la, eff)
        mathops.check_int64_min(safe, eff)
        r = np.abs(la) % np.abs(safe)
        return np.where(la >= 0, r, -r).astype(np.int64)

    def _expr_unop(self, expr: ast.UnOp, frame: _Frame, eff):
        value = self._expr(expr.operand, frame, eff)
        kind = self._kind(value)
        if expr.op == "-":
            if kind == "?":
                raise BatchIneligible("negation of non-numeric value")
            if kind == "f":
                self.counters.flops += self._popcount(eff)
            else:
                self.counters.int_ops += self._popcount(eff)
            if isinstance(value, _Lanes):
                return _Lanes(mathops.checked_neg(value.a, eff))
            return -value
        if expr.op == "!":
            self.counters.int_ops += self._popcount(eff)
            truth = self._truthy(value)
            if isinstance(truth, np.ndarray):
                return _Lanes((~truth).astype(np.int64))
            return int(not truth)
        raise BatchIneligible(f"unary operator {expr.op!r}")

    def _expr_cond(self, expr: ast.Cond, frame: _Frame, eff):
        self.counters.branches += self._popcount(eff)
        truth = self._truthy(self._expr(expr.cond, frame, eff))
        if not isinstance(truth, np.ndarray):
            return self._expr(expr.then if truth else expr.other, frame, eff)
        then_mask = self._and(eff, truth)
        else_mask = self._and(eff, ~truth)
        then_val = (
            self._expr(expr.then, frame, then_mask) if bool(then_mask.any()) else None
        )
        else_val = (
            self._expr(expr.other, frame, else_mask) if bool(else_mask.any()) else None
        )
        if then_val is None:
            return else_val
        if else_val is None:
            return then_val
        return self._where(truth, then_val, else_val)

    # -- calls ---------------------------------------------------------------

    def _expr_call(self, expr: ast.Call, frame: _Frame, eff):
        args = [self._expr(a, frame, eff) for a in expr.args]
        self.counters.calls += self._popcount(eff)
        name = expr.func
        if name in self.ex.functions:
            return self._call_user(self.ex.functions[name], args, eff)
        builtin = _VECTOR_BUILTINS.get(name)
        if builtin is not None:
            from repro.runtime.executor import BUILTIN_COSTS

            self.counters.flops += BUILTIN_COSTS[name] * self._popcount(eff)
            return builtin(self, args, eff, name)
        raise BatchIneligible(f"call to {name!r}")

    def _call_user(self, func: ast.FuncDef, args, eff):
        if func.name in self.call_stack:
            raise BatchIneligible(f"recursive call to {func.name}()")
        if len(args) != len(func.params):
            raise ExecutionError(
                f"{func.name}() takes {len(func.params)} args, got {len(args)}"
            )
        # Same name resolution as the tree's call path: parameters, then
        # straight to the context's root scope — not the caller's chain.
        frame = _Frame(
            self.ex._call_root_env(),
            eff,
            bindings=dict(zip((p.name for p in func.params), args)),
            is_func=True,
        )
        self.call_stack += (func.name,)
        try:
            self._stmt(func.body, frame, None)
        finally:
            self.call_stack = self.call_stack[:-1]
        if frame.ret_mask is None:
            return None  # void: every lane fell off the end
        covered = frame.ret_mask if eff is None else (frame.ret_mask | ~eff)
        if bool(covered.all()):
            return frame.ret_value
        if frame.ret_value is None:
            return None
        # Some lanes returned a value, others fell off the end; the tree
        # walker's fell-off lanes hold None and fault on use.
        return _Partial(self._as_vector(frame.ret_value), frame.ret_mask.copy())

    def _builtin_f64(self, value, eff):
        """(vector, is_vector) with the argument as float64 and inactive
        lanes sanitized to 1.0, so masked-off lanes cannot trip a domain
        check the tree would never perform."""
        if isinstance(value, _Lanes):
            vec = value.a if value.a.dtype.kind == "f" else value.a.astype(np.float64)
            if eff is not None:
                vec = np.where(eff, vec, 1.0)
            return vec, True
        if isinstance(value, (bool, int, np.integer, float, np.floating)):
            return value, False
        raise BatchIneligible(f"builtin argument of {type(value).__name__}")


class _uncounted:
    """Discards counter accrual on exit (loop cond/step evaluation).

    Staging and hazard tracking stay live — only the counters roll back,
    mirroring the tree's ``_eval_clause``/``_exec_free``."""

    __slots__ = ("runner", "saved")

    def __init__(self, runner: _BatchRunner):
        self.runner = runner

    def __enter__(self):
        runner = self.runner
        self.saved = (runner.counters.copy(), runner.counting)
        runner.counting = False
        return self

    def __exit__(self, *exc):
        self.runner.counters, self.runner.counting = self.saved
        return False


_COMPARE_OPS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_BITWISE_OPS = {
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}


# --------------------------------------------------------------------------
# Vector builtin implementations
# --------------------------------------------------------------------------


def _vb_pyloop(runner, args, eff, name):
    value, vector = runner._builtin_f64(args[0], eff)
    if not vector:
        return _scalar_builtin(name, [value])
    try:
        out = mathops.VECTOR_IMPL[name](value)
    except ValueError as exc:
        raise ExecutionError(f"math domain error in {name}: {exc}")
    except OverflowError:
        raise
    return _Lanes(np.asarray(out, dtype=np.float64))


def _vb_pow(runner, args, eff, name):
    base, v1 = runner._builtin_f64(args[0], eff)
    expo, v2 = runner._builtin_f64(args[1], eff)
    if not v1 and not v2:
        return _scalar_builtin(name, [base, expo])
    try:
        out = mathops.vector_pow(base, expo)
    except ValueError as exc:
        raise ExecutionError(f"math domain error in pow: {exc}")
    return _Lanes(np.asarray(out, dtype=np.float64))


def _vb_sqrt(runner, args, eff, name):
    value, vector = runner._builtin_f64(args[0], eff)
    if not vector:
        return _scalar_builtin(name, [value])
    if bool(np.any(value < 0)):
        raise ExecutionError("math domain error in sqrt: math domain error")
    return _Lanes(np.sqrt(value))


def _vb_abs(runner, args, eff, name):
    value = args[0]
    if isinstance(value, _Lanes):
        # The tree's fabs is plain abs(): an int argument stays int.
        mathops.check_int64_min(value.a, eff)
        return _Lanes(np.abs(value.a))
    return _scalar_builtin(name, [value])


def _vb_floorceil(runner, args, eff, name):
    value, vector = runner._builtin_f64(args[0], eff)
    if not vector:
        return _scalar_builtin(name, [value])
    fn = np.floor if name == "floor" else np.ceil
    # math.floor/ceil return Python int; keep the integer kind (inactive
    # lanes were sanitized to 1.0, so every lane is checked).
    return _Lanes(mathops.checked_trunc(fn(value), None))


def _vb_minmax(runner, args, eff, name):
    if not args:
        raise BatchIneligible(f"{name}() with no arguments")
    kinds = {runner._kind(a) for a in args}
    if "?" in kinds or len(kinds) != 1:
        # Python min/max return whichever argument wins, so mixed int and
        # float arguments produce per-lane result types.
        raise BatchIneligible(f"{name}() with mixed argument types")
    if not any(isinstance(a, _Lanes) for a in args):
        return _scalar_builtin(name, args)
    fn = np.minimum if name == "min" else np.maximum
    result = args[0].a if isinstance(args[0], _Lanes) else args[0]
    for arg in args[1:]:
        result = fn(result, arg.a if isinstance(arg, _Lanes) else arg)
    return _Lanes(np.asarray(result))


def _scalar_builtin(name, args):
    from repro.runtime.executor import _BUILTIN_IMPL

    try:
        return _BUILTIN_IMPL[name](*args)
    except ValueError as exc:
        raise ExecutionError(f"math domain error in {name}: {exc}")


_VECTOR_BUILTINS = {
    "exp": _vb_pyloop,
    "log": _vb_pyloop,
    "sin": _vb_pyloop,
    "cos": _vb_pyloop,
    "pow": _vb_pow,
    "sqrt": _vb_sqrt,
    "fabs": _vb_abs,
    "abs": _vb_abs,
    "floor": _vb_floorceil,
    "ceil": _vb_floorceil,
    "min": _vb_minmax,
    "max": _vb_minmax,
}


# ==========================================================================
# Driver
# ==========================================================================


def try_run_parallel_for(executor, loop: ast.For, env) -> Optional[int]:
    """Attempt batched execution of one parallel loop.

    On success, array writes are committed, the induction variable's
    final value lands where the tree would leave it, the loop's counters
    are merged into the executor's pending set, and the trip count is
    returned.  Returns ``None`` — with no lasting side effects — when the
    loop is ineligible or a runtime fault occurred, in which case the
    caller falls back to the tree walker (which reproduces the fault
    exactly, including its sequential partial side effects).
    """
    cache = executor._batch_static_cache
    info = cache.get(id(loop))
    if info is None:
        info = analyze_loop(loop, executor.functions)
        cache[id(loop)] = info
    if not info.eligible:
        return None

    stats = executor._batch_stats
    ctx = executor._ctx
    entry_pending = ctx.pending
    ctx.pending = OpCounters()
    try:
        trips, runner, commit = _run(executor, loop, env)
    except BatchIneligible as exc:
        # A dynamic bail will almost certainly repeat; stop re-attempting
        # this loop (falling back is always correct, only conservative).
        info.reject(f"dynamic: {exc}")
        ctx.pending = entry_pending
        stats["fallback"] += 1
        return None
    except (ReproError, ZeroDivisionError, OverflowError):
        # The loop faults; let the tree produce the exact error and the
        # exact partial state sequential execution mandates.
        ctx.pending = entry_pending
        stats["fallback"] += 1
        return None
    commit()
    entry_pending.add(ctx.pending)  # the init statement's operations
    if runner is not None:
        entry_pending.add(runner.counters)
    ctx.pending = entry_pending
    stats["batched"] += 1
    return trips


class LoopBounds:
    """A recognized counted loop: the facts every vector engine needs.

    Produced by :func:`recognize_bounds`, consumed by this engine's
    ``_run`` and by the codegen driver — the two engines must agree on
    what counts as a counted loop, and on exactly how the init clause
    executes, so they share the recognizer.
    """

    __slots__ = ("var", "scope", "start", "stride", "trips", "global_induction")

    def __init__(self, var, scope, start, stride, trips, global_induction):
        self.var = var
        self.scope = scope
        self.start = start
        self.stride = stride
        self.trips = trips
        self.global_induction = global_induction

    def finalize_induction(self):
        """Leave the induction variable where the tree would: the first
        value failing the condition.  VarDecl inits die with the loop
        scope; assignment inits write through to the enclosing binding."""
        self.scope.set(self.var, self.start + self.stride * self.trips)


def recognize_bounds(executor, loop: ast.For, env) -> LoopBounds:
    """Recognize ``for (init; cond; step)`` as a counted loop.

    Executes the init clause exactly as the tree's ``_run_loop`` would —
    charged to the loop's counters, root-declaring assignment-style
    inits — and evaluates the bound/stride uncharged.  Purity of all
    three clauses is required so a later fallback's re-execution is
    idempotent.  Raises :class:`BatchIneligible` when the shape is not
    recognized.
    """
    if loop.init is None or loop.cond is None or loop.step is None:
        raise BatchIneligible("loop without init/cond/step")
    var = _loop_var_name(loop)
    if var is None:
        raise BatchIneligible("unrecognized induction variable")

    cond = loop.cond
    if not isinstance(cond, ast.BinOp) or cond.op not in ("<", "<=", ">", ">="):
        raise BatchIneligible("unrecognized loop condition")
    if isinstance(cond.left, ast.Ident) and cond.left.name == var:
        bound_expr, op = cond.right, cond.op
    elif isinstance(cond.right, ast.Ident) and cond.right.name == var:
        mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        bound_expr, op = cond.left, mirror[cond.op]
    else:
        raise BatchIneligible("condition does not test the induction variable")
    step_expr = _step_increment(loop.step, var)
    init_expr = loop.init.init if isinstance(loop.init, ast.VarDecl) else loop.init.value
    if step_expr is None or init_expr is None:
        raise BatchIneligible("unrecognized loop step or init")
    if not (_is_pure(init_expr) and _is_pure(bound_expr) and _is_pure(step_expr)):
        raise BatchIneligible("impure loop bounds")

    from repro.runtime.executor import Env

    scope = Env(parent=env)
    executor._exec_stmt(loop.init, scope)
    start = scope.get(var)
    bound = executor._eval_clause(bound_expr, scope)
    stride = executor._eval_clause(step_expr, scope)
    for v in (start, bound, stride):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise BatchIneligible("non-integer loop bounds")
    start, bound, stride = int(start), int(bound), int(stride)
    if stride == 0:
        raise BatchIneligible("zero loop stride")
    trips = _trip_count(start, bound, op, stride)
    if trips is None:
        raise BatchIneligible("non-terminating loop bounds")

    global_induction = var if not isinstance(loop.init, ast.VarDecl) else None
    return LoopBounds(var, scope, start, stride, trips, global_induction)


def _run(executor, loop: ast.For, env):
    """Recognize the bounds, run the body, return (trips, runner, commit)."""
    bounds = recognize_bounds(executor, loop, env)
    var, start, stride, trips = bounds.var, bounds.start, bounds.stride, bounds.trips

    runner = None
    if trips:
        lanes = start + stride * np.arange(trips, dtype=np.int64)
        runner = _BatchRunner(executor, lanes, bounds.global_induction)
        frame = _Frame(env, None, bindings={var: _Lanes(lanes)})
        executor._loop_vars.append(var)
        try:
            runner.run_body(loop.body, frame)
        finally:
            executor._loop_vars.pop()

    def commit():
        if runner is not None:
            runner.settle_sites()
            for key, img in runner.staged.items():
                runner.real[key][...] = img
        bounds.finalize_induction()

    return trips, runner, commit
