"""Lowering MiniC to nested Python closures: the scalar interpreter.

The executor runs a statement, loop, expression or function body by
calling a closure built for that node.  The first time a run reaches a
node it *lowers* it (the closures live until that ``run()`` ends): one
pass over the subtree decides everything that does not change between
executions —

* which handler runs each node (a closure per node, built once, instead
  of a type-keyed dispatch per execution);
* where each name lives.  A name declared inside the unit being lowered
  resolves to a static hop count up the :class:`~repro.runtime.executor.Env`
  chain; a name bound outside it resolves through ``Env.get`` on the
  unit's entry scope, as it always did;
* which expressions are charged.  ``for`` conditions and steps,
  ``while`` conditions and offload clauses are free: when they call no
  user function they lower to closures that charge nothing, otherwise
  they swap the pending counters as ``_eval_clause`` does.

The run-time scope representation stays the ``Env`` chain that codegen,
batch and the offload machinery read.  A block that declares nothing
gets no ``Env`` of its own (nothing could be seen in it), and a loop
body's ``Env`` is emptied and reused on each iteration rather than
rebuilt.  Names that machinery can declare at run time into the
current scope (the scalars of out/inout clauses, a declaration that is
the direct body of an ``if`` or loop) are always looked up by name.

``break``, ``continue`` and ``return`` raise :class:`_Break`,
:class:`_Continue` and :class:`_Return`, as the tree walker did, so
control flow crosses offload and parallel-loop machinery unchanged.

Every charge lands on ``executor._ctx.pending`` as it is read at the
moment of charging, in the order the tree walker charged it.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis.array_access import AccessKind
from repro.analysis.symbols import sizeof_type
from repro.errors import ExecutionError
from repro.hardware.device import OpCounters
from repro.minic import ast_nodes as ast
from repro.analysis.vectorize import _loop_var_name

_IRREGULAR = (AccessKind.INDIRECT, AccessKind.NONLINEAR, AccessKind.AFFINE)
_INTS = (int, np.integer)
_FLOATS = (float, np.floating)
_ndarray = np.ndarray
_void = np.void
_generic = np.generic

#: Shared-memory allocation intrinsics (Section V).  ``malloc`` and
#: ``Offload_shared_malloc`` go through the MYO baseline; the lowering
#: pass rewrites them to ``arena_alloc`` which goes through the
#: segmented arena.  Each returns an opaque address handle.
_SHARED_ALLOC_FUNCS = frozenset({"malloc", "Offload_shared_malloc", "shared_malloc"})
_ARENA_FUNCS = frozenset({"arena_alloc"})
_FREE_FUNCS = frozenset({"free", "Offload_shared_free", "shared_free", "arena_free"})

_COMPARE = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}

#: Expression-valued fields of the nodes a loop clause or step can hold.
_EXPR_CHILDREN = {
    ast.BinOp: ("left", "right"),
    ast.UnOp: ("operand",),
    ast.Cast: ("operand",),
    ast.Subscript: ("base", "index"),
    ast.Member: ("base",),
    ast.Cond: ("cond", "then", "other"),
    ast.Assign: ("target", "value"),
    ast.ExprStmt: ("expr",),
}


# --------------------------------------------------------------------------
# Control flow: break, continue and return unwind as exceptions
# --------------------------------------------------------------------------


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


# --------------------------------------------------------------------------
# Program faults as ExecutionError
# --------------------------------------------------------------------------


def _to_int(value):
    """``int(value)``; a value int cannot hold is a program fault."""
    try:
        return int(value)
    except (ValueError, OverflowError) as exc:
        raise ExecutionError(f"int conversion of {value!r}: {exc}") from None


def _to_float(value):
    """``float(value)``; a value float cannot hold is a program fault."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ExecutionError(f"float conversion of {value!r}: {exc}") from None


def _binary_value(op: str, left, right):
    """The value of ``left op right`` (no charging)."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, _FLOATS) or isinstance(right, _FLOATS):
            try:
                return left / right
            except ZeroDivisionError:
                raise ExecutionError("float division by zero") from None
        a, b = _to_int(left), _to_int(right)
        if b == 0:
            raise ExecutionError("integer division by zero")
        quotient = abs(a) // abs(b)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    if op == "%":
        a, b = _to_int(left), _to_int(right)
        if b == 0:
            raise ExecutionError("integer modulo by zero")
        remainder = abs(a) % abs(b)
        return remainder if left >= 0 else -remainder
    compare = _COMPARE.get(op)
    if compare is not None:
        return int(compare(left, right))
    if op in ("<<", ">>"):
        a, b = _to_int(left), _to_int(right)
        if b < 0:
            raise ExecutionError(f"negative shift count {b}")
        return a << b if op == "<<" else a >> b
    if op == "&":
        return _to_int(left) & _to_int(right)
    if op == "|":
        return _to_int(left) | _to_int(right)
    if op == "^":
        return _to_int(left) ^ _to_int(right)
    raise ExecutionError(f"unsupported operator {op!r}")


def _index(value) -> int:
    """A subscript's index as an int."""
    try:
        return int(value)
    except (ValueError, OverflowError) as exc:
        raise ExecutionError(f"bad index {value!r}: {exc}") from None


def _store(array, index, value) -> None:
    try:
        array[index] = value
    except (ValueError, OverflowError) as exc:
        raise ExecutionError(
            f"{array.dtype} element cannot hold {value!r}: {exc}"
        ) from None


def _element(array, index):
    """``array[index]`` as the interpreter's value: a Python scalar, or a
    struct record (``np.void``) or sub-array as it is."""
    if array.ndim == 1:
        # ``item`` skips the numpy scalar; a struct record reads as a tuple.
        value = array.item(index)
        if value.__class__ is not tuple:
            return value
    value = array[index]
    if isinstance(value, _void):
        return value
    return value.item() if isinstance(value, _generic) else value


def _uninitialized(name: str) -> ExecutionError:
    return ExecutionError(f"variable {name!r} used uninitialized")


# --------------------------------------------------------------------------
# Static facts about statements
# --------------------------------------------------------------------------


def _stmts(stmt):
    """Every statement under *stmt* (inclusive), depth-first."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        yield node
        kind = type(node)
        if kind is ast.Block:
            stack.extend(node.stmts)
        elif kind is ast.If:
            stack.append(node.then)
            stack.append(node.other)
        elif kind is ast.For:
            stack.append(node.init)
            stack.append(node.step)
            stack.append(node.body)
        elif kind in (ast.While, ast.DoWhile, ast.OffloadBlock):
            stack.append(node.body)


def _pragmas(stmt):
    kind = type(stmt)
    if kind is ast.For:
        return stmt.pragmas
    if kind in (ast.OffloadBlock, ast.PragmaStmt):
        return [stmt.pragma]
    return []


def _declares_into(stmt) -> bool:
    """True when running *stmt* may bind a name in the current scope."""
    kind = type(stmt)
    if kind is ast.VarDecl or kind is ast.OffloadBlock or kind is ast.PragmaStmt:
        return True
    if kind is ast.If:
        return _declares_into(stmt.then) or (
            stmt.other is not None and _declares_into(stmt.other)
        )
    if kind in (ast.While, ast.DoWhile):
        return _declares_into(stmt.body)
    if kind is ast.For:
        return any(isinstance(p, ast.OffloadPragma) for p in stmt.pragmas)
    return False


def _dynamic_names(root) -> set:
    """Names machinery may declare at run time inside *root*.

    Out/inout clauses declare their scalar in the scope of the offload
    statement when it is not bound yet, and a declaration that is the
    direct body of an ``if`` or a loop binds into the enclosing scope
    only when it runs.  Such names are never resolved statically.
    """
    names = set()
    for stmt in _stmts(root):
        for pragma in _pragmas(stmt):
            for clause in getattr(pragma, "clauses", ()):
                if clause.direction in ("out", "inout"):
                    names.add(clause.var)
        kind = type(stmt)
        if kind is ast.If:
            bodies = (stmt.then, stmt.other)
        elif kind in (ast.While, ast.DoWhile, ast.For):
            bodies = (stmt.body,)
        else:
            continue
        for body in bodies:
            if isinstance(body, ast.VarDecl):
                names.add(body.name)
    return names


# --------------------------------------------------------------------------
# The lowerer
# --------------------------------------------------------------------------


class _Unit:
    """Lowering-time view of one unit: its static scopes."""

    __slots__ = ("frames", "dynamic", "register")

    def __init__(self, dynamic, register: bool = True):
        #: Names declared so far in each run-time ``Env`` the unit
        #: creates, innermost last.
        self.frames: List[set] = []
        self.dynamic = dynamic
        #: Whether lowered nodes are program nodes (not transient ones).
        self.register = register

    def snapshot(self) -> "_Unit":
        """This view as it stands, for lowering a subtree later."""
        unit = _Unit(self.dynamic, self.register)
        unit.frames = [set(names) for names in self.frames]
        return unit

    def where(self, name: str):
        """``(True, hops)`` for a name declared in the unit, else
        ``(False, hops)``: look it up by name from the scope *hops* up."""
        if name in self.dynamic:
            return False, 0
        frames = self.frames
        for hops in range(len(frames)):
            if name in frames[-1 - hops]:
                return True, hops
        return False, len(frames)


class Lowerer:
    """Builds and caches the closures one executor runs."""

    def __init__(self, executor):
        from repro.runtime import executor as module

        self.ex = executor
        self.Env = module.Env
        self.costs = module.BUILTIN_COSTS
        self.builtins = module._BUILTIN_IMPL
        self.dtypes = module._NUMPY_TYPES
        #: Closures of statement and loop units, keyed on the node id;
        #: each entry holds its node so the id cannot be recycled.
        self.stmt_units: Dict[int, tuple] = {}
        self.loop_units: Dict[int, tuple] = {}
        self.func_units: Dict[int, tuple] = {}
        #: Expression entry points, for program nodes only.
        self.expr_units: Dict[tuple, tuple] = {}
        #: Ids of program expression nodes (descendants of cached units,
        #: clause expressions of the offloads among them).  A node the
        #: executor is handed that is not one of these (a wrapper built
        #: per loop entry) is lowered afresh rather than cached.
        self.program_exprs: set = set()

    # -- units -------------------------------------------------------------

    def statement(self, stmt) -> Callable:
        """``run(env)``: *stmt* lowered on its own, names bound outside
        it looked up from *env*."""
        entry = self.stmt_units.get(id(stmt))
        if entry is None:
            unit = _Unit(_dynamic_names(stmt))
            entry = self.stmt_units[id(stmt)] = (stmt, self._stmt(stmt, unit))
        return entry[1]

    def loop(self, loop) -> Callable:
        """``runner(env)``: *loop* run sequentially, as ``_run_loop`` does."""
        entry = self.loop_units.get(id(loop))
        if entry is None:
            unit = _Unit(_dynamic_names(loop))
            entry = self.loop_units[id(loop)] = (loop, self._for_runner(loop, unit))
        return entry[1]

    def expression(self, expr, clause: bool) -> Callable:
        """``value(env)``: *expr* charged, or free when *clause* is true."""
        key = (id(expr), clause)
        entry = self.expr_units.get(key)
        if entry is not None:
            return entry[1]
        program = id(expr) in self.program_exprs
        unit = _Unit((), register=program)
        fn = self._clause(expr, unit) if clause else self._expr(expr, unit)
        if program:
            self.expr_units[key] = (expr, fn)
        return fn

    def function(self, func) -> Callable:
        """``invoke(args, env_parent)``: the body of user function *func*."""
        entry = self.func_units.get(id(func))
        if entry is None:
            entry = self.func_units[id(func)] = (func, self._lower_function(func))
        return entry[1]

    def release(self) -> None:
        """Drop every closure.  Closures bind the executor and this
        lowerer, so a finished run lets go of them here rather than
        leaving reference cycles to the garbage collector."""
        for cache in (self.stmt_units, self.loop_units, self.func_units, self.expr_units):
            cache.clear()

    def _lower_function(self, func) -> Callable:
        """``invoke(args, env_parent)``: bind the parameters in a new
        scope under *env_parent*, run the body, return its value."""
        Env = self.Env
        unit = _Unit(_dynamic_names(func.body))
        params = [p.name for p in func.params]
        unit.frames.append(set(params))
        body = self._stmt(func.body, unit)
        count = len(params)
        name = func.name

        def invoke(args, env_parent):
            if len(args) != count:
                raise ExecutionError(f"{name}() takes {count} args, got {len(args)}")
            env = Env(env_parent)
            env.vars.update(zip(params, args))
            try:
                body(env)
            except _Return as ret:
                return ret.value
            return None

        return invoke

    # -- statements ----------------------------------------------------------

    def _stmt(self, node, unit: _Unit) -> Callable:
        handler = self._STMT.get(node.__class__)
        if handler is None:
            what = type(node).__name__

            def fail(env):
                raise ExecutionError(f"cannot execute {what}")

            return fail
        return handler(self, node, unit)

    def _block(self, node: ast.Block, unit: _Unit) -> Callable:
        own = any(_declares_into(s) for s in node.stmts)
        if not own:
            return self._sequence(node.stmts, unit)
        Env = self.Env
        unit.frames.append(set())
        run = self._sequence(node.stmts, unit)
        unit.frames.pop()

        def block(env):
            return run(Env(env))

        return block

    def _body(self, node, unit: _Unit):
        """A loop body as ``(run, fresh)``: when *fresh* is true, *run*
        takes an ``Env`` the loop creates once and empties per iteration
        (the body block's own scope)."""
        if type(node) is ast.Block and any(_declares_into(s) for s in node.stmts):
            unit.frames.append(set())
            run = self._sequence(node.stmts, unit)
            unit.frames.pop()
            return run, True
        return self._stmt(node, unit), False

    def _sequence(self, stmts, unit: _Unit) -> Callable:
        fns = tuple(self._stmt(s, unit) for s in stmts)
        if len(fns) == 1:
            return fns[0]

        def run(env):
            for fn in fns:
                fn(env)

        return run

    def _s_expr(self, node: ast.ExprStmt, unit: _Unit) -> Callable:
        expr = self._expr(node.expr, unit)

        def run(env):
            expr(env)

        return run

    def _s_if(self, node: ast.If, unit: _Unit) -> Callable:
        ex = self.ex
        cond = self._expr(node.cond, unit)
        then = self._stmt(node.then, unit)
        if node.other is None:

            def run(env):
                ex._ctx.pending.branches += 1
                if cond(env):
                    then(env)

            return run
        other = self._stmt(node.other, unit)

        def run_else(env):
            ex._ctx.pending.branches += 1
            if cond(env):
                then(env)
            else:
                other(env)

        return run_else

    def _s_return(self, node: ast.Return, unit: _Unit) -> Callable:
        value = None if node.value is None else self._expr(node.value, unit)

        def run(env):
            raise _Return(None if value is None else value(env))

        return run

    def _s_break(self, node, unit):
        def run(env):
            raise _Break()

        return run

    def _s_continue(self, node, unit):
        def run(env):
            raise _Continue()

        return run

    def _s_pragma(self, node: ast.PragmaStmt, unit: _Unit) -> Callable:
        ex, pragma = self.ex, node.pragma
        self._note_clauses(pragma)

        def run(env):
            ex._exec_pragma_stmt(pragma, env)

        return run

    def _s_offload_block(self, node: ast.OffloadBlock, unit: _Unit) -> Callable:
        ex, pragma, body = self.ex, node.pragma, node.body
        self._note_clauses(pragma)

        def run(env):
            ex._exec_offload(pragma, body, env, loop=None)

        return run

    def _s_decl(self, node: ast.VarDecl, unit: _Unit) -> Callable:
        name, typ = node.name, node.type
        if isinstance(typ, ast.ArrayType):
            size = None if typ.size is None else self._expr(typ.size, unit)
            dtype = self.dtypes.get(getattr(typ.base, "name", "float"), np.float64)

            def value(env):
                return np.zeros(int(size(env)) if size is not None else 0, dtype=dtype)

        elif node.init is not None:
            init = self._expr(node.init, unit)
            coerce = self._coercer(typ)
            if coerce is None:
                value = init
            else:

                def value(env):
                    return coerce(init(env))

        else:

            def value(env):
                return None

        if not unit.frames:
            # Top level of a statement unit: the entry scope may be a
            # memory-space root, which routes the binding itself.
            def declare(env):
                env.declare(name, value(env))

            return declare
        unit.frames[-1].add(name)

        def declare_local(env):
            env.vars[name] = value(env)

        return declare_local

    def _coercer(self, typ) -> Optional[Callable]:
        """The executor's ``_coerce`` for *typ*, or None for identity."""
        if isinstance(typ, ast.BaseType) and typ.name == "int":
            return lambda v: v if isinstance(v, _ndarray) else _to_int(v)
        if isinstance(typ, ast.BaseType) and typ.name in ("float", "double"):
            return lambda v: v if isinstance(v, _ndarray) else _to_float(v)
        return None

    # -- assignment --------------------------------------------------------------

    def _s_assign(self, node: ast.Assign, unit: _Unit) -> Callable:
        value = self._expr(node.value, unit)
        target, op = node.target, node.op
        combine = None
        if op != "=":
            current = self._expr(target, unit)
            apply = self._operator(op[0], charge=self._charging)

            def combine(env, v):
                return apply(current(env), v)

        if isinstance(target, ast.Ident):
            store = self._name_store(target.name, unit)
            if combine is None:
                return lambda env: store(env, value(env))

            def run(env):
                v = value(env)
                store(env, apply(current(env), v))

            return run
        if isinstance(target, ast.Subscript):
            locate = self._locate(target, unit, write=True)

            def run_sub(env):
                v = value(env)
                if combine is not None:
                    v = combine(env, v)
                array, index = locate(env)
                _store(array, index, v)

            return run_sub
        if isinstance(target, ast.Member):
            assign = self._member_store(target, unit)

            def run_member(env):
                v = value(env)
                if combine is not None:
                    v = combine(env, v)
                assign(env, v)

            return run_member
        what = type(target).__name__

        def fail(env):
            v = value(env)
            if combine is not None:
                combine(env, v)
            raise ExecutionError(f"cannot assign to {what}")

        return fail

    def _name_store(self, name: str, unit: _Unit) -> Callable:
        """``store(env, value)`` with the executor's assignment rules:
        an undeclared name becomes a root binding, an int-valued binding
        coerces the value to int."""
        local, hops = unit.where(name)
        up = _up(hops)
        if local:

            def store(env, value):
                scope = up(env).vars
                if value.__class__ is not int and isinstance(
                    scope[name], _INTS
                ) and not isinstance(value, _ndarray):
                    value = _to_int(value)
                scope[name] = value

            return store

        def store_outer(env, value):
            scope = up(env)
            if not scope.has(name):
                # Assignment to an undeclared name creates it at file
                # scope (host globals / device scalars), C-extern style.
                scope.root().declare(name, value)
                return
            try:
                old = scope.get(name)
            except ExecutionError:
                old = None
            if isinstance(old, _INTS) and not isinstance(value, _ndarray):
                value = _to_int(value)
            scope.set(name, value)

        return store_outer

    def _member_store(self, target: ast.Member, unit: _Unit) -> Callable:
        field = target.field
        if isinstance(target.base, ast.Subscript):
            locate = self._locate(target.base, unit, write=True, field=field)

            def store(env, value):
                array, index = locate(env)
                _store(array[field], index, value)

            return store
        base = self._expr(target.base, unit)

        def store_value(env, value):
            record = base(env)
            try:
                record[field] = value
            except (TypeError, IndexError, KeyError) as exc:
                raise ExecutionError(f"bad member assignment: {exc}") from exc

        return store_value

    # -- loops ---------------------------------------------------------------------

    def _s_for(self, node: ast.For, unit: _Unit) -> Callable:
        ex = self.ex
        offload = next((p for p in node.pragmas if isinstance(p, ast.OffloadPragma)), None)
        omp = next((p for p in node.pragmas if isinstance(p, ast.OmpParallelFor)), None)
        if offload is None and omp is None:
            return self._for_runner(node, unit)
        if offload is not None:
            self._note_clauses(offload)
        self._note_loop(node)
        # Codegen or batch usually runs a parallel loop, and an offload
        # runs its loop on the device: the tree's runner for this scope
        # is lowered the first time it is needed.
        scope = unit.snapshot()
        runner = []

        def run_loop(env):
            if not runner:
                runner.append(self._for_runner(node, scope))
            return runner[0](env)

        def dispatch(env):
            ctx = ex._ctx
            if offload is not None and not ctx.is_device:
                ex._exec_offload(offload, node.body, env, loop=node)
            elif omp is not None and not ctx.in_parallel:
                ex._exec_parallel_for(node, env, run_loop)
            else:
                run_loop(env)

        return dispatch

    def _for_runner(self, node: ast.For, unit: _Unit) -> Callable:
        """``runner(env)``: the executor's sequential loop.  Returns the
        trip count."""
        ex, Env = self.ex, self.Env
        own = isinstance(node.init, ast.VarDecl) or _declares_into(node.body)
        if own:
            unit.frames.append(set())
        init = None if node.init is None else self._stmt(node.init, unit)
        var = _loop_var_name(node)
        cond = None if node.cond is None else self._clause(node.cond, unit)
        body, fresh = self._body(node.body, unit)
        step = None if node.step is None else self._free_stmt(node.step, unit)
        if own:
            unit.frames.pop()
        loop_vars = ex._loop_vars

        def runner(env):
            scope = Env(env) if own else env
            if init is not None:
                init(scope)
            if var is not None:
                loop_vars.append(var)
            trips = 0
            inner = Env(scope) if fresh else scope
            clear = inner.vars.clear if fresh else None
            try:
                while cond is None or cond(scope):
                    trips += 1
                    if fresh:
                        clear()
                    try:
                        body(inner)
                    except _Continue:
                        pass
                    except _Break:
                        break
                    if step is not None:
                        step(scope)
            finally:
                if var is not None:
                    loop_vars.pop()
            return trips

        return runner

    def _s_while(self, node: ast.While, unit: _Unit) -> Callable:
        ex, Env = self.ex, self.Env
        cond = self._clause(node.cond, unit)
        body, fresh = self._body(node.body, unit)

        def run(env):
            inner = Env(env) if fresh else env
            while cond(env):
                ex._ctx.pending.branches += 1
                if fresh:
                    inner.vars.clear()
                try:
                    body(inner)
                except _Continue:
                    continue
                except _Break:
                    break

        return run

    def _s_do_while(self, node: ast.DoWhile, unit: _Unit) -> Callable:
        ex, Env = self.ex, self.Env
        body, fresh = self._body(node.body, unit)
        cond = self._clause(node.cond, unit)

        def run(env):
            inner = Env(env) if fresh else env
            while True:
                ex._ctx.pending.branches += 1
                if fresh:
                    inner.vars.clear()
                try:
                    body(inner)
                except _Continue:
                    pass
                except _Break:
                    break
                if not cond(env):
                    break

        return run

    # -- free (uncharged) evaluation -------------------------------------------

    def _clause(self, node, unit: _Unit) -> Callable:
        """An uncharged expression (the executor's ``_eval_clause``)."""
        if self._calls_user(node):
            return self._swapped(self._expr(node, unit))
        return self._expr(node, unit, charge=False)

    def _free_stmt(self, node, unit: _Unit) -> Callable:
        """An uncharged statement (a loop step)."""
        if type(node) in (ast.Assign, ast.ExprStmt) and not self._calls_user(node):
            saved = self._charging
            self._charging = False
            try:
                return self._stmt(node, unit)
            finally:
                self._charging = saved
        return self._swapped(self._stmt(node, unit))

    #: Whether expressions lowered now charge (false inside a free step).
    _charging = True

    def _swapped(self, fn: Callable) -> Callable:
        """*fn* run against scratch counters that are then dropped."""
        ex = self.ex

        def run(env):
            saved, ex._ctx.pending = ex._ctx.pending, OpCounters()
            try:
                return fn(env)
            finally:
                ex._ctx.pending = saved

        return run

    def _calls_user(self, node) -> bool:
        """True when expression or simple statement *node* calls a user
        function (whose body may flush or swap the pending counters, so
        it cannot run uncharged)."""
        kind = type(node)
        if kind is ast.Call:
            return node.func in self.ex.functions or any(
                self._calls_user(a) for a in node.args
            )
        children = _EXPR_CHILDREN.get(kind, ())
        return any(self._calls_user(getattr(node, name)) for name in children)

    def _note_clauses(self, pragma) -> None:
        """Register the expressions offload machinery evaluates."""
        exprs = self.program_exprs
        for attr in ("wait", "signal"):
            expr = getattr(pragma, attr, None)
            if expr is not None:
                exprs.add(id(expr))
        for clause in getattr(pragma, "clauses", ()):
            for expr in (clause.start, clause.length, clause.into_start,
                         clause.alloc_if, clause.free_if):
                if expr is not None:
                    exprs.add(id(expr))

    def _note_loop(self, loop: ast.For) -> None:
        """Register the bound and step expressions the vector engines'
        bound recognizer evaluates."""
        exprs = self.program_exprs
        if isinstance(loop.cond, ast.BinOp):
            exprs.add(id(loop.cond.left))
            exprs.add(id(loop.cond.right))
        if isinstance(loop.step, ast.Assign):
            exprs.add(id(loop.step.value))

    # -- expressions ---------------------------------------------------------------

    def _expr(self, node, unit: _Unit, charge: Optional[bool] = None) -> Callable:
        if charge is None:
            charge = self._charging
        if unit.register:
            self.program_exprs.add(id(node))
        handler = self._EXPR.get(node.__class__)
        if handler is None:
            what = type(node).__name__

            def fail(env):
                raise ExecutionError(f"cannot evaluate {what}")

            return fail
        return handler(self, node, unit, charge)

    def _e_literal(self, node, unit, charge):
        value = node.value
        return lambda env: value

    def _e_ident(self, node: ast.Ident, unit: _Unit, charge) -> Callable:
        return self._name_load(node.name, unit)

    def _name_load(self, name: str, unit: _Unit) -> Callable:
        local, hops = unit.where(name)
        up = _up(hops)
        if not local:
            return lambda env: up(env).get(name)

        def load(env):
            value = up(env).vars[name]
            if value is None:
                raise _uninitialized(name)
            return value

        return load

    def _e_binop(self, node: ast.BinOp, unit: _Unit, charge) -> Callable:
        ex, op = self.ex, node.op
        if op in ("&&", "||"):
            left = self._expr(node.left, unit, charge)
            right = self._expr(node.right, unit, charge)
            if op == "&&":

                def both(env):
                    if charge:
                        ex._ctx.pending.int_ops += 1
                    return 1 if left(env) and right(env) else 0

                return both

            def either(env):
                if charge:
                    ex._ctx.pending.int_ops += 1
                return 1 if left(env) or right(env) else 0

            return either
        left = self._expr(node.left, unit, charge)
        right = self._expr(node.right, unit, charge)
        if op in _COMPARE:
            compare = _COMPARE[op]

            def compared(env):
                c = compare(left(env), right(env))
                if charge:
                    ex._ctx.pending.int_ops += 1
                return 1 if c is True else 0 if c is False else int(c)

            return compared
        apply = self._operator(op, charge)
        return lambda env: apply(left(env), right(env))

    def _operator(self, op: str, charge: bool) -> Callable:
        """``apply(left, right)``: charge *op* as the tree did, then compute."""
        ex = self.ex
        compute = _ARITHMETIC.get(op) or (lambda a, b: _binary_value(op, a, b))
        if not charge:
            return compute
        arithmetic = op in ("+", "-", "*", "/")

        def apply(a, b):
            pending = ex._ctx.pending
            if arithmetic and (isinstance(a, _FLOATS) or isinstance(b, _FLOATS)):
                pending.flops += 1
            else:
                pending.int_ops += 1
            return compute(a, b)

        return apply

    def _e_unop(self, node: ast.UnOp, unit: _Unit, charge) -> Callable:
        ex, op = self.ex, node.op
        operand = self._expr(node.operand, unit, charge)
        if op == "-":

            def negate(env):
                value = operand(env)
                if charge:
                    if isinstance(value, _FLOATS):
                        ex._ctx.pending.flops += 1
                    else:
                        ex._ctx.pending.int_ops += 1
                return -value

            return negate
        if op == "!":

            def invert(env):
                value = operand(env)
                if charge:
                    ex._ctx.pending.int_ops += 1
                return 0 if value else 1

            return invert

        def fail(env):
            operand(env)
            raise ExecutionError(f"unsupported unary operator {op!r}")

        return fail

    def _e_cond(self, node: ast.Cond, unit: _Unit, charge) -> Callable:
        ex = self.ex
        cond = self._expr(node.cond, unit, charge)
        then = self._expr(node.then, unit, charge)
        other = self._expr(node.other, unit, charge)

        def choose(env):
            if charge:
                ex._ctx.pending.branches += 1
            return then(env) if cond(env) else other(env)

        return choose

    def _e_cast(self, node: ast.Cast, unit: _Unit, charge) -> Callable:
        operand = self._expr(node.operand, unit, charge)
        coerce = self._coercer(node.type)
        if coerce is None:
            return operand
        return lambda env: coerce(operand(env))

    def _e_sizeof(self, node: ast.SizeOf, unit: _Unit, charge) -> Callable:
        typ, structs = node.type, self.ex.structs
        return lambda env: sizeof_type(typ, structs)

    def _e_call(self, node: ast.Call, unit: _Unit, charge) -> Callable:
        ex, name = self.ex, node.func
        args = [self._expr(a, unit, charge) for a in node.args]
        func = ex.functions.get(name)
        if func is not None:
            function = self.function

            def call_user(env):
                values = [a(env) for a in args]
                ex._ctx.pending.calls += 1
                return function(func)(values, ex._call_root_env())

            return call_user
        impl = self.builtins.get(name)
        if impl is not None:
            cost = self.costs[name]

            def call_builtin(env):
                values = [a(env) for a in args]
                if charge:
                    pending = ex._ctx.pending
                    pending.calls += 1
                    pending.flops += cost
                try:
                    return impl(*values)
                except (ValueError, OverflowError) as exc:
                    kind = "domain" if isinstance(exc, ValueError) else "range"
                    raise ExecutionError(f"math {kind} error in {name}: {exc}") from None

            return call_builtin

        def call_intrinsic(env):
            values = [a(env) for a in args]
            if charge:
                ex._ctx.pending.calls += 1
            if name in _SHARED_ALLOC_FUNCS:
                return ex.machine.myo.shared_malloc(int(values[0]))
            if name in _ARENA_FUNCS:
                return ex.machine.arena.allocate(int(values[0])).ptr.addr
            if name in _FREE_FUNCS:
                # Shared frees are deferred: MYO reclaims at program end,
                # the arena releases whole buffers (Section V-A).
                return 0
            raise ExecutionError(f"call to unknown function {name!r}")

        return call_intrinsic

    # -- array accesses ---------------------------------------------------------------

    def _site(self, node: ast.Subscript) -> Callable:
        """``irregular(env)``: the access class of *node* against the
        innermost running loop variable, classified at its first charged
        access and shared with the vector engines through the executor's
        site cache."""
        ex = self.ex
        cache = ex._access_cache
        classify = type(ex)._classify_site
        loop_vars = ex._loop_vars
        index, ident = node.index, id(node)

        def irregular(env):
            if not loop_vars:
                return False
            var = loop_vars[-1]
            kind = cache.get((ident, var))
            if kind is None:
                kind = classify(index, var, env.int_bindings())
                cache[(ident, var)] = kind
            return kind in _IRREGULAR

        return irregular

    def _locate(self, node: ast.Subscript, unit: _Unit, write: bool,
               field: Optional[str] = None, charge: Optional[bool] = None) -> Callable:
        """``locate(env) -> (array, index)``: resolve the subscript, check
        its bounds and charge the access (the executor's
        ``_resolve_subscript`` plus ``_count_access``)."""
        ex = self.ex
        if charge is None:
            charge = self._charging
        if isinstance(node.base, ast.Ident):
            base = self._name_load(node.base.name, unit)
        else:
            base = self._expr(node.base, unit, charge)
        index = self._expr(node.index, unit, charge)
        irregular = self._site(node)
        scale = ex.machine.scale
        limit = ex.CACHED_ARRAY_BYTES
        aos = field is not None

        def locate(env):
            array = base(env)
            if not isinstance(array, _ndarray):
                raise ExecutionError("subscript of a non-array value")
            i = index(env)
            if i.__class__ is not int:
                i = _index(i)
            if i < 0 or i >= len(array):
                raise ExecutionError(f"index {i} out of range for array of {len(array)}")
            if aos:
                names = array.dtype.names
                if names is None or field not in names:
                    if write:
                        raise ExecutionError(f"array {array.dtype} has no field {field!r}")
                    raise ExecutionError(f"no field {field!r} in {array.dtype}")
            large = array.nbytes * scale > limit
            if charge:
                pending = ex._ctx.pending
                if write:
                    pending.stores += 1
                else:
                    pending.loads += 1
                if large:
                    size = array.dtype[field].itemsize if aos else array.itemsize
                    if write:
                        pending.bytes_written += size
                    else:
                        pending.bytes_read += size
                    if aos or irregular(env):
                        pending.irregular_accesses += 1
            elif large and not aos:
                irregular(env)
            return array, i

        return locate

    def _e_subscript(self, node: ast.Subscript, unit: _Unit, charge) -> Callable:
        locate = self._locate(node, unit, write=False, charge=charge)
        return lambda env: _element(*locate(env))

    def _e_member(self, node: ast.Member, unit: _Unit, charge) -> Callable:
        field = node.field
        if isinstance(node.base, ast.Subscript):
            locate = self._locate(node.base, unit, write=False, field=field, charge=charge)

            def load_field(env):
                array, i = locate(env)
                value = array[field][i]
                return value.item() if isinstance(value, _generic) else value

            return load_field
        base = self._expr(node.base, unit, charge)

        def load_member(env):
            record = base(env)
            if isinstance(record, _void):
                return record[field]
            try:
                return record[field]
            except (TypeError, IndexError, KeyError) as exc:
                raise ExecutionError(f"bad member access: {exc}") from exc

        return load_member

    _STMT = {
        ast.VarDecl: _s_decl,
        ast.Assign: _s_assign,
        ast.ExprStmt: _s_expr,
        ast.Block: _block,
        ast.If: _s_if,
        ast.For: _s_for,
        ast.While: _s_while,
        ast.DoWhile: _s_do_while,
        ast.Return: _s_return,
        ast.Break: _s_break,
        ast.Continue: _s_continue,
        ast.PragmaStmt: _s_pragma,
        ast.OffloadBlock: _s_offload_block,
    }

    _EXPR = {
        ast.IntLit: _e_literal,
        ast.FloatLit: _e_literal,
        ast.StringLit: _e_literal,
        ast.Ident: _e_ident,
        ast.BinOp: _e_binop,
        ast.UnOp: _e_unop,
        ast.Subscript: _e_subscript,
        ast.Member: _e_member,
        ast.Call: _e_call,
        ast.Cond: _e_cond,
        ast.Cast: _e_cast,
        ast.SizeOf: _e_sizeof,
    }


def _up(hops: int) -> Callable:
    """``up(env)``: the scope *hops* levels above *env*."""
    if hops == 0:
        return lambda env: env
    return operator.attrgetter(".".join(["parent"] * hops))
