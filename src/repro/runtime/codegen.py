"""Codegen execution of parallel loops: MiniC → generated numpy source.

The batch engine re-walks the kernel AST on every loop entry, paying one
Python dispatch per operator per block.  This tier lowers an eligible
``#pragma omp parallel for`` body to a *self-contained Python function*
over numpy arrays — vectorized expressions, guards lowered to masks,
every analytic op-counter charge coalesced per masked region — compiles
it once with :func:`compile`/``exec``, and caches it keyed on the
printed form of the kernel and of every user function it inlines, the
transform-pipeline provenance and the concrete dtype/scalar-kind
signature.

Semantics are bit-identical to the tree walker (and therefore the batch
engine) by construction:

* Per-site load and store charges are accumulated statically and
  emitted as a handful of ``counters.field += k * n_active`` statements
  per masked region — every increment is an integer-valued float far
  below 2**53, so the coalesced totals equal the tree's per-lane
  ``+= 1`` sums exactly.
* Each access site is classified (unit, affine, indirect, …) against
  the innermost enclosing loop variable through the executor's shared
  per-site cache, at the lowest lane that reaches it in the first entry
  that reaches it — the tree's first reach, since the tree runs lane by
  lane; its irregular-access charge follows the class.
* Math builtins route through :mod:`repro.runtime.mathops`, the same
  numpy-backed reference implementations the other engines use.
* Guards become mask refinements with popcount-gated regions; a region
  whose mask is empty never executes, exactly like the tree's untaken
  branch; lane-invariant conditions keep the enclosing mask, exactly
  like the batch engine's scalar-truth path.
* Integer lanes are int64.  An active lane whose exact integer result
  leaves int64, or a stored value its array cannot hold, raises
  ``OverflowError``, and the tree computes it with Python integers.
* Writes land in shadow copies committed only after the generated
  function finishes, so a faulting kernel leaves no side effects and
  the fallback engine (batch, then tree) replays the fault exactly.

Eligibility: the body (and every user function it calls) may declare
scalar locals with initializers, assign them (updates under a mask
blend), branch with ``if``/``?:``/``&&``/``||``, call builtins, and

* read a *read-only* array at any integer index — the loop variable
  itself (one slice per entry), an affine or indirect expression, or a
  lane-invariant one.  A gather checks bounds on active lanes only, and
  an out-of-range active lane bails so the tree raises its exact error;
* read and write a *written* array at one index form ``i + c`` — ``c``
  built from literals and free scalars, the same at every site — so
  lane ``l`` touches only slot ``l + c`` and lanes cannot conflict;
* run inner ``for`` loops.  When init, bound and step are lane-invariant
  the counter stays a Python scalar.  Otherwise (CG's
  ``j < rowstart[i + 1]``) the loop runs under a live mask that retires
  each lane whose condition fails, until none is left, so it costs as
  many full-width iterations as the longest lane's trip count.  Masked
  updates of lane locals inside blend as anywhere else;
* update a free scalar once per lane with ``x += e`` or ``x -= e`` (CG's
  ``pq``) when nothing else in the loop mentions it: the active lanes'
  values are folded into it in lane order, the tree's order of updates,
  and the result is written back after the kernel succeeds;
* call user functions, which are inlined: arguments bind uncoerced, a
  ``return`` narrows the call's mask, recursion is refused.

Everything else falls back to the batch engine, then the tree walker.
"""

from __future__ import annotations

import keyword
import math
import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.array_access import AccessKind, extract_linear_form
from repro.errors import ExecutionError, NotAffineError, ReproError
from repro.hardware.device import OpCounters
from repro.minic import ast_nodes as ast
from repro.minic.printer import to_source
from repro.minic.visitor import walk
from repro.runtime import batch_exec, mathops
from repro.runtime.batch_exec import BatchIneligible, _loop_var_name


class CodegenIneligible(Exception):
    """The emitter cannot prove this construct vectorizable."""


class _TransientBail(Exception):
    """A per-call check failed (bounds/aliasing); retry next entry."""


#: Builtins the emitter lowers, with their fixed arity (None = variadic,
#: at least two arguments).
_BUILTIN_ARITY = {
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "fabs": 1,
    "abs": 1,
    "floor": 1,
    "ceil": 1,
    "pow": 2,
    "min": None,
    "max": None,
}

#: Names the generated module namespace reserves.
_RESERVED = {"np", "rt"}

_ASSIGN_OPS = ("+", "-", "*", "/", "%")
_COMPARE_OPS = ("<", ">", "<=", ">=", "==", "!=")

#: Site classes the locality model charges as irregular accesses (the
#: tree's ``_is_irregular_site``).
_IRREGULAR = (AccessKind.INDIRECT, AccessKind.NONLINEAR, AccessKind.AFFINE)

#: Index node types :func:`extract_linear_form` can reduce; an index
#: holding any other node classifies as nonlinear whatever the bindings.
_AFFINE_NODES = (ast.Ident, ast.IntLit, ast.BinOp, ast.UnOp)
_AFFINE_OPS = ("+", "-", "*", "/")


def _bad_name(name: str) -> bool:
    return (
        keyword.iskeyword(name) or name.startswith("__cg") or name in _RESERVED
    )


def _root_name(name: str) -> str:
    """Parameter name of a free name an inlined function resolves
    against the call root scope (``_call_root_env``)."""
    return f"__cg_g_{name}"


def _is_var(index: ast.Expr, var: str) -> bool:
    return type(index) is ast.Ident and index.name == var


def _affine_shape(index: ast.Expr) -> bool:
    for node in walk(index):
        if not isinstance(node, _AFFINE_NODES):
            return False
        if type(node) is ast.BinOp and node.op not in _AFFINE_OPS:
            return False
        if type(node) is ast.UnOp and node.op != "-":
            return False
    return True


def _index_ops(index: ast.Expr) -> int:
    """Integer operations the tree charges evaluating an ``i + c`` index."""
    return sum(1 for n in walk(index) if type(n) in (ast.BinOp, ast.UnOp))


def _assigned_names(node: ast.Node) -> set:
    return {
        n.target.name
        for n in walk(node)
        if type(n) is ast.Assign and type(n.target) is ast.Ident
    }


def _mentions(root: Optional[ast.Node], name: str) -> int:
    """How many times *root* reads or writes the bare name *name*."""
    if root is None:
        return 0
    return sum(1 for n in walk(root) if type(n) is ast.Ident and n.name == name)


def _subscripts(root: ast.Node) -> List[ast.Subscript]:
    """Subscript nodes in deterministic pre-order: a site's position in
    this list addresses it in every AST clone of the same loop body or
    function (the text the kernel cache keys on)."""
    return [n for n in walk(root) if type(n) is ast.Subscript]


# ==========================================================================
# Static screen
# ==========================================================================


class _StaticInfo:
    """Cacheable per-loop-node verdict plus the loop's free names."""

    __slots__ = (
        "eligible",
        "reason",
        "var",
        "array_params",
        "scalar_params",
        "written",
        "lane_arrays",
        "shift_sites",
        "inlined",
        "src",
        "subscripts",
        "reductions",
    )

    def __init__(self):
        self.eligible = True
        self.reason: Optional[str] = None
        self.var: Optional[str] = None
        #: (kernel parameter, MiniC name, resolved in the loop's scope —
        #: else the call root's, for names of inlined functions) of every
        #: free array and scalar, in parameter order.
        self.array_params: List[Tuple[str, str, bool]] = []
        self.scalar_params: List[Tuple[str, str, bool]] = []
        self.written: set = set()
        #: Read-only arrays read at the bare loop variable (one slice).
        self.lane_arrays: set = set()
        #: Written array -> every index expression it is accessed at.
        self.shift_sites: Dict[str, List[ast.Expr]] = {}
        self.inlined: List[ast.FuncDef] = []
        self.src: Optional[str] = None
        #: Owner ("" = the loop body, else an inlined function's name) ->
        #: its subscript nodes in pre-order: a site's structural address.
        self.subscripts: Dict[str, List[ast.Subscript]] = {}
        #: Free scalars folded in lane order (``x += e``), in parameter
        #: order: the kernel returns their final values in this order.
        self.reductions: List[str] = []

    def reject(self, reason: str) -> None:
        self.eligible = False
        self.reason = reason


class _Screen:
    """Scope-aware syntactic walk: statement/expression shape only.

    Collects the loop's free names (subscript bases become the array
    signature, bare free identifiers the scalar signature) in order of
    first appearance, so the generated function's parameter list is
    deterministic.  Inlined function bodies are screened in their own
    scope, whose free names resolve against the call root.
    """

    def __init__(self, var: str, functions: Dict[str, ast.FuncDef]):
        self.var = var
        self.functions = functions
        self.scopes: List[set] = [set()]
        self.in_func = False
        self.loop_depth = 0
        self.stack: Tuple[str, ...] = ()
        self.arrays: List[str] = []
        self.scalars: List[str] = []
        self.root_arrays: List[str] = []
        self.root_scalars: List[str] = []
        self.written: set = set()
        self.lane_reads: set = set()
        #: Loop-scope array -> [(index, index is ``i + c`` shaped)].
        self.sites: Dict[str, List[Tuple[ast.Expr, bool]]] = {}
        self.inlined: List[ast.FuncDef] = []
        #: Free scalar -> its ``+=``/``-=`` updates (fold candidates).
        self.reductions: Dict[str, List[ast.Assign]] = {}

    def _is_local(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def _free(self, name: str, subscripted: bool) -> None:
        if _bad_name(name):
            raise CodegenIneligible(f"unsupported name {name!r}")
        if self.in_func:
            if name == self.var:
                raise CodegenIneligible("inlined function reads the induction variable")
            arrays, scalars = self.root_arrays, self.root_scalars
        else:
            arrays, scalars = self.arrays, self.scalars
        mine, other = (arrays, scalars) if subscripted else (scalars, arrays)
        if name in other:
            raise CodegenIneligible(f"{name!r} used both bare and subscripted")
        if name not in mine:
            mine.append(name)

    def _shift_shaped(self, index: ast.Expr) -> bool:
        """``i + c`` shape: affine nodes over the loop variable (at least
        once), integer literals and free (non-local) names."""
        if not _affine_shape(index):
            return False
        names = [n.name for n in walk(index) if type(n) is ast.Ident]
        return self.var in names and not any(
            n != self.var and self._is_local(n) for n in names
        )

    # -- statements --------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> None:
        t = type(node)
        if t is ast.Block:
            self.scopes.append(set())
            try:
                for s in node.stmts:
                    self.stmt(s)
            finally:
                self.scopes.pop()
        elif t is ast.VarDecl:
            self.decl(node)
        elif t is ast.Assign:
            self.assign(node)
        elif t is ast.If:
            self.expr(node.cond)
            for arm in (node.then, node.other):
                if arm is None:
                    continue
                if type(arm) is ast.VarDecl:
                    # A bare declaration as an arm would leak a partially
                    # defined name into the enclosing scope.
                    raise CodegenIneligible("declaration as a bare if-arm")
                self.stmt(arm)
        elif t is ast.For:
            self.inner_for(node)
        elif t is ast.Return:
            if not self.in_func:
                raise CodegenIneligible("return inside parallel loop body")
            if self.loop_depth:
                raise CodegenIneligible("return inside an inner loop")
            if node.value is None:
                raise CodegenIneligible("return without a value")
            self.expr(node.value)
        else:
            raise CodegenIneligible(f"statement {t.__name__}")

    def decl(self, node: ast.VarDecl) -> None:
        if not isinstance(node.type, ast.BaseType):
            raise CodegenIneligible("non-scalar local declaration")
        if node.init is None:
            raise CodegenIneligible("uninitialized local")
        if not self.in_func and node.name == self.var:
            raise CodegenIneligible("local shadows the induction variable")
        if _bad_name(node.name):
            raise CodegenIneligible(f"unsupported name {node.name!r}")
        self.expr(node.init)
        self.scopes[-1].add(node.name)

    def assign(self, node: ast.Assign) -> None:
        op = node.op
        if op != "=" and not (
            len(op) == 2 and op[0] in _ASSIGN_OPS and op[1] == "="
        ):
            raise CodegenIneligible(f"assignment operator {op!r}")
        self.expr(node.value)
        target = node.target
        if type(target) is ast.Ident:
            if not self.in_func and target.name == self.var:
                raise CodegenIneligible("write to the induction variable")
            if not self._is_local(target.name):
                self.reduction(node)
        elif type(target) is ast.Subscript:
            self.subscript(target, write=True)
        else:
            raise CodegenIneligible(
                f"assignment to {type(target).__name__}"
            )

    def reduction(self, node: ast.Assign) -> None:
        """A write to a free scalar: only ``x += e`` / ``x -= e`` once
        per lane (outside inner loops and inlined functions) can be
        folded in lane order; :func:`analyze_loop` checks the rest."""
        name = node.target.name
        if node.op not in ("+=", "-=") or self.in_func:
            raise CodegenIneligible(f"assignment to non-local {name!r}")
        if self.loop_depth:
            raise CodegenIneligible(f"reduction into {name!r} inside an inner loop")
        self._free(name, subscripted=False)
        self.reductions.setdefault(name, []).append(node)

    def inner_for(self, node: ast.For) -> None:
        if node.pragmas:
            raise CodegenIneligible("pragma on an inner loop")
        if node.init is None or node.cond is None or node.step is None:
            raise CodegenIneligible("inner loop without init/cond/step")
        if type(node.init) is not ast.VarDecl:
            raise CodegenIneligible("inner loop init is not a declaration")
        if type(node.step) is not ast.Assign:
            raise CodegenIneligible("inner loop step is not an assignment")
        self.scopes.append(set())
        try:
            self.decl(node.init)
            self.expr(node.cond)
            self.loop_depth += 1
            try:
                self.stmt(node.body)
            finally:
                self.loop_depth -= 1
            self.assign(node.step)
        finally:
            self.scopes.pop()

    # -- expressions -------------------------------------------------------

    def subscript(self, node: ast.Subscript, write: bool = False) -> None:
        if type(node.base) is not ast.Ident:
            raise CodegenIneligible("subscript base is not a name")
        name = node.base.name
        if self._is_local(name) or (not self.in_func and name == self.var):
            raise CodegenIneligible("subscript of a local value")
        self._free(name, subscripted=True)
        self.expr(node.index)
        if self.in_func:
            if write:
                raise CodegenIneligible("array write in an inlined function")
            return
        if write:
            self.written.add(name)
        if _is_var(node.index, self.var):
            self.lane_reads.add(name)
        self.sites.setdefault(name, []).append(
            (node.index, self._shift_shaped(node.index))
        )

    def expr(self, node: ast.Expr) -> None:
        t = type(node)
        if t in (ast.IntLit, ast.FloatLit):
            return
        if t is ast.Ident:
            if self._is_local(node.name):
                return
            if not self.in_func and node.name == self.var:
                return
            self._free(node.name, subscripted=False)
            return
        if t is ast.BinOp:
            self.expr(node.left)
            self.expr(node.right)
            return
        if t is ast.UnOp:
            if node.op not in ("-", "!"):
                raise CodegenIneligible(f"unary operator {node.op!r}")
            self.expr(node.operand)
            return
        if t is ast.Cond:
            self.expr(node.cond)
            self.expr(node.then)
            self.expr(node.other)
            return
        if t is ast.Cast:
            if not isinstance(node.type, ast.BaseType):
                raise CodegenIneligible("non-scalar cast")
            self.expr(node.operand)
            return
        if t is ast.Subscript:
            self.subscript(node)
            return
        if t is ast.Call:
            for arg in node.args:
                self.expr(arg)
            func = self.functions.get(node.func)
            if func is not None:
                self.inline(func, node)
                return
            arity = _BUILTIN_ARITY.get(node.func)
            if node.func not in _BUILTIN_ARITY:
                raise CodegenIneligible(f"call to {node.func!r}")
            if arity is None:
                if len(node.args) < 2:
                    raise CodegenIneligible(f"{node.func}() arity")
            elif len(node.args) != arity:
                raise CodegenIneligible(f"{node.func}() arity")
            return
        raise CodegenIneligible(f"expression {t.__name__}")

    def inline(self, func: ast.FuncDef, call: ast.Call) -> None:
        if func.name in self.stack:
            raise CodegenIneligible(f"recursive call to {func.name}()")
        if len(call.args) != len(func.params):
            raise CodegenIneligible(f"{func.name}() arity")
        for param in func.params:
            if not isinstance(param.type, ast.BaseType):
                raise CodegenIneligible("non-scalar parameter")
            if _bad_name(param.name):
                raise CodegenIneligible(f"unsupported name {param.name!r}")
        stmts = func.body.stmts if func.body is not None else []
        if not stmts or type(stmts[-1]) is not ast.Return:
            # Every lane must return a value: the tree's fell-off lanes
            # would hold None and fault on use.
            raise CodegenIneligible(f"{func.name}() may fall off its end")
        saved = (self.scopes, self.in_func, self.loop_depth)
        self.scopes = [{p.name for p in func.params}]
        self.in_func, self.loop_depth = True, 0
        self.stack += (func.name,)
        try:
            self.stmt(func.body)
        finally:
            self.scopes, self.in_func, self.loop_depth = saved
            self.stack = self.stack[:-1]
        if func not in self.inlined:
            self.inlined.append(func)


def analyze_loop(
    loop: ast.For, functions: Optional[Dict[str, ast.FuncDef]] = None
) -> _StaticInfo:
    """The per-loop-node static verdict (cached by the driver)."""
    info = _StaticInfo()
    var = _loop_var_name(loop)
    if var is None:
        info.reject("unrecognized induction variable")
        return info
    if _bad_name(var):
        info.reject(f"unsupported name {var!r}")
        return info
    info.var = var
    screen = _Screen(var, functions or {})
    try:
        screen.stmt(loop.body)
        for name in sorted(screen.written):
            if not all(shaped for _, shaped in screen.sites[name]):
                # Only slot == lane + c keeps lanes independent: any
                # other written pattern (A[i] = A[i - 1], a scatter) is
                # left to the batch engine's hazard tracking.
                raise CodegenIneligible(
                    f"written array {name!r} is not accessed at one index i + c"
                )
        for name, updates in screen.reductions.items():
            # The fold replaces the tree's sequence of updates, so nothing
            # else may see the accumulator change: no second update, no
            # other mention in the header or body, none in an inlined
            # function.
            clauses = (loop.init, loop.cond, loop.step, loop.body)
            if (
                len(updates) > 1
                or sum(_mentions(c, name) for c in clauses) > 1
                or any(_mentions(f, name) for f in screen.inlined)
            ):
                raise CodegenIneligible(f"assignment to non-local {name!r}")
    except CodegenIneligible as exc:
        info.reject(str(exc))
        return info
    info.array_params = _params(screen.arrays, screen.root_arrays)
    info.scalar_params = _params(screen.scalars, screen.root_scalars)
    info.written = screen.written
    info.lane_arrays = screen.lane_reads - screen.written
    info.shift_sites = {
        name: [index for index, _ in screen.sites[name]]
        for name in screen.arrays
        if name in screen.written
    }
    info.inlined = screen.inlined
    info.reductions = [n for n in screen.scalars if n in screen.reductions]
    info.subscripts = {"": _subscripts(loop.body)}
    for func in screen.inlined:
        info.subscripts[func.name] = _subscripts(func)
    return info


def _params(loop_names: List[str], root_names: List[str]):
    return [(n, n, True) for n in loop_names] + [
        (_root_name(n), n, False) for n in root_names
    ]


# ==========================================================================
# Emitter
# ==========================================================================


class _Val:
    """A generated expression: its Python text, its static kind, and
    whether it is provably lane-invariant (a Python scalar at run time)."""

    __slots__ = ("py", "kind", "u")

    def __init__(self, py: str, kind: str, u: bool = False):
        self.py = py
        self.kind = kind
        self.u = u


class _Local:
    __slots__ = ("py", "kind", "u", "region")

    def __init__(self, py: str, kind: str, u: bool, region: "_Region"):
        self.py = py
        self.kind = kind
        self.u = u
        self.region = region


class _Region:
    """One masked region: charges coalesce here and flush at its end.

    A *discard* region (inner-loop condition and step) drops its charges,
    like the tree's ``_eval_clause``/``_exec_free``."""

    __slots__ = ("mask", "count", "charges", "abytes", "discard")

    def __init__(self, mask: str, count: str, discard: bool = False):
        self.mask = mask
        self.count = count
        self.discard = discard
        self.charges: Dict[str, float] = {}
        #: array -> [read bytes, written bytes, static irregular sites,
        #: dynamic site flags]
        self.abytes: Dict[str, list] = {}

    def charge(self, field: str, amount) -> None:
        self.charges[field] = self.charges.get(field, 0) + amount

    def charge_site(self, array: str, nbytes: int, is_write: bool, irregular) -> None:
        slot = self.abytes.setdefault(array, [0, 0, 0, []])
        slot[1 if is_write else 0] += nbytes
        if isinstance(irregular, str):
            slot[3].append(irregular)
        else:
            slot[2] += irregular


class _Frame:
    """The loop body, or one inlined call: its scopes and return state."""

    __slots__ = ("scopes", "is_func", "rv", "rm", "kinds")

    def __init__(self, scopes, is_func=False, rv=None, rm=None):
        self.scopes: List[Dict[str, _Local]] = scopes
        self.is_func = is_func
        self.rv = rv  # result variable (inlined call)
        self.rm = rm  # lanes that have returned (inlined call)
        self.kinds: set = set()


class _ArrInfo:
    __slots__ = ("name", "kind", "itemsize", "written", "dtype", "view",
                 "shadow", "widx")

    def __init__(self, name, dtype, written, widx=None):
        self.name = name
        self.dtype = np.dtype(dtype)
        self.kind = "f" if self.dtype.kind == "f" else "i"  # lane kind
        self.itemsize = self.dtype.itemsize
        self.written = written
        self.widx = widx  # position in the kernel's written-index list
        self.view = f"__cg_v_{name}"
        self.shadow = f"__cg_sh_{name}"


def _needs_fit(dtype: np.dtype, kind: str) -> bool:
    """Whether storing *kind* lanes into *dtype* can differ from the
    tree's per-element assignment (see ``mathops.check_store``)."""
    if dtype.kind == "b":
        return False
    if dtype.kind in "iu":
        return not (kind == "i" and dtype == np.int64)
    return kind == "i"


class _Emitter:
    """Lowers one screened loop body to Python source.

    Three-address style: every subexpression lands in a ``__cg_t<k>``
    temp, masks in ``__cg_m<k>``, active-lane counts in ``__cg_n<k>``.
    Kinds ('i'/'f') are tracked flow-sensitively per local, mirroring the
    tree walker's runtime coercions, and so is lane invariance; any
    construct whose kind cannot be proven statically raises
    :class:`CodegenIneligible`.
    """

    def __init__(self, loop, info, arrays: Dict[str, _ArrInfo], scalars: Dict[str, str]):
        self.var = info.var
        self.arrays = arrays
        self.scalars = scalars
        self.functions = {f.name: f for f in info.inlined}
        self.reductions = set(info.reductions)
        self.lines: List[str] = []
        self.indent = 1
        self.counter = 0
        self.used = set(_RESERVED) | {self.var} | set(arrays) | set(scalars)
        self.regions = [_Region("None", "__cg_n0")]
        self.frame = _Frame([{}])
        self.loop_vars = [self.var]
        # Structural site addresses: (owner, pre-order position).
        self.addr: Dict[int, Tuple[str, int]] = {
            id(node): (owner, pos)
            for owner, nodes in info.subscripts.items()
            for pos, node in enumerate(nodes)
        }
        #: Dynamically classified sites: (owner, position, loop var).
        self.sites: List[Tuple[str, int, str]] = []
        self.lane_views: set = set()
        #: Names some statement assigns: locals never assigned alias
        #: their initial value instead of copying it.
        self.reassigned = _assigned_names(loop.body).union(
            *(_assigned_names(f.body) for f in info.inlined)
        )
        # Common-subexpression tables, one per region (a temp emitted
        # under a mask guard is only defined inside that guard).  Keys
        # never mention reassignable local names, so no invalidation is
        # needed; charges accrue per *site*, so a CSE hit still counts
        # every operation the tree would perform.
        self.cse: List[Dict[tuple, _Val]] = [{}]
        self.local_pys: set = set()
        # Every name the liveness post-pass may ``del`` after its last
        # textual use.  A kernel body holds ~25 live full-width temps —
        # several MB that overflow L2 and make every numpy pass stream
        # from L3; freeing each temp as it dies keeps the working set to
        # a handful of hot buffers (measured ~2.3x on the bench kernel).
        self.deletable: set = set()

    # -- plumbing ----------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        name = f"__cg_{prefix}{self.counter}"
        self.deletable.add(name)
        return name

    def fresh_local(self, name: str) -> str:
        if name not in self.used and not _bad_name(name):
            self.used.add(name)
            return name
        k = 2
        while f"{name}__{k}" in self.used:
            k += 1
        py = f"{name}__{k}"
        self.used.add(py)
        return py

    def find_local(self, name: str) -> Optional[_Local]:
        for scope in reversed(self.frame.scopes):
            if name in scope:
                return scope[name]
        return None

    @property
    def region(self) -> _Region:
        return self.regions[-1]

    def sub_region(self, mask: str, count: str) -> _Region:
        return _Region(mask, count, self.region.discard)

    def flush(self, region: _Region) -> None:
        if region.discard:
            return
        for field in ("flops", "int_ops", "loads", "stores", "calls", "branches"):
            amount = region.charges.get(field)
            if amount:
                self.line(f"__cg_c.{field} += {amount!r} * {region.count}")
        for name, (rbytes, wbytes, irr, flags) in region.abytes.items():
            if not (rbytes or wbytes or irr or flags):
                continue
            self.line(f"if not __cg_cached_{name}:")
            self.indent += 1
            if rbytes:
                self.line(f"__cg_c.bytes_read += {rbytes} * {region.count}")
            if wbytes:
                self.line(f"__cg_c.bytes_written += {wbytes} * {region.count}")
            terms = ([str(irr)] if irr else []) + flags
            if terms:
                self.line(
                    f"__cg_c.irregular_accesses += "
                    f"({' + '.join(terms)}) * {region.count}"
                )
            self.indent -= 1

    def masked_block(self, guard_count: str, region: _Region, body) -> None:
        """Emit ``if <count>:`` around *body* emitted inside *region*."""
        self.line(f"if {guard_count}:")
        self.indent += 1
        mark = len(self.lines)
        self.regions.append(region)
        self.cse.append({})
        try:
            body()
            self.flush(region)
        finally:
            self.regions.pop()
            self.cse.pop()
        if len(self.lines) == mark:
            self.line("pass")
        self.indent -= 1

    def uncharged(self, mask: str, count: str, body):
        """Run *body* in a discard region under *mask*."""
        self.regions.append(_Region(mask, count, discard=True))
        self.cse.append({})
        try:
            return body()
        finally:
            self.regions.pop()
            self.cse.pop()

    # -- common subexpressions ---------------------------------------------

    def cse_key(self, *parts) -> Optional[tuple]:
        """A value number for a pure operation, or None when any operand
        is a reassignable local (whose name does not pin its value)."""
        for part in parts:
            if part in self.local_pys:
                return None
        return parts

    def cse_get(self, key) -> Optional[_Val]:
        for table in reversed(self.cse):
            hit = table.get(key)
            if hit is not None:
                return hit
        return None

    def cse_put(self, key, val: _Val) -> None:
        self.cse[-1][key] = val

    def emit_value(self, key_parts, text: str, kind: str, u: bool) -> _Val:
        """``t = text`` behind a CSE lookup (*key_parts* None: no CSE)."""
        key = None if key_parts is None else self.cse_key(*key_parts)
        if key is not None:
            hit = self.cse_get(key)
            if hit is not None:
                return hit
        t = self.fresh("t")
        self.line(f"{t} = {text}")
        out = _Val(t, kind, u)
        if key is not None:
            self.cse_put(key, out)
        return out

    # -- coercions ---------------------------------------------------------

    def to_int(self, val: _Val) -> _Val:
        if val.kind == "i":
            return val
        mask = self.region.mask
        return self.emit_value(
            ("rt.toi", val.py), f"rt.toi({val.py}, {mask})", "i", val.u
        )

    def to_float(self, val: _Val) -> _Val:
        if val.kind == "f":
            return val
        return self.emit_value(
            ("rt.tof", val.py), f"rt.tof({val.py})", "f", val.u
        )

    def coerce_decl(self, type_name: str, val: _Val) -> _Val:
        if type_name == "int":
            return self.to_int(val)
        if type_name in ("float", "double"):
            return self.to_float(val)
        return val  # char and friends pass through, like the tree's _coerce

    # -- statements --------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> bool:
        """Emit one statement; True when it may have executed a return."""
        t = type(node)
        if t is ast.Block:
            self.frame.scopes.append({})
            try:
                return self.block_stmts(node.stmts)
            finally:
                self.frame.scopes.pop()
        if t is ast.VarDecl:
            self.emit_decl(node)
        elif t is ast.Assign:
            self.emit_assign(node)
        elif t is ast.If:
            return self.emit_if(node)
        elif t is ast.For:
            self.emit_for(node)
        elif t is ast.Return:
            self.emit_return(node)
            return True
        else:  # pragma: no cover - screened earlier
            raise CodegenIneligible(f"statement {t.__name__}")
        return False

    def block_stmts(self, stmts) -> bool:
        for k, s in enumerate(stmts):
            if self.stmt(s):
                rest = stmts[k + 1:]
                if rest:
                    # Lanes that returned leave the frame: the rest of
                    # the block runs under the narrowed mask.
                    region = self.region
                    mask, count = self.fresh("m"), self.fresh("n")
                    self.line(
                        f"{mask}, {count} = rt.refine_not({region.mask}, "
                        f"{self.frame.rm}, {region.count})"
                    )
                    self.masked_block(
                        count, self.sub_region(mask, count),
                        lambda: self.block_stmts(rest),
                    )
                return True
        return False

    def emit_decl(self, node: ast.VarDecl) -> None:
        val = self.coerce_decl(node.type.name, self.expr(node.init))
        if node.name not in self.reassigned and val.py not in self.local_pys:
            # Never assigned again: the local is a name for its value.
            self.frame.scopes[-1][node.name] = _Local(
                val.py, val.kind, val.u, self.region
            )
            return
        py = self.fresh_local(node.name)
        self.local_pys.add(py)
        self.line(f"{py} = {val.py}")
        self.frame.scopes[-1][node.name] = _Local(py, val.kind, val.u, self.region)

    def emit_assign(self, node: ast.Assign) -> None:
        target = node.target
        if (
            type(target) is ast.Ident
            and target.name in self.reductions
            and self.find_local(target.name) is None
        ):
            self.emit_fold(target.name, node)
            return
        val = self.expr(node.value)
        if node.op != "=":
            current = (
                self.ident(target.name)
                if type(target) is ast.Ident
                else self.subscript_read(target)
            )
            val = self.binop_value(node.op[0], current, val)
        if type(target) is ast.Ident:
            self.assign_ident(target.name, val)
        else:
            self.subscript_write(target, val)

    def emit_fold(self, name: str, node: ast.Assign) -> None:
        """``x += e`` / ``x -= e`` on a free scalar, once per lane: fold
        the active lanes' values into the accumulator in lane order,
        which is the tree's order of updates."""
        val = self.expr(node.value)
        kind = self.scalars[name]
        if kind == "i" and val.kind != "i":
            # The tree truncates an int accumulator after every update.
            raise CodegenIneligible(f"assignment to non-local {name!r}")
        region = self.region
        region.charge("flops" if "f" in (kind, val.kind) else "int_ops", 1)
        self.line(
            f"{name} = rt.fold({node.op[0]!r}, {name}, {val.py}, "
            f"{region.mask}, {region.count})"
        )

    def assign_ident(self, name: str, val: _Val) -> None:
        loc = self.find_local(name)
        if loc is None:  # pragma: no cover - screened earlier
            raise CodegenIneligible(f"assignment to non-local {name!r}")
        if loc.kind == "i":
            # The tree coerces to int whenever the old value is an int.
            val = self.to_int(val)
        if loc.region.mask == self.region.mask:
            # Every lane the local is visible to is active: overwrite.
            self.line(f"{loc.py} = {val.py}")
            loc.kind, loc.u = val.kind, val.u
        else:
            if loc.kind != val.kind:
                raise CodegenIneligible("blend of int and float lanes")
            self.line(
                f"{loc.py} = rt.blend({self.region.mask}, {val.py}, {loc.py})"
            )
            loc.u = False

    def emit_if(self, node: ast.If) -> bool:
        region = self.region
        region.charge("branches", 1)
        truth, _ = self.truth_of(node.cond)
        returned = []

        def arm(stmt):
            return lambda: returned.append(self.stmt(stmt))

        mask, count = self.fresh("m"), self.fresh("n")
        self.line(
            f"{mask}, {count} = rt.refine({region.mask}, {truth}, {region.count})"
        )
        self.masked_block(count, self.sub_region(mask, count), arm(node.then))
        if node.other is not None:
            emask, ecount = self.fresh("m"), self.fresh("n")
            self.line(
                f"{emask}, {ecount} = "
                f"rt.refine_not({region.mask}, {truth}, {region.count})"
            )
            self.masked_block(
                ecount, self.sub_region(emask, ecount), arm(node.other)
            )
        return any(returned)

    def emit_for(self, node: ast.For) -> None:
        """An inner loop: a Python ``while``.  Init is charged once per
        active lane; the condition and step are not (the tree's
        ``_run_loop``).

        When the counter and the condition are lane-invariant, the
        counter stays a Python scalar and the loop breaks when the
        condition fails.  Otherwise the loop runs under a *live mask*:
        each iteration tests the condition on the live lanes only,
        retires the lanes it fails, and breaks when none is left; the
        body is charged per live lane and the counter blends."""
        frame = self.frame
        frame.scopes.append({})
        try:
            self.emit_decl(node.init)
            counter = frame.scopes[-1][node.init.name]
            body_assigned = _assigned_names(node.body)
            if node.init.name in body_assigned:
                raise CodegenIneligible("inner loop body assigns its counter")
            if _assigned_names(node.step) != {node.init.name}:
                raise CodegenIneligible("inner loop step does not advance its counter")
            # Locals the body assigns are loop-carried: not provably
            # lane-invariant at the loop head, and their kind must be
            # the same at the end of the body as at its start.
            carried = []
            for name in body_assigned:
                loc = self.find_local(name)
                if loc is not None:
                    carried.append((loc, loc.kind))
                    loc.u = False
            counter.u = counter.u and self.invariant(node.step.value)
            varying = not (counter.u and self.invariant(node.cond))
            outer = self.region
            mask, count = outer.mask, outer.count
            if varying:
                counter.u = False
                mask, count = self.fresh("m"), self.fresh("n")
                self.line(f"{mask}, {count} = {outer.mask}, {outer.count}")
            self.loop_vars.append(node.init.name)
            self.line("while True:")
            self.indent += 1
            truth, u = self.uncharged(mask, count, lambda: self.truth_of(node.cond))
            if varying:
                self.line(f"{mask}, {count} = rt.refine({mask}, {truth}, {count})")
                self.line(f"if not {count}:")
            else:
                if not u:  # pragma: no cover - invariant() decided
                    raise CodegenIneligible("lane-varying inner loop condition")
                self.line(f"if not {truth}:")
            self.line("    break")
            body_region = _Region(mask, count, outer.discard)
            self.regions.append(body_region)
            self.cse.append({})
            try:
                self.stmt(node.body)
                self.flush(body_region)
            finally:
                self.regions.pop()
                self.cse.pop()
            kind = counter.kind
            self.uncharged(mask, count, lambda: self.emit_assign(node.step))
            if counter.kind != kind or not (varying or counter.u):
                raise CodegenIneligible("lane-varying inner loop step")
            self.indent -= 1
            self.loop_vars.pop()
            for loc, kind in carried:
                if loc.kind != kind:
                    raise CodegenIneligible("local changes kind in an inner loop")
                loc.u = False
        finally:
            frame.scopes.pop()

    def invariant(self, node: ast.Expr) -> bool:
        """The ``_Val.u`` :meth:`expr` would give *node* here, without
        emitting it: a value is lane-invariant exactly when no lane
        local, loop variable, written array or inlined call feeds it."""
        bases = set()
        for n in walk(node):
            t = type(n)
            if t is ast.Subscript:
                if self.array(n.base.name).written:
                    return False
                bases.add(id(n.base))
            elif t is ast.Call:
                if n.func in self.functions:
                    return False
            elif t is ast.Ident and id(n) not in bases and not self.ident(n.name).u:
                return False
        return True

    def emit_return(self, node: ast.Return) -> None:
        frame = self.frame
        val = self.expr(node.value)
        frame.kinds.add(val.kind)
        if len(frame.kinds) > 1:
            raise CodegenIneligible("returns of mixed kinds")
        mask = self.region.mask
        self.line(f"{frame.rv} = rt.ret({frame.rv}, {mask}, {val.py})")
        self.line(f"{frame.rm} = rt.ret_mask({frame.rm}, {mask}, __cg_n0)")

    # -- expressions -------------------------------------------------------

    def truth_of(self, node: ast.Expr) -> Tuple[str, bool]:
        """Emit *node* as a condition: the name of its truth (a bool
        vector or a Python bool) and whether it is lane-invariant.  A
        comparison's raw result is its truth; the tree's int 0/1 is
        never needed for a test."""
        if type(node) is ast.BinOp and node.op in _COMPARE_OPS:
            left = self.expr(node.left)
            right = self.expr(node.right)
            self.region.charge("int_ops", 1)
            text, u = f"({left.py} {node.op} {right.py})", left.u and right.u
        else:
            val = self.expr(node)
            text, u = f"rt.truth({val.py})", val.u
        return self.emit_value(None, text, "i", u).py, u

    def expr(self, node: ast.Expr) -> _Val:
        t = type(node)
        if t is ast.IntLit:
            return _Val(repr(int(node.value)), "i", True)
        if t is ast.FloatLit:
            return _Val(repr(float(node.value)), "f", True)
        if t is ast.Ident:
            return self.ident(node.name)
        if t is ast.BinOp:
            if node.op in ("&&", "||"):
                return self.emit_logic(node)
            left = self.expr(node.left)
            right = self.expr(node.right)
            return self.binop_value(node.op, left, right)
        if t is ast.UnOp:
            return self.emit_unop(node)
        if t is ast.Cond:
            return self.emit_cond(node)
        if t is ast.Cast:
            return self.coerce_decl(node.type.name, self.expr(node.operand))
        if t is ast.Subscript:
            return self.subscript_read(node)
        if t is ast.Call:
            return self.emit_call(node)
        raise CodegenIneligible(f"expression {t.__name__}")

    def ident(self, name: str) -> _Val:
        loc = self.find_local(name)
        if loc is not None:
            return _Val(loc.py, loc.kind, loc.u)
        if not self.frame.is_func and name == self.var:
            return _Val(name, "i", False)
        py = _root_name(name) if self.frame.is_func else name
        kind = self.scalars.get(py)
        if kind is None:  # pragma: no cover - screened earlier
            raise CodegenIneligible(f"unresolved name {name!r}")
        return _Val(py, kind, True)

    # -- array accesses ----------------------------------------------------

    def array(self, name: str) -> _ArrInfo:
        return self.arrays[_root_name(name) if self.frame.is_func else name]

    def site_class(self, node: ast.Subscript, arr: _ArrInfo):
        """The site's irregular flag: 0/1 when its class cannot depend
        on bindings, else the name of a per-call flag.  A site the
        executor's shared cache has not classified yet is 0 for this
        entry; each reach reports its lanes to ``__cg.reach``, and
        :func:`_run` classifies the site when the entry succeeds, at the
        lowest lane that reached it (the tree's first reach)."""
        from repro.runtime.executor import Executor

        var = self.loop_vars[-1]
        index = node.index
        names = []
        for n in walk(index):
            if type(n) is ast.Subscript:
                names = None  # indirect, whatever the bindings
                break
            if type(n) is ast.Ident and n.name != var and n.name not in names:
                names.append(n.name)
        deps = []
        if names and _affine_shape(index):
            for name in names:
                val = self.ident(name)
                if val.kind != "i":
                    deps = None  # unbound: nonlinear, whatever the rest
                    break
                deps.append((name, val.py))
        if not deps:
            cls = Executor._classify_site(index, var, {})
            return 1 if cls in _IRREGULAR else 0
        key = (*self.addr[id(node)], var)
        if key not in self.sites:
            self.sites.append(key)
        k = self.sites.index(key)
        region = self.region
        count = 0 if region.discard else region.count
        items = ", ".join(f"{name!r}: {py}" for name, py in deps)
        self.line(f"if __cg_pk{k} and not __cg_cached_{arr.name}:")
        self.line(f"    __cg.reach({k}, {region.mask}, {count}, {{{items}}})")
        return f"__cg_ir{k}"

    def charge_access(self, node: ast.Subscript, arr: _ArrInfo, is_write: bool) -> None:
        region = self.region
        region.charge("stores" if is_write else "loads", 1)
        # An uncharged reach still classifies the site, as in the tree.
        irregular = self.site_class(node, arr)
        if not region.discard:
            region.charge_site(arr.name, arr.itemsize, is_write, irregular)

    def shift_index(self, node: ast.Subscript) -> None:
        """A written array's ``i + c`` index: its slot is the lane's, so
        only the tree's index arithmetic charges remain."""
        ops = _index_ops(node.index)
        if ops:
            self.region.charge("int_ops", ops)

    def subscript_read(self, node: ast.Subscript) -> _Val:
        arr = self.array(node.base.name)
        if arr.written:
            self.shift_index(node)
            self.charge_access(node, arr, is_write=False)
            # Reads of a written array must snapshot the shadow: a later
            # store may not alias a value loaded earlier.
            read = "rt.read_f64" if arr.kind == "f" else "rt.read_i64"
            return self.emit_value(None, f"{read}({arr.shadow})", arr.kind, False)
        if not self.frame.is_func and _is_var(node.index, self.var):
            self.charge_access(node, arr, is_write=False)
            self.lane_views.add(arr.name)
            return _Val(arr.view, arr.kind, False)
        idx = self.expr(node.index)
        if idx.kind != "i":
            raise CodegenIneligible("non-integer subscript")
        out = self.emit_value(
            ("g", arr.name, idx.py),
            f"rt.gather({arr.name}, {idx.py}, {self.region.mask})",
            arr.kind,
            idx.u,
        )
        self.charge_access(node, arr, is_write=False)
        return out

    def subscript_write(self, node: ast.Subscript, val: _Val) -> None:
        arr = self.arrays[node.base.name]
        self.shift_index(node)
        self.charge_access(node, arr, is_write=True)
        store = "rt.store_fit" if _needs_fit(arr.dtype, val.kind) else "rt.store"
        self.line(f"{store}({arr.shadow}, {self.region.mask}, {val.py})")

    # -- operators ---------------------------------------------------------

    def binop_value(self, op: str, left: _Val, right: _Val) -> _Val:
        region = self.region
        is_float = "f" in (left.kind, right.kind)
        if op in ("+", "-", "*", "/") and is_float:
            region.charge("flops", 1)
        else:
            region.charge("int_ops", 1)
        u = left.u and right.u
        # Division and modulo take the mask (zero checks are masked), so
        # their value numbers are mask-specific; the rest are pure over
        # full-width lanes and reusable across nested regions (a check
        # made under an enclosing mask covers every nested lane).
        mask = region.mask
        key = ("b", op, left.py, right.py, mask if op in ("/", "%") else "")
        if op in ("+", "-", "*"):
            if is_float or u:
                # Floats and Python integers: the tree's own arithmetic.
                text = f"({left.py} {op} {right.py})"
            else:
                text = f"rt.iarith({op!r}, {left.py}, {right.py}, {mask})"
            kind = "f" if is_float else "i"
        elif op == "/":
            fn = "rt.fdiv" if is_float else "rt.idiv"
            text, kind = f"{fn}({left.py}, {right.py}, {mask})", "f" if is_float else "i"
        elif op == "%":
            text, kind = f"rt.imod({left.py}, {right.py}, {mask})", "i"
        elif op in ("<", ">", "<=", ">=", "==", "!="):
            text, kind = f"rt.asint({left.py} {op} {right.py})", "i"
        elif op in ("&", "|", "^"):
            text = f"(rt.toi({left.py}, {mask}) {op} rt.toi({right.py}, {mask}))"
            kind = "i"
        elif op in ("<<", ">>"):
            text = (
                f"rt.ishift({op!r}, rt.toi({left.py}, {mask}), "
                f"rt.toi({right.py}, {mask}), {mask})"
            )
            kind = "i"
        else:
            raise CodegenIneligible(f"operator {op!r}")
        return self.emit_value(key, text, kind, u)

    def emit_unop(self, node: ast.UnOp) -> _Val:
        val = self.expr(node.operand)
        mask = self.region.mask
        if node.op == "-":
            self.region.charge("flops" if val.kind == "f" else "int_ops", 1)
            if val.kind == "f" or val.u:
                text = f"(-{val.py})"
            else:
                text = f"rt.ineg({val.py}, {mask})"
            kind = val.kind
        else:
            self.region.charge("int_ops", 1)
            text, kind = f"rt.lnot({val.py})", "i"
        return self.emit_value(("u", node.op, val.py), text, kind, val.u)

    def emit_logic(self, node: ast.BinOp) -> _Val:
        region = self.region
        region.charge("int_ops", 1)
        truth, left_u = self.truth_of(node.left)
        refine = "rt.refine" if node.op == "&&" else "rt.refine_not"
        mask, count = self.fresh("m"), self.fresh("n")
        self.line(f"{mask}, {count} = {refine}({region.mask}, {truth}, {region.count})")
        result = self.fresh("t")
        right_u = []

        def rhs():
            rtruth, u = self.truth_of(node.right)
            right_u.append(u)
            if node.op == "&&":
                self.line(f"{result} = rt.land({truth}, {rtruth})")
            else:
                self.line(f"{result} = rt.lor({truth}, {rtruth}, {mask})")

        self.masked_block(count, self.sub_region(mask, count), rhs)
        self.line("else:")
        self.indent += 1
        self.line(f"{result} = rt.asint({truth})")
        self.indent -= 1
        return _Val(result, "i", left_u and all(right_u))

    def emit_cond(self, node: ast.Cond) -> _Val:
        region = self.region
        region.charge("branches", 1)
        truth, cond_u = self.truth_of(node.cond)
        then_res, else_res = self.fresh("t"), self.fresh("t")
        self.line(f"{then_res} = None")
        self.line(f"{else_res} = None")
        arms = []

        def arm(expr_node, result):
            def body():
                val = self.expr(expr_node)
                arms.append(val)
                self.line(f"{result} = {val.py}")

            return body

        mask, count = self.fresh("m"), self.fresh("n")
        self.line(f"{mask}, {count} = rt.refine({region.mask}, {truth}, {region.count})")
        self.masked_block(count, self.sub_region(mask, count), arm(node.then, then_res))
        emask, ecount = self.fresh("m"), self.fresh("n")
        self.line(
            f"{emask}, {ecount} = rt.refine_not({region.mask}, {truth}, {region.count})"
        )
        self.masked_block(
            ecount, self.sub_region(emask, ecount), arm(node.other, else_res)
        )
        if len({a.kind for a in arms}) != 1:
            raise CodegenIneligible("conditional arms of mixed kinds")
        t = self.fresh("t")
        self.line(f"{t} = rt.sel({truth}, {then_res}, {else_res})")
        return _Val(t, arms[0].kind, cond_u and all(a.u for a in arms))

    def emit_call(self, node: ast.Call) -> _Val:
        region = self.region
        args = [self.expr(a) for a in node.args]
        region.charge("calls", 1)
        func = self.functions.get(node.func)
        if func is not None:
            return self.inline(func, args)
        from repro.runtime.executor import BUILTIN_COSTS

        region.charge("flops", BUILTIN_COSTS[node.func])
        name = node.func
        mask = region.mask
        if name in ("exp", "log", "sin", "cos", "sqrt"):
            text, kind = f"rt.c_{name}({args[0].py}, {mask})", "f"
        elif name == "pow":
            text, kind = f"rt.c_pow({args[0].py}, {args[1].py}, {mask})", "f"
        elif name in ("fabs", "abs"):
            text, kind = f"rt.c_abs({args[0].py}, {mask})", args[0].kind
        elif name in ("floor", "ceil"):
            text, kind = f"rt.c_{name}({args[0].py}, {mask})", "i"
        elif name in ("min", "max"):
            kinds = {a.kind for a in args}
            if len(kinds) != 1:
                raise CodegenIneligible(f"{name}() with mixed argument types")
            arglist = ", ".join(a.py for a in args)
            text, kind = f"rt.c_{name}({arglist})", kinds.pop()
        else:  # pragma: no cover - screened earlier
            raise CodegenIneligible(f"call to {name!r}")
        return self.emit_value(
            ("call", name, mask, *[a.py for a in args]),
            text,
            kind,
            all(a.u for a in args),
        )

    def inline(self, func: ast.FuncDef, args: List[_Val]) -> _Val:
        """Inline a user function: parameters bind the argument values
        uncoerced (the tree's ``_call_function``), names it does not
        declare resolve against the call root, and each ``return``
        retires its lanes from the call's mask."""
        rv, rm = self.fresh("t"), self.fresh("m")
        self.line(f"{rv} = None")
        self.line(f"{rm} = None")
        assigned = _assigned_names(func.body)
        params: Dict[str, _Local] = {}
        for param, arg in zip(func.params, args):
            py = arg.py
            if param.name in assigned:
                py = self.fresh_local(param.name)
                self.local_pys.add(py)
                self.line(f"{py} = {arg.py}")
            params[param.name] = _Local(py, arg.kind, arg.u, self.region)
        saved = self.frame
        self.frame = _Frame([params], is_func=True, rv=rv, rm=rm)
        try:
            self.stmt(func.body)
            kind = self.frame.kinds.pop()
        finally:
            self.frame = saved
        return _Val(rv, kind, False)


def generate_source(loop: ast.For, info: _StaticInfo, array_sig, scalar_sig):
    """Emit the kernel function's full Python source for one signature.

    *array_sig* is ``((name, dtype_str, itemsize, written), ...)`` and
    *scalar_sig* is ``((name, kind), ...)`` in parameter order (names of
    inlined functions' free names carry the ``__cg_g_`` prefix).  Returns
    ``(source, sites)``: *sites* addresses every dynamically classified
    access site as ``(owner, pre-order position, loop variable)``.
    """
    arrays = {}
    widx = 0
    for name, dtype_str, _itemsize, written in array_sig:
        arrays[name] = _ArrInfo(name, dtype_str, written, widx if written else None)
        widx += bool(written)
    scalars = dict(scalar_sig)
    em = _Emitter(loop, info, arrays, scalars)
    em.stmt(loop.body)
    em.flush(em.regions[0])

    params = ["__cg", "__cg_idx", "__cg_wx", info.var]
    params += [a[0] for a in array_sig]
    params += [s[0] for s in scalar_sig]
    head = [
        f"def __cg_kernel({', '.join(params)}):",
        "    __cg_c = __cg.counters",
        f"    __cg_n0 = {info.var}.shape[0]",
    ]
    for arr in arrays.values():
        head.append(
            f"    __cg_cached_{arr.name} = "
            f"{arr.name}.nbytes * __cg.scale <= __cg.cached_bytes"
        )
    for arr in arrays.values():
        if arr.written:
            head.append(f"    {arr.shadow} = {arr.name}[__cg_wx[{arr.widx}]].copy()")
        elif arr.name in em.lane_views:
            head.append(f"    {arr.view} = rt.widen({arr.name}[__cg_idx])")
    for k in range(len(em.sites)):
        head.append(f"    __cg_ir{k}, __cg_pk{k} = __cg.irr[{k}]")

    tail = []
    for arr in arrays.values():
        if arr.written:
            tail.append(f"    {arr.name}[__cg_wx[{arr.widx}]] = {arr.shadow}")
    if info.reductions:
        tail.append(f"    return ({', '.join(info.reductions)},)")
    lines = _insert_dels(head + em.lines + tail, em.deletable | em.local_pys)
    return "\n".join(lines) + "\n", tuple(em.sites)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _indent_of(text: str) -> int:
    return len(text) - len(text.lstrip())


def _insert_dels(lines: List[str], candidates: set) -> List[str]:
    """Free each temp right after its last textual use.

    Full-width f64 temps are ~8 bytes/lane; a straight-line kernel body
    keeps dozens alive at once, overflowing L2 so every subsequent numpy
    pass streams from L3/DRAM.  Dropping each name at its last mention
    returns the buffer to the allocator, which hands the same hot pages
    to the next temp.  Definitions dominate uses (CSE tables are
    region-scoped), so a ``del`` placed at the indent of the last use
    only runs when the name is bound.  A name defined before an inner
    loop and last used inside it dies after the loop instead, since
    later iterations read it again.  Names whose last mention is a
    block header (``if ...:``) are left for frame exit — a ``del``
    there would detach the header from its suite.
    """
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for i, text in enumerate(lines):
        for tok in _IDENT_RE.findall(text):
            if tok in candidates:
                first.setdefault(tok, i)
                last[tok] = i
    loops = []  # (header line, last line of its body)
    for h, text in enumerate(lines):
        if text.strip() == "while True:":
            depth, end = _indent_of(text), h
            for j in range(h + 1, len(lines)):
                if _indent_of(lines[j]) <= depth:
                    break
                end = j
            loops.append((h, end))
    dels: Dict[int, Dict[int, List[str]]] = {}  # line -> indent -> names
    for name, j in last.items():
        f, at = first[name], j
        outer = [(h, e) for h, e in loops if h < j <= e and not h < f <= e]
        if outer:
            h, at = min(outer)
            pad = _indent_of(lines[h])
        elif lines[j].rstrip().endswith(":"):
            continue
        else:
            pad = _indent_of(lines[j])
        dels.setdefault(at, {}).setdefault(pad, []).append(name)
    out: List[str] = []
    for i, text in enumerate(lines):
        out.append(text)
        for pad, names in sorted(dels.get(i, {}).items(), reverse=True):
            out.append(f"{' ' * pad}del {', '.join(sorted(names))}")
    return out


# ==========================================================================
# Runtime helpers (the ``rt`` namespace inside generated kernels)
# ==========================================================================


class _RT:
    """Masked-vector primitives generated kernels call at runtime.

    Every helper is polymorphic over "scalar" (lane-invariant Python
    value) and "vector" (full-width ndarray) operands, mirroring the
    batch engine's ``_Lanes``-or-scalar values; masks are full-width
    bool vectors or ``None`` (= all active lanes).  Each helper's
    semantics are copied from the batch-engine function named in its
    docstring, which in turn mirrors the tree walker.
    """

    # -- truth, masks, blending -------------------------------------------

    @staticmethod
    def truth(v):
        """``_BatchRunner._truthy``."""
        if isinstance(v, np.ndarray):
            return v != 0
        return bool(v)

    @staticmethod
    def asint(t):
        if isinstance(t, np.ndarray):
            return t.astype(np.int64)
        return int(t)

    @staticmethod
    def refine(m, t, n):
        """Narrow mask *m* by truth *t*; scalar truth keeps *m* (the
        batch engine's scalar-cond path runs the arm under an unchanged
        mask)."""
        if isinstance(t, np.ndarray):
            nm = t if m is None else (m & t)
            return nm, int(np.count_nonzero(nm))
        return (m, n) if t else (m, 0)

    @staticmethod
    def refine_not(m, t, n):
        if isinstance(t, np.ndarray):
            nm = ~t if m is None else (m & ~t)
            return nm, int(np.count_nonzero(nm))
        return (m, 0) if t else (m, n)

    @staticmethod
    def blend(m, new, old):
        """``_BatchRunner._where`` (kinds are checked at generation
        time, so only the merge remains)."""
        if m is None:
            return new
        return np.where(m, new, old)

    @staticmethod
    def sel(t, a, b):
        """``_BatchRunner._expr_cond``'s merge step."""
        if a is None:
            return b
        if b is None:
            return a
        if isinstance(t, np.ndarray):
            return np.where(t, a, b)
        return a if t else b

    @staticmethod
    def land(lt, rt_t):
        """``&&`` merge (``_expr_logic``): *lt* scalar means the left
        side was lane-invariantly true (false short-circuited)."""
        if not isinstance(lt, np.ndarray):
            return _RT.asint(rt_t)
        rvec = (
            rt_t
            if isinstance(rt_t, np.ndarray)
            else np.full(lt.shape[0], bool(rt_t))
        )
        return (lt & rvec).astype(np.int64)

    @staticmethod
    def lor(lt, rt_t, m):
        """``||`` merge (``_expr_logic``): *m* is the refined rhs mask
        (``eff & ~lt``) — exactly the lanes whose right side counts."""
        if not isinstance(lt, np.ndarray):
            return _RT.asint(rt_t)
        rvec = (
            rt_t
            if isinstance(rt_t, np.ndarray)
            else np.full(lt.shape[0], bool(rt_t))
        )
        return (lt | (rvec & m)).astype(np.int64)

    @staticmethod
    def lnot(v):
        if isinstance(v, np.ndarray):
            return (~(v != 0)).astype(np.int64)
        return int(not v)

    # -- coercions ---------------------------------------------------------

    @staticmethod
    def toi(v, m):
        """``_BatchRunner._to_int`` / ``_coerce_int``: truncation, with
        active lanes that int64 cannot hold bailing to the tree."""
        if isinstance(v, np.ndarray):
            if v.dtype.kind == "f":
                return mathops.checked_trunc(v, m)
            return v
        if isinstance(v, float) and not math.isfinite(v):
            raise OverflowError("non-finite value converted to int")
        return int(v)

    @staticmethod
    def tof(v):
        """``_BatchRunner._vcoerce`` for float/double."""
        if isinstance(v, np.ndarray):
            if v.dtype.kind != "f":
                return v.astype(np.float64)
            return v
        return float(v)

    # -- gathers, shadow reads, stores ------------------------------------

    @staticmethod
    def widen(a):
        """Widen read-only loads to float64/int64 lanes (the tree's
        ``.item()`` on every load is exactly this widening)."""
        wide = np.float64 if a.dtype.kind == "f" else np.int64
        return a if a.dtype == wide else a.astype(wide)

    @staticmethod
    def read_f64(sh):
        """Snapshot-read of a written array's shadow.  ``astype`` always
        copies, so a value loaded here never aliases a later store."""
        return sh.astype(np.float64)

    @staticmethod
    def read_i64(sh):
        return sh.astype(np.int64)

    @staticmethod
    def store(sh, m, v):
        """Masked store into the shadow (slot == lane + c), downcasting
        to the array dtype exactly as the tree's ``arr[i] = value`` does."""
        if m is None:
            sh[...] = v
        elif isinstance(v, np.ndarray):
            sh[m] = v[m]
        else:
            sh[m] = v

    @staticmethod
    def store_fit(sh, m, v):
        """:meth:`store` for value kinds the target dtype may not hold:
        the active values are checked first (``mathops.check_store``)."""
        if isinstance(v, np.ndarray):
            mathops.check_store(sh.dtype, v if m is None else v[m])
        else:
            mathops.check_store(sh.dtype, v)
        _RT.store(sh, m, v)

    @staticmethod
    def gather(a, idx, m):
        """``a[idx]`` per lane, widened like the tree's ``.item()``.

        Bounds are checked on active lanes only (a guard may mask off a
        lane whose index is out of range); an active lane out of range
        bails, so the fallback reproduces the tree's exact error."""
        n = a.shape[0]
        if not isinstance(idx, np.ndarray):
            if idx < 0 or idx >= n:
                raise _TransientBail("gather index out of range")
            return a[idx].item()
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            bad = (idx < 0) | (idx >= n)
            if m is None or bool((bad & m).any()):
                raise _TransientBail("gather index out of range")
            idx = np.where(bad, 0, idx)
        return _RT.widen(a[idx])

    @staticmethod
    def fold(op, acc, v, m, n):
        """``acc += v`` (or ``-=``) for each of the *n* active lanes in
        lane order, as the tree's sequence of updates computes it.

        Ints are exact in any order.  Floats go through
        ``ufunc.accumulate``, which applies the operation left to right
        (``np.sum`` would sum pairwise and round differently); an
        overflow to infinity is silent, as in Python float arithmetic.
        A lane-invariant value is added once per active lane."""
        if isinstance(v, np.ndarray):
            v = v if m is None else v[m]
        if type(acc) is int:
            total = sum(v.tolist()) if isinstance(v, np.ndarray) else v * n
            return acc + total if op == "+" else acc - total
        seq = np.empty(n + 1, dtype=np.float64)
        seq[0] = acc
        seq[1:] = v
        ufunc = np.add if op == "+" else np.subtract
        with np.errstate(all="ignore"):
            return float(ufunc.accumulate(seq)[-1])

    # -- inlined calls -----------------------------------------------------

    @staticmethod
    def ret(rv, m, v):
        """Merge a ``return`` under mask *m* into the call's result (the
        lanes outside every return mask are inactive in the caller)."""
        if rv is None or m is None:
            return v
        return np.where(m, v, rv)

    @staticmethod
    def ret_mask(rm, m, n):
        """Lanes that have returned, after a ``return`` under mask *m*."""
        full = np.ones(n, dtype=bool) if m is None else m
        return full if rm is None else (rm | full)

    # -- integer lanes -----------------------------------------------------

    @staticmethod
    def iarith(op, a, b, m):
        """``+``/``-``/``*`` on int lanes (``mathops.checked_int``)."""
        return mathops.checked_int(op, a, b, m)

    @staticmethod
    def ineg(v, m):
        if isinstance(v, np.ndarray):
            return mathops.checked_neg(v, m)
        return -v

    @staticmethod
    def ishift(op, a, b, m):
        return mathops.checked_shift(op, a, b, m)

    # -- division ----------------------------------------------------------

    @staticmethod
    def _safe_divisor(rv, m, message):
        """The divisor with zero lanes checked (raise if any is active)
        and sanitized to 1.  The common all-nonzero case costs one
        comparison + one reduction and returns the divisor unchanged."""
        if not isinstance(rv, np.ndarray):
            if rv == 0:
                raise ZeroDivisionError(message)
            return rv
        zero = rv == 0
        if zero.any():
            active = zero if m is None else (zero & m)
            if bool(active.any()):
                raise ZeroDivisionError(message)
            return np.where(zero, 1, rv)
        return rv

    @staticmethod
    def fdiv(lv, rv, m):
        """``_BatchRunner._divide`` with ``is_float=True``."""
        if not (isinstance(lv, np.ndarray) or isinstance(rv, np.ndarray)):
            return lv / rv
        safe = _RT._safe_divisor(rv, m, "float division by zero")
        return np.asarray(lv, dtype=np.float64) / safe

    @staticmethod
    def idiv(lv, rv, m):
        """``_BatchRunner._divide`` with ``is_float=False``.

        The sign merge may use the sanitized divisor: it only differs
        from the original on zero lanes, where both 0 and the substitute
        1 count as non-negative."""
        if not (isinstance(lv, np.ndarray) or isinstance(rv, np.ndarray)):
            q = abs(int(lv)) // abs(int(rv))
            return q if (lv >= 0) == (rv >= 0) else -q
        safe = _RT._safe_divisor(rv, m, "integer division or modulo by zero")
        mathops.check_int64_min(lv, m)
        mathops.check_int64_min(safe, m)
        la = np.asarray(lv)
        q = np.abs(la) // np.abs(safe)
        return np.where((la >= 0) == (safe >= 0), q, -q).astype(np.int64)

    @staticmethod
    def imod(lv, rv, m):
        """``_BatchRunner._modulo``."""
        if not (isinstance(lv, np.ndarray) or isinstance(rv, np.ndarray)):
            r = abs(int(lv)) % abs(int(rv))
            return r if lv >= 0 else -r
        safe = _RT.toi(
            _RT._safe_divisor(rv, m, "integer division or modulo by zero"), m
        )
        la = _RT.toi(np.asarray(lv), m)
        mathops.check_int64_min(la, m)
        mathops.check_int64_min(safe, m)
        r = np.abs(la) % np.abs(safe)
        return np.where(la >= 0, r, -r).astype(np.int64)

    # -- builtins ----------------------------------------------------------

    @staticmethod
    def _sanitize(v, m):
        """``_BatchRunner._builtin_f64``: float64 lanes with inactive
        lanes forced to 1.0 so they cannot trip a domain check the tree
        would never perform."""
        vec = v if v.dtype.kind == "f" else v.astype(np.float64)
        if m is not None:
            vec = np.where(m, vec, 1.0)
        return vec

    @staticmethod
    def _scalar_call(name, args):
        from repro.runtime.executor import _BUILTIN_IMPL

        try:
            return _BUILTIN_IMPL[name](*args)
        except ValueError as exc:
            raise ExecutionError(f"math domain error in {name}: {exc}")

    @staticmethod
    def _ufunc(name, v, m):
        """``_vb_pyloop``."""
        if not isinstance(v, np.ndarray):
            return _RT._scalar_call(name, [v])
        vec = _RT._sanitize(v, m)
        try:
            out = mathops.VECTOR_IMPL[name](vec)
        except ValueError as exc:
            raise ExecutionError(f"math domain error in {name}: {exc}")
        return np.asarray(out, dtype=np.float64)

    @staticmethod
    def c_exp(v, m):
        return _RT._ufunc("exp", v, m)

    @staticmethod
    def c_log(v, m):
        return _RT._ufunc("log", v, m)

    @staticmethod
    def c_sin(v, m):
        return _RT._ufunc("sin", v, m)

    @staticmethod
    def c_cos(v, m):
        return _RT._ufunc("cos", v, m)

    @staticmethod
    def c_sqrt(v, m):
        """``_vb_sqrt``."""
        if not isinstance(v, np.ndarray):
            return _RT._scalar_call("sqrt", [v])
        vec = _RT._sanitize(v, m)
        if (vec < 0).any():
            raise ExecutionError("math domain error in sqrt: math domain error")
        return np.sqrt(vec)

    @staticmethod
    def c_pow(a, b, m):
        """``_vb_pow``."""
        av = _RT._sanitize(a, m) if isinstance(a, np.ndarray) else a
        bv = _RT._sanitize(b, m) if isinstance(b, np.ndarray) else b
        if not (isinstance(av, np.ndarray) or isinstance(bv, np.ndarray)):
            return _RT._scalar_call("pow", [av, bv])
        try:
            out = mathops.vector_pow(av, bv)
        except ValueError as exc:
            raise ExecutionError(f"math domain error in pow: {exc}")
        return np.asarray(out, dtype=np.float64)

    @staticmethod
    def c_abs(v, m):
        """``_vb_abs`` — the tree's fabs is plain ``abs()``, kind kept."""
        if isinstance(v, np.ndarray):
            mathops.check_int64_min(v, m)
            return np.abs(v)
        return _RT._scalar_call("fabs", [v])

    @staticmethod
    def _floorceil(name, v, m):
        """``_vb_floorceil``."""
        if not isinstance(v, np.ndarray):
            return _RT._scalar_call(name, [v])
        vec = _RT._sanitize(v, m)
        fn = np.floor if name == "floor" else np.ceil
        return mathops.checked_trunc(fn(vec), None)

    @staticmethod
    def c_floor(v, m):
        return _RT._floorceil("floor", v, m)

    @staticmethod
    def c_ceil(v, m):
        return _RT._floorceil("ceil", v, m)

    @staticmethod
    def _minmax(name, args):
        """``_vb_minmax`` (uniform kinds checked at generation time)."""
        if not any(isinstance(a, np.ndarray) for a in args):
            return _RT._scalar_call(name, args)
        fn = np.minimum if name == "min" else np.maximum
        result = args[0]
        for arg in args[1:]:
            result = fn(result, arg)
        return np.asarray(result)

    @staticmethod
    def c_min(*args):
        return _RT._minmax("min", list(args))

    @staticmethod
    def c_max(*args):
        return _RT._minmax("max", list(args))


# ==========================================================================
# Kernel cache
# ==========================================================================


class _CgCtx:
    """Per-invocation context handed to a generated kernel."""

    __slots__ = ("counters", "scale", "cached_bytes", "irr", "reached")

    def __init__(self, counters, scale, cached_bytes, irr):
        self.counters = counters
        self.scale = scale
        self.cached_bytes = cached_bytes
        #: Per dynamic site: ``(irregular flag, unclassified)``.
        self.irr = irr
        #: Unclassified site reached -> ``[lanes charged, lowest lane,
        #: that lane's integer bindings at its first reach]``.
        self.reached: Dict[int, list] = {}

    def reach(self, k: int, m, n: int, values: Dict[str, object]) -> None:
        """Record *n* charged lanes reaching unclassified site *k* under
        mask *m*.  The tree runs lane by lane, so it classifies a site
        at the lowest lane that reaches it, at that lane's first reach;
        a reach by a lower lane than any before replaces the bindings."""
        lane = 0 if m is None else int(np.argmax(m))
        rec = self.reached.setdefault(k, [0, None, None])
        rec[0] += n
        if rec[1] is None or lane < rec[1]:
            rec[1] = lane
            rec[2] = {
                name: int(v[lane]) if isinstance(v, np.ndarray) else int(v)
                for name, v in values.items()
            }


#: Compiled kernels keyed on (canonical source of the loop and every
#: function it inlines, transform provenance, array signature,
#: scalar-kind signature).
_KERNELS: Dict[tuple, object] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def cache_stats() -> dict:
    """A snapshot of the module-wide generated-kernel cache counters."""
    return dict(_CACHE_STATS)


def clear_cache() -> None:
    """Drop all compiled kernels and reset the hit/miss counters."""
    _KERNELS.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def _kernel_key_source(loop: ast.For, info: _StaticInfo) -> str:
    """Everything the generated source bakes in besides signatures: the
    induction variable, the loop body and each inlined function.  The
    loop header and pragmas are not baked in (``_run`` evaluates the
    bounds per entry), so streamed blocks that differ only in their
    offload clauses share one kernel.  Site classes that cannot depend
    on bindings are functions of this text too; the rest are resolved
    per call and never baked in."""
    parts = [info.var, to_source(loop.body)]
    return "\n".join(parts + [to_source(f) for f in info.inlined])


def _get_kernel(loop, info: _StaticInfo, provenance, array_sig, scalar_sig):
    """Compile (or fetch) the kernel for one concrete signature.

    Returns ``(fn, was_miss)``.  Generation failures raise
    :class:`CodegenIneligible` (the caller rejects the loop — falling
    back to the batch engine is always correct)."""
    if info.src is None:
        info.src = _kernel_key_source(loop, info)
    key = (info.src, provenance, array_sig, scalar_sig)
    fn = _KERNELS.get(key)
    if fn is not None:
        _CACHE_STATS["hits"] += 1
        return fn, False
    _CACHE_STATS["misses"] += 1
    source, sites = generate_source(loop, info, array_sig, scalar_sig)
    code = compile(source, f"<codegen:{info.var}>", "exec")
    ns = {"np": np, "rt": _RT}
    exec(code, ns)
    fn = ns["__cg_kernel"]
    fn.__cg_source__ = source  # introspection for docs/tests
    fn.__cg_sites__ = sites
    _KERNELS[key] = fn
    return fn, True


def kernel_source(loop: ast.For, provenance: str = "") -> str:
    """Generated source for *loop* against a float64 signature guess.

    Documentation/debugging helper: screens the loop, fabricates a
    float64 array signature and float scalar kinds — integer kinds for
    the arrays and scalars an index uses, as ``_run`` would see them —
    and returns the emitted source without compiling or caching it."""
    info = analyze_loop(loop)
    if not info.eligible:
        raise CodegenIneligible(info.reason or "ineligible")
    index_names = {
        n.name
        for node in walk(loop)
        if type(node) is ast.Subscript
        for n in walk(node.index)
        if type(n) is ast.Ident
    }
    array_sig = _array_sig(
        info,
        [
            np.int64 if name in index_names else np.float64
            for _, name, _ in info.array_params
        ],
    )
    scalar_sig = tuple(
        (py, "i" if name in index_names else "f")
        for py, name, _ in info.scalar_params
    )
    return generate_source(loop, info, array_sig, scalar_sig)[0]


# ==========================================================================
# Driver
# ==========================================================================


def _scalar_kind(name: str, value):
    """Classify a free scalar binding, normalized to plain Python.

    Anything whose arithmetic the emitter cannot model with 'i'/'f'
    lanes (float32's narrower rounding, strings, handles) bails."""
    if isinstance(value, (bool, int, np.integer)):
        return int(value), "i"
    if isinstance(value, float):
        return value, "f"
    if isinstance(value, np.float64):
        return float(value), "f"
    raise _TransientBail(f"free scalar {name!r} of {type(value).__name__}")


def _array_sig(info: _StaticInfo, dtypes) -> tuple:
    return tuple(
        (name, np.dtype(dtype).str, np.dtype(dtype).itemsize, name in info.written)
        for (name, _, _), dtype in zip(info.array_params, dtypes)
    )


def _written_offsets(info: _StaticInfo, bindings: Dict[str, object]) -> Dict[str, int]:
    """The lane-invariant ``c`` of every written array's ``i + c`` index.

    Every access site of a written array must reduce to the same
    ``1 * i + c`` under the loop entry's integer scalars; otherwise lane
    slots could collide and the loop is not codegen's."""
    ints = {
        k: v for k, v in bindings.items()
        if isinstance(v, int) and not isinstance(v, bool)
    }
    offsets = {}  # in parameter order, like the kernel's __cg_wx
    for name, indexes in info.shift_sites.items():
        consts = set()
        for index in indexes:
            try:
                form = extract_linear_form(index, info.var, ints)
            except NotAffineError as exc:
                raise CodegenIneligible(f"written array {name!r}: {exc}")
            if form.coeff != 1:
                raise CodegenIneligible(
                    f"written array {name!r} is not accessed at one index i + c"
                )
            consts.add(form.const)
        if len(consts) != 1:
            raise CodegenIneligible(
                f"written array {name!r} is not accessed at one index i + c"
            )
        offsets[name] = consts.pop()
    return offsets


def _sites(executor, info: _StaticInfo, fn) -> Tuple[list, list]:
    """Per dynamic site of *fn*: its ``(node, loop variable)`` in this
    loop and ``(irregular flag, unclassified)`` from the executor's
    site cache."""
    cache = executor._access_cache
    nodes, flags = [], []
    for owner, pos, var in fn.__cg_sites__:
        node = info.subscripts[owner][pos]
        cls = cache.get((id(node), var))
        nodes.append((node, var))
        flags.append((0, True) if cls is None else (int(cls in _IRREGULAR), False))
    return nodes, flags


def _settle_sites(executor, sites, cg: _CgCtx) -> None:
    """Classify the sites the entry reached unclassified, at the lowest
    lane that reached each, and charge their irregular accesses.  Each
    charge is an integer-valued float below 2**53, so adding them last
    gives the tree's total exactly."""
    from repro.runtime.executor import Executor

    for k, (count, _, bindings) in cg.reached.items():
        node, var = sites[k]
        cls = Executor._classify_site(node.index, var, bindings)
        executor._access_cache[(id(node), var)] = cls
        if cls in _IRREGULAR:
            cg.counters.irregular_accesses += count


def _run(executor, loop: ast.For, env, info: _StaticInfo) -> int:
    """Generate/fetch the kernel, check dynamic safety, run it."""
    bounds = batch_exec.recognize_bounds(executor, loop, env)
    trips, start, stride = bounds.trips, bounds.start, bounds.stride
    if trips == 0:
        bounds.finalize_induction()
        return 0

    root = executor._call_root_env()
    arrays, by_name = [], {}
    for py, name, in_loop in info.array_params:
        value = (env if in_loop else root).get(name)
        if not isinstance(value, np.ndarray):
            raise CodegenIneligible(f"{name!r} is not an array")
        if value.ndim != 1 or value.dtype.kind not in "fiub":
            raise CodegenIneligible(f"{name!r} has unsupported dtype/shape")
        arrays.append(value)
        by_name[py] = value

    scalars, kinds, bindings, acc_types = [], [], {}, []
    for py, name, in_loop in info.scalar_params:
        raw = (env if in_loop else root).get(name)
        value, kind = _scalar_kind(name, raw)
        scalars.append(value)
        kinds.append(kind)
        if in_loop:
            bindings[name] = value
        if name in info.reductions:
            # The write-back keeps the binding's type, as the tree's
            # updates do; numpy integers would wrap where a fold cannot.
            if type(raw) not in (int, float, np.float64):
                raise _TransientBail(f"accumulator {name!r} of {type(raw).__name__}")
            acc_types.append(type(raw))
    offsets = _written_offsets(info, bindings) if info.written else {}

    # Read-only arrays read at the bare loop variable are sliced once,
    # and a written array's slots are the lanes shifted by its c: one
    # range check each covers every such access.  A violating lane means
    # the tree must produce the exact mid-loop fault (and partial writes).
    lo = min(start, start + stride * (trips - 1))
    hi = max(start, start + stride * (trips - 1))
    for name in info.lane_arrays:
        if lo < 0 or hi >= len(by_name[name]):
            raise _TransientBail(f"lane index out of range for {name!r}")
    for name, c in offsets.items():
        if lo + c < 0 or hi + c >= len(by_name[name]):
            raise _TransientBail(f"lane index out of range for {name!r}")

    # Lanes are independent only if no written array aliases another
    # operand: a write through one name must not be visible through
    # another within the same loop entry.  Two distinct arrays that own
    # their buffers cannot overlap.
    for wname in info.written:
        warr = by_name[wname]
        for name, value in by_name.items():
            if name != wname and (
                value is warr
                or (
                    (value.base is not None or warr.base is not None)
                    and np.shares_memory(warr, value)
                )
            ):
                raise _TransientBail(f"{wname!r} aliases {name!r}")

    array_sig = _array_sig(info, [value.dtype for value in arrays])
    scalar_sig = tuple(
        (py, kind) for (py, _, _), kind in zip(info.scalar_params, kinds)
    )
    provenance = getattr(executor.program, "comp_provenance", "")
    fn, was_miss = _get_kernel(loop, info, provenance, array_sig, scalar_sig)
    stats = executor._codegen_stats
    if was_miss:
        stats["compiled"] += 1
    else:
        stats["cache_hits"] += 1

    lanes = start + stride * np.arange(trips, dtype=np.int64)
    if stride == 1:
        idx = slice(start, start + trips)
        wx = [slice(start + c, start + c + trips) for c in offsets.values()]
    else:
        idx = lanes
        wx = [lanes + c for c in offsets.values()]

    sites, flags = _sites(executor, info, fn)
    cg = _CgCtx(OpCounters(), executor.machine.scale, executor.CACHED_ARRAY_BYTES, flags)
    accs = fn(cg, idx, wx, lanes, *arrays, *scalars)
    if cg.reached:
        _settle_sites(executor, sites, cg)
    executor._ctx.pending.add(cg.counters)
    if accs:
        for name, acc_type, value in zip(info.reductions, acc_types, accs):
            env.set(name, acc_type(value))
    bounds.finalize_induction()
    return trips


def _reject(executor, reason: str) -> None:
    """Count one parallel-loop entry codegen did not run, by reason."""
    rejections = executor._codegen_rejections
    rejections[reason] = rejections.get(reason, 0) + 1


def try_run_parallel_for(executor, loop: ast.For, env) -> Optional[int]:
    """Attempt codegen execution of one parallel loop.

    On success, array writes are committed, the induction variable's
    final value lands where the tree would leave it, the loop's counters
    are merged into the executor's pending set, and the trip count is
    returned.  Returns ``None`` — with no lasting side effects — when
    the loop is ineligible or a dynamic check failed, in which case the
    caller falls down the ladder (batch, then tree)."""
    cache = executor._codegen_static_cache
    info = cache.get(id(loop))
    if info is None:
        info = analyze_loop(loop, executor.functions)
        cache[id(loop)] = info
    if not info.eligible:
        _reject(executor, info.reason)
        return None

    stats = executor._codegen_stats
    ctx = executor._ctx
    entry_pending = ctx.pending
    ctx.pending = OpCounters()
    try:
        trips = _run(executor, loop, env, info)
    except (CodegenIneligible, BatchIneligible) as exc:
        # Shape problems repeat on every entry; stop re-attempting.
        info.reject(f"dynamic: {exc}")
        ctx.pending = entry_pending
        stats["fallback"] += 1
        _reject(executor, info.reason)
        return None
    except _TransientBail as exc:
        # Value-dependent (bounds, aliasing, odd scalar): the next entry
        # may be eligible again, so no permanent verdict.
        ctx.pending = entry_pending
        stats["fallback"] += 1
        _reject(executor, f"bail: {exc}")
        return None
    except (ReproError, ZeroDivisionError, OverflowError) as exc:
        # The kernel faults; shadows were never committed, so the
        # fallback engine reproduces the exact error and the exact
        # partial state sequential execution mandates.
        ctx.pending = entry_pending
        stats["fallback"] += 1
        _reject(executor, f"fault: {type(exc).__name__}")
        return None
    entry_pending.add(ctx.pending)
    ctx.pending = entry_pending
    stats["ran"] += 1
    tracer = executor.machine.tracer
    if tracer.enabled:
        tracer.metrics.counter("codegen.loops").inc()
    return trips
