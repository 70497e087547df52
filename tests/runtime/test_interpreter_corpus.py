"""The scalar interpreter against a corpus of recorded results.

``data/interpreter_corpus.json`` holds MiniC programs with their inputs
and the result the tree-walking interpreter produced for each:

* on a normal exit, the sha256 of every host array, the host scalars,
  the return value, ``total_time`` as ``float.hex`` and the
  ``OpCounters``;
* on an error, the exception type and message, plus the array digests
  after the partial writes.

Most programs come from :func:`generate_program`, a generator driven by
a seeded :class:`random.Random` (so the corpus does not change with a
library version); the rest are hand-written for the scalar shapes the
generator does not reach.  Every entry runs at ``engine="tree"`` and at
``engine="auto"`` and must reproduce its record exactly.

The records come from the tree walker of commit 55dce2b, the last one
before the interpreter was lowered to closures; that is what makes the
corpus a check of the rewrite.  To re-record, export that commit
(``git archive 55dce2b``), copy this file and ``data/`` into the export
and run, there::

    PYTHONPATH=src python -m tests.runtime.test_interpreter_corpus --overwrite

Recording with a later interpreter would compare it with itself, so the
recorder refuses to replace an existing fixture without ``--overwrite``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.executor import Machine, run_program

CORPUS = Path(__file__).resolve().parent / "data" / "interpreter_corpus.json"

#: Seed of the generated part of the corpus, and how many programs it has.
GENERATOR_SEED = 20260
GENERATED = 160

N = 16

#: Errors that, when the corpus was recorded, escaped the interpreter as
#: Python builtin exceptions.  Program faults now raise ExecutionError;
#: the recorded partial writes must still match, and the message must be
#: the one given here.
FAULT_MESSAGES = {
    "int-division-by-zero": "integer division by zero",
    "float-division-by-zero": "float division by zero",
    "int-store-overflow": (
        "int32 element cannot hold 1000000000000: "
        "Python integer 1000000000000 out of bounds for int32"
    ),
}


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def make_inputs(seed: int):
    """Arrays and scalars every corpus program runs against."""
    rng = np.random.default_rng(seed)
    arrays = {
        "A": rng.random(N).astype(np.float32),
        "B": (rng.random(N) * 4.0 - 2.0).astype(np.float64),
        "I": rng.integers(0, N, N).astype(np.int32),
        "K": rng.integers(-50, 50, N).astype(np.int32),
        "C": np.zeros(N, dtype=np.float32),
    }
    scalars = {"n": N, "m": int(rng.integers(3, 9)), "s": float(rng.random() + 0.5)}
    return arrays, scalars


# --------------------------------------------------------------------------
# The program generator
# --------------------------------------------------------------------------


class _Gen:
    """Random MiniC programs that terminate and stay in range.

    Integer assignments reduce modulo 1009, float assignments clamp to
    [-1000, 1000], divisors cannot be zero, shift counts and indexes are
    reduced into range, and every ``while``/``do``-``while`` counts a
    private counter it alone assigns.  A few index expressions are left
    unreduced, so some programs end in an out-of-range error after
    partial writes.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0
        self.functions = []  # (name, return type, param types)

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- expressions ---------------------------------------------------

    def int_leaf(self, scope, depth):
        rng = self.rng
        names = [v for v, t in scope if t == "int"]
        pick = rng.random()
        if names and pick < 0.45:
            return rng.choice(names)
        if pick < 0.6:
            return f"I[{self.index(scope, depth + 1)}]"
        if pick < 0.7:
            return f"K[{self.index(scope, depth + 1)}]"
        if pick < 0.8:
            return rng.choice(["n", "m"])
        return str(rng.randint(0, 9))

    def float_leaf(self, scope, depth=0):
        rng = self.rng
        names = [v for v, t in scope if t == "float"]
        pick = rng.random()
        if names and pick < 0.4:
            return rng.choice(names)
        if pick < 0.6:
            return f"{rng.choice('ABC')}[{self.index(scope, depth + 1)}]"
        if pick < 0.7:
            return "s"
        return rng.choice(["0.5", "1.25", "2.0", "0.125", "3.0"])

    def index(self, scope, depth):
        """An index into a length-16 array; rarely unreduced."""
        rng = self.rng
        loop_vars = [v for v, t in scope if t == "int" and v.startswith("i")]
        if loop_vars and rng.random() < 0.5:
            return f"{rng.choice(loop_vars)} % {N}"
        if depth >= 2:
            return str(rng.randrange(N))
        if rng.random() < 0.02:
            return self.int_expr(scope, depth + 1)
        return f"abs({self.int_expr(scope, depth + 1)}) % {N}"

    def int_expr(self, scope, depth=0):
        rng = self.rng
        if depth >= 2 or rng.random() < 0.3:
            return self.int_leaf(scope, depth)
        a = self.int_expr(scope, depth + 1)
        b = self.int_expr(scope, depth + 1)
        kind = rng.randrange(15)
        if kind < 3:
            return f"({a} {rng.choice('+-')} {b})"
        if kind == 3:
            return f"({a} * {rng.randint(0, 3)})"
        if kind == 4:
            return f"({a} / ({b} % 7 + 8))"
        if kind == 5:
            return f"({a} % {rng.randint(2, 9)})"
        if kind == 6:
            op = rng.choice(["<", ">", "<=", ">=", "==", "!="])
            return f"({a} {op} {b})"
        if kind == 7:
            return f"({self.cond(scope, depth + 1)} {rng.choice(['&&', '||'])} {self.cond(scope, depth + 1)})"
        if kind == 8:
            return f"({self.cond(scope, depth + 1)} ? {a} : {b})"
        if kind == 9:
            return f"((int) {self.float_expr(scope, depth + 1)})"
        if kind == 10:
            return f"({a} {rng.choice(['<<', '>>'])} (abs({b}) % 4))"
        if kind == 11:
            return f"({a} {rng.choice('&|^')} {b})"
        if kind == 12:
            return f"{rng.choice(['min', 'max'])}({a}, {b})"
        if kind == 13:
            return f"(!{a})"
        return f"(-{a})"

    def float_expr(self, scope, depth=0):
        rng = self.rng
        if depth >= 2 or rng.random() < 0.3:
            return self.float_leaf(scope, depth)
        a = self.float_expr(scope, depth + 1)
        b = self.float_expr(scope, depth + 1)
        kind = rng.randrange(12)
        if kind < 3:
            return f"({a} {rng.choice('+-*')} {b})"
        if kind == 3:
            return f"({a} / (fabs({b}) + 1.0))"
        if kind == 4:
            return f"sqrt(fabs({a}))"
        if kind == 5:
            return f"{rng.choice(['sin', 'cos'])}({a})"
        if kind == 6:
            return f"exp(sin({a}))"
        if kind == 7:
            return f"((float) {self.int_expr(scope, depth + 1)})"
        if kind == 8:
            return f"({self.cond(scope, depth + 1)} ? {a} : {b})"
        if kind == 9:
            return f"({a} + {self.int_expr(scope, depth + 1)})"
        if kind == 10:
            floats = [f for f in self.functions if f[1] == "float"]
            if floats:
                name, _, params = rng.choice(floats)
                args = ", ".join(
                    self.int_expr(scope, depth + 1) if p == "int"
                    else self.float_expr(scope, depth + 1)
                    for p in params
                )
                return f"{name}({args})"
            return f"floor({a})"
        return f"(-{a})"

    def cond(self, scope, depth=0):
        rng = self.rng
        if rng.random() < 0.5:
            a, b = self.int_expr(scope, depth + 1), self.int_expr(scope, depth + 1)
        else:
            a, b = self.float_expr(scope, depth + 1), self.float_expr(scope, depth + 1)
        return f"({a} {rng.choice(['<', '>', '<=', '>=', '==', '!='])} {b})"

    # -- statements ----------------------------------------------------

    def assign(self, scope, ind):
        rng = self.rng
        ints = [v for v, t in scope if t == "int" and not v.startswith("i")]
        floats = [v for v, t in scope if t == "float"]
        pick = rng.random()
        if pick < 0.3 and ints:
            v = rng.choice(ints)
            if rng.random() < 0.5:
                return f"{ind}{v} = ({self.int_expr(scope)}) % 1009;"
            return f"{ind}{v} {rng.choice(['+=', '-='])} ({self.int_expr(scope)}) % 17;"
        if pick < 0.6 and floats:
            v = rng.choice(floats)
            if rng.random() < 0.6:
                return f"{ind}{v} = min(max({self.float_expr(scope)}, -1000.0), 1000.0);"
            return f"{ind}{v} {rng.choice(['+=', '-='])} sin({self.float_expr(scope)});"
        if pick < 0.75:
            return f"{ind}K[{self.index(scope, 0)}] = ({self.int_expr(scope)}) % 1009;"
        if pick < 0.85:
            op = rng.choice(["=", "+=", "-="])
            return f"{ind}C[{self.index(scope, 0)}] {op} sin({self.float_expr(scope)});"
        return f"{ind}C[{self.index(scope, 0)}] = {self.float_expr(scope)};"

    def decl(self, scope, ind, out):
        rng = self.rng
        if rng.random() < 0.5:
            v = self.fresh("a")
            out.append(f"{ind}int {v} = ({self.int_expr(scope)}) % 1009;")
            scope.append((v, "int"))
        else:
            v = self.fresh("f")
            init = rng.choice(["", f" = min(max({self.float_expr(scope)}, -1000.0), 1000.0)"])
            if init:
                out.append(f"{ind}float {v}{init};")
            else:
                out.append(f"{ind}float {v};")
                out.append(f"{ind}{v} = {self.float_leaf(scope)};")
            scope.append((v, "float"))

    def block(self, scope, ind, depth, out, loop=False, count=None):
        scope = list(scope)
        for _ in range(count if count is not None else self.rng.randint(1, 4)):
            self.stmt(scope, ind, depth, out, loop)

    def stmt(self, scope, ind, depth, out, loop):
        rng = self.rng
        pick = rng.random()
        sub = ind + "    "
        if depth >= 3 or pick < 0.3:
            out.append(self.assign(scope, ind))
        elif pick < 0.42:
            self.decl(scope, ind, out)
        elif pick < 0.55:
            out.append(f"{ind}if {self.cond(scope)} {{")
            self.block(scope, sub, depth + 1, out, loop)
            if rng.random() < 0.5:
                out.append(f"{ind}}} else {{")
                self.block(scope, sub, depth + 1, out, loop)
            out.append(f"{ind}}}")
        elif pick < 0.68:
            v = self.fresh("i")
            hi = rng.choice([str(rng.randint(1, 6)), "m"])
            step = rng.choice([f"{v}++", f"{v} += 1", f"{v} = {v} + 2", f"{v} += 3"])
            out.append(f"{ind}for (int {v} = {rng.randint(0, 2)}; {v} < {hi}; {step}) {{")
            inner = scope + [(v, "int")]
            self.block(inner, sub, depth + 1, out, loop=True)
            if rng.random() < 0.3:
                out.append(f"{sub}if {self.cond(inner)} {{ {rng.choice(['break', 'continue'])}; }}")
                self.block(inner, sub, depth + 1, out, loop=True, count=1)
            out.append(f"{ind}}}")
        elif pick < 0.76:
            w = self.fresh("w")
            out.append(f"{ind}int {w} = 0;")
            out.append(f"{ind}while ({w} < {rng.randint(1, 5)}) {{")
            out.append(f"{sub}{w} = {w} + 1;")
            self.block(scope, sub, depth + 1, out, loop=True)
            if rng.random() < 0.4:
                out.append(f"{sub}if {self.cond(scope)} {{ {rng.choice(['break', 'continue'])}; }}")
            out.append(f"{ind}}}")
        elif pick < 0.82:
            d = self.fresh("d")
            out.append(f"{ind}int {d} = 0;")
            out.append(f"{ind}do {{")
            out.append(f"{sub}{d} += 1;")
            self.block(scope, sub, depth + 1, out, loop=True)
            if rng.random() < 0.4:
                out.append(f"{sub}if {self.cond(scope)} {{ {rng.choice(['break', 'continue'])}; }}")
            out.append(f"{ind}}} while ({d} < {rng.randint(1, 4)});")
        elif pick < 0.88 and self.functions:
            name, ret, params = rng.choice(self.functions)
            args = ", ".join(
                self.int_expr(scope) if p == "int" else self.float_expr(scope)
                for p in params
            )
            if ret == "void":
                out.append(f"{ind}{name}({args});")
            else:
                out.append(f"{ind}C[{self.index(scope, 0)}] = {name}({args});")
        elif pick < 0.94 and not loop:
            self.parallel_loop(scope, ind, out)
        else:
            out.append(f"{ind}{{")
            self.block(scope, sub, depth + 1, out, loop)
            out.append(f"{ind}}}")

    def parallel_loop(self, scope, ind, out):
        """A parallel loop: vectorizable, a scatter with a counter, or a
        reduction; sometimes inside an offload region."""
        rng = self.rng
        sub = ind + "    "
        v = self.fresh("i")
        kind = rng.randrange(3)
        offload = rng.random() < 0.3
        inner = [(v, "int")] if offload else scope + [(v, "int")]
        body = []
        pragma = "#pragma omp parallel for"
        if kind == 0:
            body.append(f"{sub}C[{v}] = {self.float_expr(inner)};")
            if rng.random() < 0.5:
                body.append(f"{sub}K[{v}] = ({self.int_expr(inner)}) % 1009;")
        elif kind == 1:
            counter = self.fresh("cnt")
            out.append(f"{ind}int {counter} = 0;")
            if offload:
                inner.append((counter, "int"))
            body.append(f"{sub}if (I[{v}] > {rng.randint(0, 12)}) {{")
            body.append(f"{sub}    K[I[{v}]] = {v} + {counter};")
            body.append(f"{sub}    {counter} += 1;")
            body.append(f"{sub}}}")
        else:
            acc = self.fresh("acc")
            out.append(f"{ind}float {acc} = 0.0;")
            if offload:
                inner.append((acc, "float"))
            pragma += f" reduction(+:{acc})"
            body.append(f"{sub}{acc} += {self.float_expr(inner)};")
        if offload:
            names = [name for name, _ in inner if name != v]
            scalars = " ".join(f"inout({x})" for x in names)
            out.append(
                f"{ind}#pragma offload target(mic:0) in(A : length(n)) "
                f"in(B : length(n)) in(I : length(n)) inout(C : length(n)) "
                f"inout(K : length(n)) in(n) in(m) in(s) {scalars}"
            )
        out.append(f"{ind}{pragma}")
        out.append(f"{ind}for (int {v} = 0; {v} < n; {v}++) {{")
        out.extend(body)
        out.append(f"{ind}}}")

    def function(self, out):
        rng = self.rng
        name = self.fresh("h")
        params = [rng.choice(["int", "float"]) for _ in range(rng.randint(1, 2))]
        ret = rng.choice(["float", "float", "void"])
        names = [self.fresh("p") for _ in params]
        scope = list(zip(names, params))
        sig = ", ".join(f"{t} {p}" for p, t in scope)
        out.append(f"{ret} {name}({sig}) {{")
        body = []
        self.block(scope, "    ", 1, body, loop=True)
        out.extend(body)
        if ret == "float":
            if rng.random() < 0.5:
                out.append(f"    if {self.cond(scope)} {{ return {self.float_expr(scope)}; }}")
            out.append(f"    return {self.float_expr(scope)};")
        out.append("}")
        self.functions.append((name, ret, params))

    def program(self) -> str:
        out = []
        for _ in range(self.rng.randint(0, 2)):
            self.function(out)
        out.append("void main() {")
        body = []
        self.block([], "    ", 0, body, count=self.rng.randint(3, 7))
        out.extend(body)
        out.append("}")
        return "\n".join(out) + "\n"


def generate_program(seed: int) -> str:
    """The generated corpus program for *seed*."""
    return _Gen(random.Random(seed)).program()


# --------------------------------------------------------------------------
# Hand-written cases
# --------------------------------------------------------------------------

HANDWRITTEN = {
    "nested-imperfect-loops": """
void main() {
    float t = 0.0;
    for (int i = 0; i < 6; i++) {
        t += A[i];
        for (int j = i; j < 6; j++) {
            C[j] += t * B[i];
            for (int k = 0; k < j; k += 2) { K[k] = K[k] + i - j; }
        }
        C[i] = C[i] - t;
    }
    total = t;
}
""",
    "while-do-while-break-continue": """
void main() {
    int k = 0;
    int hits = 0;
    while (k < 12) {
        k = k + 1;
        if (k % 3 == 0) { continue; }
        if (k > 10) { break; }
        hits += 1;
        C[k] = k * 0.5;
    }
    int d = 0;
    do {
        d += 1;
        if (d == 2) { continue; }
        K[d] = d * 7;
        if (d >= 5) { break; }
    } while (d < 9);
    out1 = hits;
    out2 = d;
}
""",
    "for-missing-clauses": """
void main() {
    int i = 0;
    for (; i < 5; i++) { C[i] = i; }
    int j = 0;
    for (j = 3; ; j++) {
        if (j > 8) { break; }
        K[j] = j;
    }
    int k = 0;
    for (; k < 4;) { k += 1; C[k + 8] = k * 2.0; }
    last = i + j + k;
}
""",
    "shadowing-and-use-before-redeclaration": """
int x = 5;
void main() {
    int y = x;
    int x = 7;
    {
        K[0] = x;
        int x = 11;
        K[1] = x;
        {
            x = x + 1;
            float x = 0.5;
            C[0] = x;
        }
        K[2] = x;
    }
    K[3] = x;
    for (int i = 0; i < 3; i++) {
        K[4 + i] = x;
        int x = i * 10;
        K[8 + i] = x;
    }
    K[12] = y;
}
""",
    "assign-undeclared-host-global": """
void bump() { counter = counter + 1; }
void main() {
    counter = 0;
    for (int i = 0; i < 5; i++) { bump(); fresh = i * 2; }
    result = counter + fresh;
}
""",
    "assign-undeclared-device-scalar": """
void main() {
#pragma offload target(mic:0) in(A : length(n)) out(C : length(n)) in(n)
    {
        scale = 3.0;
        for (int i = 0; i < n; i++) { C[i] = A[i] * scale; }
    }
}
""",
    "int-coercion-assign-decl-cast": """
void main() {
    int a = 7.9;
    float b = 3;
    int c;
    c = 2.5;
    c = 4.75;
    float d = 1;
    d = d + 0.5;
    int e = 3;
    e = e / 2.0;
    e += 0.75;
    g = 1;
    g = 9.5;
    K[0] = a; C[0] = b; C[1] = c; C[2] = d; K[1] = e; K[2] = g;
    C[3] = (int) 5.99;
    C[4] = (float) 3 / 2;
    K[3] = (int) -3.7;
    h = (int) (-7.5 / 2.0);
}
""",
    "ternary-and-short-circuit-with-side-effects": """
int touch(int k) { K[k] = K[k] + 100; return k % 2; }
void main() {
    int hits = 0;
    for (int i = 0; i < 8; i++) {
        if (i > 3 && touch(i)) { hits += 1; }
        if (i < 2 || touch(i + 8)) { hits += 10; }
        C[i] = i % 3 == 0 ? A[i] : (i % 3 == 1 ? B[i] : -1.0);
    }
    result = hits;
}
""",
    "recursion-early-return-fall-off": """
int fib(int k) {
    if (k < 2) { return k; }
    return fib(k - 1) + fib(k - 2);
}
float first_above(float t) {
    for (int i = 0; i < n; i++) {
        if (A[i] > t) { return i * 1.0; }
    }
    return -1.0;
}
void fill(int k) {
    if (k > 3) { return; }
    K[k] = fib(k + 5);
}
void main() {
    for (int i = 0; i < 6; i++) { fill(i); }
    C[0] = first_above(0.5);
    C[1] = first_above(2.0);
    f10 = fib(10);
}
""",
    "callee-resolves-against-root-scope": """
int probe() { return n * 2; }
void main() {
    int n = 1000;
    K[0] = probe();
    K[1] = n;
}
""",
    "call-in-loop-condition-uncharged": """
int limit(int k) { K[k] = K[k] + 1; return 6 - k % 2; }
void main() {
    int i = 0;
    for (i = 0; i < limit(i); i++) { C[i] = A[i] + 1.0; }
    int w = 0;
    while (w < limit(w + 1)) { w = w + 1; }
    out = i + w;
}
""",
    "local-arrays": """
void main() {
    float L[8];
    int M[m];
    for (int i = 0; i < 8; i++) { L[i] = A[i] * 2.0; }
    for (int i = 0; i < m; i++) { M[i] = i * i; }
    float acc = 0.0;
    for (int i = 0; i < 8; i++) { acc += L[i] + M[i % m]; }
    C[0] = acc;
    K[0] = M[m - 1];
}
""",
    "offload-missing-transfer": """
void main() {
    float t = 2.0;
#pragma offload target(mic:0) in(A : length(n)) out(C : length(n)) in(n)
#pragma omp parallel for
    for (int i = 0; i < n; i++) { C[i] = A[i] * t; }
}
""",
    "uninitialized-read": """
void main() {
    int q;
    K[0] = 4;
    for (int i = 0; i < 3; i++) { C[i] = i; }
    K[1] = q + 1;
}
""",
    "out-of-range-after-partial-writes": """
void main() {
    for (int i = 0; i < n; i++) {
        C[i] = A[i] + 1.0;
        K[i] = K[i + 1] * 2;
    }
}
""",
    "parallel-scatter-with-counter": """
void main() {
    int level = 3;
    int found = 0;
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        if (I[i] > 4) {
            for (int e = 0; e < 2; e++) {
                int nb = I[(i + e) % n];
                if (K[nb] < 100) {
                    K[nb] = level + 1 + K[nb] * 0;
                    found += 1;
                }
            }
            float w = 0.0;
            for (int r = 0; r < 8; r++) { w = w + sqrt(A[i] + (float) r); }
            C[i] = w;
        }
    }
    result = found;
}
""",
    "parallel-lane-varying-bound-and-reduction": """
void main() {
#pragma omp parallel for
    for (int i = 0; i < n - 1; i++) {
        float sum = 0.0;
        for (int j = I[i] % 4; j < I[i + 1] % 4 + 2; j++) { sum += A[j] * B[I[j]]; }
        C[i] = sum;
    }
    float pq = 0.0;
#pragma omp parallel for reduction(+:pq)
    for (int i = 0; i < n; i++) { pq += A[i] * C[i]; }
    total = pq;
}
""",
    "struct-members-and-aos": """
struct point { float x; float y; };
void main() {
    float sx = 0.0;
    for (int i = 0; i < 4; i++) {
        P[i].y = P[i].x * 2.0 + i;
        sx += P[i].x;
        P[i + 4].x = P[i].y - 1.0;
    }
    C[0] = sx;
    C[1] = P[5].x;
    pt = P[2];
    C[2] = pt.x;
    pt.y = 5.0;
    C[3] = P[2].y;
}
""",
    "device-function-call-resolves-on-device": """
float twice(float v) { return v * 2.0 + n; }
void main() {
#pragma offload target(mic:0) in(A : length(n)) out(C : length(n)) in(n)
#pragma omp parallel for
    for (int i = 0; i < n; i++) { C[i] = twice(A[i]); }
}
""",
    "int-division-by-zero": """
void main() {
    for (int i = 0; i < 6; i++) {
        K[i] = 12 / (3 - i);
    }
}
""",
    "float-division-by-zero": """
void main() {
    float z = 0.0;
    C[0] = 1.0;
    C[1] = A[0] / z;
}
""",
    "int-store-overflow": """
void main() {
    K[0] = 5;
    K[1] = 1000000000000;
}
""",
    "int-semantics": """
void main() {
    K[0] = -7 / 2; K[1] = -7 % 3; K[2] = 7 % -3; K[3] = 1 << 5;
    K[4] = -20 >> 2; K[5] = 6 & 3; K[6] = 6 | 3; K[7] = 6 ^ 3;
    K[8] = !0; K[9] = !5; K[10] = -(3 - 8);
    C[0] = 7 / 2.0; C[1] = -A[0]; C[2] = floor(-2.5); C[3] = ceil(2.1);
    C[4] = pow(2.0, 3.0); C[5] = log(8.0); C[6] = min(3, 2.5); C[7] = max(1, 2);
}
""",
    "return-value-of-main": """
int main() {
    int t = 0;
    for (int i = 0; i < 5; i++) { t += i; if (t > 5) { return t; } }
    return -1;
}
""",
    "offload-out-scalar-declared-in-block": """
void main() {
    {
#pragma offload target(mic:0) in(n) out(t)
        {
            t = n * 2;
        }
        K[0] = t + 1;
        t = t + 0.5;
        K[1] = t;
    }
    K[2] = t;
}
""",
    "declaration-as-if-body": """
void main() {
    int x = 1;
    for (int i = 0; i < 4; i++) {
        if (i % 2 == 0) int x = i * 10;
        K[i] = x;
    }
    K[8] = x;
}
""",
    "return-inside-parallel-loop": """
int first_big(float t) {
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        C[i] = A[i] * 2.0;
        if (A[i] > t) { return i; }
    }
    return -1;
}
void main() {
    K[0] = first_big(0.5);
    K[1] = first_big(5.0);
}
""",
    "recursion-through-loop-body-scopes": """
int walk(int d) {
    int s = 0;
    for (int i = 0; i < 3; i++) {
        int t = i + d;
        if (d > 0) { s += walk(d - 1); }
        s += t;
        K[d * 3 + i] = s;
    }
    return s;
}
void main() { total = walk(3); }
""",
    "break-inside-offload-block": """
void main() {
    for (int k = 0; k < 5; k++) {
        K[k] = k;
#pragma offload target(mic:0) in(A : length(n)) inout(C : length(n)) in(n) in(k)
        {
            C[k] = A[k] + 1.0;
            if (k == 2) { break; }
        }
        K[k + 8] = 1;
    }
}
""",
}


def _struct_points():
    pts = np.zeros(8, dtype=[("x", np.float32), ("y", np.float32)])
    pts["x"] = np.arange(8, dtype=np.float32) * 0.5
    return pts


# --------------------------------------------------------------------------
# Recording and comparing
# --------------------------------------------------------------------------


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        blob = value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
        return "ndarray:" + hashlib.sha256(blob).hexdigest()
    return _scalar(value)


def _scalar(value) -> str:
    kind = type(value).__name__
    if isinstance(value, np.void):
        return f"{kind}:{hashlib.sha256(value.tobytes()).hexdigest()}"
    if isinstance(value, (bool, int, np.integer)):
        return f"{kind}:{int(value)}"
    if isinstance(value, (float, np.floating)):
        return f"{kind}:{float.hex(float(value))}"
    return f"{kind}:{value!r}"


def entry_inputs(entry):
    arrays, scalars = make_inputs(entry["input_seed"])
    if entry.get("points"):
        arrays["P"] = _struct_points()
    return arrays, scalars


def run_entry(entry, engine: str) -> dict:
    """Run one corpus entry; its result in the corpus's recorded form."""
    arrays, scalars = entry_inputs(entry)
    machine = Machine()
    try:
        result = run_program(
            entry["source"], arrays=arrays, scalars=scalars,
            machine=machine, engine=engine,
        )
    except Exception as exc:  # noqa: BLE001 - the error is the result
        host = machine.host
        return {
            "error": [type(exc).__name__, str(exc)],
            "arrays": {k: _digest(host.arrays[k]) for k in sorted(host.arrays)},
        }
    host = result.host
    return {
        "arrays": {k: _digest(host.arrays[k]) for k in sorted(host.arrays)},
        "scalars": {k: _digest(host.scalars[k]) for k in sorted(host.scalars)},
        "return": _digest(result.return_value),
        "total_time": float.hex(float(result.stats.total_time)),
        "ops": asdict(result.stats.ops),
    }


def build_entries():
    entries = []
    for k in range(GENERATED):
        entries.append({
            "name": f"gen-{k:03d}",
            "source": generate_program(GENERATOR_SEED + k),
            "input_seed": k,
        })
    for k, (name, source) in enumerate(HANDWRITTEN.items()):
        entries.append({
            "name": name,
            "source": source.lstrip("\n"),
            "input_seed": 1000 + k,
            "points": name == "struct-members-and-aos",
        })
    return entries


def record(overwrite: bool = False) -> None:
    if CORPUS.exists() and not overwrite:
        raise SystemExit(
            f"{CORPUS} exists; records must come from the interpreter of "
            "commit 55dce2b (see the module docstring), pass --overwrite to replace it"
        )
    entries = build_entries()
    for entry in entries:
        entry["result"] = run_entry(entry, "tree")
    CORPUS.parent.mkdir(exist_ok=True)
    with open(CORPUS, "w") as handle:
        json.dump({"generator_seed": GENERATOR_SEED, "entries": entries}, handle, indent=1)
        handle.write("\n")
    errors = sum("error" in e["result"] for e in entries)
    print(f"wrote {len(entries)} entries ({errors} end in an error) to {CORPUS}")


def _load():
    with open(CORPUS) as handle:
        return json.load(handle)["entries"]


_ENTRIES = _load() if CORPUS.exists() else []


def expected(entry) -> dict:
    """The recorded result, with builtin-exception faults mapped to the
    ExecutionError the interpreter now raises for them."""
    want = dict(entry["result"])
    message = FAULT_MESSAGES.get(entry["name"])
    if message is not None:
        want["error"] = ["ExecutionError", message]
    return want


def test_corpus_size_and_coverage():
    assert sum(e["name"].startswith("gen-") for e in _ENTRIES) >= 150
    assert {e["name"] for e in _ENTRIES} >= set(HANDWRITTEN)
    assert any("error" in e["result"] for e in _ENTRIES)


def test_generator_is_stable():
    # The fixture stores each program, but regenerating must not drift:
    # a drifting generator means a re-record would silently change it.
    for entry in _ENTRIES[:GENERATED:20]:
        seed = GENERATOR_SEED + int(entry["name"][4:])
        assert generate_program(seed) == entry["source"]


@pytest.mark.parametrize("engine", ["tree", "auto"])
def test_corpus_reproduces_recorded_results(engine):
    failures = []
    for entry in _ENTRIES:
        got = run_entry(entry, engine)
        if got != expected(entry):
            failures.append(entry["name"])
    assert not failures, f"{len(failures)} corpus entries differ: {failures[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--overwrite"]):
        raise SystemExit("usage: python -m tests.runtime.test_interpreter_corpus [--overwrite]")
    record(overwrite=sys.argv[1:] == ["--overwrite"])
