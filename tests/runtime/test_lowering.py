"""The lowered interpreter's closure cache.

Closures belong to one executor and are keyed on live program nodes: two
executors running one AST never share them, and a node the vector
engines build afresh on every loop entry is lowered for that call only.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.minic.parser import parse
from repro.runtime import executor as executor_module
from repro.runtime.executor import Executor, Machine
from repro.runtime.lower import Lowerer

DOWNWARD = """
void main() {
    for (int k = 0; k < rounds; k++) {
#pragma omp parallel for
        for (int i = n - 1; i >= 0; i -= 1) {
            B[i] = A[i] + k;
        }
    }
}
"""


@pytest.fixture
def lowerers(monkeypatch):
    """Every Lowerer the executors create, kept for inspection."""
    made = []

    class Recorded(Lowerer):
        def __init__(self, executor):
            super().__init__(executor)
            self.functions = set()
            made.append(self)

        def function(self, func):
            invoke = super().function(func)
            self.functions.add(invoke)
            return invoke

        def release(self):
            self.cached_exprs = len(self.expr_units)
            super().release()

    monkeypatch.setattr(executor_module, "Lowerer", Recorded)
    return made


def _run(program, rounds, engine="batch"):
    n = 16
    arrays = {
        "A": np.arange(n, dtype=np.float32),
        "B": np.zeros(n, dtype=np.float32),
    }
    executor = Executor(program, Machine(), engine=engine)
    return executor.run(arrays=arrays, scalars={"n": n, "rounds": rounds})


def test_transient_bound_wrappers_are_not_cached(lowerers):
    # The batch engine evaluates ``-(1)`` for the ``i -= 1`` step through
    # a UnOp it builds on every loop entry.
    result = _run(parse(DOWNWARD), rounds=2)
    _run(parse(DOWNWARD), rounds=40)
    few, many = lowerers
    assert result.stats.engine_loops["batch"] == 2
    assert many.cached_exprs == few.cached_exprs


def test_executors_running_one_ast_share_no_closures(lowerers):
    program = parse(DOWNWARD)
    one = _run(program, rounds=3, engine="tree")
    two = _run(program, rounds=5, engine="tree")
    first, second = lowerers
    assert first.functions and not first.functions & second.functions
    assert one.stats.ops != two.stats.ops
    fresh = _run(parse(DOWNWARD), rounds=5, engine="tree")
    assert np.array_equal(two.array("B"), fresh.array("B"))
    assert two.stats == fresh.stats


RECURSIVE = """
int depth(int d) { if (d > 0) { return depth(d - 1) + 1; } return 0; }
void main() {
    for (int k = 0; k < rounds; k++) {
#pragma omp parallel for
        for (int i = 0; i < n; i++) { B[i] = A[i] + depth(k); }
    }
}
"""


@pytest.mark.parametrize("source", [DOWNWARD, RECURSIVE])
def test_finished_executor_is_freed_without_the_collector(source):
    executor = Executor(parse(source), Machine(), engine="tree")
    arrays = {"A": np.zeros(4, dtype=np.float32), "B": np.zeros(4, dtype=np.float32)}
    executor.run(arrays=arrays, scalars={"n": 4, "rounds": 2})
    ref = weakref.ref(executor)
    gc.disable()
    try:
        del executor
        assert ref() is None
    finally:
        gc.enable()
