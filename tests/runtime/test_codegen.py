"""Codegen tier: generated-source cache, fallback ladder, determinism.

The lru parse cache means two parses of the same source return distinct
AST clones; the kernel cache must still share one compiled function
across them (it keys on the kernel's printed form + transform
provenance, never on object identity).  Cached and freshly-compiled
kernels must be indistinguishable: identical outputs, identical op
counters, identical simulated time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minic.parser import parse
from repro.runtime import codegen
from repro.runtime.executor import Executor, Machine

KERNEL_SRC = """
void main() {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        double x = a[i] * s + b[i];
        if (x > 0.0) {
            x = x / (s + 2.0);
        }
        out[i] = x + sqrt(fabs(x));
    }
}
"""


def _arrays(seed=0, n=128):
    rng = np.random.default_rng(seed)
    return {
        "a": rng.standard_normal(n),
        "b": rng.standard_normal(n),
        "out": np.zeros(n),
    }


def _run(src, arrays, scalars, engine="codegen"):
    executor = Executor(parse(src), Machine(), engine=engine)
    result = executor.run(arrays=arrays, scalars=scalars)
    return executor, result


def test_cache_hit_across_parse_clones():
    """Distinct AST clones of one kernel share one compiled function."""
    codegen.clear_cache()
    arrays1 = _arrays(seed=1)
    ex1, _ = _run(KERNEL_SRC, arrays1, {"n": 128, "s": 1.5})
    assert ex1._codegen_stats["ran"] == 1
    assert ex1._codegen_stats["compiled"] == 1
    first = codegen.cache_stats()
    assert first["misses"] == 1

    arrays2 = _arrays(seed=1)
    ex2, _ = _run(KERNEL_SRC, arrays2, {"n": 128, "s": 1.5})
    assert ex2._codegen_stats["ran"] == 1
    assert ex2._codegen_stats["compiled"] == 0
    assert ex2._codegen_stats["cache_hits"] == 1
    second = codegen.cache_stats()
    assert second["misses"] == first["misses"]  # no recompile
    assert second["hits"] > first["hits"]
    assert arrays1["out"].tobytes() == arrays2["out"].tobytes()


def test_cache_misses_on_different_provenance():
    """Two identically-printed kernels from different transform
    pipelines must not share a generated function."""
    codegen.clear_cache()
    program1 = parse(KERNEL_SRC)
    program2 = parse(KERNEL_SRC)
    program2.comp_provenance = "streaming,thread_reuse"

    for program in (program1, program2):
        executor = Executor(program, Machine(), engine="codegen")
        executor.run(arrays=_arrays(), scalars={"n": 128, "s": 1.5})
        assert executor._codegen_stats["compiled"] == 1
    assert codegen.cache_stats()["misses"] == 2


def test_cache_misses_on_different_dtype_signature():
    codegen.clear_cache()
    arrays64 = _arrays()
    _run(KERNEL_SRC, arrays64, {"n": 128, "s": 1.5})
    arrays32 = {
        name: value.astype(np.float32) for name, value in _arrays().items()
    }
    _run(KERNEL_SRC, arrays32, {"n": 128, "s": 1.5})
    assert codegen.cache_stats()["misses"] == 2


def test_clear_cache_resets_stats():
    _run(KERNEL_SRC, _arrays(), {"n": 128, "s": 1.5})
    codegen.clear_cache()
    assert codegen.cache_stats() == {"hits": 0, "misses": 0}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    s=st.floats(
        min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
    ),
)
def test_cached_kernel_indistinguishable_from_fresh(seed, s):
    """Property: a cache-hit run is bit-identical to a fresh compile —
    same outputs, same op counters, same simulated time — and both
    match the tree walker."""
    scalars = {"n": 128, "s": s}

    codegen.clear_cache()
    fresh_arrays = _arrays(seed=seed)
    ex_fresh, fresh = _run(KERNEL_SRC, fresh_arrays, dict(scalars))
    assert ex_fresh._codegen_stats["compiled"] == 1

    cached_arrays = _arrays(seed=seed)
    ex_cached, cached = _run(KERNEL_SRC, cached_arrays, dict(scalars))
    assert ex_cached._codegen_stats["cache_hits"] == 1

    tree_arrays = _arrays(seed=seed)
    _, tree = _run(KERNEL_SRC, tree_arrays, dict(scalars), engine="tree")

    assert fresh_arrays["out"].tobytes() == cached_arrays["out"].tobytes()
    assert fresh_arrays["out"].tobytes() == tree_arrays["out"].tobytes()
    assert fresh.stats.ops.as_dict() == cached.stats.ops.as_dict()
    assert fresh.stats.ops.as_dict() == tree.stats.ops.as_dict()
    assert fresh.stats.total_time == cached.stats.total_time
    assert fresh.stats.total_time == tree.stats.total_time


def test_fallback_to_batch_for_indirect_index():
    """A written array indexed other than ``i + c`` (here a permutation
    scatter) is outside the codegen tier; the ladder must fall through
    to batch, which tracks the write hazards, and still agree with the
    tree walker."""
    src = """
    void main() {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) {
            out[perm[i]] = a[i] + a[0];
        }
    }
    """
    n = 64
    rng = np.random.default_rng(3)
    base = {
        "a": rng.standard_normal(n),
        "perm": rng.permutation(n).astype(np.int64),
        "out": np.zeros(n),
    }

    arrays_cg = {k: v.copy() for k, v in base.items()}
    ex, _ = _run(src, arrays_cg, {"n": n})
    assert ex._codegen_stats["ran"] == 0
    assert ex._batch_stats["batched"] == 1
    verdicts = list(ex._codegen_static_cache.values())
    assert verdicts and not verdicts[0].eligible
    assert "i + c" in verdicts[0].reason

    arrays_tree = {k: v.copy() for k, v in base.items()}
    _run(src, arrays_tree, {"n": n}, engine="tree")
    assert arrays_cg["out"].tobytes() == arrays_tree["out"].tobytes()


def test_engine_validation_lists_valid_engines():
    with pytest.raises(ValueError, match="codegen.*batch.*tree"):
        Executor(parse(KERNEL_SRC), Machine(), engine="warp")


def test_kernel_source_shows_generated_numpy():
    """The docs helper returns the emitted source for an eligible loop,
    including the dead-temp frees the performance model relies on."""
    from repro.minic import ast_nodes as ast
    from repro.minic.visitor import walk

    program = parse(KERNEL_SRC)
    loop = next(
        node
        for node in walk(program)
        if isinstance(node, ast.For)
        and any(
            isinstance(p, ast.OmpParallelFor)
            for p in getattr(node, "pragmas", [])
        )
    )
    src = codegen.kernel_source(loop, "")
    assert src.startswith("def __cg_kernel(")
    assert "rt.c_sqrt" in src
    assert "del " in src
    compile(src, "<kernel>", "exec")  # must be valid Python
