"""Codegen's loop shapes, checked against the tree walker.

Generated parallel loops built from the shapes codegen accepts (affine,
indirect and lane-invariant gathers, ``i + c`` writes, inner loops with
masked updates — lane-invariant ones and CSR-style ones whose bounds
or step vary by lane — inlined calls with early returns, and free
scalars updated once per lane by ``+=``) must run in the codegen tier
and match the tree walker's outputs, operation counters, simulated time
and scalars exactly.  Shapes codegen refuses must fall down the ladder
and still match — including a faulting lane, whose exact error and
partial writes the tree reproduces.  Integer results int64 cannot hold
make every engine defer to the tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.minic.parser import parse
from repro.runtime.codegen import _RT
from repro.runtime.executor import ExecutionStats, Executor, Machine

ENGINES = ("tree", "batch", "codegen")

#: Arrays this big (times the scale) are not cache-resident, so every
#: access site's class reaches the irregular-access counter.
SCALE = 1e5

FUNCTIONS = """
float f(float x, float s) {
    float t = x * 0.5;
    if (x < s) {
        return t * 2.0 + s;
    }
    if (t > 4.0) {
        return t;
    }
    return s - x;
}

int g(int y, int c) {
    int z = y * c;
    if (z > 10) {
        return z % 10;
    }
    return z + 1;
}

float h(float v, float s) {
    v = v * 2.0;
    if (v > s) {
        v = v - s;
    }
    return v + 1.0;
}
"""

#: Body statements over float ``x`` and int ``y``; ``{c}``/``{a}``/
#: ``{w}`` are filled per example.
STATEMENTS = (
    "x = x + a[i + {c}];",
    "x = x * 0.5 + a[{a} * i + {c}];",
    "x = x + a[b[i]];",
    "x = x + w[{w}];",
    "x = x - w[k];",
    "x = x + (i > {c} ? a[i - {c}] : s);",
    "if (x > s) {{ y = y + 1; x = x - 1.0; }} else {{ y = y - 1; }}",
    "for (int j = 0; j < m; j++) {{ x = x + w[j] * a[i]; if (x > s) {{ y = j; }} }}",
    "for (int r = {c}; r < 8; r += 2) {{ y = y + r; x = x * 0.75; }}",
    "for (int r = 0; r < m; r++) {{ x = x + f(a[i + {c}], s) * 0.25; }}",
    "x = f(x, s);",
    "for (int r = 0; r < m; r++) {{ x = x + h(a[i + {c}], s) * 0.5; }}",
    "x = h(x, s);",
    "y = y + g(y, {c});",
    "y = y + (int)(x * 4.0) % 5;",
    "out[i + off] = out[i + off] + x;",
    # CSR rows over ``rs`` (nondecreasing, with empty rows and one long
    # row): lane-varying bounds, a guard inside, a nested lane-varying
    # loop, a lane-varying step.
    "for (int j = rs[i]; j < rs[i + 1]; j++) {{ x = x + v[j] * a[col[j]]; }}",
    "for (int j = rs[i]; j < rs[i + 1]; j++) "
    "{{ if (v[j] > s) {{ y = y + 1; }} else {{ x = x - v[j] * 0.5; }} }}",
    "for (int j = rs[i]; j < rs[i + 1]; j++) "
    "{{ for (int r = j; r < rs[i + 1]; r++) {{ x = x + v[r] * 0.25; }} }}",
    "for (int j = rs[i]; j < rs[i + 1]; j += 1 + i % {a}) {{ x = x + v[j]; y = y + j; }}",
    # A lane-invariant init with a lane-varying condition, and a
    # condition on a local the body updates.
    "for (int j = 0; j < i % 5; j++) {{ x = x + w[j]; }}",
    "for (int j = {c}; j < 8 && x < s + 2.0; j++) {{ x = x + w[j] * 0.5 + 0.25; }}",
)

#: Free scalars updated once per lane, folded in lane order.
REDUCTIONS = (
    "total += x * 0.5;",
    "if (x > s) { hits += 1; }",
)


def _program(picks, reductions=()):
    body = "\n        ".join(STATEMENTS[k].format(**fill) for k, fill in picks)
    folds = "\n        ".join(REDUCTIONS[k] for k in reductions)
    return FUNCTIONS + f"""
void main() {{
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {{
        float x = a[i];
        int y = {len(picks)};
        {body}
        out[i + off] = out[i + off] + x;
        cnt[i] = y;
        {folds}
    }}
}}
"""


def _run(src, arrays, scalars, engine):
    arrays = {k: v.copy() for k, v in arrays.items()}
    executor = Executor(parse(src), Machine(scale=SCALE), engine=engine)
    try:
        result, error = executor.run(arrays=arrays, scalars=dict(scalars)), None
    except Exception as exc:  # compared across engines below
        result, error = None, (type(exc).__name__, str(exc))
    return executor, result, arrays, error


def _assert_same_as_tree(src, arrays, scalars, engines=ENGINES[1:]):
    """Run every engine; each must match the tree exactly.  Returns the
    executors by engine."""
    _, tree, tree_arrays, tree_error = _run(src, arrays, scalars, "tree")
    executors = {}
    for engine in engines:
        executor, result, out_arrays, error = _run(src, arrays, scalars, engine)
        executors[engine] = executor
        assert error == tree_error, engine
        for name, value in tree_arrays.items():
            assert out_arrays[name].tobytes() == value.tobytes(), (engine, name)
        if tree is not None:
            assert result.stats.ops.as_dict() == tree.stats.ops.as_dict(), engine
            assert result.stats.total_time == tree.stats.total_time, engine
            assert _scalars(result) == _scalars(tree), engine
    return executors


def _scalars(result):
    """Host scalars with their types (an ``np.float64`` binding must
    stay one)."""
    return {k: (type(v), repr(v)) for k, v in result.host.scalars.items()}


@st.composite
def _loops(draw):
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(STATEMENTS) - 1),
                st.fixed_dictionaries(
                    {
                        "c": st.integers(0, 3),
                        "a": st.integers(1, 3),
                        "w": st.integers(0, 7),
                    }
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    reductions = draw(st.lists(st.sampled_from(range(len(REDUCTIONS))), unique=True))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    fdtype = draw(st.sampled_from([np.float64, np.float32]))
    size = 4 * n + 16
    # CSR row starts: short rows (some empty) and one long row.
    lengths = rng.integers(0, 4, n)
    lengths[draw(st.integers(0, n - 1))] = draw(st.integers(0, 24))
    rs = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    nnz = max(int(rs[-1]), 1)
    arrays = {
        "a": rng.uniform(-4.0, 4.0, size).astype(fdtype),
        "b": rng.integers(0, size, n).astype(np.int32),
        "w": rng.uniform(-2.0, 2.0, 8),
        "out": rng.uniform(-1.0, 1.0, n + 4).astype(fdtype),
        "cnt": np.zeros(n, dtype=draw(st.sampled_from([np.int32, np.int64]))),
        "rs": rs,
        "v": rng.uniform(-2.0, 2.0, nnz).astype(fdtype),
        "col": rng.integers(0, size, nnz).astype(np.int32),
    }
    total = draw(st.floats(-3.0, 3.0, allow_nan=False))
    scalars = {
        "n": n,
        "k": draw(st.integers(0, 7)),
        "m": draw(st.integers(0, 8)),
        "off": draw(st.integers(0, 4)),
        "s": draw(st.floats(-3.0, 3.0, allow_nan=False)),
        "total": draw(st.sampled_from([float, np.float64]))(total),
        "hits": draw(st.integers(-5, 5)),
    }
    return _program(picks, reductions), arrays, scalars


@settings(max_examples=80, deadline=None)
@given(_loops())
def test_generated_loops_run_in_codegen_and_match_tree(case):
    src, arrays, scalars = case
    executors = _assert_same_as_tree(src, arrays, scalars, engines=("codegen",))
    stats = executors["codegen"]._codegen_stats
    assert stats["ran"] == 1, executors["codegen"]._codegen_rejections


def _arrays(n=32, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "a": rng.standard_normal(n + 8),
        "idx": rng.integers(0, n, n).astype(np.int64),
        "out": np.zeros(n + 8),
        "cnt": np.zeros(n, dtype=np.int32),
    }


def _loop(body, prelude=""):
    return f"""
void main() {{
    {prelude}
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {{
        {body}
    }}
}}
"""


@pytest.mark.parametrize(
    "body, reason",
    [
        ("out[i] = out[i + 1] + a[i];", "i + c"),
        ("out[i] = a[i]; out[i + 1] = a[i];", "i + c"),
        ("out[idx[i]] = a[i];", "i + c"),
        ("total = total + a[i];", "non-local 'total'"),
        # bfs's counter: updated several times per lane, interleaved
        # with other lanes' updates in vector order.
        (
            "for (int e = 0; e < 4; e++) { if (idx[i] > e) { found += 1; } }",
            "reduction into 'found' inside an inner loop",
        ),
        # The tree truncates an int accumulator after every update.
        ("found += a[i];", "non-local 'found'"),
        ("total += a[i]; out[i] = total;", "non-local 'total'"),
        # The header reads the accumulator: the tree's bound shrinks.
        ("n -= 1; out[i] = 1.0;", "non-local 'n'"),
        ("total += a[i]; total -= out[i];", "non-local 'total'"),
    ],
)
def test_refused_shapes_fall_through_and_match_tree(body, reason):
    src = _loop(body, prelude="float total = 0.0; int found = 0;")
    executors = _assert_same_as_tree(src, _arrays(), {"n": 32})
    codegen = executors["codegen"]
    assert codegen._codegen_stats["ran"] == 0
    (verdict,) = codegen._codegen_static_cache.values()
    assert reason in verdict.reason
    assert any(reason in r for r in codegen._codegen_rejections)


@pytest.mark.parametrize(
    "body",
    [
        # A lane-varying trip count runs under a live mask.
        "float s = 0.0;"
        " for (int j = 0; j < idx[i] % 4; j++) { s = s + a[j]; }"
        " out[i] = s;",
        # CG's SpMV row, its dot product, and a guarded counter.
        "float sum = 0.0;"
        " for (int j = idx[i] % 8; j < idx[i] % 8 + i % 3; j++) { sum += a[j] * a[idx[j]]; }"
        " out[i] = sum;",
        "total += a[i] * out[i];",
        "if (a[i] > 0.0) { found += 1; } total -= a[i];",
    ],
)
def test_accepted_shapes_run_in_codegen_and_match_tree(body):
    # File-scope accumulators: the fold writes back to the host root.
    src = _loop(body) + "float total = 0.5;\nint found = 3;\n"
    executors = _assert_same_as_tree(src, _arrays(), {"n": 32})
    assert executors["codegen"]._codegen_stats["ran"] == 1


#: Sites the tree classifies at a lane that reaches them later in vector
#: order: inside an inner loop, and in a function inlined at two calls.
LANE_ORDER_SITES = [
    _loop(
        "float x = 0.0;"
        " for (int j = 0; j < 4; j++) { if (j >= 3 - i) { x = x + w[i * j]; } }"
        " out[i] = x;"
    ),
    "float f(int y) { return w[y / 2]; }\n"
    + _loop("float x = 0.0; if (i > 2) { x = f(i); } x = x + f(i * 2); out[i] = x;"),
]


@pytest.mark.parametrize("engine", ["batch", "codegen"])
@pytest.mark.parametrize("src", LANE_ORDER_SITES, ids=["inner-loop", "inlined-twice"])
def test_site_class_follows_the_tree_lane_order(src, engine):
    arrays = {"w": np.arange(64.0), "out": np.zeros(8)}
    executors = _assert_same_as_tree(src, arrays, {"n": 8}, engines=(engine,))
    stats = executors[engine]._collect_stats()
    assert stats.engine_loops[engine] == 1
    assert stats.ops.irregular_accesses == 0


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from("+-"),
    st.integers(0, 100_000),
    st.integers(0, 2**31 - 1),
    st.booleans(),
)
def test_fold_is_the_sequential_update_bit_for_bit(op, length, seed, masked):
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], length) * 10.0 ** rng.uniform(-30, 30, length)
    mask = rng.random(length) < 0.5 if masked else None
    acc = float(rng.standard_normal())
    active = values if mask is None else values[mask]
    want = acc
    for value in active.tolist():
        want = want + value if op == "+" else want - value
    got = _RT.fold(op, acc, values, mask, len(active))
    assert type(got) is float
    assert got.hex() == want.hex()


def test_out_of_range_active_lane_reproduces_tree_error():
    """A gather whose active lane is out of range bails; the tree raises
    its exact error after the writes of every earlier lane."""
    arrays = _arrays()
    arrays["idx"][5] = 10_000
    src = _loop("out[i] = a[idx[i]] + 1.0;")
    executors = _assert_same_as_tree(src, arrays, {"n": 32})
    _, _, partial, error = _run(src, arrays, {"n": 32}, "codegen")
    assert error[0] == ExecutionError.__name__
    assert "10000" in error[1]
    assert np.count_nonzero(partial["out"][:5]) == 5
    assert not partial["out"][5:].any()
    assert executors["codegen"]._codegen_stats["fallback"] == 1


def test_reassigned_parameter_in_inner_loop():
    """An inlined function that assigns its parameter, called in an inner
    loop: the parameter's copy is bound on every iteration."""
    src = """
    float h(float v) {
        v = v * 2.0;
        return v + 1.0;
    }
    """ + _loop(
        "float acc = 0.0;"
        " for (int r = 0; r < m; r++) { acc = acc + h(a[i]); }"
        " out[i] = acc;"
    )
    executors = _assert_same_as_tree(src, _arrays(), {"n": 32, "m": 3})
    assert executors["codegen"]._codegen_stats["ran"] == 1


def test_masked_off_lane_never_faults():
    """hotspot's guard: the out-of-range neighbour is masked off."""
    src = _loop("out[i] = i - 4 >= 0 ? a[i - 4] : a[i];")
    executors = _assert_same_as_tree(src, _arrays(), {"n": 32})
    assert executors["codegen"]._codegen_stats["ran"] == 1


def test_recursion_is_refused():
    src = """
    int fact(int k) {
        if (k < 2) {
            return 1;
        }
        return k * fact(k - 1);
    }
    """ + _loop("cnt[i] = fact(i % 5);")
    executors = _assert_same_as_tree(src, _arrays(), {"n": 32})
    (verdict,) = executors["codegen"]._codegen_static_cache.values()
    assert "recursive call to fact()" in verdict.reason


OVERFLOW_PROGRAMS = [
    "C[i] = i * 100000000000;",
    "B[i] = (i + 1) * 5000000000 * 5000000000;",
    "int big = (i + 1) * 4000000000; int sq = big * big; B[i] = sq / 1000000;",
]


@pytest.mark.parametrize("body", OVERFLOW_PROGRAMS)
def test_integer_overflow_defers_to_tree(body):
    """int64 lanes must never wrap where the tree's Python integers do
    not: every engine gives the tree's exact values, or its exact error
    and partial writes."""
    arrays = {"C": np.zeros(16, dtype=np.int32), "B": np.zeros(16)}
    executors = _assert_same_as_tree(_loop(body), arrays, {"n": 16})
    assert executors["codegen"]._codegen_stats["ran"] == 0
    assert executors["batch"]._batch_stats["batched"] == 0


def test_store_that_fits_runs_vectorized():
    arrays = {"C": np.zeros(16, dtype=np.int32), "B": np.zeros(16)}
    src = _loop("C[i] = i * 100000; B[i] = i * 3000000000;")
    executors = _assert_same_as_tree(src, arrays, {"n": 16})
    assert executors["codegen"]._codegen_stats["ran"] == 1
    assert executors["batch"]._batch_stats["batched"] == 1


def test_engagement_on_execution_stats():
    """Loops per tier and codegen's rejection reasons reach the result,
    but never its equality."""
    src = """
    void main() {
        #pragma omp parallel for
        for (int i = 0; i < n; i++) { out[i] = a[i] * 2.0; }
        #pragma omp parallel for
        for (int i = 1; i < n; i++) { out[i] = out[i - 1] + a[i]; }
    }
    """
    stats = {}
    for engine in ENGINES:
        _, result, _, _ = _run(src, _arrays(), {"n": 32}, engine)
        stats[engine] = result.stats
    assert stats["codegen"].engine_loops == {"codegen": 1, "batch": 0, "tree": 1}
    assert stats["batch"].engine_loops == {"codegen": 0, "batch": 1, "tree": 1}
    assert stats["tree"].engine_loops == {"codegen": 0, "batch": 0, "tree": 2}
    (reason,) = stats["codegen"].codegen_rejections
    assert "i + c" in reason
    assert stats["tree"].codegen_rejections == {}
    assert stats["codegen"] == stats["tree"]
    assert ExecutionStats(engine_loops={"tree": 1}) == ExecutionStats()
