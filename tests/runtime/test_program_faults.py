"""Program faults raise ExecutionError on every engine.

A MiniC program that divides by zero, shifts by a negative count,
converts NaN or infinity to an int, indexes with NaN, overflows a math
builtin or stores a value its int32 array cannot hold is at fault, and
every failure of the toolchain is a ``ReproError``.  Each case runs
inside a parallel loop that faults at lane 3 after writing lanes 0-2:
all four engines raise the same ``ExecutionError`` and leave the same
partial writes, because the vector engines defer a faulting loop to
the scalar interpreter.  Assigning a scalar to a name bound to an array
is a fault too.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.faults.campaign import run_campaign
from repro.faults.policy import ResiliencePolicy
from repro.minic.parser import parse
from repro.runtime.executor import ENGINES, Executor, Machine, run_program

N = 8


def _inputs():
    ones = np.arange(N, dtype=np.float64) + 1.0

    def with_lane3(value):
        column = ones.copy()
        column[3] = value
        return column

    ints = np.arange(N, dtype=np.int32) + 1
    zero_i, neg_i = np.full(N, 5, dtype=np.int32), ints.copy()
    zero_i[3], neg_i[3] = 0, -2
    return {
        "F": ones,
        "BIG": with_lane3(1000.0),
        "NAN": with_lane3(np.nan),
        "INF": with_lane3(np.inf),
        "ZERO": with_lane3(0.0),
        "POW": with_lane3(400.0),
        "HUGE": with_lane3(1e12),
        "I": ints,
        "IZERO": zero_i,
        "INEG": neg_i,
        "OF": np.zeros(N, dtype=np.float64),
        "OI": np.zeros(N, dtype=np.int32),
    }


#: Loop body -> the ExecutionError message the fault raises.
CASES = {
    "OI[i] = (I[i] + 10) / IZERO[i];": "integer division by zero",
    "OF[i] = F[i] / ZERO[i];": "float division by zero",
    "OI[i] = (I[i] + 10) % IZERO[i];": "integer modulo by zero",
    "OI[i] = I[i] << INEG[i];": "negative shift count -2",
    "OI[i] = (int) NAN[i];": "int conversion of nan: cannot convert float NaN to integer",
    "OI[i] = (int) INF[i];": (
        "int conversion of inf: cannot convert float infinity to integer"
    ),
    "OF[i] = F[NAN[i]];": "bad index nan: cannot convert float NaN to integer",
    "OF[i] = floor(INF[i]);": (
        "math range error in floor: cannot convert float infinity to integer"
    ),
    "OF[i] = exp(BIG[i]);": "math range error in exp: math range error",
    "OF[i] = pow(10.0, POW[i]);": "math range error in pow: math range error",
    "OI[i] = HUGE[i];": (
        "int32 element cannot hold 1000000000000.0: "
        "Python integer 1000000000000 out of bounds for int32"
    ),
}


def _run(body: str, engine: str):
    source = (
        "void main() {\n#pragma omp parallel for\n"
        f"    for (int i = 0; i < {N}; i++) {{ {body} }}\n}}\n"
    )
    arrays = _inputs()
    with pytest.raises(ExecutionError) as excinfo:
        Executor(parse(source), Machine(), engine=engine).run(arrays=arrays)
    out = arrays["OI"] if body.startswith("OI") else arrays["OF"]
    partial = bool(np.all(out[:3] != 0) and np.all(out[3:] == 0))
    written = hashlib.sha256(arrays["OF"].tobytes() + arrays["OI"].tobytes())
    return str(excinfo.value), partial, written.hexdigest()


@pytest.mark.parametrize("body", list(CASES))
def test_fault_is_an_execution_error_on_every_engine(body):
    results = {engine: _run(body, engine) for engine in ENGINES}
    message, partial, written = results["tree"]
    assert message == CASES[body]
    assert partial, "lanes 0-2 are written, lanes 3+ are not"
    assert all(r == results["tree"] for r in results.values()), results


def test_overflowing_exp_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExecutionError, match="math range error in exp"):
            run_program("void main() { x = exp(1000.0); }", engine="tree")


@pytest.mark.parametrize("engine", ENGINES)
def test_assigning_a_scalar_to_a_host_array_raises(engine):
    arrays = {"A": np.arange(4.0)}
    with pytest.raises(ExecutionError, match="array 'A'"):
        run_program("void main() { A = 5; x = A[0]; }", arrays=arrays, engine=engine)
    assert arrays["A"].tolist() == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("engine", ENGINES)
def test_assigning_a_scalar_to_a_local_array_raises(engine):
    with pytest.raises(ExecutionError, match="array 'L'"):
        run_program("void main() { float L[4]; L = 5; x = L; }", engine=engine)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_campaign_records_a_corruption_crash():
    # Silent corruption with integrity checks off drives blackscholes'
    # exp() out of range; the scenario is booked as a crash rather than
    # ending the campaign.
    result = run_campaign(
        ["blackscholes"],
        scenarios=3,
        seed=0,
        rates={"h2d:silent": 0.5, "d2h:silent": 0.5, "kernel:sdc": 0.3},
        policy=ResiliencePolicy(integrity_mode="off"),
    )
    assert len(result.outcomes) == 3
    crashed = [o for o in result.outcomes if o.error is not None]
    assert crashed and all(o.ok for o in crashed)
    assert any("math range error in exp" in o.error for o in crashed)
