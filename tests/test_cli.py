"""Tests for the command-line interface and the package-level API."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import optimize_source, run_source
from repro.cli import main

SOURCE = """
void main() {
#pragma offload target(mic:0) in(A : length(n)) in(n) out(B : length(n))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        B[i] = A[i] * 2.0;
    }
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


class TestPackageApi:
    def test_optimize_source_returns_streamed_text(self):
        optimized = optimize_source(SOURCE)
        assert "offload_transfer" in optimized
        assert "signal(0)" in optimized

    def test_run_source(self):
        result = run_source(
            SOURCE,
            arrays={
                "A": np.arange(16, dtype=np.float32),
                "B": np.zeros(16, dtype=np.float32),
            },
            scalars={"n": 16},
        )
        assert np.array_equal(result.array("B"), np.arange(16) * 2.0)

    def test_version(self):
        import repro

        assert repro.__version__

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestCompileCommand:
    def test_compile_prints_transformed(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "offload_transfer" in out

    def test_compile_report_flag(self, source_file, capsys):
        main(["compile", source_file, "--report"])
        out = capsys.readouterr().out
        assert "// data-streaming: applied" in out

    def test_compile_disable_streaming(self, source_file, capsys):
        main(["compile", source_file, "--no-streaming"])
        out = capsys.readouterr().out
        assert "offload_transfer" not in out

    def test_compile_blocks_option(self, source_file, capsys):
        main(["compile", source_file, "--blocks", "7"])
        out = capsys.readouterr().out
        assert "__nblocks = 7" in out


class TestRunCommand:
    def test_run_reports_stats(self, source_file, capsys):
        code = main([
            "run", source_file,
            "--array", "A=64",
            "--array", "B=64:float:zeros",
            "--scalar", "n=64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated time" in out
        assert "kernel launches" in out

    def test_run_reports_engine_engagement(self, tmp_path, capsys):
        path = tmp_path / "two.c"
        path.write_text(
            """
            void main() {
            #pragma omp parallel for
                for (int i = 0; i < n; i++) { B[i] = A[i] * 2.0; }
            #pragma omp parallel for
                for (int i = 1; i < n; i++) { B[i] = B[i - 1] + A[i]; }
            }
            """
        )
        args = [
            "run", str(path),
            "--array", "A=64", "--array", "B=64:float:zeros", "--scalar", "n=64",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "parallel loops      codegen 1  batch 0  tree 1" in out
        assert "codegen rejected         1  dynamic: written array 'B'" in out
        assert main(args + ["--engine", "tree"]) == 0
        out = capsys.readouterr().out
        assert "parallel loops      codegen 0  batch 0  tree 2" in out
        assert "codegen rejected" not in out

    def test_run_print_array(self, source_file, capsys):
        main([
            "run", source_file,
            "--array", "A=8:float:arange",
            "--array", "B=8:float:zeros",
            "--scalar", "n=8",
            "--print-array", "B",
        ])
        out = capsys.readouterr().out
        assert "B[:8]" in out
        assert "14." in out  # 7 * 2

    def test_run_optimized(self, source_file, capsys):
        code = main([
            "run", source_file, "--optimize",
            "--array", "A=64:float:ones",
            "--array", "B=64:float:zeros",
            "--scalar", "n=64",
        ])
        assert code == 0

    def test_bad_array_spec(self, source_file):
        with pytest.raises(SystemExit):
            main(["run", source_file, "--array", "A"])

    def test_bad_array_kind(self, source_file):
        with pytest.raises(SystemExit):
            main(["run", source_file, "--array", "A=8:float:fibonacci"])

    def test_bad_scalar_spec(self, source_file):
        with pytest.raises(SystemExit):
            main(["run", source_file, "--scalar", "n"])


class TestRunErrors:
    """``repro run`` reports a program error on one line, exit status 1."""

    def run_cli(self, tmp_path, source, *extra):
        path = tmp_path / "prog.c"
        path.write_text(source)
        # The child imports the same package this process imported.
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(path), *extra],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr + proc.stdout
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_parse_error(self, tmp_path):
        line = self.run_cli(tmp_path, "void main() { x = ; }")
        assert "line 1" in line

    def test_index_out_of_range(self, tmp_path):
        line = self.run_cli(
            tmp_path,
            "void main() { for (int i = 0; i <= n; i++) { A[i] = 1.0; } }",
            "--array", "A=4:float:zeros", "--scalar", "n=4",
        )
        assert line == "error: index 4 out of range for array of 4"

    def test_missing_transfer(self, tmp_path):
        line = self.run_cli(
            tmp_path,
            "void main() {\n"
            "#pragma offload target(mic:0) in(n) out(B : length(n))\n"
            "#pragma omp parallel for\n"
            "    for (int i = 0; i < n; i++) { B[i] = A[i]; }\n}\n",
            "--array", "A=4:float:ones", "--array", "B=4:float:zeros",
            "--scalar", "n=4",
        )
        assert "never transferred" in line and "'A'" in line


class TestBenchCommand:
    def test_bench_single(self, capsys):
        assert main(["bench", "nn"]) == 0
        out = capsys.readouterr().out
        assert "nn" in out
        assert "ok" in out
        assert "parallel loops      codegen 134  batch 0  tree 0" in out

    def test_bench_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["bench", "nosuchbenchmark"])

    def test_bench_seed_flag(self, capsys):
        assert main(["bench", "nn", "--seed", "3"]) == 0
        assert "nn" in capsys.readouterr().out


class TestFaultsCommand:
    def test_campaign_contract_holds(self, capsys):
        code = main(["faults", "blackscholes", "--scenarios", "2", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 2 scenarios" in out
        assert "VIOLATION" not in out

    def test_summary_json(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "faults.json"
        code = main([
            "faults", "blackscholes",
            "--scenarios", "1", "--seed", "0", "--out", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["ok"] is True
        assert payload["seed"] == 0
        assert len(payload["outcomes"]) == 1
        assert payload["outcomes"][0]["workload"] == "blackscholes"

    def test_rate_override(self, capsys):
        code = main([
            "faults", "blackscholes",
            "--scenarios", "1", "--seed", "1", "--rate", "h2d=0.5",
        ])
        assert code == 0
        assert "faults injected" in capsys.readouterr().out

    def test_bad_rate_spec(self):
        with pytest.raises(SystemExit):
            main(["faults", "blackscholes", "--rate", "pcie=0.5"])

    def test_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["faults", "nosuchbenchmark"])

    def test_policy_override_enables_device_resets(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "chaos.json"
        code = main([
            "faults", "blackscholes",
            "--scenarios", "2", "--seed", "3",
            "--rate", "device=0.1",
            "--policy", "checkpoint_interval=2",
            "--policy", "max_resets=64",
            "--out", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "VIOLATION" not in out
        payload = json.loads(out_file.read_text())
        assert payload["ok"] is True
        assert payload["policy"]["checkpoint_interval"] == 2
        assert payload["policy"]["max_resets"] == 64
        assert payload["totals"]["device_resets"] > 0
        assert payload["totals"]["host_fallbacks"] == 0
        assert "recovery_actions" in payload["totals"]

    def test_policy_override_backoff_max(self):
        code = main([
            "faults", "blackscholes",
            "--scenarios", "1", "--seed", "1",
            "--rate", "h2d=0.5",
            "--policy", "backoff_max=0.002",
        ])
        assert code == 0

    def test_policy_unknown_key_rejected(self):
        with pytest.raises(SystemExit, match="bad --policy spec"):
            main([
                "faults", "blackscholes",
                "--scenarios", "1", "--policy", "retry_budget=3",
            ])

    def test_policy_bad_value_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "faults", "blackscholes",
                "--scenarios", "1", "--policy", "checkpoint_interval=lots",
            ])

    def test_policy_missing_value_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "faults", "blackscholes",
                "--scenarios", "1", "--policy", "checkpoint_interval",
            ])

    def test_policy_invalid_combination_rejected(self):
        # backoff_max below backoff_base fails ResiliencePolicy validation.
        with pytest.raises(SystemExit, match="bad --policy combination"):
            main([
                "faults", "blackscholes",
                "--scenarios", "1", "--policy", "backoff_max=0.000001",
            ])

    def test_device_rate_requires_checkpointing(self):
        with pytest.raises(SystemExit, match="checkpoint_interval"):
            main([
                "faults", "blackscholes",
                "--scenarios", "1", "--rate", "device=0.1",
            ])

    @pytest.mark.parametrize("key", ["dev0:h2d", "dev0:h2d:silent"])
    def test_device_scoped_rate_rejected_on_one_card(self, key):
        """A one-card run draws without a device index, so a ``devK:``
        key would silently inject nothing: reject it, on the CLI and on
        the service path alike."""
        from repro.service.jobs import JobSpec, execute_job

        message = f"'{key}'.*drop the 'dev0:' prefix"
        with pytest.raises(SystemExit, match=message):
            main([
                "faults", "blackscholes",
                "--scenarios", "1", "--rate", f"{key}=0.5",
            ])
        spec = JobSpec(
            kind="faults", workload="blackscholes", rates=((key, 0.5),)
        )
        with pytest.raises(ValueError, match=message):
            execute_job(spec.as_dict())

    def test_list_sites_prints_taxonomy(self, capsys):
        code = main(["faults", "--list-sites"])
        assert code == 0
        out = capsys.readouterr().out
        for needle in (
            "h2d:silent", "d2h:silent", "kernel:sdc",
            "bitflip", "silent", "announced", "reset",
        ):
            assert needle in out

    def test_silent_rate_keys_accepted(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "integrity.json"
        code = main([
            "faults", "blackscholes",
            "--scenarios", "1", "--seed", "3",
            "--rate", "h2d:silent=0.1",
            "--rate", "kernel:sdc=0.05",
            "--policy", "integrity_mode=full",
            "--policy", "checkpoint_interval=2",
            "--out", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "silent corruption:" in out
        payload = json.loads(out_file.read_text())
        assert payload["policy"]["integrity_mode"] == "full"
        totals = payload["totals"]
        assert totals["sdc_escapes"] == 0
        assert "coverage" in totals

    def test_bad_silent_rate_kind_rejected(self):
        with pytest.raises(SystemExit, match="bad --rate spec"):
            main(["faults", "blackscholes", "--rate", "h2d:sdc=0.5"])

    def test_bad_integrity_mode_rejected(self):
        with pytest.raises(SystemExit, match="bad --policy combination"):
            main([
                "faults", "blackscholes",
                "--scenarios", "1", "--policy", "integrity_mode=paranoid",
            ])


class TestRunFaultInjection:
    def test_inject_faults_reports_stats(self, source_file, capsys):
        code = main([
            "run", source_file, "--inject-faults", "--seed", "7",
            "--array", "A=64:float:ones",
            "--array", "B=64:float:zeros",
            "--scalar", "n=64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "recovery time" in out


class TestTraceCommand:
    ARGS = [
        "--array", "A=256:float:ones",
        "--array", "B=256:float:zeros",
        "--scalar", "n=256",
    ]

    def _validate(self, path):
        import json

        from repro.obs.export import validate_chrome_trace

        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload["traceEvents"]) == []
        return payload

    def test_trace_writes_valid_chrome_trace(self, source_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "trace", source_file, *self.ARGS,
            "--optimize", "--out", str(out), "--check",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "makespan" in stdout
        assert "trace schema check: ok" in stdout
        payload = self._validate(out)
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert "X" in phases and "M" in phases

    def test_trace_metrics_snapshot(self, source_file, tmp_path):
        import json

        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main([
            "trace", source_file, *self.ARGS,
            "--seed", "5", "--out", str(out), "--metrics", str(metrics),
        ])
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["provenance"]["seed"] == 5
        assert payload["counters"]["coi.kernel_launches"] >= 1
        assert payload["counters"]["coi.bytes_to_device"] > 0

    def test_trace_flamegraph_output(self, source_file, tmp_path):
        flame = tmp_path / "flame.txt"
        code = main([
            "trace", source_file, *self.ARGS,
            "--out", str(tmp_path / "trace.json"), "--flame", str(flame),
        ])
        assert code == 0
        lines = flame.read_text().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_run_trace_flag(self, source_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "run", source_file, *self.ARGS, "--trace", str(out),
        ])
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        self._validate(out)

    def test_bench_trace_flag(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["bench", "nn", "--trace", str(out)]) == 0
        assert "trace written" in capsys.readouterr().out
        payload = self._validate(out)
        # one pid per (workload, variant) run, merged into one file
        pids = {
            e["pid"] for e in payload["traceEvents"] if e["ph"] != "M"
        }
        assert len(pids) > 1

    def test_faults_trace_flag(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "faults", "blackscholes", "--scenarios", "2", "--seed", "0",
            "--trace", str(out),
        ])
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        self._validate(out)


class TestTuneCommand:
    def test_tune_prints_model_choice(self, source_file, capsys):
        code = main([
            "tune", source_file,
            "--array", "A=256:float:ones",
            "--array", "B=256:float:zeros",
            "--scalar", "n=256",
            "--scale", "20000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "N* =" in out
        assert "profiled D=" in out
        assert "offload_transfer" in out


class TestParserEntry:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_stdin_source(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SOURCE))
        assert main(["compile", "-"]) == 0
        assert "offload" in capsys.readouterr().out


class TestValidationErrorPaths:
    """Every rejected invocation must name the offending flag."""

    def test_invalid_engine_names_flag(self, source_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", source_file, "--engine", "warp"])
        assert "--engine" in capsys.readouterr().err

    def test_run_devices_zero_names_flag(self, source_file):
        with pytest.raises(SystemExit, match="--devices"):
            main([
                "run", source_file, "--devices", "0",
                "--array", "A=8", "--array", "B=8:float:zeros",
                "--scalar", "n=8",
            ])

    def test_bench_devices_zero_names_flag(self):
        with pytest.raises(SystemExit, match="--devices"):
            main(["bench", "blackscholes", "--devices", "0"])

    def test_faults_devices_zero_names_flag(self):
        with pytest.raises(SystemExit, match="--devices"):
            main(["faults", "blackscholes", "--devices", "0"])

    def test_faults_jobs_zero_names_flag(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["faults", "blackscholes", "--jobs", "0"])

    def test_unknown_policy_key_names_flag(self):
        with pytest.raises(SystemExit, match="--policy"):
            main(["faults", "blackscholes", "--policy", "warp_speed=9"])

    def test_bench_trace_with_jobs_names_both_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="--trace requires --jobs 1"):
            main([
                "bench", "blackscholes", "--jobs", "2",
                "--trace", str(tmp_path / "t.json"),
            ])

    def test_faults_trace_with_jobs_names_both_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="--trace requires --jobs 1"):
            main([
                "faults", "blackscholes", "--jobs", "2",
                "--trace", str(tmp_path / "t.json"),
            ])

    def test_bad_array_spec_names_spec(self, source_file):
        with pytest.raises(SystemExit, match="bad --array spec"):
            main(["run", source_file, "--array", "A=lots"])

    def test_bad_scalar_spec_names_spec(self, source_file):
        with pytest.raises(SystemExit, match="bad --scalar spec"):
            main(["run", source_file, "--scalar", "n=eight"])


#: Malformed inputs: (CLI flags, JobSpec/TraceSpec fields, flag named).
#: Rate, policy and device rows reach every entry point that takes
#: those flags; array rows reach ``run``, ``submit --kind run`` and a
#: run JobSpec.
BAD_INPUTS = {
    "rate not a number": (["--rate", "h2d=abc"], {"rates": (("h2d", "abc"),)}, "--rate"),
    "unknown site": (["--rate", "bogus=0.1"], {"rates": (("bogus", 0.1),)}, "--rate"),
    "rate above one": (["--rate", "h2d=2.0"], {"rates": (("h2d", 2.0),)}, "--rate"),
    "device key on one card": (
        ["--rate", "dev0:h2d=0.1"], {"rates": (("dev0:h2d", 0.1),)}, "--rate",
    ),
    "unknown policy key": (
        ["--policy", "no_such_knob=1"], {"policy": (("no_such_knob", 1),)},
        "--policy",
    ),
    "bad policy value": (
        ["--policy", "checkpoint_interval=lots"],
        {"policy": (("checkpoint_interval", "lots"),)}, "--policy",
    ),
    "bad policy combination": (
        ["--policy", "backoff_max=0.000001"],
        {"policy": (("backoff_max", 0.000001),)}, "--policy",
    ),
    "unknown dtype": (["--array", "A=4:quad"], {"arrays": ("A=4:quad",)}, "--array"),
    "negative size": (
        ["--array", "A=-3:float:zeros"], {"arrays": ("A=-3:float:zeros",)},
        "--array",
    ),
    "no devices": (["--devices", "0"], {"devices": 0}, "--devices"),
}
ARRAY_ROWS = ("unknown dtype", "negative size")
FLEET_ROWS = [name for name in BAD_INPUTS if name not in ARRAY_ROWS]
RUN_ROWS = [*ARRAY_ROWS, "no devices"]


def _repro(*argv):
    """Run ``python -m repro`` in a child process on this package."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
    )


class TestMalformedInput:
    """Every entry point rejects each malformed input it accepts before
    any work starts: exit 1 with one line naming the flag, no traceback."""

    def assert_rejected_in_process(self, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str)  # printed to stderr, exit status 1
        assert flag in message and "\n" not in message

    def assert_rejected_in_child(self, flag, *argv):
        proc = _repro(*argv)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and flag in lines[0]

    @pytest.mark.parametrize("row", FLEET_ROWS)
    def test_faults(self, row, monkeypatch):
        import repro.faults

        flags, _, flag = BAD_INPUTS[row]
        monkeypatch.setattr(repro.faults, "run_campaign", None)  # never reached
        self.assert_rejected_in_process(
            ["faults", "nn", "--scenarios", "1", *flags], flag
        )

    @pytest.mark.parametrize("row", RUN_ROWS)
    def test_run(self, row, source_file, monkeypatch):
        import repro.cli

        flags, _, flag = BAD_INPUTS[row]
        monkeypatch.setattr(repro.cli, "Machine", None)  # never reached
        self.assert_rejected_in_process(
            ["run", source_file, "--scalar", "n=4", *flags], flag
        )

    @pytest.mark.parametrize("row", list(BAD_INPUTS))
    def test_submit(self, row, source_file):
        # Exit 1, not 69: the spec is rejected before any connection.
        flags, _, flag = BAD_INPUTS[row]
        if row in ARRAY_ROWS:
            job = ["--kind", "run", "--file", source_file]
        else:
            job = ["--kind", "faults", "--workload", "nn"]
        self.assert_rejected_in_child(flag, "submit", "--port", "1", *job, *flags)

    @pytest.mark.parametrize("row", FLEET_ROWS)
    def test_replay_trace(self, row):
        flags, _, flag = BAD_INPUTS[row]
        self.assert_rejected_in_child(
            flag, "replay-trace", "--requests", "2", *flags
        )

    @pytest.mark.parametrize("row", list(BAD_INPUTS))
    def test_job_spec_validate(self, row):
        from repro.service.jobs import JobSpec

        _, fields, flag = BAD_INPUTS[row]
        if row in ARRAY_ROWS:
            spec = JobSpec(kind="run", source=SOURCE, **fields)
        else:
            spec = JobSpec(kind="faults", workload="nn", **fields)
        with pytest.raises(ValueError, match=flag):
            spec.validate()

    @pytest.mark.parametrize("row", FLEET_ROWS)
    def test_trace_spec(self, row):
        from repro.service.traffic import TraceSpec

        _, fields, flag = BAD_INPUTS[row]
        with pytest.raises(ValueError, match=flag):
            TraceSpec(requests=2, **fields)


class TestFaultsExitCodes:
    def test_partial_campaign_exits_with_distinct_code(self, monkeypatch):
        from repro.cli import EXIT_PARTIAL
        from repro.faults import campaign
        from tests.integration.test_campaign_jobs import _CrashAfterOne

        monkeypatch.setattr(campaign, "_POOL_CLS", _CrashAfterOne)
        code = main([
            "faults", "blackscholes", "nn",
            "--scenarios", "2", "--seed", "7", "--jobs", "2",
        ])
        assert code == EXIT_PARTIAL == 3

    def test_complete_campaign_exits_zero(self, capsys):
        assert main([
            "faults", "blackscholes", "--scenarios", "1", "--seed", "7",
        ]) == 0


class TestServiceCommands:
    def test_submit_unreachable_service(self, capsys):
        from repro.cli import EXIT_UNAVAILABLE

        code = main([
            "submit", "--port", "1", "--kind", "bench",
            "--workload", "blackscholes", "--timeout", "2",
        ])
        assert code == EXIT_UNAVAILABLE == 69
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, not a traceback
        assert "127.0.0.1:1" in err
        assert "connection refused" in err

    def test_submit_retries_connection_refused(self, capsys):
        from repro.cli import EXIT_UNAVAILABLE

        code = main([
            "submit", "--port", "1", "--kind", "bench",
            "--workload", "blackscholes", "--timeout", "2",
            "--retries", "2", "--retry-base", "0.01",
        ])
        assert code == EXIT_UNAVAILABLE
        err = capsys.readouterr().err
        # Three attempts total: two bounded-backoff retries in between.
        assert err.count("connection refused") == 3
        assert err.count("retrying in") == 2
        assert "attempt 2/3" in err and "attempt 3/3" in err

    def test_submit_retries_honor_server_hint(self, monkeypatch, capsys):
        # A backpressure reject carries the server's deterministic
        # retry_after hint; the retry delay honors it when it exceeds
        # the exponential base.
        from repro.service import server as client

        outcomes = [
            [{"event": "rejected", "reason": "backpressure",
              "depth": 9, "retry_after": 0.02}],
            [{"event": "result", "result": {"ok": True}},
             {"event": "done", "ok": True}],
        ]
        monkeypatch.setattr(
            client, "submit", lambda *a, **k: outcomes.pop(0)
        )
        slept = []
        import time as _time
        monkeypatch.setattr(_time, "sleep", slept.append)
        code = main([
            "submit", "--kind", "bench", "--workload", "blackscholes",
            "--retries", "1", "--retry-base", "0.001",
        ])
        assert code == 0
        assert slept == [0.02]  # the hint won over 0.001 * 2^0
        assert "retrying in 0.020s" in capsys.readouterr().err

    def test_submit_retries_validation(self):
        with pytest.raises(SystemExit, match="--retries"):
            main(["submit", "--kind", "bench", "--workload", "blackscholes",
                  "--retries", "-1"])
        with pytest.raises(SystemExit, match="--retry-base"):
            main(["submit", "--kind", "bench", "--workload", "blackscholes",
                  "--retry-base", "0"])

    def test_submit_run_requires_file(self):
        with pytest.raises(SystemExit, match="--file"):
            main(["submit", "--kind", "run"])

    def test_submit_invalid_workload_rejected_client_side(self):
        with pytest.raises(SystemExit, match="workload"):
            main(["submit", "--kind", "bench", "--workload", "nope"])

    def test_serve_negative_workers(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--workers", "-1"])

    def test_serve_negative_grace_seconds(self):
        with pytest.raises(SystemExit, match="--grace-seconds"):
            main(["serve", "--grace-seconds", "-1"])

    def test_serve_sigterm_drains_and_exits_zero(self):
        # A real `repro serve` process must catch SIGTERM, drain, print
        # its final snapshot, and exit 0 — the contract init systems and
        # container runtimes rely on.
        import os
        import signal
        import subprocess
        import sys as _sys

        import repro

        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                _sys.executable, "-m", "repro", "serve",
                "--port", "0", "--grace-seconds", "5", "--final-stats",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "campaign service listening" in banner
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        except Exception:
            proc.kill()
            raise
        assert proc.returncode == 0
        assert "campaign service drained and stopped" in err
        snapshot = json.loads(out)
        assert snapshot["draining"] is True
        assert snapshot["supervisor"]["restarts"] == 0

    def test_replay_trace_writes_deterministic_summary(self, tmp_path, capsys):
        from repro.service.traffic import TraceSpec, save_trace_spec

        # A run-only spec keeps the test cheap; byte-determinism across
        # worker counts and classes is covered in tests/service/.
        spec_path = tmp_path / "spec.json"
        save_trace_spec(str(spec_path), TraceSpec(
            seed=11, requests=6, classes=(("run", 1.0),), base_rate=4.0,
        ))
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        argv = ["replay-trace", "--spec", str(spec_path), "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["schema"] == "repro.service.replay/1"
        out = capsys.readouterr().out
        assert "determinism digest" in out
        assert "replayed 6 arrivals" in out
