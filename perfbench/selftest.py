#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at reduced sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--small`` once untraced and once traced, and
checks that the result line has the contract's keys, that every metric
named in BENCHMARK.json is emitted with its unit (and no other), that no
operation failed, and that each layer's self time is at most its busy
time.  It also checks that the benchmark refuses to run, without printing
a result, in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


# Per-layer counts each workload must drive above zero; for sweep this
# proves that spans from the forked workers were collected.
EXPECT_NONZERO = {
    "sweep": ("thermo.sweep.cells", "thermo.ergotropy_trace.calls", "kernels.rk4_schrodinger.steps"),
    "series": ("cli.run_reproduce.calls", "cli.bytes_written", "dynamics.evolve.calls"),
    "lindblad": ("lindblad.lindblad_evolve.calls", "kernels.rk4_lindblad.steps", "lindblad.samples_mb"),
    "spectral": ("spectral.find_bound_states.calls", "spectral.branch_cut_integral.calls"),
}


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_result(proc, expected: dict, label: str) -> dict:
    require(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    require(result["correct"] is True and result["failed"] == 0, f"{label}: {result}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, label)
    metrics = result["metrics"]
    require(set(metrics) == set(expected), f"{label}: {set(metrics) ^ set(expected)}")
    for name, unit in expected.items():
        require(metrics[name]["unit"] == unit, f"{label}: {name} unit {metrics[name]['unit']} != {unit}")
        require(isinstance(metrics[name]["value"], (int, float)), f"{label}: {name}")
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER),
            "BENCHMARK.json per_layer differs from tracing.PER_LAYER")

    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "1", "--seconds", "1", "--small"]
        metrics = check_result(run(base + ["--trace", "0"]), end_to_end, f"{workload} trace 0")
        for name, m in metrics.items():
            require(m["value"] > 0, f"{workload}: {name} = {m['value']}")
        metrics = check_result(run(base + ["--trace", "1"]), per_layer, f"{workload} trace 1")
        for name in metrics:
            if name.endswith(".self_s"):
                busy = metrics[name[: -len("self_s")] + "busy_s"]["value"]
                require(metrics[name]["value"] <= busy + 1e-9, f"{workload}: {name} > busy")
        for name in EXPECT_NONZERO[workload]:
            require(metrics[name]["value"] > 0, f"{workload}: {name} is 0")
        print(f"ok {workload}")

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        require(proc.returncode != 0 and '"metrics"' not in proc.stdout, "ran without a source tree")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("ok bare checkout refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
