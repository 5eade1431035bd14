#!/usr/bin/env python3
"""qbsim benchmark: four figure-pipeline workloads, end to end and per layer.

Usage, from the root of a source checkout (qbsim is imported from ./src):

    python3 perfbench/run.py --workload {sweep,series,lindblad,spectral}
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload runs at least two timed passes, and more
while the next one should end within ``--seconds``, and reports the
end-to-end metrics:

- ``wall_s``: median wall time of a pass (a pass is the workload's set of
  operations, see workloads.py);
- ``ops_per_s``: median over passes of operations / pass wall time;
- ``peak_rss_mb``: peak resident memory of this process, plus, for
  ``sweep``, two workers times the largest worker's peak (getrusage);
- ``setup_s``: median over three interpreters (this one and two fresh
  ones) of imports, input generation, BLAS warm-up and the workload's
  warm-up calls.

With ``--trace 1`` it runs one untraced pass and then one traced pass
(see tracing.py) and reports the per-layer metrics, with
``trace.overhead_s`` = traced pass wall - untraced pass wall.

Every pass is graded outside its timer; ``attempted``/``failed`` count its
operations (their ratio is the error rate).  The last stdout line is the
result object; the line before it records the environment.  BLAS is
pinned to one thread before numpy loads, so the two sweep workers times
the BLAS threads stay within two cores.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "series", "lindblad", "spectral")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args):
    """Imports, input generation and warm-up; returns the workload."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import qbsim

    if Path(qbsim.__file__).resolve().parent != SRC / "qbsim":
        raise SystemExit(f"qbsim imported from {qbsim.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(254, 254))
    np.linalg.eigvalsh(a + a.T)
    b = rng.normal(size=(129, 129)) + 1j * rng.normal(size=(129, 129))
    for _ in range(3):
        b = b @ b / np.linalg.norm(b)
    workload.warm_up()
    return workload


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    from qbsim import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # a checkout without .git has no commit; src_sha256 still names the code
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            commit = git[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "kernels_compiled": bool(_kernels.USING_COMPILED),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS; None if none is loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb(workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process plus fresh interpreters doing the same set-up."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--small"] if args.small else [])
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_pass(workload, index: int, out_dir: Path, tracer=None):
    """One timed pass, traced if a tracer is given, graded outside the timer."""
    workload.prepare(index, out_dir)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        out = workload.run()
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = workload.check(out)
    return wall, attempted, failed, out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qbsim" / "__init__.py").is_file():
        print(f"no qbsim source tree at {SRC}", file=sys.stderr)
        return 2
    workload = setup(args)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(args.seed)
        env["workload"] = {"name": args.workload, **workload.describe()}
        print(json.dumps({"environment": env}), flush=True)
        if args.trace:
            result = traced_run(args, workload, out_dir)
        else:
            result = timed_run(args, workload, out_dir, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


def timed_run(args, workload, out_dir: Path, setup_s: float) -> dict:
    walls, rates, latencies = [], [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    # At least two passes; then another only while it should end within --seconds.
    while len(walls) < 2 or sum(walls) + statistics.median(walls) <= args.seconds:
        wall, att, fail, out = run_pass(workload, len(walls), out_dir)
        walls.append(wall)
        rates.append(att / wall)
        attempted += att
        failed += fail
        if hasattr(workload, "latencies"):
            latencies += workload.latencies(out)
        del out
    elapsed = time.perf_counter() - t0
    rss = peak_rss_mb(getattr(workload, "n_workers", 0))
    setups = setup_samples(args, setup_s)
    summary = {"passes": len(walls), "elapsed_s": elapsed, "pass_walls_s": walls,
               "setup_samples_s": setups}
    if len(latencies) >= 1000:
        q = statistics.quantiles(latencies, n=100)
        summary.update(op_p50_ms=1e3 * q[49], op_p99_ms=1e3 * q[98], ops_timed=len(latencies))
    print(json.dumps({"summary": summary}), flush=True)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (rss, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return _result(attempted, failed, metrics)


def traced_run(args, workload, out_dir: Path) -> dict:
    import tracing

    wall_u, att_u, fail_u, _ = run_pass(workload, 0, out_dir)
    tracer = tracing.Tracer(out_dir / "spool")
    wall_t, att_t, fail_t, _ = run_pass(workload, 1, out_dir, tracer)
    tracer.collect()
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    values = tracer.metrics()
    values["trace.overhead_s"] = wall_t - wall_u
    metrics = {name: (values[name], units[name]) for name in units}
    return _result(att_u + att_t, fail_u + fail_t, metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
