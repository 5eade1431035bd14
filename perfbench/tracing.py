"""Per-layer tracing for the traced benchmark run.

The wrappers live here, in the benchmark, not in the program: ``Tracer``
replaces each public function named in ``LAYERS`` with a timing wrapper in
every ``qbsim`` namespace that holds it.  ``cli`` and ``thermo`` import
names with ``from .x import f``, so patching only the defining module
would miss their calls; the kernels are looked up as ``_kernels.rk4_*``
at call time, so patching the package attribute catches them.

A span is one wrapped call.  Spans nest on a stack, so each layer gets
``calls``, ``busy_s`` (total span time) and ``self_s`` (busy time minus
the time covered by its child spans).  Hooks add counts taken from the
arguments or results, such as kernel steps.

Sweep cells run in forked worker processes, which inherit the installed
wrappers.  A worker resets the inherited state on its first span and
writes its totals to ``<spool>/<pid>.json`` each time its outermost span
ends; ``collect`` merges those files into the parent's totals.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# (metric prefix, defining module, attribute)
LAYERS = (
    ("kernels.rk4_schrodinger", "qbsim._kernels", "rk4_schrodinger"),
    ("kernels.rk4_lindblad", "qbsim._kernels", "rk4_lindblad"),
    ("dynamics.evolve", "qbsim.dynamics", "evolve"),
    ("lindblad.lindblad_evolve", "qbsim.lindblad", "lindblad_evolve"),
    ("thermo.sweep_ergotropy", "qbsim.thermo", "sweep_ergotropy"),
    ("thermo.ergotropy_trace", "qbsim.thermo", "ergotropy_trace"),
    ("spectral.find_bound_states", "qbsim.spectral", "find_bound_states"),
    ("spectral.branch_cut_integral", "qbsim.spectral", "branch_cut_integral"),
    ("spectral.long_time_probability", "qbsim.spectral", "long_time_probability"),
    ("model.atom_eigensystem_exact", "qbsim.model", "atom_eigensystem_exact"),
    ("analysis.fit_decay", "qbsim.analysis", "fit_decay"),
    ("cli.run_reproduce", "qbsim.cli", "run_reproduce"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _kernel_steps(n_sub_index):
    """Steps n_sub * (n_samples - 1) from a kernel's arguments."""

    def hook(tracer, prefix, args, kwargs, result):
        n_sub = _arg(args, kwargs, n_sub_index, "n_sub")
        n_samples = _arg(args, kwargs, n_sub_index + 1, "n_samples")
        tracer.add(prefix + ".steps", int(n_sub) * (int(n_samples) - 1))

    return hook


def _lindblad_samples(tracer, prefix, args, kwargs, result):
    # Computed size of the samples one call stores, nt * dim^2 complex128
    # values; the largest call counts.
    rho0 = _arg(args, kwargs, 0, "rho0")
    nt = len(_arg(args, kwargs, 1, "t_grid"))
    mib = nt * rho0.rho.shape[0] ** 2 * 16 / 2**20
    tracer.counters["lindblad.samples_mb"] = max(tracer.counters.get("lindblad.samples_mb", 0.0), mib)


def _sweep_result(tracer, prefix, args, kwargs, result):
    n_workers = kwargs.get("n_workers")
    tracer.add("thermo.sweep.cells", int(result.w_max.size))
    tracer.add("thermo.sweep.failed_cells", len(result.errors))
    tracer.counters["thermo.sweep.n_workers"] = n_workers or os.cpu_count() or 1


def _bytes_written(tracer, prefix, args, kwargs, result):
    out_dir = Path(_arg(args, kwargs, 1, "out_dir"))
    figure_id = _arg(args, kwargs, 0, "figure_id")
    names = list(result.get("files", [])) + [f"{figure_id}_summary.json"]
    tracer.add("cli.bytes_written", sum((out_dir / n).stat().st_size for n in names))


HOOKS = {
    "kernels.rk4_schrodinger": _kernel_steps(7),
    "kernels.rk4_lindblad": _kernel_steps(6),
    "lindblad.lindblad_evolve": _lindblad_samples,
    "thermo.sweep_ergotropy": _sweep_result,
    "cli.run_reproduce": _bytes_written,
}


class Tracer:
    """Span totals per layer plus counters, for one traced pass."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.root_pid = os.getpid()
        self._reset()
        self._patched: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stats: dict[str, list[float]] = {}  # prefix -> [calls, busy_s, self_s]
        self.counters: dict[str, float] = {}
        self.stack: list[list[float]] = []  # child time covered, per open span

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, prefix: str, fn):
        hook = HOOKS.get(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                self._reset()  # first span in a forked worker
            frame = [0.0]
            self.stack.append(frame)
            returned = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                dur = time.perf_counter() - t0
                self.stack.pop()
                st = self.stats.setdefault(prefix, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if self.stack:
                    self.stack[-1][0] += dur
                if returned and hook is not None:
                    hook(self, prefix, args, kwargs, result)
                if not self.stack and self.pid != self.root_pid:
                    self._write_spool()
            return result

        return wrapper

    def _write_spool(self) -> None:
        path = self.spool / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats, "counters": self.counters}))
        os.replace(tmp, path)

    def install(self) -> None:
        """Wrap every LAYERS function in every qbsim namespace that holds it."""
        self.spool.mkdir(parents=True, exist_ok=True)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qbsim" or name.startswith("qbsim."))]
        for prefix, module_name, attr in LAYERS:
            orig = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(prefix, orig)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, name, wrapped)
                        self._patched.append((module, name, orig))

    def uninstall(self) -> None:
        for module, name, orig in reversed(self._patched):
            setattr(module, name, orig)
        self._patched.clear()

    def collect(self) -> None:
        """Merge the totals that forked workers wrote to the spool."""
        for path in sorted(self.spool.glob("*.json")):
            data = json.loads(path.read_text())
            for prefix, (calls, busy, self_s) in data["stats"].items():
                st = self.stats.setdefault(prefix, [0, 0.0, 0.0])
                st[0] += calls
                st[1] += busy
                st[2] += self_s
            for key, value in data["counters"].items():
                self.add(key, value)

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_s; zero for an unused layer."""

        def st(prefix):
            return self.stats.get(prefix, [0, 0.0, 0.0])

        out: dict[str, float] = {}
        for prefix, _, _ in LAYERS:
            calls, busy, self_s = st(prefix)
            out[prefix + ".calls"] = int(calls)
            out[prefix + ".busy_s"] = busy
            out[prefix + ".self_s"] = self_s
        for prefix in ("kernels.rk4_schrodinger", "kernels.rk4_lindblad"):
            steps = int(self.counters.get(prefix + ".steps", 0))
            busy = st(prefix)[1]
            out[prefix + ".steps"] = steps
            out[prefix + ".steps_per_s"] = steps / busy if busy > 0 else 0.0
        out["lindblad.samples_mb"] = float(self.counters.get("lindblad.samples_mb", 0.0))
        out["thermo.sweep.cells"] = int(self.counters.get("thermo.sweep.cells", 0))
        out["thermo.sweep.failed_cells"] = int(self.counters.get("thermo.sweep.failed_cells", 0))
        # Share of the workers' wall time spent inside cells: every
        # ergotropy_trace call of a sweep is one cell.
        sweep_busy = st("thermo.sweep_ergotropy")[1]
        workers = self.counters.get("thermo.sweep.n_workers", 1)
        out["thermo.sweep.parallel_efficiency"] = (
            st("thermo.ergotropy_trace")[1] / (workers * sweep_busy) if sweep_busy > 0 else 0.0
        )
        out["cli.bytes_written"] = int(self.counters.get("cli.bytes_written", 0))
        return {name: out[name] for name, _, _ in PER_LAYER if name in out}


def _layer(prefix: str, *fields: str) -> list[tuple[str, str, str]]:
    units = {"calls": ("count", "lower"), "busy_s": ("s", "lower"), "self_s": ("s", "lower"),
             "steps": ("count", "lower"), "steps_per_s": ("1/s", "higher")}
    return [(f"{prefix}.{f}",) + units[f] for f in fields]


#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    _layer("kernels.rk4_schrodinger", "calls", "busy_s", "steps", "steps_per_s")
    + _layer("kernels.rk4_lindblad", "calls", "busy_s", "steps", "steps_per_s")
    + _layer("dynamics.evolve", "calls", "busy_s", "self_s")
    + _layer("lindblad.lindblad_evolve", "calls", "busy_s", "self_s")
    + [("lindblad.samples_mb", "MiB", "lower")]
    + _layer("thermo.sweep_ergotropy", "busy_s")
    + _layer("thermo.ergotropy_trace", "calls", "busy_s", "self_s")
    + [("thermo.sweep.cells", "count", "higher"),
       ("thermo.sweep.failed_cells", "count", "lower"),
       ("thermo.sweep.parallel_efficiency", "ratio", "higher")]
    + _layer("spectral.find_bound_states", "calls", "busy_s")
    + _layer("spectral.branch_cut_integral", "calls", "busy_s")
    + _layer("spectral.long_time_probability", "busy_s")
    + _layer("model.atom_eigensystem_exact", "calls", "busy_s")
    + _layer("analysis.fit_decay", "calls", "busy_s")
    + _layer("cli.run_reproduce", "calls", "busy_s", "self_s")
    + [("cli.bytes_written", "bytes", "lower"),
       ("trace.overhead_s", "s", "lower")]
)
