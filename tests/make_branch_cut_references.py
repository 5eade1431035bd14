"""Write ``branch_cut_references.json``, the reference values that TestBranchCutRule reads.

Each value is computed exactly as the test used to compute it on every
run, with the reference functions of ``test_spectral``: 25-digit
``mpmath.quad`` for the grid, the weak-coupling cases and the benchmark
draw (both starts), and two scipy ``quad`` calls per time for the
presets at 201 times.  Each value is keyed by its inputs.  Run it from
the repository root after changing a case or a reference function:

    PYTHONPATH=src python tests/make_branch_cut_references.py

It needs mpmath and scipy and takes about 10 s.
"""

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_spectral as ts  # noqa: E402
from qbsim.presets import preset  # noqa: E402


def main() -> None:
    base = preset("fig2").params  # the values of the fig2_params fixture
    values = {}
    cases = [(t, *ts._grid_case(base, g, offset, im))
             for g, offset, im, t in itertools.product(ts.GRID_G, ts.GRID_OFFSET, ts.GRID_IM, ts.GRID_T)]
    cases += [(0.0, *ts._weak_case(base, e1)) for e1 in ts.WEAK_E1]
    cases.append((0.0, *ts._draw_case(base)))
    for t, p, e1 in cases:
        for initial, value in ts._mpmath_branch_cut_integrals(t, p, e1).items():
            values[ts._reference_key("mpmath", t, p, e1, initial)] = [value.real, value.imag]
    for name in ts.PRESETS:
        p, e1, times = ts._preset_case(name)
        for t in times:
            value = ts._reference_branch_cut_integral(t, p, e1)
            values[ts._reference_key("quad", t, p, e1, "photon")] = [value.real, value.imag]
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in values.items())
    ts.REFERENCE_FILE.write_text(
        f'{{"written_by": "tests/make_branch_cut_references.py", "values": {{\n{lines}\n}}}}\n')
    print(f"{len(values)} references written to {ts.REFERENCE_FILE.name}")


if __name__ == "__main__":
    main()
