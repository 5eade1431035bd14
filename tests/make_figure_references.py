"""Write ``figure_references.json``, the figure outputs that test_figures reads.

Each record is ``test_figures.figure_record`` of one figure: its summary
scalars and its CSV columns from ``cli.run_reproduce`` at one worker,
fig5 over the whole grid.  The file also names the commit it was
written on (``git describe --always --dirty``).  Run it from the
repository root after a change that moves a figure on purpose, and list
every moved field in CHANGES.md:

    PYTHONPATH=src python tests/make_figure_references.py

It takes about 6 s (fig5 is most of it).
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_figures as tf  # noqa: E402
from qbsim import thermo  # noqa: E402


def main() -> None:
    thermo._one_blas_thread()  # as the test runs it
    with tempfile.TemporaryDirectory() as tmp:
        figures = {figure_id: tf.figure_record(figure_id, Path(tmp) / figure_id) for figure_id in tf.FIGURES}
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True, text=True,
                            cwd=Path(__file__).resolve().parent).stdout.strip()
    body = ",\n".join(f"{json.dumps(figure_id)}: {json.dumps(record)}" for figure_id, record in figures.items())
    tf.REFERENCE_FILE.write_text(
        f'{{"written_by": "tests/make_figure_references.py", "commit": {json.dumps(commit)}, '
        f'"figures": {{\n{body}\n}}}}\n')
    count = sum(len(r["exact"]) + len(r["values"]) for r in figures.values())
    print(f"{count} fields of {len(figures)} figures written to {tf.REFERENCE_FILE.name}")


if __name__ == "__main__":
    main()
