#!/usr/bin/env python3
"""Print one SHA-256 per output file of a fixed set of runs, to show that a
change leaves every output byte-identical.

The runs:

* the four benchmark workloads of ``bench/workloads.py`` at seed 1, full
  size, with history on, through ``run_experiment`` and ``write_report``;
  their inputs are the benchmark's cached Matrix Market files (written on
  first use; ``large-n``'s is about 37 MB);
* ``demos/05_benchmark_protocol.py``, run in a temporary directory.

In ``summary.json`` the ``timestamp``, every ``wall_time_s`` and the two
input paths (the config echo's ``matrix`` and ``matrix.path``, which lie
under the script's own checkout) are masked, so the same package gives the
same digests from any checkout's copy of this script.  The package is
imported from ``PYTHONPATH``; run both versions at the same BLAS thread
count::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/output_digests.py > new.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=/path/to/old/src \\
        python scripts/output_digests.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

import resolvquad  # noqa: E402
from resolvquad.harness import (  # noqa: E402
    ExperimentConfig,
    run_experiment,
    write_report,
)

SEED = 1
INPUTS = ROOT / ".bench_cache" / "inputs"  # the benchmark's input cache
MASKS = (
    (re.compile(r'("timestamp": )"[^"]*"'), r'\1"<masked>"'),
    (re.compile(r'("wall_time_s": )[^,\n]*'), r'\1"<masked>"'),
    (re.compile(r'("(?:matrix|path)": )"(?:[^"\\]|\\.)*"'), r'\1"<masked>"'),
)


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        text = data.decode()
        for pattern, repl in MASKS:
            text = pattern.sub(repl, text)
        data = text.encode()
    return hashlib.sha256(data).hexdigest()


def workload_outputs(name: str, out: Path) -> list:
    w = workloads.WORKLOADS[name]
    matrix, _ = workloads.input_file(w, SEED, False, INPUTS)
    spec = workloads.program_config(w, SEED, False, matrix)
    spec["history"] = True
    report = run_experiment(ExperimentConfig(**spec))
    return sorted(write_report(report, out / name).values())


def demo_outputs(work: Path) -> list:
    """Run demo 05 in ``work`` on the package imported here."""
    src = str(Path(resolvquad.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, str(ROOT / "demos" /
                                        "05_benchmark_protocol.py")],
                   cwd=work, check=True, stdout=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONPATH": src})
    return sorted((work / "protocol_out").iterdir())


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = []
        for name in workloads.WORKLOADS:
            files += [(f"{name}/{p.name}", p)
                      for p in workload_outputs(name, tmp)]
        demo = tmp / "demo05"
        demo.mkdir()
        files += [(f"demo05/{p.name}", p) for p in demo_outputs(demo)]
        for label, path in files:
            print(f"{digest(path)}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
