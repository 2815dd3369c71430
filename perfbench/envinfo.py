"""Print the benchmark host's CPU count, cache sizes and library versions as JSON.

    python3 perfbench/envinfo.py

``run.py`` runs it as a child process so that numpy never loads into the
process whose children's peak RSS it measures.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy
import scipy


def record() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    print(json.dumps(record()))
