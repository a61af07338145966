"""Interpreter set-up shared by the benchmark's scripts, and the environment record.

``prepare()`` runs before numpy is imported: it pins OpenBLAS to one
thread and puts the checkout's ``src`` first on ``sys.path`` so the package
is always the one built from this tree.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/hyperspline`` package."""


def prepare():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "hyperspline" / "__init__.py").is_file():
        raise MissingProgram(f"no hyperspline package under {SRC}")
    sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    """HEAD commit read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record(seed: int) -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": _git_commit(),
    }
