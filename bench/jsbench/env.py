"""The environment a result was measured in."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def _blas() -> tuple[str, str]:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return str(deps.get("name", "unknown")), str(deps.get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown", "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(root: Path, threads: int, seed: int) -> dict:
    blas_name, blas_version = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
