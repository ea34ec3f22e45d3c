"""Environment record and import-time split for the aht benchmark."""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment(root: Path) -> dict:
    """nproc, BLAS, thread variables, interpreter and library versions, commit."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_now": _thread_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
    }


def _thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_split(src: Path, env: dict) -> dict:
    """Seconds spent importing numpy, scipy and aht's own modules, from
    ``python -X importtime -c "import aht"`` in a fresh interpreter.

    ``aht`` is the cumulative time of the ``aht`` package minus the numpy
    and scipy subtrees it pulls in; numpy modules first imported by scipy
    count as scipy.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import aht"],
        env={**env, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        check=True,
    )
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    """Split ``-X importtime`` output into numpy, scipy and aht seconds."""
    entries = []  # (depth, name, cumulative_us), in the order printed (children first)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"numpy": 0, "scipy": 0, "aht": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # parents now come first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        outer = {a[1] for a in ancestors}
        if package == "aht" and not ancestors:
            totals["aht"] += cumulative
        elif package in ("numpy", "scipy") and not outer & {"numpy", "scipy"}:
            totals[package] += cumulative
        ancestors.append((depth, package))
    return {
        "numpy_import_s": totals["numpy"] * 1e-6,
        "scipy_import_s": totals["scipy"] * 1e-6,
        "aht_import_s": (totals["aht"] - totals["numpy"] - totals["scipy"]) * 1e-6,
    }
