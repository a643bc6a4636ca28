"""Order statistics, the run envelope and resident-memory readings."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

#: Percentiles a tail figure may be reported at, highest last.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Thread-count variables BLAS and OpenMP runtimes read.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def highest_supported_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it.

    ``n`` samples leave ``n * (1 - p/100)`` beyond the p-th percentile;
    None when even the median has fewer than ten beyond it (n < 20).
    """
    supported = [p for p in PERCENTILE_LADDER
                 if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9]
    return supported[-1] if supported else None


def summarize(values) -> dict:
    """p50, the highest supported tail percentile, and the sample count."""
    values = list(values)
    if not values:
        return {"p50": 0.0, "n": 0, "tail_p": None, "tail": None}
    tail_p = highest_supported_percentile(len(values))
    return {"p50": median(values), "n": len(values), "tail_p": tail_p,
            "tail": percentile(values, tail_p) if tail_p else None}


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def child_pids() -> list[int]:
    """Direct children of this process (Linux ``/proc``)."""
    pids: list[int] = []
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids.extend(int(p) for p in
                        (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(set(pids))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live child, in MiB.

    Read while the workers or daemons are still up: a high-water mark
    survives in ``/proc/<pid>/status`` only until the process is reaped.
    """
    own = _vm_hwm_kb("self")
    if own == 0:
        import resource
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_vm_hwm_kb(pid) for pid in child_pids())) / 1024.0


def git_sha(root: Path) -> str | None:
    """HEAD of ``root`` if it is a git checkout; parents are not searched."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    """Where a run was measured; ``env_id`` hashes every field but the sha."""
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    env = {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
    }
    env["env_id"] = hashlib.sha256(
        repr(sorted(env.items())).encode()).hexdigest()[:12]
    env["git_sha"] = git_sha(root)
    return env
