"""Shared helpers: percentiles, machine-speed scaling, the provenance
stamp, metric formatting."""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import subprocess
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

__all__ = ["MIN_BEYOND", "REFERENCE_PROBE_S", "SpeedGauge", "percentile",
           "peak_rss_mb", "probe_s", "provenance", "unit_metrics"]

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10

#: Iterations of the speed probe's loop, and how often a probe runs it.
PROBE_ITERATIONS = 4_000
PROBE_REPEATS = 3
#: The probe time a scale of 1.0 stands for: about the probe's time on a
#: 2 GHz x86-64 core under Python 3.11 when its host is quiet.
REFERENCE_PROBE_S = 0.0008
#: How the program's time follows the probe's.  Across load changes on a
#: shared 2-core host, the workloads' wall times grew as the probe time to
#: the power 0.65 to 0.9 (log-log slopes; part of their time waits on
#: memory, which a busy host slows less than the interpreter loop).
SPEED_EXPONENT = 0.8


def probe_s() -> float:
    """Wall seconds a fixed pure-Python loop takes now.

    The loop builds small tuples, strings and dicts, the allocation-heavy
    interpreter work the reputation system and its simulator do.  Of the
    loops tried, its time followed the program's most closely when the
    host's load changed; a loop of dict updates and RNG draws sped up
    more than the program on a quiet host.  The fastest of
    ``PROBE_REPEATS`` runs counts: an interrupt only ever adds time.  The
    cyclic garbage collector is off meanwhile, so the probe's time does not
    grow with the program's heap.
    """
    fastest = math.inf
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            started = time.perf_counter()
            built = [(i, str(i), {"i": i}) for i in range(PROBE_ITERATIONS)]
            fastest = min(fastest, time.perf_counter() - started)
            del built
    finally:
        if collecting:
            gc.enable()
    return fastest


class SpeedGauge:
    """Scales wall times to a reference machine speed.

    A shared host can run the same work at very different speeds from one
    second to the next (2x was seen on a 2-core container).  The gauge
    probes the speed when created and at the end of every *segment* of
    timed work; :meth:`segment` returns ``REFERENCE_PROBE_S`` over the
    mean of the two probes around the segment, to the power
    ``SPEED_EXPONENT``.  Multiplying a segment's
    wall times by it gives the times a machine of reference speed would
    have measured.  Probes run between segments, never inside a timer.
    """

    def __init__(self) -> None:
        self._last = probe_s()

    def segment(self) -> float:
        """End the current segment and return its scale."""
        now = probe_s()
        scale = (2.0 * REFERENCE_PROBE_S
                 / (self._last + now)) ** SPEED_EXPONENT
        self._last = now
        return scale


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None unless at least
    ``MIN_BEYOND`` samples lie beyond it."""
    if len(samples) * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git(root: Path, *args: str) -> Optional[str]:
    # Never look for a repository above ``root``: outside a git work tree
    # (a plain source export) there is no revision to report.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        completed = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=10, check=False, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip()


def provenance(root: Path) -> Dict[str, object]:
    """Where a result came from: code revision, interpreter, libraries.

    Outside a git work tree (a plain source export) ``git_sha`` and
    ``dirty`` are None.
    """
    import numpy
    try:
        import scipy
        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def unit_metrics(values: Dict[str, float],
                 units: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    """``{name: {"value": v, "unit": u}}`` in ``units`` order."""
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}

