"""Shared helpers: checkout paths, program environment, percentiles,
provenance, the host-drift probe and child-process reaping."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Everything the benchmark writes lives here (git-ignored).
WORK = ROOT / ".bench_work"
#: Benchmark-owned bytecode cache: setup_s never depends on whatever
#: ``__pycache__`` directories happen to exist in the checkout.
PYCACHE = WORK / "pycache"

#: A percentile is reported only with at least this many samples beyond it
#: (so a p99 needs 1000 samples, a p50 needs 20).
MIN_TAIL_SAMPLES = 10

#: Child processes that outlive this are killed and the run fails.
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def check_checkout() -> None:
    """Refuse to run where the program's sources are missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from a checkout")


def use_bench_pycache() -> None:
    """Send this process's own bytecode to the benchmark-owned cache."""
    sys.pycache_prefix = str(PYCACHE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for program processes: ``REPRO_*`` knobs stripped, the
    checkout's sources importable, bytecode in the benchmark's cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1].

    Raises:
        BenchError: fewer than :data:`MIN_TAIL_SAMPLES` samples would lie
            beyond the percentile (e.g. a p99 from under 1000 samples).
    """
    n = len(values)
    needed = math.ceil(MIN_TAIL_SAMPLES / (1.0 - q)) if q < 1 else math.inf
    if n < needed:
        raise BenchError(
            f"p{q * 100:g} needs at least {needed} samples, got {n}"
        )
    ordered = sorted(values)
    position = q * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def median(values) -> float:
    """Plain median (no sample-count rule: used for per-run summaries)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: a host-speed diagnostic.

    Recorded before and after each run so a slow host can be told from a
    regression; never used to normalise a metric.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - started
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def source_hash() -> str:
    """sha256 over every file under ``src/`` (paths and bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    """What produced a result: sources, host and toolchain versions."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None  # a plain checkout is not a git repository
    return {
        "git_sha": sha,
        "source_sha256": source_hash(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def spawn(argv: list[str], **kwargs) -> subprocess.Popen:
    """Start a program process in the checkout with :func:`program_env`."""
    return subprocess.Popen(
        argv, cwd=ROOT, env=program_env(), **kwargs
    )


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> float:
    """Wait for ``proc`` (killing it past ``timeout``, or when the wait is
    interrupted); return its peak RSS in MB.  Raises :class:`BenchError`
    on a non-zero exit."""
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"{proc.args[:4]} timed out after {timeout:.0f}s")
            time.sleep(0.005)
    except BaseException:
        kill(proc)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{proc.args[:4]} exited with {proc.returncode}")
    return usage.ru_maxrss / 1024.0


def kill(proc: subprocess.Popen) -> None:
    """SIGKILL and reap ``proc`` if it has not been reaped yet.

    Signals go through ``os.kill``: ``Popen``'s own methods poll, and a
    poll would reap the child before :func:`reap` reads its rusage.
    """
    if proc.returncode is not None:
        return
    try:
        os.kill(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    os.wait4(proc.pid, 0)
    proc.returncode = -signal.SIGKILL
