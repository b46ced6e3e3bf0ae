"""Shared pieces of the benchmark: paths, statistics, process control,
the calibration loop and the correctness gate.

Nothing here imports the program under test at module level, so the
entry point can refuse to run (with a non-zero exit) in a directory that
holds only the benchmark.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated instances, outputs and caches.  Listed in
#: the repository's ``.gitignore``; every run removes its own subdirectory.
WORK_ROOT = ROOT / ".perfbench_work"


def program_env() -> Dict[str, str]:
    """Environment for child processes: the program imported from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A cold start of an installed program reads cached bytecode; without it
    # every command would also recompile the package's sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends with the result line."""
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# calibration: a fixed Python + numpy loop, recorded, never used to rescale
# ----------------------------------------------------------------------


def calibrate() -> float:
    """Seconds taken by a fixed Python + numpy loop (a noisy-neighbour probe)."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(80):
        a = np.sqrt(a * a + 1.0)
    elapsed = time.perf_counter() - start
    if acc < 0 or not np.isfinite(a[-1]):  # consume both results
        raise RuntimeError("calibration loop produced an impossible value")
    return elapsed


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


class ProcResult(NamedTuple):
    wall_s: float
    returncode: int
    stdout: str
    maxrss_mb: float


def run_program(args: Sequence[str], cwd: Path, timeout_s: float = 170.0) -> ProcResult:
    """Run ``python -m repro.cli <args>`` in a fresh process and time it.

    Wall time runs from spawn to reap; peak RSS comes from the ``wait4``
    rusage of the child (Linux reports kilobytes).
    """
    return run_python(["-m", "repro.cli", *args], cwd, timeout_s)


def run_python(args: Sequence[str], cwd: Path, timeout_s: float = 170.0) -> ProcResult:
    """Run this interpreter with ``args`` in a fresh process, the program on its path."""
    argv = [sys.executable, *args]
    out_path = cwd / f".stdout-{os.getpid()}-{time.monotonic_ns()}.txt"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=program_env(), stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SIGTERM while waiting: the child goes too
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    return ProcResult(wall, proc.returncode, stdout, rusage.ru_maxrss / 1024.0)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop_process(proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
    """SIGTERM, wait, then SIGKILL; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A grandchild whose parent dies first (a sweep's pool worker after its
    CLI process was killed at a timeout) is then re-parented here, so that
    :func:`reap_children` stops it too instead of leaving it to ``init``.
    """
    import ctypes

    pr_set_child_subreaper = 36
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def _child_pids() -> List[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:  # the process ended while the table was read
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children() -> int:
    """Kill and wait for every child process still present; returns how many.

    Every path out of the benchmark ends here, so no process it started (or
    adopted through :func:`adopt_orphans`) outlives it.  In a clean run the
    servers and pools are already stopped and this finds nothing.
    """
    stopped = 0
    for _ in range(100):
        pids = _child_pids()
        if not pids:
            break
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        stopped += len(pids)
    return stopped


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh directory under :data:`WORK_ROOT`, removed afterwards."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------


class Gate:
    """Counts operations and failures; a failure is never silent."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        """One operation: ``ok`` is whether its output was right."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
                log(f"FAILED: {what}")
        return ok

    def check(self, ok: bool, what: str) -> bool:
        """A set-up or self-check condition: not an operation, but it can fail the run."""
        if not ok:
            self.problems.append(what)
            log(f"CHECK FAILED: {what}")
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def values_equal(got: Dict[str, float], want: Dict[str, float]) -> bool:
    """Bitwise equality of two ``agent -> value`` maps (JSON floats round-trip exactly)."""
    return got.keys() == want.keys() and all(got[k] == want[k] for k in want)


def solution_values(doc: dict) -> Dict[str, float]:
    """``agent -> value`` from a ``maxmin-lp solve --output`` document."""
    return {str(row["agent"]): float(row["value"]) for row in doc["values"]}


def reference_values(solution) -> Dict[str, float]:
    """``agent -> value`` of an in-process :class:`Solution`, JSON-normalised."""
    return json.loads(json.dumps({str(k): float(v) for k, v in solution.as_dict().items()}))


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    """Print the result line: the last line of standard output."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)


def table(title: str, rows: Iterable[tuple]) -> None:
    """A human-readable block on stdout, ahead of the result line."""
    print(f"== {title}")
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<44} {shown:>14} {unit:<6} {note}")
