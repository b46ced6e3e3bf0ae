"""Workload ``cli-cold``: fresh ``python -m repro.cli`` processes, one at a time.

Four commands are cycled over instance files made by ``maxmin-lp
generate``: ``solve`` at n = 1e3 and at n = 1e4 (general), ``solve --dist
-R 8`` with 5% transient loss in round 3 (special form, n = 1e4), and a
16-job ``sweep --jobs 2`` with a fresh ``--cache-dir``.  This is what a
researcher waits for: import dominates the small solve; parse, preprocess
and the §4 transform are a third of the large one; the distributed runtime
is a third of ``--dist``; the engine, the exact LP and the kernels
dominate the sweep.
"""

from __future__ import annotations

import json
import re
import shutil
import time
from pathlib import Path
from typing import Dict, List

from inputs import CLI_COMMANDS, CLI_FILES, DIST_R, SWEEP_R_VALUES, Scale, cli_command_args, cli_generate_args, dist_fault_plan
from util import Gate, ProcResult, log, median, reference_values, run_program, solution_values, values_equal

_CERT = re.compile(r"certificate: (\d+) exact / (\d+) safe / (\d+) failed")


def setup(scale: Scale, seed: int, work: Path, gate: Gate) -> List[float]:
    """Run the ``generate`` calls ``scale.setup_reps`` times; the last set is used.

    Returns the wall time of each complete set-up.
    """
    times = []
    for rep in range(scale.setup_reps):
        rep_dir = work / f"setup-{rep}"
        rep_dir.mkdir()
        total = 0.0
        for args in cli_generate_args(scale, seed):
            res = run_program(args, rep_dir)
            gate.check(res.returncode == 0, f"generate {args[1]} exited {res.returncode}: {res.stdout[-300:]}")
            total += res.wall_s
        times.append(total)
    for name in CLI_FILES:
        shutil.move(str(rep_dir / name), str(work / name))
    for rep in range(scale.setup_reps):
        shutil.rmtree(work / f"setup-{rep}")
    return times


class References:
    """What each command must output, computed in-process and untimed."""

    def __init__(self, work: Path) -> None:
        from repro.algo.general_solver import LocalMaxMinSolver
        from repro.distributed import ResilientLocalSolver
        from repro.io.serialization import load_instance

        solver = LocalMaxMinSolver(R=3)
        self.small = reference_values(solver.solve(load_instance(work / "small.json")).solution)
        self.large = reference_values(solver.solve(load_instance(work / "large.json")).solution)
        sf = load_instance(work / "sf.json")
        self.dist_agents = sf.num_agents
        self.central_utility = LocalMaxMinSolver(R=DIST_R).solve(sf).utility()
        solution, _ = ResilientLocalSolver(R=DIST_R, faults=dist_fault_plan()).solve(sf)
        self.dist = reference_values(solution)


def verify(name: str, res: ProcResult, work: Path, refs: References, expected_rows: int) -> str:
    """Empty string when the command's output is right, else what is wrong."""
    if res.returncode != 0:
        return f"exit code {res.returncode}: {res.stdout[-300:]}"
    if name == "sweep":
        rows = [line.split() for line in res.stdout.splitlines() if line.startswith("random ")]
        if len(rows) != expected_rows:
            return f"sweep printed {len(rows)} rows, expected {expected_rows}"
        bad = [row for row in rows if row[-1] != "yes"]
        return f"{len(bad)} sweep rows not within_guarantee" if bad else ""
    out = work / {"solve_small": "out-small.json", "solve_large": "out-large.json", "solve_dist": "out-dist.json"}[name]
    doc = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    got = solution_values(doc)
    if name == "solve_dist":
        match = _CERT.search(res.stdout)
        if not match or int(match.group(1)) != refs.dist_agents:
            return f"--dist did not certify all {refs.dist_agents} agents exact: {match and match.group(0)}"
        if abs(float(doc["utility"]) - refs.central_utility) > 1e-9:
            return f"--dist utility {doc['utility']} vs centralized {refs.central_utility}"
        want = refs.dist
    else:
        want = refs.small if name == "solve_small" else refs.large
    if not values_equal(got, want):
        return "--output values differ from the in-process reference"
    return ""


def measure(scale: Scale, seed: int, seconds: float, work: Path, gate: Gate, refs: References):
    """Cycle the commands until ``seconds`` have passed (at least one full cycle)."""
    walls: Dict[str, List[float]] = {name: [] for name in CLI_COMMANDS}
    rss: List[float] = []
    expected_rows = len(scale.sweep_sizes) * (len(SWEEP_R_VALUES) + 1)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(CLI_COMMANDS) or time.perf_counter() < deadline:
        name = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        cache_dir = f"sweep-cache-{i}"
        res = run_program(cli_command_args(name, scale, seed, cache_dir), work)
        shutil.rmtree(work / cache_dir, ignore_errors=True)
        problem = verify(name, res, work, refs, expected_rows)
        gate.record(not problem, f"cli-cold {name}: {problem}")
        walls[name].append(res.wall_s)
        rss.append(res.maxrss_mb)
        i += 1
    return walls, rss


def run(scale: Scale, seed: int, seconds: float, work: Path, gate: Gate, corrupt: bool = False):
    """The untraced workload.  Returns ``(metrics, report rows)``."""
    setup_times = setup(scale, seed, work, gate)
    refs = References(work)
    if corrupt:
        key = next(iter(refs.small))
        refs.small[key] += 1e-12
    walls, rss = measure(scale, seed, seconds, work, gate, refs)
    medians = {name: median(v) for name, v in walls.items()}
    count = sum(len(v) for v in walls.values())
    # Throughput over complete cycles only, so a run's partial last cycle
    # does not change the command mix it is measured on.
    cycles = min(len(v) for v in walls.values())
    cycle_wall = sum(sum(v[:cycles]) for v in walls.values())
    metrics = {
        "ops_per_s": (len(walls) * cycles / cycle_wall, "1/s"),
        "p50_ms": (1000.0 * sum(medians.values()), "ms"),
        "tail_ms": (1000.0 * sum(max(v) for v in walls.values()), "ms"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    report = [
        (f"{name}_s", medians[name], "s", f"median of {len(walls[name])}") for name in CLI_COMMANDS
    ] + [
        ("setup_s", median(setup_times), "s", f"median of {len(setup_times)} set-ups (generate calls)"),
        ("peak_rss_mb", max(rss), "MB", f"max over {count} commands (wait4 rusage)"),
    ]
    log(f"cli-cold: {count} commands, walls {{{', '.join(f'{k}: {v}' for k, v in walls.items())}}}")
    return metrics, report
