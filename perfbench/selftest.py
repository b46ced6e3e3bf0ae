"""``run.py --self-test``: all three workloads at tiny sizes.

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit (untraced: the end-to-end metrics of each workload; traced: every
per-layer metric), that the untraced runs pass the correctness gate, and
that the gate fails a run whose reference answer was corrupted.
"""

from __future__ import annotations

import json

import replay
from inputs import TINY
from util import ROOT, log

SECONDS = 2.0


def _missing(metrics: dict, wanted: list) -> list:
    return [m["name"] for m in wanted if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]


def main() -> int:
    from run import WORKLOADS, run_workload

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOADS:
        gate, metrics = run_workload(name, TINY, 7, SECONDS)
        if not gate.correct or gate.attempted < 1:
            problems.append(f"{name}: clean run not correct ({gate.failed}/{gate.attempted} failed; {gate.problems})")
        missing = _missing(metrics, spec["end_to_end"])
        if missing:
            problems.append(f"{name}: end-to-end metrics missing or with the wrong unit: {missing}")
        gate, _ = run_workload(name, TINY, 7, SECONDS, corrupt=True)
        if gate.failed == 0 or gate.correct:
            problems.append(f"{name}: the gate passed a corrupted reference")
    gate, metrics = replay.run(TINY, 7, "self-test")
    if not gate.correct:
        problems.append(f"traced run not correct: {gate.problems}")
    missing = _missing(metrics, spec["per_layer"])
    if missing:
        problems.append(f"traced run: per-layer metrics missing or with the wrong unit: {missing}")
    extra = sorted(set(metrics) - {m["name"] for m in spec["per_layer"]})
    if extra:
        problems.append(f"traced run: metrics not listed in BENCHMARK.json: {extra}")
    for problem in problems:
        log(f"SELF-TEST FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
