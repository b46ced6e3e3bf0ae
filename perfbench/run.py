"""The repository benchmark: one command, three workloads, outputs checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures one workload with tracing off and prints the
end-to-end metrics.  ``--trace 1`` is the separate traced run: it replays
the inputs of every workload through each layer's public functions, times
those calls from here, and prints the per-layer metrics (see
``perfbench/DESIGN.md``).  Human-readable tables go to standard output
first; the last line is always the JSON result.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

from util import SRC, Gate, adopt_orphans, calibrate, emit, log, reap_children, table, work_dir

WORKLOADS = ("cli-cold", "serve-resident", "serve-ingest")
END_TO_END = ("ops_per_s", "p50_ms", "tail_ms", "setup_s", "peak_rss_mb")


def run_workload(name: str, scale, seed: int, seconds: float, corrupt: bool = False):
    """Measure one workload untraced.  Returns ``(gate, metrics)``."""
    import cli_cold
    import serving

    gate = Gate()
    calib = [calibrate()]
    with work_dir(name) as work:
        if name == "cli-cold":
            metrics, report = cli_cold.run(scale, seed, seconds, work, gate, corrupt)
        else:
            pool = serving.make_pool()
            try:
                runner = serving.run_resident if name == "serve-resident" else serving.run_ingest
                metrics, report = runner(scale, seed, seconds, work, gate, corrupt, pool)
            finally:
                pool.close()
                pool.join()
    calib.append(calibrate())
    table(
        f"{name} (seed {seed}, {seconds:g} s)",
        report
        + [
            ("attempted", gate.attempted, "ops", ""),
            ("failed", gate.failed, "ops", ""),
            ("bench.calib_s", max(calib), "s", f"start {calib[0]:.4f}, end {calib[1]:.4f}"),
        ],
    )
    return gate, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny sizes; checks metrics and the gate")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: the program's sources are not at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import inputs

    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    if args.trace:
        import replay

        gate, metrics = replay.run(inputs.FULL, args.seed, args.workload)
    else:
        gate, metrics = run_workload(args.workload, inputs.FULL, args.seed, args.seconds)
        missing = set(END_TO_END) - set(metrics)
        if missing:
            raise RuntimeError(f"workload {args.workload} did not measure {sorted(missing)}")
    emit(gate.correct, gate.attempted, gate.failed, metrics)
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind normally so that servers, pools and children are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    adopt_orphans()
    started = time.perf_counter()
    try:
        code = main()
    finally:
        leftover = reap_children()
        if leftover:
            log(f"perfbench: stopped {leftover} leftover child process(es)")
    log(f"perfbench: done in {time.perf_counter() - started:.1f} s")
    sys.exit(code)
