"""The traced run: per-layer times, counts and residuals for every workload.

It replays each workload's inputs through the public functions of each
layer (``io``, ``core``, ``transforms``, ``algo``, ``distributed``,
``engine``, ``serve``) and times those calls from here, with
``repro.obs`` spans named ``<scope>.<layer>``.  The program's own spans
nest inside them and are not read: a layer's time is its span's wall time
minus its benchmark-named children only.  The replay is single-threaded,
because the program's obs span stack is process-global.

Every per-layer metric is emitted by every traced run, whichever
``--workload`` it was started for: a metric's name carries the scope it
belongs to (``small``, ``large``, ``dist``, ``sweep`` are the cli-cold
commands; ``resident`` and ``ingest`` the serve workloads).  Times are per
operation: per command for the cli scopes, per request (the mean over the
workload's instances) for the serve scopes.

The replay runs four times: twice untimed with the program's obs counters
on (the counts must repeat exactly), once with obs off and once with it on
(their wall-time difference is the tracing overhead).
serve-resident's replay covers its first 12 instances, four of each kind.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import cli_cold
import serving
from inputs import (
    CLI_COMMANDS,
    DIST_R,
    SERVE_R,
    SWEEP_R_VALUES,
    Scale,
    cli_command_args,
    cli_generate_args,
    dist_fault_plan,
    ingest_document,
    ingest_sequence,
    document_reference,
    request_body,
    resident_documents,
    resident_order,
    sweep_seed,
)
from repro import obs
from util import (
    ROOT,
    Gate,
    calibrate,
    log,
    median,
    reference_values,
    run_program,
    run_python,
    table,
    values_equal,
    work_dir,
)

#: Layers of one ``solve``: the stages of ``LocalMaxMinSolver.solve``.
SOLVE_LAYERS = (
    "core.preprocess_s",
    "transforms.to_special_form_s",
    "core.compile_s",
    "algo.upper_bounds_s",
    "algo.smooth_s",
    "algo.g_recursion_s",
    "algo.output_s",
    "algo.finish_s",
)
#: Program counters that must repeat exactly between two runs of one seed.
REPEAT_COUNTERS = {
    "algo.bisection_iterations": "kernels.bisection_iterations",
    "algo.trees_total": "kernels.trees_total",
    "algo.trees_distinct": "kernels.trees_distinct",
    "distributed.rounds": "runtime.rounds",
    "distributed.messages": "runtime.messages",
    "distributed.retransmits": "runtime.retransmits",
    "serve.cache_stores": "serve.cache_stores",
    "serve.cache_hits": "serve.cache_hits",
}
#: Per-scope count metrics, from the counted pass.
SCOPE_COUNTS = {
    "small": ("algo.bisection_iterations", "algo.trees_total", "algo.trees_distinct"),
    "large": ("algo.bisection_iterations", "algo.trees_total", "algo.trees_distinct"),
    "dist": ("distributed.rounds", "distributed.messages", "distributed.retransmits"),
    "sweep": ("algo.bisection_iterations", "algo.trees_total", "algo.trees_distinct"),
    "resident": ("algo.bisection_iterations", "algo.trees_total", "algo.trees_distinct"),
    "ingest": ("algo.bisection_iterations", "algo.trees_total", "algo.trees_distinct",
               "serve.cache_stores", "serve.cache_hits"),
}
#: Requests in the sequential, counted serve-ingest pass.
INGEST_COUNTED_REQUESTS = 12
#: Resident instances replayed (the first ones, kinds interleaved); the live
#: load uses all of them.
RESIDENT_REPLAYED = 12
#: Seconds of live closed-loop load behind the serve residuals and shares.
LIVE_SECONDS = 3.0


def solve_stages(scope: str, instance, R: int, **attrs):
    """``LocalMaxMinSolver(R).solve`` replayed stage by stage; returns the solution."""
    from repro.algo.general_solver import LocalMaxMinSolver
    from repro.algo.kernels import batched_upper_bounds, g_recursion_kernel, output_kernel, smooth_bounds_kernel
    from repro.core.preprocess import preprocess
    from repro.core.solution import Solution
    from repro.transforms.pipeline import to_special_form

    inner = LocalMaxMinSolver(R=R).inner
    with obs.span(f"{scope}.core.preprocess_s", **attrs):
        pre = preprocess(instance)
    clean = pre.instance
    if pre.optimum_is_zero or pre.optimum_is_unbounded or clean.num_agents == 0 or clean.delta_I <= 1:
        raise RuntimeError(f"{scope}: degenerate instance {instance.name}; the replay covers the local path only")
    with obs.span(f"{scope}.transforms.to_special_form_s", **attrs):
        transform = None if clean.is_special_form() else to_special_form(clean)
    special = clean if transform is None else transform.transformed
    with obs.span(f"{scope}.core.compile_s", **attrs):
        comp = special.compiled()
    with obs.span(f"{scope}.algo.upper_bounds_s", **attrs):
        t = batched_upper_bounds(comp, inner.r, method=inner.tu_method, tol=inner.tu_tol)
    with obs.span(f"{scope}.algo.smooth_s", **attrs):
        s = smooth_bounds_kernel(comp, t, inner.r)
    with obs.span(f"{scope}.algo.g_recursion_s", **attrs):
        g_plus, g_minus = g_recursion_kernel(comp, s, inner.r)
    with obs.span(f"{scope}.algo.output_s", **attrs):
        x = output_kernel(g_plus, g_minus, R)
    with obs.span(f"{scope}.algo.finish_s", **attrs):
        mapped = Solution.from_agent_array(special, x, label=f"local-R{R}")
        if transform is not None:
            mapped = transform.map_back(mapped, label=f"local-R{R}")
        if pre.changed:
            final = pre.lift(mapped, label=f"local-R{R}")
        else:
            final = Solution(instance, mapped.as_dict(), label=f"local-R{R}")
    return final


class Inputs:
    """Everything the replay reads, made once per traced run (untimed)."""

    def __init__(self, scale: Scale, seed: int, work: Path, gate: Gate) -> None:
        self.scale, self.seed, self.work = scale, seed, work
        for args in cli_generate_args(scale, seed):
            res = run_program(args, work)
            gate.check(res.returncode == 0, f"generate {args[1]} exited {res.returncode}")
        self.text = {name: (work / f"{name}.json").read_text(encoding="utf-8") for name in ("small", "large", "sf")}
        self.cli_refs = cli_cold.References(work)
        self.resident = resident_documents(scale, seed)
        self.ingest = [ingest_document(scale.ingest_n, seed, i) for i in range(INGEST_COUNTED_REQUESTS)]
        self.resident_refs = [document_reference(doc) for _, doc in self.resident]
        self.ingest_refs = [document_reference(doc) for doc in self.ingest]


# ----------------------------------------------------------------------
# one scope per cli-cold command and per serve workload
# ----------------------------------------------------------------------


def scope_cli_solve(scope: str):
    def run(inp: Inputs, gate: Gate) -> Dict[str, float]:
        from repro.io.serialization import instance_digest, instance_from_json, solution_to_json

        with obs.span(f"{scope}.io.parse_s"):
            instance = instance_from_json(inp.text[scope])
        with obs.span(f"{scope}.io.digest_s"):
            instance_digest(instance)
        solution = solve_stages(scope, instance, 3)
        with obs.span(f"{scope}.io.write_s"):
            solution_to_json(solution)
        want = inp.cli_refs.small if scope == "small" else inp.cli_refs.large
        gate.record(values_equal(reference_values(solution), want), f"replay {scope}: stages differ from solve")
        return {}

    return run


def scope_dist(inp: Inputs, gate: Gate) -> Dict[str, float]:
    from repro.distributed import ResilientLocalSolver
    from repro.io.serialization import instance_from_json, solution_to_json

    with obs.span("dist.io.parse_s"):
        instance = instance_from_json(inp.text["sf"])
    with obs.span("dist.distributed.run_s"):
        solution, result = ResilientLocalSolver(R=DIST_R, faults=dist_fault_plan()).solve(instance)
    with obs.span("dist.io.write_s"):
        solution_to_json(solution)
    gate.record(values_equal(reference_values(solution), inp.cli_refs.dist), "replay dist: values differ")
    gate.record(result.retransmits > 0, "replay dist: the injected loss caused no retransmission")
    return {}


def scope_sweep(inp: Inputs, gate: Gate) -> Dict[str, float]:
    from repro.algo.safe_algorithm import SafeAlgorithm
    from repro.core.lp import solve_maxmin_lp
    from repro.generators import random_instance
    from repro.io.serialization import instance_digest, instance_from_json, instance_to_json

    seed = sweep_seed(inp.seed)
    with obs.span("sweep.generators_s"):
        instances = [random_instance(n, delta_I=3, delta_K=3, seed=seed) for n in inp.scale.sweep_sizes]
    for instance in instances:
        with obs.span("sweep.io.digest_s"):
            text = instance_to_json(instance)
            instance_digest(text)
        with obs.span("sweep.io.parse_s"):
            worker_copy = instance_from_json(text)
        with obs.span("sweep.core.lp_s"):
            solve_maxmin_lp(worker_copy)
        for R in SWEEP_R_VALUES:
            solve_stages("sweep", worker_copy, R)
        with obs.span("sweep.algo.safe_s"):
            SafeAlgorithm().solve_with_certificate(worker_copy)
    return {}


def engine_step(inp: Inputs, gate: Gate) -> Dict[str, float]:
    """The sweep's batch through the engine (two forked workers), then its cache.

    Run once, outside the four replay passes: it is the slowest part of the
    replay and its counters come from the engine's own result.
    """
    from repro.analysis.sweeps import run_ratio_sweep_batch
    from repro.engine.cache import ResultCache
    from repro.generators import random_instance

    seed = sweep_seed(inp.seed)
    instances = [random_instance(n, delta_I=3, delta_K=3, seed=seed) for n in inp.scale.sweep_sizes]
    cache_dir = inp.work / "replay-sweep-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    with obs.span("sweep.engine.run_batch_s"):
        rows, batch = run_ratio_sweep_batch(
            instances, R_values=SWEEP_R_VALUES, include_safe=True, jobs=2, cache_dir=str(cache_dir)
        )
    shutil.rmtree(cache_dir, ignore_errors=True)
    gate.record(
        len(rows) == len(instances) * (len(SWEEP_R_VALUES) + 1) and all(r["within_guarantee"] for r in rows),
        "replay sweep: rows missing or outside the guarantee",
    )
    cache = ResultCache(cache_dir)
    keys = [job.spec.cache_key("perfbench") for job in batch.results]
    for key, job in zip(keys, batch.results):
        with obs.span("sweep.engine.cache_put_s"):
            cache.put(key, job.records)
    for key in keys:
        with obs.span("sweep.engine.cache_get_s"):
            cache.get(key)
    shutil.rmtree(cache_dir, ignore_errors=True)
    job_time = sum(float((job.metrics or {}).get("elapsed_s", 0.0)) for job in batch.results)
    return {
        "engine.executed_jobs": batch.executed_jobs,
        "engine.cached_jobs": batch.cached_jobs,
        "engine.parallel_efficiency": job_time / (2.0 * batch.elapsed_s),
    }


def scope_resident(inp: Inputs, gate: Gate) -> Dict[str, float]:
    from repro.algo.general_solver import LocalMaxMinSolver
    from repro.io.serialization import instance_digest, instance_from_json
    from repro.serve import InstanceRegistry

    registry = InstanceRegistry(capacity=64)
    solver = LocalMaxMinSolver(R=SERVE_R)
    warm = []
    for (kind, doc), want in list(zip(inp.resident, inp.resident_refs))[:RESIDENT_REPLAYED]:
        with obs.span("resident.io.parse_s"):
            instance = instance_from_json(doc)
        with obs.span("resident.serve.admit_s"):
            registry.admit_instance(instance)
        with obs.span("resident.io.digest_s"):
            instance_digest(instance)
        solver.solve(instance)  # the first request: preprocess and transform get cached
        solution = solve_stages("resident", instance, SERVE_R, kind=kind)
        gate.record(values_equal(reference_values(solution), want), f"replay resident {kind}: values differ")
        warm.append(instance)
    rng = random.Random(inp.seed)
    order = list(range(len(warm)))
    rng.shuffle(order)
    for a, b in zip(order[0::2], order[1::2]):
        with obs.span("resident.serve.solve_many_s"):
            solver.solve_many([warm[a], warm[b]])
    return {}


def scope_ingest(inp: Inputs, gate: Gate) -> Dict[str, float]:
    from repro.algo.general_solver import LocalMaxMinSolver
    from repro.engine.cache import ResultCache
    from repro.io.serialization import instance_digest, instance_from_json
    from repro.serve import InstanceRegistry

    registry = InstanceRegistry(capacity=16)
    cache_dir = inp.work / "replay-ingest-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ResultCache(cache_dir)
    for k, (doc, want) in enumerate(zip(inp.ingest, inp.ingest_refs)):
        with obs.span("ingest.io.parse_s"):
            instance = instance_from_json(doc)
        with obs.span("ingest.serve.admit_s"):
            entry = registry.admit_instance(instance)
        with obs.span("ingest.io.digest_s"):
            instance_digest(instance)
        with obs.span("ingest.engine.cache_get_s"):
            cache.get(entry.digest)
        solution = solve_stages("ingest", instance, SERVE_R)
        values = reference_values(solution)
        gate.record(values_equal(values, want), f"replay ingest {k}: values differ")
        record = {"result": {"utility": solution.utility(), "values": values}, "meta": {"algorithm": "local-R3"}}
        with obs.span("ingest.engine.cache_put_s"):
            cache.put(entry.digest, [record])
    solver = LocalMaxMinSolver(R=SERVE_R)
    for a, b in zip(inp.ingest[0::2], inp.ingest[1::2]):
        pair = [instance_from_json(a), instance_from_json(b)]
        with obs.span("ingest.serve.solve_many_s"):
            solver.solve_many(pair)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {}


SCOPES: List[Tuple[str, Callable]] = [
    ("small", scope_cli_solve("small")),
    ("large", scope_cli_solve("large")),
    ("dist", scope_dist),
    ("sweep", scope_sweep),
    ("resident", scope_resident),
    ("ingest", scope_ingest),
]


# ----------------------------------------------------------------------
# counted passes, live load, residuals
# ----------------------------------------------------------------------


def _rollup():
    """``benchmarks/_harness.obs_counter_rollup``: run with obs on, return counter deltas."""
    harness_dir = str(ROOT / "benchmarks")
    if harness_dir not in sys.path:
        sys.path.insert(0, harness_dir)
    from _harness import obs_counter_rollup

    return obs_counter_rollup


def counted_scopes(inp: Inputs) -> Dict[str, Dict[str, float]]:
    """Program counters per scope, with obs on and nothing timed."""
    out = {}
    for scope, fn in SCOPES:
        _, counters = _rollup()(lambda: fn(inp, Gate()))
        out[scope] = {name: counters.get(source, 0) for name, source in REPEAT_COUNTERS.items()}
    return out


def counted_ingest(inp: Inputs, gate: Gate) -> Dict[str, float]:
    """Result-cache counters of a fixed, sequential ingest request sequence."""
    _, counters = _rollup()(lambda: ingest_sequential(inp, gate))
    return {name: counters.get(REPEAT_COUNTERS[name], 0) for name in ("serve.cache_stores", "serve.cache_hits")}


def ingest_sequential(inp: Inputs, gate: Gate) -> None:
    """A fixed sequence of ingest requests through an in-process server, one at a time."""
    from repro.serve import ServeConfig, ServerHandle

    order, _ = ingest_sequence(inp.seed, len(inp.ingest), INGEST_COUNTED_REQUESTS)
    cache_dir = inp.work / "counted-ingest-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    config = ServeConfig(workers=1, registry_capacity=16, cache_dir=str(cache_dir))
    with ServerHandle(config) as handle:
        for k in order:
            status, raw = serving.call(handle.port, "POST", "/v1/solve", request_body(doc_text=inp.ingest[k]))
            problem = serving.check_solve(status, raw, inp.ingest_refs[k])
            gate.record(not problem, f"counted ingest request: {problem}")
    shutil.rmtree(cache_dir, ignore_errors=True)


def live(inp: Inputs, gate: Gate) -> Dict[str, Dict[str, float]]:
    """A short closed loop per serve workload: request p50 and the server's shares."""
    out = {}
    # serve-resident
    server = serving.Server(inp.work, [], "trace-resident")
    try:
        digests, warm = serving.admit_warm(server, [doc for _, doc in inp.resident])
        want = dict(zip(digests, inp.resident_refs))
        for digest, status, raw in warm:
            problem = serving.check_solve(status, raw, want[digest])
            gate.check(not problem, f"live resident warm-up solve: {problem}")
        order = resident_order(inp.seed, digests, 1_000_000)
        bodies = {d: request_body(digest=d) for d in digests}

        answers = []

        def on_resident(i, status, raw, latency):
            answers.append((i, status, raw))

        before = server.metrics()
        lat, _ = serving.closed_loop(lambda i: server.post(bodies[order[i]]), on_resident, LIVE_SECONDS)
        out["resident"] = _shares(before, server.metrics(), lat)
    finally:
        server.stop()
    for i, status, raw in answers:
        problem = serving.check_solve(status, raw, want[order[i]])
        gate.record(not problem, f"live resident request {i}: {problem}")
    # serve-ingest: the first documents of the seed's pool, as the workload sends them
    cache_dir = inp.work / "trace-ingest-cache"
    server = serving.Server(inp.work, ["--cache-dir", str(cache_dir), "--registry-capacity", "16"], "trace-ingest")
    try:
        pool = list(inp.ingest)
        refs = list(inp.ingest_refs)
        while len(pool) < 40:  # enough distinct documents for LIVE_SECONDS of load
            pool.append(ingest_document(inp.scale.ingest_n, inp.seed, len(pool)))
            refs.append(None)
        order, _ = ingest_sequence(inp.seed, len(pool), 1_000_000)
        answers = []

        def on_ingest(i, status, raw, latency):
            answers.append((i, status, raw))

        before = server.metrics()
        lat, _ = serving.closed_loop(lambda i: server.post(request_body(doc_text=pool[order[i]])), on_ingest, LIVE_SECONDS)
        out["ingest"] = _shares(before, server.metrics(), lat, ingest=True)
    finally:
        server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    for i, status, raw in answers:
        k = order[i]
        if refs[k] is None:
            refs[k] = document_reference(pool[k])
        problem = serving.check_solve(status, raw, refs[k])
        gate.record(not problem, f"live ingest request {i}: {problem}")
    return out


def _shares(before: dict, after: dict, latencies: List[float], ingest: bool = False) -> Dict[str, float]:
    """p50 and shares of the live loop's requests, from ``/metrics`` around it.

    Cache hits and evictions are ingest-only: serve-resident runs without a
    result cache and admits fewer instances than its registry holds.
    """
    out = {
        "serve.p50_ms": 1000.0 * median(latencies),
        "serve.coalesced_share": serving.coalesced_share(before["counters"], after["counters"], len(latencies)),
    }
    if ingest:
        hits = after["counters"].get("serve.cache_hits", 0) - before["counters"].get("serve.cache_hits", 0)
        out["serve.cache_hit_share"] = hits / len(latencies)
        out["serve.evictions"] = after["registry"]["evictions"] - before["registry"]["evictions"]
    return out


def import_time(work: Path) -> float:
    """``import repro.cli`` in a fresh process, timed inside it (median of 3)."""
    code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        res = run_python(["-c", code], work)
        if res.returncode != 0:
            raise RuntimeError(f"import repro.cli failed: {res.stdout[-300:]}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return median(times)


def command_walls(inp: Inputs, gate: Gate) -> Dict[str, float]:
    """One untraced run of each cli-cold command, checked like the workload's."""
    walls = {}
    rows = len(inp.scale.sweep_sizes) * (len(SWEEP_R_VALUES) + 1)
    for name in CLI_COMMANDS:
        res = run_program(cli_command_args(name, inp.scale, inp.seed, "trace-sweep-cache"), inp.work)
        shutil.rmtree(inp.work / "trace-sweep-cache", ignore_errors=True)
        problem = cli_cold.verify(name, res, inp.work, inp.cli_refs, rows)
        gate.record(not problem, f"trace {name}: {problem}")
        walls[name] = res.wall_s
    return walls


def run(scale: Scale, seed: int, workload: str):
    """The traced run.  Returns ``(gate, metrics)`` with every per-layer metric."""
    from repro.obs import validate_trace

    gate = Gate()
    calib = [calibrate()]
    with work_dir(f"trace-{workload}") as work:
        inp = Inputs(scale, seed, work, gate)
        imp = import_time(work)
        walls = command_walls(inp, gate)
        # The engine forks its workers, so every pass that starts threads
        # (the in-process server, the live clients) comes after the replays.
        counts = [counted_scopes(inp) for _ in range(2)]

        # Each scope runs untraced and traced back to back, so both sides of
        # the overhead see the same machine; the order alternates by scope.
        origin = time.perf_counter()
        snaps: List[Tuple[float, dict]] = []
        extras: Dict[str, Dict[str, float]] = {}
        untraced = traced = 0.0
        for k, (scope, fn) in enumerate(SCOPES):
            for side in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
                start = time.perf_counter()
                if side == "plain":
                    fn(inp, Gate())
                    untraced += time.perf_counter() - start
                else:
                    extras[scope] = traced_call(f"{scope}.replay", lambda: fn(inp, gate), origin, snaps)
                    traced += time.perf_counter() - start
        extras["sweep"] = traced_call(None, lambda: engine_step(inp, gate), origin, snaps)

        for k in range(2):
            counts[k]["ingest"].update(counted_ingest(inp, gate))
        for scope in counts[0]:
            gate.check(counts[0][scope] == counts[1][scope], f"{scope}: program counts did not repeat: {counts}")
        serve = live(inp, gate)
    calib.append(calibrate())

    payload = merged_trace(snaps, {"workload": workload, "seed": seed})
    validate_trace(json.loads(json.dumps(payload)))
    spans = payload["spans"]
    metrics = layer_metrics(scale, bench_self_times(spans), spans, counts[0], extras, serve, walls, imp)
    metrics["bench.trace_overhead_s"] = (traced - untraced, "s")
    metrics["bench.calib_s"] = (max(calib), "s")
    table(
        f"traced replay (seed {seed}; {len(spans)} spans, trace schema valid)",
        [(name, value, unit, "") for name, (value, unit) in metrics.items()],
    )
    log(f"trace: untraced replay {untraced:.3f} s, traced {traced:.3f} s")
    return gate, metrics


def traced_call(name, fn: Callable, origin: float, snaps: List[Tuple[float, dict]]):
    """``fn()`` with obs on, inside a span ``name`` if given.

    Enabling obs empties its buffer, so the spans of each call are kept in
    ``snaps`` with the call's offset from ``origin``.
    """
    obs.configure(enabled=True)
    offset = time.perf_counter() - origin
    try:
        if name is None:
            return fn()
        with obs.span(name):
            return fn()
    finally:
        snaps.append((offset, obs.snapshot()))
        obs.configure(enabled=False)


def merged_trace(snaps: List[Tuple[float, dict]], meta: dict) -> dict:
    """One ``repro.obs`` trace of every traced call, on one time axis."""
    obs.configure(enabled=True)
    try:
        for offset, snap in snaps:
            for record in snap["spans"]:
                record["start_s"] += offset
            obs.merge_snapshot(snap)
        return obs.trace_payload(meta=meta)
    finally:
        obs.configure(enabled=False)


def bench_self_times(spans: List[dict]) -> Dict[str, float]:
    """Wall time summed per benchmark span name, minus benchmark-named children.

    Benchmark spans are named ``<scope>.<layer>``; the program's spans nested
    inside them stay part of their time.
    """
    scopes = {scope for scope, _ in SCOPES}
    ours = [r for r in spans if r["name"].split(".", 1)[0] in scopes]
    child_wall: Dict[int, float] = {}
    for record in ours:
        if record["parent"] is not None:
            child_wall[record["parent"]] = child_wall.get(record["parent"], 0.0) + record["wall_s"]
    out: Dict[str, float] = {}
    for record in ours:
        own = record["wall_s"] - child_wall.get(record["id"], 0.0)
        out[record["name"]] = out.get(record["name"], 0.0) + own
    return out


def layer_metrics(scale, self_times, spans, counts, extras, serve, walls, imp):
    """Per-operation layer times, counts, shares and residuals."""
    n_res = min(RESIDENT_REPLAYED, 3 * scale.resident_per_kind)
    per_op = {"small": 1, "large": 1, "dist": 1, "sweep": 1, "resident": n_res, "ingest": INGEST_COUNTED_REQUESTS}
    metrics: Dict[str, Tuple[float, str]] = {"cli.import_s": (imp, "s")}

    def layer(scope: str, name: str) -> float:
        return self_times.get(f"{scope}.{name}", 0.0) / per_op[scope]

    for scope, _ in SCOPES:
        for full, value in sorted(self_times.items()):
            if full.startswith(scope + ".") and not full.endswith(".replay"):
                metrics[full] = (value / per_op[scope], "s")
        for name in SCOPE_COUNTS[scope]:
            metrics[f"{scope}.{name}"] = (counts[scope][name], "count")
    for scope, values in extras.items():
        for name, value in values.items():
            metrics[f"{scope}.{name}"] = (value, "share" if name.endswith("efficiency") else "count")
    # solve_many times are per coalesced pair, not per request
    for scope, pairs in (("resident", n_res // 2), ("ingest", INGEST_COUNTED_REQUESTS // 2)):
        metrics[f"{scope}.serve.solve_many_s"] = (self_times[f"{scope}.serve.solve_many_s"] / pairs, "s")
    for kind in ("special", "regular", "general"):
        ub = [r for r in spans if r["name"] == "resident.algo.upper_bounds_s" and r["attrs"].get("kind") == kind]
        metrics[f"resident.{kind}.algo.upper_bounds_s"] = (sum(r["wall_s"] for r in ub) / len(ub), "s")

    # residuals: what a timed layer does not claim
    solve_path = ("io.parse_s",) + SOLVE_LAYERS + ("io.write_s",)
    on_path = {
        "small": solve_path,
        "large": solve_path,
        "dist": ("io.parse_s", "distributed.run_s", "io.write_s"),
        "sweep": ("generators_s", "engine.run_batch_s"),
    }
    for scope, command in zip(("small", "large", "dist", "sweep"), CLI_COMMANDS):
        claimed = imp + sum(layer(scope, name) for name in on_path[scope])
        metrics[f"{scope}.cli.wall_s"] = (walls[command], "s")
        metrics[f"{scope}.cli.residual_s"] = (walls[command] - claimed, "s")
    for scope in ("resident", "ingest"):
        live_scope = serve[scope]
        coalesced = min(1.0, live_scope["serve.coalesced_share"])
        solo = sum(layer(scope, name) for name in SOLVE_LAYERS)
        pair = metrics[f"{scope}.serve.solve_many_s"][0]
        solve = coalesced * pair + (1.0 - coalesced) * solo
        if scope == "ingest":
            hit = live_scope["serve.cache_hit_share"]
            front = layer(scope, "io.parse_s") + layer(scope, "serve.admit_s") + layer(scope, "engine.cache_get_s")
            solve = front + (1.0 - hit) * (solve + layer(scope, "engine.cache_put_s"))
        for name, value in live_scope.items():
            unit = "ms" if name.endswith("_ms") else ("count" if name.endswith("evictions") else "share")
            metrics[f"{scope}.{name}"] = (value, unit)
        metrics[f"{scope}.serve.residual_ms"] = (live_scope["serve.p50_ms"] - 1000.0 * solve, "ms")
    return metrics
