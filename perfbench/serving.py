"""Workloads ``serve-resident`` and ``serve-ingest``: one ``maxmin-lp serve``
subprocess under two closed-loop clients.

Closed loop: each client sends its next ``/v1/solve`` only after the
previous answer arrived.  Two connections on a two-core machine cannot
build the queue that admission control or an open-loop rate would need,
so these workloads report throughput and latency, not a rate under an SLO.

``serve-resident`` admits its instances in set-up and then asks by digest:
the §4 transform and preprocess are cached on the resident instance, so the
§5 kernels, coalescing and HTTP are the work.  ``serve-ingest`` sends the
whole document every time (every fourth is a re-send), so parse, digest,
admission, eviction and the result cache's writes are the work.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from inputs import (
    INGEST_NEW_PER_S,
    RESIDENT_KINDS,
    Scale,
    document_reference,
    ingest_document,
    ingest_sequence,
    request_body,
    resident_documents,
    resident_order,
)
from util import Gate, log, median, percentile, program_env, stop_process, values_equal, vm_hwm_mb

_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


def call(port: int, method: str, path: str, body: Optional[bytes] = None, timeout_s: float = 60.0):
    """One request on its own connection; ``(status, raw body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """A ``maxmin-lp serve --workers 2`` subprocess on an ephemeral port."""

    def __init__(self, work: Path, extra_args: List[str], tag: str) -> None:
        self.log_path = work / f"serve-{tag}.log"
        self._log = open(self.log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "2", *extra_args],
            cwd=work,
            env=program_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._wait_port(start + 120.0)
            while call(self.port, "GET", "/readyz")[0] != 200:
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _wait_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            match = _LISTENING.search(self.log_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not start: {self.log_path.read_text(errors='replace')[-500:]}")

    def post(self, body: bytes):
        return call(self.port, "POST", "/v1/solve", body)

    def metrics(self) -> dict:
        return json.loads(call(self.port, "GET", "/metrics")[1])

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        stop_process(self.proc)
        self._log.close()


def admit(server: Server, doc: str) -> str:
    """Make ``doc`` resident through ``/v1/info``; returns its digest."""
    body = b'{"instance": ' + doc.encode("utf-8") + b"}"
    status, raw = call(server.port, "POST", "/v1/info", body)
    payload = json.loads(raw)
    if status != 200 or not payload.get("ok"):
        raise RuntimeError(f"admission failed ({status}): {raw[:300]!r}")
    return payload["digest"]


def admit_warm(server: Server, docs: List[str]) -> Tuple[List[str], List[Tuple[str, int, bytes]]]:
    """Admit ``docs``, then solve each once by digest.

    The first solve of a resident instance builds what the instance caches
    (preprocess, the §4 transform); left to a timed load, those slow first
    answers would sit at its p95.  Returns the digests and the warm-up
    answers ``(digest, status, raw body)``, for :func:`check_solve`.
    """
    digests = [admit(server, doc) for doc in docs]
    return digests, [(d, *server.post(request_body(digest=d))) for d in digests]


def check_solve(status: int, raw: bytes, want: Dict[str, float]) -> str:
    """Empty string for a right answer; a wrong, non-200 or degraded one fails."""
    if status != 200:
        return f"HTTP {status}: {raw[:200]!r}"
    payload = json.loads(raw)
    if not payload.get("ok") or payload.get("degraded"):
        return f"not ok or degraded: {payload.get('degraded_reason') or payload.get('error')}"
    if not values_equal(payload["result"]["values"], want):
        return "values differ from the direct LocalMaxMinSolver(R=3).solve"
    return ""


def closed_loop(
    send: Callable[[int], Tuple[int, bytes]],
    on_answer: Callable[[int, int, bytes, float], None],
    seconds: float,
) -> Tuple[List[float], float]:
    """Two client threads, each sending request ``i`` after its previous answer.

    Request indices come from one shared counter, so the request sequence
    is fixed by the seed whatever the timing; at least one request is sent.
    Returns the latencies and the wall time from start to the last answer.
    """
    lock = threading.Lock()
    state = {"next": 0, "last_done": 0.0}
    latencies: List[float] = []
    errors: List[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        try:
            while True:
                with lock:
                    i = state["next"]
                    if time.perf_counter() >= deadline and i > 0:
                        return
                    state["next"] = i + 1
                t0 = time.perf_counter()
                status, raw = send(i)
                t1 = time.perf_counter()
                with lock:
                    latencies.append(t1 - t0)
                    state["last_done"] = max(state["last_done"], t1)
                on_answer(i, status, raw, t1 - t0)
        except BaseException as exc:  # reported after join; the run then fails
            errors.append(exc)

    threads = [threading.Thread(target=client, name=f"client-{k}") for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return latencies, state["last_done"] - start


def coalesced_share(before: Dict[str, float], after: Dict[str, float], requests: int) -> float:
    """Share of ``requests`` solve requests answered by a coalesced kernel pass.

    ``before`` and ``after`` are the server's counters around the requests,
    so admissions made in set-up do not dilute the share.
    """
    return (after.get("serve.coalesced_requests", 0) - before.get("serve.coalesced_requests", 0)) / requests


def _serve_metrics(latencies: List[float], wall: float, tail_q: float, setup_times, rss: float):
    return {
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "p50_ms": (1000.0 * median(latencies), "ms"),
        "tail_ms": (1000.0 * percentile(latencies, tail_q), "ms"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


# ----------------------------------------------------------------------
# serve-resident
# ----------------------------------------------------------------------


class Resident:
    """Set-up of serve-resident: documents, references, a ready server
    warmed by :func:`admit_warm` (the warm-up is part of ``setup_s``)."""

    def __init__(self, scale: Scale, seed: int, work: Path, gate: Gate, pool) -> None:
        self.docs = resident_documents(scale, seed)
        texts = [doc for _, doc in self.docs]
        refs = pool.map(document_reference, texts)
        self.setup_times: List[float] = []
        self.server: Optional[Server] = None
        warm: List[Tuple[str, int, bytes]] = []
        try:
            for rep in range(scale.setup_reps):
                if self.server is not None:
                    self.server.stop()
                start = time.perf_counter()
                self.server = Server(work, [], f"resident-{rep}")
                self.digests, answers = admit_warm(self.server, texts)
                warm += answers
                self.setup_times.append(time.perf_counter() - start)
            self.want = dict(zip(self.digests, refs))
            for digest, status, raw in warm:
                problem = check_solve(status, raw, self.want[digest])
                gate.check(not problem, f"serve-resident warm-up solve: {problem}")
        except BaseException:  # the caller stops the server only once set-up has returned
            if self.server is not None:
                self.server.stop()
            raise
        self.kind = {d: kind for d, (kind, _) in zip(self.digests, self.docs)}
        gate.check(len(set(self.digests)) == len(texts), "resident documents share a digest")


def run_resident(scale: Scale, seed: int, seconds: float, work: Path, gate: Gate, corrupt: bool, pool):
    res = Resident(scale, seed, work, gate, pool)
    try:
        if corrupt:
            first = res.want[res.digests[0]]
            first[next(iter(first))] += 1e-12
        order = resident_order(seed, res.digests, 1_000_000)
        bodies = {d: request_body(digest=d) for d in res.digests}
        answers: List[Tuple[int, int, bytes, float]] = []

        def send(i: int):
            return res.server.post(bodies[order[i]])

        def on_answer(i: int, status: int, raw: bytes, latency: float) -> None:
            answers.append((i, status, raw, latency))

        before = res.server.metrics()["counters"]
        latencies, wall = closed_loop(send, on_answer, seconds)
        rss = res.server.peak_rss_mb()
        counters = res.server.metrics()["counters"]
    finally:
        res.server.stop()
    # Checked after the timed window, so the clients spend no CPU on it.
    by_kind: Dict[str, List[float]] = {kind: [] for kind in RESIDENT_KINDS}
    for i, status, raw, latency in answers:
        problem = check_solve(status, raw, res.want[order[i]])
        gate.record(not problem, f"serve-resident request {i}: {problem}")
        by_kind[res.kind[order[i]]].append(latency)
    # p95: at ~450 requests a run, p99 would rest on fewer than ten samples.
    metrics = _serve_metrics(latencies, wall, 95.0, res.setup_times, rss)
    coalesced = coalesced_share(before, counters, len(latencies))
    report = [
        ("resident_rps", metrics["ops_per_s"][0], "1/s", f"{len(latencies)} requests"),
        ("resident_p50_ms", metrics["p50_ms"][0], "ms", f"{len(latencies)} samples"),
        ("resident_p95_ms", metrics["tail_ms"][0], "ms", f"{len(latencies)} samples"),
        ("setup_s", metrics["setup_s"][0], "s", f"median of {len(res.setup_times)} spawn+admit+warm-up set-ups"),
        ("peak_rss_mb", rss, "MB", "server VmHWM"),
        ("coalesced_share", coalesced, "share", "of the timed solve requests"),
    ] + [
        (f"{kind}_p50_ms", 1000.0 * median(v), "ms", f"{len(v)} samples") for kind, v in by_kind.items() if v
    ]
    return metrics, report


# ----------------------------------------------------------------------
# serve-ingest
# ----------------------------------------------------------------------


def run_ingest(scale: Scale, seed: int, seconds: float, work: Path, gate: Gate, corrupt: bool, pool):
    # Enough pre-encoded documents for ``INGEST_NEW_PER_S`` new ones per second.
    size = int(INGEST_NEW_PER_S * seconds) + 8
    docs = pool.starmap(ingest_document, [(scale.ingest_n, seed, i) for i in range(size)], chunksize=16)
    order, _ = ingest_sequence(seed, len(docs), 1_000_000)
    bodies = [request_body(doc_text=d) for d in docs]
    answers: List[Tuple[int, int, bytes]] = []
    setup_times = []
    server: Optional[Server] = None
    try:
        for rep in range(scale.setup_reps):
            if server is not None:
                server.stop()
            cache = work / f"ingest-cache-{rep}"
            start = time.perf_counter()
            server = Server(work, ["--cache-dir", str(cache), "--registry-capacity", "16"], f"ingest-{rep}")
            setup_times.append(time.perf_counter() - start)

        def send(i: int):
            return server.post(bodies[order[i]])

        def on_answer(i: int, status: int, raw: bytes, latency: float) -> None:
            answers.append((i, status, raw))

        latencies, wall = closed_loop(send, on_answer, seconds)
        rss = server.peak_rss_mb()
        snapshot = server.metrics()
    finally:
        if server is not None:
            server.stop()
    sent = sorted({order[i] for i, _, _ in answers})
    want = dict(zip(sent, pool.map(document_reference, [docs[k] for k in sent])))
    if corrupt:
        first = want[sent[0]]
        first[next(iter(first))] += 1e-12
    for i, status, raw in answers:
        problem = check_solve(status, raw, want[order[i]])
        gate.record(not problem, f"serve-ingest request {i}: {problem}")
    n = len(latencies)
    spent = ingest_sequence(seed, len(docs), n)[1]
    if spent:
        log(f"serve-ingest: the pool of {len(docs)} documents ran out; {spent} requests re-sent instead")
    metrics = _serve_metrics(latencies, wall, 90.0, setup_times, rss)
    counters = snapshot["counters"]
    report = [
        ("ingest_rps", metrics["ops_per_s"][0], "1/s", f"{n} requests, {len(sent)} distinct documents"),
        ("ingest_p50_ms", metrics["p50_ms"][0], "ms", f"{n} samples"),
        ("ingest_p90_ms", metrics["tail_ms"][0], "ms", f"{n} samples"),
        ("setup_s", metrics["setup_s"][0], "s", f"median of {len(setup_times)} spawn-to-ready set-ups"),
        ("peak_rss_mb", rss, "MB", "server VmHWM"),
        ("cache_hits", counters.get("serve.cache_hits", 0), "count", "server counter"),
        ("pool_spent_resends", spent, "count", f"pool of {len(docs)} documents"),
        ("evictions", snapshot["registry"]["evictions"], "count", "registry"),
    ]
    return metrics, report


def make_pool():
    """Two forked workers for untimed input generation and references.

    Fork, not spawn: a spawn-context pool names its semaphores and so starts
    multiprocessing's resource tracker, a process nobody waits for that
    outlives the benchmark by a moment.  A fork-context pool starts only its
    two workers, and ``close()`` + ``join()`` waits for both.
    """
    return multiprocessing.get_context("fork").Pool(2)
