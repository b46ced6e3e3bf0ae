"""Seeded inputs of every workload, and the sizes they are made at.

The program under test sees only what these functions produce: instance
files written by ``maxmin-lp generate`` and request bodies.  The same seed
always gives the same inputs.  :data:`FULL` is the benchmark; :data:`TINY`
is the self-test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: ``R`` of every serve request (the server default).
SERVE_R = 3
#: ``R`` of the ``--dist`` command.
DIST_R = 8
SWEEP_R_VALUES = (2, 3, 4, 5)
#: New serve-ingest documents per second of measurement the pool is sized for.
INGEST_NEW_PER_S = 20


@dataclass(frozen=True)
class Scale:
    cli_small: int
    cli_large: int
    cli_dist: int
    sweep_sizes: Tuple[int, ...]
    resident_n: int
    resident_per_kind: int
    ingest_n: int
    setup_reps: int


FULL = Scale(
    cli_small=1000,
    cli_large=10000,
    cli_dist=10000,
    sweep_sizes=(500, 1000, 2000, 4000),
    resident_n=2000,
    resident_per_kind=8,
    ingest_n=1000,
    setup_reps=3,
)

TINY = Scale(
    cli_small=60,
    cli_large=120,
    cli_dist=60,
    sweep_sizes=(20, 30),
    resident_n=60,
    resident_per_kind=2,
    ingest_n=40,
    setup_reps=2,
)


def sub_seed(seed: int, stream: int, index: int = 0) -> int:
    """Independent generator seeds derived from the run seed."""
    return (seed * 1_000_003 + stream * 10_007 + index) % (2**31 - 1)


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------

CLI_FILES = ("small.json", "large.json", "sf.json")
CLI_COMMANDS = ("solve_small", "solve_large", "solve_dist", "sweep")


def cli_generate_args(scale: Scale, seed: int) -> List[List[str]]:
    """The ``maxmin-lp generate`` calls of one cli-cold set-up."""
    return [
        ["generate", "random", "small.json", "--size", str(scale.cli_small), "--seed", str(sub_seed(seed, 1))],
        ["generate", "random", "large.json", "--size", str(scale.cli_large), "--seed", str(sub_seed(seed, 2))],
        ["generate", "special-form", "sf.json", "--size", str(scale.cli_dist), "--seed", str(sub_seed(seed, 3))],
    ]


def sweep_seed(seed: int) -> int:
    return sub_seed(seed, 4)


def cli_command_args(name: str, scale: Scale, seed: int, cache_dir: str) -> List[str]:
    if name == "solve_small":
        return ["solve", "small.json", "-R", "3", "--output", "out-small.json"]
    if name == "solve_large":
        return ["solve", "large.json", "-R", "3", "--output", "out-large.json"]
    if name == "solve_dist":
        return [
            "solve", "sf.json", "--dist", "-R", str(DIST_R),
            "--drop-fraction", "0.05", "--drop-round", "3", "--output", "out-dist.json",
        ]
    if name == "sweep":
        return [
            "sweep", "random",
            "--sizes", *map(str, scale.sweep_sizes),
            "--r-values", *map(str, SWEEP_R_VALUES),
            "--jobs", "2", "--seed", str(sweep_seed(seed)),
            "--cache-dir", cache_dir, "--full-table",
        ]
    raise ValueError(f"unknown cli-cold command {name!r}")


def dist_fault_plan():
    """The fault plan ``solve --dist --drop-fraction 0.05 --drop-round 3`` builds."""
    from repro.faults import FaultPlan, MessageFault

    return FaultPlan(
        seed=0,
        message_faults=(MessageFault(round_number=3, fraction=0.05, attempts=(0,)),),
    )


# ----------------------------------------------------------------------
# serve-resident
# ----------------------------------------------------------------------

RESIDENT_KINDS = ("special", "regular", "general")


def resident_documents(scale: Scale, seed: int) -> List[Tuple[str, str]]:
    """``(kind, instance JSON)`` for the instances serve-resident admits.

    ``special`` are random special-form instances (no shared trees),
    ``regular`` are regular special-form instances whose alternating trees
    dedup to a handful of distinct ones, ``general`` need the §4 transform.
    """
    from repro.generators import (
        random_instance,
        random_special_form_instance,
        regular_special_form_instance,
    )
    from repro.io.serialization import instance_to_json

    n = scale.resident_n
    out = []
    for i in range(scale.resident_per_kind):
        out.append(("special", instance_to_json(random_special_form_instance(n, seed=sub_seed(seed, 10, i)))))
        # delta_K = 3 objectives of 3 agents each: n // 3 objectives, made even.
        objectives = (n // 3) & ~1
        out.append(
            ("regular", instance_to_json(regular_special_form_instance(objectives, 3, seed=sub_seed(seed, 11, i))))
        )
        out.append(("general", instance_to_json(random_instance(n, seed=sub_seed(seed, 12, i)))))
    return out


def resident_order(seed: int, digests: List[str], count: int) -> List[str]:
    """Seeded shuffles of all ``digests``, one after another.

    Every run asks for each instance (so each kind) equally often, so the
    seed changes the order but not the mix of cheap and dear requests.
    """
    rng = random.Random(sub_seed(seed, 13))
    order: List[str] = []
    while len(order) < count:
        block = list(digests)
        rng.shuffle(block)
        order += block
    return order[:count]


# ----------------------------------------------------------------------
# serve-ingest
# ----------------------------------------------------------------------


def ingest_document(n: int, seed: int, index: int) -> str:
    """One distinct random general instance of the ingest pool."""
    from repro.generators import random_instance
    from repro.io.serialization import instance_to_json

    return instance_to_json(random_instance(n, seed=sub_seed(seed, 20, index)))


def ingest_sequence(seed: int, pool_size: int, count: int) -> Tuple[List[int], int]:
    """Document index per request, and how many requests found the pool spent.

    Every fourth request re-sends an earlier document, chosen uniformly from
    those sent before it; the rest send the next new document.  A re-send is
    answered from the result cache, far faster than a new document, so the
    share of re-sends is fixed rather than drawn, and the seed does not move
    throughput through it.  When the pool is spent, a request that would
    send a new one re-sends instead (counted, so a program fast enough to
    spend the pool shows in the record).
    """
    rng = random.Random(sub_seed(seed, 21))
    order: List[int] = []
    fresh = 0
    spent = 0
    for i in range(count):
        repeat = i % 4 == 3
        if not repeat and fresh >= pool_size:
            repeat, spent = True, spent + 1
        if repeat:
            order.append(order[rng.randrange(len(order))])
        else:
            order.append(fresh)
            fresh += 1
    return order, spent


def request_body(doc_text: Optional[str] = None, digest: Optional[str] = None) -> bytes:
    """A ``/v1/solve`` body: ``R = 3`` with values, by document or by digest."""
    head = {"R": SERVE_R, "include_values": True}
    if digest is not None:
        head["digest"] = digest
        return json.dumps(head).encode("utf-8")
    # Splice the pre-encoded document in, instead of re-encoding it per request.
    return json.dumps(head)[:-1].encode("utf-8") + b', "instance": ' + doc_text.encode("utf-8") + b"}"


def document_reference(doc_text: str) -> Dict[str, float]:
    """Values of a direct ``LocalMaxMinSolver(R=3).solve`` of the document."""
    from repro.algo.general_solver import LocalMaxMinSolver
    from repro.io.serialization import instance_from_json

    from util import reference_values as normalise

    return normalise(LocalMaxMinSolver(R=SERVE_R).solve(instance_from_json(doc_text)).solution)
