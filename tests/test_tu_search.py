"""The production ``t_u`` search, pinned bitwise to the bisection oracle.

:func:`repro.algo.kernels._newton_search` — Newton on the concave recursion
margin, an edge probe, then a replay of the bisection that sweeps only where
the bracket cannot decide — must return exactly the floats of the oracle
``_batched_bisection`` and the same ``kernels.bisection_iterations`` count.
Floats are compared through ``uint64`` views, so even a sign-of-zero
difference fails.  Also here: the vectorized tree dedup against grouping by
byte signatures, and the rejection of unusable bisection tolerances.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.algo.kernels as kernels_mod
from repro import obs
from repro.algo.general_solver import LocalMaxMinSolver
from repro.algo.kernels import (
    _batched_bisection,
    _dedup_groups,
    batched_upper_bounds,
    build_batched_trees,
)
from repro.algo.local_solver import IncrementalSolveState, SpecialFormLocalSolver
from repro.algo.upper_bound import DEFAULT_BISECTION_TOL, MAX_BISECTION_ITERATIONS
from repro.core.builder import InstanceBuilder
from repro.core.compiled import stack_compiled
from repro.distributed import DistributedLocalSolver, MessagePlane, SynchronousRuntime
from repro.distributed.agents import PhaseSchedule, VectorizedMaxMinProtocol
from repro.distributed.resilient import ResilientLocalSolver
from repro.generators import (
    cycle_instance,
    defect_cycle_instance,
    random_instance,
    random_special_form_instance,
    regular_special_form_instance,
)
from repro.transforms import to_special_form

from conftest import general_family, special_form_family


def family_cases() -> List[Tuple[str, object]]:
    """Special-form instances of every generator family (id, instance)."""
    cases = [(f"sf-{i}", inst) for i, inst in enumerate(special_form_family())]
    cases += [
        (f"general-{i}", to_special_form(inst).transformed)
        for i, inst in enumerate(general_family())
    ]
    cases += [
        ("defect-cycle", defect_cycle_instance(10)),
        (
            "regular-random",
            regular_special_form_instance(
                6, 3, constraint_rounds=2, coefficient_range=(0.5, 2.0), seed=8
            ),
        ),
        ("sf-medium", random_special_form_instance(120, delta_K=3, constraint_rounds=2, seed=5)),
    ]
    return cases


CASES = family_cases()
CASE_IDS = [case_id for case_id, _ in CASES]


def oracle_t(
    comp, r, tol=DEFAULT_BISECTION_TOL, max_iterations=MAX_BISECTION_ITERATIONS, targets=None
):
    """``t_u`` by the bisection oracle, over every tree (no dedup)."""
    return _batched_bisection(build_batched_trees(comp, r, targets), tol, max_iterations)


def assert_bitwise(actual, expected) -> None:
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def counted(fn):
    """Run ``fn`` with obs enabled; return (result, counters delta)."""
    prior = obs.enabled()
    obs.configure(enabled=True)
    try:
        mark = obs.counters_mark()
        result = fn()
        return result, obs.counters_since(mark)
    finally:
        obs.configure(enabled=prior)


def t_array(result, instance) -> np.ndarray:
    return np.array([result.upper_bounds[v] for v in instance.agents], dtype=np.float64)


class TestBitwiseAgainstOracle:
    @pytest.mark.parametrize("case_id,instance", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("R", [2, 3, 5])
    def test_families(self, case_id, instance, R):
        comp = instance.compiled()
        expected = oracle_t(comp, R - 2)
        assert_bitwise(batched_upper_bounds(comp, R - 2), expected)
        assert_bitwise(batched_upper_bounds(comp, R - 2, deduplicate=False), expected)

    def test_r8(self):
        comp = random_special_form_instance(200, delta_K=3, constraint_rounds=2, seed=13).compiled()
        (t, counters) = counted(lambda: batched_upper_bounds(comp, 6, deduplicate=False))
        expected, oracle_counters = counted(lambda: oracle_t(comp, 6))
        assert_bitwise(t, expected)
        assert (
            counters["kernels.bisection_iterations"]
            == oracle_counters["kernels.bisection_iterations"]
        )

    @pytest.mark.parametrize("tol", [1e-10, 1e-3, 0.0])
    @pytest.mark.parametrize("max_iterations", [1, 3, 200])
    def test_tolerances_and_iteration_caps(self, tol, max_iterations):
        for instance in (
            cycle_instance(12, coefficient_range=(0.5, 2.0), seed=2),
            random_special_form_instance(40, delta_K=3, constraint_rounds=2, seed=3),
        ):
            comp = instance.compiled()
            got, counters = counted(
                lambda: batched_upper_bounds(
                    comp, 1, tol=tol, max_iterations=max_iterations, deduplicate=False
                )
            )
            expected, oracle_counters = counted(
                lambda: oracle_t(comp, 1, tol=tol, max_iterations=max_iterations)
            )
            assert_bitwise(got, expected)
            assert counters.get("kernels.bisection_iterations", 0) == oracle_counters.get(
                "kernels.bisection_iterations", 0
            )

    def test_iteration_count_with_dedup_matches_oracle_on_representatives(self):
        comp = regular_special_form_instance(12, 3, constraint_rounds=2, seed=4).compiled()
        bt = build_batched_trees(comp, 1)
        reps, _ = _dedup_groups(bt)
        assert len(reps) < bt.num_trees
        _, counters = counted(lambda: batched_upper_bounds(comp, 1))
        _, oracle_counters = counted(
            lambda: _batched_bisection(
                bt.select(reps), DEFAULT_BISECTION_TOL, MAX_BISECTION_ITERATIONS
            )
        )
        assert (
            counters["kernels.bisection_iterations"]
            == oracle_counters["kernels.bisection_iterations"]
        )

    def test_targets_subset(self):
        comp = random_special_form_instance(60, delta_K=3, constraint_rounds=2, seed=6).compiled()
        targets = np.arange(3, comp.num_agents, 4)
        assert_bitwise(
            batched_upper_bounds(comp, 1, targets=targets), oracle_t(comp, 1, targets=targets)
        )

    def test_stacked_solve_batch(self):
        instances = [
            cycle_instance(20, coefficient_range=(0.5, 2.0), seed=s) for s in range(3)
        ] + [random_special_form_instance(30, delta_K=3, constraint_rounds=2, seed=9)]
        stacked = stack_compiled([inst.compiled() for inst in instances])
        assert_bitwise(batched_upper_bounds(stacked, 1), oracle_t(stacked, 1))
        for inst, result in zip(instances, SpecialFormLocalSolver(R=3).solve_batch(instances)):
            assert_bitwise(t_array(result, inst), oracle_t(inst.compiled(), 1))

    def test_stacked_solve_many(self):
        instances = [random_instance(24, seed=s) for s in range(3)]
        for result in LocalMaxMinSolver(R=3).solve_many(instances):
            special = result.transform.transformed
            assert_bitwise(
                t_array(result.special_form_result, special), oracle_t(special.compiled(), 1)
            )

    def test_incremental_apply_delta(self):
        inst = random_special_form_instance(40, delta_K=3, constraint_rounds=2, seed=6)
        state = IncrementalSolveState(SpecialFormLocalSolver(3), inst)
        for step in range(3):
            delta = state.comp.delta()
            i = state.instance.constraints[7 * step + 1]
            v = state.instance.agents_of_constraint(i)[0]
            delta.set_constraint_coefficient(i, v, 0.6 + 0.3 * step)
            state.apply_delta(delta.apply())
            assert_bitwise(state.t, oracle_t(state.comp, 1))

    def test_distributed_vectorized_tu_phase(self):
        inst = random_special_form_instance(30, delta_K=3, constraint_rounds=2, seed=2)
        schedule = PhaseSchedule(4)
        plane = MessagePlane(inst)
        protocol = VectorizedMaxMinProtocol(schedule)
        SynchronousRuntime(plane=plane).run_vectorized(protocol, schedule.total_rounds)
        assert_bitwise(protocol.t_u, oracle_t(plane.comp, schedule.r))

    def test_forced_replay(self, monkeypatch):
        """No Newton step and no probe: the replay's own sweeps decide everything."""
        monkeypatch.setattr(kernels_mod, "_NEWTON_STEPS", 0)
        comp = random_special_form_instance(50, delta_K=3, constraint_rounds=2, seed=7).compiled()
        for r in (0, 1, 2):
            got, counters = counted(lambda: batched_upper_bounds(comp, r, deduplicate=False))
            expected, oracle_counters = counted(lambda: oracle_t(comp, r))
            assert_bitwise(got, expected)
            assert counters.get("kernels.newton_steps", 0) == 0
            # Every decision sweeps, exactly as the oracle does.
            assert (
                counters["kernels.margin_evaluations"]
                == oracle_counters["kernels.margin_evaluations"]
            )

    def test_forced_compaction(self, monkeypatch):
        """Compact the live set at every chance; the result cannot move."""
        comp = stack_compiled(
            [cycle_instance(30, coefficient_range=(0.5, 2.0), seed=s).compiled() for s in range(3)]
        )
        expected = oracle_t(comp, 1)
        monkeypatch.setattr(kernels_mod, "_COMPACT_MIN_DROP", 1)
        monkeypatch.setattr(kernels_mod, "_COMPACT_FRACTION", 0.99)
        assert_bitwise(batched_upper_bounds(comp, 1, deduplicate=False), expected)

    def test_counters(self):
        comp = random_special_form_instance(80, delta_K=3, constraint_rounds=2, seed=1).compiled()
        _, counters = counted(lambda: batched_upper_bounds(comp, 1, deduplicate=False))
        _, oracle_counters = counted(lambda: oracle_t(comp, 1))
        assert counters["kernels.newton_steps"] > 0
        assert (
            counters["kernels.margin_evaluations"]
            < oracle_counters["kernels.margin_evaluations"]
        )
        assert "kernels.bisection_sweeps" not in counters
        assert "kernels.bisection_compactions" not in counters
        assert oracle_counters["kernels.margin_evaluations"] == (
            comp.num_agents + oracle_counters["kernels.bisection_iterations"]
        )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=4, max_value=40),
    delta_K=st.integers(min_value=2, max_value=4),
    rounds=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    r=st.integers(min_value=0, max_value=3),
)
def test_random_special_form_property(n, delta_K, rounds, seed, r):
    instance = random_special_form_instance(n, delta_K=delta_K, constraint_rounds=rounds, seed=seed)
    comp = instance.compiled()
    assert_bitwise(batched_upper_bounds(comp, r), oracle_t(comp, r))


# ----------------------------------------------------------------------
# Dedup: the vectorized partition equals grouping by byte signatures
# ----------------------------------------------------------------------


def signature_partition(bt) -> Tuple[np.ndarray, np.ndarray]:
    first: Dict[bytes, int] = {}
    representatives: List[int] = []
    group_of = []
    for t, sig in enumerate(bt.signatures()):
        g = first.setdefault(sig, len(representatives))
        if g == len(representatives):
            representatives.append(t)
        group_of.append(g)
    return np.asarray(representatives), np.asarray(group_of)


def permuted_twins():
    """Two objectives whose first agents' trees share keys but not signatures.

    Capacities (``1/a``): ``u1 = w1 = 1``; ``u2 = w3 = 0.5``;
    ``u3 = w2 = 0.25``.  At ``r = 0`` the trees of ``u1`` and ``w1`` hold the
    same root capacity and sibling capacities ``(0.5, 0.25)`` vs
    ``(0.25, 0.5)``: equal per-level sums, different entries.
    """
    b = InstanceBuilder()
    for k in ("u", "w"):
        for j in (1, 2, 3):
            b.add_objective_term(f"k{k}", f"{k}{j}", 1.0)
    for i, (u, w, a_u, a_w) in enumerate(
        [("u1", "w1", 1.0, 1.0), ("u2", "w2", 2.0, 4.0), ("u3", "w3", 4.0, 2.0)]
    ):
        b.add_constraint_term(f"i{i}", u, a_u)
        b.add_constraint_term(f"i{i}", w, a_w)
    return b.build()


class TestDedup:
    @pytest.mark.parametrize(
        "instance",
        [
            permuted_twins(),
            cycle_instance(12),
            cycle_instance(9, coefficient_range=(0.5, 2.0), seed=3),
            regular_special_form_instance(10, 3, constraint_rounds=2, seed=7),
            random_special_form_instance(30, delta_K=3, constraint_rounds=2, seed=5),
        ],
        ids=["permuted-twins", "cycle-unit", "cycle-random", "regular", "sf-random"],
    )
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_partition_matches_signatures(self, instance, r):
        bt = build_batched_trees(instance.compiled(), r)
        reps, group_of = _dedup_groups(bt)
        want_reps, want_group_of = signature_partition(bt)
        np.testing.assert_array_equal(reps, want_reps)
        np.testing.assert_array_equal(group_of, want_group_of)

    def test_equal_keys_with_different_entries_fall_back(self, monkeypatch):
        inst = permuted_twins()
        bt = build_batched_trees(inst.compiled(), 0)
        keys = bt.grouping_keys()
        u1, w1 = inst.agents.index("u1"), inst.agents.index("w1")
        assert np.array_equal(keys[u1], keys[w1])

        calls = []
        signatures = type(bt).signatures

        def spy(self):
            calls.append(self.num_trees)
            return signatures(self)

        monkeypatch.setattr(type(bt), "signatures", spy)
        reps, group_of = _dedup_groups(bt)
        assert calls, "the failed key group must fall back to byte signatures"
        assert group_of[u1] != group_of[w1]
        u2, w3 = inst.agents.index("u2"), inst.agents.index("w3")
        assert group_of[u2] == group_of[w3]


# ----------------------------------------------------------------------
# Unusable tolerances are rejected (a NaN one used to void Theorem 1)
# ----------------------------------------------------------------------

BAD_TOLS = [math.nan, math.inf, -1e-10]


class TestTolerance:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_batched_upper_bounds(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            batched_upper_bounds(cycle_instance(6).compiled(), 1, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_special_form_solver(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            SpecialFormLocalSolver(R=3, tu_tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_general_solver(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            LocalMaxMinSolver(R=3, tu_tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_distributed_solvers(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            DistributedLocalSolver(R=3, tu_tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            ResilientLocalSolver(R=3, tu_tol=tol)

    def test_zero_tolerance_is_accepted(self):
        inst = random_special_form_instance(50, seed=1)
        exact = SpecialFormLocalSolver(R=3, tu_tol=0.0).solve(inst).utility()
        default = SpecialFormLocalSolver(R=3).solve(inst).utility()
        assert exact == pytest.approx(default, abs=1e-9)
