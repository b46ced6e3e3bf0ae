"""Instances built from CSR arrays equal dict-declared ones, bit for bit.

``MaxMinInstance.__init__`` validates its coefficient maps with whole-array
checks and lowers them to CSR once; the §4 transform output and every
parsed document are built from CSR arrays as well.  These tests pin the
contract of that construction on every generator family plus the conftest
instances:

* equal coefficient maps, equal adjacency tuples for every node (checked
  against a per-node sort of the coefficient maps), the same digest, and
  compiled arrays equal in value and dtype to the per-node lowering
  oracle ``CompiledInstance(instance)``;
* instance digests, transformed-instance digests and ``LocalMaxMinSolver``
  values (``float.hex``, R ∈ {2, 3, 5}) pinned to the figures of the
  per-edge constructor this one replaced;
* the same exception class and message as that constructor for every kind
  of invalid input, naming the first offender in input order.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import numpy as np
import pytest

from conftest import build_degenerate_instance, build_general_instance, build_tiny_instance
from repro import obs
from repro.algo import LocalMaxMinSolver
from repro.core.compiled import CompiledInstance
from repro.core.instance import MaxMinInstance
from repro.core.preprocess import preprocess
from repro.exceptions import InvalidInstanceError
from repro.generators import (
    bandwidth_allocation_instance,
    cycle_instance,
    defect_cycle_instance,
    half_half_cycle_pair,
    hard_ring_pair,
    indistinguishable_cycle_pair,
    jitter_coefficients,
    objective_ring_instance,
    perturb_coefficient,
    random_instance,
    random_special_form_instance,
    regular_general_instance,
    regular_special_form_instance,
    sensor_network_instance,
    torus_instance,
)
from repro.io.serialization import instance_digest, instance_from_json, instance_to_json
from repro.transforms import apply_chain, canonical_transforms, vectorized_to_special_form

COMPILED_ARRAYS = (
    "con_indptr",
    "con_indices",
    "con_coeff",
    "obj_indptr",
    "obj_indices",
    "obj_coeff",
    "cagents_indptr",
    "cagents_indices",
    "cagents_coeff",
    "oagents_indptr",
    "oagents_indices",
    "oagents_coeff",
    "capacity",
)


def _perturbed() -> MaxMinInstance:
    base = random_instance(40, seed=5)
    i, v = next(iter(base.a_coefficients))
    return perturb_coefficient(base, i, v, 3.5)


FAMILIES: Dict[str, Callable[[], MaxMinInstance]] = {
    "cycle": lambda: cycle_instance(9, coefficient_range=(0.5, 2.0), seed=3),
    "defect_cycle": lambda: defect_cycle_instance(8),
    "torus": lambda: torus_instance(4, 3, coefficient_range=(0.5, 2.0), seed=1),
    "indistinguishable": lambda: indistinguishable_cycle_pair(6)[1],
    "half_half": lambda: half_half_cycle_pair(6)[1],
    "hard_ring": lambda: hard_ring_pair(4, 3)[1],
    "random": lambda: random_instance(40, seed=5),
    "random_zero_one": lambda: random_instance(
        30, zero_one=True, seed=2, extra_constraints=3, extra_objectives=2
    ),
    "jitter": lambda: jitter_coefficients(random_instance(40, seed=5), seed=1, jitter_objectives=True),
    "perturb": _perturbed,
    "random_special_form": lambda: random_special_form_instance(30, seed=4),
    "regular_special_form": lambda: regular_special_form_instance(
        6, 3, seed=1, coefficient_range=(0.5, 2.0)
    ),
    "regular_general": lambda: regular_general_instance(
        24, 3, 3, seed=2, coefficient_range=(0.5, 2.0)
    ),
    "objective_ring": lambda: objective_ring_instance(5, 3),
    "sensor": lambda: sensor_network_instance(20, 6, seed=3).instance,
    "bandwidth": lambda: bandwidth_allocation_instance(12, 6, seed=2).instance,
    "tiny": build_tiny_instance,
    "general": build_general_instance,
    "degenerate": build_degenerate_instance,
}

#: ``(instance digest, transformed digest prefix, {R: values hash})`` per
#: family, measured with the per-edge dict constructor.  The values hash is
#: the first 16 hex digits of the SHA-256 of the comma-joined ``float.hex``
#: of the solution in canonical agent order.
PINNED = {
    "bandwidth": (
        "b563959b4e7766c07caa6ec544c1e59622ed250c10797a97b8e6ea71dcbbc992",
        "b26c8303e420c59f",
        {2: "98696389982e02d0", 3: "cc2b95dab5493719", 5: "78be1d04e424a64d"},
    ),
    "cycle": (
        "3d37ddb0ea39a849d5f98d4b59cc6cf88697ccb3b996d65635b850cc8ee8a5d4",
        "3d37ddb0ea39a849",
        {2: "c4e9a20b6727f901", 3: "37a3ed559acdccc5", 5: "8de68ec2474499c2"},
    ),
    "defect_cycle": (
        "717804f7c5afe028502d2f0c8c535df1168b9bec786fef32ae3dffec6c37a904",
        "717804f7c5afe028",
        {2: "ece23c986db1aa59", 3: "073a8d1547762b4f", 5: "64beeb3778467200"},
    ),
    "degenerate": (
        "43090384599b41b7454d090d94186a7cb31db0a932da8a01556b0c673b6d0fdf",
        "8153d7e7f1cb50e3",
        {2: "7e8a9330db06fb30", 3: "7e8a9330db06fb30", 5: "7e8a9330db06fb30"},
    ),
    "general": (
        "04b79c18dac91932eade328ce475864025923459de9218daf48ff2e1151e308c",
        "c9104014c3afb702",
        {2: "78defd1d90c59453", 3: "cca9f0a6ee3a47ac", 5: "37dcd08d723c28b4"},
    ),
    "half_half": (
        "169c0d040df4fee4562e72378f628a9bb6a90a5656ee30408e75da057cad41d3",
        "169c0d040df4fee4",
        {2: "efc54da85419d805", 3: "fc54310f1c1f4d19", 5: "60e8ced2277ec222"},
    ),
    "hard_ring": (
        "bbc01cb93b45fb1ea3758681eed54ade313296eae6e32905e810e2c66af94244",
        "bbc01cb93b45fb1e",
        {2: "c053d721fc48db66", 3: "430ccb6951ccf963", 5: "0b2646833d6b0860"},
    ),
    "indistinguishable": (
        "96d577646192d58093674a9942cf959158296f30c6e67d194e3bc7a9d89bf9a6",
        "96d577646192d580",
        {2: "2d9fb84e29be3f82", 3: "bbf68c23578b114b", 5: "6fa52218876c1bb4"},
    ),
    "jitter": (
        "4f42a7377a467ed1bd00e13645bdc3eceb5ec6b3a80724a6d394ca007aa53b7b",
        "231ca4d9590cf79a",
        {2: "c9ccfc5a6a816eab", 3: "f8240ab89970a129", 5: "467b547824460f8c"},
    ),
    "objective_ring": (
        "e12fdb87fdd97a5be318b9cea4d61f48dee1f3279461f9a180cd856daff421c9",
        "e12fdb87fdd97a5b",
        {2: "27644ac8399f3bdc", 3: "3c549879e88cac24", 5: "3317df2cb618ccf2"},
    ),
    "perturb": (
        "f565c0817ddc3f0153fbfb5d4b2c2da0c71012f8b712fcd85d7cbc2bcc6cc24e",
        "1ff1df27b39bccd0",
        {2: "acaed34d85752f78", 3: "418be620ed2fc093", 5: "bf77d1ad52134a9f"},
    ),
    "random": (
        "a76ca2132c0cd52af099a2503dacc27d4de532c1bc4c42921ad76612590595d9",
        "97431a78b1e101f2",
        {2: "eb0c54b5cee5d14c", 3: "23fa9b4e9e45481d", 5: "ba628b8c3811432a"},
    ),
    "random_special_form": (
        "d511fed027ccc16f4ed599f537be226791e3ab7c419af1e6f167b46fddd7bead",
        "d511fed027ccc16f",
        {2: "30960baba038151c", 3: "370a981d75e5a96a", 5: "98dba501d3413dd6"},
    ),
    "random_zero_one": (
        "6edd6156999e56c54cf3a85d81b1eaef7445cf292f110a20d7547dd03d7f542e",
        "790230737ed080ce",
        {2: "01052a1e65daa97f", 3: "48d67955f7e1d317", 5: "e5409b7f2e809100"},
    ),
    "regular_general": (
        "550f617ec369c95ab53dcc5ef48953d506c79b65075e516ea7d5481d63609cab",
        "ace0654562b9af17",
        {2: "80f73e9229011bb3", 3: "83f2cb83441adbc8", 5: "eac21a76ffb78329"},
    ),
    "regular_special_form": (
        "5ea675b488ab5acfd5a4218eca70a83db41264e020257b368b760d2893a65d8c",
        "5ea675b488ab5acf",
        {2: "e468fadab2cd6829", 3: "b3952e5a36050ae7", 5: "f87570c6d017032b"},
    ),
    "sensor": (
        "85e8302006ba3417d0c5ab80373b4f4f263d5a3f794e786fb0393028dc58fe30",
        "266f5ef423957a16",
        {2: "5a69a4970b7246a3", 3: "3a0d6e0c98b210d4", 5: "1a6e1b1c56392889"},
    ),
    "tiny": (
        "b90a7360991af7ef39f43912bb9ff4238d5c3fe13ab024a6b2d5999e3356839c",
        "b90a7360991af7ef",
        {2: "19210efe34eaa7fe", 3: "19210efe34eaa7fe", 5: "19210efe34eaa7fe"},
    ),
    "torus": (
        "90b0fa48f749112ed3bc8efa9ef46b99aede502e0067fcd64bd519a1766a924e",
        "b83ab42ad373e245",
        {2: "ded43d84db1a7f4c", 3: "96670da0139e8a63", 5: "85b02defd0f90daa"},
    ),
}


def _values_hash(instance: MaxMinInstance, R: int) -> str:
    solution = LocalMaxMinSolver(R=R).solve(instance).solution
    text = ",".join(float(solution[v]).hex() for v in instance.agents)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _declared(instance: MaxMinInstance) -> MaxMinInstance:
    return MaxMinInstance(
        agents=instance.agents,
        constraints=instance.constraints,
        objectives=instance.objectives,
        a=instance.a_coefficients,
        c=instance.c_coefficients,
        name=instance.name,
    )


def _sorted_adjacency(instance: MaxMinInstance):
    """Adjacency of every node by a per-node sort of the coefficient maps."""
    position = {
        "agent": {v: p for p, v in enumerate(instance.agents)},
        "constraint": {i: p for p, i in enumerate(instance.constraints)},
        "objective": {k: p for p, k in enumerate(instance.objectives)},
    }
    rows = {}
    for side, coefficients in (("constraint", instance.a_coefficients), ("objective", instance.c_coefficients)):
        of_member = {m: [] for m in position[side]}
        of_agent = {v: [] for v in instance.agents}
        for m, v in coefficients:
            of_member[m].append(v)
            of_agent[v].append(m)
        rows[side] = {m: tuple(sorted(vs, key=position["agent"].__getitem__)) for m, vs in of_member.items()}
        rows[f"agent-{side}"] = {
            v: tuple(sorted(ms, key=position[side].__getitem__)) for v, ms in of_agent.items()
        }
    return rows


def assert_equivalent(built: MaxMinInstance, declared: MaxMinInstance) -> None:
    assert built.agents == declared.agents
    assert built.constraints == declared.constraints
    assert built.objectives == declared.objectives
    assert built.a_coefficients == declared.a_coefficients
    assert built.c_coefficients == declared.c_coefficients
    expected = _sorted_adjacency(declared)
    for v in declared.agents:
        assert built.constraints_of_agent(v) == expected["agent-constraint"][v]
        assert built.objectives_of_agent(v) == expected["agent-objective"][v]
    for i in declared.constraints:
        assert built.agents_of_constraint(i) == expected["constraint"][i]
    for k in declared.objectives:
        assert built.agents_of_objective(k) == expected["objective"][k]
    assert instance_digest(built) == instance_digest(declared)
    oracle = CompiledInstance(declared)
    for attr in COMPILED_ARRAYS:
        left, right = getattr(built.compiled(), attr), getattr(oracle, attr)
        assert left.dtype == right.dtype, attr
        assert np.array_equal(left, right), attr


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestEquivalence:
    def test_parsed_equals_declared(self, family):
        instance = FAMILIES[family]()
        assert_equivalent(instance_from_json(instance_to_json(instance)), _declared(instance))
        assert_equivalent(instance, _declared(instance))

    def test_transform_output_equals_reference_chain(self, family):
        clean = preprocess(FAMILIES[family]()).instance
        if clean.num_agents == 0:
            pytest.skip("nothing left to transform")
        fast = vectorized_to_special_form(clean).transformed
        reference = apply_chain(clean, canonical_transforms()).transformed
        assert_equivalent(fast, reference)

    def test_pinned_outputs(self, family):
        instance = FAMILIES[family]()
        digest, transformed_digest, values = PINNED[family]
        assert instance_digest(instance) == digest
        clean = preprocess(instance).instance
        if clean.num_agents:
            transformed = vectorized_to_special_form(clean).transformed
            assert instance_digest(transformed).startswith(transformed_digest)
        assert {R: _values_hash(instance, R) for R in (2, 3, 5)} == values


def test_transform_output_is_built_from_arrays():
    """The §4 output skips the per-node lowering: only ``from_arrays`` runs."""
    clean = preprocess(random_instance(30, seed=9)).instance
    obs.configure(enabled=True)
    try:
        mark = obs.counters_mark()
        result = vectorized_to_special_form(clean)
        counters = obs.counters_since(mark)
    finally:
        obs.configure(enabled=False)
        obs.reset()
    assert result.transformed is not clean
    assert counters.get("compile.from_arrays") == 1
    assert "compile.builds" not in counters
    assert result.transformed._compiled_cache is not None


# ----------------------------------------------------------------------
# Error parity with the per-edge constructor
# ----------------------------------------------------------------------


class _PairsMapping(dict):
    """A mapping whose ``items()`` may repeat a key (a duplicate edge)."""

    def __init__(self, pairs):
        super().__init__()
        self._pairs = list(pairs)

    def items(self):
        return iter(self._pairs)


def _build(agents=("u", "v"), constraints=("i",), objectives=("k",), a=None, c=None):
    if a is None:
        a = {("i", "u"): 1.0, ("i", "v"): 2.0}
    if c is None:
        c = {("k", "u"): 1.0, ("k", "v"): 1.0}
    return MaxMinInstance(agents, constraints, objectives, a, c)


ERROR_CASES = {
    "duplicate agent": (dict(agents=("u", "u")), InvalidInstanceError, "duplicate agent identifiers"),
    "duplicate constraint": (
        dict(constraints=("i", "i")),
        InvalidInstanceError,
        "duplicate constraint identifiers",
    ),
    "duplicate objective": (
        dict(objectives=("k", "k")),
        InvalidInstanceError,
        "duplicate objective identifiers",
    ),
    "unknown constraint": (
        dict(a={("i", "u"): 1.0, ("x", "v"): 1.0}),
        InvalidInstanceError,
        "coefficient a['x', 'v'] refers to unknown constraint 'x'",
    ),
    "unknown agent on a": (
        dict(a={("i", "u"): 1.0, ("i", "w"): 1.0}),
        InvalidInstanceError,
        "coefficient a['i', 'w'] refers to unknown agent 'w'",
    ),
    "unknown objective": (
        dict(c={("k", "u"): 1.0, ("y", "v"): 1.0}),
        InvalidInstanceError,
        "coefficient c['y', 'v'] refers to unknown objective 'y'",
    ),
    "unknown agent on c": (
        dict(c={("k", "w"): 1.0}),
        InvalidInstanceError,
        "coefficient c['k', 'w'] refers to unknown agent 'w'",
    ),
    "duplicate constraint edge": (
        dict(a=_PairsMapping([(("i", "u"), 1.0), (("i", "v"), 1.0), (("i", "u"), 3.0)])),
        InvalidInstanceError,
        "duplicate constraint coefficient for ('i', 'u')",
    ),
    "duplicate objective edge": (
        dict(c=_PairsMapping([(("k", "v"), 1.0), (("k", "v"), 1.0)])),
        InvalidInstanceError,
        "duplicate objective coefficient for ('k', 'v')",
    ),
    "zero coefficient": (
        dict(a={("i", "u"): 1.0, ("i", "v"): 0}),
        InvalidInstanceError,
        "constraint coefficient a['i', 'v'] = 0.0 must be positive and finite",
    ),
    "negative coefficient": (
        dict(c={("k", "u"): -2, ("k", "v"): 1.0}),
        InvalidInstanceError,
        "objective coefficient c['k', 'u'] = -2.0 must be positive and finite",
    ),
    "nan coefficient": (
        dict(a={("i", "u"): float("nan"), ("i", "v"): 1.0}),
        InvalidInstanceError,
        "constraint coefficient a['i', 'u'] = nan must be positive and finite",
    ),
    "inf coefficient": (
        dict(a={("i", "u"): 1.0, ("i", "v"): float("inf")}),
        InvalidInstanceError,
        "constraint coefficient a['i', 'v'] = inf must be positive and finite",
    ),
    "unparsable coefficient": (
        dict(a={("i", "u"): 1.0, ("i", "v"): "abc"}),
        ValueError,
        "could not convert string to float: 'abc'",
    ),
    # The first offender in input order wins, whatever its kind …
    "first offender wins": (
        dict(a={("i", "u"): -1.0, ("x", "v"): 1.0}),
        InvalidInstanceError,
        "constraint coefficient a['i', 'u'] = -1.0 must be positive and finite",
    ),
    "first offender wins over a later unparsable one": (
        dict(a={("i", "u"): -1.0, ("x", "v"): "abc"}),
        InvalidInstanceError,
        "constraint coefficient a['i', 'u'] = -1.0 must be positive and finite",
    ),
    "unparsable first offender": (
        dict(a={("i", "u"): "abc", ("x", "v"): -1.0}),
        ValueError,
        "could not convert string to float: 'abc'",
    ),
    # … and within one entry the id checks come before the coefficient.
    "id checked before coefficient": (
        dict(a={("i", "u"): 1.0, ("x", "v"): "abc"}),
        InvalidInstanceError,
        "coefficient a['x', 'v'] refers to unknown constraint 'x'",
    ),
    "a side before c side": (
        dict(a={("i", "u"): 1.0, ("i", "v"): -1.0}, c={("z", "u"): 1.0}),
        InvalidInstanceError,
        "constraint coefficient a['i', 'v'] = -1.0 must be positive and finite",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_parity(case):
    kwargs, exc_type, message = ERROR_CASES[case]
    with pytest.raises(exc_type) as excinfo:
        _build(**kwargs)
    assert type(excinfo.value) is exc_type
    assert str(excinfo.value) == message


def test_coefficient_keys_normalised_to_declared_ids():
    """Equal-but-distinct key objects map onto the declared node objects."""
    instance = _build(a={(np.str_("i"), np.str_("u")): 1.0, ("i", "v"): 2.0})
    ((i, v), _), _ = instance.a_coefficients.items()
    assert type(i) is str and type(v) is str
    assert instance_digest(instance) == instance_digest(_build())
