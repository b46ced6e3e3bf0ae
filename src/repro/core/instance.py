"""The :class:`MaxMinInstance` data model.

A max-min linear program (max-min LP) in the sense of Floréen, Kaasinen,
Kaski and Suomela (SPAA 2009) is

.. math::

    \\text{maximise } \\omega(x) = \\min_{k \\in K} \\sum_{v \\in V_k} c_{kv} x_v
    \\quad\\text{subject to}\\quad
    \\sum_{v \\in V_i} a_{iv} x_v \\le 1 \\;\\forall i \\in I, \\qquad x \\ge 0,

with strictly positive sparse coefficients.  The instance is represented by
its bipartite communication graph: agents ``V`` (variables), constraints
``I`` (rows of ``A``) and objectives ``K`` (rows of ``C``), with an edge
``{v, i}`` whenever ``a_iv > 0`` and an edge ``{v, k}`` whenever
``c_kv > 0``.

:class:`MaxMinInstance` is an immutable value object: all adjacency
structures are precomputed at construction time and the public accessors are
O(1) per call (degrees are bounded by the constants ``ΔI`` and ``ΔK``, so
"per-node work" really is constant — this matters for the locality claims
measured in the benchmarks).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .._types import (
    CoefficientMap,
    GraphNode,
    NodeId,
    NodeType,
    agent_node,
    constraint_node,
    objective_node,
)
from ..exceptions import InvalidInstanceError
from .compiled import CompiledInstance

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["MaxMinInstance", "DegreeStatistics"]


def _lower_coefficients(
    coefficients: Mapping[Tuple[NodeId, NodeId], float],
    members: Tuple[NodeId, ...],
    member_index: Dict[NodeId, int],
    agents: Tuple[NodeId, ...],
    agent_index: Dict[NodeId, int],
    letter: str,
    kind: str,
):
    """Validate one side's ``(member, agent) -> coefficient`` map and lower it to CSR.

    ``members`` are the constraints (``letter="a"``) or the objectives
    (``letter="c"``).  Every check runs over whole arrays; when one fails,
    the first offending entry in the mapping's iteration order is reported
    by :func:`_raise_coefficient_error`.  Returns ``(coeff_map, indptr,
    indices, coeff)``: ``coeff_map`` keeps the mapping's order with keys
    normalised to the declared node objects (coefficient keys may be
    equal-but-distinct objects, e.g. ``numpy.str_`` leaking out of a
    generator's sampling, and every derived structure must depend on node
    values only); the CSR arrays are agent-major with each row sorted by
    member canonical position.
    """
    items = list(coefficients.items())
    keys = [key for key, _ in items]
    raw = [value for _, value in items]
    mpos = [member_index.get(i, -1) for i, _ in keys]
    apos = [agent_index.get(v, -1) for _, v in keys]
    values: List[float] = []
    try:
        values.extend(map(float, raw))
    except Exception:  # raised again below if this entry is the first offender
        pass
    # ``values`` holds the prefix that converted; the entry after it (if
    # any) is an offender, and only earlier entries can precede it.
    n = len(values)
    m_arr = np.array(mpos[:n], dtype=np.int64)
    a_arr = np.array(apos[:n], dtype=np.int64)
    coeff = np.array(values, dtype=np.float64)
    order = np.lexsort((m_arr, a_arr))
    bad = (m_arr < 0) | (a_arr < 0) | ~(np.isfinite(coeff) & (coeff > 0.0))
    if n > 1:
        ms, as_ = m_arr[order], a_arr[order]
        repeat_edge = (ms[1:] == ms[:-1]) & (as_[1:] == as_[:-1]) & (ms[1:] >= 0) & (as_[1:] >= 0)
        bad[order[1:][repeat_edge]] = True
    if n < len(items) or bad.any():
        first = int(np.argmax(bad)) if bad.any() else n
        _raise_coefficient_error(
            keys[first], raw[first], mpos[first], apos[first], members, agents, letter, kind
        )
    indptr = np.zeros(len(agents) + 1, dtype=np.int64)
    if n:
        np.cumsum(np.bincount(a_arr, minlength=len(agents)), out=indptr[1:])
    coeff_map = dict(
        zip(zip(map(members.__getitem__, mpos), map(agents.__getitem__, apos)), values)
    )
    return coeff_map, indptr, m_arr[order], coeff[order]


def _raise_coefficient_error(key, raw, mpos, apos, members, agents, letter, kind):
    """Raise the error of one offending coefficient entry, checks in order."""
    i, v = key
    if mpos < 0:
        raise InvalidInstanceError(f"coefficient {letter}[{i!r}, {v!r}] refers to unknown {kind} {i!r}")
    if apos < 0:
        raise InvalidInstanceError(f"coefficient {letter}[{i!r}, {v!r}] refers to unknown agent {v!r}")
    i, v = members[mpos], agents[apos]
    coeff = float(raw)
    if not math.isfinite(coeff) or coeff <= 0.0:
        raise InvalidInstanceError(
            f"{kind} coefficient {letter}[{i!r}, {v!r}] = {coeff} must be positive and finite"
        )
    raise InvalidInstanceError(f"duplicate {kind} coefficient for ({i!r}, {v!r})")


def _rows_from_csr(row_nodes, col_nodes, indptr, indices) -> Dict[NodeId, Tuple[NodeId, ...]]:
    """``{row node: tuple of its column nodes}`` of one CSR family, in row order."""
    cols = list(map(col_nodes.__getitem__, indices.tolist()))
    bounds = indptr.tolist()
    return {node: tuple(cols[bounds[r] : bounds[r + 1]]) for r, node in enumerate(row_nodes)}


def _coefficients_from_csr(owners, members, indptr, indices, coeff) -> CoefficientMap:
    """The ``(member_id, owner_id) -> coefficient`` map of one CSR side, owner-major."""
    owner_rep = np.repeat(np.arange(len(owners), dtype=np.int64), np.diff(indptr))
    return dict(
        zip(
            zip(map(members.__getitem__, indices.tolist()), map(owners.__getitem__, owner_rep.tolist())),
            coeff.tolist(),
        )
    )


class DegreeStatistics:
    """Summary of the degree structure of an instance.

    Attributes
    ----------
    delta_I:
        Maximum constraint degree ``max_i |V_i|`` (0 if there are no
        constraints).
    delta_K:
        Maximum objective degree ``max_k |V_k|`` (0 if there are no
        objectives).
    max_agent_constraint_degree:
        ``max_v |I_v|``.
    max_agent_objective_degree:
        ``max_v |K_v|``.
    """

    __slots__ = (
        "delta_I",
        "delta_K",
        "max_agent_constraint_degree",
        "max_agent_objective_degree",
        "mean_constraint_degree",
        "mean_objective_degree",
    )

    def __init__(
        self,
        delta_I: int,
        delta_K: int,
        max_agent_constraint_degree: int,
        max_agent_objective_degree: int,
        mean_constraint_degree: float,
        mean_objective_degree: float,
    ) -> None:
        self.delta_I = delta_I
        self.delta_K = delta_K
        self.max_agent_constraint_degree = max_agent_constraint_degree
        self.max_agent_objective_degree = max_agent_objective_degree
        self.mean_constraint_degree = mean_constraint_degree
        self.mean_objective_degree = mean_objective_degree

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary (for reporting)."""
        return {
            "delta_I": self.delta_I,
            "delta_K": self.delta_K,
            "max_agent_constraint_degree": self.max_agent_constraint_degree,
            "max_agent_objective_degree": self.max_agent_objective_degree,
            "mean_constraint_degree": self.mean_constraint_degree,
            "mean_objective_degree": self.mean_objective_degree,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DegreeStatistics(delta_I={self.delta_I}, delta_K={self.delta_K}, "
            f"max|I_v|={self.max_agent_constraint_degree}, "
            f"max|K_v|={self.max_agent_objective_degree})"
        )


class MaxMinInstance:
    """An immutable max-min LP instance.

    Parameters
    ----------
    agents:
        Iterable of agent identifiers (the variables ``x_v``).
    constraints:
        Iterable of constraint identifiers (rows of ``A``).
    objectives:
        Iterable of objective identifiers (rows of ``C``).
    a:
        Mapping ``(constraint_id, agent_id) -> a_iv`` with ``a_iv > 0``.
        Pairs not present are treated as zero (no edge).
    c:
        Mapping ``(objective_id, agent_id) -> c_kv`` with ``c_kv > 0``.
    name:
        Optional human-readable name used in reports.

    Raises
    ------
    InvalidInstanceError
        If a coefficient is non-positive or refers to an undeclared node, or
        if identifiers within one node class are duplicated.  The checks run
        over whole arrays; the error names the first offending entry in the
        mapping's iteration order (``a`` before ``c``).
    """

    __slots__ = (
        "_agents",
        "_constraints",
        "_objectives",
        "_a",
        "_c",
        "_agents_of_constraint",
        "_agents_of_objective",
        "_constraints_of_agent",
        "_objectives_of_agent",
        "_agent_set",
        "_constraint_set",
        "_objective_set",
        "_graph_cache",
        "_compiled_cache",
        "_transform_cache",
        "_preprocess_cache",
        "name",
    )

    def __init__(
        self,
        agents: Iterable[NodeId],
        constraints: Iterable[NodeId],
        objectives: Iterable[NodeId],
        a: Mapping[Tuple[NodeId, NodeId], float],
        c: Mapping[Tuple[NodeId, NodeId], float],
        name: str = "max-min-lp",
    ) -> None:
        self._agents: Tuple[NodeId, ...] = tuple(agents)
        self._constraints: Tuple[NodeId, ...] = tuple(constraints)
        self._objectives: Tuple[NodeId, ...] = tuple(objectives)
        self.name = name
        self._agent_set = frozenset(self._agents)
        self._constraint_set = frozenset(self._constraints)
        self._objective_set = frozenset(self._objectives)

        if len(self._agent_set) != len(self._agents):
            raise InvalidInstanceError("duplicate agent identifiers")
        if len(self._constraint_set) != len(self._constraints):
            raise InvalidInstanceError("duplicate constraint identifiers")
        if len(self._objective_set) != len(self._objectives):
            raise InvalidInstanceError("duplicate objective identifiers")

        agent_index = {v: idx for idx, v in enumerate(self._agents)}
        self._a, *con = _lower_coefficients(
            a,
            self._constraints,
            {i: idx for idx, i in enumerate(self._constraints)},
            self._agents,
            agent_index,
            "a",
            "constraint",
        )
        self._c, *obj = _lower_coefficients(
            c,
            self._objectives,
            {k: idx for idx, k in enumerate(self._objectives)},
            self._agents,
            agent_index,
            "c",
            "objective",
        )
        self._attach_csr(con, obj, "compile.builds")

    def _attach_csr(self, con, obj, counter: str) -> None:
        """Shared tail of both constructors: derive everything from the CSR arrays.

        ``con`` / ``obj`` are the validated agent-major ``(indptr, indices,
        coeff)`` arrays of each side.  Attaches the compiled view and reads
        all four adjacency maps off its forward and reverse CSR families;
        ``counter`` names the obs counter of the constructor.
        """
        obs.count(counter)
        self._graph_cache: Optional["nx.Graph"] = None
        # §4 pipeline results cached per ``verify`` flag, exactly like
        # the compiled view: the instance is immutable, so a cached
        # TransformResult can never go stale.  Populated by
        # :func:`repro.transforms.pipeline.to_special_form`; an R-sweep that
        # revisits this instance runs the pipeline once.  (The result holds a
        # back-reference to this instance — a plain reference cycle, handled
        # by the cycle collector just like ``_compiled_cache``.)
        self._transform_cache: Optional[dict] = None
        # The preprocessing outcome is cached too (same rationale): a sweep
        # revisiting this instance cleans it once, and the *same* cleaned
        # instance object is reused — which is what keeps the cleaned
        # instance's own compiled/transform caches warm across R values.
        self._preprocess_cache = None
        self._compiled_cache = comp = CompiledInstance.from_arrays(self, *con, *obj)
        agents, cons, objs = self._agents, self._constraints, self._objectives
        self._constraints_of_agent = _rows_from_csr(agents, cons, comp.con_indptr, comp.con_indices)
        self._objectives_of_agent = _rows_from_csr(agents, objs, comp.obj_indptr, comp.obj_indices)
        self._agents_of_constraint = _rows_from_csr(cons, agents, comp.cagents_indptr, comp.cagents_indices)
        self._agents_of_objective = _rows_from_csr(objs, agents, comp.oagents_indptr, comp.oagents_indices)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def agents(self) -> Tuple[NodeId, ...]:
        """The agents ``V`` in canonical (declaration) order."""
        return self._agents

    @property
    def constraints(self) -> Tuple[NodeId, ...]:
        """The constraints ``I`` in canonical order."""
        return self._constraints

    @property
    def objectives(self) -> Tuple[NodeId, ...]:
        """The objectives ``K`` in canonical order."""
        return self._objectives

    @property
    def num_agents(self) -> int:
        return len(self._agents)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def num_objectives(self) -> int:
        return len(self._objectives)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes of the communication graph."""
        return self.num_agents + self.num_constraints + self.num_objectives

    @property
    def num_edges(self) -> int:
        """Total number of edges of the communication graph."""
        return len(self._a) + len(self._c)

    @property
    def agent_set(self) -> "frozenset[NodeId]":
        """The agents as a frozenset (for C-speed membership batch checks)."""
        return self._agent_set

    def has_agent(self, v: NodeId) -> bool:
        return v in self._agent_set

    def has_constraint(self, i: NodeId) -> bool:
        return i in self._constraint_set

    def has_objective(self, k: NodeId) -> bool:
        return k in self._objective_set

    # ------------------------------------------------------------------
    # Coefficients and adjacency
    # ------------------------------------------------------------------
    def a(self, i: NodeId, v: NodeId) -> float:
        """The constraint coefficient ``a_iv`` (0.0 if the edge is absent)."""
        return self._a.get((i, v), 0.0)

    def c(self, k: NodeId, v: NodeId) -> float:
        """The objective coefficient ``c_kv`` (0.0 if the edge is absent)."""
        return self._c.get((k, v), 0.0)

    @property
    def a_coefficients(self) -> CoefficientMap:
        """A copy of the sparse constraint coefficient map."""
        return dict(self._a)

    @property
    def c_coefficients(self) -> CoefficientMap:
        """A copy of the sparse objective coefficient map."""
        return dict(self._c)

    def agents_of_constraint(self, i: NodeId) -> Tuple[NodeId, ...]:
        """``V_i``: the agents adjacent to constraint ``i``."""
        try:
            return self._agents_of_constraint[i]
        except KeyError:
            raise InvalidInstanceError(f"unknown constraint {i!r}") from None

    def agents_of_objective(self, k: NodeId) -> Tuple[NodeId, ...]:
        """``V_k``: the agents adjacent to objective ``k``."""
        try:
            return self._agents_of_objective[k]
        except KeyError:
            raise InvalidInstanceError(f"unknown objective {k!r}") from None

    def constraints_of_agent(self, v: NodeId) -> Tuple[NodeId, ...]:
        """``I_v``: the constraints adjacent to agent ``v``."""
        try:
            return self._constraints_of_agent[v]
        except KeyError:
            raise InvalidInstanceError(f"unknown agent {v!r}") from None

    def objectives_of_agent(self, v: NodeId) -> Tuple[NodeId, ...]:
        """``K_v``: the objectives adjacent to agent ``v``."""
        try:
            return self._objectives_of_agent[v]
        except KeyError:
            raise InvalidInstanceError(f"unknown agent {v!r}") from None

    def other_agent(self, i: NodeId, v: NodeId) -> NodeId:
        """``n(v, i)``: the unique agent other than ``v`` in a degree-2 constraint.

        Only meaningful for special-form instances where ``|V_i| = 2``.
        """
        members = self.agents_of_constraint(i)
        if len(members) != 2:
            raise InvalidInstanceError(
                f"other_agent requires |V_i| = 2 but constraint {i!r} has degree {len(members)}"
            )
        if members[0] == v:
            return members[1]
        if members[1] == v:
            return members[0]
        raise InvalidInstanceError(f"agent {v!r} is not adjacent to constraint {i!r}")

    def unique_objective(self, v: NodeId) -> NodeId:
        """``k(v)``: the unique objective of agent ``v`` (special form only)."""
        ks = self.objectives_of_agent(v)
        if len(ks) != 1:
            raise InvalidInstanceError(
                f"unique_objective requires |K_v| = 1 but agent {v!r} has {len(ks)} objectives"
            )
        return ks[0]

    def objective_siblings(self, v: NodeId) -> Tuple[NodeId, ...]:
        """``N(v) = V_{k(v)} \\ {v}`` (special form only)."""
        k = self.unique_objective(v)
        return tuple(w for w in self.agents_of_objective(k) if w != v)

    def agent_capacity(self, v: NodeId) -> float:
        """``min_{i ∈ I_v} 1 / a_iv`` — the largest value ``x_v`` can take alone.

        Returns ``math.inf`` for agents with no adjacent constraint.
        """
        best = math.inf
        for i in self.constraints_of_agent(v):
            cap = 1.0 / self._a[(i, v)]
            if cap < best:
                best = cap
        return best

    def trivial_upper_bound(self) -> float:
        """A finite upper bound on the optimum of a non-degenerate instance.

        ``min_k Σ_{v ∈ V_k} c_kv · capacity(v)`` — every objective value is at
        most the sum of its agents' individual capacities.
        """
        best = math.inf
        for k in self._objectives:
            total = 0.0
            for v in self.agents_of_objective(k):
                cap = self.agent_capacity(v)
                if math.isinf(cap):
                    total = math.inf
                    break
                total += self._c[(k, v)] * cap
            if total < best:
                best = total
        return best

    # ------------------------------------------------------------------
    # Degree structure
    # ------------------------------------------------------------------
    @property
    def delta_I(self) -> int:
        """``ΔI = max_i |V_i|`` (0 when there are no constraints)."""
        if not self._constraints:
            return 0
        return max(len(vs) for vs in self._agents_of_constraint.values())

    @property
    def delta_K(self) -> int:
        """``ΔK = max_k |V_k|`` (0 when there are no objectives)."""
        if not self._objectives:
            return 0
        return max(len(vs) for vs in self._agents_of_objective.values())

    def degree_statistics(self) -> DegreeStatistics:
        """Compute :class:`DegreeStatistics` for this instance."""
        max_iv = max((len(x) for x in self._constraints_of_agent.values()), default=0)
        max_kv = max((len(x) for x in self._objectives_of_agent.values()), default=0)
        mean_i = (
            sum(len(x) for x in self._agents_of_constraint.values()) / self.num_constraints
            if self.num_constraints
            else 0.0
        )
        mean_k = (
            sum(len(x) for x in self._agents_of_objective.values()) / self.num_objectives
            if self.num_objectives
            else 0.0
        )
        return DegreeStatistics(
            delta_I=self.delta_I,
            delta_K=self.delta_K,
            max_agent_constraint_degree=max_iv,
            max_agent_objective_degree=max_kv,
            mean_constraint_degree=mean_i,
            mean_objective_degree=mean_k,
        )

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------
    def is_degenerate(self) -> bool:
        """True if some node has degree 0 (see paper §4, opening remarks)."""
        return bool(self.degeneracies())

    def degeneracies(self) -> Dict[str, Tuple[NodeId, ...]]:
        """Classify degree-0 nodes.

        Returns a dict with keys ``isolated_constraints``,
        ``isolated_objectives``, ``non_contributing_agents`` (agents with no
        objective) and ``unconstrained_agents`` (agents with no constraint);
        only non-empty categories are present.
        """
        out: Dict[str, Tuple[NodeId, ...]] = {}
        iso_i = tuple(i for i in self._constraints if not self._agents_of_constraint[i])
        iso_k = tuple(k for k in self._objectives if not self._agents_of_objective[k])
        no_obj = tuple(v for v in self._agents if not self._objectives_of_agent[v])
        no_con = tuple(v for v in self._agents if not self._constraints_of_agent[v])
        if iso_i:
            out["isolated_constraints"] = iso_i
        if iso_k:
            out["isolated_objectives"] = iso_k
        if no_obj:
            out["non_contributing_agents"] = no_obj
        if no_con:
            out["unconstrained_agents"] = no_con
        return out

    def is_special_form(self, tol: float = 1e-12) -> bool:
        """True if the instance satisfies the §5 preconditions.

        The special form requires ``|V_i| = 2``, ``|V_k| ≥ 2``, ``|K_v| = 1``,
        ``|I_v| ≥ 1`` and ``c_kv = 1`` for every node / edge.

        Evaluated as whole-array degree checks over the cached compiled view
        (this runs before *every* §5 solve, so it must not cost a per-node
        Python loop); :meth:`special_form_violations` remains the per-node
        reporting oracle and defines the semantics.
        """
        comp = self.compiled()
        if comp.num_constraints and not bool(
            (np.diff(comp.cagents_indptr) == 2).all()
        ):
            return False
        if comp.num_objectives and not bool(
            (np.diff(comp.oagents_indptr) >= 2).all()
        ):
            return False
        if comp.num_agents:
            if not bool((np.diff(comp.obj_indptr) == 1).all()):
                return False
            if not bool((np.diff(comp.con_indptr) >= 1).all()):
                return False
        if len(comp.oagents_coeff) and not bool(
            (np.abs(comp.oagents_coeff - 1.0) <= tol).all()
        ):
            return False
        return True

    def special_form_violations(self, tol: float = 1e-12) -> List[str]:
        """Human-readable list of §5 precondition violations (empty if none)."""
        problems: List[str] = []
        for i in self._constraints:
            if len(self._agents_of_constraint[i]) != 2:
                problems.append(
                    f"constraint {i!r} has degree {len(self._agents_of_constraint[i])}, expected 2"
                )
        for k in self._objectives:
            if len(self._agents_of_objective[k]) < 2:
                problems.append(
                    f"objective {k!r} has degree {len(self._agents_of_objective[k])}, expected >= 2"
                )
        for v in self._agents:
            if len(self._objectives_of_agent[v]) != 1:
                problems.append(
                    f"agent {v!r} has {len(self._objectives_of_agent[v])} objectives, expected 1"
                )
            if len(self._constraints_of_agent[v]) < 1:
                problems.append(f"agent {v!r} has no constraints")
        for (k, v), coeff in self._c.items():
            if abs(coeff - 1.0) > tol:
                problems.append(f"objective coefficient c[{k!r}, {v!r}] = {coeff} != 1")
        return problems

    def has_zero_one_coefficients(self, tol: float = 1e-12) -> bool:
        """True if every coefficient equals 1 (the {0,1}-coefficient case)."""
        return all(abs(x - 1.0) <= tol for x in self._a.values()) and all(
            abs(x - 1.0) <= tol for x in self._c.values()
        )

    def is_bipartite_maxmin(self) -> bool:
        """True in the paper's "bipartite max-min LP" sense.

        Each agent is adjacent to exactly one constraint and exactly one
        objective (each column of ``A`` and of ``C`` has a single non-zero).
        """
        return all(
            len(self._constraints_of_agent[v]) == 1 and len(self._objectives_of_agent[v]) == 1
            for v in self._agents
        )

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def communication_graph(self) -> "nx.Graph":
        """The communication graph ``G`` as a :class:`networkx.Graph`.

        Nodes are ``(NodeType, id)`` pairs carrying a ``kind`` attribute;
        edges carry the coefficient in attribute ``coeff``.

        The instance is immutable, so the graph is built once and the *same*
        object is returned on every call (``is_connected``, dynamics diffing
        and GraphML export previously each paid a full reconstruction).
        Treat it as read-only — call ``.copy()`` before mutating.
        """
        if self._graph_cache is not None:
            return self._graph_cache
        import networkx as nx

        g = nx.Graph(name=self.name)
        for v in self._agents:
            g.add_node(agent_node(v), kind=NodeType.AGENT)
        for i in self._constraints:
            g.add_node(constraint_node(i), kind=NodeType.CONSTRAINT)
        for k in self._objectives:
            g.add_node(objective_node(k), kind=NodeType.OBJECTIVE)
        for (i, v), coeff in self._a.items():
            g.add_edge(constraint_node(i), agent_node(v), coeff=coeff)
        for (k, v), coeff in self._c.items():
            g.add_edge(objective_node(k), agent_node(v), coeff=coeff)
        self._graph_cache = g
        return g

    def compiled(self) -> "CompiledInstance":
        """The :class:`~repro.core.compiled.CompiledInstance` view.

        The int-indexed CSR arrays the vectorized solver kernels run on;
        every constructor builds it, and the instance is immutable, so the
        view can never go stale.
        """
        return self._compiled_cache

    def neighbours(self, node: GraphNode) -> Tuple[GraphNode, ...]:
        """Neighbours of a ``(NodeType, id)`` node in the communication graph."""
        kind, name = node
        if kind is NodeType.AGENT:
            return tuple(constraint_node(i) for i in self.constraints_of_agent(name)) + tuple(
                objective_node(k) for k in self.objectives_of_agent(name)
            )
        if kind is NodeType.CONSTRAINT:
            return tuple(agent_node(v) for v in self.agents_of_constraint(name))
        if kind is NodeType.OBJECTIVE:
            return tuple(agent_node(v) for v in self.agents_of_objective(name))
        raise InvalidInstanceError(f"unknown node kind {kind!r}")

    def is_connected(self) -> bool:
        """True if the communication graph is connected (or empty)."""
        if self.num_nodes == 0:
            return True
        import networkx as nx

        return nx.is_connected(self.communication_graph())

    def connected_components(self) -> List["MaxMinInstance"]:
        """Split the instance into one sub-instance per connected component.

        Each component is a max-min LP in its own right; the optimum of the
        whole instance is the minimum of the component optima, and solutions
        of components concatenate to a solution of the whole instance.
        """
        if self.num_nodes == 0:
            return []
        import networkx as nx

        g = self.communication_graph()
        components = []
        for idx, nodes in enumerate(nx.connected_components(g)):
            agents = [n for t, n in nodes if t is NodeType.AGENT]
            constraints = [n for t, n in nodes if t is NodeType.CONSTRAINT]
            objectives = [n for t, n in nodes if t is NodeType.OBJECTIVE]
            components.append(self.sub_instance(agents, constraints, objectives, name=f"{self.name}#cc{idx}"))
        return components

    def sub_instance(
        self,
        agents: Sequence[NodeId],
        constraints: Sequence[NodeId],
        objectives: Sequence[NodeId],
        name: Optional[str] = None,
    ) -> "MaxMinInstance":
        """Restrict the instance to the given node subsets.

        Coefficients are kept only when both endpoints survive.  The canonical
        order of the parent instance is preserved.
        """
        agent_sel = set(agents)
        constraint_sel = set(constraints)
        objective_sel = set(objectives)
        a = {
            (i, v): coeff
            for (i, v), coeff in self._a.items()
            if i in constraint_sel and v in agent_sel
        }
        c = {
            (k, v): coeff
            for (k, v), coeff in self._c.items()
            if k in objective_sel and v in agent_sel
        }
        return MaxMinInstance(
            agents=[v for v in self._agents if v in agent_sel],
            constraints=[i for i in self._constraints if i in constraint_sel],
            objectives=[k for k in self._objectives if k in objective_sel],
            a=a,
            c=c,
            name=name or f"{self.name}#sub",
        )

    # ------------------------------------------------------------------
    # Equality / hashing / representation
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "MaxMinInstance", tol: float = 0.0) -> bool:
        """True if both instances have identical nodes, edges and coefficients.

        With ``tol > 0`` coefficients may differ by at most ``tol``.
        """
        if (
            set(self._agents) != set(other._agents)
            or set(self._constraints) != set(other._constraints)
            or set(self._objectives) != set(other._objectives)
            or set(self._a) != set(other._a)
            or set(self._c) != set(other._c)
        ):
            return False
        for key, val in self._a.items():
            if abs(val - other._a[key]) > tol:
                return False
        for key, val in self._c.items():
            if abs(val - other._c[key]) > tol:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxMinInstance):
            return NotImplemented
        return self.structurally_equal(other, tol=0.0)

    def __hash__(self) -> int:
        # Only what ``__eq__`` compares, and order-free like it: equal
        # instances with permuted node orders must hash alike.
        return hash(
            (self._agent_set, self._constraint_set, self._objective_set, len(self._a), len(self._c))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaxMinInstance(name={self.name!r}, |V|={self.num_agents}, "
            f"|I|={self.num_constraints}, |K|={self.num_objectives}, "
            f"deltaI={self.delta_I}, deltaK={self.delta_K})"
        )

    # ------------------------------------------------------------------
    # Serialization helpers (thin; full logic lives in repro.io)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-compatible dictionary (node ids are converted to strings
        only by :mod:`repro.io.serialization`; here they are passed through).
        """
        return {
            "name": self.name,
            "agents": list(self._agents),
            "constraints": list(self._constraints),
            "objectives": list(self._objectives),
            "a": [[i, v, coeff] for (i, v), coeff in sorted(self._a.items(), key=repr)],
            "c": [[k, v, coeff] for (k, v), coeff in sorted(self._c.items(), key=repr)],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MaxMinInstance":
        """Inverse of :meth:`to_dict`."""
        a = {(i, v): float(coeff) for i, v, coeff in data["a"]}  # type: ignore[index]
        c = {(k, v): float(coeff) for k, v, coeff in data["c"]}  # type: ignore[index]
        return cls(
            agents=list(data["agents"]),  # type: ignore[arg-type]
            constraints=list(data["constraints"]),  # type: ignore[arg-type]
            objectives=list(data["objectives"]),  # type: ignore[arg-type]
            a=a,
            c=c,
            name=str(data.get("name", "max-min-lp")),
        )

    @classmethod
    def from_arrays(
        cls,
        agents: Sequence[NodeId],
        constraints: Sequence[NodeId],
        objectives: Sequence[NodeId],
        con_indptr,
        con_indices,
        con_coeff,
        obj_indptr,
        obj_indices,
        obj_coeff,
        name: str = "max-min-lp",
    ) -> "MaxMinInstance":
        """Trusted constructor from pre-validated CSR arrays.

        ``con_*`` holds the per-agent constraint edges (``con_indices`` are
        positions into ``constraints``, rows in canonical adjacency order),
        ``obj_*`` the per-agent objective edges.  The caller vouches that the
        arrays describe a valid instance — node identifiers unique,
        coefficients positive and finite, no duplicate edges, rows sorted by
        member canonical position — so ``__init__``'s validation and sort are
        skipped; the arrays go straight to the shared tail, which attaches
        the matching :class:`~repro.core.compiled.CompiledInstance`.  The
        result is indistinguishable (equal dicts, digest, hash, compiled
        arrays) from declaring the instance via ``__init__``; only the
        coefficient maps' iteration order differs (agent-major here, the
        mapping's own order there).
        """
        self = cls.__new__(cls)
        self._agents = tuple(agents)
        self._constraints = tuple(constraints)
        self._objectives = tuple(objectives)
        self.name = name
        self._agent_set = frozenset(self._agents)
        self._constraint_set = frozenset(self._constraints)
        self._objective_set = frozenset(self._objectives)
        self._a = _coefficients_from_csr(self._agents, self._constraints, con_indptr, con_indices, con_coeff)
        self._c = _coefficients_from_csr(self._agents, self._objectives, obj_indptr, obj_indices, obj_coeff)
        self._attach_csr(
            (con_indptr, con_indices, con_coeff),
            (obj_indptr, obj_indices, obj_coeff),
            "compile.from_arrays",
        )
        return self
