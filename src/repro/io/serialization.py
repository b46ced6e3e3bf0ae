"""JSON (de)serialization of instances and solutions, and their content digest.

Node identifiers may be arbitrary hashables inside the library (the
transformation pipeline, for example, creates tuple-shaped ids); on disk we
store a tagged JSON form that round-trips every supported id type *by
identity*: strings, ints, bools, floats, and arbitrarily nested tuples of
those.  Faithful round-tripping matters beyond aesthetics — the engine's
result cache is addressed by :func:`instance_digest`, so an id that decodes
to a different object would make ``load(save(inst))`` hash differently and
silently miss every cached result.  Ids outside the supported set therefore
raise :class:`SerializationError` at save time instead of being degraded to
``repr`` strings (the historical behaviour; documents written by older
versions with ``repr``-encoded ids are still readable and decode to those
strings).

:func:`instance_digest` hashes the node lists and CSR arrays, not the JSON
text, so a decoded document is never serialised again just to be hashed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

import numpy as np

from .._types import NodeId
from ..core.instance import MaxMinInstance
from ..core.solution import Solution
from ..exceptions import InvalidInstanceError, SerializationError

#: Tag of the digest scheme; bump it whenever the hashed bytes change, so
#: results cached under an older scheme become misses instead of collisions.
DIGEST_VERSION = "repro.maxmin-lp.csr-digest/1"

__all__ = [
    "instance_to_json",
    "instance_from_json",
    "instance_from_payload",
    "instance_digest",
    "save_instance",
    "load_instance",
    "solution_to_json",
    "save_solution",
]


def _encode_id(node_id: NodeId) -> Any:
    """Encode a node id as JSON-compatible data (tagged for round-tripping)."""
    if isinstance(node_id, str):
        return node_id
    if isinstance(node_id, bool):  # bool before int: bool is an int subclass
        return {"__kind__": "bool", "value": node_id}
    if isinstance(node_id, int):
        return {"__kind__": "int", "value": node_id}
    if isinstance(node_id, float):
        # repr round-trips every float exactly (including inf/-inf/nan) and,
        # unlike a raw JSON number, survives json encoders that reject
        # non-finite values.
        return {"__kind__": "float", "value": repr(node_id)}
    if isinstance(node_id, tuple):
        return {"__kind__": "tuple", "items": [_encode_id(x) for x in node_id]}
    raise SerializationError(
        f"node id {node_id!r} of type {type(node_id).__name__} cannot be serialized "
        "faithfully; supported id types are str, int, bool, float and tuples thereof"
    )


def _decode_id(data: Any) -> NodeId:
    if isinstance(data, str):
        return data
    if isinstance(data, Mapping):
        kind = data.get("__kind__")
        if kind == "bool":
            return bool(data["value"])
        if kind == "int":
            return int(data["value"])
        if kind == "float":
            return float(data["value"])
        if kind == "tuple":
            return tuple(_decode_id(x) for x in data["items"])
        if kind == "repr":  # legacy documents (pre-tagged bools / exotic ids)
            return str(data["value"])
    raise SerializationError(f"cannot decode node id from {data!r}")


def instance_to_json(instance: MaxMinInstance) -> str:
    """Serialise an instance to a JSON string."""
    payload: Dict[str, Any] = {
        "format": "repro.maxmin-lp",
        "version": 1,
        "name": instance.name,
        "agents": [_encode_id(v) for v in instance.agents],
        "constraints": [_encode_id(i) for i in instance.constraints],
        "objectives": [_encode_id(k) for k in instance.objectives],
        "a": [
            {"constraint": _encode_id(i), "agent": _encode_id(v), "coefficient": coeff}
            for (i, v), coeff in sorted(instance.a_coefficients.items(), key=repr)
        ],
        "c": [
            {"objective": _encode_id(k), "agent": _encode_id(v), "coefficient": coeff}
            for (k, v), coeff in sorted(instance.c_coefficients.items(), key=repr)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def instance_from_json(text: str) -> MaxMinInstance:
    """Inverse of :func:`instance_to_json`: ``json.loads`` plus :func:`instance_from_payload`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return instance_from_payload(payload)


def instance_from_payload(payload: Any) -> MaxMinInstance:
    """Build an instance from an already-decoded instance document.

    Every invalid document raises :class:`SerializationError`; when the
    instance itself is invalid, the :class:`InvalidInstanceError` (or the
    ``ValueError`` of an unparsable coefficient) is its cause and lends it
    its message.
    """
    if not isinstance(payload, dict) or payload.get("format") != "repro.maxmin-lp":
        raise SerializationError("not a repro.maxmin-lp document")
    try:
        a = {
            (_decode_id(row["constraint"]), _decode_id(row["agent"])): float(row["coefficient"])
            for row in payload["a"]
        }
        c = {
            (_decode_id(row["objective"]), _decode_id(row["agent"])): float(row["coefficient"])
            for row in payload["c"]
        }
        return MaxMinInstance(
            agents=[_decode_id(x) for x in payload["agents"]],
            constraints=[_decode_id(x) for x in payload["constraints"]],
            objectives=[_decode_id(x) for x in payload["objectives"]],
            a=a,
            c=c,
            name=str(payload.get("name", "max-min-lp")),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed instance document: {exc}") from exc
    except (InvalidInstanceError, ValueError, OverflowError) as exc:
        # A well-formed document describing an invalid instance (unknown
        # ids, bad coefficients) is still a bad document, not a crash.
        raise SerializationError(str(exc)) from exc


def instance_digest(instance: Union[MaxMinInstance, str]) -> str:
    """Stable SHA-256 content digest of an instance.

    Hashes a JSON header (:data:`DIGEST_VERSION`, the name, the tagged agent,
    constraint and objective lists in node order), then the ``<i8``/``<f8``
    bytes of the compiled view's agent-major CSR (``con_indptr/indices/coeff``,
    ``obj_indptr/indices/coeff``; every constructor sorts rows by position).
    Two instances hash equal exactly when their names, node orders and
    coefficients coincide, whatever their coefficient maps' order.  Stable
    across processes (no ``hash()`` randomisation), so it addresses on-disk
    caches (see :mod:`repro.engine.cache`).  A string is parsed first.
    """
    if isinstance(instance, str):
        instance = instance_from_json(instance)
    nodes = (instance.agents, instance.constraints, instance.objectives)
    header = [DIGEST_VERSION, instance.name, *([_encode_id(x) for x in ids] for ids in nodes)]
    h = hashlib.sha256(json.dumps(header).encode("utf-8"))
    comp = instance.compiled()
    for side in ("con", "obj"):
        for part, dtype in (("indptr", "<i8"), ("indices", "<i8"), ("coeff", "<f8")):
            h.update(np.ascontiguousarray(getattr(comp, f"{side}_{part}"), dtype=dtype))
    return h.hexdigest()


def save_instance(instance: MaxMinInstance, path: Union[str, Path]) -> Path:
    """Write an instance to a ``.json`` file; returns the path."""
    path = Path(path)
    path.write_text(instance_to_json(instance), encoding="utf-8")
    return path


def load_instance(path: Union[str, Path]) -> MaxMinInstance:
    """Read an instance previously written by :func:`save_instance`."""
    return instance_from_json(Path(path).read_text(encoding="utf-8"))


def solution_to_json(solution: Solution, include_diagnostics: bool = True) -> str:
    """Serialise a solution (values plus optional diagnostics) to JSON."""
    payload: Dict[str, Any] = {
        "format": "repro.maxmin-solution",
        "version": 1,
        "label": solution.label,
        "instance": solution.instance.name,
        "values": [
            {"agent": _encode_id(v), "value": solution[v]} for v in solution.instance.agents
        ],
    }
    if include_diagnostics:
        payload["utility"] = solution.utility()
        payload["feasible"] = solution.is_feasible()
    return json.dumps(payload, indent=2)


def save_solution(solution: Solution, path: Union[str, Path]) -> Path:
    """Write a solution to a ``.json`` file; returns the path."""
    path = Path(path)
    path.write_text(solution_to_json(solution), encoding="utf-8")
    return path
