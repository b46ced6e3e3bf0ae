"""Serialization and graph-format interoperability."""

from .graphml import from_networkx, load_graphml, save_graphml, to_networkx
from .serialization import (
    instance_digest,
    instance_from_json,
    instance_from_payload,
    instance_to_json,
    load_instance,
    save_instance,
    save_solution,
    solution_to_json,
)

__all__ = [
    "instance_to_json",
    "instance_from_json",
    "instance_from_payload",
    "instance_digest",
    "save_instance",
    "load_instance",
    "solution_to_json",
    "save_solution",
    "to_networkx",
    "from_networkx",
    "save_graphml",
    "load_graphml",
]
