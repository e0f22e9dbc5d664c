"""Resource caps keeping every enumeration desk-scale.

Defaults: field order q <= 16, ambient dimension n <= 8, and at most
100_000 vertices for materialized Grassmann and Johnson graphs.
Override globally via :func:`set_caps`, or with the
``GRASSMANN_LAB_CAPS`` environment variable, e.g.
``GRASSMANN_LAB_CAPS="q=25,n=10"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import CapExceededError, ValidationError


@dataclass(frozen=True)
class Caps:
    q_max: int = 16
    n_max: int = 8
    graph_vertex_max: int = 100_000


_current = Caps()


def caps() -> Caps:
    return _current


def set_caps(q_max: int | None = None, n_max: int | None = None,
             graph_vertex_max: int | None = None) -> Caps:
    """Replace the active caps; ``None`` keeps the current value.  A cap
    below 1 admits nothing and is refused."""
    global _current
    updates = {}
    if q_max is not None:
        updates["q_max"] = q_max
    if n_max is not None:
        updates["n_max"] = n_max
    if graph_vertex_max is not None:
        updates["graph_vertex_max"] = graph_vertex_max
    for name, value in updates.items():
        if value < 1:
            raise ValidationError(f"cap {name} must be at least 1, got {value}")
    _current = replace(_current, **updates)
    return _current


def check_ambient_dim(n: int):
    """Refuse an ambient dimension above the cap."""
    if n > _current.n_max:
        raise CapExceededError(f"ambient dimension {n} exceeds cap {_current.n_max}")


def caps_from_env() -> Caps:
    """Apply overrides from a ``key=value`` comma list in GRASSMANN_LAB_CAPS."""
    raw = os.environ.get("GRASSMANN_LAB_CAPS")
    if not raw:
        return _current
    known = {"q": "q_max", "n": "n_max", "graph": "graph_vertex_max"}
    updates = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key not in known:
            raise ValidationError(f"unknown cap {key!r} in GRASSMANN_LAB_CAPS")
        try:
            updates[known[key]] = int(value)
        except ValueError as exc:
            raise ValidationError(f"cap {key!r} in GRASSMANN_LAB_CAPS is not an integer") from exc
    return set_caps(**updates)
