"""DOT export with stable ordering, so outputs diff cleanly."""

from __future__ import annotations

from .grassmannian import GrassmannianSpec, distance_rows
from .johnson import johnson_adjacent, johnson_vertices, vertex_indices
from .subspaces import Subspace


def _rows_label(s: Subspace) -> str:
    return "[" + ";".join(",".join(str(x) for x in row) for row in s.rows) + "]"


def johnson_dot(l: int, m: int) -> str:
    vertices = johnson_vertices(l, m)
    lines = [f"graph johnson_{l}_{m} {{"]
    for i, v in enumerate(vertices):
        label = "{" + ",".join(str(x) for x in vertex_indices(v)) + "}"
        lines.append(f'  {i} [label="{label}"];')
    for i, a in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            if johnson_adjacent(a, vertices[j], m):
                lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def grassmann_dot(spec: GrassmannianSpec) -> str:
    name = f"grassmann_{spec.n}_{spec.k}_q{spec.field.q}"
    lines = [f"graph {name} {{"]
    for i, s in enumerate(spec.subspaces):
        lines.append(f'  {i} [label="{i}" tooltip="{_rows_label(s)}"];')
    dmat = spec.distance_matrix()
    for i, row in enumerate(dmat):
        j = row.find(1, i + 1)
        while j >= 0:
            lines.append(f"  {i} -- {j};")
            j = row.find(1, j + 1)
    lines.append("}")
    return "\n".join(lines) + "\n"


def induced_dot(subspaces, name: str = "induced") -> str:
    """The restriction of the Grassmann graph to the given subspaces,
    ordered canonically by their RREF rows."""
    members = sorted(frozenset(subspaces), key=lambda s: s.rows)
    lines = [f"graph {name} {{"]
    for i, s in enumerate(members):
        lines.append(f'  {i} [label="{i}" tooltip="{_rows_label(s)}"];')
    for i, row in enumerate(distance_rows(members)):
        for j in range(i + 1, len(members)):
            if row[j] == 1:
                lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
