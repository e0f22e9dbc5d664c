"""DOT export with stable ordering, so outputs diff cleanly."""

from __future__ import annotations

from .grassmannian import GrassmannianSpec, distance_rows
from .johnson import johnson_distance, johnson_vertices, vertex_indices
from .subspaces import Subspace


def _rows_label(s: Subspace) -> str:
    return "[" + ";".join(",".join(str(x) for x in row) for row in s.rows) + "]"


def _graph(name: str, attributes, rows) -> str:
    """One node per attribute string, then one edge per entry equal to 1
    above the diagonal of the distance rows."""
    lines = [f"graph {name} {{"]
    lines += [f"  {i} [{attrs}];" for i, attrs in enumerate(attributes)]
    for i, row in enumerate(rows):
        j = row.find(1, i + 1)
        while j >= 0:
            lines.append(f"  {i} -- {j};")
            j = row.find(1, j + 1)
    lines.append("}")
    return "\n".join(lines) + "\n"


def johnson_dot(l: int, m: int) -> str:
    vertices = johnson_vertices(l, m)
    labels = ('label="{' + ",".join(map(str, vertex_indices(v))) + '}"' for v in vertices)
    rows = (bytes(johnson_distance(a, b, m) for b in vertices) for a in vertices)
    return _graph(f"johnson_{l}_{m}", labels, rows)


def _subspace_nodes(spaces):
    return (f'label="{i}" tooltip="{_rows_label(s)}"' for i, s in enumerate(spaces))


def grassmann_dot(spec: GrassmannianSpec) -> str:
    return _graph(f"grassmann_{spec.n}_{spec.k}_q{spec.field.q}",
                  _subspace_nodes(spec.subspaces), spec.distance_matrix())


def induced_dot(subspaces) -> str:
    """The restriction of the Grassmann graph to the given subspaces,
    ordered canonically by their RREF rows."""
    members = sorted(frozenset(subspaces), key=lambda s: s.rows)
    return _graph("induced", _subspace_nodes(members), distance_rows(members))
