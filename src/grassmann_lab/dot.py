"""DOT export with stable ordering, so outputs diff cleanly.

Each export returns its document as an iterator of text chunks, one per
node and one per vertex's edges, so a writer holds one chunk at a time.
"""

from __future__ import annotations

from .grassmannian import GrassmannianSpec, distance_rows
from .johnson import johnson_distance, johnson_vertices, vertex_indices
from .subspaces import Subspace


def _rows_label(s: Subspace) -> str:
    return "[" + ";".join(",".join(str(x) for x in row) for row in s.rows) + "]"


# translates a distance row to a numeral with "1" exactly at the entries 1
_ADJACENT = bytes(49 if x == 1 else 48 for x in range(256))


def _graph(name: str, attributes, neighbours):
    """One node per attribute string, then one edge i -- j per bit j > i of
    neighbours[i], the int bitset of the vertices adjacent to vertex i;
    yielded as one chunk per node and one per vertex's edges."""
    yield f"graph {name} {{\n"
    for i, attrs in enumerate(attributes):
        yield f"  {i} [{attrs}];\n"
    for i, adjacent in enumerate(neighbours):
        # character j of the reversed numeral is bit i + 1 + j
        above = format(adjacent >> i + 1, "b")[::-1]
        edges = []
        j = above.find("1")
        while j >= 0:
            edges.append(f"  {i} -- {i + 1 + j};\n")
            j = above.find("1", j + 1)
        yield "".join(edges)
    yield "}\n"


def _adjacent(rows):
    """The bitset of the entries equal to 1 in each distance row."""
    return (int(bytes(row).translate(_ADJACENT)[::-1], 2) for row in rows)


def johnson_dot(l: int, m: int) -> str:
    vertices = johnson_vertices(l, m)
    labels = ('label="{' + ",".join(map(str, vertex_indices(v))) + '}"' for v in vertices)
    rows = (bytes(johnson_distance(a, b, m) for b in vertices) for a in vertices)
    return _graph(f"johnson_{l}_{m}", labels, _adjacent(rows))


def _subspace_nodes(spaces):
    return (f'label="{i}" tooltip="{_rows_label(s)}"' for i, s in enumerate(spaces))


def grassmann_dot(spec: GrassmannianSpec) -> str:
    # a one-vertex Grassmannian has no class at distance 1
    return _graph(f"grassmann_{spec.n}_{spec.k}_q{spec.field.q}",
                  _subspace_nodes(spec.subspaces),
                  ((classes + (0,))[1] for classes in spec.distance_sets()))


def induced_dot(subspaces) -> str:
    """The restriction of the Grassmann graph to the given subspaces,
    ordered canonically by their RREF rows."""
    members = sorted(frozenset(subspaces), key=lambda s: s.rows)
    return _graph("induced", _subspace_nodes(members), _adjacent(distance_rows(members)))
