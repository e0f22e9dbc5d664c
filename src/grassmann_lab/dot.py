"""DOT export with stable ordering, so outputs diff cleanly.

Each export returns its document as an iterator of text chunks, one per
node and one per vertex's edges, so a writer holds one chunk at a time.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator

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
    yielded as one chunk per node and one per vertex's edges.

    The reversed numeral of neighbours[i] >> i + 1, split at each "1", gives
    the run of "0" before each neighbour j > i, so j is i + 1 plus the run
    lengths so far plus the neighbour's rank.  tails[j] is the text after
    "  i" of an edge to j, made once per export."""
    yield f"graph {name} {{\n"
    for i, attrs in enumerate(attributes):
        yield f"  {i} [{attrs}];\n"
    tails = []
    for i, adjacent in enumerate(neighbours):
        runs = format(adjacent >> i + 1, "b")[::-1].split("1")[:-1]
        if not runs:
            yield ""
            continue
        tails += map(" -- {};\n".format, range(len(tails), adjacent.bit_length()))
        ids = map(operator.add, itertools.accumulate(map(len, runs)), itertools.count(i + 1))
        head = f"  {i}"
        yield head + head.join(map(tails.__getitem__, ids))
    yield "}\n"


def _adjacent(rows):
    """The bitset of the entries equal to 1 in each distance row."""
    return (int(bytes(row).translate(_ADJACENT)[::-1], 2) for row in rows)


def johnson_dot(l: int, m: int) -> Iterator[str]:
    vertices = johnson_vertices(l, m)
    labels = ('label="{' + ",".join(map(str, vertex_indices(v))) + '}"' for v in vertices)
    rows = (bytes(johnson_distance(a, b, m) for b in vertices) for a in vertices)
    return _graph(f"johnson_{l}_{m}", labels, _adjacent(rows))


def _subspace_nodes(spaces):
    return (f'label="{i}" tooltip="{_rows_label(s)}"' for i, s in enumerate(spaces))


def grassmann_dot(spec: GrassmannianSpec) -> Iterator[str]:
    # a one-vertex Grassmannian has no class at distance 1
    return _graph(f"grassmann_{spec.n}_{spec.k}_q{spec.field.q}",
                  _subspace_nodes(spec.subspaces),
                  ((classes + (0,))[1] for classes in spec.distance_sets()))


def induced_dot(subspaces) -> Iterator[str]:
    """The restriction of the Grassmann graph to the given subspaces,
    ordered canonically by their RREF rows."""
    members = sorted(frozenset(subspaces), key=lambda s: s.rows)
    return _graph("induced", _subspace_nodes(members), _adjacent(distance_rows(members)))
