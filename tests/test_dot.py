import hashlib
import random

import pytest

from grassmann_lab.cli import main
from grassmann_lab.dot import _graph, grassmann_dot, induced_dot, johnson_dot
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import GrassmannianSpec
from grassmann_lab.subspaces import Subspace

from helpers import apartment_from_frame, reference_graph

F2 = GF.get(2)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def test_johnson_dot_shape():
    text = "".join(johnson_dot(4, 2))
    assert text.startswith("graph johnson_4_2 {")
    assert text.count("--") == 12
    assert '{0,1}' in text
    assert "".join(johnson_dot(4, 2)) == text  # stable


def test_grassmann_dot_shape():
    spec = GrassmannianSpec(F2, 4, 2)
    text = "".join(grassmann_dot(spec))
    assert text.count("[label") == 35
    # 35 vertices of degree 18 -> 315 edges
    assert text.count(" -- ") == 35 * 18 // 2
    assert "".join(grassmann_dot(spec)) == text


def test_induced_dot_is_order_independent():
    frame = [Subspace.line(F2, unit(i, 4)) for i in range(4)]
    apt = apartment_from_frame(frame, 2)
    text = "".join(induced_dot(apt))
    assert text == "".join(induced_dot(sorted(apt, key=lambda s: s.rows, reverse=True)))
    assert text.count(" -- ") == 12


def test_dot_export_streams_one_chunk_per_node_and_per_vertex():
    chunks = list(grassmann_dot(GrassmannianSpec(F2, 4, 2)))
    # header, 35 nodes, 35 edge chunks, closing brace
    assert len(chunks) == 1 + 35 + 35 + 1
    assert chunks[0] == "graph grassmann_4_2_q2 {\n" and chunks[-1] == "}\n"
    assert all(chunk.endswith("\n") for chunk in chunks[:-1] if chunk)


def _neighbour_lists():
    """Neighbour bitsets that reach each edge of the run-length writer:
    rows with no bit above i, a first neighbour i + 1 (an empty run), the
    last vertex (the highest id the edge strings must reach), every bit
    set (the vertex's own bit too), and seeded rows, dense over 40 vertices
    and sparse over more than 4,000."""
    rng = random.Random(24)
    size, big = 40, 4321
    full = (1 << size) - 1
    return {
        "no-neighbours": [0] * size,
        "only-lower": [(1 << i) - 1 for i in range(size)],
        "next": [1 << i + 1 for i in range(size - 1)] + [1 << size - 2],
        "last": [1 << size - 1] * (size - 1) + [full >> 1],
        "all-ones": [full] * size,
        "random-dense": [rng.getrandbits(size) for _ in range(size)],
        "random-sparse": [sum(1 << rng.randrange(big) for _ in range(rng.randrange(6)))
                          | (1 << big - 1 if i % 7 == 0 else 0) for i in range(big)],
    }


NEIGHBOUR_LISTS = _neighbour_lists()


@pytest.mark.parametrize("name", sorted(NEIGHBOUR_LISTS))
def test_graph_writer_matches_the_per_edge_reference(name):
    rows = NEIGHBOUR_LISTS[name]
    labels = [f'label="{i}"' for i in range(len(rows))]
    chunks = list(_graph("g", labels, rows))
    assert chunks == list(reference_graph("g", labels, rows))
    assert len(chunks) == 2 * len(rows) + 2


# sha256 of `export --graph grassmann --n 4 --k 2`, taken from the rank-based
# distance table this export was first built on
GRASSMANN_DOT_SHA256 = {
    (2, 1): "768d3eefc32fbfd97a38ca350006f417dd24129474d94e30220c58e9fcd1d9f2",
    (3, 1): "e82459d5ef031bcdaceced1a2301050c206e3da3ef0fc85265c7ab3950fb8915",
    (2, 2): "28d9692e6d964473bf28d314d6b3848a7f1ac0f02c8714c4b54934558a827af7",
}


@pytest.mark.parametrize("p,e", sorted(GRASSMANN_DOT_SHA256))
def test_grassmann_export_is_byte_stable(p, e, capsys):
    assert main(["export", "--graph", "grassmann", "--n", "4", "--k", "2",
                 "--p", str(p), "--e", str(e)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GRASSMANN_DOT_SHA256[(p, e)]


# sha256 of the DOT text of other exports, pinned before their edge loops
# were merged into one writer
def _input_argv(tmp_path):
    doc = tmp_path / "simplex-faces.json"
    assert main(["build", "simplex-faces", "--p", "2", "--e", "2", "--n", "5", "--k", "3",
                 "--output", str(doc)]) == 0
    return ["export", "--input", str(doc)]


EXPORT_DOT_SHA256 = {
    "johnson-l5-m2": (lambda _: ["export", "--graph", "johnson", "--l", "5", "--m", "2"],
                      "9ea7c9ce7d5058648ae4d25ee3974338e6936db2ea9949f6151bc016003ae410"),
    "johnson-l6-m3": (lambda _: ["export", "--graph", "johnson", "--l", "6", "--m", "3"],
                      "314fc38a07ba0000696f909a50178a4a2a0e20e9e39e5100e6f2d01cb65cfe1c"),
    "induced-simplex-faces-q4-n5-k3": (
        _input_argv, "861d6d3bf3fdf23fb7b3651f536cdfcc7ce714d14b7f3d8cb735ab2190572d39"),
}


@pytest.mark.parametrize("name", sorted(EXPORT_DOT_SHA256))
def test_export_dot_is_byte_stable(name, tmp_path, capsys):
    argv, digest = EXPORT_DOT_SHA256[name]
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
