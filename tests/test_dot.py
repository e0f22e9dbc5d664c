import hashlib

import pytest

from grassmann_lab.cli import main
from grassmann_lab.dot import grassmann_dot, induced_dot, johnson_dot
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import GrassmannianSpec, apartment_from_frame
from grassmann_lab.subspaces import Subspace

F2 = GF.get(2)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def test_johnson_dot_shape():
    text = johnson_dot(4, 2)
    assert text.startswith("graph johnson_4_2 {")
    assert text.count("--") == 12
    assert '{0,1}' in text
    assert johnson_dot(4, 2) == text  # stable


def test_grassmann_dot_shape():
    spec = GrassmannianSpec(F2, 4, 2)
    text = grassmann_dot(spec)
    assert text.count("[label") == 35
    # 35 vertices of degree 18 -> 315 edges
    assert text.count(" -- ") == 35 * 18 // 2
    assert grassmann_dot(spec) == text


def test_induced_dot_is_order_independent():
    frame = [Subspace.line(F2, unit(i, 4)) for i in range(4)]
    apt = apartment_from_frame(frame, 2)
    text = induced_dot(apt)
    assert text == induced_dot(sorted(apt, key=lambda s: s.rows, reverse=True))
    assert text.count(" -- ") == 12


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
