"""Johnson graphs J(l, m) on bitmask-encoded m-subsets of {0..l-1}.

Two vertices are adjacent when their subsets share m-1 elements; the
graph distance is m - |A & B|.  The automorphism group is generated by
ground-set permutations, plus the complementation involution exactly
when l == 2m.  Listing the vertices obeys the graph vertex cap of
config.caps, as enumerating a Grassmann graph does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .config import caps
from .errors import CapExceededError, ValidationError

MAX_GROUND_SET = 64


def _check_params(l: int, m: int):
    if not 0 < m < l:
        raise ValidationError(f"need 0 < m < l, got l={l}, m={m}")
    if l > MAX_GROUND_SET:
        raise ValidationError(f"ground set size {l} exceeds {MAX_GROUND_SET}")
    count, cap = math.comb(l, m), caps().graph_vertex_max
    if count > cap:
        raise CapExceededError(f"J({l}, {m}) has {count} vertices, above the cap of {cap}")


def vertex_from_indices(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def vertex_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def johnson_vertices(l: int, m: int) -> list[int]:
    """All C(l, m) vertices, in lexicographic order of their index sets."""
    _check_params(l, m)
    return [vertex_from_indices(c) for c in itertools.combinations(range(l), m)]


def johnson_distance(a: int, b: int, m: int) -> int:
    return m - bin(a & b).count("1")


def johnson_diameter(l: int, m: int) -> int:
    return min(m, l - m)


@dataclass(frozen=True)
class JohnsonAut:
    """An automorphism of J(l, m): a ground-set permutation, optionally
    composed with complementation (legal only when l == 2m)."""

    perm: tuple[int, ...]
    complement: bool = False

    @property
    def l(self) -> int:
        return len(self.perm)

    def apply(self, vertex: int) -> int:
        image = 0
        for i in range(self.l):
            if vertex >> i & 1:
                image |= 1 << self.perm[i]
        if self.complement:
            image ^= (1 << self.l) - 1
        return image


def transposition_aut(l: int, i: int, j: int) -> JohnsonAut:
    perm = list(range(l))
    perm[i], perm[j] = perm[j], perm[i]
    return JohnsonAut(tuple(perm))


def johnson_aut_group(l: int, m: int) -> list[JohnsonAut]:
    """Generators of Aut(J(l, m)) for 1 < m < l-1: adjacent transpositions
    of the ground set, plus complementation iff l == 2m."""
    if not 1 < m < l - 1:
        raise ValidationError(f"automorphism dichotomy needs 1 < m < l-1, got l={l}, m={m}")
    gens = [transposition_aut(l, i, i + 1) for i in range(l - 1)]
    if l == 2 * m:
        gens.append(JohnsonAut(tuple(range(l)), complement=True))
    return gens
