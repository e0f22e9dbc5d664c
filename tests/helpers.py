"""Independent references shared by several test modules."""

import math

from grassmann_lab.johnson import johnson_distance


def frame_count(n, q):
    """Unordered independent point frames of PG(n-1, q):
    |GL(n, q)| / ((q-1)^n * n!)."""
    gl = 1
    for i in range(n):
        gl *= q ** n - q ** i
    return gl // ((q - 1) ** n * math.factorial(n))


def johnson_adjacent(a: int, b: int, m: int) -> bool:
    """Whether the J(l, m) vertices a and b (bitmasks) are adjacent."""
    return johnson_distance(a, b, m) == 1
