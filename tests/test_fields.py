import itertools

import pytest

from grassmann_lab.config import set_caps
from grassmann_lab.errors import ValidationError
from grassmann_lab.fields import GF, canonical_modulus, is_prime

SUPPORTED = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
             (2, 2), (2, 3), (2, 4), (3, 2)]


@pytest.mark.parametrize("p,e", SUPPORTED)
def test_field_axioms_exhaustive(p, e):
    F = GF.get(p, e)
    q = F.q
    assert q == p ** e
    for a in range(q):
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b, c in itertools.product(range(q), repeat=3) if q <= 9 else []:
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_frobenius_is_an_automorphism(p, e):
    F = GF.get(p, e)
    for t in F.automorphisms():
        seen = set()
        for a in F.elements():
            fa = F.frobenius(a, t)
            seen.add(fa)
            for b in F.elements():
                assert F.frobenius(F.add(a, b), t) == F.add(fa, F.frobenius(b, t))
                assert F.frobenius(F.mul(a, b), t) == F.mul(fa, F.frobenius(b, t))
        assert len(seen) == F.q
    # identity at t = 0, and e distinct automorphisms in total
    assert all(F.frobenius(a, 0) == a for a in F.elements())
    tables = {tuple(F.frobenius(a, t) for a in F.elements()) for t in F.automorphisms()}
    assert len(tables) == e


def _poly_eval_gf_p(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_modulus_is_irreducible_and_minimal(p, e):
    modulus = canonical_modulus(p, e)
    assert len(modulus) == e + 1 and modulus[-1] == 1
    # no roots in GF(p) certifies irreducibility for e in {2, 3}
    if e <= 3:
        assert all(_poly_eval_gf_p(modulus, x, p) for x in range(p))
    # known smallest-encoding irreducibles
    known = {(2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
             (2, 4): (1, 1, 0, 0, 1), (3, 2): (1, 0, 1)}
    assert modulus == known[(p, e)]


def test_coeffs_round_trip():
    F = GF.get(2, 4)
    for a in F.elements():
        cs = F.coeffs(a)
        assert len(cs) == 4
        assert sum(c * 2 ** i for i, c in enumerate(cs)) == a
    F3 = GF.get(3, 2)
    assert F3.coeffs(5) == (2, 1)  # 2 + 1*3


def test_pow_and_div():
    F = GF.get(3, 2)
    for a in F.units():
        assert F.pow(a, F.q - 1) == 1
        assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, -1) == F.inv(a)


def test_field_identity_is_memoized():
    assert GF.get(2, 2) is GF.get(2, 2)
    assert GF.get(2, 2) == GF.get(2, 2)
    assert GF.get(2, 1) != GF.get(3, 1)


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValidationError):
        GF(4, 1)
    with pytest.raises(ValidationError):
        GF(2, 0)


def test_order_cap_enforced():
    with pytest.raises(ValidationError):
        GF(17, 1)
    set_caps(q_max=32)
    try:
        F = GF(5, 2)
        assert F.q == 25
    finally:
        set_caps(q_max=16)


def test_cap_is_checked_before_primality():
    # a prime, so only the cap can reject it; trial division takes 0.1 s
    with pytest.raises(ValidationError, match="exceeds the field order cap"):
        GF(1_000_000_000_039, 1)
    with pytest.raises(ValidationError, match="exceeds cap"):
        GF(2, 1000)


def test_get_rechecks_a_lowered_cap():
    assert GF.get(2, 4).q == 16
    set_caps(q_max=4)
    try:
        with pytest.raises(ValidationError):
            GF.get(2, 4)
        assert GF.get(2, 2).q == 4
    finally:
        set_caps(q_max=16)
    assert GF.get(2, 4).q == 16


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
