import random

import pytest

from char2spec.gf import (GF2, GF4, GF8, GF16, FieldSpec, field_spec, is_irreducible_gf2,
                          least_irreducible_gf2)


def test_default_moduli():
    assert GF4.modulus == 0b111
    assert GF8.modulus == 0b1011
    assert GF16.modulus == 0b10011
    for k in (2, 3, 4, 5, 6, 9):
        assert is_irreducible_gf2(least_irreducible_gf2(k))
        # nothing smaller of the same degree is irreducible
        for p in range(1 << k, least_irreducible_gf2(k)):
            assert not is_irreducible_gf2(p)


def test_construction_rejects_bad_moduli():
    with pytest.raises(ValueError):
        FieldSpec(2, 0b110)  # x^2 + x = x(x+1)
    with pytest.raises(ValueError):
        FieldSpec(2, 0b1011)  # degree mismatch
    with pytest.raises(ValueError):
        FieldSpec(0)
    with pytest.raises(ValueError):
        FieldSpec(17)


def test_gf4_examples():
    assert GF4.mul(2, 2) == 3              # w * w = w + 1
    assert GF4.inv(2) == 3                 # w * (w+1) = 1
    assert GF4.sqrt(0) == 0
    assert GF4.sqrt(1) == 1
    # derived by exhaustive squaring: the unique b with b^2 = w is w + 1
    squares = {GF4.mul(b, b): b for b in GF4.elements()}
    assert squares[2] == 3
    assert GF4.sqrt(2) == 3


@pytest.mark.parametrize("fs", [GF2, GF4, GF8, GF16, FieldSpec(8)])
def test_field_axioms_exhaustive(fs):
    q = fs.q
    for a in fs.elements():
        assert fs.mul(fs.sqrt(a), fs.sqrt(a)) == a
        if a:
            assert fs.pow(a, q - 1) == 1
            assert fs.mul(a, fs.inv(a)) == 1
    # multiplication agrees with the raw shift-and-reduce path
    for a in fs.elements():
        for b in fs.elements():
            assert fs.mul(a, b) == fs._mul_raw(a, b)


def test_large_field_sampled():
    fs = FieldSpec(12)
    rng = random.Random(0)
    for _ in range(2000):
        a = rng.randrange(fs.q)
        s = fs.sqrt(a)
        assert fs.mul(s, s) == a
        if a:
            assert fs.mul(a, fs.inv(a)) == 1
            assert fs.pow(a, fs.q - 1) == 1


@pytest.mark.parametrize("fs", [GF4, GF8, GF16])
def test_distributivity_sampled(fs):
    rng = random.Random(17)
    for _ in range(10 ** 4):
        a, b, c = (rng.randrange(fs.q) for _ in range(3))
        assert fs.mul(a, b ^ c) == fs.mul(a, b) ^ fs.mul(a, c)
        assert fs.mul(a, fs.mul(b, c)) == fs.mul(fs.mul(a, b), c)
        assert fs.mul(a, b) == fs.mul(b, a)


def test_nonzero_elements_cyclic():
    for fs in (GF4, GF8, GF16):
        seen = set()
        # some element generates the whole multiplicative group
        for g in range(2, fs.q):
            seen = set()
            v = 1
            for _ in range(fs.q - 1):
                seen.add(v)
                v = fs.mul(v, g)
            if len(seen) == fs.q - 1:
                break
        assert len(seen) == fs.q - 1


def test_inverse_of_zero_is_domain_error():
    with pytest.raises(ZeroDivisionError):
        GF4.inv(0)


def test_field_spec_parser():
    assert field_spec("gf4") is field_spec("gf2^2")
    assert field_spec("gf2").q == 2
    assert field_spec("gf16").modulus == 19
    assert field_spec("gf2^4:25").modulus == 25  # x^4 + x^3 + 1 also works
    with pytest.raises(ValueError):
        field_spec("gf5")
    with pytest.raises(ValueError):
        field_spec("gf2^4:24")  # reducible


def test_frobenius_inverse_roundtrip():
    for fs in (GF4, GF8, GF16):
        for a in fs.elements():
            assert fs.sqrt(fs.frobenius(a)) == a
            assert fs.frobenius(fs.sqrt(a)) == a
