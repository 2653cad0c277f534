import random
import re

import numpy as np
import pytest

from char2spec.gf import (GF2, GF4, GF8, GF16, FieldSpec, code_dtype, field_spec,
                          is_irreducible_gf2, least_irreducible_gf2)


def test_default_moduli():
    assert GF2.modulus == 0b10
    assert GF4.modulus == 0b111
    assert GF8.modulus == 0b1011
    assert GF16.modulus == 0b10011
    for k in (1, 2, 3, 4):
        assert FieldSpec(k).modulus == least_irreducible_gf2(k)
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
    # degree and modulus are ASCII decimal digits; int() alone would take
    # 1_6, +4, ' 4' and other scripts' digits, and refuse 0x3 with its own message
    for name, part in (("gf2^9:0x3", "modulus '0x3'"), ("gf2^1_6", "degree '1_6'"),
                       ("gf2^+4", "degree '+4'"), ("gf2^4: 19", "modulus ' 19'"),
                       ("gf2^\u0664", "degree '\u0664'"), ("gf4:1_1", "modulus '1_1'")):
        with pytest.raises(ValueError,
                           match=re.escape(f"field {name!r} has a {part} that is not a decimal")):
            field_spec(name)
    # a negative modulus is refused, not reduced by forever
    with pytest.raises(ValueError, match="does not have degree 4"):
        field_spec("gf2^4:-19")


def test_frobenius_inverse_roundtrip():
    for fs in (GF4, GF8, GF16):
        for a in fs.elements():
            assert fs.sqrt(fs.mul(a, a)) == a
            assert fs.mul(fs.sqrt(a), fs.sqrt(a)) == a


# ----------------------------------------------------------------------
# the field tables
# ----------------------------------------------------------------------
# a second degree-9 modulus whose root x, like that of the default
# x^9 + x + 1, has order 73, not 511
GF512_B = FieldSpec(9, 0b1000010111)
TABLE_FIELDS = [FieldSpec(k) for k in range(1, 17)] + [GF512_B]


def _raw_pow(fs, a, n):
    """a^n by square and multiply on the shift-and-reduce product alone."""
    r = 1
    while n:
        if n & 1:
            r = fs._mul_raw(r, a)
        a = fs._mul_raw(a, a)
        n >>= 1
    return r


@pytest.mark.parametrize("modulus", [0b1000000011, 0b1000010111])
def test_log_exp_tables_find_a_generator(modulus):
    fs = FieldSpec(9, modulus)
    assert _raw_pow(fs, 0b10, 73) == 1          # x is not primitive
    log, exp = fs.log_table, fs.exp_table
    order = fs.q - 1
    assert exp.size == 4 * order + 1
    assert sorted(exp[:order].tolist()) == list(range(1, fs.q))
    assert np.array_equal(exp[order:2 * order], exp[:order])
    assert np.array_equal(log[exp[:order]], np.arange(order))
    assert not exp[2 * order:].any() and log[0] == 2 * order


@pytest.mark.parametrize("fs", TABLE_FIELDS, ids=lambda fs: f"k{fs.degree}:{fs.modulus}")
def test_inverse_and_sqrt_tables_match_raw_powers(fs):
    """Every element up to k = 10, 2 000 seeded samples above."""
    q = fs.q
    if fs.degree <= 10:
        codes = range(q)
    else:
        rng = random.Random(fs.degree)
        codes = [0, 1, q - 1] + [rng.randrange(q) for _ in range(2000)]
    for a in codes:
        s = _raw_pow(fs, a, q >> 1)
        assert fs.sqrt_table[a] == fs.sqrt(a) == s
        if a:
            assert fs.inv_table[a] == fs.inv(a) == _raw_pow(fs, a, q - 2)
    assert fs.inv_table[0] == 0
    assert fs.inv_table.dtype == fs.sqrt_table.dtype == code_dtype(fs.degree)


@pytest.mark.parametrize("k", range(1, 9))
def test_product_table_matches_raw_products(k):
    fs = FieldSpec(k)
    table = fs.mul_table_np()
    assert table.shape == (fs.q, fs.q) and table.dtype == np.uint8
    assert table.tolist() == [[fs._mul_raw(a, b) for b in range(fs.q)] for a in range(fs.q)]


def test_wide_field_products_read_the_log_exp_tables():
    """Above k = 8 scalar products come from the log/exp tables: every
    product over GF(2^9), and 2 000 seeded pairs for k = 10 .. 16, zero
    included, equal the shift-and-reduce product."""
    fs = FieldSpec(9)
    for a in range(fs.q):
        assert [fs.mul(a, b) for b in range(fs.q)] == [fs._mul_raw(a, b) for b in range(fs.q)]
    for k in range(10, 17):
        fs = FieldSpec(k)
        rng = random.Random(k)
        pairs = [(0, 0), (0, fs.q - 1), (fs.q - 1, 0), (1, fs.q - 1)]
        pairs += [(rng.randrange(fs.q), rng.randrange(fs.q)) for _ in range(2000)]
        for a, b in pairs:
            assert fs.mul(a, b) == fs._mul_raw(a, b), (k, a, b)
