import random

import pytest

from char2spec.gf import GF2, GF4, GF8, GF16
from char2spec import upoly as up

from oracles import (all_monic, factor_trial_division, poly_eval, radical_by_factoring,
                     roots_by_evaluation)


def rand_poly(fs, rng, degree, monic=True):
    coeffs = [rng.randrange(fs.q) for _ in range(degree)]
    coeffs.append(1 if monic else rng.randrange(1, fs.q))
    return up.poly(coeffs)


def test_gcd_examples(gf4):
    # gcd(t^2 + t, t) = t
    assert up.poly_gcd(gf4, (0, 1, 1), (0, 1)) == (0, 1)
    # gcd(f, 0) = monic(f)
    f = (2, 0, 2)
    assert up.poly_gcd(gf4, f, up.ZERO) == up.monic(gf4, f)
    # t + w + 1 divides t^2 + w, since (w+1)^2 = w
    assert poly_eval(gf4, (2, 0, 1), 3) == 0
    assert up.poly_gcd(gf4, (2, 0, 1), (3, 1)) == (3, 1)


def test_divmod_and_monic(gf4):
    rng = random.Random(5)
    for _ in range(500):
        f = rand_poly(gf4, rng, rng.randrange(0, 7))
        g = rand_poly(gf4, rng, rng.randrange(0, 4), monic=False)
        q, r = up.poly_divmod(gf4, f, g)
        assert up.poly_add(up.poly_mul(gf4, q, g), r) == f
        assert len(r) < len(g)
    with pytest.raises(ZeroDivisionError):
        up.poly_divmod(gf4, (1,), up.ZERO)


def test_degree_of_product_adds(gf4):
    rng = random.Random(6)
    for _ in range(300):
        f = rand_poly(gf4, rng, rng.randrange(0, 5), monic=False)
        g = rand_poly(gf4, rng, rng.randrange(0, 5), monic=False)
        assert up.deg(up.poly_mul(gf4, f, g)) == up.deg(f) + up.deg(g)


def test_root_count_examples(gf4):
    assert up.count_roots_in_field(gf4, (0, 1, 1)) == 2          # t^2 + t
    assert up.count_roots_in_field(gf4, up.poly_mul(
        gf4, (1, 1), up.poly_mul(gf4, (1, 1), (1, 1)))) == 1     # (t+1)^3
    # t^2 + w t + 1 has no roots (checked by evaluating all 4 elements)
    f = (1, 2, 1)
    assert roots_by_evaluation(gf4, f) == []
    assert up.count_roots_in_field(gf4, f) == 0
    with pytest.raises(ValueError):
        up.count_roots_in_field(gf4, up.ZERO)


@pytest.mark.parametrize("fs,deg_max", [(GF2, 4), (GF4, 4), (GF8, 3), (GF16, 2)])
def test_root_count_matches_evaluation_exhaustive(fs, deg_max):
    for d in range(1, deg_max + 1):
        for f in all_monic(fs, d):
            assert up.count_roots_in_field(fs, f) == len(roots_by_evaluation(fs, f))


def test_root_count_matches_evaluation_sampled(gf4, gf8):
    rng = random.Random(11)
    for fs in (gf4, gf8):
        for _ in range(500):
            f = rand_poly(fs, rng, rng.randrange(1, 7))
            assert up.count_roots_in_field(fs, f) == len(roots_by_evaluation(fs, f))


def test_radical_examples(gf4):
    t1 = (1, 1)
    f = up.ONE
    for _ in range(4):
        f = up.poly_mul(gf4, f, t1)
    assert up.radical(gf4, f) == t1                       # (t+1)^4 -> t+1
    assert up.radical(gf4, (2, 0, 1)) == (3, 1)           # t^2 + w = (t + w+1)^2
    g = up.poly_mul(gf4, (0, 1), up.poly_mul(gf4, (1, 0, 1), (2, 1, 1)))
    #   t * (t+1)^2 * (t^2 + t + w)
    expect = up.poly_mul(gf4, (0, 1), up.poly_mul(gf4, (1, 1), (2, 1, 1)))
    assert up.radical(gf4, g) == up.monic(gf4, expect)
    assert up.radical(gf4, g) == radical_by_factoring(gf4, g)
    with pytest.raises(ValueError):
        up.radical(gf4, up.ZERO)


def test_radical_against_trial_division_exhaustive(gf4):
    for d in range(1, 5):
        for f in all_monic(gf4, d):
            assert up.radical(gf4, f) == radical_by_factoring(gf4, f)


@pytest.mark.parametrize("fs,rounds", [(GF4, 6000), (GF8, 4000)])
def test_radical_against_trial_division_sampled(fs, rounds):
    rng = random.Random(23)
    for _ in range(rounds):
        f = rand_poly(fs, rng, rng.randrange(5, 7))
        rad = up.radical(fs, f)
        assert rad == radical_by_factoring(fs, f)
        # radical divides f and is squarefree
        assert not up.poly_divmod(fs, f, rad)[1]
        der = up.derivative(rad)
        assert (not der and up.deg(rad) <= 0) or up.poly_gcd(fs, rad, der) == up.ONE


def test_closure_counts(gf4):
    assert up.count_roots_in_closure(gf4, (0, 0, 0, 1)) == 1      # t^3
    assert up.count_roots_in_closure(gf4, (0, 0, 0, 1)) - up.has_root_zero((0, 0, 0, 1)) == 0
    f = up.poly_mul(gf4, (0, 1), up.poly_mul(gf4, (1, 1), (2, 1)))
    assert up.count_roots_in_closure(gf4, f) == 3                 # t(t+1)(t+w)
    assert up.count_roots_in_closure(gf4, f) - up.has_root_zero(f) == 2
    # even quartics have at most 2 distinct roots in the closure
    for alpha in gf4.elements():
        for beta in gf4.elements():
            f = up.poly(((beta, 0, alpha, 0, 1)))
            assert up.count_roots_in_closure(gf4, f) <= 2


def test_poly_str():
    assert up.poly_str((1, 2, 0, 1)) == "t^3 + 2*t + 1"
    assert up.poly_str(up.ZERO) == "0"
    assert up.poly_str((0, 1)) == "t"
