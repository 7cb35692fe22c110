import random

import cyclehom
from cyclehom.ring import TruncatedPolynomial


def rand_poly(rng, trunc):
    return TruncatedPolynomial(
        [rng.randint(-4, 9) for _ in range(rng.randint(0, trunc + 2))], trunc
    )


def test_term_and_coefficient():
    p = TruncatedPolynomial.term(5, 3, trunc=4)
    assert p.coefficient(3) == 5
    assert p.coefficient(0) == 0
    assert TruncatedPolynomial.term(5, 9, trunc=4) == 0


def test_truncation_on_multiply():
    p = TruncatedPolynomial((0, 1), trunc=3)  # z
    q = p * p * p  # z^3 within bound
    assert q.coefficient(3) == 1
    assert (q * p) == 0  # z^4 truncated away


def test_ring_laws_randomized():
    rng = random.Random(1)
    for _ in range(300):
        trunc = rng.randint(0, 6)
        a, b, c = (rand_poly(rng, trunc) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        zero = TruncatedPolynomial((), trunc)
        one = TruncatedPolynomial((1,), trunc)
        assert a + zero == a
        assert a * one == a
        assert a * 0 == 0


def test_int_mixing():
    p = TruncatedPolynomial((1, 2), trunc=3)
    assert 0 + p == p
    assert 3 * p == TruncatedPolynomial((3, 6), trunc=3)
    assert p * 3 == 3 * p
    assert (p + 5).coefficient(0) == 6


def test_at_one_matches_sum():
    rng = random.Random(2)
    for _ in range(50):
        p = rand_poly(rng, 5)
        assert p.at_one() == sum(p.coeffs)


def test_every_export_resolves():
    for name in cyclehom.__all__:
        assert hasattr(cyclehom, name), name
