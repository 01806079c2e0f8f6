import math

import pytest

from qdesign.errors import InvalidParameters, TooLarge, TooManyTerms
from qdesign.gf import make_field
from qdesign.grassmann import iter_subspaces
from qdesign.qcount import (
    capped,
    check_bounds,
    q_binomial,
    q_binomial_via_sum,
    q_factorial,
    q_int,
)


def test_q_factorial_examples():
    assert q_factorial(0, 2) == 1
    assert q_factorial(3, 2) == 21  # 1 * 3 * 7
    assert q_factorial(2, 3) == 4  # 1 * 4


def test_q_int():
    assert [q_int(i, 2) for i in range(5)] == [0, 1, 3, 7, 15]
    assert q_int(3, 3) == 13


def test_q_below_2_rejected():
    for q in (1, 0, -2):
        with pytest.raises(InvalidParameters):
            q_int(3, q)
        with pytest.raises(InvalidParameters):
            q_binomial(4, 2, q)


def test_q_binomial_edges():
    for q in (2, 3, 5):
        for n in range(8):
            assert q_binomial(n, 0, q) == 1
            assert q_binomial(n, n, q) == 1
        assert q_binomial(4, 5, q) == 0
        assert q_binomial(4, -1, q) == 0


def test_q_binomial_examples():
    assert q_binomial(4, 2, 2) == 35
    assert q_binomial(3, 1, 2) == 7  # (2^3 - 1) / (2 - 1)
    assert q_binomial(5, 2, 3) == 1210


def test_q_binomial_matches_factorial_quotient():
    for q in (2, 3, 4):
        for n in range(9):
            for k in range(n + 1):
                expect, rem = divmod(q_factorial(n, q), q_factorial(k, q) * q_factorial(n - k, q))
                assert rem == 0
                assert q_binomial(n, k, q) == expect


def test_via_sum_examples():
    assert q_binomial_via_sum(2, 1, 2) == 3  # 2^0 + 2^1
    assert q_binomial_via_sum(4, 2, 2) == 35
    for q in (2, 3, 7):
        for n in range(1, 8):
            assert q_binomial_via_sum(n, n, q) == 1


def test_via_sum_agrees_on_grid():
    for q in (2, 3, 4, 5):
        for n in range(11):
            for k in range(n + 1):
                assert q_binomial_via_sum(n, k, q) == q_binomial(n, k, q)


def test_via_sum_term_cap():
    with pytest.raises(TooManyTerms):
        q_binomial_via_sum(40, 20, 2, max_terms=1000)


def test_check_bounds_examples():
    b = check_bounds(4, 2, 2)
    assert (b.lower, b.value, b.upper, b.ok) == (16, 35, 96, True)
    for q in (2, 3, 5):
        b0 = check_bounds(6, 0, q)
        assert (b0.lower, b0.value, b0.upper, b0.ok) == (1, 1, 1, True)
    b3 = check_bounds(5, 2, 3)
    assert b3.lower == 729 and b3.upper == 7290 and b3.ok


def test_bounds_grid():
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                assert check_bounds(n, k, q).ok


def test_symmetry_grid():
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k, q) == q_binomial(n, n - k, q)


def test_pascal_recurrence():
    for q in (2, 3, 4, 5):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert q_binomial(n, k, q) == q_binomial(n - 1, k - 1, q) + q**k * q_binomial(
                    n - 1, k, q
                )


def test_enumeration_agreement_spot():
    # the counting operation agrees with brute-force enumeration
    for q, n in ((2, 5), (3, 4)):
        f = make_field(q)
        for k in range(n + 1):
            assert sum(1 for _ in iter_subspaces(n, k, f)) == q_binomial(n, k, q)


def test_lower_bound_is_largest_sum_term():
    # the extreme choice s_i = n-k+i contributes exactly q^(k(n-k))
    n, k, q = 7, 3, 2
    s = [n - k + i for i in range(1, k + 1)]
    assert q ** (sum(s) - k * (k + 1) // 2) == q ** (k * (n - k)) == check_bounds(n, k, q).lower


def test_upper_bound_term_count():
    n, k = 9, 4
    assert check_bounds(n, k, 3).upper == math.comb(n, k) * 3 ** (k * (n - k))


def test_binomial_exceeds_agrees_with_exact_count():
    # capped refuses exactly when the count, or a product of two, is past the cap
    for q in (2, 3, 4, 5):
        for n in range(7):
            for k in range(n + 1):
                value = q_binomial(n, k, q)
                for bound in (-1, 0, value - 1, value, value + 1, 2 * value):
                    if value > bound:
                        with pytest.raises(TooLarge):
                            capped(q, [(n, k)], bound)
                    else:
                        assert capped(q, [(n, k)], bound) == [value]
                for j in range(n + 1):
                    other = q_binomial(n, j, q)
                    product = value * other
                    assert capped(q, [(n, k), (n, j)], product, "{total}") == [value, other]
                    with pytest.raises(TooLarge, match=f"^{product}$"):
                        capped(q, [(n, k), (n, j)], product - 1, "{total}")


def test_binomial_exceeds_decides_from_lower_bound():
    q_binomial.cache_clear()
    # 2^(1000 * 1000) and 2^(1999 + 1000000) are past 10^7: no exact count
    with pytest.raises(TooLarge, match=r"^\[2000 1000\]_2 = more than 2\^1000000 exceeds"):
        capped(2, [(2000, 1000)], 10**7)
    with pytest.raises(TooLarge) as info:
        capped(2, [(2000, 1), (2000, 1000)], 10**7, "{0}; {1}; {total}")
    assert str(info.value) == "more than 2^1999; more than 2^1000000; more than 2^1001999"
    assert q_binomial.cache_info().misses == 0
    # 2^(2 * 2) > 15 decides too; the message then prints [4 2]_2 = 35 in full
    with pytest.raises(TooLarge, match=r"^\[4 2\]_2 = 35 exceeds cap 15$"):
        capped(2, [(4, 2)], 15)
    assert q_binomial.cache_info().misses == 1
