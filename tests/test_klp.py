import hashlib
import random
import sys
import time

import pytest

from qdesign import klp
from qdesign.errors import DimensionMismatch, TooLarge
from qdesign.klp import divisibility_witness, klp_report, nth_root_floor, pow_frac_ceil
from qdesign.localdecode import solve_coefficients
from qdesign.qcount import q_binomial


def test_nth_root_floor():
    assert nth_root_floor(0, 5) == 0
    assert nth_root_floor(1, 5) == 1
    assert nth_root_floor(31, 5) == 1
    assert nth_root_floor(32, 5) == 2
    assert nth_root_floor(33, 5) == 2
    assert nth_root_floor(10**60, 5) == 10**12
    for x in range(200):
        r = nth_root_floor(x, 3)
        assert r**3 <= x < (r + 1) ** 3


def _root_by_bisection(x, r):
    """floor(x^(1/r)) by bisection on lo^r <= x < hi^r."""
    lo, hi = 0, 1 << (x.bit_length() // r + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**r <= x:
            lo = mid
        else:
            hi = mid
    return lo


def test_nth_root_floor_matches_bisection():
    rng = random.Random(20131)
    for r in range(1, 9):
        for _ in range(8):
            x = rng.getrandbits(rng.randrange(1, 10_000))
            assert nth_root_floor(x, r) == _root_by_bisection(x, r), (r, x.bit_length())


def test_nth_root_floor_at_perfect_powers():
    rng = random.Random(52)
    for r in range(1, 9):
        for bits in (1, 2, 63, 64, 65, 300, 10_000 // r):
            y = rng.getrandbits(bits) | 1 << (bits - 1)
            assert nth_root_floor(y**r, r) == y
            assert nth_root_floor(y**r - 1, r) == y - 1
            assert nth_root_floor(y**r + 1, r) == (y + 1 if r == 1 else y)


def test_pow_frac_ceil():
    assert pow_frac_ceil(32, 12, 5) == 2**12  # exact power
    assert pow_frac_ceil(2, 3, 2) == 3  # ceil(2.828...)
    assert pow_frac_ceil(10, 1, 2) == 4  # ceil(3.162...)
    # never below the true value: y^den >= x^num
    for x in (2, 3, 7, 100):
        y = pow_frac_ceil(x, 52, 5)
        assert y**5 >= x**52
        assert (y - 1) ** 5 < x**52


def test_nth_root_floor_at_large_perfect_powers():
    # at 100,000 bits the start comes from several levels of recursion,
    # and for r >= 3 the step divides truncated operands
    rng = random.Random(10)
    for r in (2, 3, 5, 7):
        y = rng.getrandbits(100_000 // r + 64) | 1 << (100_000 // r + 63)
        p = y**r
        assert p.bit_length() >= 100_000
        for x, want in ((p - 1, y - 1), (p, y), (p + 1, y)):
            got = nth_root_floor(x, r)
            assert got == want, (r, x - p)
            assert got**r <= x < (got + 1) ** r


@pytest.mark.parametrize("r", [2, 3, 5, 7])
def test_nth_root_floor_at_the_recursion_boundary(r):
    # roots of at most 128 bits take the plain descent; 129 bits is the
    # first truncated step, and 193 the first with two levels below it.
    # (y+1)^r - 1 and y^r - 1 sit too close to the next power for the
    # certificate's bound, so they take its exact fallback
    rng = random.Random(128 * r)
    for bits in (127, 128, 129, 130, 191, 192, 193):
        y = rng.getrandbits(bits) | 1 << (bits - 1)
        p, nxt = y**r, (y + 1) ** r
        for x, want in ((p - 1, y - 1), (p, y), (p + 1, y), (nxt - 1, y)):
            got = nth_root_floor(x, r)
            assert got == want == _root_by_bisection(x, r), (r, bits, x - p)


@pytest.mark.parametrize("miss", [-2, -1, 1, 2])
def test_nth_root_floor_certifies_a_start_that_misses(monkeypatch, miss):
    # the certificate alone makes the root exact: a start off by a unit or
    # two is stepped down, or fails the bound and is stepped up by ones
    rng = random.Random(miss)
    start = klp._root_start
    monkeypatch.setattr(klp, "_root_start", lambda x, r: max(0, start(x, r) + miss))
    for r in (2, 3, 5):
        for bits in (10, 129, 1000):
            y = rng.getrandbits(bits) | 1 << (bits - 1)
            for x in (y**r - 1, y**r, y**r + 1, (y + 1) ** r - 1, rng.getrandbits(bits * r)):
                got = nth_root_floor(x, r)
                assert got == _root_by_bisection(x, r), (r, bits, miss)


def test_pow_frac_ceil_at_a_large_exact_power():
    rng = random.Random(300)
    z = rng.getrandbits(1160) | 1 << 1159
    x = z**5
    assert (x**52).bit_length() >= 300_000
    assert pow_frac_ceil(x, 52, 5) == z**52
    y = pow_frac_ceil(x + 1, 52, 5)
    assert y**5 >= (x + 1) ** 52 > (y - 1) ** 5


@pytest.mark.parametrize("q, n, k, t", [(2, 3000, 75, 1), (5, 1000, 20, 2)])
def test_klp_report_ceiling_root_by_powering(q, n, k, t):
    """rhs_final = c1 * log factor * (c2 c3)^(12/5) * r52, where r52 is
    the ceiling of A_upper^(52/5), checked by powering, not by Newton."""
    rep = klp_report(q, n, k, t)
    assert rep.constant == 1 and rep.c2 == 1
    exp12 = 24 * k * (t + 1) ** 2  # (c2 c3)^12 = q^exp12, an exact fifth power here
    r12 = q ** (exp12 // 5)
    assert r12**5 == (rep.c2 * rep.c3_bound) ** 12
    log_factor = rep.A_upper.bit_length() ** 8
    r52, rem = divmod(rep.rhs_final, rep.c1_bound * log_factor * r12)
    assert rem == 0
    target = rep.A_upper**52
    assert r52**5 >= target > (r52 - 1) ** 5
    assert rep.feasible == (rep.rhs_final < rep.B_lower)


# sha256 of repr(klp_report(...)), captured from the full-length Newton step
# that certified its roots with two full powers
KLP_REPR_SHA256 = {
    (2, 3000, 75, 1): "6fac7dfd7073ed8d16136042728c3e2dbbe8f8c9394f00741ad24fb3a886fa95",
    (5, 1000, 20, 2): "47a214a21bef746d7a6694746208c8f356e10f97c34466ab4a2476d8bec6f447",
    (2, 1000, 25, 1): "7be1e89f43d6399a2773d38362b440559ef331c9afe70ba706d0232e47a5a145",
    (2, 64, 40, 30): "80ad4ddbe2771ed6409365cd12b54d47c6e92fe0f5f231a3ed47fd0faefc9016",
}
# the same over the selftest's klp_bound_consistency grid, then (2, 20, 5, 1)
# at constants 1, 2, 5 and 10
KLP_GRID_SHA256 = "d396ee7d45bd3e31a43dccf40d3f3597977dc5cfaaabd971eae2e471ef59f65b"


def test_klp_report_reprs_pinned():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for params, digest in KLP_REPR_SHA256.items():
            text = repr(klp_report(*params))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, params
        grid = hashlib.sha256()
        for q in (2, 3):
            for t in (1, 2):
                for k in range(t, 6):
                    for n in range(k, 11):
                        grid.update(repr(klp_report(q, n, k, t)).encode())
        for c in (1, 2, 5, 10):
            grid.update(repr(klp_report(2, 20, 5, 1, constant=c)).encode())
        assert grid.hexdigest() == KLP_GRID_SHA256
    finally:
        sys.set_int_max_str_digits(saved)


def test_report_fields():
    rep = klp_report(2, 10, 3, 1)
    assert rep.c2 == 1
    assert rep.c1_bound == 2 ** (3 * 4 + 1 * 9 + 10)
    assert rep.c3_bound == 2 ** (2 * 3 * 4)
    assert rep.A_upper == 2 ** (9 + 10)
    assert rep.B_lower == 2 ** (3 * 7)
    assert rep.A_exact == q_binomial(10, 1, 2) == 1023
    assert rep.B_exact == q_binomial(10, 3, 2)
    assert rep.block_budget == 2 ** (12 * 2 * 10)
    assert rep.A_exact <= rep.A_upper
    assert rep.B_exact >= rep.B_lower
    assert not rep.k_gt_12t and not rep.k_gt_12t_plus_1


def test_exact_counts_absent_for_large_n():
    rep = klp_report(2, 100, 13, 1)
    assert rep.A_exact is None and rep.B_exact is None
    assert rep.k_gt_12t and not rep.k_gt_12t_plus_1


def test_feasibility_points():
    assert klp_report(2, 1000, 25, 1, constant=1).feasible
    assert not klp_report(2, 1000, 12, 1, constant=1).feasible


def test_infeasible_for_any_constant_geq_1():
    base = klp_report(2, 1000, 12, 1, constant=1)
    assert not base.feasible
    # rhs grows with the constant, so larger constants stay infeasible
    for c in (2, 10, 10**6):
        rep = klp_report(2, 1000, 12, 1, constant=c)
        assert rep.rhs_final >= base.rhs_final
        assert not rep.feasible


def test_rhs_monotone_in_constant():
    prev = 0
    for c in (1, 2, 3, 10, 1000):
        rhs = klp_report(2, 30, 5, 1, constant=c).rhs_final
        assert rhs >= prev
        prev = rhs


def test_bounds_consistency_grid():
    for q in (2, 3):
        for t in (1, 2):
            for k in range(t, 6):
                for n in range(k, 11):
                    rep = klp_report(q, n, k, t)
                    assert rep.A_exact <= rep.A_upper
                    assert rep.B_exact >= rep.B_lower


def test_divisibility_witness_worked():
    assert divisibility_witness(2, 4, 2, 1) == 6 * 15 == 90


def test_witness_below_c1_bound_grid():
    # the witness reads m = det D off D's diagonal; solve_coefficients
    # takes it by Bareiss elimination
    for q in (2, 3):
        for t in (1, 2):
            for k in range(t, 6):
                m = solve_coefficients(q, t, k).m
                for n in range(k, 11):
                    witness = divisibility_witness(q, n, k, t)
                    assert witness == m * q_binomial(n, t, q)
                    assert witness <= klp_report(q, n, k, t).c1_bound


def test_klp_report_caps_largest_power():
    # at (2, 20, 5, 1) the largest power is A_upper^52 = 2^(52 * 39), 2029 bits
    assert klp_report(2, 20, 5, 1, max_bits=2029).feasible is False
    with pytest.raises(TooLarge, match=r"A_upper\*\*52 = 2\^2028 exceeds the cap of 2028 bits"):
        klp_report(2, 20, 5, 1, max_bits=2028)
    # 3^2028 has 3215 bits, between the bounds its exponent gives (2028, 4056)
    assert klp_report(3, 20, 5, 1, max_bits=3215).feasible is False
    with pytest.raises(TooLarge, match=r"A_upper\*\*52 = 3\^2028 exceeds the cap of 3214 bits"):
        klp_report(3, 20, 5, 1, max_bits=3214)
    # B_lower alone would be 2^1875000000; refused before any power is built
    start = time.monotonic()
    with pytest.raises(TooLarge, match=r"B_lower = 2\^1875000000"):
        klp_report(2, 100_000, 25_000, 1)
    assert time.monotonic() - start < 1.0
    # the default admits the largest report in the benchmark, about 362k bits
    assert klp_report(5, 1000, 20, 2).A_upper == 5**2996


def test_parameter_guards():
    with pytest.raises(DimensionMismatch):
        klp_report(2, 5, 6, 1)
    with pytest.raises(DimensionMismatch):
        klp_report(2, 5, 3, 0)
    with pytest.raises(ValueError):
        klp_report(2, 5, 3, 1, constant=0)
    with pytest.raises(DimensionMismatch):
        divisibility_witness(2, 100, 3, 1)  # witness needs exact counts (n <= 64)
