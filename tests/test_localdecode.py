import random
import time

import pytest

from qdesign.errors import DimensionMismatch, TooLarge
from qdesign.gf import make_field
from qdesign.grassmann import enumerate_subspaces, intersect_dim, iter_subspaces
from qdesign.localdecode import (
    build_D,
    c3_bound,
    check_cond2,
    check_det_bounds,
    decode_certificate,
    det_bareiss,
    lemma2_count,
    lemma2_count_bruteforce,
    lemma2_grid_report,
    solve_coefficients,
    verify_certificate,
)
from qdesign.qcount import q_binomial

F2 = make_field(2)
F3 = make_field(3)


def test_build_D_worked_example():
    assert build_D(2, 1, 2) == ((2, 1), (0, 3))


def test_build_D_bottom_right_is_row_weight():
    for q in (2, 3):
        for t in (1, 2, 3):
            for k in range(t, t + 4):
                D = build_D(q, t, k)
                assert D[t][t] == q_binomial(k, t, q)


def test_build_D_matches_direct_reevaluation():
    # re-derive every entry of the (2,2,3) system from the count operations
    q, t, k = 2, 2, 3
    D = build_D(q, t, k)
    for l in range(t + 1):
        for j in range(t + 1):
            if j < l:
                assert D[l][j] == 0
            else:
                expect = (
                    q_binomial(t - l, t - j, q)
                    * q_binomial(k - t + l, j, q)
                    * q ** ((k - t - j + l) * (t - j))
                )
                assert D[l][j] == expect


def test_build_D_requires_t_le_k():
    with pytest.raises(DimensionMismatch):
        build_D(2, 3, 2)
    with pytest.raises(DimensionMismatch):
        build_D(2, 0, 2)


def test_det_bareiss_small():
    assert det_bareiss([[0, 1], [1, 3]]) == -1
    assert det_bareiss([[2, 0], [0, 1]]) == 2
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 2 * (3 * 4 - 1) - 1 * 4


def test_det_bareiss_vs_permanent_expansion():
    from itertools import permutations

    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 5)
        M = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        expect = 0
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            # parity via inversion count
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
            )
            sign = -1 if inv % 2 else 1
            prod = 1
            for i in range(n):
                prod *= M[i][perm[i]]
            expect += sign * prod
        assert det_bareiss(M) == expect


def test_solve_worked_example():
    s = solve_coefficients(2, 1, 2)
    assert s.m == 6
    assert s.f == (-1, 2)
    assert -1 * 2 + 2 * 1 == 0  # homogeneous row
    assert 2 * 3 == 6  # f(t) [k k-t]_q = m


def test_solve_grid_identities():
    for q in (2, 3):
        for t in (1, 2, 3):
            for k in range(t + 1, t + 5):
                s = solve_coefficients(q, t, k)  # asserts internally
                assert s.m > 0
                assert all(isinstance(v, int) for v in s.f)
                assert s.f[t] * q_binomial(k, k - t, q) == s.m
                target = [0] * t + [s.m]
                got = [
                    sum(s.D[l][j] * s.f[j] for j in range(t + 1)) for l in range(t + 1)
                ]
                assert got == target
                assert check_cond2(q, t, k)


def test_certificate_worked_example():
    V = enumerate_subspaces(3, 1, F2)[0]
    cert = decode_certificate(V, 2)
    assert cert.envelope.k == 3
    assert cert.m == 6 and cert.l1_norm == 10
    coeffs = sorted(cert.coefficients.values())
    assert coeffs == [-1, -1, -1, -1, 2, 2, 2]
    assert verify_certificate(cert)


def test_certificate_all_columns_zero_or_m():
    # check the summed value by hand at every line of F_2^3
    V = enumerate_subspaces(3, 1, F2)[0]
    cert = decode_certificate(V, 2)
    from qdesign.grassmann import contains

    for a in enumerate_subspaces(3, 1, F2):
        total = sum(c for U, c in cert.coefficients.items() if contains(U, a))
        assert total == (6 if a == V else 0)


def test_certificate_nontrivial_ambient():
    for V in enumerate_subspaces(4, 1, F2)[:4]:
        cert = decode_certificate(V, 2)
        assert verify_certificate(cert)
        # rows outside the envelope carry no coefficient
        assert all(U.n == 4 for U in cert.coefficients)
        assert len(cert.coefficients) == q_binomial(3, 2, 2)


def test_certificate_t2():
    V = next(iter_subspaces(5, 2, F2))
    cert = decode_certificate(V, 3)
    assert len(cert.coefficients) == q_binomial(5, 3, 2) == 155
    assert verify_certificate(cert)


def test_certificate_caps_and_guards():
    V = next(iter_subspaces(3, 1, F2))
    with pytest.raises(DimensionMismatch):
        decode_certificate(V, 3)  # needs n >= t + k = 4
    with pytest.raises(TooLarge):
        decode_certificate(V, 2, max_subspaces=3)


def test_verify_certificate_caps_ambient_t_subspaces():
    # [3 1]_2 = 7 lines of F_2^3 to check
    cert = decode_certificate(next(iter_subspaces(3, 1, F2)), 2)
    assert verify_certificate(cert, max_subspaces=7)
    with pytest.raises(TooLarge, match=r"\[3 1\]_2 exceed cap 6"):
        verify_certificate(cert, max_subspaces=6)


def test_certificate_cost_does_not_grow_with_ambient_n():
    # the [t+k k]_q subspaces are built inside the envelope, so a huge
    # ambient space costs no more than F_2^3 beyond longer rows
    V = next(iter_subspaces(1000, 1, F2))
    start = time.monotonic()
    cert = decode_certificate(V, 2)
    assert time.monotonic() - start < 1.0
    assert cert.m == 6 and cert.l1_norm == 10
    assert sorted(cert.coefficients.values()) == [-1, -1, -1, -1, 2, 2, 2]


def test_lemma2_worked_values():
    lines = enumerate_subspaces(4, 1, F2)
    V1, V2 = lines[0], lines[1]
    assert intersect_dim(V1, V2) == 0
    assert lemma2_count(V1, V2, 2, 0) == 6
    assert lemma2_count(V1, V2, 2, 1) == 1
    assert lemma2_count_bruteforce(V1, V2, 2, 0) == 6
    assert lemma2_count_bruteforce(V1, V2, 2, 1) == 1


def test_lemma2_guards():
    lines = enumerate_subspaces(4, 1, F2)
    with pytest.raises(DimensionMismatch):
        lemma2_count(lines[0], lines[0], 2, 1)  # requires l < t
    with pytest.raises(DimensionMismatch):
        lemma2_count(lines[0], lines[1], 2, 2)  # j > t
    plane = enumerate_subspaces(4, 2, F2)[0]
    with pytest.raises(DimensionMismatch):
        lemma2_count(lines[0], plane, 2, 0)


def test_lemma2_sum_is_extension_count():
    rng = random.Random(12)
    for q, f, n, t, k in ((2, F2, 5, 2, 3), (3, F3, 4, 1, 2)):
        tsubs = enumerate_subspaces(n, t, f)
        for _ in range(15):
            V1 = tsubs[rng.randrange(len(tsubs))]
            V2 = tsubs[rng.randrange(len(tsubs))]
            if V1 == V2:
                continue
            l = intersect_dim(V1, V2)
            total = sum(lemma2_count(V1, V2, k, j) for j in range(l, t + 1))
            assert total == q_binomial(n - t, k - t, q)


def test_lemma2_formula_vs_bruteforce_random():
    rng = random.Random(99)
    for q, f, n, t, kmax in ((2, F2, 5, 2, 4), (3, F3, 4, 2, 3)):
        tsubs = enumerate_subspaces(n, t, f)
        for _ in range(10):
            V1 = tsubs[rng.randrange(len(tsubs))]
            V2 = tsubs[rng.randrange(len(tsubs))]
            if V1 == V2:
                continue
            l = intersect_dim(V1, V2)
            for k in range(t, kmax + 1):
                for j in range(l, t + 1):
                    assert lemma2_count(V1, V2, k, j) == lemma2_count_bruteforce(
                        V1, V2, k, j
                    )


def test_lemma2_grid_report_small():
    rep = lemma2_grid_report(2, 4, 2, 3)
    assert rep.ok
    assert rep.pair_count == 35 * 34
    assert sum(c.formula for c in rep.cells if c.l == 1) == rep.extension_count


def test_ordered_basis_products_reproduce_formula():
    # the two stepwise counting products, divided by their ordered-basis
    # normalizers, must multiply to the closed-form count
    from qdesign.localdecode import _ordered_basis_products_check

    for q in (2, 3):
        for n in range(2, 7):
            for t in (1, 2):
                if t >= n:
                    continue
                for k in range(t, min(4, n) + 1):
                    for l in range(max(0, 2 * t - n), t):
                        for j in range(l, t + 1):
                            b1 = q_binomial(t - l, j - l, q)
                            b2 = q_binomial(n - 2 * t + l, k - t - j + l, q)
                            if b1 == 0 or b2 == 0:
                                continue
                            assert _ordered_basis_products_check(q, n, t, k, l, j) is None


def test_row_maxima_locations():
    # structural claim behind the row-maxima bound: rows below the first
    # are maximized on the diagonal; the first row at column 0 or 1
    for q in (2, 3):
        for t in (1, 2, 3, 4):
            for k in range(t, 9):
                D = build_D(q, t, k)
                for l in range(1, t + 1):
                    assert max(D[l]) == D[l][l]
                assert max(D[0]) in (D[0][0], D[0][min(1, t)])


def test_det_bounds_worked_values():
    rep = check_det_bounds(2, 1, 2)
    by_label = {c.label: c for c in rep.checks}
    assert (by_label["det_D"].lhs, by_label["det_D"].rhs) == (6, 256)
    assert (by_label["row_maxima_product"].lhs, by_label["row_maxima_product"].rhs) == (6, 128)
    assert by_label["diagonals_D0"].lhs == 1
    assert by_label["diagonals_D0"].rhs == 2
    assert rep.ok


def test_det_bounds_grid():
    for q in (2, 3):
        for t in (1, 2, 3, 4):
            for k in range(t, 9):
                assert check_det_bounds(q, t, k).ok


def test_diagonal_count_exhaustive_definition():
    # D_0 for (2,1,2) is [[0,1],[1,3]]: only the swap permutation avoids zeros
    rep = check_det_bounds(2, 1, 2)
    d0 = next(c for c in rep.checks if c.label == "diagonals_D0")
    assert d0.lhs == 1


def test_c3_worked_values():
    rep = c3_bound(2, 1, 2)
    assert rep.m == 6
    assert rep.l1_norm == 10  # 3*2 + 4*1
    assert rep.exact_c3 == 10
    assert rep.cap == 2 ** (2 * 2 * 4) == 65536
    assert rep.ok and not rep.capped


def test_c3_grid_and_monotone_bound():
    prev = 0
    for k in range(1, 6):
        bound = c3_bound(2, 1, k, max_subspaces=10**4).cap
        assert bound > prev
        prev = bound
    for q, t, k in ((2, 2, 3), (3, 1, 3)):
        rep = c3_bound(q, t, k)
        assert rep.ok and rep.exact_c3 <= rep.cap


def test_c3_cap_degrades_gracefully():
    rep = c3_bound(2, 3, 8, max_subspaces=10)
    assert rep.capped and rep.exact_c3 is None and rep.ok is None
    assert rep.cap == 2 ** (2 * 8 * 16)
