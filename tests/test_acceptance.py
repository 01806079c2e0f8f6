"""Acceptance criteria, one test per criterion.

Every check is exact (integer equality); each criterion prints a
PASS/FAIL line and enforces its stated wall-clock budget.
"""

import time
from contextlib import contextmanager

from conftest import run_process

from qdesign.gf import make_field
from qdesign.grassmann import enumerate_subspaces, extensions, iter_subspaces
from qdesign.incidence import build_incidence, check_symmetry_transitivity
from qdesign.klp import divisibility_witness, klp_report
from qdesign.localdecode import (
    check_cond2,
    check_det_bounds,
    decode_certificate,
    lemma2_grid_report,
    solve_coefficients,
    verify_certificate,
)
from qdesign.qcount import check_bounds, q_binomial, q_binomial_via_sum
from qdesign.search import NotFound, search_design
from qdesign.verifier import DesignCandidate, verify_design


@contextmanager
def criterion(num: int, description: str, budget: float | None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed >= budget:
        print(f"FAIL criterion {num}: {description} (took {elapsed:.1f}s, budget {budget:.0f}s)")
        raise AssertionError(f"criterion {num} exceeded budget: {elapsed:.1f}s >= {budget}s")
    print(f"PASS criterion {num}: {description} ({elapsed:.1f}s)")


def test_criterion_1_counting_core():
    with criterion(1, "counting core: q-binomial equals enumeration on the grid", 60):
        for q, nmax in ((2, 6), (3, 5), (4, 4), (5, 4)):
            field = make_field(q)
            for n in range(nmax + 1):
                for k in range(n + 1):
                    count = sum(1 for _ in iter_subspaces(n, k, field))
                    assert count == q_binomial(n, k, q)


def test_criterion_2_binomial_bounds_and_sum_identity():
    with criterion(2, "term-counting bounds and sum identity on the grid", None):
        import math

        for q in (2, 3, 4, 5):
            for n in range(13):
                for k in range(n + 1):
                    b = check_bounds(n, k, q)
                    assert b.ok and b.lower <= b.value <= b.upper
                    if math.comb(n, k) <= 10**6:
                        assert q_binomial_via_sum(n, k, q) == b.value


def test_criterion_3_extension_counts():
    with criterion(3, "extension counts match the quotient binomial on the grid", 60):
        for q in (2, 3):
            field = make_field(q)
            for n in range(1, 6):
                for tt in range(n + 1):
                    for V in iter_subspaces(n, tt, field):
                        for k in range(tt, n + 1):
                            assert len(extensions(V, k)) == q_binomial(n - tt, k - tt, q)


def test_criterion_4_intersection_count_formula():
    with criterion(4, "intersection-count formula equals brute force on the grid", 300):
        grids = [(2, (2, 3, 4, 5, 6)), (3, (2, 3, 4))]
        for q, n_values in grids:
            for n in n_values:
                for t in range(1, min(2, n - 1) + 1):
                    for k in range(t, min(4, n) + 1):
                        rep = lemma2_grid_report(q, n, t, k)
                        assert rep.ok, rep.mismatch
                        # every ordered pair of distinct t-subspaces was checked
                        total = q_binomial(n, t, q)
                        assert rep.pair_count == total * (total - 1)


def test_criterion_5_decode_systems():
    with criterion(5, "decode systems solve exactly on the grid", 30):
        for q in (2, 3):
            for t in (1, 2, 3):
                for k in range(t + 1, t + 5):
                    s = solve_coefficients(q, t, k)
                    assert all(isinstance(v, int) for v in s.f)
                    target = [0] * t + [s.m]
                    assert [
                        sum(s.D[l][j] * s.f[j] for j in range(t + 1))
                        for l in range(t + 1)
                    ] == target
                    assert s.f[t] * q_binomial(k, k - t, q) == s.m
                    assert check_cond2(q, t, k)


def test_criterion_6_certificate_identity():
    with criterion(6, "decoding certificates sum to m at V and 0 elsewhere", 120):
        s = solve_coefficients(2, 1, 2)
        assert s.m == 6 and s.f == (-1, 2)
        field = make_field(2)
        for t, k, n in ((1, 2, 3), (1, 2, 4), (2, 3, 5)):
            V = next(iter_subspaces(n, t, field))
            cert = decode_certificate(V, k)
            assert verify_certificate(cert)


def test_criterion_7_determinant_bounds():
    with criterion(7, "determinant, row-maxima, and diagonal-count bounds", 60):
        for q in (2, 3):
            for t in (1, 2, 3, 4):
                for k in range(t, 9):
                    assert check_det_bounds(q, t, k).ok


def test_criterion_8_design_verification():
    with criterion(8, "trivial-design verification and drop-one histogram", 10):
        field = make_field(2)
        blocks = tuple(enumerate_subspaces(4, 2, field))
        rep = verify_design(DesignCandidate(field=field, n=4, k=2, blocks=blocks), 1)
        assert rep.is_design and rep.is_trivial
        assert rep.lambda_ == 7 == q_binomial(3, 1, 2)
        assert rep.lambda_ * q_binomial(4, 1, 2) == len(blocks) * q_binomial(2, 1, 2)
        assert 7 * 15 == 35 * 3
        dropped = verify_design(
            DesignCandidate(field=field, n=4, k=2, blocks=blocks[1:]), 1
        )
        assert not dropped.is_design
        assert dropped.counts_histogram == {6: 3, 7: 12}


def test_criterion_9_search():
    with criterion(9, "exact-cover search finds spreads and proves NotFound", 120):
        spread4 = search_design(2, 4, 2, 1, 1)
        assert len(spread4.blocks) == 5
        rep4 = verify_design(spread4, 1)
        assert rep4.is_design and rep4.is_simple and not rep4.is_trivial and rep4.lambda_ == 1
        spread6 = search_design(2, 6, 3, 1, 1)
        assert len(spread6.blocks) == 9
        rep6 = verify_design(spread6, 1)
        assert rep6.is_design and rep6.is_simple and not rep6.is_trivial and rep6.lambda_ == 1
        assert isinstance(search_design(2, 3, 2, 1, 1), NotFound)


def test_criterion_10_incidence_properties():
    with criterion(10, "incidence weights, 0/1 boundedness, transitivity spot check", 60):
        field = make_field(2)
        for n, k, t in ((3, 2, 1), (4, 2, 1), (5, 3, 2)):
            M = build_incidence(n, k, t, field)
            assert M.row_weight == q_binomial(k, t, 2)
            assert M.col_weight == q_binomial(n - t, k - t, 2)
            assert all(r.bit_count() == M.row_weight for r in M.bits)
            for a in range(M.num_cols):
                assert sum(M.entry(b, a) for b in range(M.num_rows)) == M.col_weight
            assert all(
                M.entry(b, a) in (0, 1)
                for b in range(M.num_rows)
                for a in range(M.num_cols)
            )
            assert check_symmetry_transitivity(M, trials=20, seed=7)


def test_criterion_11_klp_report():
    with criterion(11, "existence-condition report and feasibility points", 10):
        for q, n, k, t in ((2, 8, 3, 1), (3, 6, 2, 1), (2, 10, 4, 2)):
            assert klp_report(q, n, k, t).c2 == 1
        assert klp_report(2, 1000, 25, 1, constant=1).feasible
        assert not klp_report(2, 1000, 12, 1, constant=1).feasible
        # the witness is m [n t]_q, m = det D
        assert divisibility_witness(2, 4, 2, 1) == 90
        assert divisibility_witness(3, 6, 2, 1) == solve_coefficients(3, 1, 2).m * q_binomial(6, 1, 3)


def test_criterion_12_selftest_determinism():
    with criterion(12, "selftest reports byte-identical across worker counts", None):
        code1, out1, _ = run_process("selftest", "--workers", "1")
        code8, out8, _ = run_process("selftest", "--workers", "8")
        assert code1 == 0 and code8 == 0
        assert out1 == out8
        assert "selftest: 28/28 suites ok" in out1
