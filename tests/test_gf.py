import hashlib

import pytest

from qdesign.errors import SingularMap, UnsupportedOrder
from qdesign.gf import (
    SUPPORTED_ORDERS,
    MatrixGFq,
    identity_matrix,
    make_field,
    mat_inverse,
    mat_mul,
    random_invertible,
    rank,
    rref,
)


def test_supported_orders():
    assert SUPPORTED_ORDERS == (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    for q in SUPPORTED_ORDERS:
        f = make_field(q)
        assert f.q == q
        assert f.characteristic ** f.degree == q
        assert (f.reduction_polynomial is not None) == (f.degree > 1)


@pytest.mark.parametrize("q", [1, 6, 10, 12, 17, 25])
def test_unsupported_order(q):
    with pytest.raises(UnsupportedOrder):
        make_field(q)


def test_f2_and_f3_tables():
    f2 = make_field(2)
    assert f2.add(1, 1) == 0 and f2.mul(1, 1) == 1
    f3 = make_field(3)
    assert f3.mul(2, 2) == 1  # 4 mod 3


def test_f4_reduction():
    # element 2 is the polynomial X; X*X = X + 1 = element 3 under X^2+X+1
    f4 = make_field(4)
    assert f4.reduction_polynomial == (1, 1, 1)
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1  # X * (X+1) = X^2+X = 1


def test_field_tables_pinned_digest():
    # prime orders take the prime-power route with one digit; the digest,
    # taken when they had a residue route of their own, pins every table
    text = repr([
        (q, f.add_table, f.mul_table, f.inv_table, f.neg_table, f.characteristic, f.degree,
         f.reduction_polynomial)
        for q in SUPPORTED_ORDERS
        for f in [make_field(q)]
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0e85faedb297823d30fe1a699203f7a6e8a63b648794124f2ae72f4df8af6225"
    )


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)


def test_rref_identity_fixed_point():
    f2 = make_field(2)
    I = identity_matrix(f2, 2)
    R, rk = rref(I)
    assert R == I and rk == 2


def test_rref_duplicate_rows():
    f2 = make_field(2)
    M = MatrixGFq.from_rows(f2, [(1, 1), (1, 1)])
    R, rk = rref(M)
    assert rk == 1
    assert R.row_list() == [(1, 1), (0, 0)]


def test_rref_hand_oracle():
    # third row is the sum of the first two, so rank 2
    f2 = make_field(2)
    M = MatrixGFq.from_rows(f2, [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    R, rk = rref(M)
    assert rk == 2
    assert R.row_list() == [(1, 0, 1), (0, 1, 1), (0, 0, 0)]


def test_rref_idempotent_random():
    import random

    for q in (2, 3, 4, 5, 9):
        f = make_field(q)
        rng = random.Random(q)
        for _ in range(20):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 6)
            M = MatrixGFq(
                field=f,
                rows=rows,
                cols=cols,
                entries=tuple(rng.randrange(q) for _ in range(rows * cols)),
            )
            R, rk = rref(M)
            R2, rk2 = rref(R)
            assert (R2, rk2) == (R, rk)
            # pivot columns strictly increase and are elsewhere zero
            pivots = []
            for i in range(rk):
                row = R.row(i)
                j = next(c for c, x in enumerate(row) if x)
                assert row[j] == 1
                pivots.append(j)
                assert all(R.at(r, j) == 0 for r in range(R.rows) if r != i)
            assert pivots == sorted(pivots)
            assert all(not any(R.row(i)) for i in range(rk, R.rows))


def test_random_invertible_f2_n1():
    f2 = make_field(2)
    for seed in range(10):
        assert random_invertible(f2, 1, seed).entries == (1,)


def test_random_invertible_in_gl22():
    f2 = make_field(2)
    gl22 = {
        m.entries
        for m in (
            MatrixGFq(field=f2, rows=2, cols=2, entries=(a, b, c, d))
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
            for d in (0, 1)
        )
        if rank(m) == 2
    }
    assert len(gl22) == 6  # (4-1)(4-2)
    seen = set()
    for seed in range(30):
        M = random_invertible(f2, 2, seed)
        assert M.entries in gl22
        seen.add(M.entries)
    assert len(seen) > 1  # different seeds do vary


def test_random_invertible_full_rank_100_seeds():
    f2 = make_field(2)
    for seed in range(100):
        assert rank(random_invertible(f2, 3, seed)) == 3


def test_random_invertible_deterministic():
    f3 = make_field(3)
    assert random_invertible(f3, 3, 17) == random_invertible(f3, 3, 17)


def test_random_invertible_pinned_digest():
    # the matrix each seed returns; how a sample is tested must not
    # change the RNG draws
    h = hashlib.sha256()
    for q in (2, 3, 4):
        f = make_field(q)
        for n in range(1, 6):
            for seed in range(100):
                h.update(repr((q, n, seed, random_invertible(f, n, seed).entries)).encode())
    assert h.hexdigest() == "2d28498825aabad02c1bbaf88ba750ef69b564f9c844a9155b3d664a954321c2"


def test_random_invertible_builds_one_matrix(monkeypatch):
    # rejected samples are ranked as bare rows; only the result is built
    created = []
    original = MatrixGFq.__post_init__

    def counting(self):
        created.append(self.entries)
        original(self)

    monkeypatch.setattr(MatrixGFq, "__post_init__", counting)
    f2 = make_field(2)
    for seed in range(20):
        created.clear()
        M = random_invertible(f2, 4, seed)
        assert created == [M.entries]


def test_rref_of_invertible_is_identity():
    for q in (2, 3, 5):
        f = make_field(q)
        for seed in range(10):
            M = random_invertible(f, 4, seed)
            R, rk = rref(M)
            assert rk == 4
            assert R == identity_matrix(f, 4)


def test_mat_inverse_round_trip():
    for q in (2, 3, 4):
        f = make_field(q)
        for seed in range(5):
            M = random_invertible(f, 3, seed)
            assert mat_mul(M, mat_inverse(M)) == identity_matrix(f, 3)


def test_mat_inverse_singular():
    f2 = make_field(2)
    M = MatrixGFq.from_rows(f2, [(1, 1), (1, 1)])
    with pytest.raises(SingularMap):
        mat_inverse(M)


def test_matrix_validation():
    f2 = make_field(2)
    with pytest.raises(ValueError):
        MatrixGFq(field=f2, rows=2, cols=2, entries=(0, 1, 1))
    with pytest.raises(ValueError):
        MatrixGFq(field=f2, rows=1, cols=2, entries=(0, 2))
