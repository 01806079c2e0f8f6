"""Arithmetic in F_q (q <= 16) and exact linear algebra over F_q.

Elements of F_q are the integers 0..q-1.  Every order q = p^e, a prime
being the case e = 1, builds its tables on one route: an element x
encodes the polynomial whose base-p digits are its coefficients (x = c0 +
c1*p + ... with ci the coefficient of X^i), addition adds digits mod p,
and multiplication reduces modulo a fixed monic irreducible polynomial of
degree e.  A prime order has one digit and a product of degree 0, which
needs no reduction, so its elements are the residues mod q.

Irreducible polynomials used (coefficients by increasing degree, over F_p):
    q = 4  : X^2 + X + 1        -> (1, 1, 1)
    q = 8  : X^3 + X + 1        -> (1, 1, 0, 1)
    q = 9  : X^2 + 2X + 2       -> (2, 2, 1)
    q = 16 : X^4 + X + 1        -> (1, 1, 0, 0, 1)

These are the lexicographically minimal choices per (p, e), so every
table, canonical form, and report produced by the library is reproducible
bit for bit.  Full addition/multiplication/inverse tables are precomputed
at construction; all later arithmetic is branch-free table lookup.
Entries are range-checked where they enter (MatrixGFq(...), from_rows);
library-made matrices (_trusted), _rref_rows and _mul_rows check nothing.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import (
    DimensionMismatch, InvalidParameters, SingularMap, UnsupportedOrder, _value_class,
    check_chain, validate_q,
)

# Monic irreducible polynomial per supported prime power, coefficients by
# increasing degree over the prime subfield.
_REDUCTION_POLYS: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
}

_PRIME_ORDERS = (2, 3, 5, 7, 11, 13)

SUPPORTED_ORDERS = tuple(sorted(_PRIME_ORDERS + tuple(_REDUCTION_POLYS)))

_DIGITS = "0123456789abcdef"  # element x's digit, in design files and grassmann._packed


@_value_class
class FieldSpec:
    """The finite field F_q with precomputed arithmetic tables."""

    q: int
    characteristic: int
    degree: int
    reduction_polynomial: tuple[int, ...] | None
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    inv_table: tuple[int, ...]
    neg_table: tuple[int, ...]

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_table[a]

    # make_field is cached: one FieldSpec per order, compared by identity and unpickled by it
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        return make_field, (self.q,)

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.q})"


def _digits(x: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds: list[int], p: int) -> int:
    x = 0
    for c in reversed(ds):
        x = x * p + c
    return x


def _poly_mul_mod(a: int, b: int, p: int, e: int, red: tuple[int, ...] | None) -> int:
    da, db = _digits(a, p, e), _digits(b, p, e)
    prod = [0] * (2 * e - 1)
    for i, ca in enumerate(da):
        if ca:
            for j, cb in enumerate(db):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce modulo the monic degree-e polynomial
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(e):
                prod[i - e + j] = (prod[i - e + j] - c * red[j]) % p
    return _undigits(prod[:e], p)


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build the FieldSpec for F_q.

    Raises UnsupportedOrder unless q is one of SUPPORTED_ORDERS.
    """
    validate_q(q)
    if q in _PRIME_ORDERS:
        p, e, red = q, 1, None
    elif q in _REDUCTION_POLYS:
        red = _REDUCTION_POLYS[q]
        p = 2 if q in (4, 8, 16) else 3
        e = len(red) - 1
    else:
        raise UnsupportedOrder(f"q={q} not supported; choose one of {SUPPORTED_ORDERS}")

    add_rows = []
    for a in range(q):
        da = _digits(a, p, e)
        row = []
        for b in range(q):
            db = _digits(b, p, e)
            row.append(_undigits([(x + y) % p for x, y in zip(da, db)], p))
        add_rows.append(tuple(row))
    add = tuple(add_rows)
    mul = tuple(tuple(_poly_mul_mod(a, b, p, e, red) for b in range(q)) for a in range(q))

    neg = tuple(add[a].index(0) for a in range(q))
    inv = [0] * q
    for a in range(1, q):
        inv[a] = mul[a].index(1)

    return FieldSpec(
        q=q,
        characteristic=p,
        degree=e,
        reduction_polynomial=red,
        add_table=add,
        mul_table=mul,
        inv_table=tuple(inv),
        neg_table=neg,
    )


@_value_class
class MatrixGFq:
    """A dense rows x cols matrix over F_q, entries stored row-major."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch("entry count does not match shape")
        q = self.field.q
        if any(not (0 <= x < q) for x in self.entries):
            raise InvalidParameters("entry out of field range")

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: list | tuple) -> "MatrixGFq":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(field=field, rows=len(rows), cols=ncols, entries=tuple(x for r in rows for x in r))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.rows)]


def identity_matrix(field: FieldSpec, n: int) -> MatrixGFq:
    check_chain(0, n=n)
    return MatrixGFq._trusted(field, n, n, tuple([int(i == j) for i in range(n) for j in range(n)]))


def _rref_rows(field: FieldSpec, rows: list[list[int]], ncols: int) -> tuple[list[list[int]], int]:
    """In-place reduced row echelon form; returns (rows, rank).

    Pivot rule: columns scanned left to right, first nonzero entry
    top-down among the unprocessed rows.  Entries are not range-checked.
    """
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            scale = mul[inv[piv]]
            rows[r] = [scale[x] for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                # row_i - f * prow = row_i + (-f) * prow
                scale = mul[neg[rows[i][c]]]
                rows[i] = [add[x][scale[y]] for x, y in zip(rows[i], prow)]
        r += 1
        if r == nrows:
            break
    return rows, r


def rref(M: MatrixGFq) -> tuple[MatrixGFq, int]:
    """Reduced row echelon form of M and its rank."""
    rows, rank = _rref_rows(M.field, [list(r) for r in M.row_list()], M.cols)
    return MatrixGFq._trusted(M.field, M.rows, M.cols, tuple([x for r in rows for x in r])), rank


def rank(M: MatrixGFq) -> int:
    return rank_of_rows(M.field, M.row_list(), M.cols)


def rank_of_rows(field: FieldSpec, rows, ncols: int) -> int:
    """Rank of a list of row tuples, without building a MatrixGFq."""
    return _rref_rows(field, [list(r) for r in rows], ncols)[1]


def _mul_rows(field: FieldSpec, arows, brows, ncols: int) -> list[list[int]]:
    """Rows of A B for A, B given by their rows, B having ncols columns."""
    add, mul = field.add_table, field.mul_table
    out = []
    for arow in arows:
        acc = [0] * ncols
        for a, brow in zip(arow, brows):
            if a:
                scale = mul[a]
                acc = [add[x][scale[b]] for x, b in zip(acc, brow)]
        out.append(acc)
    return out


def mat_mul(A: MatrixGFq, B: MatrixGFq) -> MatrixGFq:
    if A.field != B.field or A.cols != B.rows:
        raise DimensionMismatch("incompatible shapes or fields")
    out = _mul_rows(A.field, A.row_list(), B.row_list(), B.cols)
    return MatrixGFq._trusted(A.field, A.rows, B.cols, tuple([x for r in out for x in r]))


def mat_inverse(M: MatrixGFq) -> MatrixGFq:
    """Inverse of a square matrix; raises SingularMap if not invertible."""
    if M.rows != M.cols:
        raise SingularMap("only square matrices can be inverted")
    n = M.rows
    aug = [list(M.row(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    aug, rk = _rref_rows(M.field, aug, 2 * n)
    if rk < n or any(aug[i][:n] != [1 if j == i else 0 for j in range(n)] for i in range(n)):
        raise SingularMap("matrix is singular")
    return MatrixGFq._trusted(M.field, n, n, tuple([x for r in aug for x in r[n:]]))


def random_invertible(field: FieldSpec, n: int, seed: int) -> MatrixGFq:
    """A uniformly sampled element of GL(n, q), deterministic per seed.

    Rejection sampling: the invertible fraction is at least 28% even for
    q = 2, so expected retries are small.
    """
    check_chain(1, n=n)
    rng = random.Random(seed)
    q = field.q
    while True:
        entries = tuple(rng.randrange(q) for _ in range(n * n))
        if rank_of_rows(field, [entries[i : i + n] for i in range(0, n * n, n)], n) == n:
            return MatrixGFq._trusted(field, n, n, entries)
