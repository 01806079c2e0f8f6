"""The 0/1 incidence structure between k-subspaces (rows) and t-subspaces
(columns) of F_q^n, with entry 1 exactly when the column is contained in
the row.

Rows are stored bit-packed, one arbitrary-precision integer per row, so
weights are popcounts.  Row and column order follow the canonical
enumeration order of the grassmann module, which makes every report
reproducible.
"""

from __future__ import annotations

import random
from itertools import chain

from .errors import TooLarge, _value_class, check_chain, number_text
from .gf import FieldSpec
from .grassmann import (
    SubspaceBasis, _image, _rank_groups, gl_map_between, iter_subspaces, subspace_rank,
)
from .qcount import capped, q_binomial


@_value_class
class IncidenceStructure:
    field: FieldSpec
    n: int
    k: int
    t: int
    row_index: tuple[SubspaceBasis, ...]
    col_index: tuple[SubspaceBasis, ...]
    bits: tuple[int, ...]
    row_weight: int
    col_weight: int

    def entry(self, b: int, a: int) -> int:
        return (self.bits[b] >> a) & 1

    @property
    def num_rows(self) -> int:
        return len(self.row_index)

    @property
    def num_cols(self) -> int:
        return len(self.col_index)

    def total_ones(self) -> int:
        return sum(r.bit_count() for r in self.bits)


def build_incidence(
    n: int, k: int, t: int, field: FieldSpec, max_bits: int = 10**9
) -> IncidenceStructure:
    """Build the full structure for parameters t <= k <= n.

    Each row's ones sit at the canonical ranks of the t-subspaces *of the
    row subspace* (one pivot group of rows at a time, by
    grassmann._rank_groups), which costs [k t]_q per row
    instead of a containment test per (row, column) pair; both indexes
    list the subspaces in canonical order, by iter_subspaces.  Entries
    are only ever 0 or 1 by construction, so the boundedness parameter
    of the structure is 1.  max_bits bounds rows x cols + 100 (rows +
    cols): each row and column index entry is charged 100 bits.
    """
    q = field.q
    check_chain(0, t=t, k=k, n=n)
    num_rows, num_cols = capped(q, [(n, k), (n, t)], max_bits, "{0} x {1} bits exceeds cap {cap}")
    if num_rows * num_cols + 100 * (num_rows + num_cols) > max_bits:
        r, c, cap = map(number_text, (num_rows, num_cols, max_bits))
        raise TooLarge(f"{r} x {c} bits + 100 x ({r} + {c}) index bits exceeds cap {cap}")

    row_weight = q_binomial(k, t, q)
    col_weight = q_binomial(n - t, k - t, q)

    bits = []
    col_counts = [0] * num_cols
    for ranks in chain.from_iterable(_rank_groups(n, k, t, field)):
        mask = 0
        for pos in ranks:
            mask |= 1 << pos
            col_counts[pos] += 1
        if mask.bit_count() != row_weight:
            raise AssertionError(f"row weight {mask.bit_count()} != [k t]_q = {row_weight}")
        bits.append(mask)
    bad = [j for j, c in enumerate(col_counts) if c != col_weight]
    if bad:
        raise AssertionError(f"column {bad[0]} weight {col_counts[bad[0]]} != {col_weight}")

    return IncidenceStructure(
        field=field,
        n=n,
        k=k,
        t=t,
        row_index=tuple(iter_subspaces(n, k, field)),
        col_index=tuple(iter_subspaces(n, t, field)),
        bits=tuple(bits),
        row_weight=row_weight,
        col_weight=col_weight,
    )


def average_row(M: IncidenceStructure) -> Fraction:
    """The constant value of the average row, as an exact rational.

    Both closed forms must agree: [k t]_q / [n t]_q (row weight over
    column count) and [n-t k-t]_q / [n k]_q (column weight over row
    count).
    """
    from fractions import Fraction

    q = M.field.q
    a = Fraction(q_binomial(M.k, M.t, q), q_binomial(M.n, M.t, q))
    b = Fraction(q_binomial(M.n - M.t, M.k - M.t, q), q_binomial(M.n, M.k, q))
    if a != b:
        raise AssertionError(f"average-row identity failed: {a} != {b}")
    if a != Fraction(M.col_weight, M.num_rows):
        raise AssertionError("average row does not match built column weight")
    return a


def check_constant_vector_property(M: IncidenceStructure) -> bool:
    """Every row sums to [k t]_q, so the all-ones vector is 1/[k t]_q
    times the sum of the columns."""
    w = q_binomial(M.k, M.t, M.field.q)
    return all(r.bit_count() == w for r in M.bits)


def check_symmetry_transitivity(M: IncidenceStructure, trials: int, seed: int) -> bool:
    """Spot-check that invertible maps act transitively on rows while
    preserving entries.

    For `trials` random row pairs (b1, b2) an invertible map sending
    subspace b1 to b2 is constructed; the induced row and column
    permutations must map b1 to b2 and preserve sampled entries.
    """
    rng = random.Random(seed)
    nrows, ncols = M.num_rows, M.num_cols
    for _ in range(trials):
        b1, b2 = rng.randrange(nrows), rng.randrange(nrows)
        lrows = gl_map_between(M.row_index[b1], M.row_index[b2]).row_list()
        # positions are canonical ranks; gl_map_between's maps are invertible
        ranks = [subspace_rank(_image(s, lrows)) for s in M.row_index + M.col_index]
        pi, sigma = ranks[:nrows], ranks[nrows:]
        if pi[b1] != b2:
            return False
        if sorted(pi) != list(range(nrows)) or sorted(sigma) != list(range(ncols)):
            return False
        for _ in range(1000):
            i, j = rng.randrange(nrows), rng.randrange(ncols)
            if M.entry(pi[i], sigma[j]) != M.entry(i, j):
                return False
    return True


def export_bits_text(M: IncidenceStructure) -> str:
    """Rows of 0/1 characters (column 0 leftmost), one row per line."""
    spec = f"0{M.num_cols}b"  # bit j, column j, is the j-th digit from the right
    return "\n".join([format(mask, spec)[::-1] for mask in M.bits]) + "\n"
