"""Canonical k-subspaces of F_q^n: enumeration, ranks, predicates, extensions.

A subspace is identified with its reduced-row-echelon basis (no zero
rows), which is unique, so two SubspaceBasis values are equal exactly
when they represent the same subspace; its entries are bytes, one per
entry, as the kernel, the packed designs and the oracles read them.
This module alone knows that shape.  Checks run where values enter from
outside: SubspaceBasis(...) refuses entries that differ from the _span
of their own rows, and subspace_from_rows, apply_map and verifier's
design files check their input.  Values the library made valid itself
skip them (_trusted, MatrixGFq._trusted); _span is the one elimination
from bare rows.

Canonical enumeration order: by pivot-column set (lexicographically
increasing), then by the free entries read in row-major order as a
base-q number whose least significant digit sits at the last free
position.  Enumeration generates matrices directly in echelon shape
(choose pivot columns, fill free entries), so no dedup pass is needed.

The rank of a subspace is its position in that order (subspace_rank,
unrank; extensions sorts by it): the offset of its pivot set, the count
of subspaces with a smaller one, plus its free entries read as that
base-q number.  Row i of a basis with pivot p has n - k + i - p free
entries, so the subspaces whose pivots agree with P = (p_0 < ...) before
row i and whose row-i pivot sits at a column c < p_i number
q^(e + n - k + i - c) [n-c-1 k-i-1]_q, e the free entries of rows
0..i-1.  The offset of P sums these at most n - k terms, and unrank
picks each pivot greedily from them.  _pivot_plan gives a pivot set's
offset, its template (the entries the pivots fix) and its free
positions, and every route that ranks, unranks or fills a pivot group
reads it.  _canonical_check tells whether entries whose rows lead at
given columns are canonical from the k x k entries in those columns,
with no elimination and no plan.

block_echelon_forms lists the canonical bases of a block's t-subspaces
without elimination, and the decoding certificate takes its subspaces
from it; it reads none of the kernel's tables, and the tests hold the
kernel to it.  _group_t_ranks lists their ranks in the same order for
many blocks with one pivot set: a pivot group of the incidence matrix
or the search, t_subspace_ranks' one block, or a run of _block_t_ranks,
which groups the verifier's blocks, given as bytes, by pivots it reads
in lanes as the kernel reads entries, _CHUNK at most to a call.
The images P B of the patterns P with one pivot set share their offset,
and a rank is that offset plus one contribution per row of P B, its free
entries in place.  Row i is B's row p_i plus c_m times B's row m over
P's free columns m in row i, so its contributions are a table over those
c_m alone (_t_plans), and the ranks are the sums over the product of the
rows' tables.

The kernel works on whole columns of blocks, in C.  Block j sits in lane
j of a big integer, a fixed number of bytes wide: enough for a rank and,
for q = 2^b, for the packed block.  Every partial sum of a rank stays
below [n t]_q, so lanes add with no carry from one to the next, and each
table entry is one such integer for all the blocks.  For q = 2^b
addition is XOR and scaling is F_2-linear on an entry's b bits, so a
contribution is F_2-affine in the c_m's bits.  The blocks are packed
once per scale 2^j, one bytes.translate and one int(., 2^w) with w bits
an entry (_lane_tables), and the contribution of row p_i and of 2^j
times each row m is read off them by shifts and masks repeated in every
lane; XOR doubling fills in the table.  For odd q an entry column holds
one entry per lane, in its low byte: c x is one bytes.translate, and
x + y one more once (x << 4) | y puts the two in the nibbles of one
byte.  A free entry's place value scales its column.  _lane_values
reads each t-subspace's ranks back out, by one typed memoryview read of
each lane's low item while ranks fit in 64 bits, so a call costs a
fixed number of big-integer operations however many blocks it holds.

The incidence matrix and the search rank every k-subspace, and
_rank_groups serves them one pivot group at a time, as covers only: a
block is its canonical rank, its position in the output.  For every q
it passes the group to _group_t_ranks _CHUNK blocks at a time, each
block its entries from _group_forms, and ticks once a call.  No
SubspaceBasis is built.

The brute-force oracles read vector sets, apart from that kernel: no
function or table of one side names one of the other, which a static
test checks.  A
vector is indexed by its entries read as a base-q number
(nonzero_vectors), so c times a row is one bytes.translate and one
int(., q) (_scaled_indices, with its own digit tables).  For q = 2^b
vectors add by XOR of their indices, so a span is built on indices from
each row's multiples (_multiples, _xor_span); odd q sums entry tuples
(_tuple_span).  _vector_sets lists nonzero_vectors() of a whole
Grassmannian in canonical order: for q = 2^b the values the rows of a
pivot group take (_group_rows, from the entry factors _row_factors that
_group_forms also reads) are indexed once, and each subspace is the
span of one value per row, with no SubspaceBasis built; odd q takes
each subspace's own nonzero_vectors.  _basis_rows lists the
rows' indices alone, and _leading_vector_sets the vectors of given
subspaces whose first nonzero entry is 1, among which lie the canonical
rows of each of their subspaces.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import chain, combinations, islice, product, repeat, tee
from operator import itemgetter

from .errors import (
    AmbientMismatch, DimensionMismatch, InvalidParameters, SingularMap, _Derived, _value_class,
    check_chain,
)
from .gf import (
    _DIGITS, FieldSpec, MatrixGFq, _mul_rows, _rref_rows, mat_inverse, mat_mul, rank_of_rows,
)
from .qcount import capped, q_binomial

_CHUNK = 4096  # blocks per kernel call: it bounds the kernel's tables


@_value_class
class SubspaceBasis:
    """A k-subspace of F_q^n as the row-major entries of its canonical
    (RREF, no zero rows) k x n basis, one byte each (the constructor also
    takes a tuple of ints), so equality and hash, which compare the
    fields, hold exactly between equal subspaces."""

    field: FieldSpec
    n: int
    k: int
    entries: bytes

    def __post_init__(self) -> None:
        q, n, k, entries = self.field.q, self.n, self.k, self.entries
        check_chain(0, k=k, n=n)
        if type(entries) is tuple and all(type(x) is int and 0 <= x < q for x in entries):
            object.__setattr__(self, "entries", entries := bytes(entries))
        if not (type(entries) is bytes and len(entries) == k * n and max(entries, default=0) < q
                and _span(self.field, n, self.rows()).entries == entries):
            raise InvalidParameters(
                f"entries are not the canonical basis of a {k}-subspace of F_{q}^{n}")

    @property
    def basis(self) -> MatrixGFq:
        """The canonical basis as a MatrixGFq, built on each access."""
        return MatrixGFq._trusted(self.field, self.k, self.n, tuple(self.entries))

    @_Derived
    def pivot_columns(self) -> tuple[int, ...]:
        # row i of a canonical basis leads with its pivot's 1
        return tuple([self.entries.index(1, i * self.n) - i * self.n for i in range(self.k)])

    def nonzero_vectors(self) -> list[int]:
        """Indices of the q^k - 1 nonzero vectors of the subspace.

        Vector (v0..v(n-1)) is indexed by the base-q integer with v0 most
        significant.  In characteristic 2 the base-q digits of an index
        are the base-2 digits of its entries and entries add by XOR, so
        two vectors add by XOR of their indices and the span is built on
        indices alone (_xor_span).  In odd characteristic the vectors are
        summed as tuples and indexed at the end.  Not cached: kept for
        every subspace, the lists would outweigh the masks.
        """
        field, rows = self.field, self.rows()
        if field.characteristic == 2:
            return _xor_span(_multiples(field, rows))
        return _indices(field, _tuple_span(field, self.n, rows)[1:])

    @_Derived
    def vector_mask(self) -> int:
        """Bitmask of all q^k vectors of the subspace: bit v is set iff
        the vector of index v (see nonzero_vectors) lies in it, bit 0
        for the zero vector.  Used by brute-force oracles: containment
        and intersection dimension become AND + popcount.
        """
        mask = 1
        for v in self.nonzero_vectors():
            mask |= 1 << v
        return mask

    def rows(self) -> list[bytes]:
        n, entries = self.n, self.entries
        return [entries[i * n : (i + 1) * n] for i in range(self.k)]

    def __repr__(self) -> str:
        rows = ",".join("".join(str(x) for x in r) for r in self.rows())
        return f"Subspace(q={self.field.q}, n={self.n}, [{rows}])"


_trusted = SubspaceBasis._trusted  # for entries the library made canonical itself: no check


def subspace_from_rows(field: FieldSpec, n: int, rows) -> SubspaceBasis:
    """Subspace spanned by arbitrary row vectors: checked against n and
    F_q, then canonicalized by RREF."""
    rows = [list(r) for r in rows]
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("row length does not match ambient dimension")
    q = field.q
    if any(not 0 <= x < q for r in rows for x in r):
        raise InvalidParameters("entry out of field range")
    return _span(field, n, rows)


def _span(field: FieldSpec, n: int, rows: list[list[int]]) -> SubspaceBasis:
    """Row space of rows (eliminated in place), with no entry check."""
    rows, rk = _rref_rows(field, rows, n)
    return _trusted(field, n, rk, b"".join(map(bytes, rows[:rk])))


@lru_cache(maxsize=None)  # one entry per field: make_field is cached
def _digit_tables(field: FieldSpec) -> tuple[bytes, ...]:
    """Per c in F_q, the bytes.translate table that writes an entry x,
    one byte, as the base-q digit of c x."""
    return tuple([bytes([ord(_DIGITS[y]) for y in row]).ljust(256, b"0")
                  for row in field.mul_table])


def _scaled_indices(field: FieldSpec, rows: list[bytes], scales) -> list[list[int]]:
    """Per scale c, the vector index (see nonzero_vectors) of c times each
    row, given one byte per entry: one bytes.translate and one int(., q)
    per row, the work in C.  Scaling acts entry by entry, so this holds
    in any characteristic."""
    tables, q = _digit_tables(field), field.q
    return [list(map(int, map(bytes.translate, rows, repeat(tables[c])), repeat(q)))
            for c in scales]


def _multiples(field: FieldSpec, rows: list[bytes]) -> list[list[int]]:
    """Per row, for q = 2^b, the indices of c times it for c = 1 .. q-1:
    read for each c = 2^j, j < b, and XORed for the others, since c times
    the row is the sum of 2^j times it over the bits j of c."""
    out = []
    for generators in zip(*_scaled_indices(field, rows, [1 << j for j in range(field.degree)])):
        multiples = [0]
        for g in generators:
            multiples += [g ^ m for m in multiples]
        out.append(multiples[1:])
    return out


def _xor_span(rows) -> list[int]:
    """The nonzero vectors spanned by rows given as their _multiples, for
    q = 2^b, where vectors add by XOR of their indices."""
    vecs: list[int] = []
    for multiples in rows:
        vecs += [*multiples, *[m ^ v for m in multiples for v in vecs]]
    return vecs


def _indices(field: FieldSpec, vectors) -> list[int]:
    """The index of each vector, given by its entries as a tuple or bytes."""
    return _scaled_indices(field, list(map(bytes, vectors)), (1,))[0]


def _tuple_span(field: FieldSpec, n: int, rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every vector of the span of rows as its entries, the zero vector
    first, summed through the field's tables: the route of odd q."""
    add, mul = field.add_table, field.mul_table
    tuples: list[tuple[int, ...]] = [(0,) * n]
    for row in rows:
        new = list(tuples)
        for c in range(1, field.q):
            scaled = [mul[c][x] for x in row]
            for v in tuples:
                new.append(tuple([add[a][b] for a, b in zip(v, scaled)]))
        tuples = new
    return tuples


@lru_cache(maxsize=1024)  # extensions fills the same small groups call after call
def _row_factors(n: int, pivots: tuple[int, ...], q: int) -> tuple:
    """Per row of the n-column canonical bases with these pivot columns,
    the values each entry ranges over: 1 at the row's pivot, F_q at a
    free entry (right of it, in no pivot column), 0 elsewhere.  The
    product over the row-major entries, the last fastest, is canonical
    order."""
    pivset, digits, zero = set(pivots), tuple(range(q)), (0,)
    return tuple([(*[zero] * p, (1,), *[zero if j in pivset else digits for j in range(p + 1, n)])
                  for p in pivots])


def _group_forms(n: int, pivots: tuple[int, ...], q: int) -> Iterator[bytes]:
    """Entries of every n-column canonical basis with these pivot columns,
    one byte each, in canonical order: each value of the first row joined
    to each of the other rows' values, read once and replayed from a tee."""
    head, *rest = _row_factors(n, pivots, q) or ((),)  # k = 0: one basis, no entries
    tails = tee(map(bytes, product(*chain.from_iterable(rest))), 1)[0]
    return chain.from_iterable(map(_joined, map(bytes, product(*head)), repeat(tails)))


def _joined(head: bytes, tails) -> Iterator[bytes]:
    return map(head.__add__, tails.__copy__())


def _group_rows(n: int, pivots: tuple[int, ...], q: int) -> list[list[bytes]]:
    """Per row of the canonical bases with these pivot columns, each value
    the row takes, one byte per entry, in canonical order: the product
    over the rows lists the group's bases."""
    return [list(map(bytes, product(*factors))) for factors in _row_factors(n, pivots, q)]


def _vector_sets(n: int, k: int, field: FieldSpec) -> Iterator[list[int]]:
    """nonzero_vectors() of every k-subspace of F_q^n, in canonical order.

    The route is picked by the characteristic.  For q = 2^b no
    SubspaceBasis is built: per pivot group, the _multiples of each value
    a row takes are read once, one bytes.translate and int(., q) per
    scale 2^j, and each subspace is the _xor_span of one value per row,
    in the product's order.  Odd q takes each subspace's own nonzero_vectors.
    """
    check_chain(0, k=k, n=n)
    if field.characteristic != 2:
        yield from (S.nonzero_vectors() for S in iter_subspaces(n, k, field))
        return
    for pivots in combinations(range(n), k):
        rows = [_multiples(field, values) for values in _group_rows(n, pivots, field.q)]
        yield from map(_xor_span, product(*rows))


def _basis_rows(n: int, k: int, field: FieldSpec) -> Iterator[tuple[int, ...]]:
    """The vector indices of the canonical rows of every k-subspace of
    F_q^n, in canonical order: per pivot group, each value a row takes
    is read once, by one int(., q)."""
    for pivots in combinations(range(n), k):
        yield from product(*[_indices(field, values) for values in _group_rows(n, pivots, field.q)])


def _leading_vector_sets(field: FieldSpec, subspaces: list[SubspaceBasis]) -> Iterator[list[int]]:
    """Per subspace S, the indices of the [k 1]_q vectors of S whose first
    nonzero entry is a 1: row i of the canonical basis plus each vector of
    the span of the rows below it.  A subspace lies in S exactly when its
    canonical rows, which lead with a 1, are among them.  For q = 2^b the
    rows of all the subspaces are read at once (_multiples) and added by
    XOR; odd q adds entry tuples (_tuple_span)."""
    if field.characteristic != 2:
        add = field.add_table
        for S in subspaces:
            rows, vecs = S.rows(), []
            for i, row in enumerate(rows):
                vecs += [tuple([add[x][y] for x, y in zip(row, v)])
                         for v in _tuple_span(field, S.n, rows[i + 1 :])]
            yield _indices(field, vecs)
        return
    multiples = iter(_multiples(field, [r for S in subspaces for r in S.rows()]))
    for S in subspaces:
        rows = list(islice(multiples, S.k))
        out: list[int] = []
        for i, (lead, *_) in enumerate(rows):
            out += [lead, *[lead ^ v for v in _xor_span(rows[i + 1 :])]]
        yield out


def iter_subspaces(n: int, k: int, field: FieldSpec) -> Iterator[SubspaceBasis]:
    """All k-subspaces of F_q^n in canonical order, lazily."""
    check_chain(0, k=k, n=n)
    forms = chain.from_iterable(_group_forms(n, p, field.q) for p in combinations(range(n), k))
    return map(_trusted, repeat(field), repeat(n), repeat(k), forms)


def _with_pivot(n: int, k: int, q: int, i: int, e: int, c: int) -> int:
    # the offset term for a row-i pivot at column c (see the module doc)
    return q ** (e + n - k + i - c) * q_binomial(n - c - 1, k - i - 1, q)


@lru_cache(maxsize=1024)
def _pivot_plan(n: int, q: int, pivots: tuple[int, ...]) -> tuple:
    """(offset, template, free positions) of the n-column canonical bases
    with these increasing pivots: the rank of the first, the row-major
    entries the pivots fix (1 at a pivot, else 0), and the flat indices
    of the free entries, right of a row's pivot and in no pivot column."""
    k, pivset = len(pivots), set(pivots)
    template, free = [0] * (k * n), []
    offset = e = 0
    for i, (prev, p) in enumerate(zip((-1,) + pivots, pivots)):
        offset += sum(_with_pivot(n, k, q, i, e, c) for c in range(prev + 1, p))
        e += n - k + i - p
        template[i * n + p] = 1
        free += [i * n + j for j in range(p + 1, n) if j not in pivset]
    return offset, bytes(template), tuple(free)


@lru_cache(maxsize=1024)
def _canonical_check(n: int, pivots: tuple[int, ...]):
    """(get, unit) with get(entries) == unit iff the k x n entries whose
    rows' first nonzero entries sit at these columns are canonical: the
    pivots increase, and each pivot column is a unit vector with its 1
    in the pivot's row, so get reads the k x k identity.  None if the
    pivots do not increase below n."""
    if pivots[-1] >= n or any(a >= b for a, b in zip(pivots, pivots[1:])):
        return None
    at = [i * n + p for i in range(len(pivots)) for p in pivots]
    get = itemgetter(*at)
    return get, get(dict.fromkeys(at, 0) | {i * n + p: 1 for i, p in enumerate(pivots)})


def subspace_rank(S: SubspaceBasis) -> int:
    """Position of S in the canonical order of iter_subspaces(S.n, S.k, .)."""
    q, entries = S.field.q, S.entries
    offset, _, free = _pivot_plan(S.n, q, S.pivot_columns)
    r = 0
    for f in free:
        r = r * q + entries[f]
    return offset + r


def unrank(n: int, k: int, field: FieldSpec, r: int) -> SubspaceBasis:
    """The k-subspace of F_q^n at position r of the canonical order."""
    check_chain(0, k=k, n=n)
    q = field.q
    if not 0 <= r < q_binomial(n, k, q):
        raise InvalidParameters(f"rank {r} is outside 0 .. [{n} {k}]_{q} - 1")
    pivots: list[int] = []
    e = c = 0
    for i in range(k):
        while r >= (count := _with_pivot(n, k, q, i, e, c)):
            r -= count
            c += 1
        pivots.append(c)
        e += n - k + i - c
        c += 1
    _, template, free = _pivot_plan(n, q, tuple(pivots))
    return _trusted(field, n, k, _group_entries(q, template, free, r))


def _unrank_sorted(n: int, k: int, field: FieldSpec, ranks: list[int]) -> list[SubspaceBasis]:
    """unrank of each of these increasing ranks, by one walk over the
    pivot groups in place of a pivot search per rank."""
    q, out = field.q, []
    groups, end = combinations(range(n), k), 0
    for r in ranks:
        while r >= end:
            offset, template, free = _pivot_plan(n, q, next(groups))
            end = offset + q ** len(free)
        out.append(_trusted(field, n, k, _group_entries(q, template, free, r - offset)))
    return out


def _group_entries(q: int, template: bytes, free: tuple[int, ...], i: int) -> bytes:
    """The entries of the block at index i of the pivot group with this
    _pivot_plan template and these free positions: i's base-q digits fill
    the free entries, the last digit least significant."""
    entries = bytearray(template)
    for pos in reversed(free):
        i, entries[pos] = divmod(i, q)
    return bytes(entries)


def block_echelon_forms(
    block: SubspaceBasis, t: int
) -> list[tuple[tuple[int, ...], list[list[int]]]]:
    """The row-major RREF entries of the [k t]_q t-subspaces of a
    k-dimensional block, grouped as (pivot columns, entries of each), in
    the canonical order of the t-subspaces of F_q^k they are images of.

    Each is the row space of P B, for P a canonical t x k basis of F_q^k
    and B the block's basis.  With B in RREF, P B is in RREF too: its row
    i has its pivot where B's row p_i has, p_i being P's pivot in row i.
    So the canonical basis is the product itself, with no elimination.
    P comes from combinations and _group_forms, with none of the rank
    kernel's tables, so the tests hold _group_t_ranks to this function.
    """
    field = block.field
    q, add, mul = field.q, field.add_table, field.mul_table
    rows = block.rows()
    k = len(rows)
    if not 0 <= t <= k:  # inline: this runs once per block
        check_chain(0, t=t, k=k)
    pivots = block.pivot_columns
    # scaled[m][c] = c * row m, for the coefficients c >= 1 that occur
    scaled = [[None, row] + [tuple([mul[c][x] for x in row]) for c in range(2, q)] for row in rows]
    groups = []
    for pat in combinations(range(k), t):
        images = []
        for entries in _group_forms(k, pat, q):
            image: list[int] = []
            for i, lead in enumerate(pat):
                # P's row i is 0 left of its pivot and at the other pivots
                acc = rows[lead]
                for m, c in enumerate(entries[i * k + lead + 1 : (i + 1) * k], lead + 1):
                    if c:
                        acc = [add[x][y] for x, y in zip(acc, scaled[m][c])]
                image += acc
            images.append(image)
        groups.append((tuple([pivots[p] for p in pat]), images))
    return groups


def t_subspace_ranks(block: SubspaceBasis, t: int) -> list[int]:
    """Canonical ranks of the [k t]_q t-subspaces of a k-dimensional
    block, in the order of block_echelon_forms, with no elimination: the
    one-block call of _group_t_ranks."""
    check_chain(0, t=t, k=block.k)
    ranks = _group_t_ranks(block.field, block.n, t, block.pivot_columns, [block.entries])
    return [r for r, in ranks]


# q = 2^b: an entry's bits in a packed lane, b rounded up to divide 8
_ENTRY_BITS = {2: 1, 4: 2, 8: 4, 16: 4}
# a memoryview format per lane width in bytes, for the widths it has
_LANE_TYPES = {memoryview(bytes(8)).cast(code).itemsize: code for code in "BHILQ"}
# for bytes.translate: 1 for a zero entry, 0 for any other
_ZERO_ENTRY = b"\1".ljust(256, b"\0")


@lru_cache(maxsize=None)  # one entry per field: make_field is cached
def _lane_tables(field: FieldSpec) -> tuple[bytes, ...]:
    """The kernel's bytes.translate tables, one byte per entry.  For
    q = 2^b, per j < b, the table that writes x as the base-2^w digit of
    2^j x, w = _ENTRY_BITS[q].  For odd q, per c in F_q, the table that
    maps x to (c x) << 4, then the table that maps (x << 4) | y to x + y.
    Each maps 0 to zero, so the zero bytes that pad the lanes stay zero."""
    add, mul = field.add_table, field.mul_table
    if field.characteristic == 2:
        return tuple([bytes([ord(_DIGITS[y]) for y in mul[1 << j]]).ljust(256, b"0")
                      for j in range(field.degree)])
    q = field.q
    sums = bytes([add[x >> 4][x & 15] if x >> 4 < q and x & 15 < q else 0 for x in range(256)])
    return tuple([bytes([y << 4 for y in row]).ljust(256, b"\0") for row in mul]) + (sums,)


def _lane_bytes(bits: int) -> int:
    """The bytes of a lane for values of this many bits: a memoryview
    item's width, 1, 2, 4 or 8, or whole 8-byte words past 64 bits."""
    return 1 << max(0, (bits - 1).bit_length() - 3) if bits <= 64 else -(-bits // 64) * 8


def _lane_values(x: int, count: int, width: int, bits: int) -> list[int]:
    """The count lanes of x, width bytes each, lane 0 the lowest, whose
    values have at most this many bits: up to 64, on a little-endian
    machine, one typed read of the lanes' low items."""
    data = x.to_bytes(count * width, "little")
    if bits > 64 or sys.byteorder != "little":
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    item = _lane_bytes(bits)
    return memoryview(data).cast(_LANE_TYPES[item])[:: width // item].tolist()


@lru_cache(maxsize=1024)  # a plan is reused only across calls
def _t_plans(n: int, q: int, t: int, pivots: tuple[int, ...]) -> tuple:
    """Per pattern pivot set of the t-subspaces of blocks with these
    pivots, in order: the images' offset and, per image row with free
    columns, its table's recipe.  For q = 2^b that is its probes (j, runs)
    in doubling order, 2^j times row p_i, then each row m, the last first
    and low bits first; a run (shift, mask, pos) moves (x >> shift) & mask
    of a block x packed with _ENTRY_BITS[q] bits per entry to bit pos.
    For odd q it is the table size and, per free column, (f, place value,
    fs): the column's flat index in row p_i and in each row m."""
    k = len(pivots)
    bits = q.bit_length() - 1 if q & (q - 1) == 0 else 0
    w = _ENTRY_BITS.get(q, 0)
    plans = []
    for pat in combinations(range(k), t):
        offset, _, free = _pivot_plan(n, q, tuple([pivots[p] for p in pat]))
        rows = []
        for i, lead in enumerate(pat):
            terms = [m for m in range(lead + 1, k) if m not in pat]
            # the free columns of image row i, with their base-q digit in the rank
            cols = [(f - i * n, len(free) - 1 - d) for d, f in enumerate(free) if f // n == i]
            if not cols:
                continue
            if not bits:
                rows.append((q ** len(terms), tuple([
                    (lead * n + j, q**e, tuple([m * n + j for m in terms])) for j, e in cols])))
                continue
            runs: list[list[int]] = []  # [first column, last column, its digit]
            for j, e in cols:
                # neighbouring columns are one run where an entry's w bits are its b bits
                if runs and runs[-1][1] == j - 1 and w == bits:
                    runs[-1][1:] = [j, e]
                else:
                    runs.append([j, j, e])
            rows.append(tuple([(j, tuple([(w * (n * (k - m) - 1 - last),
                                           (1 << bits * (last - first + 1)) - 1, bits * e)
                                          for first, last, e in runs]))
                               for j, m in [(0, lead)] + [(j, m) for m in reversed(terms)
                                                          for j in range(bits)]]))
        plans.append((offset, tuple(rows)))
    return tuple(plans)


def _group_t_ranks(
    field: FieldSpec, n: int, t: int, pivots: tuple[int, ...], forms
) -> list[list[int]]:
    """The canonical ranks of the t-subspaces of canonical blocks that
    share these pivot columns, given by their entries as bytes, one byte
    each: one list per t-subspace, in the order of block_echelon_forms, of
    one rank per block.  The module doc describes the method."""
    count = len(forms)
    if t == 0:  # every block has exactly one 0-subspace; its rows are not read
        return [[0] * count]
    q, k, tables = field.q, len(pivots), _lane_tables(field)
    binary = field.characteristic == 2
    # a lane holds a rank, and for q = 2^b a packed block too
    bits = (q_binomial(n, t, q) - 1).bit_length()
    width = _lane_bytes(max(bits, k * n * _ENTRY_BITS.get(q, 0)))
    length = count * width
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * count, "little")  # 1 in every lane
    if binary:
        w = _ENTRY_BITS[q]
        # block i in lane i, entry 0 most significant, below zero padding
        packed = bytes(8 * width // w - k * n).join(reversed(forms))
        scaled = [int(packed.translate(table), 1 << w) for table in tables]
    else:
        flat, lane, sums = b"".join(forms), bytearray(length), tables[q]
        multiples: dict[int, list[int]] = {}

        def spread(f):  # entry f of each block, in the low byte of its lane
            lane[::width] = flat[f :: k * n]
            return bytes(lane)

    out = []
    for offset, rows in _t_plans(n, q, t, pivots):
        ranks = [offset * ones]
        for row in rows:
            if binary:
                table: list[int] = []
                for j, runs in row:  # the entries of 2^j times the blocks at these runs
                    word = 0
                    for shift, mask, pos in runs:
                        word |= (scaled[j] >> shift & mask * ones) << pos
                    table += [v ^ word for v in table] if table else [word]
            else:
                size, cols = row
                table = [0] * size
                for f, weight, fs in cols:
                    digits = [int.from_bytes(spread(f), "little")]
                    for g in fs:  # add c times row m's entry, for each c, nibble by nibble
                        if g not in multiples:
                            multiples[g] = [int.from_bytes(spread(g).translate(mul), "little")
                                            for mul in tables[:q]]
                        digits = [int.from_bytes((a | m).to_bytes(length, "little").translate(sums),
                                                 "little")
                                  for a in digits for m in multiples[g]]
                    table = [x + weight * d for x, d in zip(table, digits)]
            ranks = [a + b for a in ranks for b in table]
        out += [_lane_values(r, count, width, bits) for r in ranks]
    return out


def _block_t_ranks(
    field: FieldSpec, n: int, k: int, t: int, forms: list[bytes]
) -> Iterator[list[int]]:
    """The rank lists of _group_t_ranks for canonical k-dimensional blocks
    given by their entries as bytes, one byte each, in any order, grouped
    by pivots and passed at most _CHUNK at a time, so each rank occurs
    once per block containing its t-subspace."""
    count, data = len(forms), b"".join(forms)
    # row i of a canonical block leads with a 1, so its pivot counts the
    # columns j whose entries 0..j of the row are all zero: read in lanes,
    # one entry column of every block at a time, as the kernel reads them
    bits = n.bit_length()
    width = _lane_bytes(bits)
    lane, leads = bytearray(count * width), []
    for i in range(k):
        run, lead = -1, 0
        for f in range(i * n, i * n + n):
            lane[::width] = data[f :: k * n].translate(_ZERO_ENTRY)
            run &= int.from_bytes(lane, "little")
            lead += run
        leads.append(_lane_values(lead, count, width, bits))
    keys = zip(*leads) if k else repeat((), count)  # zip() would yield no key
    groups: defaultdict[tuple[int, ...], list[bytes]] = defaultdict(list)
    for pivots, form in zip(keys, forms):
        groups[pivots].append(form)
    for pivots, group in groups.items():
        for s in range(0, len(group), _CHUNK):
            yield from _group_t_ranks(field, n, t, pivots, group[s : s + _CHUNK])


def _rank_groups(
    n: int, k: int, t: int, field: FieldSpec, tick: Callable[[], None] | None = None
) -> Iterator[list[tuple[int, ...]]]:
    """The covers of the k-subspaces of F_q^n in canonical order, one
    pivot group at a time: covers[j] == tuple(t_subspace_ranks(S, t)) for
    S the group's j-th block, which is never built.  It takes no cap:
    each caller bounds [n k]_q first.

    Each group goes to _group_t_ranks _CHUNK blocks at a time, a block
    given by its entries from _group_forms.

    tick, if given, is called after every call, so a caller can stop a
    long group by raising.
    """
    q, tick = field.q, tick or (lambda: None)
    for pivots in combinations(range(n), k):
        forms = _group_forms(n, pivots, q)
        covers: list[tuple[int, ...]] = []
        while chunk := list(islice(forms, _CHUNK)):
            covers += zip(*_group_t_ranks(field, n, t, pivots, chunk))
            tick()
        yield covers


def enumerate_subspaces(
    n: int, k: int, field: FieldSpec, max_count: int = 10**7
) -> list[SubspaceBasis]:
    """All k-subspaces as a list; raises TooLarge past max_count."""
    capped(field.q, [(n, k)], max_count)
    return list(iter_subspaces(n, k, field))


def _check_same_space(U: SubspaceBasis, V: SubspaceBasis) -> None:
    if U.field.q != V.field.q or U.n != V.n:
        raise AmbientMismatch(
            f"operands live in different spaces: q={U.field.q},n={U.n} vs q={V.field.q},n={V.n}"
        )


def contains(U: SubspaceBasis, V: SubspaceBasis) -> bool:
    """True iff V is a subspace of U."""
    return intersect_dim(U, V) == V.k


def intersect_dim(U: SubspaceBasis, V: SubspaceBasis) -> int:
    """dim(U intersect V) = dim U + dim V - dim(U + V)."""
    _check_same_space(U, V)
    return U.k + V.k - rank_of_rows(U.field, U.rows() + V.rows(), U.n)


def subspace_dim_from_count(q: int, count: int) -> int:
    """Dimension of a subspace given its exact number of vectors q^d."""
    d = 0
    c = 1
    while c < count:
        c *= q
        d += 1
    if c != count:
        raise ValueError(f"{count} is not a power of {q}")
    return d


def extensions(V: SubspaceBasis, k: int, max_count: int = 10**7) -> list[SubspaceBasis]:
    """All k-subspaces U with V <= U <= F_q^n, in canonical order, for
    V of dimension t <= k.

    Subspaces containing V correspond to (k - dim V)-subspaces of the
    quotient F_q^n / V; the quotient is coordinatized by the non-pivot
    columns of V's basis, and each quotient basis vector is lifted by
    placing its entries at those columns.
    """
    field, n, t = V.field, V.n, V.k
    check_chain(0, t=t, k=k, n=n)
    capped(field.q, [(n - t, k - t)], max_count)
    nonpiv = [j for j in range(n) if j not in V.pivot_columns]
    # lifted row r reads row r of W at the non-pivot columns, a 0 appended at V's pivots
    reads = [[r * (n - t) + nonpiv.index(j) if j in nonpiv else -1 for j in range(n)]
             for r in range(k - t)]
    vrows, out = V.rows(), []
    for W in iter_subspaces(n - t, k - t, field):
        entries = W.entries + b"\0"
        out.append(_span(field, n, vrows + [[entries[j] for j in row] for row in reads]))
    out.sort(key=subspace_rank)
    return out


def apply_map(L: MatrixGFq, V: SubspaceBasis) -> SubspaceBasis:
    """Image of V under the invertible map x -> x L (right action on rows)."""
    if L.field.q != V.field.q:
        raise AmbientMismatch("map and subspace over different fields")
    if L.rows != L.cols or L.rows != V.n:
        raise DimensionMismatch("map must be n x n for ambient dimension n")
    lrows = L.row_list()
    if rank_of_rows(L.field, lrows, L.cols) != L.rows:
        raise SingularMap("map is not invertible")
    out = _image(V, lrows)
    assert out.k == V.k
    return out


def _image(V: SubspaceBasis, lrows: list) -> SubspaceBasis:
    """apply_map's body, for the rows of a map known to be invertible."""
    return _span(V.field, V.n, _mul_rows(V.field, V.rows(), lrows, V.n))


def complete_basis(V: SubspaceBasis) -> MatrixGFq:
    """Extend V's basis to a basis of F_q^n: V's rows, then the unit
    vectors at V's non-pivot columns.  With the pivot columns moved
    first the rows form a unit upper block-triangular matrix, so they are
    a basis by construction, with no elimination."""
    n, pivots = V.n, set(V.pivot_columns)
    units = [int(i == j) for j in range(n) if j not in pivots for i in range(n)]
    return MatrixGFq._trusted(V.field, n, n, (*V.entries, *units))


def gl_map_between(U1: SubspaceBasis, U2: SubspaceBasis) -> MatrixGFq:
    """An invertible L with apply_map(L, U1) == U2 (basis extension)."""
    _check_same_space(U1, U2)
    if U1.k != U2.k:
        raise DimensionMismatch("subspaces must have equal dimension")
    B1 = complete_basis(U1)
    B2 = complete_basis(U2)
    return mat_mul(mat_inverse(B1), B2)
