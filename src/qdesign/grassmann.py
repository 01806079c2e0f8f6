"""Canonical k-subspaces of F_q^n: enumeration, ranks, predicates, extensions.

A subspace is identified with its reduced-row-echelon basis (no zero
rows), which is unique, so two SubspaceBasis values are equal exactly
when they represent the same subspace.  This module alone knows that
shape.  Checks run where values enter from outside: SubspaceBasis(...)
refuses entries that differ from the _span of their own rows, and
subspace_from_rows, apply_map and verifier's design files check their
input.  Values the library made valid itself skip them (_trusted,
MatrixGFq._trusted); _span is the one elimination from bare rows.

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
reads it; _canonical_check reads its template to tell whether entries
whose rows lead at given columns are canonical, with no elimination.

block_echelon_forms lists the canonical bases of a block's t-subspaces
without elimination, and the decoding certificate takes its subspaces
from it; it reads none of the kernel's tables, and the tests hold the
kernel to it.  _group_t_ranks lists their ranks in the same order for
many blocks with one pivot set: a pivot group of the incidence matrix
or the search, t_subspace_ranks' one block, or a run of _block_t_ranks,
which groups the verifier's blocks by pivots, _CHUNK at most to a call.
The images P B of the patterns P with one pivot set share their offset,
and a rank is that offset plus one contribution per row of P B, its free
entries in place.  Row i is B's row p_i plus c_m times B's row m over
P's free columns m in row i, so its contributions are a table over those
c_m alone (_t_plans), and the ranks are the sums over the product of the
rows' tables.  For q = 2^b addition is XOR and scaling is F_2-linear on
an entry's b bits, so a contribution is F_2-affine in the c_m's bits: it
is read off the packed blocks (_packed) for row p_i and 2^j times each
row m, and XOR doubling fills in the table.  Odd q expands each free
entry over the c_m through the field's tables.  Each list comprehension
runs over the blocks, about one per t-subspace however many blocks.

The incidence matrix and the search rank every k-subspace, and
_rank_groups serves them one pivot group at a time, as covers only: a
block is its canonical rank, its position in the output.  The route
depends on the characteristic alone.  For q = 2^b the ranks within a
group are F_2-affine in the block's free bits, by the same argument, so
_group_t_ranks ranks only the blocks of index 0 and 2^j, one per free
bit, and XOR doubling across blocks, from _t_plans' offsets, fills in
the table.  Odd q passes the group to _group_t_ranks _CHUNK blocks at
a time.  No SubspaceBasis is built, and a table lasts one group.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterator
from functools import cached_property, lru_cache
from itertools import combinations, islice, product, repeat
from operator import itemgetter

from .errors import (
    AmbientMismatch, DimensionMismatch, InvalidParameters, SingularMap, _value_class, check_chain,
)
from .gf import (
    _DIGITS, FieldSpec, MatrixGFq, _mul_rows, _rref_rows, mat_inverse, mat_mul, rank_of_rows,
)
from .qcount import capped, q_binomial

_CHUNK = 4096  # blocks per kernel call and values per doubling run: it bounds the kernel's tables


@_value_class
class SubspaceBasis:
    """A k-subspace of F_q^n as the row-major entries of its canonical
    (RREF, no zero rows) k x n basis, so equality and hash, which compare
    the fields, hold exactly between equal subspaces."""

    field: FieldSpec
    n: int
    k: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        q, n, k, entries = self.field.q, self.n, self.k, self.entries
        check_chain(0, k=k, n=n)
        if not (type(entries) is tuple and len(entries) == k * n
                and all(type(x) is int and 0 <= x < q for x in entries)
                and _span(self.field, n, list(map(list, self.rows()))).entries == entries):
            raise InvalidParameters(
                f"entries are not the canonical basis of a {k}-subspace of F_{q}^{n}")

    @property
    def basis(self) -> MatrixGFq:
        """The canonical basis as a MatrixGFq, built on each access."""
        return MatrixGFq._trusted(self.field, self.k, self.n, self.entries)

    @cached_property
    def pivot_columns(self) -> tuple[int, ...]:
        # row i of a canonical basis leads with its pivot's 1
        return tuple([self.entries.index(1, i * self.n) - i * self.n for i in range(self.k)])

    def nonzero_vectors(self) -> list[int]:
        """Indices of the q^k - 1 nonzero vectors of the subspace.

        Vector (v0..v(n-1)) is indexed by the base-q integer with v0 most
        significant.  In characteristic 2 the base-q digits of an index
        are the base-2 digits of its entries and entries add by XOR, so
        two vectors add by XOR of their indices and the span is built on
        indices alone.  In odd characteristic the vectors are summed as
        tuples and indexed at the end.  Not cached: kept for every
        subspace, the lists would outweigh the masks.
        """
        q, mul = self.field.q, self.field.mul_table
        rows = self.rows()
        if self.field.characteristic == 2:
            vecs: list[int] = []
            for row in rows:
                multiples = []
                for c in range(1, q):
                    mc = mul[c]
                    idx = 0
                    for x in row:
                        idx = idx * q + mc[x]
                    multiples.append(idx)
                vecs += multiples + [m ^ v for m in multiples for v in vecs]
            return vecs
        add = self.field.add_table
        tuples: list[tuple[int, ...]] = [(0,) * self.n]
        for row in rows:
            new = list(tuples)
            for c in range(1, q):
                scaled = [mul[c][x] for x in row]
                for v in tuples:
                    new.append(tuple([add[a][b] for a, b in zip(v, scaled)]))
            tuples = new
        out = []
        for v in tuples[1:]:
            idx = 0
            for x in v:
                idx = idx * q + x
            out.append(idx)
        return out

    @cached_property
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

    def rows(self) -> list[tuple[int, ...]]:
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
    return _trusted(field, n, rk, tuple([x for r in rows[:rk] for x in r]))


def _group_forms(n: int, pivots: tuple[int, ...], q: int) -> Iterator[tuple[int, ...]]:
    """Entries of every n-column canonical basis with these pivot columns,
    in canonical order: the product over the row-major entries, each
    free one ranging over F_q and the others fixed, varies the last free
    entry fastest."""
    pivset, digits, zero = set(pivots), range(q), (0,)
    entries = []
    for p in pivots:
        entries += [zero] * p + [(1,)] + [zero if j in pivset else digits for j in range(p + 1, n)]
    return product(*entries)


def iter_subspaces(n: int, k: int, field: FieldSpec) -> Iterator[SubspaceBasis]:
    """All k-subspaces of F_q^n in canonical order, lazily."""
    check_chain(0, k=k, n=n)
    for pivots in combinations(range(n), k):
        for entries in _group_forms(n, pivots, field.q):
            yield _trusted(field, n, k, entries)


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
    return offset, tuple(template), tuple(free)


@lru_cache(maxsize=1024)
def _canonical_check(n: int, q: int, pivots: tuple[int, ...]):
    """(get, unit) with get(entries) == unit iff the k x n entries whose
    rows' first nonzero entries sit at these columns are canonical: the
    pivots increase, and each pivot column is a unit vector with its 1
    in the pivot's row.  None if the pivots do not increase below n."""
    if pivots[-1] >= n or any(a >= b for a, b in zip(pivots, pivots[1:])):
        return None
    get = itemgetter(*[i * n + p for i in range(len(pivots)) for p in pivots])
    return get, get(_pivot_plan(n, q, pivots)[1])


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


def _group_entries(q: int, template: tuple, free: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The entries of the block at index i of the pivot group with this
    _pivot_plan template and these free positions: i's base-q digits fill
    the free entries, the last digit least significant."""
    entries = list(template)
    for pos in reversed(free):
        i, entries[pos] = divmod(i, q)
    return tuple(entries)


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


def _packed(field: FieldSpec, rows: list[bytes], c: int) -> list[int]:
    """Each block's entries, one byte each, scaled by c, as one integer
    with b bits per entry, entry 0 most significant, for q = 2^b.  The
    work is in C: bytes.translate writes each entry x as the base-q digit
    of c x, and int reads the digits in base q."""
    digits = bytes([ord(_DIGITS[y]) for y in field.mul_table[c]])
    table = digits.ljust(256, b"0")  # for bytes.translate: x -> the digit of c x
    return list(map(int, map(bytes.translate, rows, repeat(table)), repeat(field.q)))


@lru_cache(maxsize=1024)  # a plan is reused only across calls
def _t_plans(n: int, q: int, t: int, pivots: tuple[int, ...]) -> tuple:
    """Per pattern pivot set of the t-subspaces of blocks with these
    pivots, in order: the images' offset, the patterns' count (the product
    over the rows of q^|terms|) and, per image row with free columns, its
    table's recipe.  For q = 2^b that is its probes (j, runs) in doubling
    order, 2^j times row p_i, then each row m, the last first and low bits
    first; a run (shift, mask, pos) moves (w >> shift) & mask of a packed
    block w to bit pos.  For odd q it is the table size and, per free
    column, (f, place value, fs): the column's flat index in row p_i and
    in each row m."""
    k = len(pivots)
    bits = q.bit_length() - 1 if q & (q - 1) == 0 else 0
    plans = []
    for pat in combinations(range(k), t):
        offset, _, free = _pivot_plan(n, q, tuple([pivots[p] for p in pat]))
        size, rows = 1, []
        for i, lead in enumerate(pat):
            terms = [m for m in range(lead + 1, k) if m not in pat]
            size *= q ** len(terms)
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
                if runs and runs[-1][1] == j - 1:
                    runs[-1][1:] = [j, e]
                else:
                    runs.append([j, j, e])
            rows.append(tuple([(j, tuple([(bits * (n * (k - m) - 1 - last),
                                           (1 << bits * (last - first + 1)) - 1, bits * e)
                                          for first, last, e in runs]))
                               for j, m in [(0, lead)] + [(j, m) for m in reversed(terms)
                                                          for j in range(bits)]]))
        plans.append((offset, size, tuple(rows)))
    return tuple(plans)


def _group_t_ranks(
    field: FieldSpec, n: int, t: int, pivots: tuple[int, ...], forms
) -> list[list[int]]:
    """The canonical ranks of the t-subspaces of canonical blocks that
    share these pivot columns, given by their entries: one list per
    t-subspace, in the order of block_echelon_forms, of one rank per
    block.  The module doc describes the method."""
    count = len(forms)
    if t == 0:  # every block has exactly one 0-subspace; its rows are not read
        return [[0] * count]
    q, binary = field.q, field.characteristic == 2
    if binary:
        raw = list(map(bytes, forms))  # converted once for every scale
        scaled = [_packed(field, raw, 1 << j) for j in range(field.degree)]
    else:
        add, mul, columns = field.add_table, field.mul_table, list(zip(*forms))

    def part(j, runs):  # the entries of 2^j times the blocks at these runs
        words = scaled[j]
        (shift, mask, pos), *rest = runs
        values = [(w >> shift & mask) << pos for w in words]
        for shift, mask, pos in rest:
            values = [v | (w >> shift & mask) << pos for v, w in zip(values, words)]
        return values

    out = []
    for offset, _, rows in _t_plans(n, q, t, pivots):
        ranks = [[offset] * count]
        for row in rows:
            if binary:
                base, *units = [part(j, runs) for j, runs in row]
                table = [base]
                for unit in units:
                    table += [[x ^ y for x, y in zip(v, unit)] for v in table]
            else:
                size, cols = row
                table = [[0] * count] * size
                for f, weight, fs in cols:
                    digits = [columns[f]]
                    for g in fs:
                        multiples = [[mc[x] for x in columns[g]] for mc in mul]
                        digits = [[add[x][y] for x, y in zip(a, b)]
                                  for a in digits for b in multiples]
                    table = [[x + weight * y for x, y in zip(a, b)]
                             for a, b in zip(table, digits)]
            ranks = [[x + y for x, y in zip(a, b)] for a in ranks for b in table]
        out += ranks
    return out


def _block_t_ranks(field: FieldSpec, n: int, k: int, t: int, forms: list) -> Iterator[list[int]]:
    """The rank lists of _group_t_ranks for canonical k-dimensional blocks
    given by their entries in any order, grouped by pivots and passed at
    most _CHUNK at a time, so each rank occurs once per block containing
    its t-subspace."""
    # canonical: row i leads with a 1, so its first 1 from flat index i n is at i n + its pivot
    firsts = [map(tuple.index, forms, repeat(1), repeat(i * n)) for i in range(k)]
    keys = zip(*firsts) if k else repeat((), len(forms))  # zip() would yield no key
    groups: defaultdict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
    for key, entries in zip(keys, forms):
        groups[key].append(entries)
    for key, group in groups.items():
        pivots = tuple([c - i * n for i, c in enumerate(key)])
        for s in range(0, len(group), _CHUNK):
            yield from _group_t_ranks(field, n, t, pivots, group[s : s + _CHUNK])


def _rank_groups(
    n: int, k: int, t: int, field: FieldSpec, tick: Callable[[], None] | None = None
) -> Iterator[list[tuple[int, ...]]]:
    """The covers of the k-subspaces of F_q^n in canonical order, one
    pivot group at a time: covers[j] == tuple(t_subspace_ranks(S, t)) for
    S the group's j-th block, which is never built.  It takes no cap:
    each caller bounds [n k]_q first.

    The route is picked by the field's characteristic.  For q = 2^b one
    _group_t_ranks call ranks the group's probe blocks, of index 0 and
    2^j for each free bit j, and XOR doubling fills in the table (see the
    module doc), whose columns start at the offsets of _t_plans.  Odd q
    passes the group's entries to _group_t_ranks _CHUNK at a time.

    tick, if given, is called after every _CHUNK blocks passed to
    _group_t_ranks and before each run of at most _CHUNK values that XOR
    doubling adds to a column, so a caller can stop a long group by
    raising.
    """
    q, tick = field.q, tick or (lambda: None)
    for pivots in combinations(range(n), k):
        if field.characteristic != 2:
            forms = _group_forms(n, pivots, q)
            covers: list[tuple[int, ...]] = []
            while chunk := list(islice(forms, _CHUNK)):
                covers += zip(*_group_t_ranks(field, n, t, pivots, chunk))
                tick()
            yield covers
            continue
        _, template, free = _pivot_plan(n, q, pivots)
        probes = [_group_entries(q, template, free, i)
                  for i in [0] + [1 << j for j in range(field.degree * len(free))]]
        offsets = [offset for offset, size, _ in _t_plans(n, q, t, pivots) for _ in range(size)]
        columns = []
        for offset, (base, *units) in zip(offsets, _group_t_ranks(field, n, t, pivots, probes)):
            c = base - offset
            values = [c]
            for unit in units:
                d = (unit - offset) ^ c
                for s in range(0, len(values), _CHUNK):
                    tick()
                    values += [v ^ d for v in values[s : s + _CHUNK]]
            columns.append([v + offset for v in values])
        yield list(zip(*columns))


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
    pivset = set(V.pivot_columns)
    nonpiv = [j for j in range(n) if j not in pivset]
    vrows = V.rows()
    out = []
    for W in iter_subspaces(n - t, k - t, field):
        rows = [list(r) for r in vrows]
        for row in W.rows():
            full = [0] * n
            for pos, x in zip(nonpiv, row):
                full[pos] = x
            rows.append(full)
        out.append(_span(field, n, rows))
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
    return MatrixGFq._trusted(V.field, n, n, V.entries + tuple(units))


def gl_map_between(U1: SubspaceBasis, U2: SubspaceBasis) -> MatrixGFq:
    """An invertible L with apply_map(L, U1) == U2 (basis extension)."""
    _check_same_space(U1, U2)
    if U1.k != U2.k:
        raise DimensionMismatch("subspaces must have equal dimension")
    B1 = complete_basis(U1)
    B2 = complete_basis(U2)
    return mat_mul(mat_inverse(B1), B2)
