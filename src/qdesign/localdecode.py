"""The local-decoding coefficient system and its brute-force oracles.

For parameters (q, t, k) the library builds the (t+1) x (t+1)
upper-triangular integer matrix D whose entry d(l, j) is the lemma-2
count in F_q^(t+k): the number of k-subspaces U containing a
t-subspace V1 with dim(U intersect V2) = j, where dim(V1 intersect
V2) = l.  D solves D f = (0, ..., 0, m)^T with m = det D, so that the
coefficient vector f is integral (by Cramer's rule, f_j is the
determinant of D with column j replaced by (0, ..., 0, 1)^T).

Assigning coefficient f(dim(U intersect V)) to every k-subspace U of a
fixed (t+k)-dimensional envelope W containing V yields an integer row
combination that sums to m at column V and 0 at every other t-subspace;
decode_certificate materializes that combination, taking the U from the
block kernel grassmann.block_echelon_forms with no elimination and each
dim(U intersect V) from a rank over W's t + k pivot columns, where U and
V have their coordinates in W.  verify_certificate checks the identity
against every column on exhaustive vector sets, sharing no code with
that kernel: a t-subspace lies in U when its t canonical rows do, so
per-vector bit lanes, one bit per k-subspace, are kept for the [k 1]_q
vectors of each U that lead with a 1, the k-subspaces above a
t-subspace are the AND of its rows' lanes, and they are summed per
coefficient value by popcount.

All determinants run through fraction-free (Bareiss) elimination and,
for D itself, are cross-checked against the diagonal product; the
coefficient vector is additionally recomputed by rational
back-substitution.

lemma2_count's closed-form intersection counts, D's entries among them,
are paired with enumeration over exhaustive vector sets:
lemma2_count_bruteforce walks extensions(V1, k) for one pair, and
lemma2_grid_report checks every ordered pair of t-subspaces at once:
it counts each k-subspace's intersections with every V2 once, as one
big-integer sum of packed w-bit fields (one field per t-subspace; Knuth,
TAOCP 4A 7.1.3, broadword computing), turns them into a hit word by a
field-wise equality test, reads the k-subspaces above each V1 off
per-vector lanes (one bit per k-subspace), and adds their hit words into
one packed tally.  lemma2_grid_report works on the vector indices of
grassmann._vector_sets alone and never calls the RREF or rank routes;
lemma2_count_bruteforce gets its U from extensions, which eliminates
with grassmann._span and sorts by subspace_rank, and only its
intersections come from vector sets.
"""

from __future__ import annotations

from .errors import (
    DegenerateSystem, DimensionMismatch, TooLarge, _value_class, check_chain, number_text,
    validate_q,
)
from .gf import make_field, rank_of_rows
from .grassmann import (
    SubspaceBasis,
    _basis_rows,
    _indices,
    _leading_vector_sets,
    _span,
    _trusted,
    _vector_sets,
    block_echelon_forms,
    extensions,
    intersect_dim,
    subspace_dim_from_count,
)
from .qcount import capped, q_binomial


@_value_class
class DecodeSystem:
    q: int
    t: int
    k: int
    D: tuple[tuple[int, ...], ...]
    m: int
    f: tuple[int, ...]


@_value_class
class CoefficientCertificate:
    decoded_column: SubspaceBasis
    envelope: SubspaceBasis
    coefficients: dict[SubspaceBasis, int]
    m: int
    l1_norm: int


def build_D(q: int, t: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The (t+1) x (t+1) coefficient matrix, d(l, j) the lemma-2 count
    in F_q^(t+k); upper triangular with a positive diagonal whenever
    1 <= t <= k."""
    check_chain(1, t=t, k=k)
    D = tuple(
        tuple(_lemma2_formula(q, t + k, t, k, l, j) for j in range(t + 1)) for l in range(t + 1)
    )
    for l in range(t + 1):
        for j in range(l):
            assert D[l][j] == 0, "matrix must be upper triangular"
        if D[l][l] <= 0:
            raise DegenerateSystem(f"diagonal entry d({l},{l}) = {D[l][l]}")
    return D


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    M = [row[:] for row in rows]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if M[i][i] == 0:
            pivot = next((r for r in range(i + 1, n) if M[r][i] != 0), None)
            if pivot is None:
                return 0
            M[i], M[pivot] = M[pivot], M[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                val = M[r][c] * M[i][i] - M[r][i] * M[i][c]
                quot, rem = divmod(val, prev)
                assert rem == 0, "Bareiss division must be exact"
                M[r][c] = quot
            M[r][i] = 0
        prev = M[i][i]
    return sign * M[n - 1][n - 1]


def _cramer_matrices(D: tuple[tuple[int, ...], ...]) -> list[list[list[int]]]:
    """D with column j replaced by (0, ..., 0, 1)^T, for each j."""
    size = len(D)
    return [
        [[int(l == size - 1) if c == j else D[l][c] for c in range(size)] for l in range(size)]
        for j in range(size)
    ]


# cap on solve_coefficients' work estimate; at t = 1 it admits an m of
# about 2^18 bits, the size cli._QBINOM_MAX_BITS admits
_MAX_SOLVE_WORK = 2**20


def solve_coefficients(q: int, t: int, k: int) -> DecodeSystem:
    """Solve D f = (0, ..., 0, m)^T exactly, with m = det D.

    The determinant is computed twice (diagonal product and Bareiss
    elimination) and f twice (column-replacement determinants and
    rational back-substitution); all routes must agree.

    Before D is built, TooLarge is raised when (t+1)^2 * (2048 + b)
    exceeds _MAX_SOLVE_WORK, where b = floor(E floor(64 log2 q) / 64)
    is a lower bound on log2 m: m >= q^E, E = (k-t) t (t+1), since each
    d(l, l) >= q^((k-t) t).  The t+1 Bareiss runs take about (t+1)^4
    steps on operands of up to m's size, each costing about the square
    of its operand length plus interpreter overhead worth some 2048
    bits, so the estimate is about the square root of the work.
    """
    from fractions import Fraction

    check_chain(1, t=t, k=k)
    validate_q(q)
    bits = (k - t) * t * (t + 1) * ((q**64).bit_length() - 1) // 64
    work = (t + 1) ** 2 * (2048 + bits)
    if work > _MAX_SOLVE_WORK:
        raise TooLarge(
            f"decoding system for q={q}, t={t}, k={k}: m = det D has at least "
            f"{number_text(bits)} bits; work (t+1)^2 * (2048 + {number_text(bits)}) = "
            f"{number_text(work)} exceeds cap {_MAX_SOLVE_WORK}"
        )
    D = build_D(q, t, k)
    size = t + 1
    m_diag = 1
    for j in range(size):
        m_diag *= D[j][j]
    m = det_bareiss([list(r) for r in D])
    if m != m_diag:
        raise DegenerateSystem(f"determinant routes disagree: {m} != {m_diag}")

    f = tuple(det_bareiss(Dj) for Dj in _cramer_matrices(D))

    target = [0] * (size - 1) + [m]
    for l in range(size):
        if sum(D[l][j] * f[j] for j in range(size)) != target[l]:
            raise DegenerateSystem(f"D f != (0,...,0,m) at row {l}")

    # independent route: rational back-substitution on the triangular system
    x: list[Fraction] = [Fraction(0)] * size
    x[size - 1] = Fraction(m, D[size - 1][size - 1])
    for l in range(size - 2, -1, -1):
        acc = sum((D[l][j] * x[j] for j in range(l + 1, size)), Fraction(0))
        x[l] = -acc / D[l][l]
    if tuple(x) != tuple(Fraction(v) for v in f):
        raise DegenerateSystem("back-substitution disagrees with determinant route")

    if f[t] * q_binomial(k, k - t, q) != m:
        raise DegenerateSystem("top coefficient identity f(t) [k k-t]_q = m failed")

    return DecodeSystem(q=q, t=t, k=k, D=D, m=m, f=f)


def check_cond2(q: int, t: int, k: int) -> bool:
    """The t homogeneous rows of the system vanish at f, with D's entries
    re-read from the lemma-2 formula.  build_D reads the same formula, so
    this guards how build_D assembles D (the (l, j) indexing, n = t + k),
    not the formula, which lemma2_grid_report checks by enumeration."""
    f = solve_coefficients(q, t, k).f
    return all(
        sum(f[j] * _lemma2_formula(q, t + k, t, k, l, j) for j in range(l, t + 1)) == 0
        for l in range(t)
    )


def certificate_composition(q: int, t: int, k: int) -> tuple[int, ...]:
    """(N_0, ..., N_t): N_j = q^((t-j)(k-j)) [t j]_q [k j]_q k-subspaces U of
    F_q^(t+k) meet a fixed t-subspace V in dimension j ([t j]_q choices of
    U intersect V, [k j]_q of U + V, then q^((t-j)(k-j)) of U).  They sum
    to [t+k k]_q (q-Vandermonde; Andrews, The Theory of Partitions, ch. 3)."""
    return tuple(
        q ** ((t - j) * (k - j)) * q_binomial(t, j, q) * q_binomial(k, j, q)
        for j in range(t + 1)
    )


def _check_ambient(q: int, n: int, t: int, k: int, max_subspaces: int | None = None) -> None:
    """The certificate's preconditions on F_q^n: DimensionMismatch unless
    n >= t + k, then, given a cap, TooLarge when verify_certificate would
    check more than max_subspaces t-subspaces, DimensionMismatch unless
    k >= 1, so the envelope's dimension t + k exceeds t, and TooLarge when
    its lanes would exceed _MAX_LANE_BITS: [t+k k]_q bits, one per
    k-subspace of the envelope, for each of its [t+k 1]_q vectors that
    lead with a 1.  decode --certify asks before it builds anything."""
    if n < t + k:
        raise DimensionMismatch(f"need ambient n >= t + k = {t + k}, got {n}")
    if max_subspaces is not None:
        capped(
            q, [(n, t)], max_subspaces, f"ambient t-subspaces [{n} {t}]_{q} exceed cap {{cap}}"
        )
        if k < 1:
            raise DimensionMismatch(f"need envelope dimension > t = {t}, got {t + k}")
        capped(
            q, [(t + k, 1), (t + k, k)], _MAX_LANE_BITS,
            f"[{t + k} 1]_{q} * [{t + k} {k}]_{q} = {{total}} lane bits exceed cap {{cap}}",
        )


def decode_certificate(
    V: SubspaceBasis, k: int, max_subspaces: int = 10**6
) -> CoefficientCertificate:
    """Signed integer coefficients on the k-subspaces of a canonical
    envelope W >= V with dim W = dim V + k.

    W is grassmann._span of V's rows and the k lowest-index standard
    vectors outside V's pivot columns; the coefficient of U is
    f(dim(U intersect V)), and the U come from grassmann.block_echelon_forms.
    W is in RREF, so the rows of U and V read at W's t + k pivot columns
    are their coordinates in W, and dim(U intersect V) is t + k minus
    their rank: past building W, no elimination runs over all n columns.
    The U must meet V in dimension j exactly N_j times (see
    certificate_composition), else DegenerateSystem; l1_norm is sum_j |f_j| N_j.
    """
    field, n, t = V.field, V.n, V.k
    q = field.q
    if t < 1:
        raise DimensionMismatch("decoded column must have dimension >= 1")
    _check_ambient(q, n, t, k)
    capped(q, [(k + t, k)], max_subspaces)

    system = solve_coefficients(q, t, k)
    extra = [j for j in range(n) if j not in V.pivot_columns][:k]
    units = [[int(i == j) for i in range(n)] for j in extra]
    W = _span(field, n, V.rows() + units)

    pivots = W.pivot_columns
    v_coords = [[row[p] for p in pivots] for row in V.rows()]
    coefficients: dict[SubspaceBasis, int] = {}
    counts = [0] * (t + 1)
    for _, images in block_echelon_forms(W, k):
        for entries in images:
            U = _trusted(field, n, k, bytes(entries))
            u_coords = [[entries[i * n + p] for p in pivots] for i in range(k)]
            j = t + k - rank_of_rows(field, u_coords + v_coords, t + k)
            coefficients[U] = system.f[j]
            counts[j] += 1
    composition = certificate_composition(q, t, k)
    if tuple(counts) != composition:
        raise DegenerateSystem(
            f"certificate subspaces by dim(U intersect V): {counts} != {list(composition)}"
        )
    return CoefficientCertificate(
        decoded_column=V,
        envelope=W,
        coefficients=coefficients,
        m=system.m,
        l1_norm=sum(abs(c) * N for c, N in zip(system.f, composition)),
    )


def verify_certificate(cert: CoefficientCertificate, max_subspaces: int = 10**6) -> bool:
    """Exhaustively check sum_U coeff(U) 1[a <= U] = m [a == V] over
    every t-subspace a of the ambient space.  _check_ambient, with
    k = dim W - t, refuses an envelope W of dimension at most t with
    DimensionMismatch, and raises TooLarge when there are more than
    max_subspaces t-subspaces or when W's counts put the lanes below
    over _MAX_LANE_BITS.  The lanes are charged again as they fill, at
    len(coefficients) bits per lane, whatever subspaces the
    coefficients name.

    Containment is read at basis rows: a <= U exactly when a's t
    canonical rows lie in U, and each leads with a 1.  So lanes[v] has
    bit u set when vector v leads with a 1 and lies in the u-th U, the
    [k 1]_q vectors grassmann._leading_vector_sets lists, not all q^k - 1.
    The t-subspaces come as their rows' vector indices
    (grassmann._basis_rows), the U above a are the AND of the lanes of
    a's rows, and the sum is sum_c c * |above & U_c| over the sets U_c
    of the U with coefficient c.
    """
    V = cert.decoded_column
    field, n, t = V.field, V.n, V.k
    _check_ambient(field.q, n, t, cert.envelope.k - t, max_subspaces)
    lanes: dict[int, int] = {}
    by_coefficient: dict[int, int] = {}
    width = len(cert.coefficients)
    leading = _leading_vector_sets(field, list(cert.coefficients))
    for u, (vecs, c) in enumerate(zip(leading, cert.coefficients.values())):
        bit = 1 << u
        for v in vecs:
            lanes[v] = lanes.get(v, 0) | bit
        if len(lanes) * width > _MAX_LANE_BITS:
            raise TooLarge(
                f"{number_text(len(lanes))} lanes of {number_text(width)} bits exceed cap "
                f"{_MAX_LANE_BITS}"
            )
        by_coefficient[c] = by_coefficient.get(c, 0) | bit
    every = (1 << len(cert.coefficients)) - 1
    decoded = tuple(_indices(field, V.rows()))
    for a in _basis_rows(n, t, field):
        above = every
        for v in a:
            above &= lanes.get(v, 0)
        if above or a == decoded:
            total = sum(c * (above & us).bit_count() for c, us in by_coefficient.items())
            if total != (cert.m if a == decoded else 0):
                return False
    return True


def lemma2_count(V1: SubspaceBasis, V2: SubspaceBasis, k: int, j: int) -> int:
    """Closed-form count of k-subspaces U with V1 <= U and
    dim(U intersect V2) = j, where dim(V1 intersect V2) = l < t."""
    if V1.field.q != V2.field.q or V1.n != V2.n or V1.k != V2.k:
        raise DimensionMismatch("V1, V2 must be t-subspaces of the same space")
    t = V1.k
    n = V1.n
    q = V1.field.q
    l = intersect_dim(V1, V2)
    if l >= t:
        raise DimensionMismatch("V1 and V2 must be distinct (l < t)")
    check_chain(0, l=l, j=j, t=t, k=k, n=n)
    return _lemma2_formula(q, n, t, k, l, j)


def _lemma2_formula(q: int, n: int, t: int, k: int, l: int, j: int) -> int:
    """q^((k-t-j+l)(t-j)) [t-l j-l]_q [n-2t+l k-t-j+l]_q, the lemma-2
    closed form, and 0 where either binomial vanishes; build_D is its
    n = t + k case."""
    b1 = q_binomial(t - l, j - l, q)
    b2 = q_binomial(n - 2 * t + l, k - t - j + l, q)
    if b1 == 0 or b2 == 0:
        return 0
    return q ** ((k - t - j + l) * (t - j)) * b1 * b2


def lemma2_count_bruteforce(V1: SubspaceBasis, V2: SubspaceBasis, k: int, j: int) -> int:
    """Enumeration oracle for lemma2_count: walk every k-subspace
    containing V1 and measure its intersection with V2 by exhaustive
    vector-set intersection."""
    q = V1.field.q
    v2mask = V2.vector_mask
    total = 0
    for U in extensions(V1, k):
        d = subspace_dim_from_count(q, (U.vector_mask & v2mask).bit_count())
        if d == j:
            total += 1
    return total


def _ordered_basis_products_check(q: int, n: int, t: int, k: int, l: int, j: int) -> str | None:
    """Re-derive one (l, j) cell of the closed form from first principles.

    Counting the subspaces U directly: first extend a basis of V1 inside
    V1 + V2 by j - l independent vectors (N1 ordered choices, N2 ordered
    bases per subspace), then extend outside V1 + V2 by the remaining
    k - t - j + l vectors (N3 choices, N4 per subspace).  Both ratios
    must divide exactly and reproduce the two factors of the closed
    form.  Returns a message on the first violated identity.
    """
    jl = j - l
    ext = k - t - j + l
    N1 = N2 = 1
    for i in range(jl):
        N1 *= q ** (2 * t - l) - q ** (t + i)
        N2 *= q ** (t + jl) - q ** (t + i)
    ratio12, rem = divmod(N1, N2)
    if rem != 0:
        return f"inner product ratio not integral at (l={l},j={j})"
    if ratio12 != q_binomial(t - l, jl, q):
        return f"inner product ratio != [t-l j-l]_q at (l={l},j={j})"
    N3 = N4 = 1
    for i in range(ext):
        N3 *= q**n - q ** ((2 * t - l) + i)
        N4 *= q**k - q ** ((t + jl) + i)
    ratio34, rem = divmod(N3, N4)
    if rem != 0:
        return f"outer product ratio not integral at (l={l},j={j})"
    if ratio34 != q ** (ext * (t - j)) * q_binomial(n - 2 * t + l, ext, q):
        return f"outer product ratio != q^e [n-2t+l k-t-j+l]_q at (l={l},j={j})"
    return None


@_value_class
class Lemma2Cell:
    l: int
    j: int
    formula: int
    pairs: int


@_value_class
class Lemma2GridReport:
    q: int
    n: int
    t: int
    k: int
    pair_count: int
    extension_count: int
    cells: tuple[Lemma2Cell, ...]
    ok: bool
    mismatch: str


# bits in any lane family of lemma2_grid_report and verify_certificate: 32 MiB of lane ints
_MAX_LANE_BITS = 2**28


def _field_equals(x: int, c: int, tops: int, w: int) -> int:
    """1 in the low bit of each w-bit field where x and c agree, else 0,
    for fields below 2^(w-1); tops holds the top bit of every field.  A
    field of x ^ c is 0 exactly where they agree, and only then does
    2^(w-1) minus it keep its top bit; no field borrows."""
    return ((tops - (x ^ c)) & tops) >> (w - 1)


def lemma2_grid_report(
    q: int, n: int, t: int, k: int, max_pairs: int = 10**7
) -> Lemma2GridReport:
    """Check the closed-form intersection counts against enumeration for
    EVERY ordered pair of distinct t-subspaces of F_q^n at once.

    For each pair (V1, V2) with dim(V1 int V2) = l, the number of
    k-subspaces U >= V1 with dim(U int V2) = j must match the formula
    for every j, and V1 must lie in exactly [n-t k-t]_q k-subspaces,
    the formula values summed over j.  Each nonzero cell is also
    re-derived from the ordered-basis counting products (see
    _ordered_basis_products_check).

    Enumeration is exhaustive vector-set intersection, so it shares no
    code path with the formula; the vector sets come from
    grassmann._vector_sets.  Counts are packed in w-bit fields, one per
    t-subspace V2 in canonical order, w = max(bits(q^t - 1),
    bits([n-t k-t]_q)) + 1, so no field overflows into the next:
    tlanes[v] has a 1 in the field of each V2 holding vector v, and the
    sum of the t-lanes of U's nonzero vectors holds |U int V2| - 1 for
    every V2 at once.  U's hit word holds, in segment j at field j [n t]_q
    onward, a 1 for each V2 that U meets in q^j vectors, a field-wise
    equality test (_field_equals).  klanes[v] has bit u set when vector v
    lies in the u-th k-subspace, so the U >= V1 are the AND of the k-lanes
    of V1's nonzero vectors, and V1's tally, the sum of their hit words,
    counts per j and V2 how many U >= V1 meet V2 in dimension j; it is
    compared with the formula rows, packed in the same fields.  Before
    anything is enumerated, TooLarge is raised when the [n t]_q [n k]_q
    (V1, U) containments exceed max_pairs, or when a lane family exceeds
    _MAX_LANE_BITS = 2^28 bits: the t-lanes and the k-lanes, w [n t]_q q^n
    and [n k]_q q^n bits, checked first, then the hit words,
    w (t+1) [n t]_q [n k]_q bits.  The first failing pair, in the order
    V1 then V2 by canonical index, is reported.
    """
    check_chain(1, t=t, k=k, n=n)
    field = make_field(q)
    if t == n:  # [n t]_q < 2 exactly when t = n, for t >= 1
        raise DimensionMismatch("need at least two distinct t-subspaces")
    n_t, n_k = capped(
        q, [(n, t), (n, k)], max_pairs,
        f"[{n} {t}]_{q} * [{n} {k}]_{q} = {{total}} containment tests exceed cap {{cap}}",
    )
    ext_total = q_binomial(n - t, k - t, q)
    w = max((q**t - 1).bit_length(), ext_total.bit_length()) + 1
    for family, bits in (
        (f"{w} * [{n} {t}]_{q} * {q}^{n}", w * n_t * q**n),
        (f"[{n} {k}]_{q} * {q}^{n}", n_k * q**n),
        (f"{w} * {t + 1} * [{n} {t}]_{q} * [{n} {k}]_{q}", w * (t + 1) * n_t * n_k),
    ):
        if bits > _MAX_LANE_BITS:
            raise TooLarge(
                f"{family} = {number_text(bits)} lane bits exceed cap {_MAX_LANE_BITS}"
            )

    def report(pair_count: int, mismatch: str, cells: tuple = ()) -> Lemma2GridReport:
        return Lemma2GridReport(
            q=q, n=n, t=t, k=k, pair_count=pair_count, extension_count=ext_total,
            cells=cells, ok=not mismatch, mismatch=mismatch,
        )

    # dim(V1 + V2) = 2t - l must fit in the ambient space, so
    # intersection dimensions below 2t - n cannot occur
    l_min = max(0, 2 * t - n)
    expected: dict[int, list[int]] = {}
    for l in range(l_min, t):
        row = [0] * l + [_lemma2_formula(q, n, t, k, l, j) for j in range(l, t + 1)]
        if sum(row) != ext_total:
            return report(0, f"formula row for l={l} sums to {sum(row)} != {ext_total}")
        for j in range(l, t + 1):
            if row[j] == 0:
                continue
            problem = _ordered_basis_products_check(q, n, t, k, l, j)
            if problem is not None:
                return report(0, problem)
        expected[l] = row

    seg = w * n_t  # bits per segment: one field per V2
    ones = ((1 << seg) - 1) // ((1 << w) - 1)  # a 1 in every field of a segment
    shifts = range(seg, (t + 1) * seg, seg)  # to segments 1 .. t

    def packed(row: list[int]) -> int:  # row[j] in every field of segment j
        return sum(c * ones << j * seg for j, c in enumerate(row))

    tops, all_tops = packed([1 << w - 1]), packed([1 << w - 1] * (t + 1))
    tvecs = list(_vector_sets(n, t, field))
    tlanes = [0] * q**n
    for i, vecs in enumerate(tvecs):
        bit = 1 << i * w
        for v in vecs:
            tlanes[v] |= bit
    # a subspace meeting V2 in dimension j shares q^j - 1 nonzero vectors with it
    nonzero = [q**j - 1 for j in range(t + 1)]
    met = packed(nonzero)
    klanes = [0] * q**n
    hit_words = []
    for u, vecs in enumerate(_vector_sets(n, k, field)):
        bit = 1 << u
        for v in vecs:
            klanes[v] |= bit
        counts = sum(map(tlanes.__getitem__, vecs))
        copies = counts  # counts in every segment, compared with met at once
        for s in shifts:
            copies |= counts << s
        hit_words.append(_field_equals(copies, met, all_tops, w))
    all_k = (1 << len(hit_words)) - 1
    expected_fields = {l: packed(row) for l, row in expected.items()}
    meets_at_l = {l: packed([nonzero[l]]) for l in expected}  # |V1 int V2| = q^l

    pair_count = 0
    l_pairs = [0] * t
    for i, vecs in enumerate(tvecs):
        above = all_k
        for v in vecs:
            above &= klanes[v]
        if above.bit_count() != ext_total:
            return report(
                pair_count, f"extension count {above.bit_count()} != {ext_total} at V1 index {i}"
            )
        tally = 0
        while above:
            low = above & -above
            above ^= low
            tally += hit_words[low.bit_length() - 1]

        shared = sum(map(tlanes.__getitem__, vecs))
        # V1's own field counts q^t - 1 and so falls in no l < t
        at_l = {l: _field_equals(shared, c, tops, w) for l, c in meets_at_l.items()}
        failing = 0
        for l, fields in expected_fields.items():
            agree = every = _field_equals(tally, fields, all_tops, w)
            for s in shifts:
                every &= agree >> s
            # the lanes at l whose tally is off in some segment
            failing |= at_l[l] & ~every
        if failing:
            mi = (failing & -failing).bit_length() // w
            l = next(l for l, lm in at_l.items() if lm >> mi * w & 1)
            counted = [tally >> (j * n_t + mi) * w & (1 << w) - 1 for j in range(t + 1)]
            # the pairs of this V1 before V2, V1 itself not among them
            return report(
                pair_count + mi - (mi > i),
                f"pair (V1 index {i}, V2 index {mi}, l={l}): "
                f"counted {counted}, formula {expected[l]}",
            )
        for l, lm in at_l.items():
            l_pairs[l] += lm.bit_count()
        pair_count += n_t - 1

    missing = [l for l in range(l_min, t) if l_pairs[l] == 0]
    if missing:
        return report(pair_count, f"no pair realizes intersection dimension {missing[0]}")
    cells = tuple(
        Lemma2Cell(l=l, j=j, formula=expected[l][j], pairs=l_pairs[l])
        for l in range(l_min, t)
        for j in range(l, t + 1)
    )
    return report(pair_count, "", cells)


@_value_class
class BoundCheck:
    label: str
    lhs: int
    rhs: int
    ok: bool


@_value_class
class DetBoundsReport:
    q: int
    t: int
    k: int
    checks: tuple[BoundCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_det_bounds(q: int, t: int, k: int) -> DetBoundsReport:
    """Determinant magnitude bounds, the row-maxima product bound, and
    the nonzero generalized-diagonal count of each column-replaced
    matrix (by exhaustive permutation enumeration, so t <= 6)."""
    from itertools import permutations

    if t > 6:
        raise TooLarge("generalized-diagonal enumeration requires t <= 6")
    system = solve_coefficients(q, t, k)
    D = system.D
    size = t + 1
    det_cap = q ** (k * (t + 1) ** 2)
    checks = [BoundCheck("det_D", abs(system.m), det_cap, abs(system.m) <= det_cap)]
    for j in range(size):
        lhs = abs(system.f[j])
        checks.append(BoundCheck(f"det_D{j}", lhs, det_cap, lhs <= det_cap))

    prod = 1
    for l in range(size):
        prod *= max(D[l])
    cap6 = 2 ** (k * (t + 1) + 1) * q ** ((k - t) * t * (t + 1))
    checks.append(BoundCheck("row_maxima_product", prod, cap6, prod <= cap6))

    diag_cap = 2**t
    for j, Dj in enumerate(_cramer_matrices(D)):
        cnt = 0
        for perm in permutations(range(size)):
            if all(Dj[i][perm[i]] != 0 for i in range(size)):
                cnt += 1
        checks.append(BoundCheck(f"diagonals_D{j}", cnt, diag_cap, cnt <= diag_cap))

    return DetBoundsReport(q=q, t=t, k=k, checks=tuple(checks))


@_value_class
class C3Report:
    q: int
    t: int
    k: int
    m: int
    l1_norm: int
    exact_c3: int
    cap: int
    ok: bool


def c3_bound(q: int, t: int, k: int) -> C3Report:
    """Exact local-decodability parameter max(m, ||coefficients||_1)
    versus its q^(2k(t+1)^2) cap.

    The l1 norm is the certificate's, sum_j |f_j| N_j with N_j from
    certificate_composition; decode_certificate checks those N_j
    against its enumerated subspaces, so nothing is enumerated here.
    """
    system = solve_coefficients(q, t, k)
    l1 = sum(abs(c) * N for c, N in zip(system.f, certificate_composition(q, t, k)))
    exact = max(system.m, l1)
    bound = q ** (2 * k * (t + 1) ** 2)
    return C3Report(
        q=q, t=t, k=k, m=system.m, l1_norm=l1, exact_c3=exact, cap=bound, ok=exact <= bound
    )
