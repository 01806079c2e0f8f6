import gc
import random
import time
import tracemalloc
from itertools import product

import pytest

from qdesign import gf, grassmann
from qdesign.errors import AmbientMismatch, DimensionMismatch, SingularMap, TooLarge
from qdesign.gf import (
    SUPPORTED_ORDERS,
    MatrixGFq,
    identity_matrix,
    make_field,
    mat_inverse,
    rank,
    rank_of_rows,
    random_invertible,
)
from qdesign.grassmann import (
    SubspaceBasis,
    apply_map,
    block_echelon_forms,
    complete_basis,
    contains,
    enumerate_subspaces,
    extensions,
    gl_map_between,
    intersect_dim,
    iter_subspaces,
    subspace_dim_from_count,
    subspace_from_rows,
    subspace_rank,
    t_subspace_ranks,
    unrank,
)
from qdesign.localdecode import decode_certificate
from qdesign.qcount import q_binomial

F2 = make_field(2)
F3 = make_field(3)


def test_enumeration_counts():
    assert len(enumerate_subspaces(2, 2, F2)) == 1
    assert len(enumerate_subspaces(3, 1, F2)) == 7
    assert len(enumerate_subspaces(4, 2, F2)) == 35
    assert len(enumerate_subspaces(4, 2, F3)) == 130


def _order_key(s):
    # the documented order, stated apart from subspace_rank: within one
    # pivot set only the free entries vary, so the entries compare as they do
    return s.pivot_columns, s.entries


def test_enumeration_canonical_and_distinct():
    rng = random.Random(14)
    for q in (2, 3, 4, 9):
        f = make_field(q)
        for n in range(5):
            for k in range(n + 1):
                subs = enumerate_subspaces(n, k, f)
                keys = [_order_key(s) for s in subs]
                assert keys == sorted(keys)
                assert len(set(subs)) == len(subs)
                shuffled = rng.sample(subs, len(subs))
                assert sorted(shuffled, key=subspace_rank) == sorted(shuffled, key=_order_key)
                for s in subs:
                    assert s.k == k and s.n == n
                    # basis is in RREF: canonicalizing is a no-op
                    assert subspace_from_rows(f, n, s.rows()) == s


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_subspaces(4, 2, F2, max_count=10)


def test_zero_subspace():
    z = enumerate_subspaces(3, 0, F2)
    assert len(z) == 1 and z[0].k == 0
    assert z[0].vector_mask == 1  # only the zero vector


def test_contains_reflexive_and_full():
    subs = enumerate_subspaces(3, 2, F2)
    full = enumerate_subspaces(3, 3, F2)[0]
    for U in subs:
        assert contains(U, U)
        assert contains(full, U)


def test_distinct_lines_incomparable():
    lines = enumerate_subspaces(2, 1, F2)
    for a in lines:
        for b in lines:
            assert contains(a, b) == (a == b)


def test_contains_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        contains(enumerate_subspaces(3, 1, F2)[0], enumerate_subspaces(4, 1, F2)[0])
    with pytest.raises(AmbientMismatch):
        contains(enumerate_subspaces(3, 1, F2)[0], enumerate_subspaces(3, 1, F3)[0])
    # the ambient check comes before any dimension shortcut
    with pytest.raises(AmbientMismatch):
        contains(enumerate_subspaces(3, 1, F2)[0], enumerate_subspaces(4, 2, F2)[0])
    with pytest.raises(AmbientMismatch):
        contains(enumerate_subspaces(3, 1, F2)[0], enumerate_subspaces(3, 2, F3)[0])


def test_contains_matches_vector_sets():
    # V <= U exactly when every vector of V lies in U, whatever the
    # dimensions, V.k > U.k included
    rng = random.Random(19)
    for q, n in ((2, 4), (3, 3), (4, 3), (2, 5)):
        f = make_field(q)
        subs = [S for k in range(n + 1) for S in iter_subspaces(n, k, f)]
        pairs = [(rng.choice(subs), rng.choice(subs)) for _ in range(300)]
        # pairs that do contain are rare among random ones
        pairs += [(U, V) for U in subs[:: max(1, len(subs) // 20)] for V in subs if V.k <= 1]
        assert any(V.k > U.k for U, V in pairs)
        for U, V in pairs:
            expected = V.vector_mask & ~U.vector_mask == 0
            assert contains(U, V) == expected, (U, V)
        assert any(contains(U, V) for U, V in pairs if U != V)


def test_intersect_dim_self_and_hyperplanes():
    subs = enumerate_subspaces(3, 2, F2)
    for U in subs:
        assert intersect_dim(U, U) == 2
    for U in subs:
        for V in subs:
            if U != V:
                assert intersect_dim(U, V) == 1  # 2 + 2 - 3


def test_intersect_dim_vector_set_oracle():
    rng = random.Random(42)
    for q, f, n in ((2, F2, 5), (3, F3, 4)):
        pool = enumerate_subspaces(n, 2, f) + enumerate_subspaces(n, 3, f)
        for _ in range(50):
            U = pool[rng.randrange(len(pool))]
            V = pool[rng.randrange(len(pool))]
            inter = U.vector_mask & V.vector_mask
            assert subspace_dim_from_count(q, inter.bit_count()) == intersect_dim(U, V)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_nonzero_vectors_match_coefficient_enumeration(q):
    # every vector sum_i c_i row_i, indexed base q with entry 0 most significant
    field = make_field(q)
    n = 3 if q <= 9 else 2
    for k in range(n + 1):
        for S in iter_subspaces(n, k, field):
            rows = S.rows()
            indices = set()
            for coeffs in product(range(q), repeat=k):
                vec = [0] * n
                for c, row in zip(coeffs, rows):
                    vec = [field.add(x, field.mul(c, y)) for x, y in zip(vec, row)]
                indices.add(sum(x * q ** (n - 1 - i) for i, x in enumerate(vec)))
            assert len(indices) == q**k
            nonzero = S.nonzero_vectors()
            assert len(nonzero) == q**k - 1
            assert set(nonzero) == indices - {0}
            assert S.vector_mask == sum(1 << v for v in indices)


def test_dimension_formula():
    rng = random.Random(7)
    pool = enumerate_subspaces(5, 2, F2)
    for _ in range(50):
        U = pool[rng.randrange(len(pool))]
        V = pool[rng.randrange(len(pool))]
        assert intersect_dim(U, V) + rank_of_rows(F2, U.rows() + V.rows(), 5) == U.k + V.k


def test_extensions_line_in_f2_3():
    lines = enumerate_subspaces(3, 1, F2)
    planes = enumerate_subspaces(3, 2, F2)
    for V in lines:
        ext = extensions(V, 2)
        assert len(ext) == 3  # [2 1]_2
        filtered = [U for U in planes if contains(U, V)]
        assert ext == filtered


def test_extensions_line_in_f2_4():
    V = enumerate_subspaces(4, 1, F2)[0]
    assert len(extensions(V, 2)) == 7  # [3 1]_2


def test_extensions_full_space():
    V = enumerate_subspaces(3, 3, F2)[0]
    assert extensions(V, 3) == [V]


def test_extensions_in_a_large_space_build_no_rank_plan():
    # V spans e_2i + e_2i+1: its pivots skip every other column.  A table
    # over all C(20, 10) or C(30, 15) pivot sets of the results would take
    # seconds and hundreds of MiB.  The first call is timed cold; memory is
    # measured on W, V shifted one column right (cyclically), whose results
    # have other pivot sets, so that call is cold too.
    for n, t, k, count in ((20, 9, 10, 2047), (30, 15, 15, 1)):
        V, W = (
            subspace_from_rows(F2, n, [[int((j - s) % n // 2 == i) for j in range(n)] for i in range(t)])
            for s in (0, 1)
        )
        start = time.perf_counter()
        ext = extensions(V, k)
        assert time.perf_counter() - start < 1.0
        assert len(ext) == count and all(contains(U, V) for U in ext)
        keys = [(U.pivot_columns, U.entries) for U in ext]
        assert keys == sorted(set(keys))
        ranks = [subspace_rank(U) for U in ext]
        assert ranks == sorted(set(ranks))
        assert W.pivot_columns != V.pivot_columns
        tracemalloc.start()
        try:
            ext_w = extensions(W, k)
            held, peak = tracemalloc.get_traced_memory()
            assert len(ext_w) == count
            del ext_w
            gc.collect()
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # past the result it returns, the call keeps and peaks at under 1 MiB
        assert peak - held < 2**20 and left < 2**20
    assert ext == [V]


def test_extensions_counts_grid():
    for q, f in ((2, F2), (3, F3)):
        for n in range(1, 5):
            for tt in range(n + 1):
                for V in iter_subspaces(n, tt, f):
                    for k in range(tt, n + 1):
                        ext = extensions(V, k)
                        assert len(ext) == q_binomial(n - tt, k - tt, q)
                        assert all(contains(U, V) for U in ext)
                        assert len(set(ext)) == len(ext)


def test_extension_count_equals_basis_extension_ratio():
    # counting ordered basis extensions and dividing by the per-subspace
    # overcount reproduces the quotient binomial
    for q in (2, 3):
        for n in range(1, 7):
            for t in range(n + 1):
                for k in range(t, n + 1):
                    num = den = 1
                    for i in range(t, k):
                        num *= q**n - q**i
                        den *= q**k - q**i
                    assert num % den == 0
                    assert num // den == q_binomial(n - t, k - t, q)


def test_extensions_requires_dim_order():
    V = enumerate_subspaces(4, 2, F2)[0]
    with pytest.raises(DimensionMismatch):
        extensions(V, 1)


def test_apply_map_identity():
    I = identity_matrix(F2, 4)
    for V in enumerate_subspaces(4, 2, F2)[:10]:
        assert apply_map(I, V) == V


def test_apply_map_preserves_containment():
    rng = random.Random(3)
    planes = enumerate_subspaces(4, 2, F2)
    lines = enumerate_subspaces(4, 1, F2)
    L = random_invertible(F2, 4, seed=11)
    for _ in range(100):
        U = planes[rng.randrange(len(planes))]
        V = lines[rng.randrange(len(lines))]
        assert contains(U, V) == contains(apply_map(L, U), apply_map(L, V))


def test_apply_map_is_permutation():
    subs = enumerate_subspaces(4, 2, F3)
    L = random_invertible(F3, 4, seed=2)
    images = {apply_map(L, s) for s in subs}
    assert images == set(subs)


def test_apply_map_rejects_singular():
    M = MatrixGFq.from_rows(F2, [(1, 1), (1, 1)])
    with pytest.raises(SingularMap):
        apply_map(M, enumerate_subspaces(2, 1, F2)[0])


def test_gl_map_between_all_pairs_small():
    for f, nmax in ((F2, 4), (F3, 3)):
        for n in range(1, nmax + 1):
            for k in range(n + 1):
                subs = enumerate_subspaces(n, k, f)
                for U1 in subs:
                    for U2 in subs:
                        L = gl_map_between(U1, U2)
                        assert apply_map(L, U1) == U2


def test_complete_basis_full_rank(monkeypatch):
    # V's rows, then the unit rows at V's non-pivot columns, with no elimination
    def eliminate(*args):
        raise AssertionError("complete_basis ran an elimination")

    cases = [V for k in (0, 2, 4) for V in enumerate_subspaces(4, k, F3)[:20]]
    with monkeypatch.context() as m:
        for module in (gf, grassmann):
            m.setattr(module, "rank_of_rows", eliminate)
            m.setattr(module, "_rref_rows", eliminate)
        completed = [complete_basis(V) for V in cases]
    for V, B in zip(cases, completed):
        units = [tuple(int(i == j) for i in range(4)) for j in range(4) if j not in V.pivot_columns]
        assert B.rows == B.cols == 4
        assert B.row_list() == V.rows() + units
        assert rank_of_rows(F3, B.row_list(), 4) == 4


def test_subspace_hash_consistency():
    a = enumerate_subspaces(4, 2, F2)
    b = enumerate_subspaces(4, 2, F2)
    assert a == b
    assert {x: i for i, x in enumerate(a)} == {x: i for i, x in enumerate(b)}


def test_every_constructor_gives_the_same_value():
    S = list(iter_subspaces(4, 2, F3))[77]
    r = subspace_rank(S)
    a, b = S.rows()
    # two other rows spanning S: a + b and 2b
    spanning = [tuple(F3.add(x, y) for x, y in zip(a, b)), tuple(F3.mul(2, y) for y in b)]
    L = random_invertible(F3, 4, seed=5)
    line = subspace_from_rows(F3, 4, [a])
    block = extensions(S, 3)[-1]
    from_kernel = [
        SubspaceBasis(F3, 4, 2, tuple(e)) for _, images in block_echelon_forms(block, 2) for e in images
    ]
    routes = [
        unrank(4, 2, F3, r),
        subspace_from_rows(F3, 4, spanning),
        apply_map(mat_inverse(L), apply_map(L, S)),
        next(U for U in extensions(line, 2) if repr(U) == repr(S)),
        next(U for U in from_kernel if repr(U) == repr(S)),
    ]
    for U in routes:
        assert U == S and hash(U) == hash(S)
        assert repr(U) == repr(S)
        assert type(U.entries) is tuple
        assert U.basis.entries == S.basis.entries == S.entries
    assert len({S, *routes}) == 1


def test_basis_equals_the_checked_matrix():
    # .basis skips MatrixGFq's check; its entries pass it all the same
    for field, n, k in ((F2, 5, 2), (F3, 4, 2), (make_field(4), 3, 0), (make_field(9), 3, 3)):
        for S in iter_subspaces(n, k, field):
            checked = MatrixGFq(field=field, rows=k, cols=n, entries=S.entries)
            assert S.basis == checked and repr(S.basis) == repr(checked)


def test_generated_subspaces_build_no_matrix(monkeypatch):
    # no subspace the library generates or eliminates builds a MatrixGFq
    # or runs its range check; subspace_from_rows checks its bare rows once
    V = subspace_from_rows(F2, 7, [(0, 1, 1, 0, 1, 0, 1), (0, 0, 1, 1, 0, 0, 1)])
    L = random_invertible(F2, 7, seed=3)
    created = []
    original = MatrixGFq.__post_init__

    def counting(self):
        created.append(self.entries)
        original(self)

    monkeypatch.setattr(MatrixGFq, "__post_init__", counting)
    blocks = list(iter_subspaces(6, 3, F2))
    unrank(6, 3, F2, 1000)
    for block in blocks[::50]:
        t_subspace_ranks(block, 2)
    cert = decode_certificate(V, 3)
    assert created == []
    assert len(cert.coefficients) == q_binomial(5, 3, 2)
    assert subspace_from_rows(F2, 7, V.rows() + [(0,) * 7]) == V
    assert apply_map(L, V).k == 2
    assert len(extensions(V, 3)) == q_binomial(5, 1, 2)
    assert rank(L) == 7
    assert created == []


def test_subspace_from_rows_checks_rows_at_the_boundary():
    with pytest.raises(DimensionMismatch, match="row length does not match ambient dimension"):
        subspace_from_rows(F3, 3, [(1, 0, 0), (0, 1)])
    for bad in (3, -1):
        with pytest.raises(ValueError, match="^entry out of field range$"):
            subspace_from_rows(F3, 3, [(1, 0, 0), (0, bad, 1)])
    assert subspace_from_rows(F3, 3, [(2, 0, 0), (0, 2, 1)]).k == 2
