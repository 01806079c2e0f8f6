"""Canonical ranks and the t-subspaces-of-a-block kernel, checked against
enumeration order and against vector-set (vector_mask) containment."""

import hashlib
import random
import re
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from qdesign.errors import DimensionMismatch, InvalidParameters
from qdesign import grassmann
from qdesign.gf import SUPPORTED_ORDERS, make_field, random_invertible
from qdesign.grassmann import (
    SubspaceBasis,
    _group_forms,
    _group_t_ranks,
    _pivot_plan,
    _rank_groups,
    _unrank_sorted,
    apply_map,
    block_echelon_forms,
    enumerate_subspaces,
    extensions,
    iter_subspaces,
    subspace_from_rows,
    subspace_rank,
    t_subspace_ranks,
    unrank,
)
from qdesign.incidence import build_incidence
from qdesign.qcount import q_binomial
from qdesign.verifier import DesignCandidate, verify_design

RANK_CAP = 5000


def _rank_cases():
    """Every (q, n, k), q in {2, 3, 4}, with [n k]_q <= RANK_CAP, for each n
    whose nontrivial Grassmannians ([n 1]_q and up) can fit under the cap."""
    for q in (2, 3, 4):
        n = 0
        while n < 2 or q_binomial(n, 1, q) <= RANK_CAP:
            for k in range(n + 1):
                if q_binomial(n, k, q) <= RANK_CAP:
                    yield q, n, k
            n += 1


def test_rank_matches_enumeration_order_and_unrank_inverts():
    cases = 0
    for q, n, k in _rank_cases():
        field = make_field(q)
        count = 0
        for i, S in enumerate(iter_subspaces(n, k, field)):
            assert subspace_rank(S) == i
            assert unrank(n, k, field, i) == S
            count += 1
        assert count == q_binomial(n, k, q)
        cases += 1
    assert cases > 100


def test_unrank_sorted_matches_unrank():
    # every rank, and seeded increasing subsets that skip whole pivot groups
    rng = random.Random(5)
    for q, n, k in _rank_cases():
        field = make_field(q)
        blocks = list(iter_subspaces(n, k, field))
        assert _unrank_sorted(n, k, field, list(range(len(blocks)))) == blocks
        ranks = sorted(rng.sample(range(len(blocks)), min(len(blocks), 7)))
        assert _unrank_sorted(n, k, field, ranks) == [unrank(n, k, field, r) for r in ranks]


def test_unrank_rejects_out_of_range():
    f = make_field(3)
    for r in (-1, q_binomial(4, 2, 3)):
        with pytest.raises(InvalidParameters):
            unrank(4, 2, f, r)
    with pytest.raises(DimensionMismatch):
        unrank(3, 4, f, 0)
    # C(20, 10) = 184,756 pivot sets, none of them looked at
    for r in (-1, q_binomial(20, 10, 2)):
        text = f"rank {r} is outside 0 .. [20 10]_2 - 1"
        with pytest.raises(InvalidParameters, match=re.escape(text)):
            unrank(20, 10, make_field(2), r)


@pytest.mark.parametrize("q,k", [(2, 10), (2, 15), (3, 10), (16, 10)])
def test_rank_in_a_large_space_reads_one_pivot_set(q, k):
    # pivots at every other column of F_q^2k, seeded free entries: a table
    # over all C(2k, k) pivot sets would take seconds and hundreds of MiB
    n, field = 2 * k, make_field(q)
    rng = random.Random(f"large:{q}:{k}")
    rows = []
    for i in range(k):
        row = [0] * n
        row[2 * i] = 1
        for j in range(2 * i + 1, n, 2):  # the free columns of row i
            row[j] = rng.randrange(q)
        rows.append(row)
    S = subspace_from_rows(field, n, rows)
    assert S.entries == bytes(x for r in rows for x in r)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        r = subspace_rank(S)
        assert unrank(n, k, field, r) == S
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2**20
    # the last pivot set has no free entries: its one subspace is the last
    first, last = (
        SubspaceBasis(field, n, k, tuple(int(j == s + i) for i in range(k) for j in range(n)))
        for s in (0, k)
    )
    assert subspace_rank(last) == q_binomial(n, k, q) - 1
    assert unrank(n, k, field, q_binomial(n, k, q) - 1) == last
    assert subspace_rank(first) == 0 and unrank(n, k, field, 0) == first


def test_rank_orders_random_subspaces_of_a_large_space():
    # [9 4]_3 is about 6.2e9: too many to enumerate, so the rank order is
    # checked against the documented (pivot columns, entries) order
    field = make_field(3)
    rng = random.Random("order:3:9:4")
    subs = set()
    while len(subs) < 300:
        S = subspace_from_rows(field, 9, [[rng.randrange(3) for _ in range(9)] for _ in range(4)])
        if S.k == 4:
            subs.add(S)
    by_rank = sorted(subs, key=subspace_rank)
    assert by_rank == sorted(subs, key=lambda s: (s.pivot_columns, s.entries))
    assert all(unrank(9, 4, field, subspace_rank(S)) == S for S in by_rank)


def _mask_ranks(block, cols):
    """Positions of the t-subspaces inside block, by vector-set containment."""
    bm = block.vector_mask
    return [i for i, am in enumerate(cols) if bm & am == am]


def _check_blocks(blocks, n, t, field):
    cols = [a.vector_mask for a in iter_subspaces(n, t, field)]
    for i, block in enumerate(blocks):
        ranks = t_subspace_ranks(block, t)
        assert len(ranks) == q_binomial(block.k, t, field.q)
        # in increasing order, which search.build_cover_instance relies on
        assert ranks == _mask_ranks(block, cols), block
        # in order, against the images that block_echelon_forms lists
        assert tuple(ranks) == _echelon_ranks(block, t, i == 0)


@pytest.mark.parametrize("q,n,k,t", [(2, 5, 3, 2), (3, 4, 2, 1), (4, 4, 2, 1)])
def test_kernel_matches_containment_on_every_block(q, n, k, t):
    field = make_field(q)
    _check_blocks(iter_subspaces(n, k, field), n, t, field)


@pytest.mark.parametrize(
    "q,n,k,t",
    [(2, 6, 3, 2), (3, 5, 3, 2), (5, 4, 3, 1), (8, 3, 2, 1), (8, 4, 3, 2)]
    + [(q, 3, 2, 1) for q in (7, 9, 11, 13, 16)],
)
def test_kernel_on_blocks_from_random_rows(q, n, k, t):
    field = make_field(q)
    rng = random.Random(f"rows:{q}:{n}:{k}")
    blocks = []
    while len(blocks) < 25:
        # extra rows, so that the RREF has to eliminate
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k + 1)]
        S = subspace_from_rows(field, n, rows)
        if S.k == k:
            blocks.append(S)
    _check_blocks(blocks, n, t, field)


@pytest.mark.parametrize("q,n,k,t", [(2, 6, 3, 2), (3, 4, 3, 2), (4, 4, 2, 1)])
def test_kernel_on_mapped_blocks(q, n, k, t):
    field = make_field(q)
    subs = enumerate_subspaces(n, k, field)
    rng = random.Random(f"map:{q}:{n}:{k}")
    blocks = []
    for seed in range(3):
        L = random_invertible(field, n, seed)
        blocks += [apply_map(L, S) for S in rng.sample(subs, 8)]
    _check_blocks(blocks, n, t, field)


@pytest.mark.parametrize("q,n,k,t", [(2, 6, 3, 2), (3, 5, 3, 1), (2, 6, 4, 2)])
def test_kernel_on_extension_blocks(q, n, k, t):
    field = make_field(q)
    rng = random.Random(f"ext:{q}:{n}:{k}")
    blocks = []
    for V in rng.sample(enumerate_subspaces(n, 1, field), 3):
        blocks += extensions(V, k)
    _check_blocks(blocks, n, t, field)


GROUP_CAP = 10**4


def _group_cases():
    """Every (q, n, k, t), q in {2, 3, 4, 8, 16} and n <= 5 (n <= 7 for
    q = 2), whose [n k]_q blocks of [k t]_q ranks hold at most GROUP_CAP
    ranks in all: k = 0, k = n, t = 0 and t = k among them."""
    for q in (2, 3, 4, 8, 16):
        for n in range(8 if q == 2 else 6):
            for k in range(n + 1):
                for t in range(k + 1):
                    if q_binomial(n, k, q) * q_binomial(k, t, q) <= GROUP_CAP:
                        yield q, n, k, t


def _echelon_ranks(block, t, checked=False):
    # the ranks of block's t-subspaces by subspace_rank of their echelon
    # forms: an oracle that shares with the kernel only _pivot_plan, through
    # subspace_rank, and _group_forms, the enumeration, which
    # test_rank_matches_enumeration_order_and_unrank_inverts pins together.
    # With checked, each image goes through the public SubspaceBasis(...),
    # whose check confirms that block_echelon_forms lists canonical entries
    n, field = block.n, block.field
    make = SubspaceBasis if checked else grassmann._trusted
    images = [e for _, group in block_echelon_forms(block, t) for e in group]
    return tuple(subspace_rank(make(field, n, t, tuple(e))) for e in images)


def test_rank_groups_match_the_per_block_route():
    # the 4096-block runs of every q, t = 0 too, against iter_subspaces
    # and the echelon forms of each block
    cases = 0
    for q, n, k, t in _group_cases():
        field = make_field(q)
        covers = []
        groups = list(_rank_groups(n, k, t, field))
        for pivots, group_covers in zip(combinations(range(n), k), groups, strict=True):
            assert len(group_covers) == q ** len(_pivot_plan(n, q, pivots)[2]), (q, n, k, t)
            covers += group_covers
        blocks = iter_subspaces(n, k, field)
        middle = len(covers) // 2  # one checked block per case
        assert covers == [_echelon_ranks(b, t, i == middle) for i, b in enumerate(blocks)], (
            q, n, k, t)
        cases += 1
    assert cases == 277


def test_rank_groups_tick_every_4096_blocks_and_column():
    # the first group of the 2-subspaces of F_16^4 holds 16^4 = 2^16
    # blocks, ranked in 16 runs of 4096, one tick each
    ticks = []

    def tick():
        ticks.append(None)

    next(_rank_groups(4, 2, 1, make_field(16), tick))
    assert len(ticks) == 16

    # odd q ranks each 4096-block fill as it goes; [4 2]_3 has a first
    # group of 81 blocks, and the last of its six groups has one
    ticks.clear()
    sizes = [len(covers) for covers in _rank_groups(4, 2, 1, make_field(3), tick)]
    assert sizes == [81, 27, 9, 9, 3, 1] and len(ticks) == 6

    # a tick that raises stops the group at once
    class Stop(Exception):
        pass

    def stop():
        raise Stop

    with pytest.raises(Stop):
        next(_rank_groups(4, 2, 1, make_field(16), stop))


# a few _group_cases, each q's route among them, t = 0 too
ORACLE_CASES = ((2, 5, 3, 2), (2, 4, 2, 0), (3, 4, 2, 1), (4, 3, 2, 1), (8, 3, 3, 2), (16, 3, 2, 1))


def test_echelon_oracle_reads_nothing_of_the_kernel(monkeypatch):
    # _echelon_ranks, which the _rank_groups and kernel tests trust, gives
    # the containment ranks with every kernel entry point disabled
    def disabled(*args, **kwargs):
        raise AssertionError("the oracle called the kernel")

    for name in ("_t_plans", "_group_t_ranks", "_rank_groups", "_lane_tables", "_lane_bytes",
                 "_lane_values"):
        monkeypatch.setattr(grassmann, name, disabled)
    assert set(ORACLE_CASES) <= set(_group_cases())
    for q, n, k, t in ORACLE_CASES:
        field = make_field(q)
        cols = [a.vector_mask for a in iter_subspaces(n, t, field)]
        for block in iter_subspaces(n, k, field):
            assert list(_echelon_ranks(block, t)) == _mask_ranks(block, cols), (q, n, k, t)


# (q, n, k, t) whose first pivot group, of 2^14, 3^8 and 16^4 blocks,
# spans several kernel calls
SPLIT_GROUPS = ((2, 9, 2, 1), (3, 6, 2, 1), (16, 4, 2, 1))


def test_rank_groups_pass_each_block_once_in_runs_of_4096(monkeypatch):
    # every block of every group reaches the kernel once, as its entries,
    # in canonical order, in full runs of _CHUNK but the group's last
    calls = []
    real = grassmann._group_t_ranks

    def recording(field, n, t, pivots, forms):
        calls.append((pivots, forms))
        return real(field, n, t, pivots, forms)

    monkeypatch.setattr(grassmann, "_group_t_ranks", recording)
    for q, n, k, t in SPLIT_GROUPS:
        calls.clear()
        assert sum(map(len, _rank_groups(n, k, t, make_field(q)))) == q_binomial(n, k, q)
        assert [(p, form) for p, forms in calls for form in forms] == [
            (p, bytes(e)) for p in combinations(range(n), k) for e in _group_forms(n, p, q)]
        for (p, forms), (after, _) in zip(calls, calls[1:] + [(None, ())]):
            assert 0 < len(forms) <= grassmann._CHUNK, (q, n, k, p)
            assert len(forms) == grassmann._CHUNK or p != after, (q, n, k, p)


def test_rank_groups_across_kernel_calls():
    # blocks of one group ranked in different calls, at the run boundaries,
    # the last block and a seeded sample, against the echelon forms; the
    # first group starts at rank 0, so a block's index is its rank
    rng = random.Random(38)
    for q, n, k, t in SPLIT_GROUPS:
        field = make_field(q)
        covers = next(_rank_groups(n, k, t, field))
        assert len(covers) == q ** (2 * (n - 2))
        picks = {4095, 4096, 4097, len(covers) - 1, *rng.sample(range(len(covers)), 50)}
        for i in sorted(picks):
            assert covers[i] == _echelon_ranks(unrank(n, k, field, i), t), (q, n, k, t, i)


def test_rank_groups_hold_no_whole_row_of_a_group():
    # the single row of a 1-subspace group takes all 2^19 of its values;
    # read lazily, the first run of 4096 is ranked, and stopped, at once
    class Stop(Exception):
        pass

    def stop():
        raise Stop

    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            next(_rank_groups(20, 1, 0, make_field(2), stop))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_incidence_builds_only_its_indexes(monkeypatch):
    # odd q: ranking a row block builds no SubspaceBasis, and the indexes
    # are built when read, so the [5 2]_3 = 1210 rows and [5 1]_3 = 121
    # columns are the only ones built, and only then
    built = []
    real = grassmann._trusted

    def counting(*args):
        built.append(None)
        return real(*args)

    monkeypatch.setattr(grassmann, "_trusted", counting)
    M = build_incidence(5, 2, 1, make_field(3))
    assert (M.num_rows, M.num_cols) == (1210, 121)
    assert built == []
    assert (len(M.row_index), len(M.col_index)) == (1210, 121)
    assert len(built) == 1210 + 121


def _check_t_zero_and_t_equal_k(q, n):
    field = make_field(q)
    for S in enumerate_subspaces(n, 2, field):
        assert t_subspace_ranks(S, 0) == [0]
        assert t_subspace_ranks(S, 2) == [subspace_rank(S)]
    with pytest.raises(DimensionMismatch):
        t_subspace_ranks(S, 3)
    # a block's one 0-subspace needs none of its rows, so a 1000-dimensional
    # block of F_q^2000 is answered without packing or scaling them
    big_n, big_k = 2000, 1000
    entries = [0] * (big_k * big_n)
    for i in range(big_k):
        entries[i * big_n + i] = 1
        entries[i * big_n + big_k + i] = q - 1
    big = SubspaceBasis(field, big_n, big_k, tuple(entries))
    start = time.monotonic()
    assert t_subspace_ranks(big, 0) == [0]
    assert time.monotonic() - start < 0.1


def test_kernel_t_zero_and_t_equal_k():
    _check_t_zero_and_t_equal_k(3, 4)


@pytest.mark.parametrize("q,n", [(2, 4), (4, 4), (16, 3)])
def test_kernel_t_zero_and_t_equal_k_characteristic_2(q, n):
    _check_t_zero_and_t_equal_k(q, n)


def _mask_histogram_and_witness(blocks, n, t, field):
    cols = list(iter_subspaces(n, t, field))
    bmasks = [b.vector_mask for b in blocks]
    counts = [sum(1 for bm in bmasks if bm & a.vector_mask == a.vector_mask) for a in cols]
    histogram = dict(sorted(Counter(counts).items()))
    mode = min(histogram, key=lambda c: (-histogram[c], c))
    return histogram, next(a for a, c in zip(cols, counts) if c != mode)


@pytest.mark.parametrize("q,n,k,t,size", [(2, 6, 3, 2, 200), (3, 4, 2, 1, 60), (2, 5, 2, 1, 70)])
def test_verify_histogram_and_witness_match_mask_oracle(q, n, k, t, size):
    field = make_field(q)
    subs = enumerate_subspaces(n, k, field)
    for seed in range(3):
        blocks = tuple(random.Random(seed).sample(subs, size))
        report = verify_design(DesignCandidate(field=field, n=n, k=k, blocks=blocks), t)
        assert not report.is_design
        histogram, witness = _mask_histogram_and_witness(blocks, n, t, field)
        assert report.counts_histogram == histogram
        assert report.failing_t_subspace == witness


# the _group_t_ranks grid: n per q, so that a vector mask has at most q^n
# <= 4096 bits; every pivot group whole, and seeded random sub-groups
KERNEL_N = {2: 5, 3: 4, 4: 4}


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_group_kernel_matches_containment(q):
    field, n = make_field(q), KERNEL_N.get(q, 3)
    rng = random.Random(f"group-kernel:{q}")
    cases = 0
    for k in range(n + 1):
        for t in range(k + 1):
            cols = [a.vector_mask for a in iter_subspaces(n, t, field)]
            for pivots in combinations(range(n), k):
                group = [SubspaceBasis(field, n, k, e) for e in _group_forms(n, pivots, q)]
                for blocks in [group, rng.sample(group, 1)] + [
                    rng.sample(group, rng.randint(1, len(group))) for _ in range(2)
                ]:
                    ranks = _group_t_ranks(field, n, t, pivots, [bytes(b.entries) for b in blocks])
                    assert len(ranks) == q_binomial(k, t, q)
                    assert all(len(r) == len(blocks) for r in ranks)
                    expected = [_mask_ranks(b, cols) for b in blocks]
                    assert [list(r) for r in zip(*ranks)] == expected, (q, n, k, t, pivots)
                    cases += 1
    assert cases == 4 * sum((k + 1) * comb(n, k) for k in range(n + 1))


@pytest.mark.parametrize(
    "q,n,k,t",
    [(2, 70, 3, 1), (2, 40, 3, 2), (3, 45, 2, 1), (16, 20, 2, 1), (16, 6, 3, 1), (4, 9, 4, 2)],
)
def test_lanes_of_more_than_64_bits(q, n, k, t):
    # [n t]_q has 70 to 80 bits in the first four cases, so no rank fits a
    # 64-bit lane; in the last two the ranks do, but for q = 2^b a lane
    # also holds the packed block, 72 bits.  The blocks of one pivot set
    # go through one _group_t_ranks call as well
    field = make_field(q)
    assert q_binomial(n, t, q).bit_length() > 64 or k * n * (q.bit_length() - 1) > 64
    rng = random.Random(f"wide:{q}:{n}:{k}:{t}")
    blocks = []
    while len(blocks) < 4:
        S = subspace_from_rows(field, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        if S.k == k:
            blocks.append(S)
    for S in blocks:
        assert tuple(t_subspace_ranks(S, t)) == _echelon_ranks(S, t), S
    pivots = blocks[0].pivot_columns
    _, template, free = _pivot_plan(n, q, pivots)
    group = [SubspaceBasis(field, n, k, tuple(
        rng.randrange(q) if i in free else x for i, x in enumerate(template)))
        for _ in range(5)]
    ranks = _group_t_ranks(field, n, t, pivots, [bytes(S.entries) for S in group])
    assert list(zip(*ranks)) == [_echelon_ranks(S, t) for S in group]


def test_verify_runs_a_large_group_in_several_calls(monkeypatch):
    # the first pivot group of the 2-subspaces of F_2^9 holds 2^14 blocks,
    # ranked in four calls of 4096; the trivial 1-design has lambda = [8 1]_2
    calls = []
    real = grassmann._group_t_ranks

    def counting(field, n, t, pivots, forms):
        calls.append((pivots, len(forms)))
        return real(field, n, t, pivots, forms)

    monkeypatch.setattr(grassmann, "_group_t_ranks", counting)
    field = make_field(2)
    blocks = tuple(iter_subspaces(9, 2, field))
    assert len(blocks) == 43435 == q_binomial(9, 2, 2)
    report = verify_design(DesignCandidate(field=field, n=9, k=2, blocks=blocks), 1)
    assert calls[:7] == [((0, 1), 4096)] * 4 + [((0, 2), 4096)] * 2 + [((0, 3), 2**12)]
    assert report.is_design and report.lambda_ == 255 == q_binomial(8, 1, 2)
    assert report.is_simple and report.is_trivial
    assert report.counts_histogram == {255: q_binomial(9, 1, 2)}


def test_block_t_ranks_pass_each_block_under_its_pivots(monkeypatch):
    # the verifier's grouping reads pivots in lanes, one entry column of
    # every block at a time; at n = 300 they pass 255, in 2-byte lanes.
    # Each block, a duplicate too, reaches the kernel once, in the one
    # call of its pivots (every group here is below _CHUNK blocks)
    calls = []
    monkeypatch.setattr(grassmann, "_group_t_ranks",
                        lambda field, n, t, pivots, forms: calls.append((pivots, forms)) or [])
    rng = random.Random(39)
    for q, n, k in ((2, 6, 3), (3, 5, 2), (16, 3, 2), (2, 300, 2), (5, 300, 1)):
        field = make_field(q)
        leads = [(0, 1), (0, 255), (254, 256), (255, 299), (3, 299)] if n == 300 else []
        rows = [[[int(j == c) for j in range(n)] for c in lead[:k]] for lead in leads]
        rows += [[[rng.randrange(q) for _ in range(n)] for _ in range(k)] for _ in range(60)]
        blocks = [b for b in (subspace_from_rows(field, n, r) for r in rows) if b.k == k]
        blocks.append(blocks[0])
        calls.clear()
        list(grassmann._block_t_ranks(field, n, k, 0, [bytes(b.entries) for b in blocks]))
        by_pivots = Counter((b.pivot_columns, bytes(b.entries)) for b in blocks)
        assert Counter((p, f) for p, group in calls for f in group) == by_pivots
        assert len(calls) == len({p for p, _ in by_pivots})
        assert {lead[:k] for lead in leads} <= {p for p, _ in calls}


# (q, n, k, t) of the covers under the digest below
DIGEST_COVERS = (
    (2, 6, 3, 0), (2, 6, 3, 1), (2, 6, 3, 2), (2, 7, 3, 2),
    (3, 5, 2, 1), (3, 5, 3, 2), (3, 4, 2, 0),
    (4, 4, 2, 1), (4, 5, 2, 2),
    (8, 4, 2, 1), (9, 4, 2, 1), (16, 3, 2, 1),
)


def _report_key(report):
    failing = report.failing_t_subspace
    return (report.is_design, report.t, report.lambda_, report.is_simple, report.is_trivial,
            tuple(report.counts_histogram.items()),
            None if failing is None else tuple(failing.entries))


def test_rank_outputs_are_byte_identical_to_the_pinned_digests():
    # sha256 over the _rank_groups covers of DIGEST_COVERS, and over the
    # verify_design reports of the bench's coverage designs (the trivial
    # ones and the four seed-11 random 279-subsets of [6 3]_2 at t = 2);
    # the digests were taken before the batched kernel replaced the
    # per-block routes, and a later kernel must reproduce them
    covers = hashlib.sha256()
    for q, n, k, t in DIGEST_COVERS:
        covers.update(repr((q, n, k, t)).encode())
        for group in _rank_groups(n, k, t, make_field(q)):
            covers.update(repr(group).encode())
    assert covers.hexdigest() == (
        "f9919b837815b5471fab324be58647b0cab6b6f9017c0fe5dd0ce1d0c04cb6d9"
    )
    reports = hashlib.sha256()
    for q, n, k, t in ((2, 6, 3, 2), (3, 5, 3, 2), (2, 8, 2, 1)):
        field = make_field(q)
        cand = DesignCandidate(field=field, n=n, k=k, blocks=tuple(iter_subspaces(n, k, field)))
        reports.update(repr(_report_key(verify_design(cand, t))).encode())
    f2 = make_field(2)
    planes = tuple(iter_subspaces(6, 3, f2))
    rng = random.Random("coverage:11")
    for _ in range(4):
        cand = DesignCandidate(field=f2, n=6, k=3, blocks=tuple(rng.sample(planes, 279)))
        reports.update(repr(_report_key(verify_design(cand, 2))).encode())
    assert reports.hexdigest() == (
        "1e749b12dc80fa6b68482e9731b321d91c684c408eb0d61159d1eb1ee163f01c"
    )
