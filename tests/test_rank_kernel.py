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
from qdesign.search import build_cover_instance
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
    assert S.entries == tuple(x for r in rows for x in r)
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
    # the affine tables (q = 2^b) and the 4096-block runs (odd q), t = 0
    # too, against iter_subspaces and the echelon forms of each block
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
    # blocks, and its affine table has [2 1]_16 = 17 columns; doubling
    # step s of a column adds 2^s values in ceil(2^s / 4096) ticked runs,
    # so the 16 steps tick 12 + (1 + 2 + 4 + 8) = 27 times per column
    ticks = []

    def tick():
        ticks.append(None)

    next(_rank_groups(4, 2, 1, make_field(16), tick))
    assert len(ticks) == 17 * 27

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

    for name in ("_t_plans", "_group_t_ranks", "_rank_groups", "_packed"):
        monkeypatch.setattr(grassmann, name, disabled)
    assert set(ORACLE_CASES) <= set(_group_cases())
    for q, n, k, t in ORACLE_CASES:
        field = make_field(q)
        cols = [a.vector_mask for a in iter_subspaces(n, t, field)]
        for block in iter_subspaces(n, k, field):
            assert list(_echelon_ranks(block, t)) == _mask_ranks(block, cols), (q, n, k, t)


def test_affine_route_builds_only_probe_blocks(monkeypatch):
    # q = 2, t = 1 and t = 0: each of the 20 pivot groups of [6 3]_2 ranks
    # its all-zero block and one block per free bit, and nothing else
    ranked = []
    real = grassmann._group_t_ranks

    def counting(field, n, t, pivots, forms):
        ranked.extend(forms)
        return real(field, n, t, pivots, forms)

    monkeypatch.setattr(grassmann, "_group_t_ranks", counting)
    groups = list(combinations(range(6), 3))
    assert len(groups) == 20
    for t in (1, 0):
        ranked.clear()
        inst = build_cover_instance(6, 3, t, 1, make_field(2))
        assert len(inst.covers) == 1395
        assert len(ranked) == 110 == sum(1 + len(_pivot_plan(6, 2, p)[2]) for p in groups)


def test_incidence_builds_only_its_indexes(monkeypatch):
    # odd q: ranking a row block builds no SubspaceBasis, so the
    # [5 2]_3 = 1210 rows and [5 1]_3 = 121 columns are the only ones built
    built = []
    real = grassmann._trusted

    def counting(*args):
        built.append(None)
        return real(*args)

    monkeypatch.setattr(grassmann, "_trusted", counting)
    M = build_incidence(5, 2, 1, make_field(3))
    assert (M.num_rows, M.num_cols) == (1210, 121)
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
                    ranks = _group_t_ranks(field, n, t, pivots, [b.entries for b in blocks])
                    assert len(ranks) == q_binomial(k, t, q)
                    assert all(len(r) == len(blocks) for r in ranks)
                    expected = [_mask_ranks(b, cols) for b in blocks]
                    assert [list(r) for r in zip(*ranks)] == expected, (q, n, k, t, pivots)
                    cases += 1
    assert cases == 4 * sum((k + 1) * comb(n, k) for k in range(n + 1))


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
            tuple(report.counts_histogram.items()), None if failing is None else failing.entries)


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
