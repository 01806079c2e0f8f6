import json
import pickle
import random
from itertools import chain, product

import pytest
from conftest import run_cli

from qdesign import grassmann, verifier
from qdesign.errors import DimensionMismatch, InvalidParameters
from qdesign.gf import _DIGITS, SUPPORTED_ORDERS, make_field, random_invertible
from qdesign.grassmann import apply_map, enumerate_subspaces, subspace_from_rows, unrank
from qdesign.qcount import q_binomial
from qdesign.search import search_design
from qdesign.verifier import (
    DesignCandidate,
    design_from_json_obj,
    design_to_json_obj,
    digit_rows,
    format_design_text,
    lambda_identity_check,
    load_design,
    parse_design_text,
    save_design,
    verify_design,
)

F2 = make_field(2)
F3 = make_field(3)


def trivial_candidate(n, k, field):
    return DesignCandidate(
        field=field, n=n, k=k, blocks=tuple(enumerate_subspaces(n, k, field))
    )


def test_trivial_design_f2_4():
    rep = verify_design(trivial_candidate(4, 2, F2), 1)
    assert rep.is_design and rep.is_simple and rep.is_trivial
    assert rep.lambda_ == 7 == q_binomial(3, 1, 2)
    assert rep.counts_histogram == {7: 15}
    assert rep.failing_t_subspace is None


def test_drop_one_block():
    blocks = enumerate_subspaces(4, 2, F2)
    rep = verify_design(DesignCandidate(field=F2, n=4, k=2, blocks=tuple(blocks[1:])), 1)
    assert not rep.is_design
    assert rep.lambda_ is None
    assert rep.counts_histogram == {6: 3, 7: 12}
    assert rep.failing_t_subspace is not None
    # the witness is one of the 3 under-covered lines, i.e. inside the dropped block
    from qdesign.grassmann import contains

    assert contains(blocks[0], rep.failing_t_subspace)


def test_spread_verifies():
    spread = search_design(2, 4, 2, 1, 1)
    rep = verify_design(spread, 1)
    assert rep.is_design and rep.is_simple and not rep.is_trivial
    assert rep.lambda_ == 1
    assert rep.counts_histogram == {1: 15}


def test_duplicate_blocks_not_simple():
    blocks = enumerate_subspaces(4, 2, F2)
    doubled = tuple(blocks) + (blocks[0],)
    rep = verify_design(DesignCandidate(field=F2, n=4, k=2, blocks=doubled), 1)
    assert not rep.is_simple
    assert not rep.is_design  # 3 lines covered 8 times now


def test_trivial_grid():
    for q, f in ((2, F2), (3, F3)):
        for n in range(1, 5):
            for k in range(1, n + 1):
                cand = trivial_candidate(n, k, f)
                for t in range(k + 1):
                    rep = verify_design(cand, t)
                    assert rep.is_design and rep.is_trivial
                    assert rep.lambda_ == q_binomial(n - t, k - t, q)


def test_union_of_disjoint_designs_adds_lambda():
    spread = search_design(2, 4, 2, 1, 1)
    spread_set = set(spread.blocks)
    complement = tuple(b for b in enumerate_subspaces(4, 2, F2) if b not in spread_set)
    rep_c = verify_design(DesignCandidate(field=F2, n=4, k=2, blocks=complement), 1)
    assert rep_c.is_design and rep_c.lambda_ == 6
    union = spread.blocks + complement
    rep_u = verify_design(DesignCandidate(field=F2, n=4, k=2, blocks=union), 1)
    assert rep_u.is_design and rep_u.lambda_ == 7 and rep_u.is_trivial


def test_gl_invariance():
    spread = search_design(2, 4, 2, 1, 1)
    for seed in range(5):
        L = random_invertible(F2, 4, seed)
        mapped = tuple(apply_map(L, b) for b in spread.blocks)
        rep = verify_design(DesignCandidate(field=F2, n=4, k=2, blocks=mapped), 1)
        assert rep.is_design and rep.lambda_ == 1 and rep.is_simple


def test_lambda_identity_check():
    assert lambda_identity_check(4, 2, 1, 2, 35) == 7 == q_binomial(3, 1, 2)
    assert lambda_identity_check(4, 2, 1, 2, 5) == 1
    assert lambda_identity_check(4, 2, 1, 2, 4) is None
    # N = [n k]_q always gives lambda = [n-t k-t]_q
    for q in (2, 3):
        for n in range(1, 6):
            for k in range(1, n + 1):
                for t in range(k + 1):
                    N = q_binomial(n, k, q)
                    assert lambda_identity_check(n, k, t, q, N) == q_binomial(n - t, k - t, q)


def test_wrong_dimension_block_rejected():
    line = enumerate_subspaces(4, 1, F2)[0]
    with pytest.raises(DimensionMismatch):
        DesignCandidate(field=F2, n=4, k=2, blocks=(line,))


def test_verify_t_out_of_range():
    cand = trivial_candidate(4, 2, F2)
    with pytest.raises(DimensionMismatch):
        verify_design(cand, 3)


def test_text_round_trip(tmp_path):
    spread = search_design(2, 4, 2, 1, 1)
    text = format_design_text(spread)
    parsed = parse_design_text(text)
    assert parsed.blocks == spread.blocks
    path = tmp_path / "design.txt"
    save_design(spread, str(path))
    assert load_design(str(path)).blocks == spread.blocks


def test_json_round_trip(tmp_path):
    spread = search_design(2, 6, 3, 1, 1)
    obj = design_to_json_obj(spread)
    assert obj["schema_version"] == 1
    again = design_from_json_obj(json.loads(json.dumps(obj)))
    assert again.blocks == spread.blocks
    path = tmp_path / "design.json"
    save_design(spread, str(path), fmt="json")
    assert load_design(str(path)).blocks == spread.blocks


def _assert_packed_matches(packed, cand, t):
    """packed, read from a file, against cand, built from its blocks: the
    same value, hash, repr, pickle round trip and report, both before and
    after packed's blocks are built (equality, hash and repr build them)."""
    for built in (False, True):
        assert ("blocks" in vars(packed)) is built
        report = verify_design(packed, t)
        again = pickle.loads(pickle.dumps(packed))
        for c in (packed, again):
            assert c == cand and hash(c) == hash(cand) and repr(c) == repr(cand)
        assert report == verify_design(cand, t)


def test_found_designs_survive_both_formats(tmp_path):
    # the text format has no rows for a block with k = 0: it refuses such
    # a design and writes nothing, and JSON holds it
    json_path, text_path = tmp_path / "d.json", tmp_path / "d.txt"
    grid = [(q, n, k, t, lam) for q, n, lam in product((2, 3), range(4), (1, 2))
            for k in range(n + 1) for t in range(k + 1)]
    found = [(cand, p[3]) for p, cand in zip(grid, (search_design(*p) for p in grid))
             if isinstance(cand, DesignCandidate)]
    assert {cand.k for cand, _ in found} == {0, 1, 2, 3}
    for cand, t in found:
        save_design(cand, str(json_path), fmt="json")
        _assert_packed_matches(load_design(str(json_path)), cand, t)
        if cand.k == 0:
            with pytest.raises(InvalidParameters, match="--out-format json"):
                save_design(cand, str(text_path))
            assert not text_path.exists()
            continue
        save_design(cand, str(text_path))
        _assert_packed_matches(load_design(str(text_path)), cand, t)
        text_path.unlink()


def test_packed_candidates_match_their_blocks(tmp_path):
    # seeded shuffled blocks with a duplicate, one of them written with its
    # first two rows swapped: the loader eliminates that block and packs
    # its canonical entries in file order
    rng = random.Random(2005)
    for q, n, k, t in ((2, 5, 2, 1), (2, 6, 3, 2), (3, 4, 2, 1), (4, 4, 3, 2), (16, 3, 2, 1)):
        field = make_field(q)
        blocks = rng.sample(enumerate_subspaces(n, k, field), 12)
        blocks.insert(rng.randrange(13), rng.choice(blocks))
        cand = DesignCandidate(field=field, n=n, k=k, blocks=tuple(blocks))
        rows = [digit_rows(b) for b in blocks]
        j = rng.randrange(len(rows))
        rows[j][:2] = rows[j][1::-1]
        text = f"{q} {n} {k}\n" + "".join(["\n" + "\n".join(r) + "\n" for r in rows])
        obj = {"schema_version": 1, "q": q, "n": n, "k": k, "blocks": rows}
        for suffix, data in (("txt", text), ("json", json.dumps(obj))):
            path = tmp_path / f"d.{suffix}"
            path.write_text(data, encoding="utf-8")
            _assert_packed_matches(load_design(str(path)), cand, t)


def test_verify_door_builds_no_block_objects(tmp_path, monkeypatch):
    # the 1,395 planes of F_2^6, the last replaced by the first: loading and
    # verifying the file, and `qdesign verify` on it, build no SubspaceBasis
    # but the failing witness that unrank returns.  Every block the door
    # could build goes through one of the two _trusted names counted here
    planes = enumerate_subspaces(6, 3, F2)
    cand = DesignCandidate(field=F2, n=6, k=3, blocks=tuple(planes[:-1] + planes[:1]))
    builds = []
    for module in (grassmann, verifier):
        def counting(*args, real=module._trusted):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(module, "_trusted", counting)
    for fmt in ("text", "json"):
        path = tmp_path / f"d.{fmt}"
        save_design(cand, str(path), fmt=fmt)
        builds.clear()
        loaded = load_design(str(path))
        assert builds == []
        report = verify_design(loaded, 2)
        assert not report.is_design and not report.is_simple
        assert len(builds) == 1 and builds[0][3] == report.failing_t_subspace.entries
        builds.clear()
        code, out, _ = run_cli("verify", "--design", str(path), "--t", "2")
        assert code == 1 and "N = 1395" in out
        assert len(builds) == 1


def test_file_format_q3(tmp_path):
    blocks = tuple(enumerate_subspaces(3, 2, F3)[:4])
    cand = DesignCandidate(field=F3, n=3, k=2, blocks=blocks)
    path = tmp_path / "d.txt"
    save_design(cand, str(path))
    assert load_design(str(path)).blocks == blocks


def test_noncanonical_rows_are_canonicalized():
    # rows spanning a block need not be in echelon form in the file
    text = "2 3 2\n\n111\n011\n"
    cand = parse_design_text(text)
    assert cand.blocks[0].rows() == [bytes((1, 0, 0)), bytes((0, 1, 1))]
    # rows that only look canonical are eliminated too
    for q, rows in (
        (2, ["010", "100"]),  # swapped rows
        (2, ["110", "010"]),  # a nonzero entry above a pivot
        (3, ["200", "010"]),  # a leading 2
    ):
        field, n = make_field(q), len(rows[0])
        cand = parse_design_text(f"{q} {n} {len(rows)}\n\n" + "\n".join(rows) + "\n")
        assert cand.blocks == (subspace_from_rows(field, n, [list(map(int, r)) for r in rows]),)


def test_canonical_files_are_not_eliminated(tmp_path, monkeypatch):
    # save_design writes canonical rows, which load_design takes as they
    # are, for every q: no block goes through _block_from_digit_rows
    calls = []

    def counting(*args, real=verifier._block_from_digit_rows):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(verifier, "_block_from_digit_rows", counting)
    rng = random.Random(2013)
    for q in SUPPORTED_ORDERS:
        field = make_field(q)
        for n, k in ((3, 1), (3, 2), (4, 2), (5, 3)):
            ranks = [rng.randrange(q_binomial(n, k, q)) for _ in range(100)]
            cand = DesignCandidate(field=field, n=n, k=k,
                                   blocks=tuple(unrank(n, k, field, r) for r in ranks))
            for fmt in ("text", "json"):
                path = tmp_path / f"d.{fmt}"
                save_design(cand, str(path), fmt=fmt)
                assert load_design(str(path)) == cand and calls == [], (q, n, k, fmt)


# the kinds of block the design-file check must tell apart; "late" blocks
# lead in the last columns, as late_lead.txt in test_contract.py does
BLOCK_KINDS = ("canonical", "late", "zero row", "leading entry", "swapped leads",
               "equal leads", "above pivot", "random")


def _seeded_block(rng, q, n, k, kind):
    """k rows of n entries: a random canonical basis, then spoiled by kind
    (a kind that needs q > 2 or k > 1 leaves it canonical)."""
    pivots = sorted(rng.sample(range(n - k - 2 if kind == "late" else 0, n), k))
    rows = [[0] * n for _ in pivots]
    for row, p in zip(rows, pivots):
        row[p] = 1
        row[p + 1 :] = [0 if j in pivots else rng.randrange(q) for j in range(p + 1, n)]
    a, b = sorted(rng.sample(range(k), 2)) if k > 1 else (0, 0)
    if kind == "zero row" and k:
        rows[b] = [0] * n
    elif kind == "leading entry" and k and q > 2:
        rows[b][pivots[b]] = rng.randrange(2, q)
    elif kind == "swapped leads" and k > 1:
        rows[a], rows[b] = rows[b], rows[a]
    elif kind == "equal leads" and k > 1:  # row b also leads at row a's pivot
        rows[b][pivots[a]] = rng.randrange(1, q)
    elif kind == "above pivot" and k > 1:
        rows[a][pivots[b]] = rng.randrange(1, q)
    elif kind == "random":
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    return rows


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_lane_decision_matches_elimination(q, monkeypatch):
    # the lanes' decision over a whole file against the definition: a block
    # is canonical iff eliminating its rows (grassmann._span) returns them
    # unchanged; the loader eliminates exactly the blocks the lanes mark
    rng, field = random.Random(f"lanes {q}"), make_field(q)
    calls = []

    def counting(*args, real=verifier._block_from_digit_rows):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(verifier, "_block_from_digit_rows", counting)
    for n, k in ((3, 0), (4, 1), (5, 2), (6, 3), (7, 4), (8, 6), (300, 2)):
        blocks = [_seeded_block(rng, q, n, k, rng.choice(BLOCK_KINDS)) for _ in range(48)]
        spans = [grassmann._span(field, n, [list(row) for row in rows]) for rows in blocks]
        entries = [bytes(chain.from_iterable(rows)) for rows in blocks]
        expected = [i for i, (S, e) in enumerate(zip(spans, entries)) if S.entries != e]
        assert 0 < len(expected) < len(blocks) or not k, (n, k)
        assert grassmann._noncanonical_blocks(b"".join(entries), len(blocks), n, k) == expected
        if not k:  # a block without rows has no text form
            continue
        # a file of its blocks of full rank, through the loader
        kept = [i for i, S in enumerate(spans) if S.k == k]
        lines = [["".join([_DIGITS[x] for x in row]) for row in blocks[i]] for i in kept]
        calls.clear()
        loaded = parse_design_text(f"{q} {n} {k}\n" + "".join(["\n" + "\n".join(b) + "\n"
                                                               for b in lines]))
        assert loaded.blocks == tuple(spans[i] for i in kept), (n, k)
        assert calls == [j for j, i in enumerate(kept) if i in expected], (n, k)


@pytest.mark.parametrize("n", (6, 300))
def test_verifier_groups_blocks_by_their_pivots(n, monkeypatch):
    # _lead_groups reads each block's pivots through the shared lane
    # reader (wider lanes past n = 255), and _rank_runs hands each group
    # the blocks whose rows lead there
    rng, seen = random.Random(n), []

    def recording(field, n, t, pivots, forms):
        seen.extend((pivots, form) for form in forms)
        return []

    monkeypatch.setattr(grassmann, "_group_t_ranks", recording)
    for q in (2, 5, 16):
        for k in range(4):
            forms = [bytes(chain.from_iterable(_seeded_block(rng, q, n, k, kind)))
                     for kind in ("canonical", "late") * 20]
            seen.clear()
            groups = grassmann._lead_groups(forms, n, k)
            list(grassmann._rank_runs(make_field(q), n, min(k, 1), groups))
            leads = [tuple(f.index(b"\1", i * n) - i * n for i in range(k)) for f in forms]
            assert sorted(seen) == sorted(zip(leads, forms)), (q, k)
