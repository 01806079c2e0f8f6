import json
from itertools import product

import pytest

from qdesign import verifier
from qdesign.errors import DimensionMismatch, InvalidParameters
from qdesign.gf import make_field, random_invertible
from qdesign.grassmann import apply_map, enumerate_subspaces, subspace_from_rows
from qdesign.qcount import q_binomial
from qdesign.search import search_design
from qdesign.verifier import (
    DesignCandidate,
    design_from_json_obj,
    design_to_json_obj,
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


def test_found_designs_survive_both_formats(tmp_path):
    # the text format has no rows for a block with k = 0: it refuses such
    # a design and writes nothing, and JSON holds it
    json_path, text_path = tmp_path / "d.json", tmp_path / "d.txt"
    grid = [(q, n, k, t, lam) for q, n, lam in product((2, 3), range(4), (1, 2))
            for k in range(n + 1) for t in range(k + 1)]
    found = [cand for cand in (search_design(*p) for p in grid)
             if isinstance(cand, DesignCandidate)]
    assert {cand.k for cand in found} == {0, 1, 2, 3}
    for cand in found:
        save_design(cand, str(json_path), fmt="json")
        assert load_design(str(json_path)) == cand
        if cand.k == 0:
            with pytest.raises(InvalidParameters, match="--out-format json"):
                save_design(cand, str(text_path))
            assert not text_path.exists()
            continue
        save_design(cand, str(text_path))
        assert load_design(str(text_path)) == cand
        text_path.unlink()


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
    assert cand.blocks[0].rows() == [(1, 0, 0), (0, 1, 1)]
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
    # save_design writes canonical rows, which load_design takes as they are
    cases = [(F2, 5, 2), (F3, 4, 2), (make_field(16), 3, 2)]
    designs = [DesignCandidate(field=f, n=n, k=k, blocks=tuple(enumerate_subspaces(n, k, f)))
               for f, n, k in cases]

    def no_span(*args):
        raise AssertionError("a canonical block was eliminated")

    monkeypatch.setattr(verifier, "_span", no_span)
    for cand in designs:
        for fmt in ("text", "json"):
            path = tmp_path / f"d.{fmt}"
            save_design(cand, str(path), fmt=fmt)
            assert load_design(str(path)) == cand
