import pickle
import re
from fractions import Fraction

import pytest
from conftest import run_cli

from qdesign import grassmann, verifier
from qdesign.errors import TooLarge
from qdesign.gf import make_field
from qdesign.grassmann import contains, iter_subspaces
from qdesign.incidence import (
    IncidenceStructure,
    average_row,
    build_incidence,
    check_constant_vector_property,
    check_symmetry_transitivity,
    export_bits_text,
)
from qdesign.qcount import q_binomial

F2 = make_field(2)
F3 = make_field(3)


def test_identity_case():
    M = build_incidence(2, 1, 1, F2)
    assert M.num_rows == M.num_cols == 3
    assert [M.bits[i] for i in range(3)] == [1, 2, 4]
    assert M.row_weight == M.col_weight == 1
    assert average_row(M) == Fraction(1, 3)


def test_fano_case():
    M = build_incidence(3, 2, 1, F2)
    assert M.num_rows == M.num_cols == 7
    assert M.row_weight == 3 and M.col_weight == 3
    assert all(r.bit_count() == 3 for r in M.bits)


def test_35_by_15_case():
    M = build_incidence(4, 2, 1, F2)
    assert (M.num_rows, M.num_cols) == (35, 15)
    assert (M.row_weight, M.col_weight) == (3, 7)
    assert average_row(M) == Fraction(1, 5)
    assert check_constant_vector_property(M)
    assert M.total_ones() == 35 * 3 == 15 * 7


def test_entries_match_containment():
    M = build_incidence(4, 2, 1, F2)
    for b, B in enumerate(M.row_index):
        for a, A in enumerate(M.col_index):
            assert M.entry(b, a) == int(contains(B, A))


@pytest.mark.parametrize("q,n,k,t", [(2, 4, 2, 1), (3, 3, 2, 1), (4, 3, 3, 2), (2, 3, 0, 0)])
def test_lazy_indexes_match_the_constructor(q, n, k, t):
    # a structure from build_incidence against the one built from its
    # indexes: the same counts, value, hash, repr and pickle round trip,
    # both before and after its indexes are built (equality, hash and
    # repr build them)
    field = make_field(q)
    M = build_incidence(n, k, t, field)
    rows, cols = tuple(iter_subspaces(n, k, field)), tuple(iter_subspaces(n, t, field))
    built = IncidenceStructure(field, n, k, t, rows, cols, M.bits, M.row_weight, M.col_weight)
    for read in (False, True):
        again = pickle.loads(pickle.dumps(M))
        for c in (M, again):
            assert (c.num_rows, c.num_cols) == (built.num_rows, built.num_cols)
            assert ("row_index" in vars(c), "col_index" in vars(c)) == (read, read)
        for c in (M, again):
            assert c == built and hash(c) == hash(built) and repr(c) == repr(built)
        assert (M.row_index, M.col_index) == (rows, cols)


def test_incidence_command_builds_no_subspace(monkeypatch):
    # counted through both _trusted names, as the verify door counts them
    builds = []
    for module in (grassmann, verifier):
        def counting(*args, real=module._trusted):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(module, "_trusted", counting)
    for extra in ((), ("--json",), ("--export-bits", "-"), ("--weights-only",)):
        code, out, _ = run_cli("incidence", "--q", "3", "--n", "4", "--k", "2", "--t", "1", *extra)
        assert code == 0 and out
    assert builds == []


def test_weights_q3():
    M = build_incidence(4, 2, 1, F3)
    assert M.row_weight == q_binomial(2, 1, 3) == 4
    assert M.col_weight == q_binomial(3, 1, 3) == 13
    assert all(r.bit_count() == 4 for r in M.bits)


def test_t_equals_k():
    M = build_incidence(3, 2, 2, F2)
    assert M.num_rows == M.num_cols == 7
    assert M.row_weight == 1
    # identity matrix in canonical order
    assert all(M.bits[i] == 1 << i for i in range(7))


def test_average_row_cross_identity_grid():
    for q, f in ((2, F2), (3, F3)):
        for n in range(1, 9):
            for k in range(n + 1):
                for t in range(k + 1):
                    lhs = Fraction(q_binomial(n - t, k - t, q), q_binomial(n, k, q))
                    rhs = Fraction(q_binomial(k, t, q), q_binomial(n, t, q))
                    assert lhs == rhs


def test_symmetry_transitivity_spot():
    for n, k, t in ((3, 2, 1), (4, 2, 1), (5, 3, 2)):
        M = build_incidence(n, k, t, F2)
        assert check_symmetry_transitivity(M, trials=20, seed=1234)


def test_symmetry_check_catches_corruption():
    M = build_incidence(3, 2, 1, F2)
    bits = list(M.bits)
    bits[0] ^= 1 << 5  # flip one entry
    bad = IncidenceStructure(
        M.field, M.n, M.k, M.t, M.row_index, M.col_index, tuple(bits), M.row_weight, M.col_weight
    )
    assert not check_symmetry_transitivity(bad, trials=20, seed=1234)


def test_size_cap():
    with pytest.raises(TooLarge):
        build_incidence(4, 2, 1, F2, max_bits=100)


def test_size_cap_charges_100_bits_per_index_entry():
    # 35 x 15 = 525 matrix bits, and 35 + 15 = 50 index entries
    assert build_incidence(4, 2, 1, F2, max_bits=525 + 100 * 50).num_rows == 35
    message = "35 x 15 bits + 100 x (35 + 15) index bits exceeds cap 5524"
    with pytest.raises(TooLarge, match=f"^{re.escape(message)}$"):
        build_incidence(4, 2, 1, F2, max_bits=525 + 100 * 50 - 1)


def test_export_bits():
    M = build_incidence(2, 1, 1, F2)
    assert export_bits_text(M) == "100\n010\n001\n"
    # not square and not symmetric: row b, character a is entry (b, a)
    M = build_incidence(4, 2, 1, F2)
    lines = export_bits_text(M).split("\n")
    assert (len(lines), lines[-1]) == (36, "")
    assert [[int(c) for c in line] for line in lines[:-1]] == [
        [M.entry(b, a) for a in range(15)] for b in range(35)
    ]
