"""Every result record is a frozen value class (errors._value_class): the
dataclass repr, field-wise equality with its own class only, a hash over
the fields, no assignment or deletion, the __post_init__ checks, and
pickling, whether or not its derived fields (errors._Derived) have been
read.  FieldSpec alone compares by identity: make_field is cached, so
there is one per order."""

import ast
import pickle
import re
from pathlib import Path

import pytest

import qdesign
from qdesign.errors import DimensionMismatch, InvalidParameters, _Derived, _partial
from qdesign.gf import SUPPORTED_ORDERS, FieldSpec, MatrixGFq, make_field
from qdesign.grassmann import SubspaceBasis, iter_subspaces, subspace_from_rows
from qdesign.incidence import build_incidence
from qdesign.klp import klp_report
from qdesign.localdecode import (
    c3_bound,
    check_det_bounds,
    decode_certificate,
    lemma2_grid_report,
    solve_coefficients,
)
from qdesign.qcount import check_bounds
from qdesign.search import Timeout, build_cover_instance, search_design
from qdesign.selftest import SelftestReport, SuiteResult
from qdesign.verifier import DesignCandidate, verify_design

F2 = make_field(2)
POINTS = "(Subspace(q=2, n=2, [10]), Subspace(q=2, n=2, [11]), Subspace(q=2, n=2, [01]))"


def _points():
    return DesignCandidate(F2, 2, 1, tuple(iter_subspaces(2, 1, F2)))


# class name: (a small instance, its repr as the dataclass printed it)
CASES = {
    "FieldSpec": (lambda: F2, "FieldSpec(q=2)"),
    "MatrixGFq": (
        lambda: MatrixGFq.from_rows(F2, [(1, 0), (0, 1)]),
        "MatrixGFq(field=FieldSpec(q=2), rows=2, cols=2, entries=(1, 0, 0, 1))",
    ),
    "SubspaceBasis": (lambda: subspace_from_rows(F2, 3, [(1, 1, 0)]), "Subspace(q=2, n=3, [110])"),
    "IncidenceStructure": (
        lambda: build_incidence(2, 1, 1, F2),
        f"IncidenceStructure(field=FieldSpec(q=2), n=2, k=1, t=1, row_index={POINTS}, "
        f"col_index={POINTS}, bits=(1, 2, 4), row_weight=1, col_weight=1)",
    ),
    "KLPReport": (
        lambda: klp_report(2, 4, 2, 1),
        "KLPReport(q=2, n=4, k=2, t=1, constant=1, c1_bound=32768, c2=1, c3_bound=65536, "
        "A_upper=128, B_lower=16, A_exact=15, B_exact=35, "
        "rhs_final=1639477076787798198961217687201047701587230720, feasible=False, "
        "block_budget=79228162514264337593543950336, k_gt_12t=False, k_gt_12t_plus_1=False, "
        "log_reading='bit_length(|A| c2) ** 8')",
    ),
    "DecodeSystem": (
        lambda: solve_coefficients(2, 1, 2),
        "DecodeSystem(q=2, t=1, k=2, D=((2, 1), (0, 3)), m=6, f=(-1, 2))",
    ),
    "CoefficientCertificate": (
        lambda: decode_certificate(next(iter_subspaces(2, 1, F2)), 1),
        "CoefficientCertificate(decoded_column=Subspace(q=2, n=2, [10]), "
        "envelope=Subspace(q=2, n=2, [10,01]), coefficients={Subspace(q=2, n=2, [10]): 1, "
        "Subspace(q=2, n=2, [11]): 0, Subspace(q=2, n=2, [01]): 0}, m=1, l1_norm=1)",
    ),
    "Lemma2GridReport": (
        lambda: lemma2_grid_report(2, 3, 1, 2),
        "Lemma2GridReport(q=2, n=3, t=1, k=2, pair_count=42, extension_count=3, "
        "cells=(Lemma2Cell(l=0, j=0, formula=2, pairs=42), "
        "Lemma2Cell(l=0, j=1, formula=1, pairs=42)), ok=True, mismatch='')",
    ),
    "Lemma2Cell": (
        lambda: lemma2_grid_report(2, 3, 1, 2).cells[0],
        "Lemma2Cell(l=0, j=0, formula=2, pairs=42)",
    ),
    "DetBoundsReport": (
        lambda: check_det_bounds(2, 1, 1),
        "DetBoundsReport(q=2, t=1, k=1, checks=("
        "BoundCheck(label='det_D', lhs=1, rhs=16, ok=True), "
        "BoundCheck(label='det_D0', lhs=0, rhs=16, ok=True), "
        "BoundCheck(label='det_D1', lhs=1, rhs=16, ok=True), "
        "BoundCheck(label='row_maxima_product', lhs=1, rhs=8, ok=True), "
        "BoundCheck(label='diagonals_D0', lhs=0, rhs=2, ok=True), "
        "BoundCheck(label='diagonals_D1', lhs=1, rhs=2, ok=True)))",
    ),
    "BoundCheck": (
        lambda: check_det_bounds(2, 1, 1).checks[0],
        "BoundCheck(label='det_D', lhs=1, rhs=16, ok=True)",
    ),
    "C3Report": (
        lambda: c3_bound(2, 1, 2),
        "C3Report(q=2, t=1, k=2, m=6, l1_norm=10, exact_c3=10, cap=65536, ok=True)",
    ),
    "BinomialBounds": (
        lambda: check_bounds(4, 2, 2), "BinomialBounds(lower=16, value=35, upper=96, ok=True)"
    ),
    "CoverInstance": (
        lambda: build_cover_instance(2, 1, 1, 1, F2),
        "CoverInstance(universe_size=3, covers=((0,), (1,), (2,)), multiplicity=1)",
    ),
    "NotFound": (
        lambda: search_design(2, 3, 2, 1, 1),
        "NotFound(reason='coverage identity has no integer block count')",
    ),
    "Timeout": (
        lambda: Timeout(1.5, 3, 7), "Timeout(elapsed=1.5, best_satisfied=3, universe_size=7)"
    ),
    "DesignCandidate": (
        _points, f"DesignCandidate(field=FieldSpec(q=2), n=2, k=1, blocks={POINTS})"
    ),
    "VerificationReport": (
        lambda: verify_design(_points(), 1),
        "VerificationReport(is_design=True, t=1, lambda_=1, is_simple=True, is_trivial=True, "
        "failing_t_subspace=None, counts_histogram={1: 3})",
    ),
    "SuiteResult": (
        lambda: SuiteResult("s", True, 3, ""), "SuiteResult(name='s', ok=True, checks=3, detail='')"
    ),
    "SelftestReport": (
        lambda: SelftestReport((SuiteResult("s", True, 3, ""),)),
        "SelftestReport(results=(SuiteResult(name='s', ok=True, checks=3, detail=''),))",
    ),
}


# other builders of a CASES value, whose derived fields are unread too
SAME_VALUES = {
    "DesignCandidate": (
        lambda: _partial(DesignCandidate, field=F2, n=2, k=1, _count=3,
                         _entries=b"".join(b.entries for b in _points().blocks)),
    ),
}


def _decorated_classes() -> set[str]:
    """Names of the classes the package decorates with _value_class."""
    names = set()
    for path in Path(qdesign.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "_value_class" for d in node.decorator_list
            ):
                names.add(node.name)
    return names


def test_table_covers_every_value_class():
    assert set(CASES) == _decorated_classes()


@pytest.mark.parametrize("name", CASES)
def test_value_class(name):
    make, text = CASES[name]
    a = make()
    cls = type(a)
    assert cls.__name__ == name
    assert repr(a) == text
    fields = list(cls.__annotations__)
    values = [getattr(a, f) for f in fields]
    b = cls(*values)
    by_name = cls(**dict(zip(fields, values)))
    assert b is not a
    if cls is FieldSpec:
        assert a != b and a != by_name and a == make_field(a.q)
        b = by_name = a
    assert a == b and not a != b
    assert by_name == a
    # equal to its own class only, never to the tuple of its fields
    assert a != tuple(values) and tuple(values) != a
    try:
        hash(a)
    except TypeError:  # a dict field: unhashable, as the dataclass was
        assert any(isinstance(v, dict) for v in values)
    else:
        assert hash(a) == hash(b)
    for attr in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert [getattr(a, f) for f in fields] == values
    c = pickle.loads(pickle.dumps(a))
    assert type(c) is cls and c == a and repr(c) == text
    # each derived field, read or unread, changes nothing of the value:
    # a fresh instance is pickled before anything reads its fields
    derived = [f for f, attr in vars(cls).items() if isinstance(attr, _Derived)]
    if not derived:
        return
    for build in (make, *SAME_VALUES.get(name, ())):
        for field in (None, *derived):
            d = build()
            if field:
                getattr(d, field)
            for e in (pickle.loads(pickle.dumps(d)), d):
                assert type(e) is cls and repr(e) == text
                assert e == a and a == e and hash(e) == hash(a)


def test_field_spec_pickles_to_the_same_object():
    for q in SUPPORTED_ORDERS:
        field = make_field(q)
        assert pickle.loads(pickle.dumps(field)) is field


def test_post_init_checks_still_raise():
    with pytest.raises(DimensionMismatch, match="^entry count does not match shape$"):
        MatrixGFq(F2, 1, 2, (0,))
    with pytest.raises(InvalidParameters, match="^entry out of field range$"):
        MatrixGFq(F2, 1, 1, (2,))
    line = next(iter_subspaces(3, 1, F2))
    with pytest.raises(DimensionMismatch, match="^block lives in the wrong ambient space$"):
        DesignCandidate(F2, 2, 1, (line,))
    with pytest.raises(DimensionMismatch, match="^block of dimension 1, expected 2$"):
        DesignCandidate(F2, 3, 2, (line,))
    for n, k, entries in [
        (3, 2, (0, 1, 1, 0, 1, 0)),  # rows not in echelon form: subspace_rank read 8 of 0..6
        (3, 1, (0, 0, 0)),  # a zero row
        (3, 1, (1, 2, 0)),  # a digit >= q
        (3, 1, [1, 0, 0]),  # a list
        (3, 1, (1, 0)),  # the wrong length
    ]:
        message = f"entries are not the canonical basis of a {k}-subspace of F_2^{n}"
        with pytest.raises(InvalidParameters, match=f"^{re.escape(message)}$"):
            SubspaceBasis(F2, n, k, entries)
    with pytest.raises(DimensionMismatch, match="^need 0 <= k <= n, got k=4, n=3$"):
        SubspaceBasis(F2, 3, 4, (1, 0, 0) * 4)
