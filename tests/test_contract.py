"""The (t, k, n) contract: every function that takes dimensions checks
them through errors.check_chain, refuses an out-of-range call with
DimensionMismatch in one message shape, and accepts the boundary.  The
error contract: the caller's input is refused as InvalidParameters, so
the exception class alone picks the CLI exit code, and caps format
nothing until they refuse."""

import ast
import hashlib
import random
import re
import sys
import time
from pathlib import Path

import pytest

import qdesign
from qdesign.errors import DimensionMismatch, TooLarge
from qdesign.gf import (
    SUPPORTED_ORDERS,
    MatrixGFq,
    identity_matrix,
    make_field,
    mat_inverse,
    mat_mul,
    random_invertible,
    rref,
)
from qdesign.grassmann import (
    apply_map,
    block_echelon_forms,
    complete_basis,
    enumerate_subspaces,
    extensions,
    gl_map_between,
    iter_subspaces,
    subspace_from_rows,
    subspace_rank,
    t_subspace_ranks,
    unrank,
)
from qdesign.incidence import build_incidence, check_symmetry_transitivity
from qdesign.klp import divisibility_witness, klp_report
from qdesign.localdecode import (
    CoefficientCertificate,
    build_D,
    decode_certificate,
    lemma2_count,
    lemma2_grid_report,
    solve_coefficients,
    verify_certificate,
)
from qdesign.qcount import (
    capped,
    check_bounds,
    q_binomial,
    q_binomial_via_sum,
    q_factorial,
)
from qdesign.search import build_cover_instance, search_design
from qdesign.verifier import (
    DesignCandidate,
    lambda_identity_check,
    parse_design_text,
    verify_design,
)

F2 = make_field(2)
# a 2-subspace of F_2^4 and a point outside it
PLANE = subspace_from_rows(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
POINT = subspace_from_rows(F2, 4, [(0, 0, 1, 0)])
POINT_IN = subspace_from_rows(F2, 4, [(1, 0, 0, 0)])


def _points(n):
    return DesignCandidate(F2, n, 1, tuple(iter_subspaces(n, 1, F2)))


# name: (out-of-range call, its message, calls at the boundary)
CASES = {
    "q_factorial": (
        lambda: q_factorial(-1, 2), "need 0 <= n, got n=-1",
        [lambda: q_factorial(0, 2)],
    ),
    "q_binomial_via_sum": (
        lambda: q_binomial_via_sum(4, 5, 2), "need 0 <= k <= n, got k=5, n=4",
        [lambda: q_binomial_via_sum(4, 4, 2), lambda: q_binomial_via_sum(4, 0, 2)],
    ),
    "check_bounds": (
        lambda: check_bounds(4, -1, 2), "need 0 <= k <= n, got k=-1, n=4",
        [lambda: check_bounds(4, 4, 2), lambda: check_bounds(4, 0, 2)],
    ),
    "iter_subspaces": (
        lambda: list(iter_subspaces(3, 4, F2)), "need 0 <= k <= n, got k=4, n=3",
        [lambda: list(iter_subspaces(3, 3, F2)), lambda: list(iter_subspaces(3, 0, F2))],
    ),
    "unrank": (
        lambda: unrank(3, 4, F2, 0), "need 0 <= k <= n, got k=4, n=3",
        [lambda: unrank(3, 3, F2, 0), lambda: unrank(3, 0, F2, 0)],
    ),
    "block_echelon_forms": (
        lambda: block_echelon_forms(PLANE, 3), "need 0 <= t <= k, got t=3, k=2",
        [lambda: block_echelon_forms(PLANE, 2), lambda: block_echelon_forms(PLANE, 0)],
    ),
    "t_subspace_ranks": (
        lambda: t_subspace_ranks(PLANE, 3), "need 0 <= t <= k, got t=3, k=2",
        [lambda: t_subspace_ranks(PLANE, 2), lambda: t_subspace_ranks(PLANE, 0)],
    ),
    "extensions": (
        lambda: extensions(PLANE, 1), "need 0 <= t <= k <= n, got t=2, k=1, n=4",
        [lambda: extensions(PLANE, 2), lambda: extensions(PLANE, 4)],
    ),
    "build_incidence": (
        lambda: build_incidence(3, 2, 3, F2), "need 0 <= t <= k <= n, got t=3, k=2, n=3",
        [lambda: build_incidence(3, 3, 3, F2), lambda: build_incidence(3, 2, 0, F2)],
    ),
    "verify_design": (
        lambda: verify_design(_points(3), 2), "need 0 <= t <= k <= n, got t=2, k=1, n=3",
        [lambda: verify_design(_points(3), 1), lambda: verify_design(_points(3), 0)],
    ),
    "verify_design k > n": (
        lambda: verify_design(DesignCandidate(F2, 3, 4, ()), 1),
        "need 0 <= t <= k <= n, got t=1, k=4, n=3",
        [lambda: verify_design(DesignCandidate(F2, 3, 3, ()), 3)],
    ),
    "lambda_identity_check": (
        lambda: lambda_identity_check(3, 4, 1, 2, 1),
        "need 0 <= t <= k <= n, got t=1, k=4, n=3",
        [lambda: lambda_identity_check(3, 3, 3, 2, 1),
         lambda: lambda_identity_check(3, 1, 0, 2, 7)],
    ),
    "design file header": (
        lambda: parse_design_text("2 3 4\n"), "need 0 <= k <= n, got k=4, n=3",
        [lambda: parse_design_text("2 3 3\n\n100\n010\n001\n"),
         lambda: parse_design_text("2 3 0\n")],
    ),
    "build_D": (
        lambda: build_D(2, 0, 2), "need 1 <= t <= k, got t=0, k=2",
        [lambda: build_D(2, 2, 2), lambda: build_D(2, 1, 2)],
    ),
    "lemma2_count": (
        lambda: lemma2_count(POINT, POINT_IN, 5, 0),
        "need 0 <= l <= j <= t <= k <= n, got l=0, j=0, t=1, k=5, n=4",
        [lambda: lemma2_count(POINT, POINT_IN, 4, 1),
         lambda: lemma2_count(POINT, POINT_IN, 1, 0)],
    ),
    "lemma2_grid_report": (
        lambda: lemma2_grid_report(2, 3, 0, 1), "need 1 <= t <= k <= n, got t=0, k=1, n=3",
        [lambda: lemma2_grid_report(2, 3, 1, 1), lambda: lemma2_grid_report(2, 3, 2, 3)],
    ),
    "klp_report": (
        lambda: klp_report(2, 5, 6, 1), "need 1 <= t <= k <= n, got t=1, k=6, n=5",
        [lambda: klp_report(2, 3, 3, 3), lambda: klp_report(2, 3, 1, 1)],
    ),
    "divisibility_witness": (
        lambda: divisibility_witness(2, 5, 3, 0), "need 1 <= t <= k <= n, got t=0, k=3, n=5",
        [lambda: divisibility_witness(2, 3, 3, 3), lambda: divisibility_witness(2, 64, 1, 1)],
    ),
    "random_invertible": (
        lambda: random_invertible(F2, 0, seed=1), "need 1 <= n, got n=0",
        [lambda: random_invertible(F2, 1, seed=1)],
    ),
    "build_cover_instance": (
        lambda: build_cover_instance(3, 2, 4, 1, F2), "need 0 <= t <= k <= n, got t=4, k=2, n=3",
        [lambda: build_cover_instance(2, 2, 2, 1, F2), lambda: build_cover_instance(2, 1, 0, 1, F2)],
    ),
    "search_design": (
        lambda: search_design(2, 4, 2, 3, 1), "need 0 <= t <= k <= n, got t=3, k=2, n=4",
        [lambda: search_design(2, 3, 2, 2, 1), lambda: search_design(2, 3, 3, 1, 1),
         lambda: search_design(2, 3, 1, 0, 7)],
    ),
    "search_design lambda": (
        lambda: search_design(2, 4, 2, 1, -1), "need 0 <= lambda, got lambda=-1",
        [lambda: search_design(2, 3, 1, 1, 0)],
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_out_of_range_raises_one_shape_and_boundary_passes(name):
    bad, message, boundary = CASES[name]
    with pytest.raises(DimensionMismatch) as info:
        bad()
    assert str(info.value) == message
    for call in boundary:
        call()


def test_divisibility_witness_needs_exact_counts():
    with pytest.raises(DimensionMismatch, match="need n <= 64 for the exact witness, got n=65"):
        divisibility_witness(2, 65, 3, 1)


def test_capped_binomial_messages():
    assert capped(2, [(6, 3)], 1395) == [q_binomial(6, 3, 2)] == [1395]
    cases = (
        (6, 3, 2, 1394, "1395"),
        # the exact count, abbreviated as in every cap message
        (201, 1, 2, 10, "more than 2^200"),
        # past 200 bits of lower bound the refusal prints q^(k(n-k)) itself
        (202, 1, 2, 10, "more than 2^201"),
        (300, 150, 3, 10, "more than 3^22500"),
        (5000, 2500, 16, 10, "more than 16^6250000"),
    )
    for n, k, q, cap, text in cases:
        with pytest.raises(TooLarge) as info:
            capped(q, [(n, k)], cap)
        assert str(info.value) == f"[{n} {k}]_{q} = {text} exceeds cap {cap}"
    # a product prints each factor, and the total, by the same rule
    products = (
        ([(6, 3), (6, 1)], 10, "1395 x 63 = 87885"),
        ([(201, 1), (2000, 0)], 10, "more than 2^200 x 1 = more than 2^200"),
        ([(2000, 1000), (2000, 0)], 10, "more than 2^1000000 x 1 = more than 2^1000000"),
        ([(1000000, 1), (1000000, 1)], 10, "more than 2^999999 x more than 2^999999 = "
         "more than 2^1999998"),
    )
    for factors, cap, text in products:
        with pytest.raises(TooLarge) as info:
            capped(2, factors, cap, "{0} x {1} = {total}")
        assert str(info.value) == text
    # extensions of a t-subspace to k-subspaces number [n-t k-t]_q
    with pytest.raises(TooLarge) as info:
        extensions(PLANE, 3, max_count=2)
    assert str(info.value) == "[2 1]_2 = 3 exceeds cap 2"
    assert len(extensions(PLANE, 3, max_count=3)) == 3


def test_every_cap_refuses_from_the_lower_bound(monkeypatch):
    # at (n, k) = (2000, 1000) the exact [n k]_2 takes seconds; every cap
    # refuses from 2^(k(n-k)) and counts nothing above 4^m cap, m the
    # number of Gaussian binomials the cap multiplies
    counts = []

    def recording(n, k, q):
        counts.append(original(n, k, q))
        return counts[-1]

    original = q_binomial
    q_binomial.cache_clear()
    for name in ("qcount", "incidence", "localdecode", "search", "verifier"):
        monkeypatch.setattr(getattr(qdesign, name), "q_binomial", recording)
    line = next(iter_subspaces(2000, 1, F2))
    cert = CoefficientCertificate(line, line, {}, 1, 0)
    entries = (
        (lambda: enumerate_subspaces(2000, 1000, F2), 10**7, 1),
        (lambda: extensions(line, 1000), 10**7, 1),
        (lambda: verify_design(DesignCandidate(F2, 2000, 1000, ()), 1000), 10**7, 1),
        (lambda: decode_certificate(line, 1000), 10**6, 1),
        (lambda: verify_certificate(cert), 10**6, 1),
        (lambda: build_incidence(2000, 1000, 1, F2), 10**9, 2),
        (lambda: lemma2_grid_report(2, 2000, 1, 1000), 10**7, 2),
        (lambda: build_cover_instance(2000, 1000, 1, 1, F2), 10**4, 1),
        (lambda: search_design(2, 2000, 1000, 1, 1), 10**4, 1),
        # the universe [2000 1]_2 passes a cap of 2^2000 and is counted;
        # the candidate cap then refuses
        (lambda: build_cover_instance(2000, 1000, 1, 1, F2, max_universe=2**2000), 2**2000, 1),
        (lambda: search_design(2, 2000, 1000, 1, 1, max_universe=2**2000), 2**2000, 1),
    )
    for call, cap, m in entries:
        counts.clear()
        with pytest.raises(TooLarge):
            call()
        assert all(c < 4**m * cap for c in counts)
    # the decoding-system cap decides from q^((k-t) t (t+1)) <= m before D
    # is built, so it counts nothing
    counts.clear()
    with pytest.raises(TooLarge, match="^decoding system for q=2, t="):
        solve_coefficients(2, 10, 1000)
    assert counts == []
    # [n t]_q < 2 exactly when t = n, so that refusal counts nothing
    counts.clear()
    with pytest.raises(DimensionMismatch, match="^need at least two distinct t-subspaces$"):
        lemma2_grid_report(2, 2000, 2000, 2000)
    assert counts == []
    # one block is fewer than 2^(k(n-k)) <= [n k]_q, so it is not the
    # trivial design, and only [2000 0]_2 and [1000 0]_2 are counted
    block = next(iter_subspaces(2000, 1000, F2))
    assert verify_design(DesignCandidate(F2, 2000, 1000, (block,)), 0).is_trivial is False
    assert counts == [1, 1]


def test_huge_caps_need_no_decimal_string():
    # CPython refuses int-to-decimal conversions past 4,300 digits by
    # default; a cap that passes is never printed, and one that refuses
    # prints as number_text
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert len(search_design(2, 4, 2, 1, 1, max_universe=2**20000).blocks) == 5
        assert build_incidence(4, 2, 1, F2, max_bits=2**20000).num_rows == 35
        with pytest.raises(TooLarge) as info:
            capped(2, [(2000, 1000)], 2**999_999)
    finally:
        sys.set_int_max_str_digits(saved)
    assert str(info.value) == (
        "[2000 1000]_2 = more than 2^1000000 exceeds cap more than 2^999998"
    )


def _value_error_raises(path: Path) -> list[str]:
    """module.function for each `raise ValueError` in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "ValueError":
            owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            owner = max(owners, key=lambda f: f.lineno).name if owners else "<module>"
            sites.append(f"{path.stem}.{owner}")
    return sites


def test_only_internal_sites_raise_bare_value_error():
    # input is refused as InvalidParameters (exit 2); a bare ValueError
    # is an internal invariant and exits 4
    src = Path(qdesign.__file__).parent
    sites = [s for path in sorted(src.glob("*.py")) for s in _value_error_raises(path)]
    assert sites == ["grassmann.subspace_dim_from_count"]
    main = next(
        f for f in ast.walk(ast.parse((src / "cli.py").read_text(encoding="utf-8")))
        if isinstance(f, ast.FunctionDef) and f.name == "main"
    )
    handlers = [ast.unparse(h.type) for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert handlers == ["BrokenPipeError", "ResourceLimitError", "InvalidParameters", "Exception"]


# the public doors that check what enters: SubspaceBasis(...) by an
# elimination, MatrixGFq(...) and from_rows each entry, DesignCandidate(...)
# each block's space and dimension.  selftest, an oracle, passes the
# library's matrices and designs through the last three on purpose, so a
# malformed output raises there
CHECKED_DOORS = ("SubspaceBasis", "MatrixGFq", "MatrixGFq.from_rows", "DesignCandidate")


def test_library_builds_no_checked_subspace():
    # the library builds the values it made valid itself through each
    # class's _trusted, so the checks stay at the doors and off its hot paths
    src = Path(qdesign.__file__).parent
    calls = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and any(f".{ast.unparse(node.func)}".endswith(f".{door}")
                for door in CHECKED_DOORS[: 1 if path.stem == "selftest" else None])
    ]
    assert calls == []


def test_library_built_values_are_pinned():
    # sha256 of what gf and grassmann build for themselves on seeded
    # input, for every field order with n <= 4, and of the ranks of
    # subspaces mapped by apply_map; captured while every such value
    # still ran the public checks
    h = hashlib.sha256()
    for q in SUPPORTED_ORDERS:
        f, rng = make_field(q), random.Random(q)

        def rows(count, cols):
            return MatrixGFq.from_rows(f, [[rng.randrange(q) for _ in range(cols)]
                                           for _ in range(count)])

        for n in range(1, 5):
            for seed in range(3):
                M = rows(rng.randrange(1, 5), n)
                R, rk = rref(M)
                L = random_invertible(f, n, seed)
                k = rng.randrange(n + 1)
                S1, S2 = (unrank(n, k, f, rng.randrange(q_binomial(n, k, q))) for _ in range(2))
                built = [R, mat_inverse(L), mat_mul(L, rows(n, 3)),
                         identity_matrix(f, n), complete_basis(S1), gl_map_between(S1, S2)]
                shapes = [(X.rows, X.cols, X.entries) for X in built]
                h.update(repr((q, n, seed, rk, shapes)).encode())
    for q, n, k in ((2, 4, 2), (2, 5, 2), (3, 3, 1), (3, 4, 2), (4, 3, 2), (5, 3, 1)):
        f = make_field(q)
        L = random_invertible(f, n, 7)
        h.update(repr([subspace_rank(apply_map(L, S)) for S in iter_subspaces(n, k, f)]).encode())
    assert h.hexdigest() == "a8d4a80a907b51b815d710127af6632d1ad2e550c625a61022fb214c8ea579bc"
    # the incidence_symmetry selftest's cases, at its seed and one more
    f2 = make_field(2)
    verdicts = [check_symmetry_transitivity(build_incidence(n, k, t, f2), 20, seed)
                for n, k, t in ((3, 2, 1), (4, 2, 1), (5, 3, 2)) for seed in (20240 + n, 7)]
    assert verdicts == [True] * 6


# every subcommand under hostile values, through cli.main in one process;
# {q}, {n}, {k} take each of DIMENSIONS, {cap} each of CAPS, {file} each
# design file of _design_files.  Every search passes --timeout; exhaustive
# search without a node budget has no other bound.
DIMENSION_COMMANDS = (
    "qbinom --q {q} --n {n} --k {k}",
    "qbinom --q {q} --n {n} --k {k} --bounds",
    "qbinom --q {q} --n {n} --k {k} --via-sum --json",
    "enumerate --q {q} --n {n} --k {k}",
    "enumerate --q {q} --n {n} --k {k} --count-only --format json",
    "incidence --q {q} --n {n} --k {k} --t 1 --weights-only",
    "decode --q {q} --t 1 --k {k}",
    "decode --q {q} --t 1 --k {k} --certify --n {n} --json",
    "lemma2-check --q {q} --n {n} --t 1 --k {k}",
    "klp-report --q {q} --n {n} --k {k} --t 1 --json",
    "search --q {q} --n {n} --k {k} --t 1 --lambda 1 --timeout 0.5",
    "search --q {q} --n {n} --k {k} --t 1 --lambda 1 --method greedy --timeout 0.5 --json",
)
DIMENSIONS = (
    (1, 4, 2), (0, 4, 2), (-2, 4, 2), (6, 4, 2),  # q below 2 or unsupported
    (2, 4, 5),  # k > n
    (2, -1, 1), (2, 0, 2), (2, 10**6, 2),
)
CAP_COMMANDS = (
    "qbinom --q 2 --n 6 --k 3 --via-sum --max-terms {cap}",
    "enumerate --q 2 --n 4 --k 2 --max-subspaces {cap}",
    "incidence --q 2 --n 4 --k 2 --t 1 --max-bits {cap}",
    "verify --design {points} --t 1 --max-columns {cap}",
    "decode --q 2 --t 1 --k 2 --certify --n 4 --max-certificate {cap}",
    "lemma2-check --q 2 --n 4 --t 1 --k 2 --max-pairs {cap}",
    "klp-report --q 2 --n 20 --k 5 --t 1 --max-bits {cap}",
    "search --q 2 --n 4 --k 2 --t 1 --lambda 1 --timeout 0.5 --max-universe {cap}",
    "search --q 2 --n 4 --k 2 --t 1 --lambda 1 --timeout 0.5 --max-candidates {cap}",
)
CAPS = ("0", "-1", "1" + "0" * 399)
# [10 5]_2 = 109,221,651 blocks pass the caller's caps; the incidence
# index charge refuses them, and the search build runs until --timeout
BUILD_COMMANDS = (
    "incidence --q 2 --n 10 --k 5 --t 0",
    "search --q 2 --n 10 --k 5 --t 1 --lambda 1 --max-candidates 1000000000 --timeout 1",
)
DESIGN_COMMANDS = ("verify --design {file} --t 1", "verify --design {file} --t 1 --json")
SELFTEST_COMMANDS = (
    "selftest --suite nope",
    "selftest --workers 0 --suite qcount_pascal",
    "selftest --workers -1",
    "selftest --suite qcount_pascal --json",
)


def _design_files(tmp_path: Path) -> list[Path]:
    contents = {
        "empty.txt": b"",
        "short_header.txt": b"2 3\n",
        "float_q.json": b'{"q": 2.0, "n": 3, "k": 1, "blocks": [["100"]]}\n',
        "digit.txt": b"2 3 1\n\n102\n",
        "dependent.txt": b"2 3 2\n\n110\n110\n",
        "nested.json": b'{"q": ' * 5000 + b"2" + b"}" * 5000,
        "undecodable.txt": b"\xff\xfe2 3 1\n",
    }
    files = []
    for name, data in contents.items():
        (tmp_path / name).write_bytes(data)
        files.append(tmp_path / name)
    (tmp_path / "a_directory").mkdir()
    return files + [tmp_path / "a_directory"]


def test_every_command_ends_in_a_documented_exit(tmp_path, capsys):
    from qdesign import cli

    points = tmp_path / "points.txt"
    points.write_text("2 3 1\n\n" + "\n\n".join(f"{v:03b}" for v in range(1, 8)) + "\n")
    argvs = [c.format(q=q, n=n, k=k) for c in DIMENSION_COMMANDS for q, n, k in DIMENSIONS]
    argvs += [c.format(cap=cap, points=points) for c in CAP_COMMANDS for cap in CAPS]
    argvs += BUILD_COMMANDS
    files = _design_files(tmp_path)
    argvs += [c.format(file=f) for c in DESIGN_COMMANDS for f in files]
    argvs += SELFTEST_COMMANDS
    problems = []
    saved = sys.get_int_max_str_digits()
    table_start = time.monotonic()
    try:
        for argv in argvs:
            start = time.monotonic()
            code = cli.main(argv.split())
            elapsed = time.monotonic() - start
            out, err = capsys.readouterr()
            if code not in (0, 1, 2, 3):
                problems.append(f"exit {code}: {argv}: {err!r}")
            elif code == 3 and argv.startswith("search ") and err == "":
                # a search timeout reports its progress on stdout
                if not re.fullmatch(r"timeout: best \d+/\d+ columns satisfied\n", out):
                    problems.append(f"exit 3 without a timeout line: {argv}: {out!r}")
            elif code in (2, 3) and (err.count("\n") != 1 or not err.endswith("\n")):
                problems.append(f"exit {code} without one stderr line: {argv}: {err!r}")
            elif code == 2 and (got := re.search(r"\bgot (.*)", err)):
                # a refusal names the caller's values by the flags that set them
                for name, value in re.findall(r"(\w+)=(\S+?)(?=,|$)", got.group(1)):
                    if f" --{name} {value} " not in f" {argv} ":
                        problems.append(f"{name}={value} is no flag of: {argv}: {err!r}")
            if elapsed > 2.0:
                problems.append(f"{elapsed:.1f} s: {argv}")
        total = time.monotonic() - table_start
    finally:
        sys.set_int_max_str_digits(saved)
    assert problems == []
    assert total < 10.0
