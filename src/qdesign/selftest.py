"""Self-contained invariant suites covering every module at desk scale.

Each suite is a pure function returning the number of checks it ran,
raising SelfTestFailure with a deterministic message on the first
violation.  The runner can shard suites across worker processes; the
report is byte-identical for any worker count because suites are
independent and results are emitted in registry order.
"""

from __future__ import annotations

import os
import random
import signal
from fractions import Fraction

from .errors import InvalidParameters, _value_class
from .gf import (
    SUPPORTED_ORDERS,
    MatrixGFq,
    identity_matrix,
    make_field,
    random_invertible,
    rank,
    rank_of_rows,
    rref,
)
from .grassmann import (
    apply_map,
    contains,
    enumerate_subspaces,
    extensions,
    gl_map_between,
    intersect_dim,
    iter_subspaces,
    subspace_dim_from_count,
    subspace_rank,
)
from .incidence import (
    average_row,
    build_incidence,
    check_constant_vector_property,
    check_symmetry_transitivity,
)
from .klp import divisibility_witness, klp_report
from .localdecode import (
    build_D,
    c3_bound,
    check_cond2,
    check_det_bounds,
    decode_certificate,
    lemma2_grid_report,
    solve_coefficients,
    verify_certificate,
)
from .qcount import check_bounds, q_binomial, q_binomial_via_sum
from .search import NotFound, search_design
from .verifier import DesignCandidate, lambda_identity_check, verify_design


class SelfTestFailure(AssertionError):
    pass


def _fail(msg: str) -> None:
    raise SelfTestFailure(msg)


# ---------------------------------------------------------------------------
# gf


def gf_field_axioms() -> int:
    checks = 0
    for q in SUPPORTED_ORDERS:
        f = make_field(q)
        els = range(q)
        for a in els:
            if f.add(a, 0) != a or f.mul(a, 1) != a or f.mul(a, 0) != 0:
                _fail(f"identity axiom fails in F_{q} at {a}")
            if a and f.mul(a, f.inv(a)) != 1:
                _fail(f"inverse axiom fails in F_{q} at {a}")
            for b in els:
                if f.add(a, b) != f.add(b, a) or f.mul(a, b) != f.mul(b, a):
                    _fail(f"commutativity fails in F_{q} at ({a},{b})")
                for c in els:
                    if f.add(f.add(a, b), c) != f.add(a, f.add(b, c)):
                        _fail(f"additive associativity fails in F_{q}")
                    if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
                        _fail(f"multiplicative associativity fails in F_{q}")
                    if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                        _fail(f"distributivity fails in F_{q} at ({a},{b},{c})")
                    checks += 3
    return checks


def gf_rref_properties() -> int:
    checks = 0
    for q in (2, 3, 4, 5):
        f = make_field(q)
        rng = random.Random(1000 + q)
        for trial in range(25):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 6)
            entries = tuple(rng.randrange(q) for _ in range(rows * cols))
            M = MatrixGFq(field=f, rows=rows, cols=cols, entries=entries)
            R, rk = rref(M)
            R2, rk2 = rref(R)
            if R2 != R or rk2 != rk:
                _fail(f"rref not idempotent for q={q} trial {trial}")
            # row space preserved both ways
            for row in M.row_list():
                if rank_of_rows(f, R.row_list()[:rk] + [row], cols) != rk:
                    _fail(f"row space not preserved for q={q} trial {trial}")
            for row in R.row_list()[:rk]:
                if rank_of_rows(f, M.row_list() + [row], cols) != rank(M):
                    _fail(f"rref row outside original span for q={q} trial {trial}")
            checks += 2
    for seed in range(100):
        f = make_field(2)
        M = random_invertible(f, 3, seed)
        if rank(M) != 3:
            _fail(f"random_invertible returned singular matrix at seed {seed}")
        R, rk = rref(M)
        if rk != 3 or R != identity_matrix(f, 3):
            _fail(f"rref of an invertible matrix must be the identity (seed {seed})")
        checks += 2
    if random_invertible(make_field(2), 1, 7).entries != (1,):
        _fail("only invertible 1x1 over F_2 is (1)")
    checks += 1
    return checks


# ---------------------------------------------------------------------------
# qcount


def qcount_symmetry() -> int:
    checks = 0
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                if q_binomial(n, k, q) != q_binomial(n, n - k, q):
                    _fail(f"symmetry fails at ({n},{k},{q})")
                checks += 1
    return checks


def qcount_sum_identity() -> int:
    checks = 0
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                if q_binomial_via_sum(n, k, q) != q_binomial(n, k, q):
                    _fail(f"sum identity fails at ({n},{k},{q})")
                checks += 1
    return checks


def qcount_enumeration() -> int:
    checks = 0
    grids = [(2, 6), (3, 5), (4, 4), (5, 4)]
    for q, nmax in grids:
        f = make_field(q)
        for n in range(nmax + 1):
            for k in range(n + 1):
                count = sum(1 for _ in iter_subspaces(n, k, f))
                if count != q_binomial(n, k, q):
                    _fail(f"enumeration count fails at ({n},{k},{q})")
                checks += 1
    return checks


def qcount_term_bounds() -> int:
    checks = 0
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                if not check_bounds(n, k, q).ok:
                    _fail(f"term bounds fail at ({n},{k},{q})")
                checks += 1
    return checks


def qcount_pascal() -> int:
    checks = 0
    for q in (2, 3, 4, 5):
        for n in range(1, 13):
            for k in range(1, n + 1):
                lhs = q_binomial(n, k, q)
                rhs = q_binomial(n - 1, k - 1, q) + q**k * q_binomial(n - 1, k, q)
                if lhs != rhs:
                    _fail(f"Pascal recurrence fails at ({n},{k},{q})")
                checks += 1
    return checks


# ---------------------------------------------------------------------------
# grassmann


def grassmann_canonical_order() -> int:
    checks = 0
    for q, nmax in ((2, 5), (3, 4)):
        f = make_field(q)
        for n in range(nmax + 1):
            for k in range(n + 1):
                # the documented order apart from subspace_rank: within one
                # pivot set only the free entries vary
                keys = [(s.pivot_columns, s.entries) for s in iter_subspaces(n, k, f)]
                if keys != sorted(keys):
                    _fail(f"enumeration not increasing at ({n},{k},{q})")
                if len(set(keys)) != len(keys):
                    _fail(f"duplicate subspaces at ({n},{k},{q})")
                checks += 2
    return checks


def grassmann_extension_counts() -> int:
    checks = 0
    for q in (2, 3):
        f = make_field(q)
        for n in range(1, 6):
            for tt in range(n + 1):
                for V in iter_subspaces(n, tt, f):
                    for k in range(tt, n + 1):
                        ext = extensions(V, k)
                        if len(ext) != q_binomial(n - tt, k - tt, q):
                            _fail(f"extension count fails at n={n},dimV={tt},k={k},q={q}")
                        checks += 1
                    if not all(contains(U, V) for U in extensions(V, min(n, tt + 1))):
                        _fail(f"extension does not contain V at n={n},dimV={tt},q={q}")
    return checks


def grassmann_dimension_formula() -> int:
    checks = 0
    for q, n in ((2, 4), (2, 5), (3, 4)):
        f = make_field(q)
        rng = random.Random(77 * q + n)
        subs = enumerate_subspaces(n, 2, f) + enumerate_subspaces(n, 3, f)
        for _ in range(60):
            U = subs[rng.randrange(len(subs))]
            V = subs[rng.randrange(len(subs))]
            d = intersect_dim(U, V)
            rk = rank_of_rows(f, U.rows() + V.rows(), n)
            if d + rk != U.k + V.k:
                _fail(f"dimension formula fails for q={q}, n={n}")
            # vector-set oracle
            inter = U.vector_mask & V.vector_mask
            if subspace_dim_from_count(q, inter.bit_count()) != d:
                _fail(f"vector-set intersection disagrees for q={q}, n={n}")
            checks += 2
    return checks


def grassmann_gl_action() -> int:
    checks = 0
    for q, n, k in ((2, 3, 1), (2, 4, 2), (3, 3, 2)):
        f = make_field(q)
        subs = enumerate_subspaces(n, k, f)
        L = random_invertible(f, n, seed=5)
        images = [apply_map(L, s) for s in subs]
        if sorted(subspace_rank(im) for im in images) != list(range(len(subs))):
            _fail(f"GL image is not a permutation at (q={q},n={n},k={k})")
        checks += 1
        rng = random.Random(9 * q + n)
        lines = enumerate_subspaces(n, 1, f)
        for _ in range(40):
            U = subs[rng.randrange(len(subs))]
            V = lines[rng.randrange(len(lines))]
            if contains(U, V) != contains(apply_map(L, U), apply_map(L, V)):
                _fail(f"containment not preserved at (q={q},n={n},k={k})")
            checks += 1
    # constructive transitivity, all pairs, n <= 4 over F_2
    f2 = make_field(2)
    for n in range(1, 5):
        for k in range(n + 1):
            subs = enumerate_subspaces(n, k, f2)
            for U1 in subs:
                for U2 in subs:
                    if apply_map(gl_map_between(U1, U2), U1) != U2:
                        _fail(f"transitivity map fails at n={n},k={k}")
                    checks += 1
    return checks


# ---------------------------------------------------------------------------
# incidence


def incidence_average_identity() -> int:
    checks = 0
    for q in (2, 3):
        for n in range(1, 9):
            for k in range(n + 1):
                for t in range(k + 1):
                    lhs = Fraction(q_binomial(n - t, k - t, q), q_binomial(n, k, q))
                    rhs = Fraction(q_binomial(k, t, q), q_binomial(n, t, q))
                    if lhs != rhs:
                        _fail(f"average-row identity fails at ({n},{k},{t},{q})")
                    checks += 1
    return checks


def incidence_weights() -> int:
    checks = 0
    for q, nmax in ((2, 6), (3, 4)):
        f = make_field(q)
        for n in range(1, nmax + 1):
            for k in range(1, n + 1):
                for t in range(1, k + 1):
                    if q_binomial(n, k, q) * q_binomial(n, t, q) > 10**7:
                        continue
                    M = build_incidence(n, k, t, f)  # asserts weights internally
                    if not check_constant_vector_property(M):
                        _fail(f"constant vector fails at ({n},{k},{t},{q})")
                    if M.total_ones() != M.num_rows * M.row_weight:
                        _fail(f"double counting (rows) fails at ({n},{k},{t},{q})")
                    if M.total_ones() != M.num_cols * M.col_weight:
                        _fail(f"double counting (cols) fails at ({n},{k},{t},{q})")
                    average_row(M)  # asserts both closed forms agree
                    checks += 4
    return checks


def incidence_symmetry() -> int:
    checks = 0
    f2 = make_field(2)
    for n, k, t in ((3, 2, 1), (4, 2, 1), (5, 3, 2)):
        M = build_incidence(n, k, t, f2)
        if not check_symmetry_transitivity(M, trials=20, seed=20240 + n):
            _fail(f"symmetry transitivity fails at ({n},{k},{t})")
        checks += 1
    return checks


# ---------------------------------------------------------------------------
# verifier


def verifier_trivial_designs() -> int:
    checks = 0
    for q in (2, 3):
        f = make_field(q)
        for n in range(1, 6):
            for k in range(1, n + 1):
                blocks = tuple(enumerate_subspaces(n, k, f))
                cand = DesignCandidate(field=f, n=n, k=k, blocks=blocks)
                for t in range(k + 1):
                    rep = verify_design(cand, t)
                    expect = q_binomial(n - t, k - t, q)
                    if not (rep.is_design and rep.is_trivial and rep.lambda_ == expect):
                        _fail(f"trivial design fails at ({n},{k},{t},{q})")
                    checks += 1
    return checks


def verifier_union_complement() -> int:
    f2 = make_field(2)
    spread = search_design(2, 4, 2, 1, 1)
    if isinstance(spread, NotFound):
        _fail("expected spread of F_2^4 to exist")
    all_blocks = enumerate_subspaces(4, 2, f2)
    spread_set = set(spread.blocks)
    complement = tuple(b for b in all_blocks if b not in spread_set)
    rep_c = verify_design(DesignCandidate(field=f2, n=4, k=2, blocks=complement), 1)
    if not (rep_c.is_design and rep_c.lambda_ == 6 and rep_c.is_simple):
        _fail("complement of a spread must be a lambda=6 design")
    union = spread.blocks + complement
    rep_u = verify_design(DesignCandidate(field=f2, n=4, k=2, blocks=union), 1)
    if not (rep_u.is_design and rep_u.lambda_ == 7 and rep_u.is_trivial):
        _fail("disjoint union must add lambda values")
    return 2


def verifier_gl_invariance() -> int:
    f2 = make_field(2)
    spread = search_design(2, 4, 2, 1, 1)
    checks = 0
    for seed in range(5):
        L = random_invertible(f2, 4, seed)
        mapped = tuple(apply_map(L, b) for b in spread.blocks)
        rep = verify_design(DesignCandidate(field=f2, n=4, k=2, blocks=mapped), 1)
        if not (rep.is_design and rep.lambda_ == 1 and rep.is_simple):
            _fail(f"GL image of a spread is not a spread (seed {seed})")
        checks += 1
    return checks


# ---------------------------------------------------------------------------
# localdecode


def decode_systems() -> int:
    checks = 0
    for q in (2, 3):
        for t in (1, 2, 3):
            for k in range(t + 1, t + 5):
                # solve_coefficients asserts D f = (0,..,0,m), the top
                # coefficient identity, and both determinant routes
                system = solve_coefficients(q, t, k)
                if system.m <= 0:
                    _fail(f"m must be positive at ({q},{t},{k})")
                if not check_cond2(q, t, k):
                    _fail(f"homogeneous rows do not vanish at ({q},{t},{k})")
                checks += 2
    return checks


def decode_det_bounds() -> int:
    checks = 0
    for q in (2, 3):
        for t in (1, 2, 3, 4):
            for k in range(t, 9):
                rep = check_det_bounds(q, t, k)
                if not rep.ok:
                    bad = next(c for c in rep.checks if not c.ok)
                    _fail(f"bound {bad.label} fails at ({q},{t},{k}): {bad.lhs} > {bad.rhs}")
                checks += len(rep.checks)
    return checks


def _lemma2_suite(q: int, n_values, t_max: int, k_max: int) -> int:
    checks = 0
    for n in n_values:
        for t in range(1, min(t_max, n - 1) + 1):
            for k in range(t, min(k_max, n) + 1):
                rep = lemma2_grid_report(q, n, t, k)
                if not rep.ok:
                    _fail(
                        f"intersection count mismatch at (q={q},n={n},t={t},k={k}): "
                        f"{rep.mismatch}"
                    )
                # in F_q^(t+k) the checked cells are D's rows l < t
                if n == t + k:
                    D = build_D(q, t, k)
                    if any(D[c.l][c.j] != c.formula for c in rep.cells):
                        _fail(f"decoding matrix is not the lemma-2 count at (q={q},t={t},k={k})")
                checks += rep.pair_count
    return checks


def lemma2_q2_n_le4() -> int:
    return _lemma2_suite(2, (2, 3, 4), t_max=2, k_max=4)


def lemma2_q2_n5() -> int:
    return _lemma2_suite(2, (5,), t_max=2, k_max=4)


def lemma2_q2_n6() -> int:
    return _lemma2_suite(2, (6,), t_max=2, k_max=4)


def lemma2_q3() -> int:
    return _lemma2_suite(3, (2, 3, 4), t_max=2, k_max=4)


def decode_certificates() -> int:
    checks = 0
    f2 = make_field(2)
    system = solve_coefficients(2, 1, 2)
    if system.D != ((2, 1), (0, 3)) or system.m != 6 or system.f != (-1, 2):
        _fail("worked decode system (q=2,t=1,k=2) does not match")
    checks += 1
    for t, k, n in ((1, 2, 3), (1, 2, 4), (2, 3, 5)):
        V = next(iter_subspaces(n, t, f2))
        cert = decode_certificate(V, k)
        if not verify_certificate(cert):
            _fail(f"certificate identity fails at (t={t},k={k},n={n})")
        checks += 1
    return checks


def decode_c3() -> int:
    checks = 0
    rep = c3_bound(2, 1, 2)
    if (rep.l1_norm, rep.exact_c3, rep.ok) != (10, 10, True):
        _fail(f"worked c3 values wrong: {rep}")
    checks += 1
    for q, t, k in ((2, 2, 3), (3, 1, 3), (2, 1, 3)):
        rep = c3_bound(q, t, k)
        if not rep.ok:
            _fail(f"c3 exceeds its cap at ({q},{t},{k})")
        checks += 1
    return checks


# ---------------------------------------------------------------------------
# klp


def klp_bound_consistency() -> int:
    checks = 0
    for q in (2, 3):
        for t in (1, 2):
            for k in range(t, 6):
                for n in range(k, 11):
                    rep = klp_report(q, n, k, t)
                    if rep.c2 != 1:
                        _fail("c2 must be 1")
                    if rep.A_exact is None or rep.B_exact is None:
                        _fail("exact counts must be present for n <= 64")
                    if rep.A_exact > rep.A_upper:
                        _fail(f"|A| exceeds its bound at ({q},{n},{k},{t})")
                    if rep.B_exact < rep.B_lower:
                        _fail(f"|B| below its bound at ({q},{n},{k},{t})")
                    if t <= k:
                        w = divisibility_witness(q, n, k, t)
                        if w > rep.c1_bound:
                            _fail(f"witness exceeds c1 bound at ({q},{n},{k},{t})")
                    checks += 4
    # rhs monotone in the constant
    base = klp_report(2, 20, 5, 1, constant=1)
    for c in (2, 5, 10):
        if klp_report(2, 20, 5, 1, constant=c).rhs_final < base.rhs_final:
            _fail("rhs_final must be nondecreasing in the constant")
        checks += 1
    return checks


def klp_feasibility_points() -> int:
    if not klp_report(2, 1000, 25, 1, 1).feasible:
        _fail("(q=2,t=1,k=25,n=1000) must be feasible at constant 1")
    if klp_report(2, 1000, 12, 1, 1).feasible:
        _fail("(q=2,t=1,k=12,n=1000) must be infeasible")
    if divisibility_witness(2, 4, 2, 1) != 90:
        _fail("divisibility witness at (2,4,2,1) must be 90")
    return 3


# ---------------------------------------------------------------------------
# search


def search_spreads() -> int:
    checks = 0
    spread4 = search_design(2, 4, 2, 1, 1)
    if isinstance(spread4, NotFound) or len(spread4.blocks) != 5:
        _fail("1-(4,2,1) spread over F_2 must have 5 blocks")
    rep = verify_design(spread4, 1)
    if not (rep.is_design and rep.is_simple and not rep.is_trivial and rep.lambda_ == 1):
        _fail("1-(4,2,1) spread verification failed")
    checks += 2
    if not isinstance(search_design(2, 3, 2, 1, 1), NotFound):
        _fail("1-(3,2,1) over F_2 must be NotFound")
    if lambda_identity_check(3, 2, 1, 2, 0) != 0:
        _fail("identity check must accept N=0")
    checks += 2
    spread6 = search_design(2, 6, 3, 1, 1)
    if isinstance(spread6, NotFound) or len(spread6.blocks) != 9:
        _fail("1-(6,3,1) spread over F_2 must have 9 blocks")
    rep6 = verify_design(spread6, 1)
    if not (rep6.is_design and rep6.is_simple and not rep6.is_trivial and rep6.lambda_ == 1):
        _fail("1-(6,3,1) spread verification failed")
    checks += 2
    # determinism of the exhaustive method
    again = search_design(2, 4, 2, 1, 1)
    if again.blocks != spread4.blocks:
        _fail("exhaustive search must be deterministic")
    checks += 1
    return checks


# ---------------------------------------------------------------------------
# runner

SUITES = {
    fn.__name__: fn
    for fn in (
        gf_field_axioms,
        gf_rref_properties,
        qcount_symmetry,
        qcount_sum_identity,
        qcount_enumeration,
        qcount_term_bounds,
        qcount_pascal,
        grassmann_canonical_order,
        grassmann_extension_counts,
        grassmann_dimension_formula,
        grassmann_gl_action,
        incidence_average_identity,
        incidence_weights,
        incidence_symmetry,
        verifier_trivial_designs,
        verifier_union_complement,
        verifier_gl_invariance,
        decode_systems,
        decode_det_bounds,
        lemma2_q2_n_le4,
        lemma2_q2_n5,
        lemma2_q2_n6,
        lemma2_q3,
        decode_certificates,
        decode_c3,
        klp_bound_consistency,
        klp_feasibility_points,
        search_spreads,
    )
}


@_value_class
class SuiteResult:
    name: str
    ok: bool
    checks: int
    detail: str


@_value_class
class SelftestReport:
    results: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def _run_suite(name: str) -> SuiteResult:
    fn = SUITES[name]
    try:
        checks = fn()
    except SelfTestFailure as exc:
        return SuiteResult(name=name, ok=False, checks=0, detail=str(exc))
    return SuiteResult(name=name, ok=True, checks=checks, detail="")


def _ignore_interrupts() -> None:
    """A pool worker's start: an interrupt is the parent's to handle."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def run_selftest(workers: int = 1, names=None) -> SelftestReport:
    """Run the named suites (by default all, in registry order).

    More than one worker shards the suites across a process pool of
    min(workers, suites run, CPU count) processes; the report is the same
    for any worker count.  The workers ignore SIGINT: an interrupt reaches
    the parent, whose pool, on leaving its with block, terminates the
    workers, running suites and all, before KeyboardInterrupt propagates.
    """
    if workers < 1:
        raise InvalidParameters(f"workers must be >= 1, got {workers}")
    if names is None:
        names = list(SUITES)
    else:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise InvalidParameters(f"unknown suite(s): {', '.join(unknown)}")
    workers = min(workers, len(names), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool

        try:
            with Pool(workers, initializer=_ignore_interrupts) as pool:
                results = tuple(pool.map(_run_suite, names))
        except OSError:
            results = tuple(_run_suite(n) for n in names)
    else:
        results = tuple(_run_suite(n) for n in names)
    return SelftestReport(results=results)
