"""Command-line interface.

Subcommands: qbinom, enumerate, incidence, verify, decode, lemma2-check,
klp-report, search, selftest.

Exit codes: 0 success, 1 mathematical failure (a verification or bound
check that comes back false), 2 usage error, 3 resource cap or timeout.
All integers print in full decimal; JSON output is a single object with
a schema_version field, sorted keys, and two-space indentation, so
parsing and re-serializing it is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InvalidParameters, QDesignError, ResourceLimitError
from .gf import make_field
from .grassmann import intersect_dim, iter_subspaces
from .incidence import (
    average_row,
    build_incidence,
    check_constant_vector_property,
    export_bits_text,
)
from .klp import divisibility_witness, klp_report
from .localdecode import (
    decode_certificate,
    lemma2_grid_report,
    solve_coefficients,
    verify_certificate,
)
from .qcount import check_bounds, q_binomial, q_binomial_via_sum
from .search import NotFound, Timeout, search_design
from .selftest import format_report_text, report_to_json_obj, run_selftest
from .verifier import (
    DesignCandidate,
    design_to_json_obj,
    load_design,
    save_design,
    verify_design,
)

_DIGITS = "0123456789abcdef"


def _rows_str(subspace) -> list[str]:
    return ["".join(_DIGITS[x] for x in row) for row in subspace.rows()]


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _bool(x: bool) -> str:
    return "true" if x else "false"


# ---------------------------------------------------------------------------
# handlers


def _cmd_qbinom(args) -> int:
    value = q_binomial(args.n, args.k, args.q)
    obj: dict = {
        "schema_version": 1,
        "command": "qbinom",
        "q": args.q,
        "n": args.n,
        "k": args.k,
        "value": value,
    }
    code = 0
    if args.via_sum:
        via = q_binomial_via_sum(args.n, args.k, args.q, max_terms=args.max_terms)
        obj["via_sum"] = via
        if via != value:
            code = 1
    bounds = check_bounds(args.n, args.k, args.q) if args.bounds else None
    if bounds is not None:
        obj["bounds"] = {"lower": bounds.lower, "upper": bounds.upper, "ok": bounds.ok}
        if not bounds.ok:
            code = 1
    if args.json:
        _emit_json(obj)
        return code
    if bounds is not None:
        print(f"lower = {bounds.lower}")
        print(f"value = {value}")
        print(f"upper = {bounds.upper}")
        print(f"ok = {_bool(bounds.ok)}")
    else:
        print(obj.get("via_sum", value))
    return code


def _cmd_enumerate(args) -> int:
    field = make_field(args.q)
    count = q_binomial(args.n, args.k, args.q)
    if count > args.max_subspaces:
        raise ResourceLimitError(
            f"[{args.n} {args.k}]_{args.q} = {count} exceeds cap {args.max_subspaces}"
        )
    if args.count_only:
        if args.format == "json":
            _emit_json(
                {
                    "schema_version": 1,
                    "command": "enumerate",
                    "q": args.q,
                    "n": args.n,
                    "k": args.k,
                    "count": count,
                }
            )
        else:
            print(count)
        return 0
    subs = iter_subspaces(args.n, args.k, field)
    if args.format == "json":
        _emit_json(
            {
                "schema_version": 1,
                "command": "enumerate",
                "q": args.q,
                "n": args.n,
                "k": args.k,
                "count": count,
                "subspaces": [_rows_str(s) for s in subs],
            }
        )
    else:
        first = True
        for s in subs:
            if not first:
                print()
            first = False
            for line in _rows_str(s):
                print(line)
    return 0


def _cmd_incidence(args) -> int:
    field = make_field(args.q)
    M = build_incidence(args.n, args.k, args.t, field, max_bits=args.max_bits)
    if args.export_bits == "-":
        sys.stdout.write(export_bits_text(M))
        return 0
    if args.export_bits:
        with open(args.export_bits, "w", encoding="utf-8") as fh:
            fh.write(export_bits_text(M))
    avg = average_row(M)
    obj = {
        "schema_version": 1,
        "command": "incidence",
        "q": args.q,
        "n": args.n,
        "k": args.k,
        "t": args.t,
        "rows": M.num_rows,
        "cols": M.num_cols,
        "row_weight": M.row_weight,
        "col_weight": M.col_weight,
        "total_ones": M.total_ones(),
        "constant_vector": check_constant_vector_property(M),
        "average_row": f"{avg.numerator}/{avg.denominator}",
    }
    if args.json:
        _emit_json(obj)
        return 0
    if args.weights_only:
        keys = ["rows", "cols", "row_weight", "col_weight"]
    else:
        keys = [
            "q", "n", "k", "t", "rows", "cols", "row_weight", "col_weight",
            "total_ones", "constant_vector", "average_row",
        ]
    for key in keys:
        val = obj[key]
        print(f"{key} = {_bool(val) if isinstance(val, bool) else val}")
    return 0


def _cmd_verify(args) -> int:
    try:
        candidate = load_design(args.design)
    except OSError as exc:
        raise InvalidParameters(
            f"cannot read design file {args.design}: {exc.strerror or exc}"
        ) from exc
    report = verify_design(candidate, args.t, max_columns=args.max_columns)
    hist = " ".join(f"{c}:{m}" for c, m in sorted(report.counts_histogram.items()))
    obj = {
        "schema_version": 1,
        "command": "verify",
        "q": candidate.field.q,
        "n": candidate.n,
        "k": candidate.k,
        "N": len(candidate.blocks),
        "t": args.t,
        "is_design": report.is_design,
        "lambda": report.lambda_,
        "simple": report.is_simple,
        "trivial": report.is_trivial,
        "histogram": {str(c): m for c, m in sorted(report.counts_histogram.items())},
        "failing_t_subspace": (
            _rows_str(report.failing_t_subspace)
            if report.failing_t_subspace is not None
            else None
        ),
    }
    if args.json:
        _emit_json(obj)
    else:
        for key in ("q", "n", "k", "N", "t"):
            print(f"{key} = {obj[key]}")
        print(f"is_design = {_bool(report.is_design)}")
        print(f"lambda = {report.lambda_ if report.lambda_ is not None else 'absent'}")
        print(f"simple = {_bool(report.is_simple)}")
        print(f"trivial = {_bool(report.is_trivial)}")
        print(f"histogram = {hist}")
        if report.failing_t_subspace is not None:
            print(f"failing_t_subspace = {','.join(_rows_str(report.failing_t_subspace))}")
    return 0 if report.is_design else 1


def _cmd_decode(args) -> int:
    system = solve_coefficients(args.q, args.t, args.k)
    obj = {
        "schema_version": 1,
        "command": "decode",
        "q": args.q,
        "t": args.t,
        "k": args.k,
        "D": [list(row) for row in system.D],
        "m": system.m,
        "f": list(system.f),
        "Dj_dets": list(system.Dj_dets),
    }
    code = 0
    cert_lines: list[str] = []
    if args.certify:
        if args.n is None:
            raise InvalidParameters("--certify requires --n")
        field = make_field(args.q)
        V = next(iter_subspaces(args.n, args.t, field))
        cert = decode_certificate(V, args.k, max_subspaces=args.max_certificate)
        ok = verify_certificate(cert)
        by_dim: dict[int, int] = {}
        for U in cert.coefficients:
            j = intersect_dim(U, V)
            by_dim[j] = by_dim.get(j, 0) + 1
        obj["certificate"] = {
            "n": args.n,
            "V": _rows_str(V),
            "W": _rows_str(cert.envelope),
            "l1_norm": cert.l1_norm,
            "subspaces_by_dim": {str(j): by_dim[j] for j in sorted(by_dim)},
            "certified": ok,
        }
        cert_lines.append(f"certify n = {args.n}")
        cert_lines.append(f"V = {','.join(_rows_str(V))}")
        cert_lines.append(f"W = {','.join(_rows_str(cert.envelope))}")
        for j in sorted(by_dim):
            cert_lines.append(
                f"coefficient[dim={j}] = {system.f[j]} on {by_dim[j]} subspaces"
            )
        cert_lines.append(f"l1_norm = {cert.l1_norm}")
        cert_lines.append(f"certified = {_bool(ok)}")
        if not ok:
            code = 1
    if args.json:
        _emit_json(obj)
        return code
    print(f"q = {args.q}")
    print(f"t = {args.t}")
    print(f"k = {args.k}")
    for i, row in enumerate(system.D):
        print(f"D row {i} = {' '.join(str(x) for x in row)}")
    print(f"m = {system.m}")
    print(f"f = {' '.join(str(x) for x in system.f)}")
    for line in cert_lines:
        print(line)
    return code


def _cmd_lemma2_check(args) -> int:
    report = lemma2_grid_report(args.q, args.n, args.t, args.k)
    obj = {
        "schema_version": 1,
        "command": "lemma2-check",
        "q": args.q,
        "n": args.n,
        "t": args.t,
        "k": args.k,
        "pairs": report.pair_count,
        "extension_count": report.extension_count,
        "cells": [
            {"l": c.l, "j": c.j, "formula": c.formula, "pairs": c.pairs}
            for c in report.cells
        ],
        "ok": report.ok,
        "mismatch": report.mismatch,
    }
    if args.json:
        _emit_json(obj)
    else:
        for key in ("q", "n", "t", "k"):
            print(f"{key} = {obj[key]}")
        print(f"pairs = {report.pair_count}")
        print(f"extension_count = {report.extension_count}")
        for c in report.cells:
            print(f"l={c.l} j={c.j}: formula = {c.formula} pairs = {c.pairs}")
        print(f"ok = {_bool(report.ok)}")
        if not report.ok:
            print(f"mismatch = {report.mismatch}")
    return 0 if report.ok else 1


def _cmd_klp_report(args) -> int:
    rep = klp_report(args.q, args.n, args.k, args.t, constant=args.constant)
    witness = (
        divisibility_witness(args.q, args.n, args.k, args.t) if args.n <= 64 else None
    )
    obj = {
        "schema_version": 1,
        "command": "klp-report",
        "q": rep.q,
        "n": rep.n,
        "k": rep.k,
        "t": rep.t,
        "constant": rep.constant,
        "c1_bound": rep.c1_bound,
        "c2": rep.c2,
        "c3_bound": rep.c3_bound,
        "A_upper": rep.A_upper,
        "B_lower": rep.B_lower,
        "A_exact": rep.A_exact,
        "B_exact": rep.B_exact,
        "rhs_final": rep.rhs_final,
        "block_budget": rep.block_budget,
        "feasible": rep.feasible,
        "divisibility_witness": witness,
        "k_gt_12t": rep.k_gt_12t,
        "k_gt_12t_plus_1": rep.k_gt_12t_plus_1,
        "log_reading": rep.log_reading,
    }
    if args.json:
        _emit_json(obj)
        return 0
    for key in ("q", "n", "k", "t", "constant"):
        print(f"{key} = {obj[key]}")
    for key in (
        "c1_bound", "c2", "c3_bound", "A_upper", "B_lower",
        "A_exact", "B_exact", "rhs_final", "block_budget",
    ):
        val = obj[key]
        print(f"{key} = {'absent' if val is None else val}")
    if witness is not None:
        print(f"divisibility_witness = {witness}")
    print(f"feasible = {_bool(rep.feasible)} (relative to supplied constant)")
    print(f"k_gt_12t = {_bool(rep.k_gt_12t)}")
    print(f"k_gt_12t_plus_1 = {_bool(rep.k_gt_12t_plus_1)}")
    print(f"log_reading = {rep.log_reading}")
    return 0


def _cmd_search(args) -> int:
    result = search_design(
        args.q,
        args.n,
        args.k,
        args.t,
        args.lam,
        method=args.method,
        seed=args.seed,
        limit=args.timeout,
        max_universe=args.max_universe,
        max_candidates=args.max_candidates,
    )
    if isinstance(result, NotFound):
        if args.json:
            _emit_json(
                {
                    "schema_version": 1,
                    "command": "search",
                    "status": "not_found",
                    "reason": result.reason,
                }
            )
        else:
            print(f"not found: {result.reason}")
        return 1
    if isinstance(result, Timeout):
        if args.json:
            _emit_json(
                {
                    "schema_version": 1,
                    "command": "search",
                    "status": "timeout",
                    "best_satisfied": result.best_satisfied,
                    "universe_size": result.universe_size,
                }
            )
        else:
            print(
                f"timeout: best {result.best_satisfied}/{result.universe_size} "
                "columns satisfied"
            )
        return 3
    assert isinstance(result, DesignCandidate)
    if args.out:
        try:
            save_design(result, args.out, fmt=args.out_format)
        except OSError as exc:
            raise InvalidParameters(
                f"cannot write design file {args.out}: {exc.strerror or exc}"
            ) from exc
    if args.json:
        obj = {
            "schema_version": 1,
            "command": "search",
            "status": "found",
            "t": args.t,
            "lambda": args.lam,
            "design": design_to_json_obj(result),
        }
        _emit_json(obj)
        return 0
    print(
        f"found: q={args.q} n={args.n} k={args.k} t={args.t} "
        f"lambda={args.lam} N={len(result.blocks)}"
    )
    if args.out:
        print(f"wrote design to {args.out}")
    else:
        sys.stdout.write("\n")
        from .verifier import format_design_text

        sys.stdout.write(format_design_text(result))
    return 0


def _cmd_selftest(args) -> int:
    report = run_selftest(workers=args.workers, names=args.suite or None)
    if args.json:
        _emit_json(report_to_json_obj(report))
    else:
        sys.stdout.write(format_report_text(report))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_int(p, name, required=True, default=None, help=""):
    p.add_argument(name, type=int, required=required, default=default, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdesign",
        description="Exact-arithmetic toolkit for subspace (q-analog) designs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("qbinom", help="Gaussian binomial [n k]_q")
    _add_int(p, "--q")
    _add_int(p, "--n")
    _add_int(p, "--k")
    p.add_argument("--via-sum", action="store_true", help="use the monomial-sum identity")
    p.add_argument("--bounds", action="store_true", help="print the term-counting bounds")
    _add_int(p, "--max-terms", required=False, default=10**6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_qbinom)

    p = sub.add_parser("enumerate", help="list all k-subspaces of F_q^n")
    _add_int(p, "--q")
    _add_int(p, "--n")
    _add_int(p, "--k")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_int(p, "--max-subspaces", required=False, default=10**7)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("incidence", help="build the t-vs-k incidence structure")
    _add_int(p, "--q")
    _add_int(p, "--n")
    _add_int(p, "--k")
    _add_int(p, "--t")
    p.add_argument("--weights-only", action="store_true")
    p.add_argument("--export-bits", metavar="PATH", help="write rows of 0/1 chars ('-' for stdout)")
    _add_int(p, "--max-bits", required=False, default=10**9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_incidence)

    p = sub.add_parser("verify", help="verify a design file")
    p.add_argument("--design", required=True, metavar="FILE")
    _add_int(p, "--t")
    _add_int(p, "--max-columns", required=False, default=10**7)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decode", help="solve the decoding coefficient system")
    _add_int(p, "--q")
    _add_int(p, "--t")
    _add_int(p, "--k")
    p.add_argument("--certify", action="store_true", help="verify the certificate in F_q^n")
    _add_int(p, "--n", required=False)
    _add_int(p, "--max-certificate", required=False, default=10**6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser(
        "lemma2-check", help="check intersection-count formula against enumeration"
    )
    _add_int(p, "--q")
    _add_int(p, "--n")
    _add_int(p, "--t")
    _add_int(p, "--k")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lemma2_check)

    p = sub.add_parser("klp-report", help="existence-condition parameter report")
    _add_int(p, "--q")
    _add_int(p, "--n")
    _add_int(p, "--k")
    _add_int(p, "--t")
    _add_int(p, "--constant", required=False, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_klp_report)

    p = sub.add_parser("search", help="search for a simple t-(n,k,lambda) design")
    _add_int(p, "--q")
    _add_int(p, "--n")
    _add_int(p, "--k")
    _add_int(p, "--t")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--method", choices=("exhaustive", "greedy"), default="exhaustive")
    _add_int(p, "--seed", required=False, default=0)
    p.add_argument("--timeout", type=float, default=None, metavar="SECS")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--out-format", choices=("text", "json"), default="text")
    _add_int(p, "--max-universe", required=False, default=10**4)
    _add_int(p, "--max-candidates", required=False, default=10**5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("selftest", help="run every invariant suite")
    p.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("QDESIGN_WORKERS", "1")),
        help="worker processes (default: QDESIGN_WORKERS or 1)",
    )
    p.add_argument("--suite", action="append", metavar="NAME", help="run only the named suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    # reports print exact decimals that can run to thousands of digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidParameters, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
