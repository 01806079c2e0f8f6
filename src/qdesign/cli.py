"""Command-line interface.

Subcommands: qbinom, enumerate, incidence, verify, decode, lemma2-check,
klp-report, search, selftest.

Each handler returns (exit code, JSON object, text lines) and writes
nothing; `main` prints either the object, under `--json` (`--format json`
for enumerate), or the lines.

Exit codes, picked by the exception class alone: 0 success, 1 only as a
command's verdict (a verification or bound check that comes back false),
2 InvalidParameters or an argparse usage error (bad arguments, an
unreadable or malformed input file, an unwritable output file), 3
ResourceLimitError or a search timeout, 4 any other exception, reported
as "error: internal error: <Type>: <message>", 130 an interrupt (SIGINT,
as Ctrl-C sends), reported as "error: interrupted", 141 stdout closed by
its reader before all output was written (128 + SIGPIPE, the status a
shell reports for a process that a broken pipe kills; nothing is printed
to stderr). Dimensions must satisfy
0 <= t <= k <= n (1 <= t for decode, lemma2-check and klp-report), and
search needs --lambda >= 0; a design file's header must satisfy
0 <= k <= n. Otherwise the run exits 2 with one line naming the values,
such as "error: need 0 <= t <= k <= n, got t=3, k=2, n=4". All integers
print in full decimal, except that a cap error shows a count or cap
past 200 bits as "more than 2^b", or as "more than q^E" when the cap refused it
from q^E, E the sum of the k(n-k): every cap on Gaussian binomials
checks that lower bound before any exact count. JSON output is one
object with a schema_version field, sorted keys, and two-space
indentation, so parsing and re-serializing it is byte-identical. A Python
reader must call sys.set_int_max_str_digits(0) before json.load, since
klp-report's bounds can run past its default limit of 4,300 digits.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from contextlib import contextmanager

from .errors import InvalidParameters, ResourceLimitError, check_chain, validate_q
from .gf import make_field
from .grassmann import iter_subspaces
from .incidence import (
    average_row,
    build_incidence,
    check_constant_vector_property,
    export_bits_text,
)
from .klp import MAX_BITS_LIMIT, divisibility_witness, klp_report
from .localdecode import (
    _check_ambient,
    certificate_composition,
    decode_certificate,
    lemma2_grid_report,
    solve_coefficients,
    verify_certificate,
)
from .qcount import capped, check_bounds, q_binomial_via_sum
from .search import NotFound, Timeout, search_design
from .verifier import (
    DesignCandidate,
    design_to_json_obj,
    digit_rows,
    format_design_text,
    load_design,
    save_design,
    verify_design,
)

def _text(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    return "absent" if val is None else str(val)


def _kv(obj: dict, *keys: str) -> list[str]:
    """`key = value` lines: booleans as true/false, None as absent."""
    return [f"{key} = {_text(obj[key])}" for key in keys]


def _blank_separated(blocks):
    """The rows of each block, with a blank line between blocks."""
    for i, rows in enumerate(blocks):
        if i:
            yield ""
        yield from rows


@contextmanager
def _user_file(action: str, path: str):
    """Report an OSError on a file the user named as a usage error."""
    try:
        yield
    except OSError as exc:
        raise InvalidParameters(f"cannot {action} file {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# handlers

# exit code, JSON object (None when the output has no JSON form), text lines
_Result = tuple[int, "dict | None", Iterable[str]]


# qbinom refuses larger counts; computing and printing one of 2^18 bits
# (about 79,000 digits) takes a few tenths of a second
_QBINOM_MAX_BITS = 2**18


def _cmd_qbinom(args) -> _Result:
    validate_q(args.q)
    check_chain(0, k=args.k, n=args.n)
    (value,) = capped(
        args.q, [(args.n, args.k)], 2**_QBINOM_MAX_BITS - 1,
        f"[{args.n} {args.k}]_{args.q} = {{0}} exceeds the cap of {_QBINOM_MAX_BITS} bits",
    )
    obj: dict = {"q": args.q, "n": args.n, "k": args.k, "value": value}
    code = 0
    if args.via_sum:
        obj["via_sum"] = q_binomial_via_sum(args.n, args.k, args.q, max_terms=args.max_terms)
        if obj["via_sum"] != value:
            code = 1
    if not args.bounds:
        return code, obj, [str(obj.get("via_sum", value))]
    bounds = check_bounds(args.n, args.k, args.q)
    obj["bounds"] = {"lower": bounds.lower, "upper": bounds.upper, "ok": bounds.ok}
    if not bounds.ok:
        code = 1
    return code, obj, _kv({**obj["bounds"], "value": value}, "lower", "value", "upper", "ok")


def _cmd_enumerate(args) -> _Result:
    field = make_field(args.q)
    check_chain(0, k=args.k, n=args.n)
    (count,) = capped(args.q, [(args.n, args.k)], args.max_subspaces)
    obj: dict = {"q": args.q, "n": args.n, "k": args.k, "count": count}
    if args.count_only:
        return 0, obj, [str(count)]
    subs = (digit_rows(s) for s in iter_subspaces(args.n, args.k, field))
    if args.json:
        obj["subspaces"] = list(subs)
        return 0, obj, []
    # text streams one subspace at a time
    return 0, obj, _blank_separated(subs)


def _cmd_incidence(args) -> _Result:
    M = build_incidence(args.n, args.k, args.t, make_field(args.q), max_bits=args.max_bits)
    if args.export_bits == "-":
        return 0, None, [export_bits_text(M)[:-1]]
    if args.export_bits:
        with _user_file("write bits", args.export_bits):
            with open(args.export_bits, "w", encoding="utf-8") as fh:
                fh.write(export_bits_text(M))
    avg = average_row(M)
    obj = {
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
    if args.weights_only:
        return 0, obj, _kv(obj, "rows", "cols", "row_weight", "col_weight")
    return 0, obj, _kv(obj, *obj)  # every field, in order


def _cmd_verify(args) -> _Result:
    with _user_file("read design", args.design):
        candidate = load_design(args.design)
    report = verify_design(candidate, args.t, max_columns=args.max_columns)
    hist = sorted(report.counts_histogram.items())
    failing = report.failing_t_subspace
    obj = {
        "q": candidate.field.q,
        "n": candidate.n,
        "k": candidate.k,
        "N": candidate._count,
        "t": args.t,
        "is_design": report.is_design,
        "lambda": report.lambda_,
        "simple": report.is_simple,
        "trivial": report.is_trivial,
        "histogram": {str(c): m for c, m in hist},
        "failing_t_subspace": digit_rows(failing) if failing is not None else None,
    }
    lines = _kv(obj, "q", "n", "k", "N", "t", "is_design", "lambda", "simple", "trivial")
    lines.append("histogram = " + " ".join(f"{c}:{m}" for c, m in hist))
    if failing is not None:
        lines.append(f"failing_t_subspace = {','.join(obj['failing_t_subspace'])}")
    return (0 if report.is_design else 1), obj, lines


def _cmd_decode(args) -> _Result:
    system = solve_coefficients(args.q, args.t, args.k)
    obj = {**vars(system), "Dj_dets": system.f}
    lines = _kv(obj, "q", "t", "k")
    lines += [f"D row {i} = {' '.join(str(x) for x in row)}" for i, row in enumerate(system.D)]
    lines += _kv(obj, "m")
    lines.append(f"f = {' '.join(str(x) for x in system.f)}")
    if not args.certify:
        return 0, obj, lines
    if args.n is None:
        raise InvalidParameters("--certify requires --n")
    field = make_field(args.q)  # an unsupported q is refused before any cap
    _check_ambient(args.q, args.n, args.t, args.k, args.max_certificate)
    V = next(iter_subspaces(args.n, args.t, field))
    cert = decode_certificate(V, args.k, max_subspaces=args.max_certificate)
    ok = verify_certificate(cert, max_subspaces=args.max_certificate)
    composition = certificate_composition(args.q, args.t, args.k)
    obj["certificate"] = cert_obj = {
        "n": args.n,
        "V": digit_rows(V),
        "W": digit_rows(cert.envelope),
        "l1_norm": cert.l1_norm,
        "subspaces_by_dim": {str(j): N for j, N in enumerate(composition)},
        "certified": ok,
    }
    lines.append(f"certify n = {args.n}")
    lines.append(f"V = {','.join(cert_obj['V'])}")
    lines.append(f"W = {','.join(cert_obj['W'])}")
    for j, N in enumerate(composition):
        lines.append(f"coefficient[dim={j}] = {system.f[j]} on {N} subspaces")
    lines += _kv(cert_obj, "l1_norm", "certified")
    return (0 if ok else 1), obj, lines


def _cmd_lemma2_check(args) -> _Result:
    report = lemma2_grid_report(args.q, args.n, args.t, args.k, max_pairs=args.max_pairs)
    obj = {
        "q": args.q,
        "n": args.n,
        "t": args.t,
        "k": args.k,
        "pairs": report.pair_count,
        "extension_count": report.extension_count,
        "cells": [vars(c) for c in report.cells],
        "ok": report.ok,
        "mismatch": report.mismatch,
    }
    lines = _kv(obj, "q", "n", "t", "k", "pairs", "extension_count")
    lines += [f"l={c.l} j={c.j}: formula = {c.formula} pairs = {c.pairs}" for c in report.cells]
    lines += _kv(obj, "ok") if report.ok else _kv(obj, "ok", "mismatch")
    return (0 if report.ok else 1), obj, lines


def _cmd_klp_report(args) -> _Result:
    rep = klp_report(
        args.q, args.n, args.k, args.t, constant=args.constant, max_bits=args.max_bits
    )
    witness = (
        divisibility_witness(args.q, args.n, args.k, args.t) if rep.A_exact is not None else None
    )
    obj = {**vars(rep), "divisibility_witness": witness}

    def lines():  # text only: a bound's decimal takes time quadratic in its length
        yield from _kv(
            obj, "q", "n", "k", "t", "constant", "c1_bound", "c2", "c3_bound", "A_upper",
            "B_lower", "A_exact", "B_exact", "rhs_final", "block_budget",
        )
        if witness is not None:
            yield from _kv(obj, "divisibility_witness")
        yield f"feasible = {_text(rep.feasible)} (relative to supplied constant)"
        yield from _kv(obj, "k_gt_12t", "k_gt_12t_plus_1", "log_reading")

    return 0, obj, lines()


def _cmd_search(args) -> _Result:
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
        obj = {"status": "not_found", "reason": result.reason}
        return 1, obj, [f"not found: {result.reason}"]
    if isinstance(result, Timeout):
        obj = {
            "status": "timeout",
            "best_satisfied": result.best_satisfied,
            "universe_size": result.universe_size,
        }
        return 3, obj, [
            f"timeout: best {result.best_satisfied}/{result.universe_size} columns satisfied"
        ]
    assert isinstance(result, DesignCandidate)
    obj = {
        "status": "found",
        "t": args.t,
        "lambda": args.lam,
        "design": design_to_json_obj(result),
    }
    lines = [
        f"found: q={args.q} n={args.n} k={args.k} t={args.t} "
        f"lambda={args.lam} N={len(result.blocks)}"
    ]
    if args.out:
        with _user_file("write design", args.out):
            save_design(result, args.out, fmt=args.out_format)
        lines.append(f"wrote design to {args.out}")
    elif result.blocks and not result.k:  # as save_design refuses them
        lines.append("blocks of k = 0 have no text form; use --json")
    else:
        lines += ["", format_design_text(result)[:-1]]
    return 0, obj, lines


def _cmd_selftest(args) -> _Result:
    # imported here so that no other command compiles and runs it
    from .selftest import run_selftest

    report = run_selftest(workers=args.workers, names=args.suite or None)
    obj = {"ok": report.ok, "suites": [vars(r) for r in report.results]}
    lines = [
        f"ok {r.name} ({r.checks} checks)" if r.ok else f"FAIL {r.name}: {r.detail}"
        for r in report.results
    ]
    good = sum(r.ok for r in report.results)
    lines.append(f"selftest: {good}/{len(report.results)} suites ok")
    return (0 if report.ok else 1), obj, lines


# ---------------------------------------------------------------------------
# parser


def _add_int(p, name, required=True, default=None, help=""):
    p.add_argument(name, type=int, required=required, default=default, help=help)


class _FormatJson(argparse.Action):
    """`--format json` sets the same `json` flag that `--json` sets."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values == "json")


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
    p.add_argument(
        "--format", dest="json", choices=("text", "json"), default=False, action=_FormatJson
    )
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
    _add_int(
        p,
        "--max-certificate",
        required=False,
        default=10**6,
        help="cap on the [t+k k]_q certificate subspaces and, with --certify,"
        " on the [n t]_q t-subspaces checked (default: 1000000)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser(
        "lemma2-check", help="check intersection-count formula against enumeration"
    )
    _add_int(p, "--q")
    _add_int(p, "--n")
    _add_int(p, "--t")
    _add_int(p, "--k")
    _add_int(
        p,
        "--max-pairs",
        required=False,
        default=10**7,
        help="cap on the [n t]_q [n k]_q containment tests (default: 10000000)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lemma2_check)

    p = sub.add_parser("klp-report", help="existence-condition parameter report")
    _add_int(p, "--q")
    _add_int(p, "--n")
    _add_int(p, "--k")
    _add_int(p, "--t")
    _add_int(p, "--constant", required=False, default=1)
    _add_int(
        p,
        "--max-bits",
        required=False,
        default=10**6,
        help="cap on the bit length of the largest power built (default: 1000000,"
        f" at most {MAX_BITS_LIMIT})",
    )
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
        default=1,
        help="worker processes (default: 1)",
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
        code, obj, lines = args.func(args)
        if args.json and obj is not None:
            import json

            obj = {**obj, "schema_version": 1, "command": args.subcommand}
            lines = [json.dumps(obj, indent=2, sort_keys=True)]
        for line in lines:
            print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush
        # at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
