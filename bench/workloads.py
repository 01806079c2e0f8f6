"""The benchmark's four workloads and the oracles that check their outputs.

Each workload is a fixed job list built from the workload seed.  A job is
one public library call with fixed work (no time limit is ever passed), a
function that reduces its result to a small comparable outcome, and a check
that compares the outcome with a value from a route sharing no code with
the timed call.  Checks run after the timed passes, so oracle work is in
neither `setup_s` nor `pass_s`.  The library sees only the generated
inputs: blocks, design files and parameters.

Workload choice (see README.md for the table):
  coverage  RREF route of verify_design / build_incidence / load_design
  oracles   vector_mask AND/popcount, extensions, Bareiss, big-int roots
  search    search_design end to end: all-pairs cover build and solver
  cli       fresh `python -m qdesign` processes on docs/worked_examples.md
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import speed


# Sensitivities to machine speed (speed.py).  Regressed on the probe time,
# interpreted jobs gave slopes of 0.9-1.6 within runs.  Across runs the
# probe tracks them less well: in a steady slow spell it read the machine
# about 10% faster than in noisy ones while the jobs ran alike, so
# interpreted Python uses 1, at the low end.  klp_report is mostly C
# big-integer arithmetic, which the slow state hardly touches (slopes
# 0.18-0.30).  A child process is gauged by a reference child of its own
# kind, so it uses 1.
INTERPRETED_SENSITIVITY = 1.0
BIGINT_SENSITIVITY = 0.25
CHILD_SENSITIVITY = 1.0


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    # reduces the call's result to a small value; runs in the pass, untimed per job
    outcome: Callable[[object], object]
    # returns None when the outcome is right, else a one-line reason
    check: Callable[[object], str | None]
    # sensitivity of the job's time to the machine's speed (speed.py)
    sensitivity: float = INTERPRETED_SENSITIVITY


@dataclass
class Workload:
    jobs: list[Job]
    # runs before every pass, outside the timed region
    before_pass: Callable[[], None] = lambda: None
    # times each job and gauges the machine's speed meanwhile
    probe: speed.SpeedProbe | speed.ChildProbe = field(default_factory=speed.SpeedProbe)


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n k]_q by Pascal's q-recurrence, independent of `qdesign.qcount`."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(n - 1, k, q)


def expect_equal(expected_fn: Callable[[], object]) -> Callable[[object], str | None]:
    """A check against an expected outcome computed once, on first use."""
    cache = []

    def check(outcome):
        if not cache:
            cache.append(expected_fn())
        if outcome != cache[0]:
            return f"got {_short(outcome)}, expected {_short(cache[0])}"
        return None

    return check


def _short(value, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _entries(blocks) -> tuple:
    return tuple(b.basis.entries for b in blocks)


# ---------------------------------------------------------------------------
# coverage

TRIVIAL_DESIGNS = ((2, 6, 3, 2), (3, 5, 3, 2), (2, 8, 2, 1))  # (q, n, k, t)
RANDOM_SUBSETS = 4  # seeded 279-block subsets of the 3-subspaces of F_2^6, t = 2
SUBSET_SIZE = 279
INCIDENCES = ((2, 6, 3, 2), (3, 5, 2, 1))  # (q, n, k, t)
DIGITS = "0123456789abcdef"


def _report_outcome(report):
    failing = report.failing_t_subspace
    return (
        report.is_design,
        report.lambda_,
        report.is_simple,
        report.is_trivial,
        tuple(report.counts_histogram.items()),
        None if failing is None else failing.basis.entries,
    )


def _mask_report(lib, q, n, k, t, blocks):
    """verify_design's report, recomputed by vector-set containment."""
    field_ = lib.gf.make_field(q)
    tsubs = list(lib.grassmann.iter_subspaces(n, t, field_))
    bmasks = [b.vector_mask for b in blocks]
    counts = []
    for a in tsubs:
        am = a.vector_mask
        counts.append(sum(1 for bm in bmasks if bm & am == am))
    histogram = dict(sorted(Counter(counts).items()))
    is_design = len(histogram) == 1
    failing = None
    if not is_design:
        mode = min(histogram, key=lambda c: (-histogram[c], c))
        failing = next(a for a, c in zip(tsubs, counts) if c != mode).basis.entries
    is_simple = len(set(bmasks)) == len(blocks)
    return (
        is_design,
        counts[0] if is_design else None,
        is_simple,
        is_simple and len(blocks) == gaussian_binomial(n, k, q),
        tuple(histogram.items()),
        failing,
    )


def _mask_incidence(lib, q, n, k, t):
    field_ = lib.gf.make_field(q)
    cols = [a.vector_mask for a in lib.grassmann.iter_subspaces(n, t, field_)]
    bits = []
    for row in lib.grassmann.iter_subspaces(n, k, field_):
        rm = row.vector_mask
        bits.append(sum(1 << j for j, am in enumerate(cols) if rm & am == am))
    return (len(bits), len(cols), gaussian_binomial(k, t, q),
            gaussian_binomial(n - t, k - t, q), tuple(bits))


def _design_text(q, n, k, blocks) -> str:
    lines = [f"{q} {n} {k}"]
    for b in blocks:
        lines.append("")
        for i in range(k):
            lines.append("".join(DIGITS[x] for x in b.basis.entries[i * n:(i + 1) * n]))
    return "\n".join(lines) + "\n"


def _design_json(q, n, k, blocks) -> str:
    rows = [
        ["".join(DIGITS[x] for x in b.basis.entries[i * n:(i + 1) * n]) for i in range(k)]
        for b in blocks
    ]
    obj = {"schema_version": 1, "q": q, "n": n, "k": k, "blocks": rows}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def coverage(lib, seed: int, workdir: Path) -> Workload:
    jobs = []
    enumerated = {}
    for q, n, k, t in TRIVIAL_DESIGNS:
        field_ = lib.gf.make_field(q)
        blocks = tuple(lib.grassmann.iter_subspaces(n, k, field_))
        enumerated[(q, n, k)] = blocks
        cand = lib.verifier.DesignCandidate(field=field_, n=n, k=k, blocks=blocks)
        lam = gaussian_binomial(n - t, k - t, q)
        expected = (True, lam, True, True, ((lam, gaussian_binomial(n, t, q)),), None)
        jobs.append(Job(
            f"verify_design trivial {t}-({n},{k})_{q}",
            lambda cand=cand, t=t: lib.verifier.verify_design(cand, t),
            _report_outcome,
            expect_equal(lambda expected=expected: expected),
        ))

    rng = random.Random(f"coverage:{seed}")
    f2 = lib.gf.make_field(2)
    planes = enumerated[(2, 6, 3)]
    for i in range(RANDOM_SUBSETS):
        blocks = tuple(rng.sample(planes, SUBSET_SIZE))
        cand = lib.verifier.DesignCandidate(field=f2, n=6, k=3, blocks=blocks)
        jobs.append(Job(
            f"verify_design random {SUBSET_SIZE}-subset #{i} t=2 (6,3)_2",
            lambda cand=cand: lib.verifier.verify_design(cand, 2),
            _report_outcome,
            expect_equal(lambda blocks=blocks: _mask_report(lib, 2, 6, 3, 2, blocks)),
        ))

    for q, n, k, t in INCIDENCES:
        field_ = lib.gf.make_field(q)
        jobs.append(Job(
            f"build_incidence ({q},{n},{k},{t})",
            lambda n=n, k=k, t=t, field_=field_: lib.incidence.build_incidence(n, k, t, field_),
            lambda M: (M.num_rows, M.num_cols, M.row_weight, M.col_weight, M.bits),
            expect_equal(lambda q=q, n=n, k=k, t=t: _mask_incidence(lib, q, n, k, t)),
        ))

    expected_design = (2, 6, 3, _entries(planes))
    for suffix, text in (("txt", _design_text(2, 6, 3, planes)),
                         ("json", _design_json(2, 6, 3, planes))):
        path = workdir / f"trivial-2-6-3.{suffix}"
        path.write_text(text, encoding="utf-8")
        jobs.append(Job(
            f"load_design 2-(6,3)_2 {suffix}",
            lambda path=str(path): lib.verifier.load_design(path),
            lambda c: (c.field.q, c.n, c.k, _entries(c.blocks)),
            expect_equal(lambda: expected_design),
        ))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# oracles

LEMMA2 = ((2, 6, 2, 3), (2, 6, 1, 3), (3, 4, 2, 3))  # (q, n, t, k)
CERTIFICATES = ((2, 7, 2, 3), (16, 3, 1, 2), (2, 6, 2, 3))  # (q, n, t, k)
DET_BOUNDS = (13, 6, 20)  # (q, t, k)
KLP = ((2, 3000, 75, 1), (5, 1000, 20, 2))  # (q, n, k, t)


def _decode_m(q, t, k) -> int:
    """det D as the product of the diagonal d(l, l) = [k-t+l l]_q q^((k-t)(t-l))."""
    m = 1
    for l in range(t + 1):
        m *= gaussian_binomial(k - t + l, l, q) * q ** ((k - t) * (t - l))
    return m


def _random_subspace(lib, field_, n, t, rng):
    while True:
        rows = [tuple(rng.randrange(field_.q) for _ in range(n)) for _ in range(t)]
        V = lib.grassmann.subspace_from_rows(field_, n, rows)
        if V.k == t:
            return V


def _check_klp(q, n, k, t):
    """The report's closed-form bounds recomputed, and the ceiling root of
    A_upper^(52/5) inside rhs_final checked by powering, not by Newton."""

    def check(o):
        c1 = q ** (k * (t + 1) ** 2 + t * (n - t) + n)
        c3 = q ** (2 * k * (t + 1) ** 2)
        a_up = q ** (t * (n - t) + n)
        b_low = q ** (k * (n - k))
        fields = (c1, c3, a_up, b_low, None, None, q ** (12 * (t + 1) * n))
        if o[:7] != fields:
            return "closed-form bounds differ"
        rhs, feasible = o[7], o[8]
        if feasible != (rhs < b_low):
            return "feasible flag disagrees with rhs < B_lower"
        exp12 = 24 * k * (t + 1) ** 2  # (c2 c3)^12 = q^exp12 with c2 = 1
        if exp12 % 5:
            return "job parameters must make (c2 c3)^(12/5) an exact power"
        root12 = q ** (exp12 // 5)
        log_factor = a_up.bit_length() ** 8
        r52, rem = divmod(rhs, c1 * log_factor * root12)
        if rem:
            return "rhs_final is not c1 * log factor * (c2 c3)^(12/5) * integer"
        target = a_up**52
        if not (r52**5 >= target > (r52 - 1) ** 5):
            return "rhs_final factor is not ceil(A_upper^(52/5))"
        return None

    return check


def oracles(lib, seed: int, workdir: Path) -> Workload:
    jobs = []
    for q, n, t, k in LEMMA2:
        pairs = gaussian_binomial(n, t, q) * (gaussian_binomial(n, t, q) - 1)
        jobs.append(Job(
            f"lemma2_grid_report ({q},{n},{t},{k})",
            lambda q=q, n=n, t=t, k=k: lib.localdecode.lemma2_grid_report(q, n, t, k),
            lambda r: (r.ok, r.pair_count, r.mismatch),
            expect_equal(lambda pairs=pairs: (True, pairs, "")),
        ))

    # The three certificates are one job.  As three jobs, job_p50_s was the
    # q=16 certificate alone, whose run-to-run spread on the reference machine
    # (IQR 0.29 of the median over 10 seeds) exceeds the 0.25 bound.
    rng = random.Random(f"oracles:{seed}")
    decoded = [_random_subspace(lib, lib.gf.make_field(q), n, t, rng)
               for q, n, t, k in CERTIFICATES]

    def decode_and_verify():
        out = []
        for V, (q, n, t, k) in zip(decoded, CERTIFICATES):
            cert = lib.localdecode.decode_certificate(V, k)
            out.append((cert, lib.localdecode.verify_certificate(cert)))
        return out

    expected = tuple((True, _decode_m(q, t, k), gaussian_binomial(t + k, k, q), t + k, True)
                     for q, n, t, k in CERTIFICATES)
    jobs.append(Job(
        "decode+verify_certificate " + " ".join(
            f"({q},{n},{t},{k})" for q, n, t, k in CERTIFICATES),
        decode_and_verify,
        lambda results: tuple(
            (ok, cert.m, len(cert.coefficients), cert.envelope.k, cert.decoded_column == V)
            for (cert, ok), V in zip(results, decoded)),
        expect_equal(lambda: expected),
    ))

    q, t, k = DET_BOUNDS
    jobs.append(Job(
        f"check_det_bounds ({q},{t},{k})",
        lambda: lib.localdecode.check_det_bounds(q, t, k),
        lambda r: (r.ok, len(r.checks)),
        expect_equal(lambda: (True, 2 * (t + 1) + 2)),
    ))

    for q, n, k, t in KLP:
        jobs.append(Job(
            f"klp_report ({q},{n},{k},{t})",
            lambda q=q, n=n, k=k, t=t: lib.klp.klp_report(q, n, k, t),
            lambda r: (r.c1_bound, r.c3_bound, r.A_upper, r.B_lower, r.A_exact, r.B_exact,
                       r.block_budget, r.rhs_final, r.feasible),
            _check_klp(q, n, k, t),
            BIGINT_SENSITIVITY,
        ))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# search

# (q, n, k, t, lambda, method); every instance finishes without a deadline.
# Greedy runs at the trivial lambda, where one seeded pass takes every block:
# at 1-(6,2,2)_2 the seeded restart count ranges from 13 to 961 over seeds
# 0..39, so per-seed work would swamp the run-to-run spread.
SEARCHES = (
    (2, 8, 2, 1, 1, "exhaustive"),
    (2, 6, 3, 1, 1, "exhaustive"),
    (4, 4, 2, 1, 1, "exhaustive"),
    (2, 5, 3, 2, 7, "exhaustive"),
    (2, 6, 2, 1, 31, "greedy"),
)

# sha256 of _design_text for the design each instance returns at commit
# 039a20c.  Exhaustive search is deterministic and keeps its solution; greedy
# at the trivial lambda returns every block, whatever the seed.
SEARCH_DIGESTS = {
    (2, 8, 2, 1, 1, "exhaustive"): "f1345ee7fc388059518d1d681b01dcc0b9aa424b69136f08625d229a664c5b95",
    (2, 6, 3, 1, 1, "exhaustive"): "7f828a75c6f7c810dd9cbc33293b711260b54b746214857e45c72fbd508c16c7",
    (4, 4, 2, 1, 1, "exhaustive"): "f0a107d6f80215885a3ccad211f93781199a0dd2660234e9ed1ccbd5df17284b",
    (2, 5, 3, 2, 7, "exhaustive"): "272b1290ecae94c362513e7775fcdc676420cf76bd9e147bbe8826dd79a70503",
    (2, 6, 2, 1, 31, "greedy"): "82290aebd7c9a09bb09e4cb8e1827cffcec1c8aad6098b02c222dc1adbef166e",
}


def _design_digest(q, n, k, blocks) -> str:
    return hashlib.sha256(_design_text(q, n, k, blocks).encode()).hexdigest()


def _search_outcome(q, n, k):
    def outcome(result):
        blocks = getattr(result, "blocks", None)
        if blocks is None:
            return ("no design", repr(result))
        return ("design", _design_digest(q, n, k, blocks), blocks)

    return outcome


def _check_search(lib, q, n, k, t, lam, digest):
    """Re-verify returned blocks by vector-set containment (once per digest)
    and compare the digest with the pinned one."""
    verified = {}

    def check(o):
        if o[0] != "design":
            return f"search returned {o[1]}"
        if o[1] != digest:
            return f"design digest {o[1][:12]} differs from pinned {digest[:12]}"
        if o[1] not in verified:
            blocks = o[2]
            report = _mask_report(lib, q, n, k, t, blocks)
            want_n = lam * gaussian_binomial(n, t, q) // gaussian_binomial(k, t, q)
            ok = report[0] and report[1] == lam and report[2] and len(blocks) == want_n
            verified[o[1]] = None if ok else f"blocks fail the vector-set check: {_short(report[:5])}"
        return verified[o[1]]

    return check


def search(lib, seed: int, workdir: Path) -> Workload:
    jobs = []
    rng = random.Random(f"search:{seed}")
    for key in SEARCHES:
        q, n, k, t, lam, method = key
        greedy_seed = rng.randrange(2**31) if method == "greedy" else 0
        jobs.append(Job(
            f"search_design {method} {t}-({n},{k},{lam})_{q}",
            lambda q=q, n=n, k=k, t=t, lam=lam, method=method, s=greedy_seed:
                lib.search.search_design(q, n, k, t, lam, method=method, seed=s),
            _search_outcome(q, n, k),
            _check_search(lib, q, n, k, t, lam, SEARCH_DIGESTS[key]),
        ))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# cli

CLI_INTERPRETER = "python -c pass"
CLI_IMPORT = "python -c 'import qdesign.cli'"


def parse_transcripts(text: str) -> list[list[tuple[str, str]]]:
    """Per ```console block of worked_examples.md: (arguments, expected stdout)."""
    blocks, current, inside = [], None, False
    for line in text.splitlines():
        if line.strip() == "```console":
            inside, current = True, []
        elif inside and line.strip() == "```":
            blocks.append(current)
            inside = False
        elif inside:
            if line.startswith("$ qdesign "):
                current.append([line[len("$ qdesign "):], ""])
            else:
                current[-1][1] += line + "\n"
    return [[(cmd, out) for cmd, out in block] for block in blocks]


def _run(argv, cwd, env):
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _check_cli(expected_stdout: str, exit_codes: tuple[int, ...]):
    def check(o):
        code, out, err = o
        if code not in exit_codes:
            return f"exit code {code}, stderr {_short(err)}"
        if err:
            return f"unexpected stderr {_short(err)}"
        if out != expected_stdout:
            return f"stdout differs from the transcript: {_short(out)}"
        return None

    return check


def cli(lib, seed: int, workdir: Path) -> Workload:
    root = Path(lib.root)
    transcripts = parse_transcripts(
        (root / "docs" / "worked_examples.md").read_text(encoding="utf-8"))
    env = dict(os.environ)
    env.pop("QDESIGN_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    python = sys.executable

    jobs = [
        Job(CLI_INTERPRETER, lambda: _run([python, "-c", "pass"], workdir, env),
            lambda o: o, _check_cli("", (0,)), CHILD_SENSITIVITY),
        Job(CLI_IMPORT, lambda: _run([python, "-c", "import qdesign.cli"], workdir, env),
            lambda o: o, _check_cli("", (0,)), CHILD_SENSITIVITY),
    ]
    block_dirs = []
    for b, block in enumerate(transcripts):
        # commands of one block share a directory, in order
        cwd = workdir / f"block{b}"
        block_dirs.append(cwd)
        for cmd, expected in block:
            jobs.append(Job(
                f"qdesign {cmd}",
                lambda cmd=cmd, cwd=cwd: _run([python, "-m", "qdesign", *cmd.split()], cwd, env),
                lambda o: o,
                # exit 1 is a documented mathematical "no", e.g. no spread exists
                _check_cli(expected, (0, 1)),
                CHILD_SENSITIVITY,
            ))

    def fresh_dirs():
        for d in block_dirs:
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir()

    return Workload(jobs, before_pass=fresh_dirs, probe=speed.ChildProbe(python, workdir, env))


WORKLOADS = {"coverage": coverage, "oracles": oracles, "search": search, "cli": cli}
