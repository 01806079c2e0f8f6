"""qdesign benchmark: one workload, fixed work, checked outputs.

    python3 bench/run.py --workload coverage --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `qdesign` from its
`src/`; nothing is installed.  Single process, one thread (the `cli`
workload runs its commands as child processes, one at a time).

A run times a fixed number of passes over the workload's job list.  The
pass count depends only on `--seconds`: it is `--seconds` divided by the
workload's nominal pass time on the reference machine, so every run of one
setting does the same work whatever the speed of the code.  Before every
untraced pass the workload is set up again from a fresh import; the median
set-up time is `setup_s`.  After the passes, every recorded outcome is
checked against its oracle.

Every job and set-up is timed under a speed probe of speed.py, and every
end-to-end time is reported at the reference machine speed; the raw wall
times are printed too.  A pass time is the sum of its job times.

With `--trace 0` the last line reports the end-to-end metrics and no
wrapper is installed.  With `--trace 1` the first half of the passes runs
untraced and the rest traced (see spans.py); the last line reports the
per-layer metrics, including the tracing overhead.  The lines before it
give run metadata, per-job medians and any failed checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 20  # per-job samples, so a tail percentile has 10 beyond it
TAIL_BEYOND = 10
# Seconds per pass on the reference machine (2 shared cores, Python 3.11) when
# it is not contended.  At --seconds 20 they give 7 passes (4 for oracles),
# which puts job_p50_s and the job_tail_s rank inside one job's samples rather
# than on the boundary between two jobs of different length.
NOMINAL_PASS_S = {"coverage": 3.0, "oracles": 5.0, "search": 3.0, "cli": 3.0}


def per_layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass; 0 for layers the pass did not call."""

    def span(name):
        return tracer.spans.get(name) or spans.Span()

    out = {}
    for name in ("gf.rref", "gf.mat_mul", "gf.rank_of_rows", "grassmann.subspace_from_rows",
                 "grassmann.extensions", "grassmann.intersect_dim"):
        out[f"{name}.calls"] = span(name).calls
        out[f"{name}.self_s"] = span(name).self_s
    out["gf.MatrixGFq.created"] = tracer.counts.get("gf.MatrixGFq.created", 0)
    out["grassmann.iter_subspaces.yielded"] = span("grassmann.iter_subspaces").calls
    out["grassmann.iter_subspaces.self_s"] = span("grassmann.iter_subspaces").self_s
    out["grassmann.vector_mask.computed"] = span("grassmann.vector_mask").calls
    out["grassmann.vector_mask.self_s"] = span("grassmann.vector_mask").self_s
    out["incidence.build_incidence.self_s"] = span("incidence.build_incidence").self_s
    out["incidence.build_incidence.bits"] = tracer.counts.get("incidence.build_incidence.bits", 0)
    out["verifier.verify_design.self_s"] = span("verifier.verify_design").self_s
    out["verifier.patterns_pushed"] = tracer.counts.get("verifier.patterns_pushed", 0)
    out["verifier.load_design.self_s"] = span("verifier.load_design").self_s
    lemma2 = span("localdecode.lemma2_grid_report")
    out["localdecode.lemma2_grid_report.self_s"] = lemma2.self_s
    pairs = tracer.counts.get("localdecode.lemma2.pairs", 0)
    out["localdecode.lemma2.pairs_per_s"] = pairs / lemma2.total_s if lemma2.total_s else 0.0
    out["localdecode.decode_certificate.self_s"] = span("localdecode.decode_certificate").self_s
    out["localdecode.verify_certificate.self_s"] = span("localdecode.verify_certificate").self_s
    out["localdecode.solve_coefficients.calls"] = span("localdecode.solve_coefficients").calls
    out["localdecode.det_bareiss.calls"] = span("localdecode.det_bareiss").calls
    out["klp.klp_report.self_s"] = span("klp.klp_report").self_s
    out["klp.pow_frac_ceil.self_s"] = span("klp.pow_frac_ceil").self_s
    out["qcount.q_binomial.calls"] = tracer.counts.get("qcount.q_binomial.calls", 0)
    out["search.build_cover_instance.self_s"] = span("search.build_cover_instance").self_s
    out["search.search_design.self_s"] = span("search.search_design").self_s
    return out


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def forget_library() -> None:
    for name in [m for m in sys.modules if m == "qdesign" or m.startswith("qdesign.")]:
        del sys.modules[name]


def import_library():
    """Import qdesign from this checkout's src/, dropping any earlier import."""
    forget_library()
    import qdesign

    src = ROOT / "src"
    if Path(qdesign.__file__).resolve().parent != src / "qdesign":
        raise SystemExit(f"error: imported qdesign from {qdesign.__file__}, not {src}")
    return SimpleNamespace(
        root=str(ROOT),
        **{m: sys.modules[f"qdesign.{m}"] for m in (
            "gf", "qcount", "grassmann", "incidence", "verifier", "localdecode", "klp",
            "search")},
    )


def run_pass(workload, records):
    """Time one pass; append (job name, seconds, speed, outcome or exception)
    per job.  A raising job is a failed job, not a crash."""
    workload.before_pass()
    gc.collect()
    for job in workload.jobs:
        result, dt, speed_ = workload.probe.time(job.call)
        outcome = result
        if not isinstance(result, Exception):
            try:
                outcome = job.outcome(result)
            except Exception as exc:
                outcome = exc
        del result
        records.append((job.name, dt, speed_, outcome))


def pass_totals(times: list[float], jobs_per_pass: int) -> list[float]:
    return [sum(times[i:i + jobs_per_pass]) for i in range(0, len(times), jobs_per_pass)]


def check_records(records, workload) -> list[str]:
    checks = {job.name: job.check for job in workload.jobs}
    failures = []
    for name, _, _, outcome in records:
        if isinstance(outcome, Exception):
            failures.append(f"{name}: raised {type(outcome).__name__}: {outcome}")
            continue
        try:
            reason = checks[name](outcome)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{name}: {reason}")
    return failures


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """Highest integer percentile (nearest rank) with TAIL_BEYOND samples above it."""
    s = sorted(samples)
    n = len(s)
    p = max(1, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = math.ceil(p * n / 100)
    return p, s[rank - 1], n - rank


def metadata() -> dict:
    sha = "none (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                sha = ref_path.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                lines = packed.read_text().splitlines() if packed.is_file() else []
                sha = next((ln.split()[0] for ln in lines if ln.endswith(" " + ref[5:])), ref)
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "qdesign" / "__init__.py", ROOT / "docs" / "worked_examples.md"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a qdesign source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # on SIGTERM, unwind so the work directory is removed and children are reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, workdir: Path) -> int:
    build = workloads.WORKLOADS[args.workload]
    probe = speed.SpeedProbe()
    setups = []  # (seconds, speed) per set-up

    def set_up():
        # a fresh import and an empty work directory each time
        shutil.rmtree(workdir)
        workdir.mkdir()
        forget_library()
        gc.collect()
        workload, dt, speed_ = probe.time(lambda: build(import_library(), args.seed, workdir))
        if isinstance(workload, Exception):
            raise workload
        setups.append((dt, speed_))
        return workload

    workload = set_up()
    jobs_per_pass = len(workload.jobs)
    passes = max(math.ceil(MIN_SAMPLES / jobs_per_pass),
                 round(args.seconds / NOMINAL_PASS_S[args.workload]))
    records, traced_records, layer_samples = [], [], []
    untraced_passes = passes if not args.trace else max(1, passes // 2)
    for i in range(untraced_passes):
        if i:
            # set-ups spread over the run see the same contention as the passes
            workload = None
            workload = set_up()
        run_pass(workload, records)
    if args.trace:
        tracer = spans.Tracer()
        installation = spans.install(tracer)
        try:
            for _ in range(max(1, passes - untraced_passes)):
                tracer.reset()
                run_pass(workload, traced_records)
                layer_samples.append(per_layer_metrics(tracer))
        finally:
            installation.uninstall()

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(usage).ru_maxrss / 1024
    all_records = records + traced_records
    failures = check_records(all_records, workload)
    attempted, failed = len(all_records), len(failures)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("meta " + "  ".join(f"{k} {v}" for k, v in metadata().items()))
    # every time below is at the reference machine speed (speed.py);
    # "raw" marks times as the clock read them
    sensitivity = {job.name: job.sensitivity for job in workload.jobs}
    samples = speed.correct([(dt, v, sensitivity[name]) for name, dt, v, _ in records])
    pass_times = pass_totals(samples, jobs_per_pass)
    traced_pass_times = pass_totals(
        speed.correct([(dt, v, sensitivity[name]) for name, dt, v, _ in traced_records]),
        jobs_per_pass)
    # every set-up, the cli one too, imports and builds inputs in this process
    setup_times = speed.correct(
        [(dt, v, workloads.INTERPRETED_SENSITIVITY) for dt, v in setups])
    print(f"passes {len(pass_times)} untraced + {len(traced_pass_times)} traced, "
          f"{jobs_per_pass} jobs per pass, {len(setup_times)} set-ups")
    print("pass times s: " + " ".join(f"{t:.3f}" for t in pass_times)
          + (" | traced: " + " ".join(f"{t:.3f}" for t in traced_pass_times)
             if traced_pass_times else ""))
    print("raw pass times s: " + " ".join(
        f"{t:.3f}" for t in pass_totals([r[1] for r in records], jobs_per_pass)))
    print("setup times s: " + " ".join(f"{t:.4f}" for t in setup_times))
    print("raw setup times s: " + " ".join(f"{dt:.4f}" for dt, _ in setups))
    print("median speed per pass (probe time / reference): " + " ".join(
        f"{statistics.median(r[2] for r in records[i:i + jobs_per_pass]):.3f}"
        for i in range(0, len(records), jobs_per_pass)))
    by_job: dict[str, list[float]] = {}
    raw_by_job: dict[str, list[float]] = {}
    for (name, raw, _, _), dt in zip(records, samples):
        by_job.setdefault(name, []).append(dt)
        raw_by_job.setdefault(name, []).append(raw)
    for name, times in by_job.items():
        print(f"job {statistics.median(times):.4f} s (raw {statistics.median(raw_by_job[name]):.4f})"
              f"  median of {len(times)}  {name}")
    print(f"failed_ratio {failed / attempted:g} ({failed} of {attempted} jobs failed)")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    if args.trace:
        layer = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
        layer.update(cli_layer(by_job))
        layer["trace.overhead_s"] = (statistics.median(traced_pass_times)
                                     - statistics.median(pass_times))
        metrics = {k: (v, _unit(k)) for k, v in layer.items()}
    else:
        tail_p, _, beyond = tail_percentile(samples)
        print(f"job_tail_s is p{tail_p} over {len(samples)} samples ({beyond} beyond)")
        metrics = end_to_end_metrics(pass_times, samples, setup_times, peak_rss_mib,
                                     attempted, failed)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end_metrics(pass_times, samples, setup_times, peak_rss_mib, attempted, failed):
    """name -> (value, unit) of every end-to-end metric."""
    return {
        "pass_s": (statistics.median(pass_times), "s"),
        "job_p50_s": (statistics.median(samples), "s"),
        "job_tail_s": (tail_percentile(samples)[1], "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def cli_layer(by_job: dict[str, list[float]]) -> dict[str, float]:
    """cli jobs run in child processes, which tracing does not reach: the cli
    layer is read from their wall times instead (0 on other workloads)."""

    def median(name):
        return statistics.median(by_job[name]) if name in by_job else 0.0

    commands = [statistics.median(t) for name, t in by_job.items()
                if name.startswith("qdesign ")]
    interpreter = median(workloads.CLI_INTERPRETER)
    return {
        "cli.interpreter_s": interpreter,
        "cli.import_s": median(workloads.CLI_IMPORT) - interpreter,
        "cli.command_s": statistics.median(commands) if commands else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
