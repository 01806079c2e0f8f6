"""Machine-speed correction for the end-to-end times.

The reference machine is a shared 2-core VM whose speed switches, in spells
of a tenth of a second to minutes, between a fast and a slow state about 1.8x
apart (steal time stays near zero; the contention is outside the VM).  Over
one run the share of slow time varies so much that raw medians of ten runs
spread by 20-40%.  Not every job slows alike: pure-Python search slows more
than the probe below, and C big-integer arithmetic (`klp_report`) hardly at
all.

So every timed call runs under a speed probe.  An interval timer fires every
`PERIOD_S`; the handler times a fixed, tiny Python loop and records it.  A
call's probe time is the mean over the probes taken just before it and
during it, without the slowest `TRIM` of them, and the probes' own cost is
taken out of the call's time.

A job that runs in a child process (the `cli` workload) is out of the
probe's sight.  Its probe is a reference child instead: `python -c pass`,
which runs none of the program, started right before the job and timed.

Each sample is then rescaled to the reference speed with the job's
sensitivity `s` to machine speed (workloads.py): 1 for interpreted
Python, 0.25 for C big-integer arithmetic, 1 for a child process:

    seconds_at_reference = seconds / speed ** s
    speed = probe time / probe time at the reference speed

The sensitivities are fixed, not fitted per run: a slope fitted to one
run's few samples wanders from 0.4 to 1.2 when the probe times vary
little, and a wrong slope scales the distance from the reference into the
result.

A change to the program moves the seconds and not the probe, so it shows
in full; a change of machine speed moves both and cancels.  The raw
seconds are printed next to the corrected ones.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
from time import perf_counter

PERIOD_S = 0.01
PROBE_LOOPS = 400
PRE_PROBES = 3  # probes taken right before each call, so even a short call has some
# Probe time of the reference machine midway between its fast (about 40 us)
# and slow (about 75 us) states.
REFERENCE_PROBE_S = 55e-6
# `python -c pass` on the reference machine
REFERENCE_CHILD_S = 0.08
# Share of a call's probes, the slowest, left out of its probe time.  In
# noisy spells interrupts and context switches make some probes several
# times slower than the rest, and a plain mean then reads the machine as
# slower than the call found it: over a run with set-ups, dropping the
# slowest 20% raised the share of job-time variance that the probe explains
# from 0.82 to 0.87 on `search` and from 0.69 to 0.82 on `coverage`.
TRIM = 0.2


class SpeedProbe:
    """Times calls while an interval timer samples the machine's speed."""

    def __init__(self) -> None:
        self._probes: list[float] = []
        self._busy = False

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:  # a timer signal that lands inside a probe
            return
        self._busy = True
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc ^= (i * 2654435761) & 0xFFFF
        self._probes.append(perf_counter() - t0)
        self._busy = False

    def time(self, fn):
        """Call `fn`; return (its result or the exception it raised,
        seconds net of probe cost, speed relative to the reference)."""
        self._probes = []
        for _ in range(PRE_PROBES):
            self._probe()
        pre_cost = sum(self._probes)
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as a failed job
            result = exc
        finally:
            dt = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        probes = sorted(self._probes)
        kept = probes[:len(probes) - int(len(probes) * TRIM)]
        return result, dt - (sum(probes) - pre_cost), statistics.fmean(kept) / REFERENCE_PROBE_S


class ChildProbe:
    """Times calls that run a child process, each after a reference child."""

    def __init__(self, python: str, cwd, env) -> None:
        self._reference = [python, "-c", "pass"]
        self._cwd, self._env = cwd, env

    def time(self, fn):
        """Like SpeedProbe.time; the speed is the reference child's time."""
        t0 = perf_counter()
        subprocess.run(self._reference, cwd=self._cwd, env=self._env,
                       capture_output=True, check=True, timeout=60)
        reference = perf_counter() - t0
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as a failed job
            result = exc
        return result, perf_counter() - t0, reference / REFERENCE_CHILD_S


def correct(samples: list[tuple[float, float, float]]) -> list[float]:
    """Reference-speed seconds of each (seconds, speed, sensitivity) sample."""
    return [sec / speed**s for sec, speed, s in samples]
