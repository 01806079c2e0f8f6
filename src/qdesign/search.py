"""Desk-scale design search: exhaustive exact multi-cover and randomized
greedy.

A t-(n, k, lambda) design is a selection of candidate k-subspaces
covering every t-subspace exactly lambda times, so the search reduces to
exact multi-cover over the canonical enumerations.  Candidate r is the
k-subspace of canonical rank r, kept only as the columns it covers, the
ranks of its own t-subspaces, taken in runs of one pivot group at a
time (grassmann._rank_runs).  search_design unranks the blocks it chose
into one packed buffer, as load_design holds a file's blocks, and
builds no SubspaceBasis until a caller reads them.  One clock,
search_design's tick, bounds the build, the solver and the greedy
restarts: the build once per run of grassmann._CHUNK, the solver's
set-up and each greedy pass every _TICK_EVERY candidates.

The exhaustive method branches on the deficient column with the fewest
usable candidates, lowest index first; at each node the candidates
covering it are tried in canonical order and earlier alternatives are
excluded in the subtree, which partitions the solution space (branch i
commits to candidate i being the lowest-index block covering that
column), so the search is complete and deterministic.  Per-column
availability and per-candidate block counts are updated as candidates
are taken and excluded, and undone on backtrack, so a node costs one
scan of the columns plus the work its choice touches; the levels live
on an explicit stack, so designs of any block count are in reach.

The greedy method takes, in a shuffled order, every block that
over-covers nothing, restarting until the time budget runs out; it
makes no completeness claim.  Its passes run on the exhaustive solver's
counts ("over-covers nothing" is "unblocked"); a failed pass undoes its
takes, so every restart starts from the same state.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable
from itertools import chain, count

from .errors import InvalidParameters, _partial, _value_class, check_chain
from .gf import FieldSpec, make_field
from .grassmann import _pivot_groups, _rank_runs, _unrank_sorted
from .qcount import capped, q_binomial
from .verifier import DesignCandidate, verify_design

_TICK_EVERY = 4096  # candidates between the solver's clock checks


@_value_class
class CoverInstance:
    universe_size: int
    covers: tuple[tuple[int, ...], ...]
    multiplicity: int


@_value_class
class NotFound:
    reason: str


@_value_class
class Timeout:
    elapsed: float
    best_satisfied: int
    universe_size: int


def _capped_counts(
    q: int, n: int, k: int, t: int, max_universe: int, max_candidates: int
) -> tuple[int, int]:
    """[n t]_q and [n k]_q, or TooLarge past the universe or candidate cap."""
    (n_t,) = capped(q, [(n, t)], max_universe, f"universe [{n} {t}]_{q} exceeds cap {{cap}}")
    (n_k,) = capped(q, [(n, k)], max_candidates, f"candidates [{n} {k}]_{q} exceed cap {{cap}}")
    return n_t, n_k


def build_cover_instance(
    n: int,
    k: int,
    t: int,
    lam: int,
    field: FieldSpec,
    max_universe: int = 10**4,
    max_candidates: int = 10**5,
    *,
    tick: Callable[[], None] | None = None,
) -> CoverInstance:
    """The columns each candidate covers, candidate r being the
    k-subspace of canonical rank r; tick, if given, is called after each
    of _rank_runs' runs."""
    check_chain(0, t=t, k=k, n=n)
    n_t, _ = _capped_counts(field.q, n, k, t, max_universe, max_candidates)

    # a column index is a t-subspace's canonical rank, and the kernel
    # lists a block's ranks in increasing order
    runs = _rank_runs(field, n, t, _pivot_groups(n, k, field.q), tick)
    covers = tuple(chain.from_iterable(zip(*run) for run in runs))
    return CoverInstance(universe_size=n_t, covers=covers, multiplicity=lam)


class _Expired(Exception):
    pass


class _ExactCover:
    """Exact multi-cover counts, shared by backtracking in canonical
    order (solve) and greedy passes in a given order (greedy).

    Three counts are kept up to date as candidates are taken, undone,
    excluded and released, so no node recounts from scratch (the
    multiplicity form of dancing links, Knuth TAOCP 4B 7.2.2.1
    Algorithm M):

    - need[c]: how many more times column c must be covered;
    - blocked[r]: how many reasons candidate r is unusable -- it is
      taken, it is excluded, or it covers a satisfied column (one reason
      per such column);
    - avail[c]: how many candidates covering column c are unblocked;

    plus `satisfied`, the number of columns with need 0.  The search
    runs on an explicit stack of [options, index of the option taken]
    frames, one per level, so its depth (the block count) is not bounded
    by the interpreter's recursion limit.

    tick, if given, is called during the set-up, at every node and
    every _TICK_EVERY candidates of a greedy pass, and may stop the
    search by raising.
    """

    def __init__(self, inst: CoverInstance, tick: Callable[[], None] | None = None):
        self.covers = inst.covers
        self.tick = tick or (lambda: None)
        ncols = inst.universe_size
        self.need = [inst.multiplicity] * ncols
        self.col_cands = [[] for _ in range(ncols)]
        for r, cov in enumerate(inst.covers):
            if not r % _TICK_EVERY:
                self.tick()
            for c in cov:
                self.col_cands[c].append(r)
        self.avail = [len(rows) for rows in self.col_cands]
        self.blocked = [0] * len(inst.covers)
        self.satisfied = 0
        self.chosen: list[int] = []
        self.stack: list[list] = []
        self.best_satisfied = 0
        self.nodes = 0
        if not inst.multiplicity:  # lambda = 0: every column starts satisfied
            self.satisfied = ncols
            for rows in self.col_cands:
                self._block(rows)

    def _block(self, rows) -> None:
        blocked, avail, covers = self.blocked, self.avail, self.covers
        for r in rows:
            blocked[r] += 1
            if blocked[r] == 1:
                for c in covers[r]:
                    avail[c] -= 1

    def _unblock(self, rows) -> None:
        blocked, avail, covers = self.blocked, self.avail, self.covers
        for r in rows:
            blocked[r] -= 1
            if not blocked[r]:
                for c in covers[r]:
                    avail[c] += 1

    def _take(self, r: int) -> None:
        need = self.need
        self.chosen.append(r)
        self._block((r,))
        for c in self.covers[r]:
            need[c] -= 1
            if not need[c]:
                self.satisfied += 1
                self._block(self.col_cands[c])

    def _untake(self, r: int) -> None:
        need = self.need
        for c in self.covers[r]:
            if not need[c]:
                self.satisfied -= 1
                self._unblock(self.col_cands[c])
            need[c] += 1
        self._unblock((r,))
        self.chosen.pop()

    def _pick_column(self) -> int | None:
        """The deficient column with the fewest available candidates,
        lowest index first; -1 if some deficient column cannot be
        completed, None if every column is satisfied."""
        best = None
        best_avail = 0
        for c, (nd, avail) in enumerate(zip(self.need, self.avail)):
            if nd == 0:
                continue
            if avail < nd:
                return -1  # dead end
            if best is None or avail < best_avail:
                best, best_avail = c, avail
        return best

    def solve(self) -> list[int] | None:
        stack, tick = self.stack, self.tick
        while True:
            # enter a node
            self.nodes += 1
            tick()
            self.best_satisfied = max(self.best_satisfied, self.satisfied)
            col = self._pick_column()
            if col is None:
                return list(self.chosen)
            options = [] if col == -1 else [
                r for r in self.col_cands[col] if not self.blocked[r]
            ]
            # try each option in turn; a failed option stays excluded in
            # the subtrees of its siblings, and all are released when the
            # frame is exhausted
            stack.append([options, -1])
            while stack:
                frame = stack[-1]
                options, i = frame
                if i >= 0:
                    self._untake(options[i])
                    self._block((options[i],))
                i += 1
                if i < len(options):
                    frame[1] = i
                    self._take(options[i])
                    break
                self._unblock(options)
                stack.pop()
            else:
                return None

    def greedy(self, order: list[int]) -> list[int] | None:
        """Take, in order, every unblocked candidate: need only
        decreases, so one passed over never becomes takeable and one pass
        suffices.  Returns the candidates taken if every column is
        satisfied; else undoes them, so the next pass starts afresh."""
        blocked, tick = self.blocked, self.tick
        for i, r in enumerate(order):
            if not i % _TICK_EVERY:
                tick()
            if not blocked[r]:
                self._take(r)
        self.best_satisfied = max(self.best_satisfied, self.satisfied)
        if self.satisfied == len(self.need):
            return list(self.chosen)
        while self.chosen:
            self._untake(self.chosen[-1])
        return None


def search_design(
    q: int,
    n: int,
    k: int,
    t: int,
    lam: int,
    method: str = "exhaustive",
    seed: int = 0,
    limit: float | None = None,
    max_universe: int = 10**4,
    max_candidates: int = 10**5,
):
    """Search for a simple t-(n, k, lam) design over F_q.

    Returns a verified DesignCandidate, NotFound (for the exhaustive
    method this is a completeness statement), or Timeout with partial
    coverage statistics.  Raises InvalidParameters for an unknown method
    or a limit that is not finite, DimensionMismatch, before any count is
    taken, unless 0 <= t <= k <= n and lam >= 0, and then TooLarge, before
    the block-count test, if the universe or the candidates exceed their
    caps.  The limit covers the build, the solver's set-up, which both
    methods run, every node and every greedy restart; run out during the
    build or the set-up, it returns Timeout with no column satisfied.
    """
    if method not in ("exhaustive", "greedy"):
        raise InvalidParameters(f"unknown method {method!r}")
    if limit is not None and not math.isfinite(limit):
        raise InvalidParameters(f"timeout must be finite, got {limit}")
    check_chain(0, t=t, k=k, n=n)
    check_chain(0, **{"lambda": lam})
    field = make_field(q)
    n_t, n_k = _capped_counts(q, n, k, t, max_universe, max_candidates)

    # the block count N is forced by lam [n t]_q = N [k t]_q; a fractional
    # N rules the design out before any search (same identity as
    # lambda_identity_check, solved for N instead of lambda)
    lam_blocks = lam * n_t
    per_block = q_binomial(k, t, q)
    if lam_blocks % per_block != 0:
        return NotFound("coverage identity has no integer block count")
    target_n = lam_blocks // per_block
    if target_n > n_k:
        return NotFound("required block count exceeds the number of k-subspaces")

    start = time.monotonic()
    deadline = None if limit is None else start + limit

    def tick() -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise _Expired

    solver = None
    try:
        inst = build_cover_instance(
            n, k, t, lam, field, max_universe=max_universe, max_candidates=max_candidates,
            tick=tick,
        )
        solver = _ExactCover(inst, tick)
        if method == "exhaustive":
            rows = solver.solve()
            if rows is None:
                return NotFound("exhaustive search completed without a solution")
        else:
            rng = random.Random(seed)
            # a fixed restart budget keeps the no-deadline outcome
            # deterministic per seed; a deadline overrides it
            for _ in range(1000) if limit is None else count():
                order = list(range(len(inst.covers)))
                rng.shuffle(order)
                rows = solver.greedy(order)
                if rows is not None:
                    break
            else:
                return NotFound("greedy search stalled after 1000 restarts")
    except _Expired:
        return Timeout(time.monotonic() - start, solver.best_satisfied if solver else 0, n_t)

    assert len(rows) == target_n
    candidate = _partial(DesignCandidate, field=field, n=n, k=k, _count=len(rows),
                         _entries=_unrank_sorted(n, k, field, sorted(rows)))
    report = verify_design(candidate, t, max_columns=n_t)
    if not (report.is_design and report.is_simple and report.lambda_ == lam):
        raise AssertionError("search produced a non-design; solver bug")
    return candidate
