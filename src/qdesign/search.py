"""Desk-scale design search: exhaustive exact multi-cover and randomized
greedy.

A t-(n, k, lambda) design is a selection of candidate k-subspaces
covering every t-subspace exactly lambda times, so the search reduces to
exact multi-cover over the canonical enumerations; a candidate covers
the columns at the canonical ranks of its own t-subspaces
(grassmann.t_subspace_ranks).  The exhaustive
method branches on the most-constrained deficient column; at each node
the candidates covering it are tried in canonical order and earlier
alternatives are excluded in the subtree, which partitions the solution
space (branch i commits to candidate i being the lowest-index block
covering that column), so the search is complete and deterministic.
The greedy method repeatedly picks a random block that over-covers
nothing, restarting until the time budget runs out; it makes no
completeness claim.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .errors import TooLarge
from .gf import FieldSpec
from .grassmann import enumerate_subspaces, t_subspace_ranks
from .qcount import q_binomial
from .verifier import DesignCandidate, verify_design


@dataclass(frozen=True)
class CoverInstance:
    universe: tuple
    candidates: tuple
    covers: tuple[tuple[int, ...], ...]
    multiplicity: int


@dataclass(frozen=True)
class NotFound:
    reason: str


@dataclass(frozen=True)
class Timeout:
    elapsed: float
    best_satisfied: int
    universe_size: int


def build_cover_instance(
    n: int,
    k: int,
    t: int,
    lam: int,
    field: FieldSpec,
    max_universe: int = 10**4,
    max_candidates: int = 10**5,
) -> CoverInstance:
    q = field.q
    if q_binomial(n, t, q) > max_universe:
        raise TooLarge(f"universe [{n} {t}]_{q} exceeds cap {max_universe}")
    if q_binomial(n, k, q) > max_candidates:
        raise TooLarge(f"candidates [{n} {k}]_{q} exceed cap {max_candidates}")
    candidates = enumerate_subspaces(n, k, field)
    return CoverInstance(
        universe=tuple(enumerate_subspaces(n, t, field)),
        candidates=tuple(candidates),
        # a universe index is a canonical rank
        covers=tuple(tuple(sorted(t_subspace_ranks(b, t))) for b in candidates),
        multiplicity=lam,
    )


class _Expired(Exception):
    pass


class _ExactCover:
    """Backtracking exact multi-cover in canonical order."""

    def __init__(self, inst: CoverInstance, deadline: float | None):
        self.inst = inst
        self.deadline = deadline
        ncols = len(inst.universe)
        self.need = [inst.multiplicity] * ncols
        self.col_cands = [[] for _ in range(ncols)]
        for r, cov in enumerate(inst.covers):
            for c in cov:
                self.col_cands[c].append(r)
        self.used = [False] * len(inst.candidates)
        self.excluded = [0] * len(inst.candidates)
        self.chosen: list[int] = []
        self.best_satisfied = 0
        self.nodes = 0

    def _usable(self, r: int) -> bool:
        if self.used[r] or self.excluded[r]:
            return False
        return all(self.need[c] > 0 for c in self.inst.covers[r])

    def _pick_column(self) -> int | None:
        best = None
        best_key = None
        for c, nd in enumerate(self.need):
            if nd == 0:
                continue
            avail = sum(1 for r in self.col_cands[c] if self._usable(r))
            if avail < nd:
                return -1  # dead end
            key = (avail, c)
            if best_key is None or key < best_key:
                best, best_key = c, key
        return best

    def solve(self) -> list[int] | None:
        self.nodes += 1
        if self.deadline is not None and self.nodes % 64 == 0:
            if time.monotonic() > self.deadline:
                raise _Expired
        satisfied = sum(1 for nd in self.need if nd == 0)
        self.best_satisfied = max(self.best_satisfied, satisfied)
        col = self._pick_column()
        if col is None:
            return list(self.chosen)
        if col == -1:
            return None
        options = [r for r in self.col_cands[col] if self._usable(r)]
        newly_excluded: list[int] = []
        try:
            for r in options:
                self.used[r] = True
                self.chosen.append(r)
                for c in self.inst.covers[r]:
                    self.need[c] -= 1
                result = self.solve()
                for c in self.inst.covers[r]:
                    self.need[c] += 1
                self.chosen.pop()
                self.used[r] = False
                if result is not None:
                    return result
                self.excluded[r] += 1
                newly_excluded.append(r)
            return None
        finally:
            for r in newly_excluded:
                self.excluded[r] -= 1


def _greedy_once(inst: CoverInstance, rng: random.Random) -> tuple[list[int] | None, int]:
    """One greedy pass; returns (solution or None, columns fully satisfied)."""
    ncols = len(inst.universe)
    need = [inst.multiplicity] * ncols
    order = list(range(len(inst.candidates)))
    rng.shuffle(order)
    chosen = []
    remaining = inst.multiplicity * ncols
    progress = True
    while remaining and progress:
        progress = False
        for r in order:
            cov = inst.covers[r]
            if all(need[c] > 0 for c in cov):
                chosen.append(r)
                for c in cov:
                    need[c] -= 1
                remaining -= len(cov)
                progress = True
                break
        if progress:
            order.remove(chosen[-1])
    satisfied = sum(1 for nd in need if nd == 0)
    return (chosen if remaining == 0 else None), satisfied


def search_design(
    q: int,
    n: int,
    k: int,
    t: int,
    lam: int,
    method: str = "exhaustive",
    seed: int = 0,
    limit: float | None = None,
    field: FieldSpec | None = None,
    max_universe: int = 10**4,
    max_candidates: int = 10**5,
):
    """Search for a simple t-(n, k, lam) design over F_q.

    Returns a verified DesignCandidate, NotFound (for the exhaustive
    method this is a completeness statement), or Timeout with partial
    coverage statistics.
    """
    if method not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown method {method!r}")
    if field is None:
        from .gf import make_field

        field = make_field(q)

    # the block count N is forced by lam [n t]_q = N [k t]_q; a fractional
    # N rules the design out before any search (same identity as
    # lambda_identity_check, solved for N instead of lambda)
    lam_blocks = lam * q_binomial(n, t, q)
    per_block = q_binomial(k, t, q)
    if lam_blocks % per_block != 0:
        return NotFound("coverage identity has no integer block count")
    target_n = lam_blocks // per_block
    if target_n > q_binomial(n, k, q):
        return NotFound("required block count exceeds the number of k-subspaces")

    inst = build_cover_instance(
        n, k, t, lam, field, max_universe=max_universe, max_candidates=max_candidates
    )
    deadline = None if limit is None else time.monotonic() + limit
    start = time.monotonic()

    if method == "exhaustive":
        solver = _ExactCover(inst, deadline)
        try:
            rows = solver.solve()
        except _Expired:
            return Timeout(
                elapsed=time.monotonic() - start,
                best_satisfied=solver.best_satisfied,
                universe_size=len(inst.universe),
            )
        if rows is None:
            return NotFound("exhaustive search completed without a solution")
    else:
        rng = random.Random(seed)
        rows = None
        best = 0
        restarts = 0
        # a fixed restart budget keeps the no-deadline outcome
        # deterministic per seed; a deadline overrides it
        max_restarts = 1000 if limit is None else None
        while rows is None:
            if deadline is not None and time.monotonic() > deadline:
                return Timeout(
                    elapsed=time.monotonic() - start,
                    best_satisfied=best,
                    universe_size=len(inst.universe),
                )
            if max_restarts is not None and restarts >= max_restarts:
                return NotFound(f"greedy search stalled after {max_restarts} restarts")
            attempt, satisfied = _greedy_once(inst, rng)
            restarts += 1
            best = max(best, satisfied)
            if attempt is not None:
                rows = attempt

    chosen = tuple(inst.candidates[r] for r in sorted(rows))
    assert len(chosen) == target_n
    candidate = DesignCandidate(field=field, n=n, k=k, blocks=chosen)
    report = verify_design(candidate, t)
    if not (report.is_design and report.is_simple and report.lambda_ == lam):
        raise AssertionError("search produced a non-design; solver bug")
    return candidate
