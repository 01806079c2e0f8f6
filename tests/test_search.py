import hashlib
import random
import time

import pytest

from qdesign import grassmann, verifier
from qdesign.errors import TooLarge
from qdesign.gf import make_field
from qdesign.grassmann import SubspaceBasis, unrank
from qdesign.qcount import q_binomial
from qdesign.search import (
    CoverInstance,
    NotFound,
    Timeout,
    _ExactCover,
    build_cover_instance,
    search_design,
)
from qdesign.verifier import DesignCandidate, format_design_text, verify_design

F2 = make_field(2)
F4 = make_field(4)


def test_cover_instance_shapes():
    inst = build_cover_instance(4, 2, 1, 1, F2)
    assert inst.universe_size == 15
    assert len(inst.covers) == 35
    assert all(len(c) == q_binomial(2, 1, 2) == 3 for c in inst.covers)
    assert inst.multiplicity == 1


def test_cover_instance_caps():
    with pytest.raises(TooLarge):
        build_cover_instance(4, 2, 1, 1, F2, max_universe=5)
    with pytest.raises(TooLarge):
        build_cover_instance(4, 2, 1, 1, F2, max_candidates=5)


def test_cover_instance_is_bounded_by_max_candidates_alone():
    # [10 5]_2 = 109,221,651 candidates pass a cap of 10^9, and no cap
    # that the caller did not set refuses them: the build starts, and the
    # caller's tick is the first thing to stop it
    class Stop(Exception):
        pass

    def stop():
        raise Stop

    with pytest.raises(Stop):
        build_cover_instance(10, 5, 1, 1, F2, max_candidates=10**9, tick=stop)


def test_solver_ticks_every_4096_candidates_of_set_up_and_every_node():
    # [4 2]_16 = 70,161 candidates take at least ceil(70161 / 4096) = 18
    # set-up ticks
    inst = build_cover_instance(4, 2, 1, 1, make_field(16))
    ticks = []
    _ExactCover(inst, lambda: ticks.append(None))
    assert len(inst.covers) == 70161 and len(ticks) >= 18

    # then one tick per node
    inst = build_cover_instance(4, 2, 1, 1, F4)
    ticks.clear()
    solver = _ExactCover(inst, lambda: ticks.append(None))
    set_up = len(ticks)
    assert set_up >= 1
    assert solver.solve() is not None
    assert len(ticks) - set_up == solver.nodes > 1


def test_timeout_bounds_the_solver_set_up_and_nodes():
    # the 0.5 s run out in the solver's set-up or first nodes, and the
    # limit is overrun by no more than one tick's grain
    start = time.monotonic()
    result = search_design(16, 4, 2, 1, 1, limit=0.5)
    assert isinstance(result, Timeout)
    assert time.monotonic() - start < 0.8


def test_greedy_pass_ticks_every_4096_candidates():
    # one pass over the 70,161 candidates of [4 2]_16 ticks at candidates
    # 0, 4096, ..., 69632: ceil(70161 / 4096) = 18 times
    inst = build_cover_instance(4, 2, 1, 1, make_field(16))
    ticks = []
    solver = _ExactCover(inst, lambda: ticks.append(None))
    ticks.clear()
    solver.greedy(_order(inst, random.Random(0)))
    assert len(ticks) >= 18


def test_timeout_within_a_2_25_block_pivot_group():
    # the first pivot group of [10 5]_2 holds 2^25 blocks; it is ranked
    # in runs of 4096, with a tick after each, so the 0.3 s limit is not
    # overrun by a whole group
    start = time.monotonic()
    result = search_design(2, 10, 5, 1, 1, limit=0.3, max_candidates=10**9)
    assert isinstance(result, Timeout)
    assert time.monotonic() - start < 0.6


def test_spread_f2_4():
    result = search_design(2, 4, 2, 1, 1)
    assert isinstance(result, DesignCandidate)
    assert len(result.blocks) == 5
    rep = verify_design(result, 1)
    assert rep.is_design and rep.is_simple and not rep.is_trivial and rep.lambda_ == 1


def test_spread_f2_6():
    result = search_design(2, 6, 3, 1, 1)
    assert isinstance(result, DesignCandidate)
    assert len(result.blocks) == 9  # (2^6 - 1) / (2^3 - 1)
    rep = verify_design(result, 1)
    assert rep.is_design and rep.is_simple and not rep.is_trivial and rep.lambda_ == 1


def test_search_result_builds_no_subspace_until_read(monkeypatch):
    # counted through both _trusted names, as the verify door counts them:
    # the chosen blocks are held as packed entries, and built when read
    builds = []
    for module in (grassmann, verifier):
        def counting(*args, real=module._trusted):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(module, "_trusted", counting)
    for q, n, k, t, lam, method in ((2, 6, 3, 1, 1, "exhaustive"), (4, 4, 2, 1, 1, "exhaustive"),
                                    (2, 4, 2, 1, 7, "greedy")):
        field = make_field(q)
        builds.clear()
        result = search_design(q, n, k, t, lam, method=method)
        assert builds == []
        blocks = result.blocks
        assert len(builds) == len(blocks) == lam * q_binomial(n, t, q) // q_binomial(k, t, q)
        # each block canonical, through the checked door, and in rank order
        assert blocks == tuple(SubspaceBasis(field, n, k, tuple(b.entries)) for b in blocks)
        ranks = [grassmann.subspace_rank(b) for b in blocks]
        assert ranks == sorted(set(ranks))
        assert result == DesignCandidate(field, n, k, blocks)


def test_no_spread_f2_3():
    result = search_design(2, 3, 2, 1, 1)
    assert isinstance(result, NotFound)  # 3 does not divide 7


def test_divisibility_pruning_matches_identity():
    # infeasible lambda (fractional N) must short-circuit to NotFound
    from qdesign.verifier import lambda_identity_check

    result = search_design(2, 3, 2, 1, 1)
    assert isinstance(result, NotFound)
    # the identity solved for lambda agrees: N=7/3 fractional
    assert lambda_identity_check(3, 2, 1, 2, 2) is None


def test_lambda_7_forces_trivial_design():
    result = search_design(2, 4, 2, 1, 7)
    assert isinstance(result, DesignCandidate)
    assert len(result.blocks) == 35
    assert verify_design(result, 1).is_trivial


def test_exhaustive_deterministic():
    a = search_design(2, 4, 2, 1, 1)
    b = search_design(2, 4, 2, 1, 1)
    assert a.blocks == b.blocks


def test_greedy_finds_spread():
    result = search_design(2, 4, 2, 1, 1, method="greedy", seed=1, limit=30)
    assert isinstance(result, DesignCandidate)
    rep = verify_design(result, 1)
    assert rep.is_design and rep.lambda_ == 1


def test_greedy_deterministic_per_seed():
    a = search_design(2, 4, 2, 1, 1, method="greedy", seed=5, limit=30)
    b = search_design(2, 4, 2, 1, 1, method="greedy", seed=5, limit=30)
    assert a.blocks == b.blocks


def test_greedy_outcomes_pinned():
    # seeds 0-5 on each instance; the two that fail the count identity
    # pin that greedy keeps to the exhaustive method's early refusal
    h = hashlib.sha256()
    for q, n, k, t, lam in (
        (2, 4, 2, 1, 1), (2, 4, 2, 1, 2), (2, 4, 2, 1, 3), (2, 6, 3, 1, 1),
        (2, 6, 2, 1, 31), (3, 3, 2, 1, 1), (4, 3, 2, 1, 1), (2, 5, 3, 2, 7),
    ):
        for seed in range(6):
            h.update(repr(search_design(q, n, k, t, lam, method="greedy", seed=seed)).encode())
    assert h.hexdigest() == "bdd79e6a2a59492cb7ef8bd71d01176cba6cb90c0302094cbeed9d35002fb9c1"
    # 62 of the 155 lines of F_2^5, each point on 6 of them: every one of
    # the 1000 passes stalls
    stalled = search_design(2, 5, 2, 1, 6, method="greedy")
    assert stalled == NotFound("greedy search stalled after 1000 restarts")


@pytest.mark.parametrize("method", ["exhaustive", "greedy"])
def test_lambda_0_is_the_empty_design(method):
    # every column already has its lambda = 0 covers, so no candidate
    # may be taken
    for q in (2, 3):
        for n, k, t in ((2, 0, 0), (2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 2, 1), (4, 3, 0)):
            result = search_design(q, n, k, t, 0, method=method)
            assert isinstance(result, DesignCandidate), (q, n, k, t)
            assert (result.field.q, result.n, result.k, result.blocks) == (q, n, k, ())


def test_timeout_reports_partial_stats():
    # 2-(6,3,1) over F_2 passes the top-level count identity but a
    # derived divisibility obstruction makes it unattainable, so the
    # greedy method restarts until its deadline
    result = search_design(2, 6, 3, 2, 1, method="greedy", seed=0, limit=0.3)
    assert isinstance(result, Timeout)
    assert 0 < result.best_satisfied <= result.universe_size == 651


def test_exhaustive_timeout():
    result = search_design(2, 6, 3, 2, 1, method="exhaustive", limit=0.3)
    assert isinstance(result, (Timeout, NotFound))
    # with such a small budget the solver cannot complete the proof
    assert isinstance(result, Timeout)


@pytest.mark.parametrize("method", ["exhaustive", "greedy"])
def test_timeout_during_the_build(method):
    # the clock starts before the cover instance is built, and a limit of
    # 0 has passed by the first check, within the first pivot group
    result = search_design(2, 6, 3, 2, 1, method=method, limit=0)
    assert isinstance(result, Timeout)
    assert result.best_satisfied == 0 and result.universe_size == 651


def test_timeout_within_the_first_pivot_group():
    # the first pivot group of the 2-subspaces of F_16^4 holds 65,536 of
    # the 70,161 candidates; the deadline is checked every 4096 of them
    start = time.monotonic()
    result = search_design(16, 4, 2, 1, 1, limit=0)
    assert time.monotonic() - start < 0.1
    assert result == Timeout(result.elapsed, 0, 4369)


def test_unknown_method():
    with pytest.raises(ValueError):
        search_design(2, 4, 2, 1, 1, method="magic")


def test_deep_search_trivial_design():
    # lambda 15 forces every 3-subspace of F_2^6: the search is 1,395
    # levels deep, past the interpreter's default recursion limit
    result = search_design(2, 6, 3, 2, 15)
    assert isinstance(result, DesignCandidate)
    assert len(result.blocks) == 1395
    rep = verify_design(result, 2)
    assert rep.is_design and rep.is_simple and rep.is_trivial and rep.lambda_ == 15


class _RecountingCover(_ExactCover):
    """Checks, at every node, each maintained count against a recount
    from the chosen candidates and the exclusions on the stack."""

    def __init__(self, inst, deadline):
        super().__init__(inst, deadline)
        self.inst = inst
        self.checked = 0

    def _pick_column(self):
        inst = self.inst
        taken = [options[i] for options, i in self.stack]
        assert self.chosen == taken
        excluded = [r for options, i in self.stack for r in options[:i]]
        need = [inst.multiplicity] * inst.universe_size
        for r in taken:
            for c in inst.covers[r]:
                need[c] -= 1
        blocked = [
            taken.count(r) + excluded.count(r) + sum(1 for c in cov if need[c] == 0)
            for r, cov in enumerate(inst.covers)
        ]
        avail = [0] * inst.universe_size
        for r, cov in enumerate(inst.covers):
            if not blocked[r]:
                for c in cov:
                    avail[c] += 1
        assert self.need == need
        assert self.blocked == blocked
        assert self.avail == avail
        assert self.satisfied == sum(1 for nd in need if nd == 0)
        self.checked += 1
        return super()._pick_column()


def _shuffled(inst, rng):
    perm = list(range(len(inst.covers)))
    rng.shuffle(perm)
    return CoverInstance(
        universe_size=inst.universe_size,
        covers=tuple(inst.covers[r] for r in perm),
        multiplicity=inst.multiplicity,
    )


@pytest.mark.parametrize(
    "field, n, k, t, lam",
    [(F2, 4, 2, 1, 1), (F2, 6, 3, 1, 1), (F2, 5, 3, 2, 7), (F4, 4, 2, 1, 1), (F2, 4, 2, 1, 3)],
)
def test_solver_counts_match_recount_at_every_node(field, n, k, t, lam):
    # the canonical candidate order, then seeded shuffles of it, which
    # walk other trees through the same instance; only 1-(4,2,3)_2
    # backtracks much (153 nodes for 21 blocks in canonical order)
    canonical = build_cover_instance(n, k, t, lam, field)
    rng = random.Random(f"{field.q}-{n}-{k}-{t}-{lam}")
    for inst in (canonical, _shuffled(canonical, rng), _shuffled(canonical, rng)):
        solver = _RecountingCover(inst, None)
        rows = solver.solve()
        assert solver.checked == solver.nodes
        assert rows is not None and sorted(rows) == sorted(solver.chosen)


def test_solver_restores_counts_after_exhausting_the_tree():
    # no line spread of F_2^3: 3 does not divide 7
    inst = build_cover_instance(3, 2, 1, 1, F2)
    solver = _RecountingCover(inst, None)
    assert solver.solve() is None
    assert solver.checked == solver.nodes > 1
    assert solver.stack == [] and solver.chosen == []
    assert solver.need == [1] * 7 and solver.blocked == [0] * 7
    assert solver.avail == [3] * 7 and solver.satisfied == 0


@pytest.mark.parametrize(
    "n, k, t, lam, nodes, digest",
    [
        (8, 2, 1, 1, 86, "f1345ee7fc388059518d1d681b01dcc0b9aa424b69136f08625d229a664c5b95"),
        (5, 3, 2, 7, 156, "272b1290ecae94c362513e7775fcdc676420cf76bd9e147bbe8826dd79a70503"),
    ],
)
def test_solver_tree_and_solution_pinned(n, k, t, lam, nodes, digest):
    # a solver that walks a different tree, even to the same solution,
    # changes the node count
    inst = build_cover_instance(n, k, t, lam, F2)
    solver = _ExactCover(inst, None)
    rows = solver.solve()
    assert solver.nodes == nodes
    assert solver.best_satisfied == inst.universe_size
    blocks = tuple(unrank(n, k, F2, r) for r in sorted(rows))
    text = format_design_text(DesignCandidate(field=F2, n=n, k=k, blocks=blocks))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert search_design(2, n, k, t, lam).blocks == blocks


def _greedy_rescan(inst, rng):
    """Reference greedy pass: rescan the order from the start after every
    pick."""
    need = [inst.multiplicity] * inst.universe_size
    order = list(range(len(inst.covers)))
    rng.shuffle(order)
    chosen = []
    progress = True
    while progress:
        progress = False
        for r in order:
            if all(need[c] > 0 for c in inst.covers[r]):
                chosen.append(r)
                for c in inst.covers[r]:
                    need[c] -= 1
                order.remove(r)
                progress = True
                break
    done = all(nd == 0 for nd in need)
    return (chosen if done else None), sum(1 for nd in need if nd == 0)


def _order(inst, rng):
    """A greedy pass's order, drawn as search_design draws it."""
    order = list(range(len(inst.covers)))
    rng.shuffle(order)
    return order


def test_greedy_single_pass_matches_rescan():
    for n, k, t, lam in ((4, 2, 1, 1), (6, 3, 1, 1), (5, 3, 2, 7)):
        inst = build_cover_instance(n, k, t, lam, F2)
        for seed in range(8):
            solver = _ExactCover(inst, None)
            got = solver.greedy(_order(inst, random.Random(seed))), solver.best_satisfied
            assert got == _greedy_rescan(inst, random.Random(seed))


@pytest.mark.parametrize("n, k, t, lam", [(3, 2, 1, 1), (5, 2, 1, 6)])
def test_greedy_pass_restores_counts_after_a_failure(n, k, t, lam):
    # every pass fails on these two, and each failed pass leaves the
    # counts as a fresh solver has them and as a recount finds them, so
    # the next pass starts from the same state
    inst = build_cover_instance(n, k, t, lam, F2)
    fresh = _ExactCover(inst, None)
    solver = _RecountingCover(inst, None)
    rng = random.Random(0)
    for _ in range(3):
        assert solver.greedy(_order(inst, rng)) is None
        for name in ("need", "blocked", "avail", "satisfied", "chosen"):
            assert getattr(solver, name) == getattr(fresh, name), name
        solver._pick_column()
    assert solver.checked == 3
    assert 0 < solver.best_satisfied < inst.universe_size
