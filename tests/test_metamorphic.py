"""Metamorphic checks of verify_design: relations between the reports on
related block sets that hold whatever the counts are.  The supplement of
S in the Grassmannian covers each t-subspace [n-t k-t]_q times less
often than S does, and an invertible map permutes the t-subspaces, so
neither needs a recount to predict its report."""

import random

import pytest

from qdesign.gf import SUPPORTED_ORDERS, make_field, random_invertible
from qdesign.grassmann import apply_map, iter_subspaces
from qdesign.qcount import q_binomial
from qdesign.verifier import DesignCandidate, verify_design

# (n, k, t) per field, kept to at most [4 2]_5 = 806 blocks
SHAPES = {q: [(3, 2, 1), (3, 1, 1)] + [(4, 2, 1), (4, 3, 2)] * (q <= 5) for q in SUPPORTED_ORDERS}


def _split(q, n, k, seed):
    """A seeded simple block set S of 1 to [n k]_q - 1 blocks, and its supplement."""
    field, rng = make_field(q), random.Random(seed)
    everything = list(iter_subspaces(n, k, field))
    chosen = set(rng.sample(range(len(everything)), rng.randrange(1, len(everything))))
    return [DesignCandidate(field, n, k, tuple(b for r, b in enumerate(everything)
                                               if (r in chosen) == side)) for side in (True, False)]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_supplement_reflects_the_histogram(q):
    unique_modes = 0
    for (n, k, t), seed in [(shape, seed) for shape in SHAPES[q] for seed in range(3)]:
        report, other = (verify_design(D, t) for D in _split(q, n, k, 1000 * q + 10 * n + seed))
        top, histogram = q_binomial(n - t, k - t, q), report.counts_histogram
        assert other.counts_histogram == {top - c: m for c, m in histogram.items()}
        assert other.is_design == report.is_design
        if list(histogram.values()).count(max(histogram.values())) == 1:
            # the same count is the odd one out, so the witness is too
            unique_modes += 1
            assert other.failing_t_subspace == report.failing_t_subspace
    assert unique_modes > 0


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_gl_image_keeps_the_histogram(q):
    for n, k, t in SHAPES[q]:
        S, _ = _split(q, n, k, 7 * q + n)
        L = random_invertible(S.field, n, seed=q + n + k)
        image = DesignCandidate(S.field, n, k, tuple(apply_map(L, b) for b in S.blocks))
        report, mapped = verify_design(S, t), verify_design(image, t)
        assert mapped.counts_histogram == report.counts_histogram
        assert (mapped.is_design, mapped.is_simple) == (report.is_design, report.is_simple)
