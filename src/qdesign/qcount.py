"""Exact q-combinatorics: q-factorials, Gaussian binomials, and their bounds.

Everything returns plain Python integers, which are arbitrary precision,
so no count in the library can ever overflow.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

from .errors import (
    SHOWN_BITS, TooLarge, TooManyTerms, _value_class, check_chain, number_text, validate_q,
)


def q_int(i: int, q: int) -> int:
    """The q-integer [i]_q = 1 + q + ... + q^(i-1)."""
    validate_q(q)
    return (q**i - 1) // (q - 1)


def q_factorial(n: int, q: int) -> int:
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q (1 for n = 0)."""
    check_chain(0, n=n)
    out = 1
    for i in range(1, n + 1):
        out *= q_int(i, q)
    return out


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n.

    Computed by the product formula prod_i (q^(n-i) - 1) / (q^(i+1) - 1),
    dividing exactly at each step so intermediates stay small; every
    partial product is itself a Gaussian binomial, hence an integer.
    """
    validate_q(q)
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(k):
        num = out * (q ** (n - i) - 1)
        den = q ** (i + 1) - 1
        out, rem = divmod(num, den)
        assert rem == 0, "q-binomial partial product must divide exactly"
    return out


def capped(
    q: int, factors: list[tuple[int, int]], cap: int, message: str | None = None
) -> list[int]:
    """[n k]_q for each (n, k) in factors, 0 <= k <= n, or TooLarge when
    their product exceeds cap.

    [n k]_q >= q^e, e = k(n-k), so a cap below q^E, E the sum of the e,
    refuses with no count, by bit length before q^E is built; otherwise
    [n k]_q < 4 q^e (Andrews, The Theory of Partitions, ch. 1) and the
    counts are cheap.  The error is message.format(*texts, total=text,
    cap=number_text(cap)), default "[n k]_q = {0} exceeds cap {cap}", a
    text per count and one for the product: number_text of the value, or
    "more than q^e" where the refusal skips a count with e floor(log2 q)
    > SHOWN_BITS.  Nothing is formatted unless the cap refuses.
    """
    log2q = q.bit_length() - 1
    exps = [k * (n - k) for n, k in factors]
    by_bound = sum(exps) * log2q >= cap.bit_length() or q ** sum(exps) > cap
    counts = [
        None if by_bound and e * log2q > SHOWN_BITS else q_binomial(n, k, q)
        for (n, k), e in zip(factors, exps)
    ]
    total = None if None in counts else math.prod(counts)
    if not by_bound and total <= cap:
        return counts
    if message is None:
        ((n, k),) = factors
        message = f"[{n} {k}]_{q} = {{0}} exceeds cap {{cap}}"
    texts = [
        f"more than {q}^{e}" if c is None else number_text(c)
        for c, e in zip([*counts, total], [*exps, sum(exps)])
    ]
    raise TooLarge(message.format(*texts[:-1], total=texts[-1], cap=number_text(cap)))


def q_binomial_via_sum(n: int, k: int, q: int, max_terms: int = 10**6) -> int:
    """Gaussian binomial via the monomial-sum identity.

    Sums q^((s1+...+sk) - k(k+1)/2) over all 1 <= s1 < ... < sk <= n.
    Kept as an independent cross-check of q_binomial; the sum has
    C(n, k) terms, capped at max_terms.
    """
    check_chain(0, k=k, n=n)
    nterms = math.comb(n, k)
    if nterms > max_terms:
        raise TooManyTerms(f"C({n},{k}) = {number_text(nterms)} exceeds cap {number_text(max_terms)}")
    shift = k * (k + 1) // 2
    total = 0
    for s in combinations(range(1, n + 1), k):
        total += q ** (sum(s) - shift)
    return total


@_value_class
class BinomialBounds:
    lower: int
    value: int
    upper: int
    ok: bool


def check_bounds(n: int, k: int, q: int) -> BinomialBounds:
    """Term-counting bounds: q^(k(n-k)) <= [n k]_q <= C(n,k) q^(k(n-k)).

    The lower bound is the largest monomial in the sum identity; the
    upper bound multiplies it by the number of terms.
    """
    check_chain(0, k=k, n=n)
    lower = q ** (k * (n - k))
    upper = math.comb(n, k) * lower
    value = q_binomial(n, k, q)
    return BinomialBounds(lower=lower, value=value, upper=upper, ok=lower <= value <= upper)
