"""Exact q-combinatorics: q-factorials, Gaussian binomials, and their bounds.

Everything returns plain Python integers, which are arbitrary precision,
so no count in the library can ever overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import SHOWN_BITS, InvalidParameters, TooLarge, TooManyTerms, check_chain, number_text


def validate_q(q: int) -> None:
    """Raise InvalidParameters unless q >= 2 (the q-analogues need q > 1)."""
    if q < 2:
        raise InvalidParameters(f"need q >= 2, got q={q}")


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


def q_binomial_capped(n: int, k: int, q: int, cap: int) -> int:
    """[n k]_q, or TooLarge("[n k]_q = X exceeds cap C") when it exceeds cap.

    For 0 < k < n, [n k]_q > q^e >= 2^b with e = k(n-k) and b = e
    floor(log2 q).  When 2^b alone is past the cap and past the bits a
    message prints in full, the refusal reads "more than q^e" and the
    exact count, whose cost grows about as n^4 at k = n/2, is never
    computed.
    """
    e = k * (n - k)
    b = e * (q.bit_length() - 1)
    if b > SHOWN_BITS and b >= cap.bit_length():
        raise TooLarge(f"[{n} {k}]_{q} = more than {q}^{e} exceeds cap {cap}")
    count = q_binomial(n, k, q)
    if count > cap:
        raise TooLarge(f"[{n} {k}]_{q} = {number_text(count)} exceeds cap {cap}")
    return count


def q_binomial_exceeds(n: int, k: int, q: int, bound: int) -> bool:
    """Whether [n k]_q > bound, without the exact count when the lower
    bound [n k]_q >= q^(k(n-k)) >= 2^b, b = k(n-k) floor(log2 q), already
    exceeds it."""
    b = k * (n - k) * (q.bit_length() - 1)
    return b >= bound.bit_length() or q_binomial(n, k, q) > bound


def q_binomial_via_sum(n: int, k: int, q: int, max_terms: int = 10**6) -> int:
    """Gaussian binomial via the monomial-sum identity.

    Sums q^((s1+...+sk) - k(k+1)/2) over all 1 <= s1 < ... < sk <= n.
    Kept as an independent cross-check of q_binomial; the sum has
    C(n, k) terms, capped at max_terms.
    """
    check_chain(0, k=k, n=n)
    nterms = math.comb(n, k)
    if nterms > max_terms:
        raise TooManyTerms(f"C({n},{k}) = {number_text(nterms)} exceeds cap {max_terms}")
    shift = k * (k + 1) // 2
    total = 0
    for s in combinations(range(1, n + 1), k):
        total += q ** (sum(s) - shift)
    return total


@dataclass(frozen=True)
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
