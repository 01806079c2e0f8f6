"""Exact-integer evaluation of the existence-condition parameter bounds
and the feasibility inequality for the t-vs-k incidence structure.

All quantities are bounds expressed as powers of q and evaluated as big
integers; fractional exponents a/b are evaluated as exact ceilings
(integer b-th root of x^a, rounded up), which upper-rounds the
right-hand side and therefore never falsely reports feasibility.  The
log factor is read as (log(|A| c2))^8 and implemented as bit_length^8,
an upper bound on the base-2 logarithm.  The inequality involves an
unspecified absolute constant, so feasibility is always reported
relative to the supplied constant.

Integer roots use precision doubling (Brent & Zimmermann, Modern
Computer Arithmetic, 1.5), one Newton step per level.  A root of at most
128 bits runs the plain Newton descent from a power of two above it.  A
longer root of L bits takes s = L // 2 - 32 and the start g = y0 << s,
where y0 is one more than the uncertified root of x >> rs from the level
below, so g agrees with the root to 32 guard bits beyond half its length
and one step lands within a unit or two of it.  The step is taken at
half size, without forming g^r: (x >> rs) - y0^r stands for x - g^r,
r y0^(r-1) for r g^(r-1), and their quotient, the correction of about
L/2 bits, is divided with the divisor cut to 64 bits beyond it, which
moves the floored quotient by at most one.  Only the returned root
y is certified, by y^r <= x < (y+1)^r, so the result is exact whatever
the approximation did; the inner levels need only their guard bits.
y^r is computed once, after y is stepped down until y^r <= x.  With
m = max(0, y.bit_length() - 64), the bound r (y >> m)^(r-1) 2^(m(r-1))
is at most r y^(r-1), which is less than (y+1)^r - y^r, so x - y^r below
it proves x < (y+1)^r; only when it cannot decide is (y+1)^r computed,
stepping y up by ones.

klp_report refuses, before building anything, parameters whose largest
power would exceed its max_bits cap.
"""

from __future__ import annotations

from math import prod

from .errors import (
    DimensionMismatch, InvalidParameters, TooLarge, _value_class, check_chain, number_text,
    validate_q,
)
from .localdecode import build_D
from .qcount import q_binomial


def _root_start(x: int, r: int) -> int:
    """An r-th root of x >= 1 to within a unit or two, not certified."""
    root_bits = -(-x.bit_length() // r)
    if root_bits <= 128:
        g = 1 << root_bits  # >= true root; Newton descends to it
        while True:
            ng = ((r - 1) * g + x // g ** (r - 1)) // r
            if ng >= g:
                return g
            g = ng
    s = root_bits // 2 - 32
    top = x >> (r * s)
    y0 = _root_start(top, r) + 1  # the start is g = y0 << s
    p = y0 ** (r - 1)
    e, d = top - p * y0, r * p  # x - g^r and r g^(r-1), over 2^rs and 2^s(r-1)
    # the step g + e 2^s / d moves g by about s bits: cut d to 64 bits more
    sh = max(0, d.bit_length() - s - 64)
    return (y0 << s) + (e << s >> sh) // (d >> sh)


def _root_and_power(x: int, r: int) -> tuple[int, int]:
    """(y, y^r) for the largest integer y with y^r <= x."""
    if x < 0 or r < 1:
        raise InvalidParameters("need x >= 0, r >= 1")
    if x == 0 or r == 1:
        return x, x
    g = _root_start(x, r)
    p = g**r
    while p > x:
        g -= 1
        p = g**r
    # x < (g+1)^r if x - g^r is below r g^(r-1), read from g's top 64 bits
    m = max(0, g.bit_length() - 64)
    if x - p < r * (g >> m) ** (r - 1) << m * (r - 1):
        return g, p
    while True:
        nxt = (g + 1) ** r
        if nxt > x:
            return g, p
        g, p = g + 1, nxt


def nth_root_floor(x: int, r: int) -> int:
    """Largest integer y with y^r <= x, for x >= 0 and r >= 1."""
    return _root_and_power(x, r)[0]


def pow_frac_ceil(x: int, num: int, den: int) -> int:
    """Smallest integer >= x^(num/den), exactly."""
    p = x**num
    root, power = _root_and_power(p, den)
    return root if power == p else root + 1


@_value_class
class KLPReport:
    q: int
    n: int
    k: int
    t: int
    constant: int
    c1_bound: int
    c2: int
    c3_bound: int
    A_upper: int
    B_lower: int
    A_exact: int | None
    B_exact: int | None
    rhs_final: int
    feasible: bool
    block_budget: int
    k_gt_12t: bool
    k_gt_12t_plus_1: bool
    log_reading: str


def klp_report(
    q: int, n: int, k: int, t: int, constant: int = 1, max_bits: int = 10**6
) -> KLPReport:
    """Evaluate every parameter bound and the feasibility inequality
    rhs(constant) < |B|_lower as exact integers.

    The boundedness parameter is always 1 (0/1 entries).  Exact |A| and
    |B| are included for n <= 64.  Both dimension thresholds that appear
    around the headline statement (k > 12t and k > 12(t+1)) are
    surfaced; neither is asserted, feasibility is purely the evaluated
    inequality.

    The largest powers built are B_lower, block_budget, A_upper^52 and
    (c2 c3)^12; if one has more than max_bits bits the report raises
    TooLarge before building them (near the cap it builds the largest
    alone, under 2 max_bits bits, to read its length).
    """
    check_chain(1, t=t, k=k, n=n)
    if constant < 1:
        raise InvalidParameters("constant must be >= 1")
    validate_q(q)
    powers = {
        "B_lower": k * (n - k),
        "block_budget": 12 * (t + 1) * n,
        "A_upper**52": 52 * (t * (n - t) + n),
        "(c2*c3)**12": 24 * k * (t + 1) ** 2,
    }
    name, exponent = max(powers.items(), key=lambda item: item[1])
    # 2^(e (b - 1)) <= q^e < 2^(e b) for q of b bits, so the exponent
    # decides unless max_bits falls between; then q^e has under 2 max_bits bits
    low, high = exponent * (q.bit_length() - 1), exponent * q.bit_length()
    if low >= max_bits or (high > max_bits and (q**exponent).bit_length() > max_bits):
        raise TooLarge(f"{name} = {q}^{exponent} exceeds the cap of {number_text(max_bits)} bits")
    c1_bound = q ** (k * (t + 1) ** 2 + t * (n - t) + n)
    c2 = 1
    c3_bound = q ** (2 * k * (t + 1) ** 2)
    A_upper = q ** (t * (n - t) + n)
    B_lower = q ** (k * (n - k))
    if n <= 64:
        A_exact: int | None = q_binomial(n, t, q)
        B_exact: int | None = q_binomial(n, k, q)
    else:
        A_exact = None
        B_exact = None
    log_factor = (A_upper * c2).bit_length() ** 8
    rhs_final = (
        constant
        * pow_frac_ceil(A_upper, 52, 5)
        * c1_bound
        * pow_frac_ceil(c2 * c3_bound, 12, 5)
        * log_factor
    )
    return KLPReport(
        q=q,
        n=n,
        k=k,
        t=t,
        constant=constant,
        c1_bound=c1_bound,
        c2=c2,
        c3_bound=c3_bound,
        A_upper=A_upper,
        B_lower=B_lower,
        A_exact=A_exact,
        B_exact=B_exact,
        rhs_final=rhs_final,
        feasible=rhs_final < B_lower,
        block_budget=q ** (12 * (t + 1) * n),
        k_gt_12t=k > 12 * t,
        k_gt_12t_plus_1=k > 12 * (t + 1),
        log_reading="bit_length(|A| c2) ** 8",
    )


def divisibility_witness(q: int, n: int, k: int, t: int) -> int:
    """The witness bound m [n t]_q on the divisibility parameter, where
    m = det D is the product of build_D's diagonal (no system is solved).

    m [n t]_q times the constant average row [k t]_q / [n t]_q is
    m [k t]_q, an integer vector, which is what makes the witness valid.
    """
    check_chain(1, t=t, k=k, n=n)
    if n > 64:
        raise DimensionMismatch(f"need n <= 64 for the exact witness, got n={n}")
    D = build_D(q, t, k)
    return prod(D[l][l] for l in range(t + 1)) * q_binomial(n, t, q)
