import hashlib
import json
import random
import re
import time

import pytest

from qdesign.errors import DegenerateSystem, DimensionMismatch, TooLarge
from qdesign.gf import make_field
from qdesign.grassmann import (
    enumerate_subspaces,
    intersect_dim,
    iter_subspaces,
    subspace_from_rows,
    unrank,
)
from qdesign.localdecode import (
    CoefficientCertificate,
    build_D,
    c3_bound,
    certificate_composition,
    check_cond2,
    check_det_bounds,
    decode_certificate,
    det_bareiss,
    lemma2_count,
    lemma2_count_bruteforce,
    lemma2_grid_report,
    solve_coefficients,
    verify_certificate,
)
from qdesign.qcount import q_binomial

F2 = make_field(2)
F3 = make_field(3)


def test_build_D_worked_example():
    assert build_D(2, 1, 2) == ((2, 1), (0, 3))


def test_build_D_bottom_right_is_row_weight():
    for q in (2, 3):
        for t in (1, 2, 3):
            for k in range(t, t + 4):
                D = build_D(q, t, k)
                assert D[t][t] == q_binomial(k, t, q)


def test_build_D_matches_direct_reevaluation():
    # re-derive every entry of the (2,2,3) system from the count operations
    q, t, k = 2, 2, 3
    D = build_D(q, t, k)
    for l in range(t + 1):
        for j in range(t + 1):
            if j < l:
                assert D[l][j] == 0
            else:
                expect = (
                    q_binomial(t - l, t - j, q)
                    * q_binomial(k - t + l, j, q)
                    * q ** ((k - t - j + l) * (t - j))
                )
                assert D[l][j] == expect


def test_build_D_is_lemma2_count():
    # row l < t counts the k-subspaces of F_q^(t+k) above V1 by their
    # intersection with V2, where dim(V1 int V2) = l
    for q, f in ((2, F2), (3, F3)):
        for t in (1, 2):
            for k in range(t, 4):
                n = t + k
                unit = [[int(i == c) for i in range(n)] for c in range(n)]
                V1 = subspace_from_rows(f, n, unit[:t])
                for l in range(t):
                    V2 = subspace_from_rows(f, n, unit[:l] + unit[t : 2 * t - l])
                    assert intersect_dim(V1, V2) == l
                    row = [lemma2_count_bruteforce(V1, V2, k, j) for j in range(t + 1)]
                    assert list(build_D(q, t, k)[l]) == row


def test_build_D_requires_t_le_k():
    with pytest.raises(DimensionMismatch):
        build_D(2, 3, 2)
    with pytest.raises(DimensionMismatch):
        build_D(2, 0, 2)


def test_det_bareiss_small():
    assert det_bareiss([[0, 1], [1, 3]]) == -1
    assert det_bareiss([[2, 0], [0, 1]]) == 2
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 2 * (3 * 4 - 1) - 1 * 4


def test_det_bareiss_vs_permanent_expansion():
    from itertools import permutations

    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 5)
        M = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        expect = 0
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            # parity via inversion count
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
            )
            sign = -1 if inv % 2 else 1
            prod = 1
            for i in range(n):
                prod *= M[i][perm[i]]
            expect += sign * prod
        assert det_bareiss(M) == expect


def test_solve_worked_example():
    s = solve_coefficients(2, 1, 2)
    assert s.m == 6
    assert s.f == (-1, 2)
    assert -1 * 2 + 2 * 1 == 0  # homogeneous row
    assert 2 * 3 == 6  # f(t) [k k-t]_q = m


def test_solve_grid_identities():
    for q in (2, 3):
        for t in (1, 2, 3):
            for k in range(t + 1, t + 5):
                s = solve_coefficients(q, t, k)  # asserts internally
                assert s.m > 0
                assert all(isinstance(v, int) for v in s.f)
                assert s.f[t] * q_binomial(k, k - t, q) == s.m
                target = [0] * t + [s.m]
                got = [
                    sum(s.D[l][j] * s.f[j] for j in range(t + 1)) for l in range(t + 1)
                ]
                assert got == target
                assert check_cond2(q, t, k)


def test_certificate_worked_example():
    V = enumerate_subspaces(3, 1, F2)[0]
    cert = decode_certificate(V, 2)
    assert cert.envelope.k == 3
    assert cert.m == 6 and cert.l1_norm == 10
    coeffs = sorted(cert.coefficients.values())
    assert coeffs == [-1, -1, -1, -1, 2, 2, 2]
    assert verify_certificate(cert)


def test_certificate_all_columns_zero_or_m():
    # check the summed value by hand at every line of F_2^3
    V = enumerate_subspaces(3, 1, F2)[0]
    cert = decode_certificate(V, 2)
    from qdesign.grassmann import contains

    for a in enumerate_subspaces(3, 1, F2):
        total = sum(c for U, c in cert.coefficients.items() if contains(U, a))
        assert total == (6 if a == V else 0)


def test_certificate_nontrivial_ambient():
    for V in enumerate_subspaces(4, 1, F2)[:4]:
        cert = decode_certificate(V, 2)
        assert verify_certificate(cert)
        # rows outside the envelope carry no coefficient
        assert all(U.n == 4 for U in cert.coefficients)
        assert len(cert.coefficients) == q_binomial(3, 2, 2)


def test_certificate_t2():
    V = next(iter_subspaces(5, 2, F2))
    cert = decode_certificate(V, 3)
    assert len(cert.coefficients) == q_binomial(5, 3, 2) == 155
    assert verify_certificate(cert)


def test_certificate_caps_and_guards():
    V = next(iter_subspaces(3, 1, F2))
    with pytest.raises(DimensionMismatch):
        decode_certificate(V, 3)  # needs n >= t + k = 4
    with pytest.raises(TooLarge):
        decode_certificate(V, 2, max_subspaces=3)


def test_verify_certificate_caps_ambient_t_subspaces():
    # [3 1]_2 = 7 lines of F_2^3 to check
    cert = decode_certificate(next(iter_subspaces(3, 1, F2)), 2)
    assert verify_certificate(cert, max_subspaces=7)
    with pytest.raises(TooLarge, match=r"\[3 1\]_2 exceed cap 6"):
        verify_certificate(cert, max_subspaces=6)


@pytest.mark.parametrize(
    "q, n, t, k",
    [(2, 4, 1, 2), (2, 5, 2, 2), (2, 6, 2, 3), (3, 4, 1, 2), (4, 3, 1, 2), (16, 3, 1, 2),
     (5, 3, 1, 2)],
)
def test_verify_certificate_rejects_tampered_coefficients(q, n, t, k):
    # adding 1 to a coefficient changes the sum at every a <= U; moving a
    # nonzero coefficient from U to U' changes it at an a <= U' not <= U,
    # also where U' lies outside the envelope
    field = make_field(q)
    rng = random.Random(n * q + t)
    V = unrank(n, t, field, rng.randrange(q_binomial(n, t, q)))
    cert = decode_certificate(V, k)
    assert verify_certificate(cert)
    subs = list(cert.coefficients)

    def verdict(coefficients):
        return verify_certificate(CoefficientCertificate(
            cert.decoded_column, cert.envelope, coefficients, cert.m, cert.l1_norm
        ))

    for U in rng.sample(subs, 4):
        assert not verdict({**cert.coefficients, U: cert.coefficients[U] + 1})
    movable = [W for W in subs if cert.coefficients[W]]
    for U in rng.sample(movable, min(4, len(movable))):
        other = rng.choice([W for W in subs if W != U])
        c = cert.coefficients
        assert not verdict({**c, U: 0, other: c[other] + c[U]})
    # with no coefficient at all, the sum is 0 at V too, not m
    assert not verdict({})
    if n > t + k:
        outside = rng.choice([W for W in iter_subspaces(n, k, field)
                              if W not in cert.coefficients])
        U = rng.choice(movable)
        assert not verdict({**cert.coefficients, U: 0, outside: cert.coefficients[U]})


def test_verify_certificate_caps_lane_bits(monkeypatch):
    # the lanes of a certificate in F_2^3 hold [3 2]_2 = 7 bits for each
    # of the [3 1]_2 = 7 vectors of the envelope that lead with a 1
    import qdesign.localdecode as localdecode

    cert = decode_certificate(next(iter_subspaces(3, 1, F2)), 2)
    monkeypatch.setattr(localdecode, "_MAX_LANE_BITS", 49)
    assert verify_certificate(cert)
    monkeypatch.setattr(localdecode, "_MAX_LANE_BITS", 48)
    with pytest.raises(TooLarge, match=r"^\[3 1\]_2 \* \[3 2\]_2 = 49 lane bits exceed cap 48$"):
        verify_certificate(cert)


def test_verify_certificate_charges_lanes_by_the_coefficients(monkeypatch):
    # a hand-built envelope no longer sets the lane charge: one of
    # dimension <= t is refused, and a 2-dimensional one for the seven
    # 2-subspaces of a 3-dimensional envelope in F_2^5 is charged for the
    # seven lanes of 7 bits they fill, not [2 1]_2 * [2 1]_2 = 9 bits
    import qdesign.localdecode as localdecode

    V = subspace_from_rows(F2, 5, [[1, 0, 0, 0, 0]])
    cert = decode_certificate(V, 2)

    def verdict(envelope):
        return verify_certificate(CoefficientCertificate(
            V, envelope, cert.coefficients, cert.m, cert.l1_norm
        ))

    for rows in ([], [[1, 0, 0, 0, 0]]):
        with pytest.raises(DimensionMismatch, match=r"^need envelope dimension > t = 1, got"):
            verdict(subspace_from_rows(F2, 5, rows))
    plane = subspace_from_rows(F2, 5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    assert verdict(plane)
    monkeypatch.setattr(localdecode, "_MAX_LANE_BITS", 48)
    with pytest.raises(TooLarge, match=r"^7 lanes of 7 bits exceed cap 48$"):
        verdict(plane)


def test_vector_set_oracles_read_nothing_of_the_kernel(monkeypatch):
    # the vector sets, the lemma-2 grid and the certificate check give the
    # same results with every entry point of the rank kernel, the
    # certificate's subspace builder and the rank route disabled
    import qdesign.gf as gf
    import qdesign.grassmann as grassmann
    import qdesign.localdecode as localdecode

    sets = [(2, 5, 2), (4, 3, 2), (3, 3, 1)]
    grids = [(2, 5, 2, 3), (3, 4, 1, 2), (4, 3, 1, 2)]
    certs = [decode_certificate(_seeded_subspace(q, n, t, k), k)
             for q, n, t, k in ((2, 6, 2, 3), (16, 3, 1, 2), (3, 4, 1, 2))]
    tampered = [CoefficientCertificate(c.decoded_column, c.envelope,
                                       {U: x + 1 for U, x in c.coefficients.items()},
                                       c.m, c.l1_norm) for c in certs]

    def run():
        return ([list(grassmann._vector_sets(n, k, make_field(q))) for q, n, k in sets],
                [lemma2_grid_report(*p) for p in grids],
                [verify_certificate(c) for c in certs + tampered])

    expected = run()
    assert expected[2] == [True] * 3 + [False] * 3

    def disabled(*args, **kwargs):
        raise AssertionError("a vector-set oracle called the kernel")

    names = ("_pivot_plan", "_t_plans", "_lane_tables", "_lane_bytes", "_lane_values",
             "_group_t_ranks", "_rank_groups", "block_echelon_forms", "rank_of_rows")
    found = set()
    for module in (gf, grassmann, localdecode):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, disabled)
                found.add(name)
    # a renamed entry point would otherwise drop out of the test unseen
    assert found == set(names)
    assert run() == expected


def test_certificate_cost_does_not_grow_with_ambient_n():
    # the [t+k k]_q subspaces are built inside the envelope, so a huge
    # ambient space costs no more than F_2^3 beyond longer rows
    V = next(iter_subspaces(1000, 1, F2))
    start = time.monotonic()
    cert = decode_certificate(V, 2)
    assert time.monotonic() - start < 1.0
    assert cert.m == 6 and cert.l1_norm == 10
    assert sorted(cert.coefficients.values()) == [-1, -1, -1, -1, 2, 2, 2]


# sha256 of repr(list(cert.coefficients.items())) for a seeded random V;
# the values come from building each U by mat_mul and RREF, which the
# kernel route must reproduce
CERTIFICATE_SHA256 = {
    (2, 7, 2, 3): "e9034dae8cff109c659f8483c51fbd3f579beee692ae3695e663847d01545cea",
    (16, 3, 1, 2): "45289880e82aeae1ffa375df4ded31b333d45856b9b1f1312e7229dc84a3d280",
    (3, 5, 1, 2): "26cfa68a690a61d7718dbbe0ef7955e9b35cf3539e834865a74b1e2726972748",
    (2, 1000, 1, 2): "8af90feebae2dd92f727d8b5013e79ea6883d8415b3321620016972f8feb33e0",
}


def _seeded_subspace(q, n, t, k):
    field = make_field(q)
    rng = random.Random(f"{q},{n},{t},{k}")
    while True:
        V = subspace_from_rows(field, n, [[rng.randrange(q) for _ in range(n)] for _ in range(t)])
        if V.k == t:
            return V


def test_certificate_coefficients_pinned():
    for (q, n, t, k), digest in CERTIFICATE_SHA256.items():
        cert = decode_certificate(_seeded_subspace(q, n, t, k), k)
        text = repr(list(cert.coefficients.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (q, n, t, k)


@pytest.mark.parametrize("q, n, t, k", [(2, 5, 2, 2), (3, 4, 1, 2), (4, 4, 1, 2)])
def test_certificate_envelope_is_rref_of_v_and_unit_rows(q, n, t, k):
    # W is the RREF of V's rows plus the unit rows outside V's pivots,
    # here taken through the checked public constructor
    field = make_field(q)
    for V in iter_subspaces(n, t, field):
        extra = [j for j in range(n) if j not in V.pivot_columns][:k]
        units = [[int(i == j) for i in range(n)] for j in extra]
        W = subspace_from_rows(field, n, V.rows() + units)
        assert decode_certificate(V, k).envelope == W and W.k == t + k


@pytest.mark.parametrize(
    "q, t, k, n", [(2, 1, 2, 4), (2, 2, 2, 5), (2, 2, 3, 7), (3, 1, 2, 4), (3, 2, 2, 5),
                   (4, 1, 2, 4), (4, 2, 2, 5), (16, 1, 1, 3)],
)
def test_certificate_envelope_properties(q, t, k, n):
    # for seeded V with n >= t + k + 1, read from vector sets: W contains V
    # and e_j at the k lowest non-pivot columns j of V, has dimension
    # t + k, and is its own canonical basis
    field = make_field(q)
    rng = random.Random(f"envelope {q},{t},{k},{n}")
    count = q_binomial(n, t, q)
    for r in sorted({0, count - 1, *(rng.randrange(count) for _ in range(6))}):
        V = unrank(n, t, field, r)
        W = decode_certificate(V, k).envelope
        assert W.k == t + k
        assert V.vector_mask & ~W.vector_mask == 0
        lowest = [j for j in range(n) if j not in V.pivot_columns][:k]
        assert all(W.vector_mask >> q ** (n - 1 - j) & 1 for j in lowest), (V, W)
        assert subspace_from_rows(field, n, W.rows()) == W


def test_lemma2_worked_values():
    lines = enumerate_subspaces(4, 1, F2)
    V1, V2 = lines[0], lines[1]
    assert intersect_dim(V1, V2) == 0
    assert lemma2_count(V1, V2, 2, 0) == 6
    assert lemma2_count(V1, V2, 2, 1) == 1
    assert lemma2_count_bruteforce(V1, V2, 2, 0) == 6
    assert lemma2_count_bruteforce(V1, V2, 2, 1) == 1


def test_lemma2_guards():
    lines = enumerate_subspaces(4, 1, F2)
    with pytest.raises(DimensionMismatch):
        lemma2_count(lines[0], lines[0], 2, 1)  # requires l < t
    with pytest.raises(DimensionMismatch):
        lemma2_count(lines[0], lines[1], 2, 2)  # j > t
    plane = enumerate_subspaces(4, 2, F2)[0]
    with pytest.raises(DimensionMismatch):
        lemma2_count(lines[0], plane, 2, 0)


def test_lemma2_sum_is_extension_count():
    rng = random.Random(12)
    for q, f, n, t, k in ((2, F2, 5, 2, 3), (3, F3, 4, 1, 2)):
        tsubs = enumerate_subspaces(n, t, f)
        for _ in range(15):
            V1 = tsubs[rng.randrange(len(tsubs))]
            V2 = tsubs[rng.randrange(len(tsubs))]
            if V1 == V2:
                continue
            l = intersect_dim(V1, V2)
            total = sum(lemma2_count(V1, V2, k, j) for j in range(l, t + 1))
            assert total == q_binomial(n - t, k - t, q)


def test_lemma2_formula_vs_bruteforce_random():
    rng = random.Random(99)
    for q, f, n, t, kmax in ((2, F2, 5, 2, 4), (3, F3, 4, 2, 3)):
        tsubs = enumerate_subspaces(n, t, f)
        for _ in range(10):
            V1 = tsubs[rng.randrange(len(tsubs))]
            V2 = tsubs[rng.randrange(len(tsubs))]
            if V1 == V2:
                continue
            l = intersect_dim(V1, V2)
            for k in range(t, kmax + 1):
                for j in range(l, t + 1):
                    assert lemma2_count(V1, V2, k, j) == lemma2_count_bruteforce(
                        V1, V2, k, j
                    )


def test_lemma2_grid_report_small():
    rep = lemma2_grid_report(2, 4, 2, 3)
    assert rep.ok
    assert rep.pair_count == 35 * 34
    assert sum(c.formula for c in rep.cells if c.l == 1) == rep.extension_count


# sha256 of repr(lemma2_grid_report(q, n, t, k)) on the acceptance grid, captured
# from the per-pair implementation that walked extensions(V1, k) for every V1
LEMMA2_REPR_SHA256 = {
    (2, 2, 1, 1): "16408974c4d190cc14ecf303373d09d956c6dd3b71480811f561f02fa8807c3b",
    (2, 2, 1, 2): "cca1f81c53eef4efd2827ae7ce4c144553ae258200bdceb106deaacc5b3d996e",
    (2, 3, 1, 1): "068e924d0674d136c6d25f51525f2b92623e4014edb38bb804c4a96f1b2a40dd",
    (2, 3, 1, 2): "ff4d78db911959dab054f70d867243e8f008bb7664cc2ed75165421e1c46f8b1",
    (2, 3, 1, 3): "2601d46c87f76f372a60ba7f6d53d676198a97616d480bbcee308fe138fed692",
    (2, 3, 2, 2): "d0994948a3960782f20857f9db7fc109a28144cc36f6dae7456978dbc1480470",
    (2, 3, 2, 3): "883f0aeb10fe543c26da0db58cb1bd801725fce492a4ff9f2422809c821b63aa",
    (2, 4, 1, 1): "3cfa901dac5831dfcb71fa9f2dc096000b03cf34b922ee8508f9fbd0e323e827",
    (2, 4, 1, 2): "914efe107ce7858cbaf107937baf17549ffdac23044853d2a325cd1c4adf83a6",
    (2, 4, 1, 3): "52f124778e25413dc3018165ca3e33c90170abcb0022b73f80614bef1f1edc84",
    (2, 4, 1, 4): "b63b33e0d74243b0f175eef989424e451958e1fd96b2e721a34eca2950392f57",
    (2, 4, 2, 2): "4e37d20f1b89c157077024edd3778cfdd7873a426652e159885146ecfedcba96",
    (2, 4, 2, 3): "922a73659813abd8a7aae4935c2bdd2dfe322aca51060243eeaf0e81f029d30d",
    (2, 4, 2, 4): "924e31d68bc0c5d608d595289b2bee096495d4435dd0092eef9789a2d06c0353",
    (2, 5, 1, 1): "7c68185ee939101bb20ff7da01b729aa0af6d61323438c1bd351bd4fa8f8cd4e",
    (2, 5, 1, 2): "f21972e6aee3aadb23d2003744910dbf4782546ca6a390610ad4bd68ca8bad35",
    (2, 5, 1, 3): "d0d13cf9e9e64a75c1e50b696bffa203fc2a1a30b9f7003a314bcc8095594e7d",
    (2, 5, 1, 4): "d34f527f3f88695686ce27deffab5b87e8c0ce3b0b89458d36c8c208d6645599",
    (2, 5, 2, 2): "3bb2da2e305cd40952e5bc80d9687c891c60ba646a56ce06eaeb03e62570f241",
    (2, 5, 2, 3): "f12c420d848ae00181f702085da75880a45c9cbef1810118adc9d9b0dd8f50ac",
    (2, 5, 2, 4): "69e176bad7691f70af058f234d2c1e2684373639c3ff395ae571c1b31d8af86a",
    (2, 6, 1, 1): "3a5f87334e6dd6be5b029aaab698df184505652e7210fd7bf5d337ade8eb4764",
    (2, 6, 1, 2): "4ae945d6a68ba96eb2fa95a6a33a4dcc90c7e51d13c006dfbce8a5d1e643c39b",
    (2, 6, 1, 3): "de5e01b2e1b56ac57be6304df6e0cb7aa4cc6c0dfcd51d5f984734389318104e",
    (2, 6, 1, 4): "3015a835e78d623b519f549e82a767d3abe6421ba5dc9690e1e522c08e0581f4",
    (2, 6, 2, 2): "6435b3fe6521a342f16e25f258e766a4bd1cf7ce35319f0c3d8c196199ba4a51",
    (2, 6, 2, 3): "40099ef46b19ba696a95c4ffe4d2157cea4e0916e5307c9be2aa535eea873622",
    (2, 6, 2, 4): "9da96631c3d4eae18578208d9853b847bd39e3eeb34ee60ee832f19474e2b56b",
    (3, 2, 1, 1): "ead22d6bed8b88158288c7d1b909aef38a049cafe5b0ec42c7ad708766bca365",
    (3, 2, 1, 2): "7f7dc8dfa79b1fd8ae098c048d08608e8df613cfba8bdb636fbb32018faa959e",
    (3, 3, 1, 1): "920b2c88fba1a3b322cf6981708b4ddf2b1d21c9a707cf2d8f4117df4300ddaf",
    (3, 3, 1, 2): "456931b1d9d5496b1a750316bfdd5b7f914659e1ace3cd02f0f9abf20f1278d0",
    (3, 3, 1, 3): "0ddf590fa52247551fe7ef1ce815a741bfac4192e91cffdcf39b341dc7d06e41",
    (3, 3, 2, 2): "8226ef56afe7ebc17bbc476df0cee4603699989ca62ce7e80b6bf75c86f57142",
    (3, 3, 2, 3): "98e256bc23e25370964ba45e08beac4cb3e841e7b5aeb3c60fa03a3fe50ee863",
    (3, 4, 1, 1): "7dd202faabec5842e36eae811a385259e7275f843315f7590faff1a2d331e2be",
    (3, 4, 1, 2): "33fb5f75d38ef171a338ab15b7f1f30cbfb74f22205aaf12d372a895b7643afd",
    (3, 4, 1, 3): "d3d154bc1781f0cdb4d05d42d4dc6e333261474e044d99d83a34bd26a4cefe76",
    (3, 4, 1, 4): "51608eaae9bb6303cfc27e2ec61387d08a3595df22b9b9bb2e4f50158ebb0f66",
    (3, 4, 2, 2): "3f5ddea193a74de304f2fd6a96cc6bc65ca5ff3512ea1eb557e209aebcd11dbe",
    (3, 4, 2, 3): "7ec94d25eb0b55c865d73f1df64e5523447d1b9004ed5a34b1e5db528ebf2682",
    (3, 4, 2, 4): "234fd2c2ffc1f54e8eafdf86e6c0dcc214d8225b3b39dc20a2947dc8811c6c0f",
}


def test_lemma2_grid_report_reprs_pinned():
    for params, digest in LEMMA2_REPR_SHA256.items():
        text = repr(lemma2_grid_report(*params))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, params


def test_lemma2_grid_report_caps_containment_tests():
    # [4 1]_2 [4 2]_2 = 15 * 35 = 525
    assert lemma2_grid_report(2, 4, 1, 2, max_pairs=525).ok
    with pytest.raises(TooLarge, match=r"\[4 1\]_2 \* \[4 2\]_2 = 525 containment tests"):
        lemma2_grid_report(2, 4, 1, 2, max_pairs=524)
    start = time.monotonic()
    with pytest.raises(TooLarge, match="exceed cap 10000000"):
        lemma2_grid_report(2, 9, 2, 3)
    assert time.monotonic() - start < 1.0


def test_lemma2_grid_report_caps_lane_bits():
    # one 17-subspace gives 131,071 containment tests, under the pair
    # cap, but the t-lanes would hold w = 2 bits per t-subspace for each
    # of the 2^17 vectors
    start = time.monotonic()
    with pytest.raises(
        TooLarge, match=r"^2 \* \[17 1\]_2 \* 2\^17 = 34359476224 lane bits exceed"
    ):
        lemma2_grid_report(2, 17, 1, 17)
    assert time.monotonic() - start < 1.0
    # with the pair cap lifted, the k-lanes are capped too
    with pytest.raises(TooLarge, match=r"\[12 2\]_2 \* 2\^12 = 11444858880 lane bits"):
        lemma2_grid_report(2, 12, 1, 2, max_pairs=10**12)
    # both lane families pass; the hit words, t + 1 segments of [n t]_q
    # fields of w = 17 bits per k-subspace, do not
    start = time.monotonic()
    with pytest.raises(
        TooLarge, match=r"^17 \* 2 \* \[10 1\]_2 \* \[10 8\]_2 = 6060798282 lane"
    ):
        lemma2_grid_report(2, 10, 1, 8, max_pairs=10**11)
    assert time.monotonic() - start < 1.0
    # at t = 2 the t-lanes, w = 15 bits per plane of F_2^10, refuse first
    with pytest.raises(TooLarge, match=r"^15 \* \[10 2\]_2 \* 2\^10 = 2676495360 lane"):
        lemma2_grid_report(2, 10, 2, 8, max_pairs=10**11)


def _first_failure(q, t, tmasks, kmasks, formula, ext_total):
    """(pairs checked, mismatch) of the grid check, recounted pair by pair."""
    pairs = 0
    for i, m1 in enumerate(tmasks):
        ext = [um for um in kmasks if um & m1 == m1]
        if len(ext) != ext_total:
            return pairs, f"extension count {len(ext)} != {ext_total} at V1 index {i}"
        for mi, m2 in enumerate(tmasks):
            if mi == i:
                continue
            l = [q**d for d in range(t + 1)].index((m1 & m2).bit_count())
            tally = [0] * (t + 1)
            for um in ext:
                size = (um & m2).bit_count()
                for j in range(t + 1):
                    tally[j] += size == q**j
            if tally != formula[l]:
                return pairs, (
                    f"pair (V1 index {i}, V2 index {mi}, l={l}): "
                    f"counted {tally}, formula {formula[l]}"
                )
            pairs += 1
    return pairs, ""


@pytest.mark.parametrize("q, n, t, k", [(3, 4, 1, 2), (2, 5, 2, 3), (3, 4, 2, 3), (2, 5, 3, 4)])
def test_lemma2_grid_report_failures_match_pair_recount(monkeypatch, q, n, t, k):
    """Tamper with the k-subspace vector sets the check enumerates and
    compare both failure branches with the pair-by-pair recount."""
    import qdesign.localdecode as localdecode

    field = make_field(q)
    good = lemma2_grid_report(q, n, t, k)
    formula = {l: [0] * (t + 1) for l in range(t)}
    for c in good.cells:
        formula[c.l][c.j] = c.formula
    tmasks = [s.vector_mask for s in iter_subspaces(n, t, field)]
    kmasks = [s.vector_mask for s in iter_subspaces(n, k, field)]
    real = localdecode._vector_sets

    def check(edited):
        def enumerate_edited(n_, d, field_):
            if d != k:
                return real(n_, d, field_)
            # each tampered mask as the nonzero vector indices the check reads
            return [[v for v in range(1, q**n) if m >> v & 1] for m in edited]

        monkeypatch.setattr(localdecode, "_vector_sets", enumerate_edited)
        rep = lemma2_grid_report(q, n, t, k)
        pairs, mismatch = _first_failure(q, t, tmasks, edited, formula, good.extension_count)
        assert (rep.ok, rep.pair_count, rep.mismatch) == (False, pairs, mismatch)
        assert rep.cells == ()
        return mismatch

    ext = good.extension_count
    rng = random.Random(q)
    tampered = rng.sample(range(len(kmasks)), 6)
    # extension-count branch: one k-subspace dropped or repeated
    for d in tampered:
        assert check(kmasks[:d] + kmasks[d + 1:]).startswith(f"extension count {ext - 1} ")
        assert check(kmasks + [kmasks[d]]).startswith(f"extension count {ext + 1} ")
    # tally branch: vectors added to a k-subspace U's set break intersection
    # sizes but no extension count, as long as they complete no t-subspace
    # outside U (two at q = 2, one at q = 3).  Some U' then meets a V2 in a
    # count that is no q^j - 1, lands in no j, and the tally falls short.
    v2_before_v1 = short = False
    for d in tampered:
        um = kmasks[d]
        outside = [v for v in range(q**n) if not um >> v & 1]
        for _ in range(2):
            while True:
                added = sum(1 << v for v in rng.sample(outside, 2 if q == 2 else 1))
                if all(m & ~(um | added) for m in tmasks if m & ~um):
                    break
            mismatch = check(kmasks[:d] + [um | added] + kmasks[d + 1:])
            found = re.match(r"pair \(V1 index (\d+), V2 index (\d+), l=\d+\): counted (\[.*?\])",
                             mismatch)
            v2_before_v1 |= int(found[2]) < int(found[1])
            short |= sum(json.loads(found[3])) < ext
    assert v2_before_v1
    assert short
    if (q, t) == (2, 2):
        # V2 = <e0, e1>, the first plane in canonical order, misses the
        # 3-space <e2, e3, e4> of the vectors below 8; with e0 (16) and e1 (8)
        # added there, V2 is the lowest failing lane and only its j = 0
        # tally is off
        d = kmasks.index(0xFF)
        mismatch = check(kmasks[:d] + [0xFF | 1 << 16 | 1 << 8] + kmasks[d + 1:])
        assert mismatch.endswith(", V2 index 0, l=0): counted [3, 3, 0], formula [4, 3, 0]")


def test_ordered_basis_products_reproduce_formula():
    # the two stepwise counting products, divided by their ordered-basis
    # normalizers, must multiply to the closed-form count
    from qdesign.localdecode import _ordered_basis_products_check

    for q in (2, 3):
        for n in range(2, 7):
            for t in (1, 2):
                if t >= n:
                    continue
                for k in range(t, min(4, n) + 1):
                    for l in range(max(0, 2 * t - n), t):
                        for j in range(l, t + 1):
                            b1 = q_binomial(t - l, j - l, q)
                            b2 = q_binomial(n - 2 * t + l, k - t - j + l, q)
                            if b1 == 0 or b2 == 0:
                                continue
                            assert _ordered_basis_products_check(q, n, t, k, l, j) is None


def test_row_maxima_locations():
    # structural claim behind the row-maxima bound: rows below the first
    # are maximized on the diagonal; the first row at column 0 or 1
    for q in (2, 3):
        for t in (1, 2, 3, 4):
            for k in range(t, 9):
                D = build_D(q, t, k)
                for l in range(1, t + 1):
                    assert max(D[l]) == D[l][l]
                assert max(D[0]) in (D[0][0], D[0][min(1, t)])


def test_det_bounds_worked_values():
    rep = check_det_bounds(2, 1, 2)
    by_label = {c.label: c for c in rep.checks}
    assert (by_label["det_D"].lhs, by_label["det_D"].rhs) == (6, 256)
    assert (by_label["row_maxima_product"].lhs, by_label["row_maxima_product"].rhs) == (6, 128)
    assert by_label["diagonals_D0"].lhs == 1
    assert by_label["diagonals_D0"].rhs == 2
    assert rep.ok


def test_det_bounds_grid():
    for q in (2, 3):
        for t in (1, 2, 3, 4):
            for k in range(t, 9):
                assert check_det_bounds(q, t, k).ok


def test_diagonal_count_exhaustive_definition():
    # D_0 for (2,1,2) is [[0,1],[1,3]]: only the swap permutation avoids zeros
    rep = check_det_bounds(2, 1, 2)
    d0 = next(c for c in rep.checks if c.label == "diagonals_D0")
    assert d0.lhs == 1


def test_c3_worked_values():
    rep = c3_bound(2, 1, 2)
    assert rep.m == 6
    assert rep.l1_norm == 10  # 3*2 + 4*1
    assert rep.exact_c3 == 10
    assert rep.cap == 2 ** (2 * 2 * 4) == 65536
    assert rep.ok


def test_c3_grid_and_monotone_bound():
    prev = 0
    for k in range(1, 6):
        bound = c3_bound(2, 1, k).cap
        assert bound > prev
        prev = bound
    for q, t, k in ((2, 2, 3), (3, 1, 3)):
        rep = c3_bound(q, t, k)
        assert rep.ok and rep.exact_c3 <= rep.cap


def test_c3_exact_past_the_old_enumeration_cap():
    # [11 8]_2 = 50955971 certificate subspaces; c3_bound counts none of them
    rep = c3_bound(2, 3, 8)
    system = solve_coefficients(2, 3, 8)
    composition = certificate_composition(2, 3, 8)
    assert sum(composition) == q_binomial(11, 8, 2) == 50955971
    assert rep.m == system.m
    assert rep.l1_norm == sum(abs(c) * N for c, N in zip(system.f, composition))
    assert rep.exact_c3 == max(rep.m, rep.l1_norm) and rep.ok
    assert rep.cap == 2 ** (2 * 8 * 16)


# (q, t, k) with 1 <= t <= 3 and t <= k <= 4, the certificates enumerated
# where there are at most 12,000 subspaces of the envelope
COMPOSITION_GRID = [(q, t, k) for q in (2, 3, 4) for t in (1, 2, 3) for k in range(t, 5)]


@pytest.mark.parametrize("q, t, k", COMPOSITION_GRID)
def test_certificate_composition_matches_enumeration(q, t, k):
    composition = certificate_composition(q, t, k)
    assert sum(composition) == q_binomial(t + k, k, q)
    if sum(composition) > 12000:
        return
    for n in (t + k, t + k + 1):
        V = _seeded_subspace(q, n, t, k)
        cert = decode_certificate(V, k)
        counts = [0] * (t + 1)
        for U in cert.coefficients:
            counts[intersect_dim(U, V)] += 1
        assert tuple(counts) == composition
        assert c3_bound(q, t, k).exact_c3 == max(cert.m, cert.l1_norm)


def test_certificate_refuses_a_wrong_composition(monkeypatch):
    import qdesign.localdecode as localdecode

    # a full rank of U's and V's coordinates reads as dim(U intersect V) = 0
    monkeypatch.setattr(localdecode, "rank_of_rows", lambda field, rows, ncols: ncols)
    with pytest.raises(DegenerateSystem, match="^certificate subspaces by dim"):
        decode_certificate(next(iter_subspaces(3, 1, F2)), 2)


@pytest.mark.parametrize("q, t, k, n", [(2, 2, 3, 7), (3, 1, 2, 5), (4, 1, 2, 5), (16, 1, 1, 4)])
def test_certificate_coefficient_is_f_at_full_length_intersection(q, t, k, n):
    # dim(U intersect V) read in W's coordinates agrees with the
    # elimination over all n columns; the first and last ranks put W's
    # pivots at the first columns and away from them
    field = make_field(q)
    f = solve_coefficients(q, t, k).f
    rng = random.Random(f"coordinates {q},{t},{k},{n}")
    count = q_binomial(n, t, q)
    for r in sorted({0, count - 1, *(rng.randrange(count) for _ in range(4))}):
        V = unrank(n, t, field, r)
        cert = decode_certificate(V, k)
        assert len(cert.coefficients) == q_binomial(t + k, k, q)
        for U, c in cert.coefficients.items():
            assert c == f[intersect_dim(U, V)], (V, U)


def test_certificate_eliminates_over_envelope_coordinates(monkeypatch):
    # apart from building W over all n columns, every elimination of the
    # certificate runs over W's t + k pivot columns
    import qdesign.gf as gf
    import qdesign.grassmann as grassmann

    widths = []
    original = gf._rref_rows

    def recording(field, rows, ncols):
        widths.append(ncols)
        return original(field, rows, ncols)

    n, t, k = 50, 1, 2
    V = _seeded_subspace(2, n, t, k)
    monkeypatch.setattr(gf, "_rref_rows", recording)
    monkeypatch.setattr(grassmann, "_rref_rows", recording)
    decode_certificate(V, k)
    assert widths[0] == n
    assert widths[1:] and all(w == t + k for w in widths[1:])
