import json
import os
import subprocess
import sys
import time

import pytest
from conftest import SRC, run_cli

from qdesign.errors import DegenerateSystem
from qdesign.qcount import q_binomial


def test_qbinom_value():
    code, out, _ = run_cli("qbinom", "--q", "2", "--n", "4", "--k", "2")
    assert code == 0
    assert out == "35\n"


def test_qbinom_bounds():
    code, out, _ = run_cli("qbinom", "--q", "2", "--n", "4", "--k", "2", "--bounds")
    assert code == 0
    assert out == "lower = 16\nvalue = 35\nupper = 96\nok = true\n"


def test_qbinom_via_sum():
    code, out, _ = run_cli("qbinom", "--q", "2", "--n", "4", "--k", "2", "--via-sum")
    assert code == 0 and out == "35\n"


def test_qbinom_json():
    code, out, _ = run_cli("qbinom", "--q", "2", "--n", "4", "--k", "2", "--json")
    assert code == 0
    assert out == (
        '{\n  "command": "qbinom",\n  "k": 2,\n  "n": 4,\n  "q": 2,\n'
        '  "schema_version": 1,\n  "value": 35\n}\n'
    )
    code, out, _ = run_cli(
        "qbinom", "--q", "2", "--n", "4", "--k", "2", "--json", "--via-sum", "--bounds"
    )
    assert code == 0
    assert out == (
        '{\n  "bounds": {\n    "lower": 16,\n    "ok": true,\n    "upper": 96\n  },\n'
        '  "command": "qbinom",\n  "k": 2,\n  "n": 4,\n  "q": 2,\n'
        '  "schema_version": 1,\n  "value": 35,\n  "via_sum": 35\n}\n'
    )


def test_qbinom_term_cap_exit_3():
    code, _, err = run_cli(
        "qbinom", "--q", "2", "--n", "40", "--k", "20", "--via-sum", "--max-terms", "100"
    )
    assert code == 3
    assert "exceeds cap" in err


def test_qbinom_refuses_counts_past_its_bit_cap():
    # [n k]_q >= q^(k(n-k)), so these refuse before any exact count; the
    # exact [2000 1000]_2 alone took seconds
    for n, k in ((2000, 1000), (4000, 2000)):
        start = time.monotonic()
        code, out, err = run_cli("qbinom", "--q", "2", "--n", str(n), "--k", str(k))
        assert time.monotonic() - start < 1.0
        e = k * (n - k)
        assert (code, out, err) == (
            3, "", f"error: [{n} {k}]_2 = more than 2^{e} exceeds the cap of 262144 bits\n"
        )
    # a count just under the cap (about 78,900 digits) is printed in full
    code, out, _ = run_cli("qbinom", "--q", "2", "--n", "1023", "--k", "511")
    assert code == 0 and out.rstrip().isdigit() and len(out) > 78_000
    assert run_cli("qbinom", "--q", "2", "--n", "1024", "--k", "512")[0] == 3


def test_usage_error_exit_2():
    code, _, _ = run_cli("qbinom", "--q", "2", "--n", "4")
    assert code == 2
    code, _, _ = run_cli("frobnicate")
    assert code == 2
    code, out, err = run_cli(
        "klp-report", "--q", "2", "--n", "20", "--k", "5", "--t", "1", "--constant", "0"
    )
    assert (code, out, err) == (2, "", "error: constant must be >= 1\n")


def test_qbinom_and_enumerate_count_refuse_k_out_of_range():
    # a count of 0 outside 0 <= k <= n would read as a valid answer
    cases = (
        (("qbinom", "--n", "4", "--k", "5"), "k=5, n=4"),
        (("qbinom", "--n", "4", "--k", "-1"), "k=-1, n=4"),
        (("enumerate", "--n", "4", "--k", "5", "--count-only"), "k=5, n=4"),
    )
    for args, got in cases:
        code, out, err = run_cli(*args, "--q", "2")
        assert (code, out, err) == (2, "", f"error: need 0 <= k <= n, got {got}\n")


def test_enumerate_count_only():
    code, out, _ = run_cli("enumerate", "--q", "3", "--n", "4", "--k", "2", "--count-only")
    assert code == 0 and out == "130\n"


def test_enumerate_count_only_json():
    code, out, _ = run_cli(
        "enumerate", "--q", "3", "--n", "4", "--k", "2", "--count-only", "--format", "json"
    )
    assert code == 0
    assert out == (
        '{\n  "command": "enumerate",\n  "count": 130,\n  "k": 2,\n  "n": 4,\n'
        '  "q": 3,\n  "schema_version": 1\n}\n'
    )


def test_enumerate_text_lines():
    code, out, _ = run_cli("enumerate", "--q", "2", "--n", "2", "--k", "1")
    assert code == 0
    assert out == "10\n\n11\n\n01\n"


def test_enumerate_json_round_trip():
    code, out, _ = run_cli("enumerate", "--q", "2", "--n", "3", "--k", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert obj["count"] == 7
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_enumerate_cap_exit_3():
    code, _, err = run_cli(
        "enumerate", "--q", "2", "--n", "10", "--k", "5", "--max-subspaces", "100"
    )
    assert code == 3 and "exceeds cap" in err


def test_incidence_report():
    code, out, _ = run_cli("incidence", "--q", "2", "--n", "4", "--k", "2", "--t", "1")
    assert code == 0
    assert "rows = 35" in out
    assert "cols = 15" in out
    assert "row_weight = 3" in out
    assert "col_weight = 7" in out
    assert "average_row = 1/5" in out


def test_incidence_weights_only():
    code, out, _ = run_cli(
        "incidence", "--q", "2", "--n", "3", "--k", "2", "--t", "1", "--weights-only"
    )
    assert code == 0
    assert out == "rows = 7\ncols = 7\nrow_weight = 3\ncol_weight = 3\n"


def test_incidence_export_bits_stdout():
    code, out, _ = run_cli(
        "incidence", "--q", "2", "--n", "2", "--k", "1", "--t", "1", "--export-bits", "-"
    )
    assert code == 0
    assert out == "100\n010\n001\n"


def test_unwritable_output_file_exit_2(tmp_path):
    code, out, err = run_cli(
        "incidence", "--q", "2", "--n", "2", "--k", "1", "--t", "1",
        "--export-bits", str(tmp_path),
    )
    assert code == 2 and out == ""
    assert err == f"error: cannot write bits file {tmp_path}: Is a directory\n"
    code, out, err = run_cli(
        "search", "--q", "2", "--n", "4", "--k", "2", "--t", "1", "--lambda", "1",
        "--out", str(tmp_path),
    )
    assert code == 2 and out == ""
    assert err == f"error: cannot write design file {tmp_path}: Is a directory\n"


def test_verify_pipeline(tmp_path):
    code, out, _ = run_cli(
        "search", "--q", "2", "--n", "4", "--k", "2", "--t", "1", "--lambda", "1",
        "--out", "spread.txt", cwd=tmp_path,
    )
    assert code == 0
    assert "found: q=2 n=4 k=2 t=1 lambda=1 N=5" in out
    code, out, _ = run_cli("verify", "--design", "spread.txt", "--t", "1", cwd=tmp_path)
    assert code == 0
    assert "is_design = true" in out and "lambda = 1" in out


def test_verify_non_design_exit_1(tmp_path):
    # drop a block from the trivial design
    import sys

    sys.path.insert(0, "src")
    from qdesign.gf import make_field
    from qdesign.grassmann import enumerate_subspaces
    from qdesign.verifier import DesignCandidate, save_design

    f2 = make_field(2)
    blocks = tuple(enumerate_subspaces(4, 2, f2))[1:]
    save_design(
        DesignCandidate(field=f2, n=4, k=2, blocks=blocks), str(tmp_path / "bad.txt")
    )
    code, out, _ = run_cli("verify", "--design", str(tmp_path / "bad.txt"), "--t", "1")
    assert code == 1
    assert "is_design = false" in out
    assert "histogram = 6:3 7:12" in out
    assert "failing_t_subspace" in out


def test_verify_missing_file_exit_2():
    code, _, err = run_cli("verify", "--design", "does-not-exist.txt", "--t", "1")
    assert code == 2


def test_verify_directory_exit_2(tmp_path):
    code, out, err = run_cli("verify", "--design", str(tmp_path), "--t", "1")
    assert code == 2 and out == ""
    assert err == f"error: cannot read design file {tmp_path}: Is a directory\n"


def test_verify_json_missing_field_exit_2(tmp_path):
    (tmp_path / "d.json").write_text('{"q": 2, "k": 1, "blocks": []}\n')
    code, _, err = run_cli("verify", "--design", str(tmp_path / "d.json"), "--t", "1")
    assert code == 2
    assert err == "error: design JSON is missing field 'n'\n"


def test_verify_json_blocks_malformed_exit_2(tmp_path):
    for blocks in ("5", "[[1]]"):
        (tmp_path / "d.json").write_text(f'{{"q": 2, "n": 2, "k": 1, "blocks": {blocks}}}\n')
        code, out, err = run_cli("verify", "--design", str(tmp_path / "d.json"), "--t", "1")
        assert code == 2 and out == ""
        assert err == (
            "error: design JSON field 'blocks' must be a list of lists of digit strings\n"
        )


def test_verify_json_non_integer_field_exit_2(tmp_path):
    cases = (
        ("q", "null"), ("n", "[2]"), ("k", '"one"'), ("k", "1e999"),
        # JSON numbers must be integers: no truncation, no boolean as 1
        ("q", "2.9"), ("n", "3.5"), ("q", "true"), ("n", '"2"'),
    )
    for key, value in cases:
        fields = {"q": "2", "n": "2", "k": "1", key: value}
        (tmp_path / "d.json").write_text(
            '{"q": %(q)s, "n": %(n)s, "k": %(k)s, "blocks": []}\n' % fields
        )
        code, out, err = run_cli("verify", "--design", str(tmp_path / "d.json"), "--t", "1")
        assert code == 2 and out == ""
        assert err == f"error: design JSON field '{key}' must be an integer\n"


def test_verify_design_file_digit_and_header_errors_exit_2(tmp_path):
    # each message names where the file is at fault
    cases = (
        ("e.txt", "2 3 1\n\n100\n\n102\n",
         "error: design block 1 row '102' has a digit outside 0..1 (q = 2)\n"),
        ("e.json", '{"q": 2, "n": 3, "k": 1, "blocks": [["102"]]}\n',
         "error: design block 0 row '102' has a digit outside 0..1 (q = 2)\n"),
        ("e.txt", "2 3 1\n\n1g0\n",
         "error: design block 0 row '1g0' has a digit outside 0..1 (q = 2)\n"),
        # a row is printed escaped, and a lone surrogate is a digit outside
        ("e.txt", "2 3 1\n\n1\x000\n",
         "error: design block 0 row '1\\x000' has a digit outside 0..1 (q = 2)\n"),
        ("e.json", '{"q": 2, "n": 3, "k": 1, "blocks": [["\\ud80001"]]}\n',
         "error: design block 0 row '\\ud80001' has a digit outside 0..1 (q = 2)\n"),
        ("e.txt", "2 3 2\n\n100\n010\n\n100\n",
         "error: design block 1 has 1 rows, expected 2\n"),
        ("e.json", '{"q": 2, "n": 3, "k": 1, "blocks": [["100"], ["10\\u001b[31m"]]}\n',
         "error: design block 1 row '10\\x1b[31m' has 7 digits, expected 3\n"),
        ("e.txt", "2 3 2\n\n100\n010\n\n110\n110\n",
         "error: design block 1 rows are not linearly independent\n"),
        # faults are reported in file order, the first one of a block first
        ("e.txt", "2 3 2\n\n110\n110\n\n100\n012\n",
         "error: design block 0 rows are not linearly independent\n"),
        ("e.json", '{"q": 2, "n": 3, "k": 2, "blocks": [["110", "110"], ["100", "012"]]}\n',
         "error: design block 0 rows are not linearly independent\n"),
        ("e.txt", "2 3 2\n\n1000\n012\n",
         "error: design block 0 row '1000' has 4 digits, expected 3\n"),
        ("e.txt", "2 3 2\n\n100\n000\n",
         "error: design block 0 rows are not linearly independent\n"),
        ("e.txt", "2 3 x\n\n100\n", "error: design header field 'k' must be an integer\n"),
        # the header must satisfy 0 <= k <= n, with or without blocks
        ("e.txt", "2 3 4\n", "error: need 0 <= k <= n, got k=4, n=3\n"),
        ("e.txt", "2 3 -1\n", "error: need 0 <= k <= n, got k=-1, n=3\n"),
        ("e.json", '{"q": 2, "n": 3, "k": 4, "blocks": [["1000"]]}\n',
         "error: need 0 <= k <= n, got k=4, n=3\n"),
        ("e.json", '{"q": 2, "n": -3, "k": 1, "blocks": []}\n',
         "error: need 0 <= k <= n, got k=1, n=-3\n"),
        # unreadable as UTF-8 or as JSON, however deep
        ("e.txt", b"\xff2 3 1\n",
         "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
        ("e.json", '{"q": 2,',
         "error: Expecting property name enclosed in double quotes: line 1 column 9 (char 8)\n"),
        ("e.json", '{"q": ' + "[" * 200_000 + "]" * 200_000 + "}",
         "error: maximum recursion depth exceeded while decoding a JSON array"
         " from a unicode string\n"),
    )
    for name, text, expected in cases:
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        for extra in ((), ("--json",)):
            code, out, err = run_cli("verify", "--design", str(tmp_path / name), "--t", "1", *extra)
            assert (code, out, err) == (2, "", expected)


def test_verify_k0_design_files(tmp_path):
    # every block of a k = 0 design is the zero subspace, given by no rows
    path = tmp_path / "k0.json"
    for blocks, N, lam, simple in (("[[], []]", 2, 2, "false"), ("[[]]", 1, 1, "true")):
        path.write_text('{"q": 2, "n": 3, "k": 0, "blocks": %s}\n' % blocks)
        code, out, err = run_cli("verify", "--design", str(path), "--t", "0")
        assert (code, err) == (0, "")
        assert out == (f"q = 2\nn = 3\nk = 0\nN = {N}\nt = 0\nis_design = true\n"
                       f"lambda = {lam}\nsimple = {simple}\ntrivial = {simple}\n"
                       f"histogram = {lam}:1\n")


def test_qbinom_q_below_2_exit_2():
    code, out, err = run_cli("qbinom", "--q", "1", "--n", "4", "--k", "2")
    assert code == 2 and out == ""
    assert err == "error: need q >= 2, got q=1\n"


def test_klp_report_q_below_2_exit_2():
    # n <= 64 reaches q_binomial; a larger n skips it
    for n in ("10", "100"):
        code, out, err = run_cli("klp-report", "--q", "1", "--n", n, "--k", "2", "--t", "1")
        assert code == 2 and out == ""
        assert err == "error: need q >= 2, got q=1\n"


def test_field_order_below_2_one_message(tmp_path):
    # make_field gives the same message as the q-counting commands above
    (tmp_path / "d.txt").write_text("1 3 1\n\n100\n")
    (tmp_path / "d.json").write_text('{"q": 1, "n": 3, "k": 1, "blocks": [["100"]]}')
    for args in (
        ("enumerate", "--q", "1", "--n", "3", "--k", "1"),
        ("incidence", "--q", "1", "--n", "3", "--k", "1", "--t", "1"),
        ("search", "--q", "1", "--n", "3", "--k", "1", "--t", "1", "--lambda", "1"),
        ("lemma2-check", "--q", "1", "--n", "3", "--t", "1", "--k", "2"),
        ("verify", "--design", str(tmp_path / "d.txt"), "--t", "1"),
        ("verify", "--design", str(tmp_path / "d.json"), "--t", "1"),
    ):
        assert run_cli(*args) == (2, "", "error: need q >= 2, got q=1\n"), args


def test_decode_text():
    code, out, _ = run_cli("decode", "--q", "2", "--t", "1", "--k", "2")
    assert code == 0
    assert "D row 0 = 2 1" in out
    assert "D row 1 = 0 3" in out
    assert "m = 6" in out
    assert "f = -1 2" in out


def test_decode_json():
    code, out, _ = run_cli("decode", "--q", "2", "--t", "1", "--k", "2", "--json")
    assert code == 0
    assert out == (
        '{\n  "D": [\n    [\n      2,\n      1\n    ],\n    [\n      0,\n      3\n    ]\n  ],\n'
        '  "Dj_dets": [\n    -1,\n    2\n  ],\n  "command": "decode",\n'
        '  "f": [\n    -1,\n    2\n  ],\n  "k": 2,\n  "m": 6,\n  "q": 2,\n'
        '  "schema_version": 1,\n  "t": 1\n}\n'
    )


def test_decode_certify_json():
    code, out, _ = run_cli(
        "decode", "--q", "2", "--t", "1", "--k", "2", "--certify", "--n", "3", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["D"] == [[2, 1], [0, 3]]
    assert obj["m"] == 6 and obj["f"] == [-1, 2]
    assert obj["certificate"]["certified"] is True
    assert obj["certificate"]["l1_norm"] == 10
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


# decode --certify at q = 3 and 4, one with n > t + k; the per-dimension
# subspace counts are the closed-form N_j of certificate_composition
DECODE_CERTIFY_PINNED = {
    ("3", "2", "3", "5"): (
        [
            "q = 3", "t = 2", "k = 3",
            "D row 0 = 9 4 0", "D row 1 = 0 12 1", "D row 2 = 0 0 13",
            "m = 1404", "f = 4 -9 108",
            "certify n = 5", "V = 10000,01000", "W = 10000,01000,00100,00010,00001",
            "coefficient[dim=0] = 4 on 729 subspaces",
            "coefficient[dim=1] = -9 on 468 subspaces",
            "coefficient[dim=2] = 108 on 13 subspaces",
            "l1_norm = 8532", "certified = true", "",
        ],
        {
            "D": [[9, 4, 0], [0, 12, 1], [0, 0, 13]], "Dj_dets": [4, -9, 108],
            "certificate": {
                "V": ["10000", "01000"], "W": ["10000", "01000", "00100", "00010", "00001"],
                "certified": True, "l1_norm": 8532, "n": 5,
                "subspaces_by_dim": {"0": 729, "1": 468, "2": 13},
            },
            "f": [4, -9, 108], "k": 3, "m": 1404, "q": 3, "t": 2,
        },
    ),
    ("4", "1", "2", "4"): (
        [
            "q = 4", "t = 1", "k = 2",
            "D row 0 = 4 1", "D row 1 = 0 5",
            "m = 20", "f = -1 4",
            "certify n = 4", "V = 1000", "W = 1000,0100,0010",
            "coefficient[dim=0] = -1 on 16 subspaces",
            "coefficient[dim=1] = 4 on 5 subspaces",
            "l1_norm = 36", "certified = true", "",
        ],
        {
            "D": [[4, 1], [0, 5]], "Dj_dets": [-1, 4],
            "certificate": {
                "V": ["1000"], "W": ["1000", "0100", "0010"],
                "certified": True, "l1_norm": 36, "n": 4,
                "subspaces_by_dim": {"0": 16, "1": 5},
            },
            "f": [-1, 4], "k": 2, "m": 20, "q": 4, "t": 1,
        },
    ),
}


@pytest.mark.parametrize("q, t, k, n", DECODE_CERTIFY_PINNED)
def test_decode_certify_pinned(q, t, k, n):
    text, obj = DECODE_CERTIFY_PINNED[q, t, k, n]
    args = ("decode", "--q", q, "--t", t, "--k", k, "--certify", "--n", n)
    assert run_cli(*args) == (0, "\n".join(text), "")
    obj = {**obj, "command": "decode", "schema_version": 1}
    assert run_cli(*args, "--json") == (0, json.dumps(obj, indent=2, sort_keys=True) + "\n", "")


def test_decode_certify_requires_n():
    code, _, err = run_cli("decode", "--q", "2", "--t", "1", "--k", "2", "--certify")
    assert code == 2


def test_decode_certify_small_n_names_n(capsys):
    # n < t is refused by the certificate's own check, not by building V
    from qdesign import cli

    for t, k, n in ((2, 5, 1), (2, 5, 5), (1, 2, 0), (1, 2, -1)):
        argv = ["decode", "--q", "2", "--t", str(t), "--k", str(k), "--certify", "--n", str(n)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: need ambient n >= t + k = {t + k}, got {n}\n")


def test_decode_certify_ambient_cap_exit_3():
    # 7 coefficient subspaces, but [n 1]_2 ambient lines to check; the
    # ambient cap refuses before a certificate is built, so a huge n costs
    # nothing, and it refuses first also where the [21 20]_2 certificate
    # subspaces exceed the cap, since [t+k k]_q <= [n t]_q
    for k, n in ((2, 1000), (2, 10**6), (20, 21)):
        start = time.monotonic()
        code, out, err = run_cli(
            "decode", "--q", "2", "--t", "1", "--k", str(k), "--certify", "--n", str(n)
        )
        assert time.monotonic() - start < 1.0
        assert code == 3 and out == ""
        assert err == f"error: ambient t-subspaces [{n} 1]_2 exceed cap 1000000\n"


def test_lemma2_check():
    code, out, _ = run_cli("lemma2-check", "--q", "2", "--n", "4", "--t", "1", "--k", "2")
    assert code == 0
    assert "l=0 j=0: formula = 6 pairs = 210" in out
    assert "ok = true" in out


def test_lemma2_check_json():
    code, out, _ = run_cli(
        "lemma2-check", "--q", "2", "--n", "4", "--t", "1", "--k", "2", "--json"
    )
    assert code == 0
    assert out == (
        '{\n  "cells": [\n'
        '    {\n      "formula": 6,\n      "j": 0,\n      "l": 0,\n      "pairs": 210\n    },\n'
        '    {\n      "formula": 1,\n      "j": 1,\n      "l": 0,\n      "pairs": 210\n    }\n'
        '  ],\n  "command": "lemma2-check",\n  "extension_count": 7,\n  "k": 2,\n'
        '  "mismatch": "",\n  "n": 4,\n  "ok": true,\n  "pairs": 210,\n  "q": 2,\n'
        '  "schema_version": 1,\n  "t": 1\n}\n'
    )


def test_lemma2_check_pair_cap_exit_3():
    code, out, err = run_cli("lemma2-check", "--q", "2", "--n", "9", "--t", "2", "--k", "3")
    assert (code, out) == (3, "")
    assert err == (
        "error: [9 2]_2 * [9 3]_2 = 34228300225 containment tests exceed cap 10000000\n"
    )
    args = ("lemma2-check", "--q", "2", "--n", "4", "--t", "1", "--k", "2", "--max-pairs")
    assert run_cli(*args, "524")[0] == 3
    assert run_cli(*args, "525")[0] == 0


def test_lemma2_check_lane_cap_exit_3():
    code, out, err = run_cli("lemma2-check", "--q", "2", "--n", "17", "--t", "1", "--k", "17")
    assert (code, out) == (3, "")
    assert err == "error: [17 1]_2 * 2^17 = 17179738112 lane bits exceed cap 268435456\n"


def test_lemma2_check_hit_word_cap_exit_3():
    # both lane families and the raised pair cap pass; the (t+1) segments
    # of [10 2]_2 bits per 8-subspace do not
    args = ("--q", "2", "--n", "10", "--t", "2", "--k", "8", "--max-pairs", "100000000000")
    start = time.monotonic()
    code, out, err = run_cli("lemma2-check", *args)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        "error: 3 * [10 2]_2 * [10 8]_2 = 91090233003 lane bits exceed cap 268435456\n"
    )


def test_cap_errors_abbreviate_huge_counts():
    # [1000000 1]_2 has 301,030 decimal digits; the caps refuse it at once
    million = ("--q", "2", "--n", "1000000")
    cases = {
        ("enumerate", *million, "--k", "1"): (
            "[1000000 1]_2 = more than 2^999999 exceeds cap 10000000"
        ),
        ("lemma2-check", *million, "--t", "1", "--k", "1"): (
            "[1000000 1]_2 * [1000000 1]_2 = more than 2^1999998 "
            "containment tests exceed cap 10000000"
        ),
        # the exact [n k]_2 at k = n/2 takes seconds to minutes; the product
        # caps refuse from 2^(k(n-k)) instead
        ("incidence", "--q", "2", "--n", "10000", "--k", "5000", "--t", "5000"): (
            "more than 2^25000000 x more than 2^25000000 bits exceeds cap 1000000000"
        ),
        # t < n, so there are two distinct t-subspaces without counting them
        ("lemma2-check", "--q", "2", "--n", "10000", "--t", "5000", "--k", "5000"): (
            "[10000 5000]_2 * [10000 5000]_2 = more than 2^50000000 "
            "containment tests exceed cap 10000000"
        ),
        # the decoding system refuses from m >= q^((k-t) t (t+1)) before any
        # elimination; uncapped, decode took 9 s
        ("decode", "--q", "2", "--t", "10", "--k", "1000"): (
            "decoding system for q=2, t=10, k=1000: m = det D has at least 108900 bits; "
            "work (t+1)^2 * (2048 + 108900) = 13424708 exceeds cap 1048576"
        ),
    }
    for n, k in ((2000, 1000), (4000, 2000), (10000, 5000)):
        e = k * (n - k)
        sizes = ("--q", "2", "--n", str(n), "--k", str(k), "--t", "1")
        cases[("incidence", *sizes)] = (
            f"more than 2^{e} x more than 2^{n - 1} bits exceeds cap 1000000000"
        )
        cases[("lemma2-check", *sizes)] = (
            f"[{n} 1]_2 * [{n} {k}]_2 = more than 2^{e + n - 1} "
            "containment tests exceed cap 10000000"
        )
    for args, message in cases.items():
        start = time.monotonic()
        code, out, err = run_cli(*args)
        assert time.monotonic() - start < 1.5
        assert (code, out, err) == (3, "", f"error: {message}\n")


def test_binomial_cap_refuses_from_lower_bound():
    # the exact [3000 1500]_2 takes seconds; q^(k(n-k)) alone is past the cap
    start = time.monotonic()
    code, out, err = run_cli("enumerate", "--q", "2", "--n", "3000", "--k", "1500")
    assert time.monotonic() - start < 1.5
    assert (code, out, err) == (
        3, "", "error: [3000 1500]_2 = more than 2^2250000 exceeds cap 10000000\n"
    )


def test_search_caps_refuse_from_lower_bound():
    # the exact [2000 1000]_2 takes seconds; the block-count check and the
    # candidate cap read their answers off q^(k(n-k)) instead
    args = ("search", "--q", "2", "--n", "2000", "--k", "1000", "--lambda", "1")
    cases = {
        ("--t", "1"): "universe [2000 1]_2 exceeds cap 10000",
        ("--t", "1", "--max-universe", str(2**2000)): "candidates [2000 1000]_2 exceed cap 100000",
        # no integer block count either, but the caps come first: the
        # block-count test would take the exact [2000 500]_2
        ("--t", "500"): "universe [2000 500]_2 exceeds cap 10000",
    }
    for extra, message in cases.items():
        start = time.monotonic()
        code, out, err = run_cli(*args, *extra)
        assert time.monotonic() - start < 1.0
        assert (code, out, err) == (3, "", f"error: {message}\n")


def test_builds_are_refused_only_by_the_callers_caps():
    # [10 5]_2 = 109,221,651 rows: their index entries, charged 100 bits
    # each, pass the default --max-bits, and the refusal names that cap
    code, out, err = run_cli("incidence", "--q", "2", "--n", "10", "--k", "5", "--t", "0")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.endswith(" exceeds cap 1000000000\n")
    # the same candidates pass --max-candidates 10^9, and the build runs
    # until the user's --timeout stops it
    code, out, err = run_cli(
        "search", "--q", "2", "--n", "10", "--k", "5", "--t", "1", "--lambda", "1",
        "--max-candidates", "1000000000", "--timeout", "1",
    )
    assert (code, out, err) == (3, "timeout: best 0/1023 columns satisfied\n", "")


def test_klp_report_bit_cap_exit_3():
    code, out, err = run_cli(
        "klp-report", "--q", "2", "--n", "100000", "--k", "25000", "--t", "1"
    )
    assert (code, out) == (3, "")
    assert err == "error: B_lower = 2^1875000000 exceeds the cap of 1000000 bits\n"
    args = ("klp-report", "--q", "2", "--n", "20", "--k", "5", "--t", "1", "--max-bits")
    assert run_cli(*args, "2028")[0] == 3
    default = run_cli(*args[:-1])
    assert default[0] == 0
    # a cap past the float range (about 10^308) is compared in integers
    for cap in ("2029", "1" + "0" * 400):
        assert run_cli(*args, cap) == default


def test_klp_report_feasible_point():
    code, out, _ = run_cli(
        "klp-report", "--q", "2", "--n", "1000", "--k", "25", "--t", "1"
    )
    assert code == 0
    assert "feasible = true (relative to supplied constant)" in out
    code, out, _ = run_cli(
        "klp-report", "--q", "2", "--n", "1000", "--k", "12", "--t", "1"
    )
    assert code == 0
    assert "feasible = false (relative to supplied constant)" in out


def test_klp_report_text_without_exact_values():
    # n > 64: no exact A, B and no divisibility witness
    code, out, _ = run_cli("klp-report", "--q", "2", "--n", "65", "--k", "2", "--t", "1")
    assert code == 0
    assert out == "\n".join([
        "q = 2",
        "n = 65",
        "k = 2",
        "t = 1",
        "constant = 1",
        "c1_bound = 174224571863520493293247799005065324265472",
        "c2 = 1",
        "c3_bound = 65536",
        "A_upper = 680564733841876926926749214863536422912",
        "B_lower = 85070591730234615865843651857942052864",
        "A_exact = absent",
        "B_exact = absent",
        "rhs_final = 375016382951990021510788150208673440629742997801485052794322"
        "112434822033158579565495766472173811895851326488005195649981191801317565636626"
        "622137955662709081609606228332208018537361958674242462625288517818215417519019"
        "324275923251195071600849724216574117140493186420009436858645198548438424706958"
        "959015137549484264396256975352961245089542161851798957098830479500856080384866"
        "691152769217471736868818544490505846998561491651169303431239208105713328337003"
        "552594401951744000000000",
        "block_budget = 404383322139383786816477496045239279881745774329263798057"
        "747618202062613543322661271165839718141518619504072568279747281350019479353104"
        "355290133905342489107347888285208868328270279614101537727392823678758532731328"
        "754431124847707666528413354070818186224887925429783084055360424478044364258292"
        "076364269605889516801944427382398924805501721028960728271011505655417661693902"
        "566209314870046134327081424680818238815751481918795761961668847790356375564868"
        "25129977240950172286976",
        "feasible = false (relative to supplied constant)",
        "k_gt_12t = false",
        "k_gt_12t_plus_1 = false",
        "log_reading = bit_length(|A| c2) ** 8",
        "",
    ])


def test_klp_report_json_pinned():
    code, out, _ = run_cli(
        "klp-report", "--q", "2", "--n", "20", "--k", "5", "--t", "1", "--json"
    )
    assert code == 0
    assert out == (
        '{\n  "A_exact": 1048575,\n  "A_upper": 549755813888,\n'
        '  "B_exact": 126769425631762997934675,\n  "B_lower": 37778931862957161709568,\n'
        '  "block_budget": 312174855031599223138159722979316630574859814266497115085915695962'
        "537173881976562012030610306349197115982693112140662289544797567928828530629017"
        '6,\n  "c1_bound": 576460752303423488,\n  "c2": 1,\n  "c3_bound": 1099511627776,\n'
        '  "command": "klp-report",\n  "constant": 1,\n  "divisibility_witness": 520093200,\n'
        '  "feasible": false,\n  "k": 5,\n  "k_gt_12t": false,\n  "k_gt_12t_plus_1": false,\n'
        '  "log_reading": "bit_length(|A| c2) ** 8",\n  "n": 20,\n  "q": 2,\n'
        '  "rhs_final": 374882786914452308343265352236820227358802347079390191111387692769604'
        "546331688370470147818783958777019774505644678762755591709876517028011255260792427086"
        '51497324972896105267200000000,\n  "schema_version": 1,\n  "t": 1\n}\n'
    )


def test_klp_report_witness_past_the_old_solver_cap():
    # the witness reads m = det D off D's diagonal, d(l, l) =
    # [k-t+l l]_q q^((k-t)(t-l)), instead of solving the system, whose cap
    # refuses (q, t, k) = (2, 30, 40)
    q, n, k, t = 2, 64, 40, 30
    m = 1
    for l in range(t + 1):
        m *= q_binomial(k - t + l, l, q) * q ** ((k - t) * (t - l))
    start = time.monotonic()
    code, out, err = run_cli("klp-report", "--q", "2", "--n", "64", "--k", "40", "--t", "30")
    assert time.monotonic() - start < 1.5
    assert (code, err) == (0, "")
    assert f"divisibility_witness = {m * q_binomial(n, t, q)}\n" in out


def test_klp_report_json_past_the_default_digit_limit():
    # these bounds run past the 4,300 digits that json.load accepts by
    # default, so a Python reader lifts the limit first
    args = ("klp-report", "--q", "2", "--n", "64", "--k", "40", "--t", "30")
    _, text, _ = run_cli(*args)
    code, out, err = run_cli(*args, "--json")
    assert (code, err) == (0, "")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        obj = json.loads(out)
        values = dict(line.split(" = ", 1) for line in text.splitlines())
        keys = ("c1_bound", "c3_bound", "rhs_final", "block_budget")
        assert {key: str(obj[key]) for key in keys} == {key: values[key] for key in keys}
        assert len(str(obj["block_budget"])) > 4300
    finally:
        sys.set_int_max_str_digits(saved)


def test_klp_report_json_round_trip():
    code, out, _ = run_cli(
        "klp-report", "--q", "2", "--n", "12", "--k", "3", "--t", "1", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["c2"] == 1
    assert obj["divisibility_witness"] is not None
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_search_out_of_range_exit_2():
    # t > k, t < 0, k > n and lambda < 0 are refused before any count
    cases = (
        (("--n", "4", "--k", "2", "--t", "3", "--lambda", "1"), "t=3, k=2, n=4"),
        (("--n", "4", "--k", "2", "--t", "-1", "--lambda", "1"), "t=-1, k=2, n=4"),
        (("--n", "3", "--k", "5", "--t", "1", "--lambda", "1"), "t=1, k=5, n=3"),
    )
    for args, got in cases:
        code, out, err = run_cli("search", "--q", "2", *args)
        assert (code, out, err) == (2, "", f"error: need 0 <= t <= k <= n, got {got}\n")
    code, out, err = run_cli(
        "search", "--q", "2", "--n", "4", "--k", "2", "--t", "1", "--lambda", "-1"
    )
    assert (code, out, err) == (2, "", "error: need 0 <= lambda, got lambda=-1\n")
    # a deadline that never passes, or always has, is refused too
    sizes = ("--q", "2", "--n", "6", "--k", "3", "--t", "2", "--lambda", "3")
    for limit, method in (("nan", "exhaustive"), ("inf", "greedy"), ("-inf", "exhaustive")):
        code, out, err = run_cli("search", *sizes, "--method", method, f"--timeout={limit}")
        assert (code, out, err) == (2, "", f"error: timeout must be finite, got {limit}\n")


def test_search_not_found_exit_1():
    code, out, _ = run_cli("search", "--q", "2", "--n", "3", "--k", "2", "--t", "1", "--lambda", "1")
    assert code == 1
    assert out.startswith("not found:")


def test_search_deep_trivial_design_json():
    # lambda 15 forces all 1,395 blocks, one search level per block
    code, out, err = run_cli(
        "search", "--q", "2", "--n", "6", "--k", "3", "--t", "2", "--lambda", "15", "--json"
    )
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["status"] == "found"
    assert len(obj["design"]["blocks"]) == 1395


def test_search_json(tmp_path):
    code, out, _ = run_cli(
        "search", "--q", "2", "--n", "4", "--k", "2", "--t", "1", "--lambda", "1", "--json",
        cwd=tmp_path,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "found"
    assert len(obj["design"]["blocks"]) == 5
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_search_found_text():
    code, out, _ = run_cli(
        "search", "--q", "2", "--n", "4", "--k", "2", "--t", "1", "--lambda", "1"
    )
    assert code == 0
    assert out == (
        "found: q=2 n=4 k=2 t=1 lambda=1 N=5\n\n2 4 2\n\n1000\n0100\n\n1001\n0110\n"
        "\n1010\n0111\n\n1011\n0101\n\n0010\n0001\n"
    )


def test_search_timeout_exit_3():
    code, out, _ = run_cli(
        "search", "--q", "2", "--n", "6", "--k", "3", "--t", "2", "--lambda", "1",
        "--method", "greedy", "--timeout", "0.2",
    )
    assert code == 3
    assert out.startswith("timeout:")


def test_search_timeout_json():
    code, out, _ = run_cli(
        "search", "--q", "2", "--n", "6", "--k", "3", "--t", "2", "--lambda", "1",
        "--method", "greedy", "--timeout", "0.2", "--json",
    )
    assert code == 3
    obj = json.loads(out)
    assert sorted(obj) == [
        "best_satisfied", "command", "schema_version", "status", "universe_size"
    ]
    assert obj["status"] == "timeout" and obj["universe_size"] == 651
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_verify_json_output(tmp_path):
    code, _, _ = run_cli(
        "search", "--q", "2", "--n", "4", "--k", "2", "--t", "1", "--lambda", "1",
        "--out", "spread.json", "--out-format", "json", cwd=tmp_path,
    )
    assert code == 0
    # JSON design files load through the same --design flag
    code, out, _ = run_cli(
        "verify", "--design", "spread.json", "--t", "1", "--json", cwd=tmp_path
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["is_design"] is True and obj["lambda"] == 1 and obj["N"] == 5
    assert obj["histogram"] == {"1": 15}
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_search_refuses_a_text_file_for_blocks_of_k_0(tmp_path):
    k0 = ("search", "--q", "2", "--n", "2", "--k", "0", "--t", "0", "--lambda", "1")
    code, out, err = run_cli(*k0, "--out", "k0.txt", cwd=tmp_path)
    assert (code, out) == (2, "")
    assert err == "error: blocks of k = 0 have no text form; use --out-format json\n"
    assert not (tmp_path / "k0.txt").exists()
    code, _, _ = run_cli(*k0, "--out", "k0.json", "--out-format", "json", cwd=tmp_path)
    assert code == 0
    code, out, _ = run_cli("verify", "--design", "k0.json", "--t", "0", "--json", cwd=tmp_path)
    obj = json.loads(out)
    assert code == 0 and (obj["N"], obj["lambda"], obj["trivial"]) == (1, 1, True)


def test_incidence_json_round_trip():
    code, out, _ = run_cli(
        "incidence", "--q", "2", "--n", "4", "--k", "2", "--t", "1", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == 35 and obj["col_weight"] == 7
    assert obj["average_row"] == "1/5"
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_search_not_found_json():
    code, out, _ = run_cli(
        "search", "--q", "2", "--n", "3", "--k", "2", "--t", "1", "--lambda", "1", "--json"
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "not_found"
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_cli_import_leaves_selftest_unloaded():
    code = "import sys, qdesign.cli; print('qdesign.selftest' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_import_adds_no_heavy_stdlib_modules():
    # compared with what the bare interpreter has loaded before the import,
    # so a module that site already imports does not count
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cases = {
        "qdesign.cli": {"dataclasses", "inspect", "fractions", "decimal", "json", "typing"},
        "qdesign.selftest": {"dataclasses", "inspect"},
    }
    for module, heavy in cases.items():
        code = (
            f"import sys; before = set(sys.modules); import {module}; "
            "print(*set(sys.modules) - before)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        added = set(proc.stdout.split())
        assert module in added
        assert not added & heavy, f"import {module} loads {sorted(added & heavy)}"


def test_internal_error_exit_4(monkeypatch, capsys):
    # only InvalidParameters is the caller's fault; a bare ValueError is
    # an internal invariant, and a solver's assertion is a bug, not a "no"
    from qdesign import cli

    for exc_type in (RuntimeError, ValueError, DegenerateSystem):

        def broken(args, exc_type=exc_type):
            raise exc_type("handler fell over")

        monkeypatch.setattr(cli, "_cmd_qbinom", broken)
        assert cli.main(["qbinom", "--q", "2", "--n", "4", "--k", "2"]) == 4
        out, err = capsys.readouterr()
        name = exc_type.__name__
        assert (out, err) == ("", f"error: internal error: {name}: handler fell over\n")


def test_selftest_subset_and_determinism():
    args = ("selftest", "--suite", "qcount_symmetry", "--suite", "decode_systems")
    code1, out1, _ = run_cli(*args, "--workers", "1")
    code8, out8, _ = run_cli(*args, "--workers", "4")
    assert code1 == code8 == 0
    assert out1 == out8
    assert "ok qcount_symmetry" in out1
    assert out1.strip().endswith("selftest: 2/2 suites ok")


def test_selftest_unknown_suite_exit_2():
    code, out, err = run_cli("selftest", "--suite", "nope")
    assert code == 2 and out == ""
    assert err == "error: unknown suite(s): nope\n"


def test_malformed_qdesign_workers_only_fails_selftest(monkeypatch):
    monkeypatch.setenv("QDESIGN_WORKERS", "abc")
    code, out, err = run_cli("qbinom", "--q", "2", "--n", "4", "--k", "2")
    assert (code, out, err) == (0, "35\n", "")
    code, out, err = run_cli("selftest", "--suite", "qcount_pascal")
    assert code == 2 and out == ""
    assert err.endswith("error: argument --workers: invalid int value: 'abc'\n")
    monkeypatch.setenv("QDESIGN_WORKERS", "2")
    code, out, _ = run_cli("selftest", "--suite", "qcount_pascal")
    assert code == 0 and out.endswith("selftest: 1/1 suites ok\n")


def test_selftest_workers_below_1_exit_2():
    for value in ("0", "-3"):
        code, out, err = run_cli("selftest", "--workers", value, "--suite", "qcount_pascal")
        assert (code, out, err) == (2, "", f"error: workers must be >= 1, got {value}\n")


def test_selftest_workers_clamped(monkeypatch):
    import concurrent.futures

    from qdesign import selftest

    pools = []

    class RecordingPool:
        """Records max_workers and runs the suites in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    names = ["qcount_pascal", "qcount_symmetry", "qcount_term_bounds", "decode_systems"]
    serial = selftest.run_selftest(workers=1, names=names)
    assert pools == []
    cases = (  # (requested, suites run, CPU count) -> pool size, None for serial
        (10**9, 4, 3, 3),
        (10**9, 2, 3, 2),
        (2, 4, 3, 2),
        (10**9, 4, None, None),
        (10**9, 1, 8, None),
    )
    for requested, suites, cpus, expected in cases:
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        pools.clear()
        report = selftest.run_selftest(workers=requested, names=names[:suites])
        assert pools == ([] if expected is None else [expected])
        assert report.results == serial.results[:suites]


def test_closed_stdout_exits_141_without_traceback():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    # about 380 kB of text, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "qdesign", "enumerate", "--q", "2", "--n", "7", "--k", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_selftest_json():
    code, out, _ = run_cli("selftest", "--suite", "qcount_pascal", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["suites"][0]["name"] == "qcount_pascal"
    assert obj["schema_version"] == 1 and obj["command"] == "selftest"
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


SELFTEST_PAIR = ("selftest", "--suite", "qcount_pascal", "--suite", "decode_systems")


def test_selftest_output_pinned():
    assert run_cli(*SELFTEST_PAIR) == (
        0,
        "ok qcount_pascal (312 checks)\nok decode_systems (48 checks)\n"
        "selftest: 2/2 suites ok\n",
        "",
    )
    obj = {
        "command": "selftest", "ok": True, "schema_version": 1,
        "suites": [
            {"checks": 312, "detail": "", "name": "qcount_pascal", "ok": True},
            {"checks": 48, "detail": "", "name": "decode_systems", "ok": True},
        ],
    }
    assert run_cli(*SELFTEST_PAIR, "--json") == (
        0, json.dumps(obj, indent=2, sort_keys=True) + "\n", ""
    )


def test_selftest_failing_suite(monkeypatch, capsys):
    from qdesign import cli, selftest

    def failing():
        raise selftest.SelfTestFailure("boom at 3")

    monkeypatch.setitem(selftest.SUITES, "qcount_pascal", failing)
    assert cli.main(list(SELFTEST_PAIR)) == 1
    assert capsys.readouterr() == (
        "FAIL qcount_pascal: boom at 3\nok decode_systems (48 checks)\n"
        "selftest: 1/2 suites ok\n",
        "",
    )
    assert cli.main([*SELFTEST_PAIR, "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is False
    assert obj["suites"] == [
        {"checks": 0, "detail": "boom at 3", "name": "qcount_pascal", "ok": False},
        {"checks": 48, "detail": "", "name": "decode_systems", "ok": True},
    ]
