"""Pinned outcomes of seeded fuzz cases, one door at a time.

The cases come from a seeded generator that uses the standard library
alone and imports nothing from qdesign, so it cannot share a fault with
the code it feeds.  Each case's outcome is one string: the result, or
the exception's type and message.  The outcomes are hashed in runs of
100 cases, so a failure names the runs that moved, and as a whole.

Design files (text and JSON, through load_design): canonical, shuffled,
dependent and duplicate blocks, non-canonical bases, bad digits, NUL, a
lone surrogate and non-ASCII characters, wrong row counts and lengths,
k from -1 to n + 1, for every supported q and a few unsupported ones.
A case's outcome is q, n, k, the entries of its blocks and
verify_design(c, min(1, k)); or the exception.

Ranks (through unrank): the first and the last rank of every pivot
group, and the ranks -1 and [n k]_q just outside the range, over a small
grid of (n, k) for every supported q.  A case's outcome is repr(S) and
subspace_rank(S) for S = unrank(n, k, F_q, r); or the exception.  The
generator counts each group itself: the bases with pivot columns P
number q to the count of free entries, those right of a row's pivot
and in no pivot column.
"""

import hashlib
import json
import random
from itertools import combinations

from qdesign.gf import SUPPORTED_ORDERS, make_field
from qdesign.grassmann import subspace_rank, unrank
from qdesign.verifier import load_design, verify_design

RUN = 100  # cases per pinned run digest

# gf.SUPPORTED_ORDERS, written out: the generator reads nothing of qdesign
ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
UNSUPPORTED = (-3, 0, 1, 6, 10, 17)
DIGITS = "0123456789abcdef"
# characters that must never read as a digit: past 0-9a-f, NUL, a lone
# surrogate, non-ASCII (an accent, an Arabic-Indic and a fullwidth digit)
# and a space inside a row
HOSTILE = ("g", "z", "G", "\0", "\ud800", "\xe9", "٣", "１", " ")


def _canonical_rows(rng, q, n, k):
    """k random rows in reduced row echelon form: increasing pivots, a 1
    at each, zeros left of it and in the other pivot columns."""
    pivots = sorted(rng.sample(range(n), k))
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = 1
        for j in range(p + 1, n):
            if j not in pivots:
                row[j] = rng.randrange(q)
        rows.append(row)
    return rows


def _block(rng, q, n, k):
    """The digit rows of one block: canonical mostly, else shuffled rows,
    random rows, a repeated or zero row, or rows of the wrong count or
    length."""
    kind = rng.choices(
        ("canonical", "shuffled", "random", "dependent", "count", "length", "scaled"),
        (10, 2, 2, 2, 1, 1, 1))[0]
    rows = _canonical_rows(rng, q, n, max(0, min(k, n)))
    if kind == "shuffled":
        rng.shuffle(rows)
    elif kind == "random":
        rows = [[rng.randrange(q) for _ in range(n)] for _ in rows]
    elif kind == "dependent" and rows:
        i = rng.randrange(len(rows))
        rows[i] = list(rows[rng.randrange(len(rows))]) if rng.random() < 0.5 else [0] * n
    elif kind == "scaled" and rows and q > 2:
        # a leading entry other than 1
        row = rng.choice(rows)
        row[row.index(1)] = rng.randrange(2, q)
    text = ["".join(DIGITS[x] for x in row) for row in rows]
    if kind == "count":
        if text and rng.random() < 0.5:
            text.pop(rng.randrange(len(text)))
        else:
            text.append("".join(rng.choice(DIGITS[:q]) for _ in range(n)))
    elif kind == "length" and text:
        i = rng.randrange(len(text))
        text[i] = text[i][:-1] if text[i] and rng.random() < 0.5 else text[i] + "0"
    return text


def _spoil_digit(rng, q, blocks):
    """One entry of one row replaced by a character that is not a digit
    below q: a hostile one, a digit at or past q, or an upper-case one."""
    rows = [(b, i) for b, block in enumerate(blocks) for i, row in enumerate(block) if row]
    if not rows:
        return
    b, i = rng.choice(rows)
    row = blocks[b][i]
    j = rng.randrange(len(row))
    choices = list(HOSTILE) + [DIGITS[min(q, 15)], DIGITS[rng.randrange(q)].upper()]
    blocks[b][i] = row[:j] + rng.choice(choices) + row[j + 1:]


def _design(rng, q, n, k):
    """A few blocks' digit rows, some repeated, in shuffled order."""
    count = rng.choice((0, 1, 1, 2, 3, 4, 6, 9))
    blocks = [_block(rng, q, n, k) for _ in range(count)]
    if blocks and rng.random() < 0.3:
        blocks.append(list(rng.choice(blocks)))
        rng.shuffle(blocks)
    if rng.random() < 0.2:
        _spoil_digit(rng, q, blocks)
    return blocks


def _text_file(rng, q, n, k, blocks) -> bytes:
    header = f"{q} {n} {k}"
    if rng.random() < 0.05:
        header = rng.choice((f"{q} {n}", f"{q} {n} {k} 0", f"{q} {n} {k}.0", f"q {n} {k}", ""))
    lines = [header]
    for rows in blocks:
        lines += [""] * rng.choice((1, 1, 1, 2)) + [row + " " * rng.choice((0, 0, 1)) for row in rows]
    newline = "\r\n" if rng.random() < 0.1 else "\n"
    text = newline.join(lines) + ("" if rng.random() < 0.1 else newline)
    # a lone surrogate reaches the file as bytes that are not UTF-8
    return text.encode("utf-8", "surrogatepass")


def _json_file(rng, q, n, k, blocks) -> bytes:
    obj = {"schema_version": 1, "q": q, "n": n, "k": k, "blocks": blocks}
    spoil = rng.random()
    if spoil < 0.03:
        del obj[rng.choice(("q", "n", "k", "blocks"))]
    elif spoil < 0.06:
        obj[rng.choice(("q", "n", "k"))] = rng.choice((float(k), True, str(k), None))
    elif spoil < 0.08:
        obj["blocks"] = rng.choice(({"0": blocks}, [["1"], 1], "0", [[[0]]]))
    # ensure_ascii: a lone surrogate travels as the escape \ud800
    return json.dumps(obj, ensure_ascii=rng.random() < 0.8).encode("utf-8", "surrogatepass")


def _design_file_cases():
    """Seeded (suffix, file bytes) cases: for each supported q, random
    n, k from -1 to n + 1 and a few blocks; then unsupported orders, with
    k inside and outside its range."""
    rng = random.Random(3914)
    cases = []
    for q in ORDERS + UNSUPPORTED:
        supported = q in ORDERS
        for _ in range(150 if supported else 10):
            n = rng.choice(range(7 if q <= 3 else 5 if q <= 9 else 4)[1:] or (0,))
            n = 0 if rng.random() < 0.04 else n
            # k outside 0..n in one case of six
            k = rng.choice((-1, n + 1)) if rng.random() < 1 / 6 else rng.randint(0, n)
            blocks = _design(rng, q if supported else 2, n, k)
            if rng.random() < 0.5:
                cases.append(("txt", _text_file(rng, q, n, k, blocks)))
            else:
                cases.append(("json", _json_file(rng, q, n, k, blocks)))
    cases += [("txt", b""), ("txt", b"\n\n"), ("json", b"{"), ("json", b"{}"),
              ("txt", b"\xff\xfe2 3 1\n\n100\n"), ("json", b'{"q": 2, "n": 3, "k": 1, "blocks": []}')]
    return cases


def _design_file_outcome(path) -> str:
    try:
        c = load_design(str(path))
        entries = [tuple(block.entries) for block in c.blocks]
        report = verify_design(c, min(1, c.k))
        return f"{c.field.q} {c.n} {c.k} {entries} {report!r}"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _digests(outcomes):
    """(sha256 of each run of RUN outcomes, sha256 of them all)."""
    lines = [f"{outcome}\n".encode() for outcome in outcomes]
    runs = [hashlib.sha256(b"".join(lines[i : i + RUN])).hexdigest()
            for i in range(0, len(lines), RUN)]
    return runs, hashlib.sha256(b"".join(lines)).hexdigest()


# sha256 of each run of 100 design-file outcomes, and of the whole door,
# captured while every loaded block was held as its own SubspaceBasis
DESIGN_FILE_RUNS = (
    "68426bc0ac7530c7b20e72a4bac98c321c8598afe4a6905b9c355ad612165b93",
    "c6328b26a97a0d10276ecdd368f85b7baa175c1068f3567964fcc22509a99827",
    "6a1b3b88afeb8e5fd1a37e3f831da16ae89828b4d5ce699fd8279fd103c07bb9",
    "61e2e5aed625523adedac07b6771b9937694b39417679a7df9e154cb6cbdfaf2",
    "b0a5a984572c427bc4ec8ad62e227ed89fdf47f792f4dbe1558c191230ee0d4c",
    "9abec37ce1fd554ad915a57decef474551b276c9a63714af081373ac67c97d21",
    "840515189c52405fb0fc43bd2466b45683843e6a313b4c065803c5052fade8fa",
    "42823fb4ed216b42e3963e71229ee15a9fe8b2cd531ad153fdb00eafc9370e6b",
    "f23a26a5bb88074549bc95040238dfd4e3877ba07b3d7799b6e892a162aeca6c",
    "4f7c3595198e684da6136fdd08fcda7ebbc9baaef3483f761642bfa30a8afad8",
    "75b460655ffd4632206389c46a99fd93219dd0d5b5c33a3795e1ee5a96cd4b3f",
    "6e752a1a746b2f69676abdf879ef59b9dd95d2cd4e6c050733512e6b92d6ccc6",
    "b68f6e79366ac4408ebc3a9d5b2d163451501b36c4f744443db092b923759b83",
    "d6b9aaba6aff743444eb5ee8f954d94863327eef961fe2bff3206fb42e7470b8",
    "05547823abfbb8b3fa37e075cfbe7226fb0c9f09249b203d69f5034093575e43",
    "0763b414fa01436a2709c4d55655f431a6d788ece2b50f75c33ca0988412d236",
)
DESIGN_FILE_SHA256 = "dc85fece1600116c32fbeb017cf22747d705d31882414a6934f975319e899111"


def test_generator_covers_every_supported_order():
    assert ORDERS == SUPPORTED_ORDERS


def test_design_file_outcomes_pinned(tmp_path):
    outcomes = []
    for i, (suffix, data) in enumerate(_design_file_cases()):
        path = tmp_path / f"case{i}.{suffix}"
        path.write_bytes(data)
        outcomes.append(_design_file_outcome(path))
    runs, whole = _digests(outcomes)
    moved = [f"cases {RUN * i}..{RUN * i + RUN - 1}" for i, (got, want)
             in enumerate(zip(runs, DESIGN_FILE_RUNS)) if got != want]
    assert len(runs) == len(DESIGN_FILE_RUNS) and not moved, moved
    assert whole == DESIGN_FILE_SHA256


def _rank_cases():
    """(q, n, k, r) cases: per q and (n, k) of a small grid, r = -1, the
    first and last rank of each pivot group in lexicographic order of the
    pivot sets, and r = the number of k-subspaces."""
    cases = []
    for q in ORDERS:
        for n in range(6 if q <= 3 else 5 if q <= 9 else 4):
            for k in range(n + 1):
                cases.append((q, n, k, -1))
                start = 0
                for pivots in combinations(range(n), k):
                    free = sum(n - p - 1 - (k - 1 - i) for i, p in enumerate(pivots))
                    cases += [(q, n, k, start), (q, n, k, start + q**free - 1)]
                    start += q**free
                cases.append((q, n, k, start))
    return cases


def _rank_outcome(q, n, k, r) -> str:
    try:
        S = unrank(n, k, make_field(q), r)
        return f"{q} {n} {k} {r} {S!r} {subspace_rank(S)}"
    except Exception as exc:
        return f"{q} {n} {k} {r} {type(exc).__name__}: {exc}"


# sha256 of each run of 100 rank outcomes, and of the whole door, captured
# while SubspaceBasis held its entries as a tuple of ints
RANK_RUNS = (
    "0ceaecc90c6da61214464073127a1f19b0dbdc6c0bfb6528f3471c9d4fb718c5",
    "aae96b75aa88b784f98408fc030b1746957640060dd36190ebb980684f552089",
    "1327c462e2ad45ef9325f10b2a278a5fda10270b4c3e7b2b2b58ea6c5fcf94b6",
    "c1c1a25be3e2cb5f152bed836d4a01b0c839b5546e7e39a538d2922a919cc8f6",
    "b3e65a1d1c8b880d589e6dce013b21af3fd721866398ef31623ae4d6a7065613",
    "209362497e029c1059757e56f8b6e46bc4935ce4e50543089ca2277ad988b66b",
    "00734a4523a3cb88ae65631e2c9cbaaceb747f280d60c3794e5d7ba97512c7c5",
    "62974572d647982e047b8a471194885cf5dad7c00743e4cb4d77468c2c8e4c28",
    "59aa04a5e63d5277a5caee5e78df7471075cf1351ac17a22ec7d0f6c36a6aea3",
    "f188d5bd6929c7f3ed653d8163007c94ed3472a75ba7e0b0eba7526fcfd7adac",
)
RANK_SHA256 = "47532c351b5bad890fcf59c3f2935e1f32769b4f9dca69a592e5c3e27ce3202b"


def test_rank_outcomes_pinned():
    outcomes = [_rank_outcome(*case) for case in _rank_cases()]
    # each subspace ranks back to the rank it was unranked from
    assert all(o.split()[3] == o.split()[-1] for o in outcomes if "Subspace(" in o)
    runs, whole = _digests(outcomes)
    moved = [f"cases {RUN * i}..{RUN * i + RUN - 1}" for i, (got, want)
             in enumerate(zip(runs, RANK_RUNS)) if got != want]
    assert len(runs) == len(RANK_RUNS) and not moved, moved
    assert whole == RANK_SHA256
