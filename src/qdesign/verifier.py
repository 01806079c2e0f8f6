"""Verify candidate block collections as simple t-(n, k, lambda) designs
over F_q.

A collection of k-subspaces is a t-design iff every t-subspace of the
ambient space is contained in the same number lambda of blocks.
Verification counts coverage per t-subspace directly from the blocks:
each block contributes the canonical ranks of its own [k t]_q
t-subspaces to a flat list of counts, so neither the incidence matrix
nor the t-subspaces themselves are materialized and the only size cap is
the number of t-subspaces.  grassmann._block_t_ranks ranks them, grouping
the blocks by pivot columns; this module reads nothing of the echelon
shape but the column where each row of a design file leads.

Design file format (text):
    line 1: "q n k"
    then blocks separated by blank lines, each block k lines of n
    digits (field element indices; 0-9a-f covers q <= 16).
The JSON form carries the same fields plus a schema_version.  A block
with k = 0 has no rows, so only JSON holds a design of such blocks.

A file is read in one pass: its rows are joined and translated to
digit values once, and their counts, lengths and digits are checked
over the whole file.  A block whose rows are canonical, as save_design
writes them, is taken as it is (grassmann._canonical_check, from the
leading column of each row); any other basis is eliminated and must be
linearly independent.  If a whole-file check fails, the blocks are
read one at a time, so the first fault in file order is reported.  The
blocks share the file's q, n and k: DesignCandidate._trusted builds it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, groupby, repeat

from .errors import DimensionMismatch, InvalidParameters, _value_class, check_chain
from .gf import _DIGITS, FieldSpec, make_field
from .grassmann import SubspaceBasis, _block_t_ranks, _canonical_check, _span, _trusted, unrank
from .qcount import capped, q_binomial

# for bytes.translate: a digit's byte, either case, to its value, every other byte to 255
_DIGIT_VALUES = bytes(_DIGITS.find(chr(b).lower()) % 256 for b in range(256))


@_value_class
class DesignCandidate:
    field: FieldSpec
    n: int
    k: int
    blocks: tuple[SubspaceBasis, ...]

    def __post_init__(self) -> None:
        for b in self.blocks:
            if b.field.q != self.field.q or b.n != self.n:
                raise DimensionMismatch("block lives in the wrong ambient space")
            if b.k != self.k:
                raise DimensionMismatch(f"block of dimension {b.k}, expected {self.k}")


@_value_class
class VerificationReport:
    is_design: bool
    t: int
    lambda_: int | None
    is_simple: bool
    is_trivial: bool
    failing_t_subspace: SubspaceBasis | None
    counts_histogram: dict[int, int]


def verify_design(
    candidate: DesignCandidate, t: int, max_columns: int = 10**7
) -> VerificationReport:
    """Count, for every t-subspace, the blocks containing it.

    If the candidate is a design the common count lambda satisfies
    lambda [n t]_q = N [k t]_q (every block covers [k t]_q columns).
    On failure the witness is the first t-subspace in canonical order
    whose count differs from the most common count (ties broken toward
    the smaller count).
    """
    field, n, k = candidate.field, candidate.n, candidate.k
    q = field.q
    check_chain(0, t=t, k=k, n=n)
    (num_cols,) = capped(q, [(n, t)], max_columns)

    forms = [block.entries for block in candidate.blocks]
    counts = [0] * num_cols  # indexed by canonical rank
    for ranks in _block_t_ranks(field, n, k, t, forms):
        for r in ranks:
            counts[r] += 1

    histogram = dict(sorted(Counter(counts).items()))
    N = len(candidate.blocks)
    # blocks share field, n and k, so equal entries are equal blocks
    is_simple = len(set(forms)) == N
    is_design = len(histogram) == 1
    lambda_: int | None = None
    failing: SubspaceBasis | None = None
    if is_design:
        lambda_ = next(iter(histogram))
        if lambda_ * num_cols != N * q_binomial(k, t, q):
            raise AssertionError("design counting identity violated")
    else:
        mode = min(histogram, key=lambda c: (-histogram[c], c))
        failing = unrank(n, t, field, next(r for r, c in enumerate(counts) if c != mode))
    # N < 2^b <= q^(k(n-k)) <= [n k]_q when N has at most b bits: no count
    b = k * (n - k) * (q.bit_length() - 1)
    is_trivial = is_simple and N.bit_length() > b and N == q_binomial(n, k, q)
    return VerificationReport(
        is_design=is_design,
        t=t,
        lambda_=lambda_,
        is_simple=is_simple,
        is_trivial=is_trivial,
        failing_t_subspace=failing,
        counts_histogram=histogram,
    )


def lambda_identity_check(n: int, k: int, t: int, q: int, N: int) -> int | None:
    """lambda = N [k t]_q / [n t]_q if that division is exact, else None.

    None means no design with N blocks can exist at these parameters.
    """
    check_chain(0, t=t, k=k, n=n)
    lam, rem = divmod(N * q_binomial(k, t, q), q_binomial(n, t, q))
    return lam if rem == 0 else None


# ---------------------------------------------------------------------------
# design file I/O


def digit_rows(subspace: SubspaceBasis) -> list[str]:
    """The basis rows of a subspace as digit strings, as in design files."""
    return ["".join([_DIGITS[x] for x in row]) for row in subspace.rows()]


def format_design_text(candidate: DesignCandidate) -> str:
    out = [f"{candidate.field.q} {candidate.n} {candidate.k}"]
    for block in candidate.blocks:
        out.append("")
        out += digit_rows(block)
    return "\n".join(out) + "\n"


def design_to_json_obj(candidate: DesignCandidate) -> dict:
    return {
        "schema_version": 1,
        "q": candidate.field.q,
        "n": candidate.n,
        "k": candidate.k,
        "blocks": [digit_rows(block) for block in candidate.blocks],
    }


def _block_from_digit_rows(
    field: FieldSpec, n: int, k: int, rows: list[str], index: int
) -> SubspaceBasis:
    at = f"design block {index}"
    if len(rows) != k:
        raise InvalidParameters(f"{at} has {len(rows)} rows, expected {k}")
    q = field.q
    parsed = []
    for line in rows:
        if len(line) != n:
            raise InvalidParameters(f"{at} row {line!r} has {len(line)} digits, expected {n}")
        # one byte per character: a non-ASCII one (a lone surrogate too) reads as 255
        row = line.encode("ascii", "replace").translate(_DIGIT_VALUES)
        if max(row, default=0) >= q:
            raise InvalidParameters(
                f"{at} row {line!r} has a digit outside 0..{_DIGITS[q - 1]} (q = {q})"
            )
        parsed.append(row)
    block = _span(field, n, parsed)
    if block.k != k:
        raise InvalidParameters(f"{at} rows are not linearly independent")
    return block


def _design_from_fields(q: int, n: int, k: int, block_rows: list) -> DesignCandidate:
    """The candidate of a design file, text or JSON, once q, n and k are
    read.  Only _block_from_digit_rows words a fault (see the module doc)."""
    field = make_field(q)
    check_chain(0, k=k, n=n)
    rows = list(chain.from_iterable(block_rows))
    # one byte per character: a non-ASCII one (a lone surrogate too) reads as 255
    digits = "".join(rows).encode("ascii", "replace").translate(_DIGIT_VALUES)
    well_formed = (
        all(map(k.__eq__, map(len, block_rows)))
        and all(map(n.__eq__, map(len, rows)))
        and not digits.translate(None, bytes(range(q)))  # only digits below q
    )
    forms = checks = repeat(None)  # a file at fault, or k = 0 (no rows to slice): block by block
    if k and well_formed:
        size = k * n
        forms = map(digits.__getitem__, map(slice, range(0, len(digits), size),
                                            range(size, len(digits) + 1, size)))
        # a row's first nonzero entry sits at n minus the length of the row without its leading 0s
        leads = map(n.__sub__, map(len, map(str.lstrip, rows, repeat("0"))))
        checks = map(_canonical_check, repeat(n), repeat(q), zip(*[leads] * k))
    blocks = tuple([
        _trusted(field, n, k, tuple(form)) if check and check[0](form) == check[1]
        else _block_from_digit_rows(field, n, k, block, i)
        for i, (block, form, check) in enumerate(zip(block_rows, forms, checks))
    ])
    return DesignCandidate._trusted(field, n, k, blocks)


def _int_field(value, key: str, part: str) -> int:
    """A design file's q, n or k: a header word that int() reads, or a
    JSON integer (a float or a boolean is refused, not truncated)."""
    if part == "header":
        try:
            return int(value)
        except ValueError:
            pass
    elif type(value) is int:
        return value
    raise InvalidParameters(f"design {part} field {key!r} must be an integer")


def parse_design_text(text: str) -> DesignCandidate:
    lines = list(map(str.strip, text.splitlines()))
    if not lines:
        raise InvalidParameters("empty design file")
    header = lines[0].split()
    if len(header) != 3:
        raise InvalidParameters("header must be 'q n k'")
    q, n, k = (_int_field(word, key, "header") for key, word in zip(("q", "n", "k"), header))
    # blocks are the runs of nonblank lines
    block_rows = [list(rows) for nonblank, rows in groupby(lines[1:], bool) if nonblank]
    return _design_from_fields(q, n, k, block_rows)


def design_from_json_obj(obj: dict) -> DesignCandidate:
    missing = [key for key in ("q", "n", "k", "blocks") if key not in obj]
    if missing:
        raise InvalidParameters(f"design JSON is missing field {missing[0]!r}")
    q, n, k = (_int_field(obj[key], key, "JSON") for key in ("q", "n", "k"))
    block_rows = obj["blocks"]
    if not isinstance(block_rows, list) or not all(
        isinstance(rows, list) and all(isinstance(row, str) for row in rows)
        for rows in block_rows
    ):
        raise InvalidParameters("design JSON field 'blocks' must be a list of lists of digit strings")
    return _design_from_fields(q, n, k, block_rows)


def load_design(path: str) -> DesignCandidate:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:  # undecodable bytes, malformed or too deeply nested JSON
            text = fh.read()
            obj = json.loads(text) if text.lstrip().startswith("{") else None
        except (ValueError, RecursionError) as exc:
            raise InvalidParameters(str(exc)) from exc
    return parse_design_text(text) if obj is None else design_from_json_obj(obj)


def save_design(candidate: DesignCandidate, path: str, fmt: str = "text") -> None:
    import json

    if fmt == "text":
        if candidate.blocks and not candidate.k:  # such a block has no rows to write
            raise InvalidParameters("blocks of k = 0 have no text form; use --out-format json")
        payload = format_design_text(candidate)
    elif fmt == "json":
        payload = json.dumps(design_to_json_obj(candidate), indent=2, sort_keys=True) + "\n"
    else:
        raise InvalidParameters(f"unknown design format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
