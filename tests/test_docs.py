"""Re-execute every transcript in docs/worked_examples.md and require
byte-identical stdout, exit 0 or 1 and empty stderr."""

import os
import sys

import pytest
from conftest import run_cli

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "docs"))
from regen_worked_examples import DOC, console_blocks  # noqa: E402

with open(DOC, encoding="utf-8") as fh:
    TRANSCRIPTS = [
        (idx, [(command, output) for _, command, output in block])
        for idx, block in enumerate(console_blocks(fh.read().splitlines()))
    ]


def test_doc_has_transcripts():
    assert len(TRANSCRIPTS) >= 8
    assert sum(len(pairs) for _, pairs in TRANSCRIPTS) >= 12


@pytest.mark.parametrize("idx,pairs", TRANSCRIPTS, ids=[f"block{t[0]}" for t in TRANSCRIPTS])
def test_transcript_block(idx, pairs, tmp_path):
    # commands in one block share a scratch directory, in order
    for cmd, expected in pairs:
        code, out, err = run_cli(*cmd.split(), cwd=tmp_path)
        got = out.splitlines()
        assert got == expected, f"output drift for: qdesign {cmd}"
        assert code in (0, 1) and err == "", f"exit {code}, stderr {err!r} for: qdesign {cmd}"
