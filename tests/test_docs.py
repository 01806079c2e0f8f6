"""Re-execute every transcript in docs/worked_examples.md and require
byte-identical stdout, exit 0 or 1 and empty stderr."""

import os

import pytest

from conftest import run_cli

DOC = os.path.join(os.path.dirname(__file__), "..", "docs", "worked_examples.md")


def parse_transcripts():
    """Yield (block_index, [(command, expected_stdout), ...]) per fenced block."""
    with open(DOC, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    blocks = []
    inside = False
    current = []
    for line in lines:
        if line.strip() == "```console":
            inside = True
            current = []
            continue
        if inside and line.strip() == "```":
            blocks.append(current)
            inside = False
            continue
        if inside:
            current.append(line)
    out = []
    for idx, block in enumerate(blocks):
        pairs = []
        cmd = None
        buf = []
        for line in block:
            if line.startswith("$ qdesign "):
                if cmd is not None:
                    pairs.append((cmd, buf))
                cmd = line[len("$ qdesign ") :]
                buf = []
            else:
                buf.append(line)
        if cmd is not None:
            pairs.append((cmd, buf))
        out.append((idx, pairs))
    return out


TRANSCRIPTS = parse_transcripts()


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
