#!/usr/bin/env python3
"""Refresh the command outputs in worked_examples.md, the one source of
the worked examples: edit its prose and `$ qdesign` lines, then run this.

Each ```console block's commands run in order as `python -m qdesign`
processes in a fresh directory, and only the lines below each command are
rewritten.  Nothing is written unless every command exits 0 or 1 with
empty stderr, as tests/test_docs.py requires.  Review the diff after a rerun.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DOC = os.path.join(HERE, "worked_examples.md")
SRC = os.path.abspath(os.path.join(HERE, "..", "src"))
PROMPT = "$ qdesign "


def console_blocks(lines: list[str]) -> list[list[tuple[int, str, list[str]]]]:
    """Per ```console block of the document's lines, one (index, command,
    output) per command line: lines[index] is the command line, and output
    the lines after it up to the next command or the closing fence."""
    blocks: list = []
    block = None  # the open block, if any
    for index, line in enumerate(lines):
        if line.strip() == "```console":
            block = []
        elif block is not None and line.strip() == "```":
            blocks.append(block)
            block = None
        elif block is not None and line.startswith(PROMPT):
            block.append((index, line[len(PROMPT) :], []))
        elif block:
            block[-1][2].append(line)
    return blocks


def main() -> int:
    with open(DOC, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out, done, faults = [], 0, []
    for block in console_blocks(lines):
        with tempfile.TemporaryDirectory() as scratch:
            for index, command, old in block:
                proc = subprocess.run([sys.executable, "-m", "qdesign", *command.split()],
                                      capture_output=True, text=True, cwd=scratch, env=env)
                if proc.returncode not in (0, 1) or proc.stderr:
                    faults.append(f"exit {proc.returncode}, stderr {proc.stderr!r}: {command}")
                out += lines[done : index + 1] + proc.stdout.splitlines()
                done = index + 1 + len(old)
    if faults:
        print(*faults, f"{DOC} not written", sep="\n", file=sys.stderr)
        return 1
    with open(DOC, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out + lines[done:]))
    print(f"wrote {DOC}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
