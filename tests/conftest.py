import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def run_cli(*args, cwd=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr).

    A run past the timeout raises subprocess.TimeoutExpired, so a command
    without a bound fails its test instead of hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "qdesign", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def main_in_process(capsys):
    """Run cli.main in this process; each call returns (exit_code, stdout,
    stderr) as run_cli does, for commands that need no process of their
    own.  An argparse exit is caught, and the interpreter's limit on
    integer digits, which main lifts, is restored afterwards."""
    from qdesign import cli

    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    saved = sys.get_int_max_str_digits()
    yield run
    sys.set_int_max_str_digits(saved)
