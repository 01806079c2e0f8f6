import os
import subprocess
import sys

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
