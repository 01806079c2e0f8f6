import io
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
if SRC not in sys.path:
    sys.path.insert(0, SRC)

TIMEOUT_S = 300  # a command without a bound fails its test instead of hanging the suite


class CommandTimeout(BaseException):
    """run_cli's timer ran out: no Exception, so main cannot report it as exit 4."""


def run_cli(*args, cwd=None):
    """Run cli.main in this process, in cwd if given; returns (exit_code,
    stdout, stderr) as a `python -m qdesign` child would.  An argparse exit
    becomes its code.  sys.__stdout__ is the capture buffer meanwhile, so
    argparse wraps its usage at the width a child on a pipe sees: COLUMNS,
    else 80.  The working directory and the limit on integer digits, which
    main lifts, are restored afterwards."""
    from qdesign import cli

    def expire(signum, frame):
        raise CommandTimeout(f"qdesign {' '.join(args)} ran past {TIMEOUT_S} s")

    out, err = io.StringIO(), io.StringIO()
    home, digits, real_stdout = os.getcwd(), sys.get_int_max_str_digits(), sys.__stdout__
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        os.chdir(cwd or home)
        sys.__stdout__ = out
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.chdir(home)
        sys.set_int_max_str_digits(digits)
        sys.__stdout__ = real_stdout
    return code, out.getvalue(), err.getvalue()


def child_env():
    """The environment of a child interpreter that imports qdesign from src."""
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


def run_process(*args, cwd=None):
    """run_cli's answer from a real `python -m qdesign` child, for tests whose
    subject is the process; past the timeout it raises TimeoutExpired."""
    proc = subprocess.run([sys.executable, "-m", "qdesign", *args], capture_output=True,
                          text=True, cwd=cwd, env=child_env(), timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr
