"""Digest of every README CLI command, to compare two checkouts byte for byte.

Runs the README's eleven `dreidel-lab` commands in-process (`simulate`
with `--jobs 1`), two larger gamelet tables, the game chain at its
smallest and at 602 states, sixteen usage errors, four
runs whose bytes must not depend on an output name, an ignored setting or
the number of worker processes, and a Monte Carlo `scaling` run at
`--jobs 1` and `--jobs 2`, each in a fresh temporary directory.
Prints one tab-separated line per output file: the command, its exit
code (or the type of the exception it raised), the file (stdout, stderr,
or a file the command wrote) and the file's sha256.

    python3 tools/cli_digest.py | diff tools/cli_digest.txt -

compares this checkout with the committed digest `tools/cli_digest.txt`:
an empty diff means the change kept every CLI byte and exit code.  A
change that moves bytes on purpose regenerates that file and lists the
lines that changed in CHANGES.md.  It uses the package under this checkout's `src/`,
and takes about 2.7 s on a 2-core Xeon.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dreidel_lab.cli import main  # noqa: E402

COMMANDS = [
    "simulate --k 2 --n 8 --trials 100000 --seed 7 --jobs 1",
    "epochs --k 3 --epochs 1000000 --plot lengths.dat",
    "wald --k 2 --n 4 --w0 3 --records 100000",
    "exact --n 6 --rational",
    "pot-chain --xmax 200",
    "hitprob --n 5 --y1 4 --z1 1 --y2 5 --z2 1 --y3 3 --z3 1",
    "bounds --n 6 --flavor game",
    "gamelets --k 2 --p 4 --table signatures.csv",
    "construct --k 2 --n 30 --s 200 --format json",
    "scaling --k 2 --n-list 5,10,15,20,30,40 --mode exact --plot mu.dat",
    "report --n-list 3..8 -o verdicts.md",
    # gamelet tables whose signatures have two and three coordinates
    "gamelets --k 3 --p 4 --table signatures.csv",
    "gamelets --k 4 --p 3 --table signatures.csv",
    # the game chain at its smallest, 8 states, and at 602 states
    "exact --n 1",
    "exact --n 12",
    # usage errors: an empty and a one-point --n-list, a pot cap of 0, n = 0,
    # and a construction alpha outside [0, 1]
    "report --n-list 8..3",
    "scaling --k 2 --n-list 3,3 --mode exact",
    "hitprob --n 3 --pmax 0 --y1 2 --z1 1 --y2 3 --z2 1 --y3 1 --z3 1",
    "bounds --n 0",
    "report --n-list 0..3",
    "construct --k 2 --n 30 --s 200 --alpha -1 --seed 1",
    # a --n-list that is not integers, --jobs below 1, an output path in a
    # directory that does not exist
    "scaling --k 2 --n-list 3,a --mode exact",
    "simulate --k 2 --n 3 --trials 40000 --jobs 0",
    "epochs --k 2 --epochs 100 -o missing/x.csv",
    # a --seed on a subcommand that draws no random numbers, a --format on
    # `report`, and a missing -o directory after a good --plot (no plot is written)
    "bounds --n 3 --seed 1",
    "report --n-list 3..4 --format json",
    "epochs --k 2 --epochs 100 --plot lengths.dat -o missing/x.csv",
    # a sample size below its least value, named by the flag, and a wald
    # start outside the window or n = 0, refused before the epoch sample is drawn
    "epochs --epochs 0",
    "wald --records 1",
    "wald --w0 99",
    "wald --n 0",
    # settings that must not change the bytes: another --table name (stdout
    # as for signatures.csv), the --seed and --trials exact scaling ignores
    # (stdout as without them), and two worker processes (stdout as with
    # --jobs 1; this line starts two processes)
    "gamelets --k 2 --p 4 --table other.csv",
    "scaling --k 2 --n-list 3,4 --mode exact --seed 5 --trials 7",
    "scaling --k 2 --n-list 3,4 --mode exact",
    "simulate --k 2 --n 8 --trials 100000 --seed 7 --jobs 2",
    # the duration sampler through `scaling --mode mc`: stdout as with --jobs 1
    # (2000 trials are one chunk, so --jobs 2 starts no process here)
    "scaling --k 3 --n-list 3,4 --trials 2000 --seed 5 --jobs 1",
    "scaling --k 3 --n-list 3,4 --trials 2000 --seed 5 --jobs 2",
]
FILE_FLAGS = ("--plot", "--table", "-o")


def digest(command: str) -> list[str]:
    argv = command.split()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an error the CLI did not turn into an exit code
            code = f"raised {type(exc).__name__}"
    files = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    for flag, value in zip(argv, argv[1:]):
        if flag in FILE_FLAGS:
            files[value] = Path(value).read_bytes() if Path(value).exists() else b""
    return [f"{command}\texit {code}\t{name}\t{hashlib.sha256(data).hexdigest()}"
            for name, data in files.items()]


def run() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for i, command in enumerate(COMMANDS):
                os.chdir(tmp)
                os.mkdir(str(i))
                os.chdir(str(i))
                print("\n".join(digest(command)), flush=True)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    run()
