"""Which functions of the package no CLI command enters.

Runs the commands of `tools/cli_digest.py` (its `COMMANDS`) in-process
under `sys.setprofile`, each in a fresh temporary directory, and leaves
out the ones with `--jobs 2`, whose work runs in child processes the
profiler does not see.  Then prints each function or method defined in
`src/dreidel_lab/*.py` that was never entered, one `module.py:line name`
per line (the line is where the definition starts, decorators included),
and a count.

    python3 tools/reach.py

It uses the package under this checkout's `src/`, writes only in
temporary directories, and takes 6–9 s on a 2-core Xeon.
"""

from __future__ import annotations

import inspect
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cli_digest import COMMANDS, digest  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src" / "dreidel_lab"


def functions(code):
    """(line, qualified name) of every named function compiled into `code`."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const.co_firstlineno, const.co_qualname
            yield from functions(const)


def main() -> None:
    defined = {(path.name, line, name)
               for path in sorted(SRC.glob("*.py"))
               for line, name in functions(compile(path.read_text(), str(path), "exec"))}
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((Path(code.co_filename).name, code.co_firstlineno, code.co_qualname))

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for i, command in enumerate(COMMANDS):
                if "--jobs 2" in command:
                    continue
                os.chdir(tmp)
                os.mkdir(str(i))
                os.chdir(str(i))
                sys.setprofile(profile)
                try:
                    digest(command)  # captures the command's stdout and stderr
                finally:
                    sys.setprofile(None)
        finally:
            os.chdir(cwd)
    never = sorted(defined - entered)
    for module, line, name in never:
        print(f"{module}:{line} {name}")
    print(f"{len(never)} of {len(defined)} functions never entered")


if __name__ == "__main__":
    main()
