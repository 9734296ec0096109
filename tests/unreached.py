"""Library lines that no tier-1 test reaches, found without ``coverage``.

    PYTHONPATH=src python tests/unreached.py [PYTEST_ARG ...]

Runs the tier-1 tests (``pytest.main`` with the checkout as the working
directory, and any PYTEST_ARG added) in this process under a
``sys.settrace`` hook that keeps the line events of code in ``src/lorentz``.
A line is executable when a code object compiled from its module starts a
line there (``co_lines``).  The report is one ``module.py:line  source`` line
per executable line that no test reached, then the count.  Lines run only in
a child process (a subprocess test, a worker pool) count as not reached.  The
exit code is pytest's.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lorentz"


def executable_lines(path: Path) -> set[int]:
    """The lines at which some code object compiled from ``path`` starts a line."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)    # 0: no source line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    if "lorentz" in sys.modules:
        raise SystemExit("lorentz was imported before the hook: its module lines would be missed")
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    reached: set[tuple[str, int]] = set()
    done: set = set()       # code objects whose every line was reached: no longer traced
    code_lines: dict = {}

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        elif event == "return":
            code = frame.f_code
            if code not in code_lines:
                code_lines[code] = {(code.co_filename, line)
                                    for _, _, line in code.co_lines() if line}
            if code_lines[code] <= reached:
                done.add(code)
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        return local if code.co_filename in files and code not in done else None

    os.chdir(ROOT)
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [(path, line) for name, path in files.items()
              for line in sorted(executable_lines(path)) if (name, line) not in reached]
    for path, line in missed:
        source = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{path.name}:{line}  {source}")
    print(f"{len(missed)} executable lines of src/lorentz reached by no test")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
