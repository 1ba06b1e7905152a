"""A pytest plugin that fails the run on any executable line of ``src/hallmark`` that no test ran.

Load it by name, so that its tracer is on before ``tests/conftest.py`` imports ``hallmark`` and sees the
module-level lines run too::

    PYTHONPATH=src python -m pytest -q -p tests.linetrace

Lines that run only in a test's subprocess are not seen. ``ALLOWED`` names the lines that may stay unrun, by
file and stripped source text; an entry that ran, or that matches no line, also fails the run, so the list
cannot go stale.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hallmark"

ALLOWED = {
    # imports for annotations only, under ``if TYPE_CHECKING:``
    ("cli.py", "from .llm import MarkingRule, ProviderConfig"),
    ("knowledge.py", "import requests"),
    ("llm.py", "import requests"),
    # runs only as ``python -m hallmark.cli``
    ("cli.py", "sys.exit(main())"),
}

_ran: dict[str, set[int] | None] = {}  # co_filename -> the lines run in it, or None for a file outside SRC


def _trace_lines(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _ran:
        _ran[filename] = set() if Path(filename).resolve().is_relative_to(SRC) else None
    if _ran[filename] is None:
        return None
    _ran[filename].add(frame.f_lineno)
    return _trace_lines


def _executable(code) -> set[int]:
    """The lines of ``code`` and of the code objects defined in it that hold an instruction."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _executable(const)
    return lines


sys.settrace(_trace_calls)
threading.settrace(_trace_calls)
_report: list[str] = []


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    ran: dict[Path, set[int]] = {}
    for filename, lines in _ran.items():
        if lines is not None:
            ran.setdefault(Path(filename).resolve(), set()).update(lines)
    stale = set(ALLOWED)
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        name = path.relative_to(SRC).as_posix()
        for line in sorted(_executable(compile(source, path, "exec")) - ran.get(path, set())):
            entry = (name, text[line - 1].strip())
            stale.discard(entry)
            if entry not in ALLOWED:
                _report.append(f"never run: {name}:{line}: {entry[1]}")
    _report.extend(f"allowed, but not an unrun line: {name}: {text}" for name, text in sorted(stale))
    if _report:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("lines of src/hallmark that no test ran")
    for line in _report:
        terminalreporter.line(line, red=True)
    terminalreporter.line(f"{len(_report)} found: the run fails" if _report else f"none outside the {len(ALLOWED)} allowed")
