"""A pytest plugin that fails the run when a line of `src/linkalloc` goes unreached.

    PYTHONPATH=src python -m pytest -q -p tests.reach

It traces every thread with the standard library's `sys.settrace`, from before
the tests import the package, and takes each file's executable lines from its
code objects' `co_lines()`. Only subprocesses run `__main__.py` and `cli.py`'s
`sys.exit(main())`, so those two are allowed to go unreached. The tracer keeps
one bytearray and one local trace function per file, so that an event
allocates nothing a memory-bound test would count.
"""

import importlib.util
import sys
import threading
import types
from pathlib import Path

ALLOWED = (("__main__.py", None), ("cli.py", "sys.exit(main())"))   # None: the whole file

_hits = {}      # co_filename -> bytearray, 1 at each line reached
_tracers = {}   # co_filename -> its local trace function
_unreached = []


def _local_tracer(hits):
    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_lineno] = 1
        return local
    return local


def _global_tracer(frame, event, arg):
    return _tracers.get(frame.f_code.co_filename)


def _executable_lines(code):
    lines = {line for _, _, line in code.co_lines() if line}    # None: no line, 0: the prologue
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _executable_lines(const)
    return lines


def _allowed(path, text):
    return any(path.name == name and want in (None, text.strip()) for name, want in ALLOWED)


def pytest_configure(config):
    if "linkalloc" in sys.modules:
        raise RuntimeError("linkalloc was imported before the reach tracer started")
    package = Path(importlib.util.find_spec("linkalloc").submodule_search_locations[0])
    for path in sorted(package.glob("*.py")):
        hits = bytearray(len(path.read_text().splitlines()) + 2)
        _hits[str(path)], _tracers[str(path)] = hits, _local_tracer(hits)
    threading.settrace(_global_tracer)
    sys.settrace(_global_tracer)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    for name, hits in _hits.items():
        path = Path(name)
        source = path.read_text()
        lines = source.splitlines()
        for line in sorted(_executable_lines(compile(source, name, "exec"))):
            if not hits[line] and not _allowed(path, lines[line - 1]):
                _unreached.append(f"{path.name}:{line}: {lines[line - 1].strip()}")
    if _unreached and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    for entry in _unreached:
        terminalreporter.write_line(f"unreached {entry}")
    terminalreporter.write_line(f"reach: {len(_unreached)} unreached lines in src/linkalloc "
                                f"beyond the allow-list")
