"""Line census: every line of src/advface that can run is run by the tier-1 tests.

Run from anywhere as `python tests/line_census.py`. It traces the whole test
suite (in this process and in every thread it starts), then compares the
lines hit in each src/advface module with the lines its code objects, nested
ones included, hold (`co_lines()`). It exits 1 if the tests fail, or if a
line is missed that ALLOWED does not name, and lists each such line as
`file:line: source`.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "advface"

# a missed line's source text, stripped -> why no test runs it
ALLOWED = {
    "sys.exit(main())": "cli.py's `__main__` guard; the tests call main() in-process",
}

_hits: dict[str, set[int]] = {}


def _local(frame, event, arg):
    _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    lines = _hits.get(frame.f_code.co_filename)
    if lines is None:
        return None  # not a src/advface frame: trace none of its lines
    lines.add(frame.f_lineno)
    return _local


def _code_lines(code) -> set[int]:
    """Every line number of code and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    modules = sorted(SRC.glob("*.py"))
    for path in modules:
        _hits[str(path)] = set()
    threading.settrace(_global)
    sys.settrace(_global)  # before advface is first imported, so its import-time lines count
    import pytest

    status = pytest.main([str(ROOT / "tests")])
    sys.settrace(None)
    threading.settrace(None)
    missed = []
    for path in modules:
        source = path.read_text().splitlines()
        lines = _code_lines(compile(path.read_text(), str(path), "exec"))
        missed += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}"
                   for n in sorted(lines - _hits[str(path)])
                   if source[n - 1].strip() not in ALLOWED]
    print("\n".join(missed) or "line census: every src/advface line ran")
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main())
