"""List the executable lines of ``src/rainbowfree`` that the Tier-1 suite
never runs.

    python tools/unrun_lines.py [extra pytest arguments]

Run it from the root of a source checkout.  It runs Tier-1 in this process
under a ``sys.settrace`` line tracer that records only frames of
``src/rainbowfree``, then prints each package line that compiles to code
and never ran, as ``path:line: source``, and their count.  It uses the
standard library and pytest alone.

What it cannot see:
- Code that runs in a subprocess (the CLI tests that start ``python -m
  rainbowfree``): its lines count as unrun here.
- Wall-clock tests: the tracer slows the suite about sixfold, so the tests
  that assert a time bound are deselected by name (``TIMED``); their lines
  run in other tests or count as unrun.

A run takes about ten minutes on 2 vCPUs, so it is not a Tier-1 step.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rainbowfree"

# tests that assert a wall-clock bound, which the tracer's slowdown breaks
TIMED = [
    "tests/test_gallai.py::test_recognition_and_partition_scale_on_many_colors",
    "tests/test_patterns.py::test_floors_are_quick_on_the_most_symmetric_patterns",
]


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold bytecode of the module or of a
    function or class body in it."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    todo = [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        seen.add(frame.f_lineno)
        return line

    sys.path.insert(0, str(PACKAGE.parent))
    # modules imported before the tracer starts would hide their top level
    for name in [name for name in sys.modules if name.split(".")[0] == "rainbowfree"]:
        del sys.modules[name]
    deselect = [arg for test in TIMED for arg in ("--deselect", test)]
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *deselect, *argv, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    total = unrun = 0
    for name, path in files.items():
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text(encoding="utf-8").splitlines()
        for number in sorted(lines - ran[name]):
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{number}: {source[number - 1].strip()}")
    print(f"{unrun} of {total} executable lines never ran (pytest exit status {int(status)})")
    print("deselected as wall-clock tests: " + ", ".join(test.split("::")[1] for test in TIMED))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
