"""Line audit: run the test suite under a line tracer and list every
statement of the asrel package that no test reached.

Run from the repository root:

    HYPOTHESIS_PROFILE=ci PYTHONPATH=src python tests/line_audit.py

A trace hook records line events in the files under src/asrel/ only, for
the main thread and any thread a test starts. A statement counts as reached
when a line event fell on one of its own lines: its first line up to the
first line of its body, or all of it for a simple statement. Docstrings,
``def``, ``class`` and imports are not checked. Code that runs only in a
subprocess, such as ``python -m asrel.cli``, is not traced.

Each file's text is read before the suite starts, and the statements are
taken from that text, so they match the lines the tracer saw. A file whose
text has changed by the end of the run makes the audit exit 1 with a
"source changed during the audit" message, since its lines may no longer
match. Otherwise the audit exits with pytest's exit code when a test fails,
and with 1 when a statement outside ALLOWED is unreached. pytest, not the
coverage package, is all it needs.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asrel"

# Statements no in-process test reaches, as (file, enclosing function,
# statement source).
ALLOWED = {
    # Runs only as ``python -m asrel.cli``.
    ("cli.py", "<module>", "sys.exit(main())"),
    # Fallbacks that depend on what the generator draws: a peer pair drawn
    # twice, and a path after 64 walks that all stopped or looped.
    ("synth.py", "generate", "continue"),
    ("synth.py", "_sample_clean", "v = hops[0]"),
    ("synth.py", "_sample_clean", "nbrs = sorted(truth.graph.neighbors(v))"),
    ("synth.py", "_sample_clean", "return [v, rng.choice(nbrs)]"),
}
UNCHECKED = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def trace_package(hits: dict[str, set[int]]):
    """A trace function that adds the line numbers of every line event in
    a file under PACKAGE to hits[filename], and ignores other frames."""
    prefix = str(PACKAGE) + os.sep
    local_tracers: dict[str, object] = {}

    def local_tracer(lines: set[int]):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return local_tracers[filename]
        except KeyError:
            pass
        path = os.path.realpath(filename)
        tracer = None
        if path.startswith(prefix):
            tracer = local_tracer(hits.setdefault(path, set()))
        local_tracers[filename] = tracer
        return tracer

    return trace


def is_docstring(node: ast.stmt, body: list[ast.stmt]) -> bool:
    return (
        node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(tree: ast.Module):
    """(statement, enclosing function, own lines) of every checked
    statement of tree; an ``except`` clause counts as a statement."""

    def walk(body, scope: str, docstrings: bool):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(node.body, node.name, True)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, scope, True)
            elif not (
                isinstance(node, UNCHECKED) or (docstrings and is_docstring(node, body))
            ):
                children = [
                    *getattr(node, "body", ()),
                    *getattr(node, "handlers", ()),
                    *getattr(node, "orelse", ()),
                    *getattr(node, "finalbody", ()),
                ]
                end = min(
                    (child.lineno for child in children), default=node.end_lineno + 1
                )
                yield node, scope, range(node.lineno, max(end, node.lineno + 1))
                yield from walk(children, scope, False)

    return walk(tree.body, "<module>", True)


def snapshot() -> dict[Path, str]:
    """The text of every file of the package, by path, in sorted order."""
    return {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def unreached(
    hits: dict[str, set[int]], sources: dict[Path, str]
) -> list[tuple[str, int, str, str]]:
    """(file, line, function, first source line) of every checked
    statement of the package, parsed from sources, on none of whose own
    lines a line event fell."""
    out = []
    for path, source in sources.items():
        lines = hits.get(str(path.resolve()), set())
        for node, scope, own in statements(ast.parse(source)):
            if lines.isdisjoint(own):
                text = source.splitlines()[node.lineno - 1].strip()
                out.append((path.name, node.lineno, scope, text))
    return out


def main() -> int:
    sources = snapshot()
    hits: dict[str, set[int]] = {}
    trace = trace_package(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    after = snapshot()
    if after != sources:
        changed = sorted(
            path.name for path in sources.keys() | after.keys()
            if sources.get(path) != after.get(path)
        )
        print(f"line audit: source changed during the audit: {', '.join(changed)}")
        return 1
    missed = unreached(hits, sources)
    failing = 0
    for name, line, scope, text in missed:
        allowed = (name, scope, text) in ALLOWED
        failing += not allowed
        mark = "allowed" if allowed else "UNREACHED"
        print(f"{mark}: src/asrel/{name}:{line} ({scope}): {text}")
    print(
        f"line audit: {failing} unreached statement(s) outside the "
        f"allowlist, {len(missed) - failing} allowed"
    )
    if code:
        return int(code)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
