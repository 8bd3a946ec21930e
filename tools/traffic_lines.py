"""List the statements of the package that its production runs never execute.

    python tools/traffic_lines.py

runs, in this process and under ``sys.settrace``, what the program is used
for:

* one seed-1 round of each benchmark workload (``deep``, ``optimized`` and
  ``cli``, from ``perfbench/workloads.py``);
* ``aobs verify --cases 200 --seed 1``;
* ``aobs bench`` on a small configuration, as is, with ``--with-bdd`` and
  with ``--no-optimize``;
* the scripts in ``demos/``.

It then prints, for each module of ``src/aobs``, the statements inside
function bodies that none of these ran, one ``file:line: source`` line
each, and a per-module count.  Most of them report errors, which no legal
input reaches; any other is a branch that no pipeline takes.  A statement
counts as run when any line of it (of a compound statement, of its header)
ran; a statement that compiles to no line of its own is left out.  Only
this process is traced.  It exits 0 whatever it finds.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aobs"

BENCH = ["--vars", "10", "--values", "4", "--actions", "12", "--seeds", "3"]


def _statement_lines(tree: ast.AST) -> List[Tuple[int, Set[int]]]:
    """``(first line, lines)`` of every statement inside a function body,
    docstrings left out; a compound statement's lines are its header's."""
    out: List[Tuple[int, Set[int]]] = []

    def visit(body: List[ast.stmt]) -> None:
        for i, stmt in enumerate(body):
            if (i == 0 and isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue  # a docstring
            inner = [b for field in ("body", "orelse", "finalbody")
                     for b in [getattr(stmt, field, None)] if b]
            inner += [h.body for h in getattr(stmt, "handlers", [])]
            inner += [c.body for c in getattr(stmt, "cases", [])]
            end = (min(b[0].lineno for b in inner) - 1 if inner
                   else stmt.end_lineno)
            out.append((stmt.lineno,
                        set(range(stmt.lineno, max(end, stmt.lineno) + 1))))
            for b in inner:
                visit(b)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(node.body)
    # a nested function's statements are met once per enclosing walk
    return sorted({first: lines for first, lines in out}.items())


def _code_lines(code) -> Set[int]:
    """The lines that ``code`` and the code objects inside it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _workloads(workdir: str) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, Tally
    for name in ("deep", "optimized", "cli"):
        wl = WORKLOADS[name](name, 1, workdir)
        wl.setup()
        wl.run_round(Tally())


def _commands(workdir: str) -> None:
    from aobs import cli
    out = os.path.join(workdir, "bench.csv")
    cli.main(["verify", "--cases", "200", "--seed", "1"])
    for extra in ([], ["--with-bdd"], ["--no-optimize"]):
        cli.main(["bench", *BENCH, "--out", out, *extra])


def _demos() -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


@contextlib.contextmanager
def tracing(prefix: str) -> Iterator[Dict[str, Set[int]]]:
    """Trace this thread while the block runs: yields the lines run, per
    file whose name starts with ``prefix``, filled in as they run."""
    ran: Dict[str, Set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        yield ran
    finally:
        sys.settrace(old)


def never_ran(source: str, filename: str,
              seen: Set[int]) -> Tuple[List[int], int]:
    """The first lines of the statements in function bodies of ``source``
    of which no line is in ``seen``, and the number of statements that
    compile to a line of their own."""
    runnable = _code_lines(compile(source, filename, "exec"))
    statements = [(first, lines) for first, lines
                  in _statement_lines(ast.parse(source)) if lines & runnable]
    return ([first for first, lines in statements if not lines & seen],
            len(statements))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as workdir, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            tracing(str(PACKAGE) + os.sep) as ran:
        _workloads(workdir)
        _commands(workdir)
        _demos()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        never, count = never_ran(source, str(path), ran.get(str(path), set()))
        total += len(never)
        print(f"{path.name}: {len(never)} of {count} statements "
              f"in function bodies never ran")
        text = source.splitlines()
        for first in never:
            print(f"  {path.name}:{first}: {text[first - 1].strip()}")
    print(f"total: {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
