"""List the statements of ``src/tarnpricer`` that tier-1 and the workloads run.

Two runs are traced in one process with ``sys.settrace``: tier-1
(``pytest -q -p no:cacheprovider tests``), then every benchmark workload
input of ``tools/records_digest.py``.  Lines run while the package is
imported count for both.  Per module this prints the statement count
(``ast`` statements other than docstrings, ``def``, ``class`` and imports),
each statement neither run executes, with its line and source, and the
lines of the statements only tier-1 executes.  The last list holds
candidates for deletion, not verdicts: config parsing, ``price``'s
``main``, the Dirichlet/Neumann closure and the error studies are user
paths that no workload takes.  Usage, from the repository root::

    python tools/line_coverage.py

It takes no options but ``--help`` and edits no file; it takes about a
minute and a half on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tarnpricer"
sys.path[:0] = [str(ROOT / "tools")]

DEFINITIONS = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIPPED = DEFINITIONS[1:] + (ast.Import, ast.ImportFrom)


def statements(path: Path) -> dict[int, str]:
    """Line -> source of the first line of each counted statement of ``path``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, DEFINITIONS) and ast.get_docstring(node) is not None}
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, SKIPPED)
            and id(node) not in docstrings}


class Tracer:
    """Records (file, line) of every line run in ``SRC`` into ``self.hits``."""

    def __init__(self):
        self.prefix = str(SRC) + "/"
        self.hits: set[tuple[str, int]] = set()

    def __call__(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self.local
        return None

    def local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter
                            ).parse_args(argv)
    tracer = Tracer()
    sys.settrace(tracer)
    import pytest
    import records_digest  # imports tarnpricer from src and the workloads

    imported = tracer.hits
    tracer.hits = set(imported)
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    tier1 = tracer.hits
    tracer.hits = set(imported)
    for name in records_digest.INPUTS:
        records_digest.records(name)
    workloads = tracer.hits
    sys.settrace(None)

    print(f"\ntier-1 exit code {int(code)}")
    print(f"{'module':<14}{'statements':>11}{'never':>7}{'tests only':>12}")
    report, totals = [], [0, 0, 0]
    for path in sorted(SRC.glob("*.py")):
        stmts = statements(path)
        name = str(path)
        never = [n for n in sorted(stmts)
                 if (name, n) not in tier1 and (name, n) not in workloads]
        tests_only = [n for n in sorted(stmts)
                      if (name, n) in tier1 and (name, n) not in workloads]
        print(f"{path.name:<14}{len(stmts):>11}{len(never):>7}{len(tests_only):>12}")
        for i, count in enumerate((len(stmts), len(never), len(tests_only))):
            totals[i] += count
        report.append((path.name, stmts, never, tests_only))
    print(f"{'total':<14}{totals[0]:>11}{totals[1]:>7}{totals[2]:>12}")
    for module, stmts, never, tests_only in report:
        print(f"\n{module}")
        for n in never:
            print(f"  never executed, line {n}: {stmts[n]}")
        if tests_only:
            print("  executed by tier-1 only (candidates, not verdicts): "
                  + ", ".join(map(str, tests_only)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
