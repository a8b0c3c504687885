"""Comparison-flip mutation sweep: which boundaries do the tests pin?

Each mutant flips one comparison operator in a module, ``<`` <-> ``<=`` or
``>`` <-> ``>=``, and runs pytest on the given test files with the mutant
imported in place of the module. The module's file is never written: a
meta-path finder in the pytest process compiles the mutant source under the
module's own file name. A mutant whose tests all pass survives and is
printed as ``path:line:column: old -> new | source line``. A mutant whose tests
time out counts as killed.

Run from the repository root, for example:

    python3 tools/flip_comparisons.py src/entroute/netgraph.py tests/test_netgraph.py

Exit status: 0 when no mutant survives, 1 when one does, 2 when the tests
fail on the unmutated module.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
_FLIPPED = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}

# Seconds before a mutant's test run is stopped; a stopped run counts as killed.
TIMEOUT_S = 600.0

# Runs in the pytest process: argv is [module path, mutant path, *pytest args].
_BOOT = r"""
import importlib.machinery, os, sys
import pytest

target, mutant = os.path.realpath(sys.argv[1]), sys.argv[2]


class MutantLoader(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):
        with open(mutant, encoding="utf-8") as fh:
            return compile(fh.read(), self.path, "exec", dont_inherit=True)


class MutantFinder:
    @staticmethod
    def find_spec(name, path=None, target_module=None):
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.origin is None or os.path.realpath(spec.origin) != target:
            return None
        spec.loader = MutantLoader(name, spec.origin)
        return spec


sys.meta_path.insert(0, MutantFinder)
sys.exit(pytest.main(sys.argv[3:]))
"""


def mutants(source: str):
    """(line, column, old, new, mutant source) for each flippable
    comparison, in source order. The position is that of the operand
    right of the flipped operator."""
    tree = ast.parse(source)
    result = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for i, (op, right) in enumerate(zip(node.ops, node.comparators)):
            if type(op) in FLIPS:
                old, new = FLIPS[type(op)]
                node.ops[i] = _FLIPPED[type(op)]()
                result.append((right.lineno, right.col_offset + 1, old, new, ast.unparse(tree)))
                node.ops[i] = op
    return sorted(result)


def _run(module: str, mutant_path: str, tests: list[str]) -> bool:
    """Whether the tests pass with ``mutant_path`` imported as ``module``."""
    command = [sys.executable, "-c", _BOOT, module, mutant_path,
               "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="source file to mutate")
    parser.add_argument("tests", nargs="+", help="test files to run against each mutant")
    args = parser.parse_args(argv)
    with open(args.module, encoding="utf-8") as fh:
        source = fh.read()
    source_lines = source.splitlines()
    found = mutants(source)
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        mutant_path = os.path.join(tmp, "mutant.py")
        with open(mutant_path, "w", encoding="utf-8") as fh:
            fh.write(ast.unparse(ast.parse(source)))
        if not _run(args.module, mutant_path, args.tests):
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 2
        for line, column, old, new, text in found:
            with open(mutant_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            if _run(args.module, mutant_path, args.tests):
                survivors += 1
                print(f"{args.module}:{line}:{column}: {old} -> {new} | "
                      f"{source_lines[line - 1].strip()}", flush=True)
    print(f"{survivors} of {len(found)} mutants survived", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
