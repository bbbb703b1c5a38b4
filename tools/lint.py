#!/usr/bin/env python
"""Lint driver for ``make lint``.

Runs ``ruff check`` when the tool is installed (CI installs it from the
``dev`` extra).  On machines without ruff -- the offline reproduction
container bakes in only the interpreter and pytest -- it falls back to
a small AST-based checker approximating the rule set pyproject.toml
selects (pyflakes F-rules plus a few pycodestyle E7s), so ``make lint``
always means *something* locally and the CI run can only be stricter.

Checks implemented by the fallback:

- F401  unused import (module scope; ``__init__.py`` exempt, matching
        the per-file-ignores in pyproject.toml)
- F811  redefinition of an unused name by a second import
- F841  local variable assigned but never used (simple names only;
        underscore-prefixed names exempt)
- E711  comparison to None with ==/!=
- E712  comparison to True/False with ==/!=
- E722  bare ``except:``
- F541  f-string without placeholders

Findings can be silenced per line either with ``# noqa`` (ruff's
syntax) or with the ``# repro: allow[DET001]``-style syntax shared with
``python -m repro.analysis`` -- one suppression vocabulary across both
checkers.  A ``repro: allow`` naming an unknown rule id is itself
reported (SUP001), so suppressions cannot rot silently.

Exit status: 0 clean, 1 findings, 2 internal error.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_PATHS = ("src", "tests", "tools", "examples")

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.suppress import (  # noqa: E402
    UNKNOWN_SUPPRESSION,
    is_suppressed,
    parse_suppressions,
)


def run_ruff() -> int:
    cmd = [
        shutil.which("ruff") or "ruff",
        "check",
        *[p for p in LINT_PATHS if (REPO_ROOT / p).exists()],
    ]
    print(f"[lint] ruff: {' '.join(cmd[1:])}")
    return subprocess.call(cmd, cwd=REPO_ROOT)


class _ModuleChecker(ast.NodeVisitor):
    """One-file approximation of the selected pyflakes/pycodestyle rules."""

    def __init__(self, path: Path, tree: ast.Module, source: str):
        self.path = path
        self.tree = tree
        #: 1-based line numbers carrying a ``# noqa`` comment
        self._noqa_lines = {
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if "# noqa" in line or "#noqa" in line
        }
        #: the shared repro-analysis inline suppressions
        self._suppressions, self._unknown_suppressions = parse_suppressions(
            source
        )
        self.findings: List[Tuple[int, str, str]] = []
        #: name -> (lineno, used?) for module-level imports
        self._imports: dict[str, Tuple[int, bool]] = {}

    # -- collection ----------------------------------------------------
    def check(self) -> List[Tuple[int, str, str]]:
        # format specs are nested JoinedStr nodes without placeholders;
        # exempt them from F541
        self._format_specs = {
            id(node.format_spec)
            for node in ast.walk(self.tree)
            if isinstance(node, ast.FormattedValue) and node.format_spec is not None
        }
        self._collect_imports()
        self._mark_used_names()
        skip_unused = self.path.name == "__init__.py"
        if not skip_unused:
            for name, (lineno, used) in self._imports.items():
                if not used and not name.startswith("_"):
                    self.findings.append(
                        (lineno, "F401", f"{name!r} imported but unused")
                    )
        self.visit(self.tree)
        self.findings = [
            finding for finding in self.findings
            if finding[0] not in self._noqa_lines
            and not is_suppressed(self._suppressions, finding[0], finding[1])
        ]
        for lineno, name in self._unknown_suppressions:
            self.findings.append(
                (
                    lineno,
                    UNKNOWN_SUPPRESSION,
                    f"suppression names unknown rule {name!r}",
                )
            )
        self.findings.sort()
        return self.findings

    def _collect_imports(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    self._register_import(name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    self._register_import(name, node.lineno)

    def _register_import(self, name: str, lineno: int) -> None:
        previous = self._imports.get(name)
        if previous is not None and not previous[1]:
            self.findings.append(
                (
                    lineno,
                    "F811",
                    f"redefinition of unused {name!r} from line {previous[0]}",
                )
            )
        self._imports[name] = (lineno, False)

    def _mark_used_names(self) -> None:
        import_lines = {lineno for lineno, _ in self._imports.values()}
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self._mark(node.id)
            elif isinstance(node, ast.Attribute):
                root = node
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name):
                    self._mark(root.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a module-level __all__ or docstring reference keeps it
                if node.value in self._imports and node.lineno not in import_lines:
                    self._mark(node.value)

    def _mark(self, name: str) -> None:
        entry = self._imports.get(name)
        if entry is not None:
            self._imports[name] = (entry[0], True)

    # -- per-node rules ------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if isinstance(comparator, ast.Constant):
                if comparator.value is None:
                    self.findings.append(
                        (node.lineno, "E711", "comparison to None (use 'is')")
                    )
                elif comparator.value is True or comparator.value is False:
                    self.findings.append(
                        (
                            node.lineno,
                            "E712",
                            f"comparison to {comparator.value} (use 'is' or "
                            "the truth value)",
                        )
                    )
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.findings.append((node.lineno, "E722", "bare 'except:'"))
        self.generic_visit(node)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        if id(node) in self._format_specs:
            return
        if not any(isinstance(v, ast.FormattedValue) for v in node.values):
            self.findings.append(
                (node.lineno, "F541", "f-string without placeholders")
            )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_unused_locals(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_unused_locals(node)
        self.generic_visit(node)

    @staticmethod
    def _own_scope(func):
        """The function's direct scope: stop at nested scope boundaries
        (nested defs get their own visit; class bodies are not locals)."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                stack.extend(ast.iter_child_nodes(node))

    def _check_unused_locals(self, func) -> None:
        # candidates: plain single-name assignments only (matching
        # ruff's default F841 scope -- loop/with/unpack targets exempt)
        assigned: dict[str, int] = {}
        used: set = set()
        for node in self._own_scope(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, target.lineno)
        for node in ast.walk(func):
            if node is func:
                continue
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                used.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                used.add(node.target.id)
        for name, lineno in assigned.items():
            if name in used or name.startswith("_"):
                continue
            self.findings.append(
                (lineno, "F841", f"local variable {name!r} assigned but never used")
            )


def run_fallback() -> int:
    print("[lint] ruff not found; using tools/lint.py AST fallback")
    failures = 0
    for top in LINT_PATHS:
        root = REPO_ROOT / top
        if not root.exists():
            continue
        for path in sorted(root.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:  # E9: hard parse errors
                print(f"{path.relative_to(REPO_ROOT)}:{exc.lineno}: E999 {exc.msg}")
                failures += 1
                continue
            for lineno, code, message in _ModuleChecker(path, tree, source).check():
                print(f"{path.relative_to(REPO_ROOT)}:{lineno}: {code} {message}")
                failures += 1
    if failures:
        print(f"[lint] {failures} finding(s)")
        return 1
    print("[lint] clean")
    return 0


def main() -> int:
    if shutil.which("ruff"):
        return run_ruff()
    return run_fallback()


if __name__ == "__main__":
    sys.exit(main())
