"""The import graph between the layers, pinned.

``repro.inference`` and ``repro.core`` are the model and the planner; the
layers that describe, run and serve senders (``repro.api``,
``repro.runner``, ``repro.serving``, ``repro.experiments``,
``repro.diagnostics``) sit above them and are never imported from below,
at module level or inside a function, and ``repro.inference`` never
imports ``repro.core`` either.  The engine modules each import on
their own in a fresh interpreter, and the scalar ones leave the array
package unloaded.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
UPPER_LAYERS = ("api", "runner", "serving", "experiments", "diagnostics")


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports, nested imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: the package imports absolutely"
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("layer", ["inference", "core"])
def test_lower_layers_never_import_an_upper_one(layer):
    files = sorted((SRC / "repro" / layer).rglob("*.py"))
    assert files
    # The model sits below the planner too: an engine values lanes, and the
    # planner's one ``decide`` turns the values into a decision.
    above = UPPER_LAYERS + (("core",) if layer == "inference" else ())
    upward = {
        f"{path.relative_to(SRC)}: {module}"
        for path in files
        for module in imported_modules(path)
        for upper in above
        if module == f"repro.{upper}" or module.startswith(f"repro.{upper}.")
    }
    assert upward == set()


@pytest.mark.parametrize(
    "module, stays_unloaded",
    [
        ("repro.inference.belief", "repro.inference.vectorized"),
        ("repro.inference.vectorized.belief", "repro.api"),
        ("repro.inference.vectorized.rollout", "repro.api"),
        ("repro.core.planner", "repro.inference.vectorized"),
        ("repro.api", "repro.runner"),
    ],
)
def test_engine_modules_import_alone_in_a_fresh_interpreter(module, stays_unloaded):
    probe = (
        f"import sys, {module}\n"
        f"loaded = [name for name in sys.modules if name.startswith({stays_unloaded!r})]\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
