"""Smoke tests for every script in examples/.

Each example is imported from its file and its ``main`` run with a tiny
simulated duration, so a refactor that breaks an example's imports,
argument parsing, or API usage fails the suite instead of rotting silently.
Output is captured; the assertions only check the scripts complete and
print their headline tables.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Every example script and the fast arguments its smoke run uses.
EXAMPLE_ARGS: dict[str, list[str]] = {
    "quickstart.py": ["--duration", "8"],
    "alpha_sweep.py": ["--duration", "20", "--switch", "10", "--alphas", "1.0,5.0"],
    "bufferbloat_cellular.py": ["--duration", "12"],
    "custom_topology.py": ["--duration", "10"],
    "inference_walkthrough.py": ["--duration", "10", "--slice", "5"],
}


def _load_example(filename: str):
    path = EXAMPLES_DIR / filename
    module_name = f"example_{filename.removesuffix('.py')}"
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(module_name, None)
    return module


def test_every_example_has_a_smoke_entry():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXAMPLE_ARGS), (
        "examples/ and EXAMPLE_ARGS disagree — add a smoke entry (with tiny "
        "arguments) for every new example script"
    )


@pytest.mark.parametrize("filename", sorted(EXAMPLE_ARGS))
def test_example_runs_quickly_and_prints(filename, capsys):
    module = _load_example(filename)
    assert hasattr(module, "main"), f"{filename} must expose main(argv)"
    module.main(EXAMPLE_ARGS[filename])
    out = capsys.readouterr().out
    assert len(out.splitlines()) >= 3, f"{filename} printed almost nothing"


def test_quickstart_on_the_array_engines_with_the_policy_cache(capsys):
    module = _load_example("quickstart.py")
    module.main(["--duration", "8", "--backend", "vectorized", "--policy", "cache"])
    out = capsys.readouterr().out
    assert "Posterior over the link rate" in out


def test_alpha_sweep_parallel_workers_flag(capsys):
    module = _load_example("alpha_sweep.py")
    module.main(["--duration", "16", "--switch", "8", "--alphas", "1.0,5.0", "--workers", "2"])
    out = capsys.readouterr().out
    assert "Figure 3" in out
