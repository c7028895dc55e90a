"""Every script under examples/ runs to completion, and every script
under benchmarks/ still imports (tier-1 runs only the engine-speed
quick gate, so a bench importing a removed API would otherwise rot
silently)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    # tmp_path as the working directory: examples may write files into
    # the cwd (quickstart.py exports a trace), never into the checkout.
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_benchmark_scripts_collect(tmp_path):
    # tmp_path as the working directory: pytest-benchmark creates its
    # .benchmarks/ folder in the cwd, never in the checkout.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *map(str, BENCHMARKS)],
        cwd=tmp_path, env=_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, (done.stdout + done.stderr)[-2000:]
    assert BENCHMARKS and all(
        f"{script.name}::" in done.stdout for script in BENCHMARKS)
