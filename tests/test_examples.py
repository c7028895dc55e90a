"""Every script under examples/ runs to completion, every script under
benchmarks/ still imports (tier-1 runs only the engine-speed quick
gate, so a bench importing a removed API would otherwise rot silently),
and every module under src/repro reads each name it imports at top
level (the repo runs no linter that would catch one left behind)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))
SOURCES = sorted(path for path in (ROOT / "src" / "repro").rglob("*.py")
                 if path.name != "__init__.py")


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


def _unused_imports(path: Path) -> list:
    """``(name, line)`` of each top-level import ``path`` never reads; a
    name listed in ``__all__`` is re-exported, which counts as a read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return [(name, line) for name, line in imported.items()
            if name not in read]


def test_src_modules_read_their_top_level_imports():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in SOURCES for name, line in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
