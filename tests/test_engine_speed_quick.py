"""Tier-1 perf regression gate: the engine-speed benchmark in --quick mode.

The full benchmark (pytest benchmarks/bench_engine_speed.py) sweeps the
large sizes and records the dated trajectory in BENCH_engine.json; this
wrapper runs its --quick mode — small sizes, conservative floors, no
trajectory write — inside the default test run, so a fast path silently
degrading to its oracle fails tier-1 loudly without a long bench.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "benchmarks" / "bench_engine_speed.py"
TRAJECTORY = REPO / "BENCH_engine.json"


def test_quick_benchmark_floors():
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    tracked = TRAJECTORY.read_bytes()
    result = subprocess.run(
        [sys.executable, str(BENCH), "--quick"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, (
        f"quick benchmark floors violated:\n{result.stdout}\n{result.stderr}"
    )
    # The gate runs on every test run, so it must leave the tracked
    # trajectory file untouched.
    assert TRAJECTORY.read_bytes() == tracked
    assert "quick" in result.stdout
    # The streaming-session floor, the vectorised-Viterbi floor, the
    # scenario-preset exercise, the co-execution overhead row, the
    # serve-tier throughput/zero-shed row, the telemetry
    # disabled-overhead row and the uarch overlay overhead/sandwich row
    # all run inside the gate.
    assert "session" in result.stdout
    assert "viterbi" in result.stdout
    assert "quick scenario" in result.stdout
    assert "quick coexec" in result.stdout
    assert "quick serve" in result.stdout
    assert "quick telemetry" in result.stdout
    assert "quick uarch" in result.stdout
