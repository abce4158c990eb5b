"""The examples run to completion, the way a reader would run them.

Each is started in its own interpreter with ``PYTHONPATH=src`` from the
repository root and must exit 0.  The serving example fails itself when a
replica built from saved weights does not reproduce the trained model's
forecasts bit for bit; the two cluster examples drive rebalancing,
snapshots and failover on the thread and the process backend.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def run_example(name: str) -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_serving_quickstart_exits_zero():
    completed = run_example("serving_quickstart")
    assert completed.returncode == 0, completed.stdout + completed.stderr


@pytest.mark.parametrize(
    "name",
    [
        "cluster_quickstart",
        "cluster_process_quickstart",
        "observability_quickstart",
        "edge_device_inference",
        "quickstart",
    ],
)
def test_example_exits_zero(name):
    completed = run_example(name)
    assert completed.returncode == 0, completed.stdout + completed.stderr
