"""The serving example runs to completion, the way a reader would run it.

It is started in its own interpreter with ``PYTHONPATH=src`` from the
repository root and must exit 0.  The example fails itself when a replica
built from saved weights does not reproduce the trained model's forecasts
bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_serving_quickstart_exits_zero():
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "serving_quickstart.py")],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
