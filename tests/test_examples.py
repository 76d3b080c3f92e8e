"""The example scripts run to completion against the current API.

Each example is a subprocess, as a user runs it (``python
examples/<name>.py`` with ``src`` on the path), so a signature change
that breaks an example fails here rather than in a reader's terminal.
``atpg_comparison.py`` takes about two minutes and runs in the CI
benchmark job instead.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXAMPLES = ("quickstart", "retimed_circuits", "learning_walkthrough",
            "industrial_features", "api_client")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", f"{name}.py")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
