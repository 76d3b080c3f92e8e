"""Importing the package must not pull in numpy.

Every process pays for what ``import repro`` loads: the CLI, the serve
daemon, dist workers and the benchmark's set-up time and peak RSS.  The
simulators are pure Python, so no public entry module may import
numpy, directly or through a dependency.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         ".."))


def test_no_entry_module_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    probe = ("import sys\n"
             "import repro, repro.api, repro.serve.daemon, repro.dist\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m == 'numpy' or m.startswith('numpy.')))\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"
