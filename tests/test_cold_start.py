"""Cold-start guard: the scalar chip loop is the only chip loop, so no
entry point may pull numpy (or a removed backend) in at import time.

numpy alone cost about 140 ms of a 340 ms ``repro.experiments.common``
import and about 12 MiB RSS in every process and forked pool worker.
"""

import os
import subprocess
import sys

ENTRY_POINTS = ("repro", "repro.engine", "repro.experiments.common",
                "repro.serve.server")
FORBIDDEN = ("numpy", "repro.sim.batch", "repro.sim.vector")


def test_entry_points_import_without_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = (f"import sys\n"
            f"for name in {ENTRY_POINTS!r}:\n"
            f"    __import__(name)\n"
            f"print(','.join(m for m in {FORBIDDEN!r} "
            f"if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "", (
        f"cold import pulled in: {out.stdout.strip()}")
