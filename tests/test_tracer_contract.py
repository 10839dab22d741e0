"""The benchmark tracer wraps coxtop functions by name from outside.

Renaming or deleting one of the names in ``bench/tracer.py`` ``LAYERS``
breaks the traced benchmark; this test makes it fail here instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import coxtop

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_against_src():
    src = Path(coxtop.__file__).resolve().parents[1]
    script = (
        "import coxtop, tracer\n"
        "tracer.Tracer().install()\n"
        "print(coxtop.__file__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT / "bench",
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve().is_relative_to(src)
