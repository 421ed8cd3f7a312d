"""Smoke tests: each script under scripts/ runs to completion at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, outputs", [
    ("mode_gallery.py", ["--bandwidth", "2", "--size", "16", "--outdir", "out"],
     ["out/mode_u0_v0.pgm", "out/mode_u2_v0.pgm"]),
    ("exponential_drift.py", ["--bandwidth", "2"], []),
    ("soft_optics_demo.py", ["--bandwidth", "6", "--size", "32", "--outdir", "out",
                             "--spec", str(ROOT / "specs" / "diagonal_blend.spec")],
     ["out/input.coeffs", "out/transformed.pgm"]),
], ids=["mode_gallery", "exponential_drift", "soft_optics_demo"])
def test_script_runs(script, args, outputs, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
