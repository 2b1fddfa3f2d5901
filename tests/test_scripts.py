"""Smoke tests of the experiment scripts: each runs to completion in a fresh
interpreter and writes its tables with their Shannon headers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, out):
    # the package is found through src/ whatever the caller's PYTHONPATH
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    rc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), str(out)],
                        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                        timeout=300)
    assert rc.returncode == 0, rc.stderr


def shannon_header(path):
    head, columns = path.read_text().splitlines()[:2]
    assert head.startswith("# shannon = ") and columns == "rank,lambda", path
    return float(head.removeprefix("# shannon = ").split(",")[0])


def test_eigen_spectra_script(tmp_path):
    # runs the reference FB solve (M = 70) through the block solver end to end
    run_script("eigen_spectra.py", tmp_path)
    assert shannon_header(tmp_path / "spectrum_fb.csv") == pytest.approx(408.33, abs=0.01)
    assert shannon_header(tmp_path / "spectrum_fl.csv") == pytest.approx(403.21, abs=0.01)
    assert shannon_header(tmp_path / "spectrum_fl_radial.csv") == pytest.approx(3.7252, abs=1e-4)
    assert shannon_header(tmp_path / "spectrum_fl_angular.csv") == pytest.approx(108.24, abs=0.01)
    assert len((tmp_path / "spectrum_fb.csv").read_text().splitlines()) == 2 + 70 * 20 ** 2


def test_shannon_curves_script(tmp_path):
    run_script("shannon_curves.py", tmp_path)
    fb = (tmp_path / "shannon_fb_vs_K.csv").read_text().splitlines()
    fl = (tmp_path / "shannon_fl_vs_P.csv").read_text().splitlines()
    assert fb[0] == "K,shannon_fb" and len(fb) == 1 + 39
    assert fl[0] == "P,shannon_fl" and len(fl) == 1 + 60


def test_sparsity_demo_script(tmp_path):
    run_script("sparsity_demo.py", tmp_path)
    decay = (tmp_path / "decay.csv").read_text().splitlines()
    assert decay[0] == "index,abs_fl_sorted,abs_slepian_sorted" and len(decay) == 1 + 16 ** 3
    q = json.loads((tmp_path / "q.json").read_text())
    assert q["shannon"] > 0 and q["J"] == int(q["shannon"])
