"""Smoke runs of the experiment scripts as subprocesses."""

import subprocess
import sys

from conftest import ROOT, src_env


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )


def test_fw_closure_experiment():
    proc = run_script("fw_closure_experiment.py", "--trials", "2")
    assert proc.returncode == 0, proc.stderr
    assert "closure holds:      2/2" in proc.stdout


def test_pca_demo(tmp_path):
    prefix = tmp_path / "pd"
    proc = run_script("pca_demo.py", "--count", "8", "--prefix", str(prefix))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "pd.coords.csv").read_text().count("\n") == 8
    assert (tmp_path / "pd.svg").read_text().startswith("<svg")


def test_svm_experiment():
    proc = run_script("svm_experiment.py", "--per-class", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["separation", "hard", "z*", "hard", "acc",
                                "soft", "obj", "soft", "acc"]
    assert len(lines) == 6
