"""CI gate: the analysis must stay green on every configuration.

This mirrors the ``python -m repro analysis --all-configs`` step in
``.github/workflows/ci.yml`` so the gate also runs wherever only pytest
is available.  The ruff/mypy checks piggyback here too, skipping
gracefully when the tools are not installed.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ALL_CONFIGS, main, small_workloads, static_check

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", sorted(small_workloads()))
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_config_is_clean(config, workload):
    rep = static_check(config, workload)
    assert rep["verdict"] == ("baseline" if config.original_layout
                              or config.name == "baseline-4b" else "legal")
    assert rep["lint_errors"] == [] and rep["certificate_problems"] == []
    assert rep["stable"]


def test_cli_all_configs_exits_zero(capsys):
    assert main(["--all-configs", "--workload", "cavity2d-2lvl"]) == 0
    out = capsys.readouterr().out
    assert "0 problem(s)" in out
    runs = [line for line in out.splitlines()
            if line.startswith("[OK]") and "seeded illegal" not in line]
    assert len(runs) == len(ALL_CONFIGS)
    # the one default pass schedules and proves legality of every run
    for line in runs:
        assert "verdict=" in line and "waves=" in line, line
        assert "races=" not in line and "refined" not in line, line
    assert "[OK] seeded illegal fusion rejected on cavity2d-2lvl" in out


def test_ruff_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed")
    proc = subprocess.run(["ruff", "check", "src", "tests"],
                          cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_clean():
    if shutil.which("mypy") is None:
        pytest.skip("mypy not installed")
    proc = subprocess.run([sys.executable, "-m", "mypy"],
                          cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
