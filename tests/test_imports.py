"""Cold start: the analytic experiments run without numpy or scipy, and the
Monte Carlo names still import from the package root."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypspeeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports hypspeeds from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})))"


@pytest.mark.parametrize("stem", ["speeds_slit", "thm1_strip", "thm2_dip", "thm3_table", "thm4_strips"])
def test_analytic_cli_run_loads_neither_numpy_nor_scipy(stem, tmp_path):
    experiment = stem.split("_")[0]
    config = ROOT / "configs" / f"{stem}.json"
    code = (
        "import json, sys\n"
        "import hypspeeds.cli\n"
        f"{LOADED}\n"
        f"code = hypspeeds.cli.main([{experiment!r}, '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])\n"
        f"{LOADED}\n"
        "print(code)\n"
    )
    lines = run_fresh(code).splitlines()
    assert lines[1] == f"{experiment}: PASS"
    assert json.loads(lines[0]) == []
    assert json.loads(lines[2]) == []
    assert lines[3] == "0"


def test_monte_carlo_names_load_harmonic_on_first_use():
    out = run_fresh(
        "import json, sys\n"
        "import hypspeeds\n"
        f"{LOADED}\n"
        "from hypspeeds import HMEstimate, mc_first_hit\n"
        "print(mc_first_hit.__module__, HMEstimate.__module__)\n"
        f"{LOADED}\n"
    )
    before, modules, after = out.splitlines()
    assert json.loads(before) == []
    assert modules == "hypspeeds.harmonic hypspeeds.harmonic"
    assert json.loads(after) == ["numpy"]


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hypspeeds.no_such_name
    with pytest.raises(ImportError):
        from hypspeeds import no_such_name  # noqa: F401
