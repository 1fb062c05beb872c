"""The demo scripts run, and the training demo reproduces its committed
outputs byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SCRIPTS = sorted(path.name for path in DEMOS.glob("*.py"))
RUN_FILES = sorted(path.relative_to(DEMOS)
                   for path in DEMOS.glob("demo_runs/*/seed_5/*")
                   if path.name in ("curve.csv", "run.json"))


@pytest.fixture(scope="module")
def demo_copy(tmp_path_factory):
    """A copy of demos/ to run in, so the scripts never write into the tree."""
    copy = tmp_path_factory.mktemp("demos") / "demos"
    shutil.copytree(DEMOS, copy)
    shutil.rmtree(copy / "demo_runs")
    return copy


def test_demo_inventory():
    assert len(SCRIPTS) == 5
    assert len(RUN_FILES) == 4


def _run(demo_copy, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, script], cwd=demo_copy, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(demo_copy, script):
    result = _run(demo_copy, script)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("name", [str(p) for p in RUN_FILES])
def test_training_demo_outputs_match_committed(demo_copy, name):
    if not (demo_copy / name).exists():
        assert _run(demo_copy, "train_sparse_chain.py").returncode == 0
    assert (demo_copy / name).read_bytes() == (DEMOS / name).read_bytes()
