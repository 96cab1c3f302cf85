"""Golden output of the demos: each ``demos/*.py`` run in a subprocess must
print exactly ``demos/expected/<name>.txt``.  Demo 04 prints connecting
maps, so this pins basis-dependent matrices, not only dimensions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_an_expected_output():
    assert DEMOS
    assert {p.stem for p in DEMOS} == {p.stem for p in (ROOT / "demos" / "expected").glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120, check=False
    )
    assert run.returncode == 0, run.stderr
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
    assert run.stdout == expected
