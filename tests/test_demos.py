"""Every demo script runs to completion, and the README lists each one."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_readme_demos_section_names_every_demo():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Demos\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\b\d\d_\w+\.py\b", section))
    assert DEMOS and named == {d.name for d in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
