"""The demos and the README quick start run as shipped."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # run from an empty directory so a demo that writes a plot leaves nothing behind
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _readme_quick_start() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_injected_derivatives():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_readme_quick_start(), "README.md", "exec"), {})
    printed = [float(line) for line in out.getvalue().split()]
    assert printed == pytest.approx([-3.0, -1.2], rel=1e-9)


def test_paths_in_readme_code_blocks_exist():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"```[^\n]*\n(.*?)```", text, re.S))
    paths = re.findall(r"(?<![\w/.-])(?:tests|demos|tools|bench)/[\w./-]*\w", blocks)
    assert paths
    assert [p for p in paths if not (ROOT / p).exists()] == []
