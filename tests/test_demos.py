"""Every script in demos/, and every Python example of README.md, runs to
completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from asrel import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXAMPLES = re.findall(
    r"^```python\n(.*?)^```$",
    (ROOT / "README.md").read_text(encoding="utf-8"),
    re.MULTILINE | re.DOTALL,
)
# Test id -> interpreter arguments that run the script.
SCRIPTS = {demo.name: [str(demo)] for demo in DEMOS}
SCRIPTS.update({f"README.md-{i}": ["-c", code] for i, code in enumerate(EXAMPLES, 1)})


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, *SCRIPTS[script]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_readme_lists_each_flag_group():
    # README "CLI" lists the groups as "- corpus: `--paths-bgp`, ...;" bullets,
    # which may wrap onto indented lines.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bullets = re.findall(r"^- (corpus|core|inference): (.*?)[;.]$", text, re.M | re.S)
    groups = [(name, tuple(re.findall(r"`(--[a-z-]+)`", body))) for name, body in bullets]
    assert groups == [
        ("corpus", cli.CORPUS), ("core", cli.CORE), ("inference", cli.INFERENCE)
    ]
