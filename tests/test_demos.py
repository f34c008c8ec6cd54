"""Every script in demos/, and every Python example of README.md, runs to
completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
