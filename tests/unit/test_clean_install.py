"""A clean install must import: no module may need a package that
``pyproject.toml`` does not declare."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Packages the tree once imported without declaring them.
UNDECLARED = ("networkx", "scipy")


def test_public_modules_import_without_undeclared_packages():
    blocked = "".join(f"sys.modules[{name!r}] = None\n" for name in UNDECLARED)
    code = (
        "import sys\n"
        + blocked
        + "import repro.query, repro.server, repro.cli\n"
        + "print('ok')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "ok"
