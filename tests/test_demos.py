import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: SHA-256 of each demo's standard output; a demo rewrite must print the same bytes.
STDOUT_SHA256 = {
    "01_orderings_and_fill.py": "15108ed19eb9b3f6f6379a2edb2e242ff930024455d0a95ee90c542950a715ff",
    "02_gadget_window.py": "33ce9022d407509b024fafeba91e44687b23f102ab1025369b7b2b7a38b95331",
    "03_transfer_audit.py": "58912463ea2f332e97f3ab26b84539c97ae7bfb6474f8bc7916174df2f7415dd",
    "04_matrix_bridge.py": "adb1c3cdf7330ce5bcbb18b88987c7c073e25c2f9fa17247a64f845a579f5be6",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
