"""The README's library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    script = tmp_path / "example.py"
    script.write_text(blocks[0])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # The flagged columns end with the five far points, 950 to 954.
    assert proc.stdout.rstrip().endswith("950, 951, 952, 953, 954]")
