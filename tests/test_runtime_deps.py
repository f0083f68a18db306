"""The runtime needs numpy alone: no entry point imports scipy or networkx."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

GUARD = """
import sys
import repro.api, repro.cli, repro.distributed, repro.service
loaded = sorted({name.split('.')[0] for name in sys.modules} & {'scipy', 'networkx'})
print(','.join(loaded))
"""


def test_entry_points_import_neither_scipy_nor_networkx():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", GUARD], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == ""
