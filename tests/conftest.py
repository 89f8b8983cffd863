import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# allow running the tests without an editable install
src = Path(__file__).resolve().parents[1] / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))


@pytest.fixture
def fresh():
    """Run a script in a fresh interpreter and parse its output as JSON.

    A child's ru_maxrss starts at the RSS its parent had when it forked, so
    a small launcher forks the interpreter that runs the script, and a peak
    it reads is its own, not this test process's."""

    def run(script):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        launch = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
        proc = subprocess.run([sys.executable, "-c", launch, script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    return run
