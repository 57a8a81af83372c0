"""Set-up probe: what a benchmark process does before its first timed stage.

Run as `python3 setup_probe.py <src dir> <output dir>`: it imports numpy and
efkit, prepares the output directory and removes it again. `run.py` times
whole probe processes, interpreter start included, to measure set-up.
"""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

import numpy  # noqa: E402,F401
from efkit import cli, solver  # noqa: E402,F401

out = Path(sys.argv[2])
out.mkdir(parents=True)
shutil.rmtree(out)
