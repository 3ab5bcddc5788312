"""Importing the package loads only the SciPy modules every run uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import kgperiodic

# loaded only by a run that needs them: scipy.integrate (with scipy.optimize
# under it) at the first DOP853 certificate, the others never
DEFERRED = ("scipy.stats", "scipy.special", "scipy.integrate", "scipy.optimize")

SCRIPT = f"""
import json, sys
from kgperiodic import Nonlinearity, PlanarState, integrate_v

def loaded():
    return [m for m in {DEFERRED!r} if m in sys.modules]

print(json.dumps(loaded()))
integrate_v([PlanarState(0.9, 0.0)], None, 0.1, Nonlinearity.sine_gordon(), 6.3)
print(json.dumps(loaded()))
"""


def test_scipy_integrate_loaded_at_first_certificate():
    env = {**os.environ,
           "PYTHONPATH": str(Path(kgperiodic.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    at_import, after_integration = (json.loads(line) for line in out.splitlines())
    assert at_import == []
    assert {"scipy.integrate", "scipy.optimize"} <= set(after_integration)
