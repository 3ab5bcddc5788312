"""Importing the package loads no SciPy module and no process pool, and
neither does a run: the library is NumPy only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgperiodic

# One process walks the stages of a run and records the SciPy modules loaded
# after each: the import, a K = 64 resonance gate at eps = 0.1 (the J = 400
# Hill solve), a K = 6 gate at eps = 0.193 (J = 94, classes of 48 and 47
# cosines), a full closure solve and the first closure certificate; "pool"
# lists the process-pool modules loaded by the import, and
# "polynomial_at_gate" whether numpy.polynomial is loaded after the gate.
SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

stages = {}
import kgperiodic
stages["import"] = loaded()
stages["pool"] = [m for m in ("multiprocessing", "concurrent.futures.process")
                  if m in sys.modules]
from kgperiodic import (Nonlinearity, PlanarState, ResonanceParams,
                        SpaceTimeField, find_orbit, integrate_v,
                        resonance_gate, solve_delta1)
model = Nonlinearity.sine_gordon()
traj = find_orbit(model.f3, 0.9).trajectory(256)
resonance_gate(traj, 0.1, model, K=64, params=ResonanceParams())
stages["gate"] = loaded()
stages["polynomial_at_gate"] = "numpy.polynomial" in sys.modules
_, spectrum, _ = resonance_gate(traj, 0.193, model, K=6,
                                params=ResonanceParams())
assert spectrum.J_max < 127, spectrum.J_max
stages["small_gate"] = loaded()
assert solve_delta1(find_orbit(model.f3, 0.9), 0.1, model).closed
stages["solve"] = loaded()
integrate_v([PlanarState(0.9, 0.0)], SpaceTimeField.zeros(6.3, 0, 2), 0.1,
            model, 6.3)
stages["certificate"] = loaded()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    env = {**os.environ,
           "PYTHONPATH": str(Path(kgperiodic.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_import_and_gate_load_no_scipy(stages):
    assert stages["import"] == []
    assert stages["gate"] == []


def test_certificate_constants_imported_lazily(stages):
    # numpy.polynomial builds the Chebyshev-Picard matrices at the first
    # certificate; the import and a gate do not load it
    assert stages["polynomial_at_gate"] is False


def test_import_loads_no_process_pool(stages):
    # `epsilon_sweep` imports its pool only for a sweep with workers > 1
    assert stages["pool"] == []


def test_closure_solve_loads_no_scipy(stages):
    # the Newton solve is a preconditioned Richardson iteration, and small
    # Hill classes are certified or solved by NumPy
    assert stages["small_gate"] == []
    assert stages["solve"] == []


def test_certificate_loads_no_scipy_integrate(stages):
    # the Chebyshev-Picard certificate is NumPy only
    loaded = set(stages["certificate"])
    assert not {"scipy.integrate", "scipy.optimize"} & loaded
