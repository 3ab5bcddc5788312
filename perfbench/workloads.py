"""The four benchmark workloads and the correctness check on each operation.

Each workload runs as a closed loop: one process, one operation at a time.
`setup()` builds the fixture and is part of the set-up time; `op(i)` is
the timed operation; `check(out)` returns the list of failed conditions,
empty when the output is correct.  Tolerances are the
ones the repository's tests already state.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from kgperiodic import assembly, cli, solver
from kgperiodic.divisors import ResonanceError, ResonanceParams
from kgperiodic.nonlinearity import Nonlinearity
from kgperiodic.planar import find_orbit, monodromy

AMPLITUDE = 0.9
CANONICAL_EPS = 0.1
SWEEP_EPS = (0.096, 0.1015, 0.1175, 0.148, 0.193)
GATE_K = 64
GATE_PASS = 200
GATE_EPS_RANGE = (0.05, 0.2)
LAW_SAMPLES = 50

# reference values of the canonical point, as pinned in tests/test_closure.py
# and tests/test_cli.py
CANONICAL_DELTA1 = 0.06217070272995722
CANONICAL_MAX_U_OVER_EPS = 0.9621246777948442


class Workload:
    name = ""
    seed_used = False

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Limit orbit, its trajectory and monodromy, and one warm-up gate."""
        self.model = Nonlinearity.sine_gordon()
        orbit = find_orbit(self.model.f3, AMPLITUDE)
        monodromy(orbit)
        self.traj = orbit.trajectory(256)
        solver.resonance_gate(self.traj, CANONICAL_EPS, self.model, K=GATE_K,
                              params=ResonanceParams())

    def op(self, i: int):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError


class SolveCanonical(Workload):
    """`kgperiodic solve` in-process at the canonical point."""

    name = "solve_canonical"

    def setup(self) -> None:
        super().setup()
        tmp = Path(tempfile.mkdtemp(dir=self.work_dir, prefix="solve-"))
        self.out_dir = tmp / "out"
        self.config = tmp / "solve.json"
        self.config.write_text(json.dumps({
            "model": "sine-gordon", "amplitude": AMPLITUDE, "eps": CANONICAL_EPS,
            "out_dir": str(self.out_dir)}))

    def op(self, i):
        return cli.main(["solve", str(self.config)])

    def check(self, rc) -> list[str]:
        failures = [] if rc == cli.EXIT_OK else [f"exit code {rc}"]
        path = self.out_dir / "solve.json"
        if not path.is_file():
            return failures + ["no solve.json"]
        doc = json.loads(path.read_text())
        path.unlink()               # the next operation must write a fresh one
        closure, sol = doc["closure"], doc["solution"]
        conds = {
            "closed": closure["closed"] is True,
            "converged": closure["solver"]["converged"] is True,
            "delta1 within 1e-9": abs(closure["delta1"] - CANONICAL_DELTA1) <= 1e-9,
            "pde_residual_128 < 1e-10": sol["pde_residual_128"] < 1e-10,
            "H_drift < 1e-9": closure["H_drift"] < 1e-9,
            "max_u_over_eps within 1e-9":
                abs(sol["max_u_over_eps"] - CANONICAL_MAX_U_OVER_EPS) <= 1e-9,
        }
        return failures + [k for k, ok in conds.items() if not ok]


class SweepSerial(Workload):
    """The five-point `SWEEP_EPS` sweep with one worker."""

    name = "sweep_serial"

    def __init__(self, seed, work_dir, eps_list=SWEEP_EPS):
        super().__init__(seed, work_dir)
        self.eps_list = tuple(eps_list)

    def op(self, i):
        return assembly.epsilon_sweep(self.model, AMPLITUDE, self.eps_list,
                                      workers=1)

    def check(self, rep) -> list[str]:
        conds = {
            f"{len(self.eps_list)} rows converged":
                len(rep.rows) == len(self.eps_list)
                and all(r.converged for r in rep.rows),
            "fits_valid": rep.fits_valid,
            "tail slope < 0 with R^2 >= 0.9":
                rep.tail_slope < 0.0 and rep.tail_r2 >= 0.9,
            "w slope < 0 with R^2 >= 0.9": rep.w_slope < 0.0 and rep.w_r2 >= 0.9,
        }
        return [k for k, ok in conds.items() if not ok]


class GateScan(Workload):
    """One resonance-gate verdict per operation, on seeded eps draws.

    Each pass of ``pass_size`` operations takes a fresh uniform draw from
    the generator seeded with the workload seed, so a run covers several
    hundred distinct eps and its median depends little on one draw.
    """

    name = "gate_scan"
    seed_used = True

    def __init__(self, seed, work_dir, pass_size: int = GATE_PASS):
        super().__init__(seed, work_dir)
        self.pass_size = pass_size
        self._rng = np.random.default_rng(seed)
        self._eps: list[float] = []

    def eps_at(self, i: int) -> float:
        while len(self._eps) <= i:
            self._eps.extend(float(e) for e in
                             self._rng.uniform(*GATE_EPS_RANGE, self.pass_size))
        return self._eps[i]

    def op(self, i):
        eps = self.eps_at(i)
        try:
            report, _, _ = solver.resonance_gate(self.traj, eps, self.model,
                                                 K=GATE_K, params=ResonanceParams())
            return False, report
        except ResonanceError as ex:
            return True, ex.report

    def check(self, out) -> list[str]:
        raised, report = out
        if report is None:
            return ["no ResonanceReport"]
        conds = {
            "verdict matches the raised error": report.resonant == raised,
            "distance < halfwidth exactly when resonant":
                (report.distance < report.halfwidth) == report.resonant,
        }
        return [k for k, ok in conds.items() if not ok]


class LawCalibration(Workload):
    """`sigma_min_law_samples` with the workload seed.

    Operation i forwards seed ``seed + i * 1000003``, so operation 0 uses the
    workload seed itself and the later ones add fresh draws.
    """

    name = "law_calibration"
    seed_used = True

    def __init__(self, seed, work_dir, n_samples: int = LAW_SAMPLES):
        super().__init__(seed, work_dir)
        self.n_samples = n_samples

    def op(self, i):
        return solver.sigma_min_law_samples(self.model, n_samples=self.n_samples,
                                            seed=self.seed + i * 1000003)

    def check(self, reports) -> list[str]:
        conds = {
            f"{self.n_samples} reports": len(reports) == self.n_samples,
            "law constant >= FITTED_C":
                all(r.law_constant >= solver.FITTED_C for r in reports),
        }
        return [k for k, ok in conds.items() if not ok]


WORKLOADS = {w.name: w for w in (SolveCanonical, SweepSerial, GateScan,
                                 LawCalibration)}
