"""Exit codes, artifacts, and determinism of the batch front end."""

import concurrent.futures
import json
import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from kgperiodic import assembly, cli, closure
from kgperiodic.cli import (
    EXIT_BAD_CONFIG,
    EXIT_INSUFFICIENT_DATA,
    EXIT_NO_CONVERGENCE,
    EXIT_NO_ORBIT,
    EXIT_OK,
    EXIT_RESONANT,
    MAX_DIVISOR_PAIRS,
    MAX_NF_STEPS,
    MAX_SELFTEST_FIELDS,
    MAX_SOLVER_N,
    MAX_SOLVER_N_TAU,
    MAX_SWEEP_ROWS,
    MAX_SWEEP_WORKERS,
    main,
)
from kgperiodic.planar import find_orbit
from kgperiodic.solver import NonConvergenceError

RESONANT_EPS = 0.1396532019663832   # center of the (k=2, j=12) window, a = 0.9


def run_cli(tmp_path, command, cfg=None, name="cfg.json"):
    argv = [command]
    if cfg is not None:
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        argv.append(str(path))
    return main(argv)


class TestLimitOrbit:
    def test_writes_orbit_json(self, tmp_path):
        code = run_cli(tmp_path, "limit-orbit",
                       {"amplitude": 1.0, "out_dir": str(tmp_path)})
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "orbit.json").read_text())
        assert doc["config"]["command"] == "limit-orbit"
        assert doc["orbit"]["period"] == pytest.approx(6.008794252858908,
                                                       abs=1e-10)
        assert doc["monodromy"]["nondegenerate"] is True

    def test_zero_cubic_rejected_as_config(self, tmp_path, capsys):
        # c3 = 0 degenerates the limit equation: flagged at config time
        cfg = {"model": {"model": "custom", "odd_coeffs": [0.0]},
               "amplitude": 1.0, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "limit-orbit", cfg) == EXIT_BAD_CONFIG
        assert "model" in capsys.readouterr().err

    def test_unknown_model_key_rejected(self, tmp_path, capsys):
        cfg = {"model": {"model": "custom", "coefficients": [1.0]},
               "amplitude": 1.0, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "limit-orbit", cfg) == EXIT_BAD_CONFIG
        assert "coefficients" in capsys.readouterr().err

    def test_unbounded_level_set_exits_3(self, tmp_path):
        # f3 < 0 caps the periodic amplitudes at sqrt(-8/f3)
        cfg = {"model": {"model": "custom", "odd_coeffs": [-1.0]},
               "amplitude": 3.0, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "limit-orbit", cfg) == EXIT_NO_ORBIT
        assert not (tmp_path / "orbit.json").exists()

    def test_missing_amplitude_exits_1(self, tmp_path, capsys):
        assert run_cli(tmp_path, "limit-orbit",
                       {"out_dir": str(tmp_path)}) == EXIT_BAD_CONFIG
        assert "amplitude" in capsys.readouterr().err

    def test_default_tolerance_recorded_and_checked(self, tmp_path, capsys):
        # f3 = -0.75, a = 3.0 leaves a sampled energy drift of about 3e-15
        base = {"model": {"model": "custom", "odd_coeffs": [-0.125],
                          "trust_radius": 10},
                "amplitude": 3.0, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "limit-orbit", base) == EXIT_OK
        doc = json.loads((tmp_path / "orbit.json").read_text())
        assert doc["config"]["tol"] == 1e-10
        (tmp_path / "orbit.json").unlink()
        capsys.readouterr()
        assert run_cli(tmp_path, "limit-orbit",
                       {**base, "tol": 1e-17}) == EXIT_NO_ORBIT
        assert "energy drift" in capsys.readouterr().err
        assert not (tmp_path / "orbit.json").exists()


class TestDivisors:
    def test_csv_layout_and_spot_value(self, tmp_path):
        cfg = {"k_max": 3, "j_max": 50, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "divisors", cfg) == EXIT_OK
        lines = (tmp_path / "divisors.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "k,j,eps_kj,window_lo,window_hi"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2 * 50
        keys = [(int(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)
        by_key = {k: r for k, r in zip(keys, rows)}
        eps = float(by_key[(2, 50)][2])
        # zero potential, period 2 pi: divisor equation residual vanishes
        assert abs(-4.0 + 1.0 / (1.0 + eps**2) + eps**2 * 2500.0) < 1e-11
        lo, hi = float(by_key[(2, 50)][3]), float(by_key[(2, 50)][4])
        assert hi - lo == pytest.approx(2.0 * 2.0**0.25 / 50**2.5, rel=1e-12)

    def test_j_max_zero_header_only(self, tmp_path):
        cfg = {"k_max": 4, "j_max": 0, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "divisors", cfg) == EXIT_OK
        lines = (tmp_path / "divisors.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_k_max_below_2_exits_1(self, tmp_path, capsys):
        cfg = {"k_max": 1, "j_max": 10, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "divisors", cfg) == EXIT_BAD_CONFIG
        assert "k_max" in capsys.readouterr().err

    def test_unknown_field_exits_1(self, tmp_path, capsys):
        cfg = {"k_max": 3, "j_max": 5, "bogus": 1, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "divisors", cfg) == EXIT_BAD_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = {"k_max": 4, "j_max": 80, "out_dir": str(tmp_path)}
        run_cli(tmp_path, "divisors", cfg)
        first = (tmp_path / "divisors.csv").read_bytes()
        run_cli(tmp_path, "divisors", cfg, name="cfg2.json")
        assert (tmp_path / "divisors.csv").read_bytes() == first


class TestSolve:
    def test_corrupt_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == EXIT_BAD_CONFIG
        assert "invalid config" in capsys.readouterr().err

    def test_unknown_solver_field_exits_1(self, tmp_path, capsys):
        cfg = {"eps": 0.1, "solver": {"bogus": 3}, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_BAD_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_nonpositive_eps_exits_1(self, tmp_path):
        cfg = {"eps": -0.1, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_BAD_CONFIG

    def test_inadmissible_resonance_exponents_exit_1(self, tmp_path, capsys):
        # gamma = 0.8 leaves no room for sigma = 3 > gamma + l = 3.7
        cfg = {"eps": 0.1, "resonance": {"alpha": 0.1, "l": 2.9},
               "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_BAD_CONFIG
        assert "field 'resonance'" in capsys.readouterr().err

    def test_trust_radius_exceeded_exits_1(self, tmp_path, capsys):
        # the slow orbit's |u| = 0.09 leaves the custom model's radius 0.05
        cfg = {"model": {"model": "custom", "odd_coeffs": [1.0],
                         "trust_radius": 0.05},
               "eps": 0.1, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "trust radius" in err and err.count("\n") == 1

    def test_resonant_eps_exits_2(self, tmp_path, capsys):
        cfg = {"eps": RESONANT_EPS, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_RESONANT
        err = capsys.readouterr().err
        assert "resonant" in err and "(k=2, j=12)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "solve.json").exists()

    def test_damped_slow_solve_reaches_the_gate(self, tmp_path, capsys):
        # an undamped Newton step on the slow equation leaves the trust
        # radius here; the damped one converges and the gate names the window
        cfg = {"amplitude": 0.6, "eps": 0.25, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_RESONANT
        assert "(k=45, j=177)" in capsys.readouterr().err

    def test_nonconvergence_writes_diagnostics(self, tmp_path):
        # without averaging steps one Newton iteration cannot reach the
        # (unreachable) tolerance, so the stage budget of 1 must trip
        cfg = {"eps": 0.1, "out_dir": str(tmp_path),
               "solver": {"schedule": [6], "N_tau": 8, "nf_steps": 0,
                          "residual_tol": 1e-16, "max_stage_iters": 1}}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_NO_CONVERGENCE
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert "NonConvergenceError" in diag["error"]
        assert diag["config"]["solver"]["max_stage_iters"] == 1

    def test_integration_failure_writes_diagnostics(self, tmp_path, capsys,
                                                    monkeypatch):
        # a failed certificate integration is a documented solve failure:
        # exit 4 with diagnostics, as the sweep turns it into a failed row.
        # With a Picard tolerance of 0 no certificate segment is accepted,
        # so each is halved down to the floor
        monkeypatch.setattr(closure, "_PICARD_TOL", 0.0)
        cfg = {"eps": 0.1, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert "fell below 1e-06 periods" in err
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error"].startswith("IntegrationError: ")
        assert not (tmp_path / "solve.json").exists()

    def test_canonical_point_full_artifacts(self, tmp_path):
        cfg = {"eps": 0.1, "amplitude": 0.9, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_OK
        doc = json.loads((tmp_path / "solve.json").read_text())
        assert doc["closure"]["closed"] is True
        assert doc["solution"]["pde_residual_128"] < 1e-10
        assert doc["solution"]["max_u_over_eps"] == pytest.approx(
            0.9621246777948442, abs=1e-9)
        assert doc["config"]["eps"] == 0.1
        # the gate verdict is the closure's, written once
        assert doc["closure"]["resonance_final"]["resonant"] is False
        assert not {"resonance", "resonance_checked"} & set(doc["closure"]["solver"])
        # the normal form's drive norms, one per averaging step, contracting
        run = doc["closure"]["solver"]
        hist = run["drive_norm_history"]
        assert len(hist) == run["nf_steps"] == 2 and hist[1] < hist[0]
        # the coefficient artifacts are written compactly, one line each
        texts = [(tmp_path / n).read_text() for n in ("w_field.json", "v_traj.json")]
        assert [t.count("\n") for t in texts] == [1, 1]
        field = json.loads(texts[0])["field"]
        vdoc = json.loads(texts[1])
        assert field["period"] == vdoc["trajectory"]["period"]
        samples = vdoc["trajectory"]["samples"]
        assert len(samples) == 256 and len(samples[0]) == 3
        assert samples[0][1] == pytest.approx(0.9 + vdoc["delta1"], abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        # the README example config; the resolved config (with out_dir) is
        # embedded in every artifact, so both runs share it
        cfg = {"model": {"model": "sine-gordon"}, "amplitude": 0.9,
               "eps": 0.1, "out_dir": str(tmp_path)}
        names = ("solve.json", "w_field.json", "v_traj.json")
        assert run_cli(tmp_path, "solve", cfg) == EXIT_OK
        first = {n: (tmp_path / n).read_bytes() for n in names}
        assert run_cli(tmp_path, "solve", cfg) == EXIT_OK
        for n in names:
            assert (tmp_path / n).read_bytes() == first[n], n


class TestSweep:
    def test_all_resonant_exits_5(self, tmp_path, capsys):
        cfg = {"eps_list": [RESONANT_EPS], "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "sweep", cfg) == EXIT_INSUFFICIENT_DATA
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1] == ("eps,resonant_skip,residual,max_u_over_eps,"
                            "tail,delta1,converged")
        cells = lines[2].split(",")
        assert cells[1] == "1" and cells[-1] == "0"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_converged"] == 0
        assert "insufficient" in summary["note"]
        [failure] = summary["failures"]
        assert failure["eps"] == RESONANT_EPS and "k=2" in failure["message"]

    def test_failure_reason_in_summary(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NonConvergenceError("stage budget exhausted")

        monkeypatch.setattr(assembly, "solve_delta1", fail)
        cfg = {"eps_list": [0.1], "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "sweep", cfg) == EXIT_INSUFFICIENT_DATA
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failures"] == [
            {"eps": 0.1, "message": "NonConvergenceError: stage budget exhausted"}]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = {"eps_list": [0.148, 0.193], "out_dir": str(tmp_path)}
        names = ("sweep.csv", "summary.json")
        assert run_cli(tmp_path, "sweep", cfg) == EXIT_INSUFFICIENT_DATA
        first = {n: (tmp_path / n).read_bytes() for n in names}
        assert json.loads(first["summary.json"])["n_converged"] == 2
        assert run_cli(tmp_path, "sweep", cfg) == EXIT_INSUFFICIENT_DATA
        for n in names:
            assert (tmp_path / n).read_bytes() == first[n], n

    def test_bad_eps_list_exits_1(self, tmp_path):
        for eps_list in ([], [0.1, -0.2], "0.1", [0.1, True]):
            cfg = {"eps_list": eps_list, "out_dir": str(tmp_path)}
            assert run_cli(tmp_path, "sweep", cfg) == EXIT_BAD_CONFIG


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, cfg", [
    ("solve", {"eps": NAN}),
    ("solve", {"eps": INF}),
    ("solve", {"eps": 1.5}),
    ("solve", {"eps": 1.0}),
    ("solve", {"eps": 0.1, "amplitude": INF}),
    ("solve", {"eps": 0.1, "amplitude": NAN}),
    ("solve", {"eps": 0.1, "solver": {"residual_tol": NAN}}),
    ("solve", {"eps": 0.1, "solver": {"N_cap": INF}}),
    ("solve", {"eps": 0.1, "resonance": {"l": -INF}}),
    ("sweep", {"eps_list": [0.1, 1.5]}),
    ("sweep", {"eps_list": [NAN]}),
    ("sweep", {"eps_list": [0.1], "amplitude": INF}),
    ("limit-orbit", {"amplitude": INF}),
    ("divisors", {"k_max": 3, "j_max": 5, "q_const": NAN}),
])
def test_nonfinite_or_out_of_range_numbers_exit_1(tmp_path, capsys, command, cfg):
    cfg = {**cfg, "out_dir": str(tmp_path)}
    assert run_cli(tmp_path, command, cfg) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid config: field ")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, extra", [
    ("limit-orbit", {"amplitude": 0.9}),
    ("solve", {"eps": 0.1}),
    ("sweep", {"eps_list": [0.1, 0.12, 0.15]}),
])
@pytest.mark.parametrize("model", [
    {"model": "custom", "odd_coeffs": [1.0, NAN]},
    {"model": "custom", "odd_coeffs": [1.0], "trust_radius": INF},
    {"model": "custom", "odd_coeffs": [1.0, 1e308, 1e308]},
])
def test_nonfinite_or_overflowing_model_exits_1(tmp_path, capsys, command,
                                                extra, model):
    # the model's coefficients and trust radius are checked when it is built
    cfg = {"model": model, **extra, "out_dir": str(tmp_path)}
    assert run_cli(tmp_path, command, cfg) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid config: field 'model': ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command, cfg", [
    ("limit-orbit", {"amplitude": 1e200}),
    ("limit-orbit", {"model": "phi4", "amplitude": 1e100}),
    ("solve", {"eps": 0.1, "amplitude": 1e200}),
    ("sweep", {"eps_list": [0.1, 0.12, 0.15], "amplitude": 1e200}),
])
def test_overflowing_amplitude_exits_3(tmp_path, capsys, command, cfg):
    # finite, but the orbit's energy a^2/2 + f3 a^4/32 overflows a double;
    # a sweep stops at its one orbit check, before any row
    cfg = {**cfg, "out_dir": str(tmp_path)}
    assert run_cli(tmp_path, command, cfg) == EXIT_NO_ORBIT
    err = capsys.readouterr().err
    assert "energy overflows a double" in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


README_EXIT_CODES = {
    int(code) for code in re.findall(
        r"^\| (\d) \| ", (Path(__file__).parents[1] / "README.md").read_text(),
        flags=re.MULTILINE)}

# a well-formed divisors config: tables up to 7 x 20000 pairs, any period
# and constant potential (extreme ones leave the spectrum unresolved)
_DIVISORS_CFG = st.fixed_dictionaries(
    {"k_max": st.integers(2, 8), "j_max": st.integers(0, 20000)},
    optional={"period": st.floats(1e-6, 1e300), "q_const": st.floats(-1e300, 1e300)})
# one field replaced by an absent, ill-typed, non-finite or out-of-range value
_CORRUPTION = st.tuples(
    st.sampled_from(["k_max", "j_max", "period", "q_const"]),
    st.one_of(st.sampled_from([None, True, "3", [1]]),
              st.floats(max_value=1.0), st.sampled_from([math.nan, math.inf]),
              st.integers(-10**30, 1), st.integers(MAX_DIVISOR_PAIRS + 1, 10**30)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_DIVISORS_CFG, corruption=st.one_of(st.none(), _CORRUPTION))
def test_divisors_config_fuzz(tmp_path, capsys, cfg, corruption):
    cfg = {**cfg, "out_dir": str(tmp_path)}
    if corruption is not None:
        key, value = corruption
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    start = time.perf_counter()
    code = run_cli(tmp_path, "divisors", cfg)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in README_EXIT_CODES
    assert code in (EXIT_OK, EXIT_BAD_CONFIG)
    assert err.count("\n") == (0 if code == EXIT_OK else 1)
    assert elapsed < 10.0


# models the pipeline accepts: the two named ones and small custom series
# (c3 = 0 or a negative c3 with a large amplitude are documented failures)
_MODEL = st.one_of(
    st.sampled_from(["sine-gordon", "phi4"]),
    st.fixed_dictionaries({"model": st.just("custom"),
                           "odd_coeffs": st.lists(st.floats(-10.0, 10.0),
                                                  min_size=1, max_size=3)}))
# a top-level field replaced by an absent, ill-typed, non-finite, negative
# or huge value
_BAD_VALUE = st.one_of(st.sampled_from([None, True, "3", [1], {}, math.nan, math.inf]),
                       st.floats(max_value=0.0), st.integers(-10**30, 0),
                       st.integers(10**7, 10**30))
# upper limit of each nested solver field the CLI bounds
_SOLVER_LIMITS = {"N_cap": MAX_SOLVER_N, "N_tau": MAX_SOLVER_N_TAU,
                  "N_tau_cap": MAX_SOLVER_N_TAU, "nf_steps": MAX_NF_STEPS}


def _small_or_past(small, limit):
    """A cheap valid value, or an integer past ``limit`` (exact as a float)."""
    return st.one_of(small, st.integers(limit + 1, 10**6))


# nested solver fields: cheap valid truncations, or sizes past their limit
_SOLVER_CFG = st.fixed_dictionaries(
    {}, optional={"N_cap": _small_or_past(st.sampled_from([8, 16, 64]), MAX_SOLVER_N),
                  "N_tau": _small_or_past(st.integers(8, 24), MAX_SOLVER_N_TAU),
                  "N_tau_cap": _small_or_past(st.integers(8, 40), MAX_SOLVER_N_TAU),
                  "nf_steps": _small_or_past(st.integers(0, 2), MAX_NF_STEPS),
                  "max_stage_iters": st.integers(1, 12),
                  "schedule": st.lists(st.sampled_from(
                      [6, 16, 64, MAX_SOLVER_N + 1, 10**6]), min_size=1, max_size=2)})
_SOLVE_CFG = st.fixed_dictionaries(
    {"eps": st.floats(0.08, 0.3)},
    optional={"model": st.sampled_from(["sine-gordon", "phi4"]),
              "amplitude": st.floats(0.5, 1.0),
              "resonance": st.fixed_dictionaries(
                  {}, optional={"alpha": st.floats(0.0, 1.0),
                                "l": st.floats(2.0, 3.0)}),
              "solver": _SOLVER_CFG})
_SWEEP_CFG = st.fixed_dictionaries(
    {"eps_list": st.lists(st.floats(0.08, 0.3), min_size=1, max_size=2)},
    optional={"model": st.sampled_from(["sine-gordon", "phi4"]),
              "amplitude": st.floats(0.5, 1.0),
              "residual_grid": st.integers(16, 96),
              "solver": _SOLVER_CFG})
_LIMIT_ORBIT_CFG = st.fixed_dictionaries(
    {"amplitude": st.floats(1e-3, 4.0)},
    optional={"model": _MODEL, "tol": st.floats(0.0, 1.0),
              "n_samples": st.integers(16, 4096)})


def _past_limit(cfg) -> bool:
    """Whether a nested solver field of ``cfg`` exceeds its limit."""
    sub = cfg.get("solver")
    if not isinstance(sub, dict):
        return False
    return (any(sub.get(key, 0) > limit for key, limit in _SOLVER_LIMITS.items())
            or any(n > MAX_SOLVER_N for n in sub.get("schedule", [])))


def _forbid_work(monkeypatch, calls):
    """Make every orbit search and closure solve of the CLI record a call
    and fail."""
    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("orbit or solve work past a solver limit")

    # `limit-orbit` calls find_orbit itself and `sweep` checks its orbit
    # once; solve and the sweep rows go through `assembly.solve_point`
    monkeypatch.setattr(cli, "find_orbit", forbidden)
    monkeypatch.setattr(assembly, "find_orbit", forbidden)
    monkeypatch.setattr(assembly, "solve_delta1", forbidden)


def _fuzz_run(tmp_path, capsys, command, cfg, corruption):
    """Run one config through `main`; the exit code must be documented."""
    cfg = {**cfg, "out_dir": str(tmp_path)}
    if corruption is not None:
        key, value = corruption
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    past = _past_limit(cfg)
    calls = []
    start = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        if past:
            _forbid_work(mp, calls)
        code = run_cli(tmp_path, command, cfg)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    event(f"exit {code}" + (", solver field past its limit" if past else ""))
    assert code in README_EXIT_CODES
    assert "Traceback" not in err
    assert elapsed < 30.0
    if past:
        assert code == EXIT_BAD_CONFIG and err.count("\n") == 1 and not calls
    return code, err


# few, fixed examples: a valid solve costs 0.1-0.5 s, and a config past a
# solver limit none
@settings(max_examples=24, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_SOLVE_CFG, corruption=st.one_of(st.none(), st.tuples(
    st.sampled_from(["model", "amplitude", "eps", "resonance", "solver"]),
    _BAD_VALUE)))
def test_solve_config_fuzz(tmp_path, capsys, cfg, corruption):
    _fuzz_run(tmp_path, capsys, "solve", cfg, corruption)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_SWEEP_CFG, corruption=st.one_of(st.none(), st.tuples(
    st.sampled_from(["model", "amplitude", "eps_list", "residual_grid"]),
    _BAD_VALUE)))
def test_sweep_config_fuzz(tmp_path, capsys, cfg, corruption):
    code, _ = _fuzz_run(tmp_path, capsys, "sweep", cfg, corruption)
    # at most two rows: the fit laws never have enough data, unless a
    # corrupted amplitude has no orbit and stops the sweep before its rows
    assert code in (EXIT_BAD_CONFIG, EXIT_NO_ORBIT, EXIT_INSUFFICIENT_DATA)


@pytest.mark.parametrize("command, cfg", [("solve", {"eps": 0.1}),
                                          ("sweep", {"eps_list": [0.1]})])
@pytest.mark.parametrize("solver_cfg", [
    {"N_cap": MAX_SOLVER_N + 1}, {"N_tau": MAX_SOLVER_N_TAU + 1},
    {"N_tau_cap": MAX_SOLVER_N_TAU + 1}, {"nf_steps": MAX_NF_STEPS + 1},
    {"schedule": [6, MAX_SOLVER_N + 1]}])
def test_solver_field_past_its_limit_exits_1(tmp_path, capsys, monkeypatch,
                                             command, cfg, solver_cfg):
    calls = []
    _forbid_work(monkeypatch, calls)
    cfg = {**cfg, "solver": solver_cfg, "out_dir": str(tmp_path)}
    assert run_cli(tmp_path, command, cfg) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid config: field ") and err.count("\n") == 1
    assert not calls


def _forbid_pool(monkeypatch, calls):
    """Make constructing the sweep's worker pool record a call and fail, so
    that no process is started (`epsilon_sweep` imports the pool class from
    `concurrent.futures` when it builds one)."""
    def forbidden(*args, **kwargs):
        calls.append(kwargs)
        raise AssertionError("sweep worker pool constructed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)


@pytest.mark.parametrize("cfg", [
    {"eps_list": [0.1, 0.2], "workers": MAX_SWEEP_WORKERS + 1},
    {"eps_list": [0.1] * (MAX_SWEEP_ROWS + 1), "workers": 2}])
def test_sweep_past_its_limit_exits_1(tmp_path, capsys, monkeypatch, cfg):
    calls = []
    _forbid_work(monkeypatch, calls)
    _forbid_pool(monkeypatch, calls)
    cfg = {**cfg, "out_dir": str(tmp_path)}
    assert run_cli(tmp_path, "sweep", cfg) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid config: field ") and err.count("\n") == 1
    assert not calls
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_at_its_limits_reaches_the_pool(tmp_path, monkeypatch):
    # both limits are accepted and the one orbit check before the rows
    # runs; the pool the sweep then builds is forbidden
    calls = []
    _forbid_work(monkeypatch, calls)
    monkeypatch.setattr(cli, "find_orbit", find_orbit)
    _forbid_pool(monkeypatch, calls)
    eps_list = [0.1 + 1e-4 * i for i in range(MAX_SWEEP_ROWS)]
    cfg = {"eps_list": eps_list, "workers": MAX_SWEEP_WORKERS,
           "out_dir": str(tmp_path)}
    with pytest.raises(AssertionError, match="pool"):
        run_cli(tmp_path, "sweep", cfg)
    assert calls == [{"max_workers": MAX_SWEEP_WORKERS}]


@pytest.mark.parametrize("command, cfg", [
    ("limit-orbit", {"amplitude": 0.9, "tol": None}),
    ("solve", {"eps": 0.1, "amplitude": None}),
    ("solve", {"eps": 0.1, "resonance": {"alpha": None}}),
    ("solve", {"eps": 0.1, "solver": {"residual_tol": None}}),
    ("sweep", {"eps_list": [0.1], "workers": None}),
    ("selftest", {"n_fields": None})])
def test_null_for_a_defaulted_field_exits_1(tmp_path, capsys, monkeypatch,
                                            command, cfg):
    # JSON null is not "use the default": it fails before any work
    calls = []
    _forbid_work(monkeypatch, calls)
    cfg = {**cfg, "out_dir": str(tmp_path)}
    assert run_cli(tmp_path, command, cfg) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.endswith("must be a number, not null\n") and err.count("\n") == 1
    assert not calls


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_LIMIT_ORBIT_CFG, corruption=st.one_of(st.none(), st.tuples(
    st.sampled_from(["model", "amplitude", "tol", "n_samples"]), _BAD_VALUE)))
def test_limit_orbit_config_fuzz(tmp_path, capsys, cfg, corruption):
    code, _ = _fuzz_run(tmp_path, capsys, "limit-orbit", cfg, corruption)
    assert code in (EXIT_OK, EXIT_BAD_CONFIG, EXIT_NO_ORBIT)


# a small battery with any non-negative seed
_SELFTEST_CFG = st.fixed_dictionaries(
    {}, optional={"seed": st.integers(0, 2**64), "n_fields": st.integers(10, 40)})


# few, fixed examples: a valid battery of up to 1000 fields takes ~0.3 s
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_SELFTEST_CFG, corruption=st.one_of(st.none(), st.tuples(
    st.sampled_from(["seed", "n_fields"]),
    st.one_of(_BAD_VALUE, st.integers(MAX_SELFTEST_FIELDS + 1, 10**30)))))
def test_selftest_config_fuzz(tmp_path, capsys, cfg, corruption):
    code, err = _fuzz_run(tmp_path, capsys, "selftest", cfg, corruption)
    assert code in (EXIT_OK, EXIT_BAD_CONFIG)
    assert err.count("\n") == (0 if code == EXIT_OK else 1)


class TestSelftest:
    def test_default_run_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 10
        assert "[FAIL]" not in out
        assert "10/10 properties hold" in out

    def test_config_and_artifact(self, tmp_path):
        cfg = {"seed": 7, "n_fields": 50, "out_dir": str(tmp_path)}
        assert run_cli(tmp_path, "selftest", cfg) == EXIT_OK
        doc = json.loads((tmp_path / "selftest.json").read_text())
        assert doc["ok"] is True
        assert len(doc["results"]) == 10
        assert doc["config"]["seed"] == 7

    @pytest.mark.parametrize("cfg", [{"seed": -1},
                                     {"n_fields": MAX_SELFTEST_FIELDS + 1}])
    def test_bad_field_exits_1(self, tmp_path, capsys, cfg):
        assert run_cli(tmp_path, "selftest", cfg) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid config: field") and err.count("\n") == 1
