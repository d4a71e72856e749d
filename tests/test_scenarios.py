import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfjq
from mfjq.measures import GridMeasure, total_mass
from mfjq.scenarios import (BUILTIN_SCENARIOS, ScenarioSpec, concentration_gain,
                            default_epsilon_schedule, detect_clusters,
                            make_initial_measure, run_concentration_demo,
                            run_hk)
from mfjq.solver import check_linf_bound


class TestScenarioSpec:
    def test_builtins_load(self):
        for name in BUILTIN_SCENARIOS:
            spec = ScenarioSpec.builtin(name)
            assert spec.name == name

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            ScenarioSpec.builtin("nope")

    def test_roundtrip(self, tmp_path):
        spec = ScenarioSpec.builtin("hk_free")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_json(path) == spec

    def test_overrides(self):
        spec = ScenarioSpec.builtin("hk_ctrl_h05")
        out = spec.apply_overrides(seed=7, cells=100, h=0.3, t_end=5.0)
        assert out.seed == 7
        assert out.n_cells == 100
        assert out.controller["h"] == 0.3
        assert out.t_end == 5.0
        # None overrides are ignored
        assert spec.apply_overrides(seed=None) == spec

    def test_controller_override_needs_controller(self):
        with pytest.raises(ValueError):
            ScenarioSpec.builtin("hk_free").apply_overrides(h=0.3)

    def test_unknown_override(self):
        with pytest.raises(KeyError):
            ScenarioSpec.builtin("hk_free").apply_overrides(bogus=1)


class TestInitialMeasure:
    def test_deterministic_in_seed(self):
        spec = ScenarioSpec(name="x", seed=123)
        a = make_initial_measure(spec)
        b = make_initial_measure(spec)
        np.testing.assert_array_equal(a.cell_mass, b.cell_mass)
        c = make_initial_measure(ScenarioSpec(name="x", seed=124))
        assert not np.array_equal(a.cell_mass, c.cell_mass)

    def test_supported_on_interval(self):
        spec = ScenarioSpec(name="x", seed=1)
        mu = make_initial_measure(spec)
        lo, hi = spec.interval
        outside = (mu.centers < lo) | (mu.centers > hi)
        assert np.all(mu.cell_mass[outside] == 0.0)
        assert total_mass(mu) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_density_override(self):
        m = np.zeros(10)
        m[4:6] = 0.5
        spec = ScenarioSpec(name="x", n_cells=10, initial_density=list(m))
        mu = make_initial_measure(spec)
        np.testing.assert_array_equal(mu.cell_mass, m)


class TestDetectClusters:
    def grid(self, mass):
        m = np.asarray(mass, dtype=float)
        return GridMeasure(0.0, float(m.size), m / m.sum())

    def test_single_cluster_consensus(self):
        m = np.zeros(20)
        m[10] = 1.0
        rep = detect_clusters(self.grid(m), gap=1.05, floor=1e-3)
        assert rep.n_clusters == 1
        assert rep.consensus

    def test_two_separated_clusters(self):
        m = np.zeros(20)
        m[2] = 0.5
        m[15] = 0.5
        rep = detect_clusters(self.grid(m), gap=1.05, floor=1e-3)
        assert rep.n_clusters == 2
        assert not rep.consensus
        assert rep.clusters[0].center == pytest.approx(2.5)
        assert rep.clusters[1].center == pytest.approx(15.5)

    def test_floor_drops_debris(self):
        m = np.zeros(20)
        m[10] = 1.0
        m[3] = 1e-5
        rep = detect_clusters(self.grid(m), gap=1.05, floor=1e-3)
        assert rep.n_clusters == 1

    def test_adjacent_cells_merge(self):
        m = np.zeros(20)
        m[9:12] = 1.0
        rep = detect_clusters(self.grid(m), gap=1.05, floor=1e-3)
        assert rep.n_clusters == 1
        assert rep.clusters[0].width == pytest.approx(3.0)

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            detect_clusters(self.grid(np.ones(4)), gap=0.0, floor=1e-3)

    def test_masses_sum_below_one(self):
        rng = np.random.default_rng(0)
        m = rng.random(50)
        rep = detect_clusters(self.grid(m), gap=1.05, floor=1e-3)
        assert sum(c.mass for c in rep.clusters) <= 1.0 + 1e-9


class TestShortRuns:
    """Cheap truncated versions of the full scenarios (full scale is covered
    by the acceptance suite)."""

    def test_uncontrolled_runs(self):
        spec = ScenarioSpec.builtin("hk_free").apply_overrides(t_end=2.0)
        log, rep = run_hk(spec)
        assert np.max(np.abs(log.column("mass") - 1.0)) <= 1e-12
        assert log.t[-1] == pytest.approx(2.0)

    def test_narrow_bump_reaches_consensus(self):
        # support within the confidence radius contracts to one cluster
        spec = ScenarioSpec(name="narrow", n_cells=200, domain=(-3.0, 3.0),
                            radius=3.0, interval=(0.0, 0.5), t_end=8.0,
                            dt=0.01, seed=5, snapshot_every=4.0)
        log, rep = run_hk(spec)
        assert rep.consensus
        assert log.V[-1] < 0.01 * log.V[0]

    def test_cluster_report_is_of_the_measure_at_t_end(self):
        # the free run shows one cluster at t = 0 and t = 10 and three at t = 15
        def clusters(t_end, snapshot_every):
            d = ScenarioSpec.builtin("hk_free").to_dict()
            d.update(t_end=t_end, snapshot_every=snapshot_every)
            return run_hk(ScenarioSpec.from_dict(d).validate())[1]

        at_15 = clusters(15.0, 15.0)
        assert at_15.n_clusters == 3 and not at_15.consensus
        assert clusters(15.0, None) == at_15
        assert clusters(14.99, 5.0).n_clusters == 3

    def test_controlled_short_run_decreases_V(self):
        spec = ScenarioSpec.builtin("hk_ctrl_h05").apply_overrides(t_end=5.0)
        log, _ = run_hk(spec)
        assert log.V[-1] < log.V[0]
        assert "consensus_time" in log.meta

    def test_delta_like_initial_data_stays_idle(self):
        m = np.zeros(400)
        m[200] = 1.0
        spec = ScenarioSpec.builtin("hk_ctrl_h05").apply_overrides(t_end=3.0)
        spec = ScenarioSpec.from_dict({**spec.to_dict(),
                                       "initial_density": list(m)})
        log, _ = run_hk(spec)
        assert log.n_switches == 0
        assert np.all(np.isnan(log.column("control_eta")))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["hk_ctrl_h02", "hk_ctrl_h05", "hk_ctrl_h09"])
def test_controlled_runs_at_other_seeds(name, seed):
    """The full controlled runs at seeds other than the builtin 42.

    A controller that chatters switches every 2-3 steps; one that settles
    switches rarely.  The ceiling of a switch per 20 steps lies between.
    """
    spec = ScenarioSpec.builtin(name).apply_overrides(seed=seed)
    log, _ = run_hk(spec)
    n_steps = round(spec.t_end / spec.dt)
    assert check_linf_bound(log)["ok"]
    assert log.V[-1] / log.V[0] < 0.01
    assert log.n_switches <= n_steps // 20


class TestConcentration:
    def test_schedule_is_valid(self):
        c = 0.5
        sched = default_epsilon_schedule(c)
        t_prev = 0.0
        for t, eps in sched:
            assert 0.0 < eps < c - t_prev
            assert eps == pytest.approx((c - t) / 2.0)
            t_prev = t
        assert sched[-1][0] == pytest.approx(0.95 * c)

    def test_gain_shape(self):
        u = concentration_gain(0.5, 0.1)
        x = np.array([0.3, 0.7, 1.0, 1.2, 0.5])
        vals = u(x)
        assert vals[0] == 0.0          # left of 1-c
        assert vals[1] == -1.0         # inside the window
        assert vals[2] == -1.0
        assert vals[3] == 0.0          # right of 1+eps
        assert -1.0 <= vals[4] <= 0.0  # on the ramp
        assert np.max(np.abs(u(np.linspace(-1, 2, 500)))) <= 1.0

    def test_small_demo_concentrates(self):
        spec = ScenarioSpec.builtin("concentration").apply_overrides(
            dt=2e-3, concentration=dict(c=0.5, n_particles=500))
        log, rep = run_concentration_demo(spec)
        # population budget respected throughout
        assert rep["omega_mass"].max() <= 0.5 + 1e-3
        # mass piles up near 1 - c
        assert rep["window_mass"][-1] > rep["window_mass"][0]
        assert rep["window_mass"][-1] >= 0.4


SRC = Path(mfjq.__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "setup_probe.py"


@pytest.mark.parametrize("args", [
    pytest.param(["verify_all", "0"], id="verify_all"),
    pytest.param(["conc_5k", "0", str(SRC / "mfjq" / "scenario_specs" / "concentration.json")],
                 id="conc_5k"),
])
def test_benchmark_setup_probe(args):
    """The benchmark times its workloads' set-up through this package's API."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(PROBE), *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer(tmp_path):
    """The benchmark's traced pass reads step_grid's arguments and counts the
    controller's candidates through hooks on this package's functions.  The
    drift is applied as a stencil, so the run builds no field matrix."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    prefix = tmp_path / "trace"
    proc = subprocess.run(
        [sys.executable, str(PROBE.parent / "tracer.py"), str(prefix), str(tmp_path / "peak"),
         "run", "--scenario", "hk_ctrl_h05", "--t-end", "2", "--cells", "100",
         "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads((tmp_path / "trace.json").read_text())["counters"]
    # 200 steps of dt = 0.01, one sub-step each at 100 cells
    assert counters["solver.cfl_substeps"] == 200
    assert counters["controller.candidates"] > 0
    # the tracer multiplies the bytes of every field matrix built during
    # evolve by the steps taken
    assert counters["kernels.matvec_bytes_computed"] == 0
