import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mfjq
from mfjq import solver, verify
from mfjq.controller import SlopeEvaluator
from mfjq.cli import _build_parser, main
from mfjq.scenarios import ScenarioSpec, run_hk
from mfjq.verify import run_suite

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args):
    return main(args)


class TestRun:
    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        assert run_cli(["run", "--scenario", "nope",
                        "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_scenario_and_config_are_exclusive(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(ScenarioSpec.builtin("hk_free").to_dict()))
        assert run_cli(["run", "--scenario", "hk_free", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2
        assert run_cli(["run", "--out", str(tmp_path / "o")]) == 2

    def test_short_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli(["run", "--scenario", "hk_free", "--out", str(out),
                      "--t-end", "1.0", "--cells", "100"])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "meta.json").exists()
        snaps = list((out / "snapshots").glob("snapshot_t*.csv"))
        assert snaps
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 42
        assert meta["spec"]["n_cells"] == 100
        assert "version" in meta
        # 100 steps of one sub-step each, and no controller
        assert meta["perf"] == dict(cfl_substeps=100, controller_queries=0, strict_searches=0,
                                    settled_by_ceiling=0, idle_queries_skipped=0,
                                    candidates_scored=0, max_best_over_ceiling=None)
        assert meta["switches"] == []
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,V,slope,control_a")

    def test_controlled_run_perf_and_switches(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run_cli(["run", "--scenario", "hk_ctrl_h05", "--t-end", "2", "--cells", "100",
                        "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        perf, switches = meta["perf"], meta["switches"]
        # count the candidates and the strict searches' best / U from outside
        scored, ratios = [], []
        signed_batch, decide_multi = SlopeEvaluator.signed_batch, solver.decide_multi

        def counted_batch(ev, a, b, eta):
            scored.append(np.broadcast(np.asarray(a), np.asarray(b), np.asarray(eta)).size)
            return signed_batch(ev, a, b, eta)

        def recorded_decide(*args):
            decision, state = decide_multi(*args)
            if decision.searched_slope is not None:
                ratios.append(decision.searched_slope / decision.ceiling)
            return decision, state

        monkeypatch.setattr(SlopeEvaluator, "signed_batch", counted_batch)
        monkeypatch.setattr(solver, "decide_multi", recorded_decide)
        log, _ = run_hk(ScenarioSpec.builtin("hk_ctrl_h05").apply_overrides(t_end=2.0, cells=100))
        assert perf == log.perf
        assert perf["candidates_scored"] == sum(scored) > 0
        assert len(ratios) == perf["strict_searches"] > 0
        assert perf["max_best_over_ceiling"] == max(ratios) <= 1.0
        # 200 steps of dt = 0.01, one sub-step each at 100 cells
        assert perf["cfl_substeps"] == 200
        assert perf["strict_searches"] == len(log.ceiling_gaps)
        # every query is skipped, settled by U, searched, or left below phi1
        below_phi1 = sum(sw["reason"] == "below_phi1" for sw in switches)
        assert perf["controller_queries"] == 201 == (
            perf["idle_queries_skipped"] + perf["settled_by_ceiling"]
            + perf["strict_searches"] + below_phi1)
        assert perf["idle_queries_skipped"] > 0
        assert len(switches) == meta["n_switches"] > 0
        assert switches[0]["reason"] == "entry" and switches[0]["current_slope"] == 0.0
        assert {sw["reason"] for sw in switches} <= {"entry", "below_phi1", "challenger"}
        assert [sw["t"] for sw in switches] == sorted(sw["t"] for sw in switches)

    @pytest.mark.parametrize("scenario", ["hk_free", "hk_ctrl_h05"])
    def test_one_cell_runs(self, tmp_path, scenario):
        """A lone cell has no neighbour: its divergence bound is 0, not an error."""
        out = tmp_path / "o"
        assert run_cli(["run", "--scenario", scenario, "--cells", "1", "--t-end", "0.05",
                        "--out", str(out)]) == 0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 7

    def test_config_file_run(self, tmp_path):
        spec = ScenarioSpec.builtin("hk_free").apply_overrides(
            t_end=0.5, cells=80)
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(spec.to_dict()))
        assert run_cli(["run", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 0

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["run", "--scenario", "hk_free", "--out", str(out),
                            "--seed", "42", "--t-end", "1.0",
                            "--cells", "100"]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, tmp_path):
        outs = []
        for seed in ("42", "43"):
            out = tmp_path / seed
            assert run_cli(["run", "--scenario", "hk_free", "--out", str(out),
                            "--seed", seed, "--t-end", "0.5",
                            "--cells", "100"]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_controlled_overrides(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["run", "--scenario", "hk_ctrl_h05", "--out", str(out),
                      "--t-end", "2.0", "--h", "0.3", "--c", "1.5",
                      "--kappa", "0.9"])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["spec"]["controller"]["h"] == 0.3
        assert meta["spec"]["controller"]["c"] == 1.5

    def test_support_escape_exit_3(self, tmp_path, capsys):
        # shrink the domain so the initial data sits at the ball edge
        spec = ScenarioSpec(name="escape", seed=1, domain=(-1.0, 11.0),
                            n_cells=100, radius=1.0, t_end=2.0, dt=0.01)
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(spec.to_dict()))
        out = tmp_path / "o"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert (out / "violation.txt").exists()

    def test_rerun_replaces_previous_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        run = ["run", "--scenario", "hk_free", "--cells", "100", "--out", str(out)]
        assert run_cli(run + ["--t-end", "20"]) == 0
        (out / "notes.txt").write_text("kept\n")
        (out / "snapshots" / "keep.csv").write_text("kept\n")
        (out / "violation.txt").write_text("stale\n")
        assert run_cli(run + ["--t-end", "5"]) == 0
        snaps = sorted(p.name for p in (out / "snapshots").glob("snapshot_t*.csv"))
        assert snaps == ["snapshot_t0.csv", "snapshot_t5.csv"]
        assert "2 snapshots" in capsys.readouterr().out
        assert not (out / "violation.txt").exists()
        assert json.loads((out / "meta.json").read_text())["spec"]["t_end"] == 5.0
        # a run that escapes at t = 0 leaves its report and nothing of the run before
        spec = ScenarioSpec(name="escape", seed=1, domain=(-1.0, 11.0),
                            n_cells=100, radius=1.0, t_end=2.0, dt=0.01)
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(spec.to_dict()))
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert sorted(p.name for p in out.rglob("*") if p.is_file()) == [
            "keep.csv", "notes.txt", "violation.txt"]

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        assert run_cli(["run", "--scenario", "hk_free", "--t-end", "0.1",
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err, err

    def test_snapshots_do_not_accumulate_in_memory(self, tmp_path):
        """Each snapshot is written as it is taken, so the 48 snapshots of the
        shipped demo peak no higher than 5 do: the gap stays below 4 copies of
        the 5,000 positions, where keeping them all would add 43."""
        def run(every, name):
            d = ScenarioSpec.builtin("concentration").to_dict()
            d["snapshot_every"] = every
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(d))
            return run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / name)])

        assert run(0.1, "warm-up") == 0
        peaks = {}
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for every in (0.0095, 0.1):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert run(every, f"every{every}") == 0
                peaks[every] = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert len(list((tmp_path / "every0.0095" / "snapshots").iterdir())) == 48
        assert abs(peaks[0.0095] - peaks[0.1]) < 4 * 5000 * 8, peaks

    def test_concentration_scenario(self, tmp_path):
        spec = ScenarioSpec.builtin("concentration")
        d = spec.to_dict()
        d["concentration"]["n_particles"] = 300
        d["seed"] = 7  # the demo has no use for it, but a seed key stays valid
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "o"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["max_omega_mass"] <= 0.5 + 1e-3
        assert "backend" not in meta["spec"]

    def test_concentration_t_end(self, tmp_path):
        d = ScenarioSpec.builtin("concentration").to_dict()
        d["concentration"]["n_particles"] = 300
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "o"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out),
                        "--t-end", "0.1"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.1, abs=1e-12)
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "x"),
                        "--t-end", "1.0"]) == 2

    def test_concentration_snapshot_every(self, tmp_path, capsys):
        d = ScenarioSpec.builtin("concentration").to_dict()
        d["concentration"]["n_particles"] = 300
        d.update(snapshot_every=0.05, t_end=0.1)
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "o"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        snaps = sorted(p.name for p in (out / "snapshots").glob("snapshot_t*.csv"))
        assert snaps == ["snapshot_t0.05.csv", "snapshot_t0.1.csv", "snapshot_t0.csv"]
        assert "3 snapshots" in capsys.readouterr().out

    @pytest.mark.parametrize("base, change, flags", [
        pytest.param("hk_free", {"bogus": 1}, (), id="unknown-key"),
        pytest.param("hk_free", {"n_particles": 2000}, (), id="n_particles"),
        pytest.param("hk_free", {"functional": "variance_recentred"}, (), id="functional"),
        pytest.param("hk_free", {"dt": 0.0}, (), id="dt-zero"),
        pytest.param("hk_free", {"dt": -1.0}, (), id="dt-negative"),
        pytest.param("hk_free", {"dt": "0.1"}, (), id="dt-string"),
        pytest.param("hk_free", {"n_cells": 0}, (), id="no-cells"),
        pytest.param("hk_free", {"dt": 5.0, "t_end": 1.0}, (), id="t_end-below-dt"),
        pytest.param("hk_free", {"kernel": "nope"}, (), id="unknown-kernel"),
        pytest.param("hk_free", {"kernel_params": {"epsilon": 0.1}}, (), id="epsilon-twice"),
        pytest.param("hk_ctrl_h05", {"controller": {"h": 1.5, "c": 2.0, "kappa": 0.8}},
                     (), id="h-above-1"),
        pytest.param("hk_ctrl_h05", {"controller": {"h": 0.0, "c": 2.0, "kappa": 0.8}},
                     (), id="h-zero"),
        pytest.param("hk_free", {"backend": "particles"}, (), id="particles-on-grid"),
        pytest.param("concentration", {"backend": "grid"}, (), id="grid-on-concentration"),
        pytest.param("hk_ctrl_h05", {"controller": {"h": 0.5, "c": 2.0, "kapa": 0.8}}, (),
                     id="controller-misspelt-key"),
        pytest.param("hk_ctrl_h05", {"controller": {"h": 0.5, "c": 2.0, "kappa": 0.8,
                                                    "search": {"n_a": 32}}}, (),
                     id="controller-search"),
        pytest.param("hk_free", {"n_cells": 10.5}, (), id="fractional-cells"),
        pytest.param("concentration", {}, ("--cells", "100"), id="cells-on-concentration"),
        pytest.param("concentration", {}, ("--seed", "7"), id="seed-on-concentration"),
        pytest.param("concentration", {"controller": {"h": 0.5, "c": 2.0, "kappa": 0.8}}, (),
                     id="controller-and-concentration"),
        pytest.param("hk_ctrl_h05", {}, ("--kappa", "0"), id="kappa-zero"),
        pytest.param("hk_ctrl_h05", {}, ("--kappa", "-1"), id="kappa-negative"),
        pytest.param("hk_ctrl_h05", {}, ("--kappa", "inf"), id="kappa-inf"),
        pytest.param("concentration", {"concentration": {"c": 0.5, "n_particle": 300}}, (),
                     id="concentration-misspelt-key"),
        pytest.param("concentration", {"concentration": {"c": 0.5, "n_particles": 0}}, (),
                     id="no-particles"),
        pytest.param("concentration", {"concentration": {"c": 0.5, "n_intervals": 0}}, (),
                     id="no-intervals"),
        pytest.param("hk_free", {"n_cells": 10, "initial_density": [0.1] * 10},
                     ("--cells", "50"), id="cells-on-initial-density"),
        pytest.param("hk_free", {"n_cells": 10, "initial_density": [0.1] * 10},
                     ("--seed", "3"), id="seed-on-initial-density"),
        pytest.param("hk_free", {"n_cells": 10, "initial_density": [0.2] * 10}, (),
                     id="initial-density-sum-2"),
        pytest.param("hk_free", {"n_cells": 10, "initial_density": ["a"] * 10}, (),
                     id="initial-density-string"),
        pytest.param("hk_free", {"n_cells": 10, "initial_density": [0.1] * 9 + [float("nan")]},
                     (), id="initial-density-nan"),
        pytest.param("hk_free", {"n_cells": 10, "initial_density": [-0.1, 0.3] + [0.1] * 8},
                     (), id="initial-density-negative"),
        pytest.param("hk_free", {"kernel_params": {"value": 3, "bogus": 1}}, (),
                     id="kernel-params"),
        pytest.param("hk_free", {"radius": 0}, (), id="radius-zero"),
        pytest.param("hk_free", {"radius": float("inf")}, (), id="radius-inf"),
        pytest.param("hk_ctrl_h05", {}, ("--c", "inf"), id="budget-c-inf"),
        pytest.param("hk_free", {"domain": [5, -5]}, (), id="domain-reversed"),
        pytest.param("hk_free", {"domain": "ab"}, (), id="domain-not-numbers"),
        pytest.param("hk_free", {"interval": [10, 0]}, (), id="interval-reversed"),
        pytest.param("hk_free", {"interval": [0.01, 0.02], "n_cells": 10}, (),
                     id="interval-between-centres"),
        pytest.param("hk_free", {"n_cells": True}, (), id="cells-bool"),
        pytest.param("hk_free", {"seed": "x"}, (), id="seed-string"),
        pytest.param("hk_free", {}, ("--seed", "-1"), id="seed-negative"),
        pytest.param("concentration", {"concentration": {"c": 0.5, "n_particles": True}}, (),
                     id="particles-bool"),
        pytest.param("hk_free", {"snapshot_every": "x"}, (), id="snapshot-string"),
        pytest.param("hk_free", {"snapshot_every": -1}, (), id="snapshot-negative"),
        pytest.param("hk_free", {"snapshot_every": 0}, (), id="snapshot-zero"),
        pytest.param("hk_free", {"snapshot_every": True}, (), id="snapshot-bool"),
        pytest.param("hk_free", {"snapshot_every": float("inf")}, (), id="snapshot-inf"),
        pytest.param("concentration", {"snapshot_every": None}, (),
                     id="no-snapshots-on-concentration"),
        pytest.param("hk_free", {}, ("--t-end", "1", "--dt", "0.4"), id="t_end-between-steps"),
        pytest.param("concentration", {"t_end": 0.1005}, (), id="conc-t_end-between-steps"),
        pytest.param("hk_free", {}, ("--t-end", "inf"), id="t_end-inf"),
        pytest.param("concentration", {"concentration": {"c": float("nan")}}, (), id="c-nan"),
        pytest.param("concentration", {"concentration": {"c": float("inf")}}, (), id="c-inf"),
        pytest.param("concentration", {"concentration": {"c": True}}, (), id="c-bool"),
        pytest.param("concentration", {"concentration": {"c": 1.0}}, (), id="c-one"),
        pytest.param("concentration", {"concentration": {"c": 1.5}}, (), id="c-above-1"),
        pytest.param("concentration", {"radius": 5}, (), id="radius-on-concentration"),
        pytest.param("concentration", {"epsilon": 0.3}, (), id="epsilon-on-concentration"),
        pytest.param("concentration", {"interval": [3, 4]}, (), id="interval-on-concentration"),
        pytest.param("concentration", {"domain": [-2, 2]}, (), id="domain-on-concentration"),
        pytest.param("concentration", {"n_cells": 100}, (), id="n_cells-on-concentration"),
        pytest.param("concentration", {"kernel": "constant_g"}, (), id="kernel-on-concentration"),
        pytest.param("concentration", {"cluster_mass_floor": 0.5}, (),
                     id="cluster-floor-on-concentration"),
        pytest.param("concentration", {"initial_density": [0.0025] * 400}, (),
                     id="initial-density-on-concentration"),
        pytest.param("hk_free", {"cluster_mass_floor": "x"}, (), id="cluster-floor-string"),
        pytest.param("hk_free", {"cluster_mass_floor": float("nan")}, (),
                     id="cluster-floor-nan"),
        pytest.param("hk_free", {"epsilon": float("inf")}, (), id="epsilon-inf"),
        pytest.param("hk_free", {"epsilon": True}, (), id="epsilon-bool"),
        pytest.param("hk_free", {"epsilon": 1e-320}, (), id="epsilon-subnormal"),
        pytest.param("hk_free", {"domain": [-12, 6], "radius": 6}, (),
                     id="interval-outside-domain"),
        pytest.param("hk_free", {"radius": 20}, (), id="ball-outside-domain"),
        pytest.param("hk_free", {"cluster_mass_floor": 1.0}, (), id="cluster-floor-one"),
    ])
    def test_config_error_exit_2(self, tmp_path, capsys, base, change, flags):
        d = ScenarioSpec.builtin(base).to_dict()
        d.update(change)
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "o"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err, err
        assert not out.exists()


class TestVerify:
    def test_oracle_suite(self, capsys):
        assert run_cli(["verify", "oracle"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_dissipativity_suite(self, capsys):
        assert run_cli(["verify", "dissipativity"]) == 0

    def test_conservation_suite(self, capsys):
        assert run_cli(["verify", "conservation"]) == 0

    def test_constraints_from_run_dir(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["run", "--scenario", "hk_ctrl_h05", "--out", str(out),
                        "--t-end", "3.0"]) == 0
        assert run_cli(["verify", "constraints", "--run-dir", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["oracle", "dissipativity", "conservation"])
    def test_run_dir_rejected_by_other_suites(self, tmp_path, capsys, suite):
        assert run_cli(["verify", suite, "--run-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error:") and "\n" not in err, err
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["constraints", "all"])
    @pytest.mark.parametrize("scenario, t_end", [("hk_free", "2"), ("concentration", "0.1")])
    def test_run_dir_without_controller_exit_2(self, tmp_path, capsys, suite, scenario,
                                               t_end):
        # no controller, so no c or kappa to audit against
        out = tmp_path / "o"
        assert run_cli(["run", "--scenario", scenario, "--t-end", t_end,
                        "--out", str(out)]) == 0
        capsys.readouterr()
        assert run_cli(["verify", suite, "--run-dir", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error:") and "\n" not in err, err
        assert "without a controller" in err
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["constraints", "all"])
    def test_missing_run_dir_exit_2(self, tmp_path, capsys, suite):
        assert run_cli(["verify", suite, "--run-dir", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err, err

    def test_all_suite(self):
        rows = run_suite("all")
        assert all(ok for _, ok, _ in rows), rows

    def test_constraints_audit_uses_scenario_kappa(self, monkeypatch):
        seen = {}
        real = verify.audit_constraints_log

        def spy(*args, **kw):
            seen.update(kw)
            return real(*args, **kw)

        monkeypatch.setattr(verify, "audit_constraints_log", spy)
        assert all(ok for _, ok, _ in verify.suite_constraints())
        # the controller of hk_ctrl_h05, not the audit's default kappa = 1
        assert seen == {"c": 2.0, "kappa": 0.8}

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nope"])


def test_runs_load_no_numpy_random(tmp_path):
    """The seeded draws come from mfjq.rng, so neither a verify nor a seeded
    grid run imports numpy's random package or, through its `secrets`,
    OpenSSL's hashlib."""
    code = (
        "import sys\n"
        "from mfjq.cli import main\n"
        "assert main(['verify', 'all']) == 0\n"
        "assert main(['run', '--scenario', 'hk_ctrl_h05', '--t-end', '0.1',\n"
        f"             '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print(sorted({'numpy.random', '_hashlib'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mfjq.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


def test_readme_commands_parse():
    """Every `mfjq ...` line in a README code block is a valid command line."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [ln.strip() for b in blocks for ln in b.splitlines()
             if ln.strip().startswith("mfjq ")]
    assert lines
    for line in lines:
        _build_parser().parse_args(shlex.split(line)[1:])
