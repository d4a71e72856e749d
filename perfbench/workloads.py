"""The benchmark's workloads: what each one runs and how its outputs are checked.

Every workload is one invocation of the mfjq CLI.  Its inputs
come from the benchmark seed; ``seed_note`` says where the seed cannot
change them, so that runs with different seeds there are repeats of one
input, not samples of different inputs.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

SPECS = Path("src") / "mfjq" / "scenario_specs"


@dataclass(frozen=True)
class Invocation:
    cli_args: list            # arguments after `python -m mfjq.cli`
    setup_args: list          # arguments for setup_probe.py after the workload name
    steps: Optional[int]      # time steps of the run (t_end / dt)
    rows: Optional[int]       # trajectory rows the run must log, None if none is valid
    spec: Optional[dict]      # resolved scenario spec, for the output checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_note: Optional[str]  # why the seed has no effect, or None
    invoke: Callable[[Path, int, Path, bool], Invocation]
    check: Callable[[Path, Invocation, str], list]


def load_spec(root: Path, name: str) -> dict:
    return json.loads((root / SPECS / f"{name}.json").read_text())


def grid_steps(t_end: float, dt: float) -> Optional[int]:
    """t_end / dt when it is a positive whole number of steps, else None."""
    if not dt > 0:
        return None
    n = t_end / dt
    return int(round(n)) if round(n) >= 1 and abs(n - round(n)) < 1e-9 else None


def read_trajectory(path: Path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = list(zip(*reader)) or [()] * len(header)
    return {h: np.array(c, dtype=float) for h, c in zip(header, cols)}


def check_trajectory(run_dir: Path, inv: Invocation, stdout: str) -> list:
    path = run_dir / "trajectory.csv"
    if not path.is_file():
        return [("trajectory.csv written", False, "missing")]
    traj = read_trajectory(path)
    n = len(traj["t"])
    rows = [("row count", inv.rows is not None and n == inv.rows,
             f"{n} rows, expected {inv.rows}")]
    err = float(np.max(np.abs(traj["mass"] - 1.0))) if n else float("inf")
    rows.append(("|mass - 1| <= 1e-12 on every row", err <= 1e-12, f"max {err:.2e}"))
    return rows


def check_controlled(run_dir: Path, inv: Invocation, stdout: str) -> list:
    from mfjq.verify import audit_constraints_log

    rows = check_trajectory(run_dir, inv, stdout)
    if not rows[0][1]:
        return rows
    traj = read_trajectory(run_dir / "trajectory.csv")
    ctrl = inv.spec["controller"]
    audit = audit_constraints_log(traj["t"], traj["control_a"], traj["control_b"],
                                  traj["control_eta"], traj["control_sign"],
                                  c=ctrl["c"], kappa=ctrl["kappa"])
    return rows + [(f"audit: {name}", ok, detail) for name, ok, detail in audit]


def check_verify(run_dir: Path, inv: Invocation, stdout: str) -> list:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    failing = [ln for ln in lines if "  PASS  " not in ln]
    return [("every suite passes", bool(lines) and not failing,
             f"{len(lines) - len(failing)}/{len(lines)} checks pass")]


def invoke_ctrl(root: Path, seed: int, out: Path, smoke: bool) -> Invocation:
    # Not in BENCHMARK.json; run it by name.  The controller search costs
    # about 0.55 s per unit of time here, so a run to t = 25 takes about 14 s
    # and one measurement holds two or three runs, whose median moved by more
    # than the metric's bound between measurements of the same code.  A run
    # short enough to give a steady median repeats what verify_all's
    # constraints suite already runs (this scenario to t = 5).  t = 25 rather
    # than the scenario's 100 still reaches t = 19.8, from where the candidate
    # grid no longer changes.  The admissible set is empty before t = 1.5, so
    # the smoke horizon must pass it.
    spec = load_spec(root, "hk_ctrl_h05")
    spec.update(seed=seed, t_end=2.5 if smoke else 25.0)
    args = ["run", "--scenario", "hk_ctrl_h05", "--seed", str(seed),
            "--t-end", str(spec["t_end"])]
    steps = grid_steps(spec["t_end"], spec["dt"])
    return Invocation(args + ["--out", str(out)], [str(seed)], steps,
                      None if steps is None else steps + 1, spec)


def invoke_free(root: Path, seed: int, out: Path, smoke: bool) -> Invocation:
    # Not in BENCHMARK.json; run it by name.  Its median moved by up to 15%
    # between measurements of the same code as the host's speed drifted, and
    # BENCHMARK.json keeps two workloads so that each measurement can be long.
    # conc_5k and verify_all still reach every layer.
    # The shipped 400 cells keep the 401x400 field matrix (1.3 MB) inside a
    # core's L2 cache.  At 1600 cells the 20 MB matrix streams from the
    # shared L3 on every step, and runs of one input varied by up to 40%
    # with the load of other tenants of the host.
    spec = load_spec(root, "hk_free")
    args = ["run", "--scenario", "hk_free", "--seed", str(seed)]
    if smoke:
        spec["t_end"] = 0.2
        args += ["--t-end", "0.2"]
    steps = grid_steps(spec["t_end"], spec["dt"])
    return Invocation(args + ["--out", str(out)], [str(seed)], steps,
                      None if steps is None else steps + 1, spec)


def invoke_conc(root: Path, seed: int, out: Path, smoke: bool) -> Invocation:
    # The shipped demo has 5000 particles.  At 20000 a run takes about 8 s,
    # too long for a steady median of several runs in one measurement.
    spec = load_spec(root, "concentration")
    spec["seed"] = seed
    if smoke:
        spec["concentration"]["n_particles"] = 500
    out.mkdir(parents=True, exist_ok=True)
    config = out / "conc_5k.json"
    config.write_text(json.dumps(spec))
    # the demo runs to 0.95 c and logs every 10th step plus the last one
    conc = spec["concentration"]
    steps = int(round(0.95 * conc["c"] / spec["dt"]))
    rows = len(range(0, steps + 1, 10)) + (1 if steps % 10 else 0)
    return Invocation(["run", "--config", str(config), "--out", str(out)],
                      [str(seed), str(config)], steps, rows, spec)


def invoke_verify(root: Path, seed: int, out: Path, smoke: bool) -> Invocation:
    return Invocation(["verify", "all"], [str(seed)], None, None, None)


def invoke_invalid(root: Path, seed: int, out: Path, smoke: bool) -> Invocation:
    """A config the CLI must reject: a negative time step."""
    spec = dict(name="invalid", seed=seed, dt=-1.0, t_end=1.0)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "invalid.json"
    config.write_text(json.dumps(spec))
    steps = grid_steps(spec["t_end"], spec["dt"])
    return Invocation(["run", "--config", str(config), "--out", str(out)], [], steps,
                      None if steps is None else steps + 1, spec)


WORKLOADS = {w.name: w for w in (
    Workload("ctrl_h05", "controlled run to t=25; the controller search is most of the time",
             None, invoke_ctrl, check_controlled),
    Workload("free_400", "free run of hk_free; field products and transport, no controller",
             None, invoke_free, check_trajectory),
    Workload("conc_5k", "5000-particle RK4 demo; snapshot output, no grid or controller",
             "the concentration demo ignores its seed",
             invoke_conc, check_trajectory),
    Workload("verify_all", "all verify suites; oracle code and a short controlled run",
             "the verify suites use fixed seeds", invoke_verify, check_verify),
)}

# Smoke mode only: must be counted as a failed run whatever its exit code.
INVALID = Workload("invalid_config", "a negative dt the CLI must reject", None,
                   invoke_invalid, check_trajectory)
