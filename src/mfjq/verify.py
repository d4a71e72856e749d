"""Named invariant suites for the `verify` CLI command.

Each suite returns a list of (check name, passed, detail) triples.  The
suites audit runtime invariants (constraints on the emitted controls, mass
conservation and positivity, closed-form vs finite-difference rates,
dissipativity of the uncontrolled drift); `all` aggregates them.  The
randomized suites draw from :mod:`mfjq.rng` with fixed seeds, numpy's
``default_rng`` stream for those seeds.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .controller import bump_1d
from .kernels import HKKernel, nonlocal_field
from .lyapunov import lie_derivative, lie_derivative_fd_oracle, variance_about
from .measures import ParticleMeasure, barycenter
from .rng import default_rng
from .scenarios import ScenarioSpec, run_hk

SUITES = ("constraints", "conservation", "oracle", "dissipativity", "all")


def _random_particles(rng) -> ParticleMeasure:
    """2 to 50 atoms on [-5, 5] with random weights."""
    n = int(rng.integers(2, 51))
    x = rng.uniform(-5.0, 5.0, n)
    w = rng.uniform(0.1, 1.0, n)
    return ParticleMeasure(x[:, None], w / w.sum())


def suite_oracle() -> list:
    """Closed-form rate of the variance vs the finite-difference oracle."""
    rng = default_rng(0)
    V = variance_about(0.0, radius=6.0)
    hk = HKKernel(0.05).interaction()
    worst = 0.0
    for _ in range(100):
        mu = _random_particles(rng)
        if rng.random() < 0.5:
            field = nonlocal_field(hk, mu)
        else:
            a = rng.uniform(-5.0, 4.0)
            b = a + rng.uniform(0.0, 1.0)
            eta = rng.uniform(0.05, 0.5)
            sgn = (-1.0, 1.0)[rng.integers(0, 2)]
            field = (lambda x, a=a, b=b, eta=eta, sgn=sgn:
                     sgn * bump_1d(a, b, eta, x))
        exact = lie_derivative(V, field, mu)
        approx = lie_derivative_fd_oracle(V, field, mu, tau=1e-4)
        rel = abs(exact - approx) / max(abs(exact), 1e-10)
        worst = max(worst, rel)
    ok = worst <= 1e-5
    return [("lie-derivative oracle (rel 1e-5, 100 pairs)", ok,
             f"worst rel err {worst:.2e}")]


def suite_dissipativity() -> list:
    """Non-positivity of the drift rate and the two-atom closed form."""
    rng = default_rng(1)
    hk = HKKernel(0.05)
    kern = hk.interaction()
    V = variance_about(0.0, radius=6.0)
    worst_pos = -np.inf
    for _ in range(100):
        mu = _random_particles(rng)
        lf = lie_derivative(V, nonlocal_field(kern, mu), mu)
        worst_pos = max(worst_pos, lf)
    rows = [("drift rate of variance <= 0 (randomized)", worst_pos <= 1e-12,
             f"max rate {worst_pos:.2e}")]
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-5.0, 5.0, 2)
        mu = ParticleMeasure(np.array([[x], [y]]), np.array([0.5, 0.5]))
        closed = -0.5 * float(hk.phi(x - y)) * (x - y) ** 2
        fd = lie_derivative_fd_oracle(V, nonlocal_field(kern, mu), mu, tau=1e-4)
        worst = max(worst, abs(closed - fd) / max(abs(closed), 1e-10))
    rows.append(("two-atom closed form vs oracle (rel 1e-5)", worst <= 1e-5,
                 f"worst rel err {worst:.2e}"))
    return rows


def suite_conservation() -> list:
    """Mass, positivity, barycenter and support along a short drift run."""
    spec = ScenarioSpec(name="conservation-probe", seed=2, t_end=2.0,
                        snapshot_every=0.5)
    log, _ = run_hk(spec)
    mass = log.column("mass")
    rows = [("mass conserved to 1e-12", bool(np.max(np.abs(mass - 1.0)) <= 1e-12),
             f"max |mass-1| {np.max(np.abs(mass - 1.0)):.2e}")]
    neg = min(float(m.cell_mass.min() / m.dx) for _, m in log.snapshots)
    rows.append(("densities >= -1e-14", neg >= -1e-14, f"min density {neg:.2e}"))
    # the HK kernel is odd, so the drift conserves the barycenter
    b0 = barycenter(log.snapshots[0][1])
    drift = max(abs(barycenter(m) - b0) for _, m in log.snapshots)
    rows.append(("barycenter conserved to 1e-12", drift <= 1e-12,
                 f"max |shift| {drift:.2e}"))
    lo, hi = log.column("supp_lo"), log.column("supp_hi")
    R = log.meta["radius"]
    ok = bool(np.all(lo >= -R - 1e-9) and np.all(hi <= R + 1e-9))
    rows.append(("support inside B(0,R)", ok,
                 f"range [{lo.min():.3g}, {hi.max():.3g}], R={R}"))
    return rows


def audit_constraints_log(t, a, b, eta, sign, c: float, kappa: float) -> list:
    """Re-check the control constraints from logged trajectory columns."""
    active = ~np.isnan(eta)
    rows = []
    if not active.any():
        return [("control constraints (no active steps)", True, "controller idle")]
    # tolerance covers the %.12g round-trip through the CSV
    vol = (b[active] - a[active]) + 2.0 * eta[active]
    rows.append(("|omega| <= c", bool(np.all(vol <= c + 1e-9)),
                 f"max |omega| {vol.max():.6g} vs c={c}"))
    rows.append(("||u||_inf <= 1", bool(np.all(np.isin(sign[active], (-1.0, 1.0)))),
                 "bump amplitude is the sign, |sign| = 1"))
    lip = 1.0 / eta[active]
    bound = kappa * (1.0 + t[active])
    rows.append(("Lip(u) = 1/eta <= kappa*(1+t)",
                 bool(np.all(lip <= bound + 1e-9)),
                 f"max excess {np.max(lip - bound):.2e}"))
    return rows


def suite_constraints(run_dir: Optional[Path] = None) -> list:
    """Audit the control constraints, from a controlled run's directory or a
    fresh short run."""
    if run_dir is not None:
        run_dir = Path(run_dir)
        with open(run_dir / "meta.json") as fh:
            ctrl = json.load(fh)["spec"]["controller"]
        if ctrl is None:
            raise ValueError(f"{run_dir} is a run without a controller; "
                             "the constraints suite audits controlled runs")
        log = np.genfromtxt(run_dir / "trajectory.csv", delimiter=",", names=True)
        return audit_constraints_log(
            log["t"], log["control_a"], log["control_b"], log["control_eta"],
            log["control_sign"], c=ctrl["c"], kappa=ctrl["kappa"])
    spec = ScenarioSpec.builtin("hk_ctrl_h05").apply_overrides(t_end=5.0)
    log, _ = run_hk(spec)
    rows = audit_constraints_log(log.t, log.column("control_a"),
                                 log.column("control_b"),
                                 log.column("control_eta"),
                                 log.column("control_sign"),
                                 c=spec.controller["c"],
                                 kappa=spec.controller["kappa"])
    # the controller skips a strict search only where U settles the decision;
    # that is sound only while no search finds a bump steeper than U
    gaps = log.ceiling_gaps
    worst = max(gaps, default=float("nan"))
    rows.append(("strict search best <= ceiling U", bool(gaps) and worst <= 0.0,
                 f"max best - U {worst:.2e} over {len(gaps)} strict searches"))
    return rows


def run_suite(name: str, run_dir: Optional[Path] = None) -> list:
    if run_dir is not None and name not in ("constraints", "all"):
        raise ValueError("--run-dir is read by the constraints and all suites only")
    if name == "oracle":
        return suite_oracle()
    if name == "dissipativity":
        return suite_dissipativity()
    if name == "conservation":
        return suite_conservation()
    if name == "constraints":
        return suite_constraints(run_dir)
    if name == "all":
        return suite_constraints(run_dir) + [row for n in SUITES[1:-1] for row in run_suite(n)]
    raise KeyError(f"unknown suite {name!r}")
