"""Outcome-level acceptance checks for the full desk-scale experiments.

Each test prints a single PASS/FAIL line straight to the terminal (past
pytest's capture). The heavyweight runs (the hysteresis sweep, the free run,
the concentration demo) are session fixtures shared across tests.
"""
import time

import numpy as np
import pytest

from mfjq.cli import main as cli_main
from mfjq.controller import ControllerState, SlopeEvaluator, decide_multi
from mfjq.kernels import HKKernel, nonlocal_field
from mfjq.lyapunov import (lie_derivative, lie_derivative_fd_oracle,
                           variance_about)
from mfjq.measures import (GridMeasure, ParticleMeasure, as_atoms,
                           wasserstein_1d)
from mfjq.scenarios import ScenarioSpec, run_concentration_demo, run_hk
from mfjq.solver import SolverConfig, check_linf_bound
from mfjq.measures import SupportBall

from helpers import slope, stability_probe, translate
from test_measures import wasserstein_lp


@pytest.fixture
def report(capsys):
    """Emit one `[criterion N] PASS/FAIL` line past pytest's capture."""
    def _report(n, ok, detail):
        with capsys.disabled():
            print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}  {detail}",
                  flush=True)
        assert ok, f"criterion {n}: {detail}"
    return _report


@pytest.fixture(scope="session")
def sweep():
    """The three controlled fixed-seed runs, keyed by hysteresis value."""
    out = {}
    for h, name in ((0.2, "hk_ctrl_h02"), (0.5, "hk_ctrl_h05"),
                    (0.9, "hk_ctrl_h09")):
        spec = ScenarioSpec.builtin(name)
        t0 = time.perf_counter()
        log, rep = run_hk(spec)
        out[h] = dict(spec=spec, log=log, report=rep,
                      wall=time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def free_run():
    spec = ScenarioSpec.builtin("hk_free")
    log, rep = run_hk(spec)
    return dict(spec=spec, log=log, report=rep)


@pytest.fixture(scope="session")
def concentration():
    log, rep = run_concentration_demo(ScenarioSpec.builtin("concentration"))
    return dict(log=log, report=rep)


def test_criterion_1_consensus_reproduction(sweep, report):
    details = []
    ok = True
    for h, run in sweep.items():
        spec, log = run["spec"], run["log"]
        assert spec.n_cells == 400 and spec.dt == 0.01
        assert spec.epsilon == 0.05 and spec.controller["c"] == 2.0
        assert log.t[-1] == pytest.approx(100.0)
        ratio = log.V[-1] / log.V[0]
        ok &= ratio < 0.01 and run["wall"] < 60.0
        details.append(f"h={h}: V(100)/V(0)={ratio:.2e}, {run['wall']:.0f}s")
    report(1, ok, "; ".join(details))


def test_criterion_2_clustering_reproduction(free_run, report):
    rep, log = free_run["report"], free_run["log"]
    # barycenter drift of each cluster over the final 10 time units
    from mfjq.scenarios import detect_clusters
    snaps = {t: mu for t, mu in log.snapshots}
    eps = free_run["spec"].epsilon
    floor = free_run["spec"].cluster_mass_floor
    final = detect_clusters(snaps[50.0], gap=1.0 + eps, floor=floor)
    drifts = []
    for cl in final.clusters:
        d = 0.0
        for t in (40.0, 45.0):
            earlier = detect_clusters(snaps[t], gap=1.0 + eps, floor=floor)
            nearest = min(earlier.clusters, key=lambda c: abs(c.center - cl.center))
            d = max(d, abs(nearest.center - cl.center))
        drifts.append((cl.mass, d))
    drift = max(d for _, d in drifts)
    detail = ", ".join(f"mass {m:.2f}: {d:.1e}" for m, d in drifts)
    ok = (rep.n_clusters >= 2 and not rep.consensus and drift < 1e-3)
    report(2, ok, f"{rep.n_clusters} clusters, consensus={rep.consensus}; "
                  f"barycenter drift per cluster [{detail}]")


def test_criterion_3_lyapunov_monotone(sweep, report):
    ok = True
    details = []
    for h, run in sweep.items():
        log = run["log"]
        allowance = 10.0 * log.dx * log.dt
        worst = float(np.diff(log.V).max())
        ok &= worst <= allowance
        details.append(f"h={h}: max dV={worst:.1e} (allowance {allowance:.1e})")
    report(3, ok, "; ".join(details))


def test_criterion_4_control_constraints(sweep, report):
    ok = True
    worst = []
    for h, run in sweep.items():
        log = run["log"]
        t = log.t
        eta = log.column("control_eta")
        vol = log.column("control_b") - log.column("control_a") + 2.0 * eta
        sign = log.column("control_sign")
        active = ~np.isnan(eta)
        c = run["spec"].controller["c"]
        ok &= bool(np.all(vol[active] <= c + 1e-12))
        ok &= bool(np.all(np.isin(sign[active], (-1.0, 1.0))))
        ok &= bool(np.all(1.0 / eta[active] <= 1.0 + t[active] + 1e-9))
        worst.append(f"h={h}: max|omega|={np.nanmax(vol):.6g}")
    # multi-field: at most one field active at any decision
    V = variance_about(0.0)
    state = ControllerState(c=2.0, h=0.5, radius=10.0)
    mu = ParticleMeasure(np.array([[3.0], [-2.0]]), np.array([0.6, 0.4]))
    g1 = lambda x: np.ones_like(np.asarray(x, dtype=float))
    g2 = lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float))
    dec, _ = decide_multi(10.0, as_atoms(mu), state, (g1, g2), V)
    ok &= dec.control is not None and dec.control.field_index in (0, 1)
    report(4, ok, "; ".join(worst) + "; one active field per decision")


def test_criterion_5_two_dirac_dissipativity(report):
    rng = np.random.default_rng(0)
    hk = HKKernel(0.05)
    kern = hk.interaction()
    V = variance_about(0.0)
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-5.0, 5.0, 2)
        mu = ParticleMeasure(np.array([[x], [y]]), np.array([0.5, 0.5]))
        closed = -0.5 * float(hk.phi(x - y)) * (x - y) ** 2
        fd = lie_derivative_fd_oracle(V, nonlocal_field(kern, mu), mu)
        worst = max(worst, abs(closed - fd) / max(abs(closed), 1e-10))
    mu = ParticleMeasure(np.array([[0.5], [-0.5]]), np.array([0.5, 0.5]))
    inst = lie_derivative(V, nonlocal_field(kern, mu), mu)
    ok = worst <= 1e-5 and inst == pytest.approx(-0.5, abs=1e-14)
    report(5, ok, f"worst rel err {worst:.1e}; instance (0.5,-0.5) -> {inst}")


def test_criterion_6_lie_derivative_oracle(report):
    from test_lyapunov import random_field, random_particles
    rng = np.random.default_rng(1)
    V = variance_about(0.0)
    worst = 0.0
    for _ in range(100):
        mu = random_particles(rng, int(rng.integers(2, 51)))
        field = random_field(rng)
        exact = lie_derivative(V, field, mu)
        approx = lie_derivative_fd_oracle(V, field, mu)
        worst = max(worst, abs(exact - approx) / max(abs(exact), 1e-10))
    # homogeneity / additivity of the closed form
    mu = random_particles(rng, 20)
    f1, f2 = random_field(rng), random_field(rng)
    hom = abs(lie_derivative(V, lambda x: 3.7 * np.asarray(f1(x)), mu)
              - 3.7 * lie_derivative(V, f1, mu))
    add = abs(lie_derivative(V, lambda x: np.asarray(f1(x)) + np.asarray(f2(x)), mu)
              - lie_derivative(V, f1, mu) - lie_derivative(V, f2, mu))
    ok = worst <= 1e-5 and hom <= 1e-12 and add <= 1e-10
    report(6, ok, f"worst rel err {worst:.1e}, homogeneity {hom:.1e}, "
                  f"additivity {add:.1e}")


def analytic_slope(a, b, eta):
    """Slope of the variance for the uniform density 1/2 on [-1, 1], g = 1.

    Three clipped terms: left ramp, plateau, right ramp."""

    def seg(lo, hi, F):
        lo, hi = max(lo, -1.0), min(hi, 1.0)
        if hi <= lo:
            return 0.0
        return F(hi) - F(lo)

    t1 = seg(a - eta, a, lambda x: x ** 3 / 3.0 - (a - eta) * x * x / 2.0) / eta
    t2 = seg(a, b, lambda x: x * x / 2.0)
    t3 = seg(b, b + eta, lambda x: (b + eta) * x * x / 2.0 - x ** 3 / 3.0) / eta
    return abs(2.0 * 0.5 * (t1 + t2 + t3))


def test_criterion_7_explicit_slope_formula(report):
    from mfjq.controller import BumpParams

    mu = GridMeasure.uniform(-1.0, 1.0, -1.0, 1.0, 400_000)
    V = variance_about(0.0)
    g = lambda x: np.ones_like(np.asarray(x, dtype=float))
    ev = SlopeEvaluator(as_atoms(mu), g, V)
    worst = 0.0
    for a in np.linspace(-1.4, 1.0, 10):
        for b in np.linspace(-1.0, 1.4, 10):
            if b < a:
                continue
            for eta in np.linspace(0.1, 0.5, 5):
                got = abs(float(ev.signed_batch(a, b, eta)))
                want = analytic_slope(a, b, eta)
                worst = max(worst, abs(got - want))
    # spot check through the helper that atomizes the measure itself
    p = BumpParams(np.array([-0.3]), np.array([0.9]), 0.25)
    direct = slope(mu, g, V, p)
    ok = worst <= 1e-8 and abs(direct - analytic_slope(-0.3, 0.9, 0.25)) <= 1e-8
    report(7, ok, f"worst abs err {worst:.1e} over the (a,b,eta) grid")


def test_criterion_8_conservation_positivity(sweep, free_run, report):
    ok = True
    worst_mass = 0.0
    worst_rho = 0.0
    runs = [free_run] + [sweep[h] for h in sorted(sweep)]
    for run in runs:
        log = run["log"]
        R = run["spec"].radius
        worst_mass = max(worst_mass, float(np.max(np.abs(log.column("mass") - 1.0))))
        for _, mu in log.snapshots:
            worst_rho = min(worst_rho, float(mu.cell_mass.min() / mu.dx))
        lo, hi = log.column("supp_lo"), log.column("supp_hi")
        ok &= bool(np.all(lo >= -R - 1e-9) and np.all(hi <= R + 1e-9))
    ok &= worst_mass <= 1e-12 and worst_rho >= -1e-14
    report(8, ok, f"max |mass-1| {worst_mass:.1e}, min density {worst_rho:.1e}, "
                  f"support contained")


def test_criterion_9_linf_bounds(sweep, free_run, report):
    ok = True
    details = []
    for label, run in [("free", free_run)] + [(f"h={h}", sweep[h])
                                              for h in sorted(sweep)]:
        rep = check_linf_bound(run["log"])
        ok &= rep["ok"]
        details.append(f"{label}: {len(rep['violations'])} violations, "
                       f"global={'ok' if rep['global_bound_ok'] else 'BAD'}")
    report(9, ok, "; ".join(details))


def test_criterion_10_wasserstein_correctness(report):
    rng = np.random.default_rng(2)
    # translation identity
    x = rng.uniform(-3, 3, 40)
    w = rng.uniform(0.1, 1, 40)
    mu = ParticleMeasure(x[:, None], w / w.sum())
    terr = abs(wasserstein_1d(mu, translate(mu, 1.7)) - 1.7)
    # brute-force transport oracle on small atom counts
    worst = 0.0
    for _ in range(20):
        n, m = rng.integers(2, 21, 2)
        xa, xb = rng.uniform(-5, 5, n), rng.uniform(-5, 5, m)
        wa, wb = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
        a = ParticleMeasure(xa[:, None], wa / wa.sum())
        b = ParticleMeasure(xb[:, None], wb / wb.sum())
        worst = max(worst, abs(wasserstein_1d(a, b) - wasserstein_lp(a, b)))
    # stability probe over [0, 5]
    x0 = rng.uniform(-1, 1, 80)
    w0 = np.full(80, 1.0 / 80)
    probe = stability_probe(
        ParticleMeasure(x0[:, None], w0),
        ParticleMeasure((x0 + 5e-4)[:, None], w0),
        HKKernel(0.05).interaction(),
        SolverConfig(dt=0.01, t_end=5.0, snapshot_every=0.5),
        SupportBall(6.0), variance_about(0.0))
    ok = (terr <= 1e-12 and worst <= 1e-10 and np.isfinite(probe["rate"]))
    report(10, ok, f"translation err {terr:.1e}, LP-oracle err {worst:.1e}, "
                   f"fitted W1 growth rate {probe['rate']:.3f} "
                   f"(R^2={probe['r_squared']:.3f})")


def test_criterion_11_concentration_demo(concentration, report):
    rep = concentration["report"]
    c = rep["c"]
    budget_ok = bool(np.all(rep["omega_mass"] <= c + 1e-3))
    window = rep["window_mass"][-1]
    density = rep["left_density"][-1]
    ok = (budget_ok and window >= 0.9 * c and abs(density - 1.0) <= 0.02)
    report(11, ok, f"window mass {window:.3f} (need >= {0.9 * c}), "
                   f"left density {density:.4f}, "
                   f"max budget use {rep['omega_mass'].max():.4f} <= {c}+1e-3")


def test_criterion_12_determinism(tmp_path, report):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["run", "--scenario", "hk_ctrl_h05", "--out", str(out),
                       "--t-end", "3.0"])
        assert rc == 0
        blobs.append((out / "trajectory.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report(12, ok, f"byte-identical reruns ({len(blobs[0])} bytes)")
