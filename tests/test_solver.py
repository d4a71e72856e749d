import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfjq import kernels, lyapunov, measures, solver
from mfjq.controller import ControllerState
from mfjq.kernels import HKKernel, ball_cutoff
from mfjq.lyapunov import variance_about
from mfjq.measures import (GridMeasure, ParticleMeasure, SupportBall, as_atoms,
                           barycenter, total_mass, wasserstein_1d)
from mfjq.scenarios import ScenarioSpec, make_initial_measure, run_hk
from mfjq.solver import (CSV_COLUMNS, SolverConfig,
                         SupportEscapeError, TrajectoryLog, check_linf_bound,
                         evolve, stencil_velocity, step_grid, step_particles)
from mfjq.verify import audit_constraints_log

from helpers import stability_probe


def grid_uniform(lo, hi, n=200, x_min=-6.0, x_max=6.0):
    return GridMeasure.uniform(lo, hi, x_min, x_max, n)


class TestStepGrid:
    def test_zero_field_is_identity(self):
        mu = grid_uniform(-1, 1)
        out = step_grid(mu, np.zeros(mu.n_cells + 1), 0.1)
        np.testing.assert_array_equal(out.cell_mass, mu.cell_mass)

    @given(seed=st.integers(0, 2000), v0=st.floats(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_mass_conserved(self, seed, v0):
        rng = np.random.default_rng(seed)
        m = rng.random(100)
        m[:20] = 0.0
        m[-20:] = 0.0
        mu = GridMeasure(-5.0, 5.0, m / m.sum())
        out = step_grid(mu, v0 * np.cos(mu.edges), 0.05)
        assert total_mass(out) == pytest.approx(1.0, abs=1e-12)
        assert out.cell_mass.min() >= -1e-14

    def test_cfl_substepping(self):
        # |v| dt / dx = 10: a single explicit step would go unstable
        mu = grid_uniform(-1, 1, n=120)
        out = step_grid(mu, np.full_like(mu.edges, 5.0), 0.2)
        assert total_mass(out) == pytest.approx(1.0, abs=1e-12)
        assert out.cell_mass.min() >= -1e-14

    def test_constant_advection_moves_barycenter(self):
        mu = grid_uniform(-1, 1, n=400)
        v = 0.5
        out = mu
        for _ in range(10):
            out = step_grid(out, np.full_like(out.edges, v), 0.01)
        xb = float(np.dot(out.centers, out.cell_mass))
        assert xb == pytest.approx(v * 0.1, abs=2 * out.dx)

    def test_bad_edge_shape(self):
        mu = grid_uniform(-1, 1)
        with pytest.raises(ValueError):
            step_grid(mu, np.zeros(3), 0.1)

    @pytest.mark.parametrize("taps, cut_cells", [
        pytest.param(np.zeros((3, 3)), 200, id="taps-not-1d"),
        pytest.param(np.zeros(4), 200, id="taps-even-length"),
        pytest.param(np.zeros(0), 200, id="taps-empty"),
        pytest.param(np.zeros(3), 199, id="cutoff-short"),
        pytest.param(np.zeros(3), 201, id="cutoff-long"),
    ])
    def test_bad_drift_stencil(self, taps, cut_cells):
        mu = grid_uniform(-1, 1)
        with pytest.raises(ValueError):
            step_grid(mu, np.zeros(mu.n_cells + 1), 0.1,
                      drift=(taps, np.ones(cut_cells)))


HK = HKKernel(0.05).interaction()


def hk_drift(mu):
    """The HK stencil on mu's grid, with no cutoff (odd taps)."""
    return HK.grid_stencil(mu.dx, mu.n_cells), np.ones(mu.n_cells)


class TestStencilVelocity:
    """The banded drift against the dense matrix it replaces."""

    @given(seed=st.integers(0, 10_000), cells=st.integers(1, 3000),
           eps=st.sampled_from([0.05, 0.2, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_matrix(self, seed, cells, eps):
        # half-widths from 0.5 put the whole grid inside one band; up to
        # 12 make the band a few cells wide.  The two differ where c_j - c_i
        # rounds differently from (j - i) dx, which the ramp amplifies by
        # 1 / eps; the masses are spread so that no single cell on the ramp
        # carries a large share of that roundoff
        rng = np.random.default_rng(seed)
        half = float(rng.uniform(0.5, 12.0))
        m = rng.random(cells) * (rng.random(cells) < 0.7)
        mu = GridMeasure(-half, half, m / m.sum() if m.any() else np.full(cells, 1 / cells))
        c = mu.centers
        kern = HKKernel(eps).interaction()
        cut = ball_cutoff(c, SupportBall(half))
        v = stencil_velocity(mu.cell_mass, kern.grid_stencil(mu.dx, cells), cut)
        dense = cut * (kern.field_matrix(c, c) @ mu.cell_mass)
        assert np.abs(v - dense).max() <= 1e-14

    @given(dx=st.floats(1e-3, 2.0), cells=st.integers(1, 3000),
           eps=st.floats(1e-3, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_taps_exactly_odd(self, dx, cells, eps):
        k = HKKernel(eps).interaction().grid_stencil(dx, cells)
        assert k.ndim == 1 and k.size % 2 == 1 and k.size <= 2 * cells - 1
        assert (k[::-1] == -k).all()
        assert k.size == 1 or (k[0] != 0.0 and k[-1] != 0.0)

    @given(seed=st.integers(0, 10_000), cells=st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_first_moment_at_roundoff(self, seed, cells):
        rng = np.random.default_rng(seed)
        half = float(rng.uniform(0.5, 12.0))
        m = rng.random(cells)
        m /= m.sum()
        v = stencil_velocity(m, HK.grid_stencil(2.0 * half / cells, cells), np.ones(cells))
        assert abs(np.dot(m, v)) <= 1e-15


class TestDriftTransport:
    def test_zero_drift_is_identity(self):
        mu = grid_uniform(-1, 1)
        out = step_grid(mu, np.zeros(mu.n_cells + 1), 0.1,
                        drift=(np.zeros(3), np.ones(mu.n_cells)))
        np.testing.assert_array_equal(out.cell_mass, mu.cell_mass)
        np.testing.assert_array_equal(out.offset, mu.offset)

    def test_drift_is_keyword_only(self):
        # a fourth positional argument once was the CFL number
        mu = grid_uniform(-1, 1)
        with pytest.raises(TypeError):
            step_grid(mu, np.zeros(mu.n_cells + 1), 0.1, hk_drift(mu))

    @given(seed=st.integers(0, 2000), dt=st.floats(0.01, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_mass_positivity_barycenter(self, seed, dt):
        # dt up to 0.5 forces CFL sub-steps (|v| dt / dx up to 5)
        rng = np.random.default_rng(seed)
        m = rng.random(100) * (rng.random(100) < 0.5)
        m[:25] = 0.0
        m[-25:] = 0.0
        mu = GridMeasure(-3.0, 3.0, m / m.sum())
        drift = hk_drift(mu)
        out = mu
        for _ in range(5):
            out = step_grid(out, np.zeros(mu.n_cells + 1), dt, drift=drift)
        assert total_mass(out) == pytest.approx(1.0, abs=1e-12)
        assert out.cell_mass.min() >= 0.0
        assert np.all(np.abs(out.offset) <= 0.5)
        assert abs(barycenter(out) - barycenter(mu)) <= 1e-13

    def test_split_cluster_stays_put(self):
        # a collapsed cluster split unevenly over two cells must keep its
        # barycenter: an upwind flux at the shared face would drain the light
        # cell into the heavy one and pull the centre to the heavy midpoint
        m = np.zeros(40)
        m[20], m[21] = 0.016, 0.233
        mu = GridMeasure(0.0, 2.4, m / m.sum())
        b0 = barycenter(mu)
        out = mu
        for _ in range(2000):
            out = step_grid(out, np.zeros(41), 0.01, drift=hk_drift(mu))
        assert abs(barycenter(out) - b0) <= 1e-13
        assert np.count_nonzero(out.cell_mass) <= 2


class TestStepParticles:
    def test_rk4_exponential_decay(self):
        mu = ParticleMeasure.dirac(1.0)
        out = mu
        for _ in range(100):
            out = step_particles(out, lambda x: -x, 0.01)
        assert out.x[0] == pytest.approx(np.exp(-1.0), rel=1e-8)

    def test_weights_untouched(self):
        w = np.array([0.25, 0.75])
        mu = ParticleMeasure(np.array([[0.0], [1.0]]), w)
        out = step_particles(mu, lambda x: np.ones_like(x), 0.1)
        np.testing.assert_array_equal(out.weights, w)


class TestEvolve:
    def test_single_atom_stationary(self):
        mu = ParticleMeasure.dirac(2.0)
        f = HKKernel(0.05).interaction()
        cfg = SolverConfig(dt=0.05, t_end=1.0, snapshot_every=0.5)
        log = evolve(mu, f, cfg, SupportBall(6.0), variance_about(0.0))
        final = log.snapshots[-1][1]
        assert final.x[0] == pytest.approx(2.0, abs=1e-12)

    def test_far_apart_bumps_decouple(self):
        """Two bumps farther apart than the confidence radius evolve as if alone."""
        kern = HKKernel(0.05).interaction()
        V = variance_about(0.0)
        ball = SupportBall(8.0)
        cfg = SolverConfig(dt=0.01, t_end=2.0, snapshot_every=2.0)

        def two_bump(n=320):
            e = np.linspace(-6.0, 6.0, n + 1)
            ov1 = np.clip(np.minimum(e[1:], -2.5) - np.maximum(e[:-1], -3.5), 0, None)
            ov2 = np.clip(np.minimum(e[1:], 3.5) - np.maximum(e[:-1], 2.5), 0, None)
            m = ov1 + ov2
            return GridMeasure(-6.0, 6.0, m / m.sum())

        log = evolve(two_bump(), kern, cfg, ball, V)
        v = log.V
        # V plateaus at a positive value: each bump contracts internally but
        # the bump separation (the dominant variance term) is conserved
        assert v[-1] > 1.0
        assert abs(v[-1] - v[-2]) < 1e-3
        # decoupling: each half keeps its mass exactly
        final = log.snapshots[-1][1]
        left = final.cell_mass[final.centers < 0].sum()
        assert left == pytest.approx(0.5, abs=1e-12)

    def test_hk_barycenter_conserved(self):
        """The HK kernel is odd, so the drift keeps sum x dmu fixed."""
        mu = make_initial_measure(ScenarioSpec.builtin("hk_free"))
        f = HKKernel(0.05).interaction()
        cfg = SolverConfig(dt=0.01, t_end=50.0, snapshot_every=5.0)
        log = evolve(mu, f, cfg, SupportBall(12.0), variance_about(5.0))
        assert len(log.snapshots) == 11
        for _, snap in log.snapshots:
            assert abs(barycenter(snap) - barycenter(mu)) <= 1e-12

    def test_on_snapshot_streams_snapshots(self):
        mu = grid_uniform(-2, 2, n=80)
        f = HKKernel(0.05).interaction()
        ball, V = SupportBall(6.0), variance_about(0.0)
        cfg = SolverConfig(dt=0.02, t_end=0.5, snapshot_every=0.2)
        kept = evolve(mu, f, cfg, ball, V)
        streamed = []
        log = evolve(mu, f, cfg, ball, V,
                     on_snapshot=lambda t, snap: streamed.append((t, snap)))
        assert log.snapshots == []
        assert [t for t, _ in streamed] == [t for t, _ in kept.snapshots]
        assert [t for t, _ in streamed] == pytest.approx([0.0, 0.2, 0.4])
        for (_, a), (_, b) in zip(streamed, kept.snapshots):
            np.testing.assert_array_equal(a.cell_mass, b.cell_mass)
        # t_end = 0.5 is no snapshot time, yet log.final is the measure there
        at_end = evolve(mu, f, SolverConfig(dt=0.02, t_end=0.5, snapshot_every=0.5),
                        ball, V).snapshots[-1]
        assert at_end[0] == pytest.approx(0.5)
        for final in (log.final, kept.final):
            np.testing.assert_array_equal(final.cell_mass, at_end[1].cell_mass)

    def test_mass_and_positivity_along_run(self):
        mu = grid_uniform(-2, 2, n=160)
        f = HKKernel(0.05).interaction()
        cfg = SolverConfig(dt=0.02, t_end=1.0, snapshot_every=0.2)
        log = evolve(mu, f, cfg, SupportBall(6.0), variance_about(0.0))
        mass = log.column("mass")
        assert np.max(np.abs(mass - 1.0)) <= 1e-12
        for _, snap in log.snapshots:
            assert snap.cell_mass.min() >= -1e-14

    def test_support_escape_raises(self):
        # the field tapers to 0 on [0.9, 1], but one RK4 step of 0.5 from
        # x = 0.9 averages the stages 1, 0, 1, 0 and overshoots to 1.15
        mu = ParticleMeasure.dirac(0.9)
        cfg = SolverConfig(dt=0.5, t_end=1.0)
        with pytest.raises(SupportEscapeError):
            evolve(mu, None, cfg, SupportBall(1.0), variance_about(0.0),
                   prescribed_control=lambda t: (lambda x: np.ones_like(x)))

    def test_prescribed_control_grid(self):
        mu = grid_uniform(-1, 1, n=240)
        cfg = SolverConfig(dt=0.01, t_end=0.5, snapshot_every=0.5)
        log = evolve(mu, None, cfg, SupportBall(6.0), variance_about(0.0),
                     prescribed_control=lambda t: (lambda x: -np.sign(x)))
        assert log.V[-1] < log.V[0]

    def test_feedback_on_particles(self):
        # the controller drives the particle backend through the same loop
        rng = np.random.default_rng(0)
        mu = ParticleMeasure(rng.uniform(0.0, 10.0, 60), np.full(60, 1.0 / 60))
        state = ControllerState(c=2.0, h=0.5, radius=12.0, kappa=0.8, eta_floor=0.12)
        cfg = SolverConfig(dt=0.01, t_end=3.0)
        log = evolve(mu, HKKernel(0.05).interaction(), cfg, SupportBall(12.0),
                     variance_about(barycenter(mu)), controller=state)
        audit = audit_constraints_log(
            log.t, log.column("control_a"), log.column("control_b"),
            log.column("control_eta"), log.column("control_sign"), c=2.0, kappa=0.8)
        assert all(ok for _, ok, _ in audit), audit
        assert log.n_switches >= 1
        assert log.V[-1] < log.V[0]

    def test_feedback_and_prescribed_gain_exclude_each_other(self):
        state = ControllerState(c=2.0, h=0.5, radius=1.0, kappa=0.8, eta_floor=0.12)
        with pytest.raises(ValueError, match="not both"):
            evolve(ParticleMeasure.dirac(0.0), None, SolverConfig(dt=0.1, t_end=0.2),
                   SupportBall(1.0), variance_about(0.0), controller=state,
                   prescribed_control=lambda t: (lambda x: np.ones_like(x)))

    def test_meta_constants_count_the_control_kernel_only_under_control(self):
        """L and M run over the drift kernel, and over the constant control
        kernel (L = 0, M = 1) when a control acts."""
        mu, cfg = ParticleMeasure.dirac(0.0), SolverConfig(dt=0.1, t_end=0.2)
        ball, V = SupportBall(1.0), variance_about(0.0)
        f = HKKernel(0.05).interaction()
        gain = lambda t: (lambda x: np.zeros_like(x))  # noqa: E731
        metas = [evolve(mu, kern, cfg, ball, V, prescribed_control=u).meta
                 for kern, u in ((None, None), (None, gain), (f, None), (f, gain))]
        assert [(m["L"], m["M"]) for m in metas] == [
            (0.0, 0.0), (0.0, 1.0), (f.lipschitz_L, f.bound_M), (f.lipschitz_L, f.bound_M)]

    def test_one_atomization_per_grid_step(self, monkeypatch):
        """A controlled grid step forms its atoms once: the control field, the
        controller and the logged V all read the same two arrays."""
        calls = []

        def counted(mu):
            calls.append(mu)
            return as_atoms(mu)

        # the controller takes atoms and has no as_atoms of its own
        for module in (measures, kernels, lyapunov, solver):
            monkeypatch.setattr(module, "as_atoms", counted)
        # the queries before t = 1.5 have nothing strictly admissible; the
        # controller enters at t = 1.5
        spec = ScenarioSpec.builtin("hk_ctrl_h05").apply_overrides(t_end=2.0, cells=100)
        log, _ = run_hk(spec)
        assert log.perf["idle_queries_skipped"] == 150 and log.n_switches > 0
        # one per step, t = 0 to 2, and one for the barycenter V is centred at
        assert len(calls) == 201 + 1


    def test_one_atomization_per_particle_step(self, monkeypatch):
        """A controlled particle step reads its particles as the step's atoms:
        the fields, the controller and the logged V make no as_atoms call."""
        rng = np.random.default_rng(0)
        mu = ParticleMeasure(rng.uniform(0.0, 10.0, 60), np.full(60, 1.0 / 60))
        state = ControllerState(c=2.0, h=0.5, radius=12.0, kappa=0.8, eta_floor=0.12)
        V = variance_about(barycenter(mu))
        calls = []

        def counted(mu):
            calls.append(mu)
            return as_atoms(mu)

        for module in (measures, kernels, lyapunov, solver):
            monkeypatch.setattr(module, "as_atoms", counted)
        log = evolve(mu, HKKernel(0.05).interaction(), SolverConfig(dt=0.01, t_end=2.0),
                     SupportBall(12.0), V, controller=state)
        # the queries before t = 1.5 are skipped; the controller enters at t = 1.5
        assert log.perf["idle_queries_skipped"] == 150 and log.n_switches > 0
        assert calls == []


class TestTrajectoryLog:
    def test_csv_columns(self, tmp_path):
        log = TrajectoryLog(dt=0.1, dx=0.05)
        log.append(0.0, 1.0, 0.0, None, 1.0, 2.0, -1.0, 1.0)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("t,V,slope,control_a,control_b,control_eta,"
                          "control_sign,mass,sup_norm,supp_lo,supp_hi")

    def test_column_access(self):
        log = TrajectoryLog(dt=0.1, dx=0.05)
        log.append(0.0, 3.0, 0.0, None, 1.0, 2.0, -1.0, 1.0)
        log.append(0.1, 2.5, 0.0, None, 1.0, 2.0, -1.0, 1.0)
        np.testing.assert_allclose(log.t, [0.0, 0.1])
        np.testing.assert_allclose(log.V, [3.0, 2.5])
        assert log.n_switches == 0

    def test_rows_cost_at_most_two_float_rows_each(self):
        """A logged step is kept as one float64 row in a buffer that at most
        doubles, where a tuple of Python floats takes about 280 B.  The row
        holds the 11 CSV columns and div_sup; at 5,000 rows the buffer holds
        8,192, 157 B per row, under 2 x 11 x 8 B."""
        n = 5000
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            log = TrajectoryLog(dt=0.1, dx=0.05)
            for k in range(n):
                log.append(0.1 * k, 1.0 / (k + 1), -0.5 * k, None, 1.0 + k * 1e-16,
                           2.0 + k, -1.0 - k, 1.0 + k)
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            if started:
                tracemalloc.stop()
        assert len(log.rows) == n and log.column("supp_hi")[-1] == n
        assert grown <= 2 * len(CSV_COLUMNS) * 8 * n, grown / n


class TestLinfBound:
    def run_with_field(self, field_fn, t_end=1.0, n=200):
        mu = grid_uniform(-1, 1, n=n)
        cfg = SolverConfig(dt=0.005, t_end=t_end, snapshot_every=t_end)
        return evolve(mu, None, cfg, SupportBall(6.0), variance_about(0.0),
                      prescribed_control=lambda t: field_fn)

    def test_zero_field_constant_sup(self):
        log = self.run_with_field(lambda x: np.zeros_like(x))
        rep = check_linf_bound(log)
        assert rep["ok"], rep
        sup = log.column("sup_norm")
        np.testing.assert_allclose(sup, sup[0])

    def test_divergence_free_nonincreasing(self):
        log = self.run_with_field(lambda x: np.full_like(x, 0.5))
        rep = check_linf_bound(log)
        assert rep["ok"], rep
        sup = log.column("sup_norm")
        assert sup[-1] <= sup[0] * (1.0 + 1e-9)

    def test_compressive_field_growth(self):
        # v = -x compresses: density grows like e^t, and the per-step
        # Gronwall inequality must absorb it
        log = self.run_with_field(lambda x: -np.asarray(x), t_end=1.0)
        rep = check_linf_bound(log)
        assert rep["ok"], rep
        sup = log.column("sup_norm")
        growth = sup[-1] / sup[0]
        assert growth <= np.e * (1.0 + 5 * (log.dx + log.dt))
        assert growth > 1.5  # it really does grow

    def test_violations_match_scalar_loop(self):
        """Each row whose sup-norm outgrows its Gronwall step is reported as
        (t, sup, bound), as a loop over the rows finds them; a NaN divergence
        bound reports nothing."""
        log = TrajectoryLog(dt=0.01, dx=0.01)
        sups = [1.0, 1.2, 1.1, 3.0, 2.9, 3.5, 4.0, 0.5]
        divs = [0.0, 1.0, 25.0, 0.0, float("nan"), 0.0, 2.0, 0.0]
        for k, (sup_k, div_k) in enumerate(zip(sups, divs)):
            log.append(0.01 * k, 1.0, 0.0, None, 1.0, sup_k, -1.0, 1.0, div_k)
        t, sup, div = log.t, log.column("sup_norm"), log.column("div_sup")
        slack = 5.0 * (log.dx + log.dt)
        expected = []
        for k in range(len(sup) - 1):
            bound = sup[k] * (1.0 + (t[k + 1] - t[k]) * div[k]) * (1.0 + slack)
            if sup[k + 1] > bound:
                expected.append((float(t[k + 1]), float(sup[k + 1]), float(bound)))
        rep = check_linf_bound(log)
        assert len(expected) == 3 and rep["violations"] == expected
        assert all(type(v) is float for row in rep["violations"] for v in row)
        # with L = M = 0 the global bound is sup[0], which the run exceeds
        assert not rep["ok"] and not rep["global_bound_ok"] and rep["slack"] == slack


class TestStabilityProbe:
    def test_close_data_stay_close(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 60)
        w = np.full(60, 1.0 / 60)
        mu = ParticleMeasure(x[:, None], w)
        nu = ParticleMeasure((x + 1e-3)[:, None], w)
        f = HKKernel(0.05).interaction()
        cfg = SolverConfig(dt=0.02, t_end=2.0, snapshot_every=0.25)
        rep = stability_probe(mu, nu, f, cfg, SupportBall(6.0),
                              variance_about(0.0))
        assert np.isfinite(rep["rate"])
        assert 0.0 <= rep["r_squared"] <= 1.0 + 1e-12
        # Gronwall-type bound with the declared Lipschitz constant
        L = HKKernel(0.05).interaction().lipschitz_L
        assert np.all(rep["w1"] <= 1e-3 * np.exp(3.0 * L * rep["t"]) + 1e-12)

    def test_needs_snapshots(self):
        mu = ParticleMeasure.dirac(0.0)
        cfg = SolverConfig(dt=0.1, t_end=0.2)
        with pytest.raises(ValueError):
            stability_probe(mu, mu, None, cfg, SupportBall(1.0),
                            variance_about(0.0))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    bad = [(dict(dt=-0.1, t_end=1.0), "dt must be positive"),
           (dict(dt=float("nan"), t_end=1.0), "dt must be positive"),
           (dict(dt=0.01, t_end=-1.0), "shorter than one step"),
           (dict(dt=0.01, t_end=0.005), "shorter than one step"),
           (dict(dt=0.01, t_end=0.015), "not a whole number of steps"),
           (dict(dt=0.01, t_end=float("inf")), "not a whole number of steps"),
           (dict(dt=0.01, t_end=float("nan")), "not a whole number of steps"),
           (dict(dt=0.01, t_end=1.0, log_every=0), "log_every must be an integer >= 1"),
           (dict(dt=0.01, t_end=1.0, log_every=2.0), "log_every must be an integer >= 1"),
           (dict(dt=0.01, t_end=1.0, log_every=True), "log_every must be an integer >= 1")]
    bad += [(dict(dt=0.01, t_end=1.0, snapshot_every=v), "snapshot_every must be null or a finite")
            for v in (0, -1, float("nan"), float("inf"), True)]
    for kw, message in bad:
        with pytest.raises(ValueError, match=message):
            SolverConfig(**kw)
    SolverConfig(dt=0.01, t_end=1.0, snapshot_every=np.float64(0.5))  # a numpy float is a number
    # whole up to roundoff: 0.3 / 0.1 is 2.9999999999999996
    cfg = SolverConfig(dt=0.1, t_end=0.3, log_every=2)
    log = evolve(ParticleMeasure.dirac(0.0), None, cfg,
                 SupportBall(1.0), variance_about(0.0))
    assert log.t.tolist() == [0.0, 0.2, 0.30000000000000004]
