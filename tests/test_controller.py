import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfjq import controller, solver
from mfjq.controller import (N_A, N_ETA, N_W, ActiveControl, BumpParams,
                             ControllerState, SlopeEvaluator, bump_1d,
                             decide_multi, search_maximizer, slope_ceiling)
from mfjq.lyapunov import variance_about
from mfjq.measures import GridMeasure, ParticleMeasure, as_atoms
from mfjq.scenarios import ScenarioSpec, run_hk

from helpers import slope


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def random_particles(rng, n, span=5.0, lo=None):
    x = rng.uniform(-span if lo is None else lo, span, n)
    w = rng.uniform(0.1, 1.0, n)
    return ParticleMeasure(x[:, None], w / w.sum())


def full_grid(centers, etas, w_lo, w_hi, c):
    """The search grid as the full product, with the copies its clips make."""
    lo, hi = np.reshape(w_lo, (-1, 1)), np.reshape(w_hi, (-1, 1))
    widths = lo + np.arange(N_W) * ((hi - lo) / (N_W - 1))
    widths[:, -1:] = hi
    widths = np.clip(widths, 0.0, np.maximum(c - 2.0 * etas, 0.0)[:, None])
    shape = (etas.size, centers.size, N_W)
    return (np.broadcast_to(centers[:, None], shape).ravel(),
            np.broadcast_to(widths[:, None, :], shape).ravel(),
            np.broadcast_to(etas[:, None, None], shape).ravel())


def clip_cases(seed):
    """(name, measure, control fields, state, t, strict), one per clip of the grid."""
    rng = np.random.default_rng(seed)
    state = ControllerState(c=2.0, h=0.5, radius=6.0)
    cells = np.where(np.arange(200) < 100, 0.0, rng.random(200))
    grid = GridMeasure(-12.0, 12.0, cells / cells.sum())
    return [
        # mass well right of the centre: the best bump has eta = eta_min and
        # the widest plateau c - 2*eta
        ("caps", random_particles(rng, 40, lo=2.0), (ones,), state, 10.0, False),
        # mass beyond R: the best centre sits at R
        ("edge", random_particles(rng, 40, span=8.0, lo=6.5), (ones,), state, 10.0, False),
        # eta_min = 0.999 just below c/2 = 1: almost every width clips to 0
        ("half", random_particles(rng, 40), (ones,), state, 1.0 / 0.999 - 1.0, False),
        # a grid measure, two fields, strict search with eta_min at its floor
        ("grid", grid, (lambda x: 0.5 * ones(x), ones),
         ControllerState(c=2.0, h=0.5, radius=12.0, kappa=0.8, eta_floor=0.24),
         50.0, True),
    ]


def ungated_decide(t, atoms, state, g_fields, V):
    """(control, switched, reason) of the decision rule with its strict search
    always run."""
    evaluators = [SlopeEvaluator(atoms, g, V) for g in g_fields]

    def enter(reason):
        found = search_maximizer(evaluators, t, state)
        if found is not None and found[2] >= state.phi2(t):
            params, i, _, signed = found
            return ActiveControl(params, -1 if signed > 0 else 1, i), True, reason
        return None, True, reason

    found = search_maximizer(evaluators, t, state, strict=True)
    best = 0.0 if found is None else found[2]
    ctrl = state.active
    if ctrl is None:
        return enter("entry") if best >= state.phi3(t) else (None, False, None)
    p = ctrl.params
    s_cur = -ctrl.sign * float(evaluators[ctrl.field_index].signed_batch(p.a, p.b, p.eta))
    if s_cur <= state.phi1(t):
        return enter("below_phi1")
    if s_cur <= (1.0 - state.h) * best:
        return enter("challenger")
    return ctrl, False, None


def count_candidates(monkeypatch):
    """Record the number of candidates each signed_batch call scores."""
    sizes = []
    real = SlopeEvaluator.signed_batch

    def spy(self, a, b, eta):
        sizes.append(np.size(a))
        return real(self, a, b, eta)

    monkeypatch.setattr(SlopeEvaluator, "signed_batch", spy)
    return sizes


class TestBump:
    def test_plateau_and_support(self):
        x = np.array([-1.3, -1.0, 0.0, 1.0, 1.3, 5.0])
        np.testing.assert_allclose(bump_1d(-1.0, 1.0, 0.3, x),
                                   [0.0, 1.0, 1.0, 1.0, 0.0, 0.0])

    def test_ramp_midpoint(self):
        assert bump_1d(0.0, 1.0, 0.4, np.array([-0.2]))[0] == pytest.approx(0.5)

    @given(a=st.floats(-5, 5), w=st.floats(0, 3), eta=st.floats(0.01, 2),
           seed=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_range_and_lipschitz(self, a, w, eta, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-10, 10, 200))
        vals = bump_1d(a, a + w, eta, x)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        # Lipschitz constant 1/eta
        num = np.abs(np.diff(vals))
        den = np.diff(x)
        assert np.all(num <= den / eta + 1e-9)
        # support is [a-eta, a+w+eta]
        outside = (x < a - eta) | (x > a + w + eta)
        assert np.all(vals[outside] == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bump_1d(1.0, 0.0, 0.3, np.array([0.0]))
        with pytest.raises(ValueError):
            bump_1d(0.0, 1.0, 0.0, np.array([0.0]))


class TestBumpParams:
    def test_volume_1d(self):
        p = BumpParams(np.array([0.0]), np.array([1.0]), 0.25)
        assert p.b - p.a + 2 * p.eta == pytest.approx(1.5)
        assert (p.a - p.eta, p.b + p.eta) == (-0.25, 1.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            BumpParams(np.array([1.0]), np.array([0.0]), 0.1)
        with pytest.raises(ValueError):
            BumpParams(np.array([0.0]), np.array([1.0]), -0.1)
        with pytest.raises(ValueError):
            BumpParams(np.zeros(2), np.ones(3), 0.1)


def test_control_function_contract():
    p = BumpParams(0.0, 1.0, 0.2)
    u = ActiveControl(p, -1).u
    x = np.linspace(-1, 2, 301)
    assert np.max(np.abs(u(x))) <= 1.0
    np.testing.assert_array_equal(u(x), -bump_1d(0.0, 1.0, 0.2, x))
    assert p.b - p.a + 2 * p.eta == pytest.approx(1.4)
    assert u(np.array([0.5]))[0] == -1.0


class TestSlopeEvaluator:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        mu = random_particles(rng, int(rng.integers(2, 60)))
        V = variance_about(0.0, radius=6.0)
        ev = SlopeEvaluator(as_atoms(mu), ones, V)
        a = rng.uniform(-5, 4)
        b = a + rng.uniform(0, 2)
        eta = rng.uniform(0.05, 1.0)
        direct = float(np.dot(2.0 * mu.x * bump_1d(a, b, eta, mu.x), mu.weights))
        assert ev.signed_batch(a, b, eta) == pytest.approx(direct, abs=1e-12)

    def test_slope_helper(self):
        mu = ParticleMeasure(np.array([[1.0], [-2.0]]), np.array([0.5, 0.5]))
        V = variance_about(0.0, radius=6.0)
        p = BumpParams(np.array([0.5]), np.array([1.5]), 0.1)
        # only the atom at 1.0 is covered: slope = |2 * 1.0 * 0.5|
        assert slope(mu, ones, V, p) == pytest.approx(1.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_grid_skips_the_sort(self, seed):
        """A grid's atoms come sorted and are used as given; a shuffled copy
        of them is sorted, and its prefix sums are the same, bit for bit."""
        rng = np.random.default_rng(seed)
        cells = rng.random(int(rng.integers(1, 200))) * (rng.random() < 0.5)
        cells[rng.integers(cells.size)] += 1.0
        x, w = as_atoms(GridMeasure(-6.0, 6.0, cells / cells.sum()))
        shuffle = rng.permutation(x.size)
        g = np.sin if rng.random() < 0.5 else ones
        V = variance_about(rng.uniform(-6.0, 6.0), radius=6.0)
        grid_ev = SlopeEvaluator((x, w), g, V)
        shuffled_ev = SlopeEvaluator((x[shuffle], w[shuffle]), g, V)
        assert grid_ev.x is x
        for name in ("x", "c0", "c1", "p0", "n0"):
            assert getattr(grid_ev, name).tobytes() == getattr(shuffled_ev, name).tobytes(), name

    def test_grid_measure_atomized(self):
        mu = GridMeasure.uniform(-1.0, 1.0, -2.0, 2.0, 4000)
        V = variance_about(0.0, radius=6.0)
        ev = SlopeEvaluator(as_atoms(mu), ones, V)
        # integral of 2x over [0, 1] with density 1/2 is 1/2
        got = ev.signed_batch(0.0, 1.0, 1e-9)
        assert got == pytest.approx(0.5, abs=1e-3)


class TestWindowBound:
    @given(seed=st.integers(0, 10_000), on_grid=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bounds_every_bump_in_the_window(self, seed, on_grid):
        """|signed_batch| <= bound + allowance for admissible bumps inside the window."""
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.1, 3.0)
        lo = rng.uniform(-5.0, 5.0 - c)
        hi = lo + c
        if on_grid:  # empty cells, and the window wherever it falls between centres
            cells = rng.random(int(rng.integers(4, 120))) * (rng.random() < 0.5)
            cells[rng.integers(cells.size)] += 1.0
            mu = GridMeasure(-6.0, 6.0, cells / cells.sum())
        else:  # atoms exactly on the window ends too
            x = np.concatenate((rng.uniform(-6.0, 6.0, int(rng.integers(1, 60))), [lo, hi]))
            w = rng.uniform(0.1, 1.0, x.size)
            mu = ParticleMeasure(x[:, None], w / w.sum())
        g = np.sin if rng.random() < 0.5 else ones
        ev = SlopeEvaluator(as_atoms(mu), g, variance_about(rng.uniform(-6.0, 6.0), radius=6.0))
        eta_min = rng.uniform(1e-3, 0.5) * c
        eta = rng.uniform(eta_min, c / 2.0, 50)
        w = rng.random(50) * (c - 2.0 * eta)
        a = lo + eta + rng.random(50) * (c - 2.0 * eta - w)
        bound, allowance = ev.window_bound(lo, hi, eta_min)
        assert allowance >= 1e-9 * (ev.p0[-1] + ev.n0[-1])
        assert np.all(np.abs(ev.signed_batch(a, a + w, eta)) <= bound + allowance)

    def test_bathtub_values(self):
        mu = ParticleMeasure(np.array([[-1.0], [0.5], [1.0], [2.0]]), np.full(4, 0.25))
        ev = SlopeEvaluator(as_atoms(mu), ones, variance_about(0.0, radius=6.0))
        # q*m = 2x/4: -0.5, 0.25, 0.5, 1.0
        bound, _ = ev.window_bound([-1.0, 0.5, -3.0], [0.5, 2.0, -2.0], 0.1)
        np.testing.assert_allclose(bound, [0.5, 1.75, 0.0])


class TestSlopeCeiling:
    @given(seed=st.integers(0, 10_000), on_grid=st.booleans(), two_fields=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_bounds_the_strict_search(self, seed, on_grid, two_fields):
        rng = np.random.default_rng(seed)
        if on_grid:  # empty cells, and mass past the search window [-R, R]
            cells = rng.random(int(rng.integers(4, 120))) * (rng.random() < 0.5)
            cells[rng.integers(cells.size)] += 1.0
            mu = GridMeasure(-8.0, 8.0, cells / cells.sum())
        else:  # a single atom too, where the best bump meets the bound
            mu = random_particles(rng, int(rng.integers(1, 60)), span=8.0)
        fields = (ones, np.sin)[:1 + two_fields]
        V = variance_about(rng.uniform(-6.0, 6.0), radius=8.0)
        state = ControllerState(c=rng.uniform(0.1, 3.0), h=0.5, radius=6.0,
                                kappa=rng.uniform(0.2, 2.0))
        t = rng.uniform(0.0, 50.0)
        evaluators = [SlopeEvaluator(as_atoms(mu), g, V) for g in fields]
        U = slope_ceiling(evaluators, t, state)
        found = search_maximizer(evaluators, t, state, strict=True)
        if found is None:
            assert state.eta_min(t, strict=True) > state.c / 2.0 and U == 0.0
        else:
            assert found[2] <= U

    def test_dirac_meets_the_ceiling(self):
        state = ControllerState(c=2.0, h=0.5, radius=10.0)
        ev = SlopeEvaluator(as_atoms(ParticleMeasure.dirac(3.0)), ones, variance_about(0.0, 10.0))
        U = slope_ceiling([ev], 10.0, state)
        _, _, s, _ = search_maximizer([ev], 10.0, state, strict=True)
        assert s == 6.0 and 6.0 < U < 6.0 + 1e-6
        # at t = 0 strict eta_min = 2 > c/2: nothing is admissible
        assert slope_ceiling([ev], 0.0, state) == 0.0

    def test_ceilings_are_python_floats(self, monkeypatch):
        """U, the logged best - U and the largest best / U are floats, as every
        other slope of a decision is, not numpy scalars."""
        ceilings = []

        def recorded(*args):
            dec, state = decide_multi(*args)
            ceilings.append(dec.ceiling)
            return dec, state

        monkeypatch.setattr(solver, "decide_multi", recorded)
        spec = ScenarioSpec.builtin("hk_ctrl_h05").apply_overrides(t_end=6.0, cells=100)
        log, _ = run_hk(spec)
        values = ceilings + log.ceiling_gaps + [log.perf["max_best_over_ceiling"]]
        assert log.ceiling_gaps and {type(v) for v in values} == {float}

    def test_nothing_admissible_evaluates_nothing(self, monkeypatch):
        """An idle query with an empty strict admissible set builds no
        evaluator and stays idle with ceiling 0."""
        def refuse(*args):
            raise AssertionError("SlopeEvaluator built")

        monkeypatch.setattr(controller, "SlopeEvaluator", refuse)
        state = ControllerState(c=2.0, h=0.5, radius=10.0)
        mu, V = ParticleMeasure.dirac(3.0), variance_about(0.0, 10.0)
        # at t = 0 strict eta_min = 2 > c/2
        dec, new = decide_multi(0.0, as_atoms(mu), state, (ones,), V)
        assert dec.control is None and not dec.switched and dec.empty
        assert dec.ceiling == 0.0 and new is state
        with pytest.raises(AssertionError):  # at t = 10 the query evaluates
            decide_multi(10.0, as_atoms(mu), state, (ones,), V)

    def test_gate_keeps_every_decision(self, monkeypatch):
        """Along a controlled run the gated rule decides as the ungated one,
        while most queries skip their strict search."""
        searched = []

        def checked(t, atoms, state, g_fields, V):
            dec, new = decide_multi(t, atoms, state, g_fields, V)
            assert ((dec.control, dec.switched, dec.reason)
                    == ungated_decide(t, atoms, state, g_fields, V)), t
            assert dec.switched or dec.candidate_slope == 0.0, t
            searched.append(dec.searched_slope is not None)
            return dec, new

        monkeypatch.setattr(solver, "decide_multi", checked)
        log, _ = run_hk(ScenarioSpec.builtin("hk_ctrl_h05").apply_overrides(t_end=5.0))
        assert log.n_switches > 0 and sum(searched) < 0.2 * len(searched)
        assert len(log.ceiling_gaps) == sum(searched) and max(log.ceiling_gaps) <= 0.0
        # the slope column is the applied control's slope, 0 when idle
        active = log.column("control_sign") != 0
        slope_col = log.column("slope")
        assert np.all(slope_col[~active] == 0.0) and np.all(slope_col[active] > 0.0)


class TestAdmissible:
    def test_eta_schedule(self):
        state = ControllerState(c=2.0, h=0.5, radius=10.0)
        assert state.eta_min(0.0) == pytest.approx(1.0)
        assert state.eta_min(0.0, strict=True) == pytest.approx(2.0)
        assert state.eta_min(4.0) == pytest.approx(0.2)
        assert state.eta_min(4.0, strict=True) == pytest.approx(0.4)

    def test_eta_floor(self):
        state = ControllerState(c=2.0, h=0.5, radius=10.0, eta_floor=0.4)
        assert state.eta_min(100.0) == 0.4
        assert state.eta_min(100.0, strict=True) == 0.4

    def test_state_validation(self):
        with pytest.raises(ValueError):
            ControllerState(c=2.0, h=1.5, radius=10.0)
        with pytest.raises(ValueError):
            ControllerState(c=-1.0, h=0.5, radius=10.0)
        with pytest.raises(ValueError):
            ControllerState(c=np.inf, h=0.5, radius=10.0)
        with pytest.raises(ValueError):
            ControllerState(c=2.0, h=0.5, radius=10.0, kappa=0.0)
        with pytest.raises(ValueError):
            ControllerState(c=2.0, h=0.5, radius=10.0, kappa=np.inf)


class TestSearchMaximizer:
    def test_empty_admissible_set(self):
        # at t = 0 strict eta_min = 2 > c/2
        state = ControllerState(c=2.0, h=0.5, radius=10.0)
        mu = ParticleMeasure.dirac(1.0)
        V = variance_about(0.0, radius=10.0)
        ev = SlopeEvaluator(as_atoms(mu), ones, V)
        assert search_maximizer([ev], 0.0, state, strict=True) is None

    def test_finds_mass(self):
        state = ControllerState(c=2.0, h=0.5, radius=10.0)
        mu = ParticleMeasure.dirac(3.0)
        V = variance_about(0.0, radius=10.0)
        ev = SlopeEvaluator(as_atoms(mu), ones, V)
        params, i, s, signed = search_maximizer([ev], 10.0, state)
        assert i == 0
        assert s == pytest.approx(6.0)   # |2 * 3.0| * mass 1
        assert signed == pytest.approx(6.0)
        lo, hi = params.a - params.eta, params.b + params.eta
        assert lo <= 3.0 <= hi

    def test_against_finer_scan(self):
        """Refined search is within 2% of an exhaustive 10x-finer scan."""
        rng = np.random.default_rng(5)
        mu = random_particles(rng, 30)
        V = variance_about(0.0, radius=6.0)
        ev = SlopeEvaluator(as_atoms(mu), ones, V)
        state = ControllerState(c=2.0, h=0.5, radius=6.0)
        t = 10.0
        _, _, s, _ = search_maximizer([ev], t, state)
        # 640 centres x 160 widths x 16 ramp widths spanning the admissible set
        m, frac, e = np.meshgrid(np.linspace(-6.0, 6.0, 640), np.linspace(0.0, 1.0, 160),
                                 np.linspace(state.eta_min(t), state.c / 2.0, 16),
                                 indexing="ij")
        w = frac * (state.c - 2.0 * e)
        best_fine = float(np.abs(ev.signed_batch(m - w / 2, m + w / 2, e)).max())
        assert s >= best_fine * 0.98

    @pytest.mark.parametrize("seed", range(4))
    def test_distinct_candidates_match_full_product(self, monkeypatch, seed):
        """Scoring each distinct candidate once returns the full product's result."""
        sizes = count_candidates(monkeypatch)
        V = variance_about(0.0, radius=12.0)
        for name, mu, fields, state, t, strict in clip_cases(seed):
            evaluators = [SlopeEvaluator(as_atoms(mu), g, V) for g in fields]
            sizes.clear()
            got = search_maximizer(evaluators, t, state, strict)
            n_distinct = sum(sizes)
            with monkeypatch.context() as patch:
                patch.setattr(controller, "_grid", full_grid)
                sizes.clear()
                want = search_maximizer(evaluators, t, state, strict)
            assert n_distinct < sum(sizes), name
            bits = [[float(v).hex() for v in (p.a, p.b, p.eta, *rest)]
                    for p, *rest in (got, want)]
            assert bits[0] == bits[1], name
            # the clip each case is built for bites at the answer
            p, eta_lo = got[0], state.eta_min(t, strict)
            if name in ("caps", "grid"):
                assert p.eta == eta_lo and p.b - p.a == pytest.approx(state.c - 2 * eta_lo)
            if name == "edge":
                assert (p.a + p.b) / 2 == pytest.approx(state.radius)
            if name == "half":
                assert 0.99 * state.c / 2 < eta_lo < state.c / 2

    def test_refinement_scores_distinct_candidates(self, monkeypatch):
        """Around a best bump at eta_min and the width cap, the ramp widths
        below eta_min and the plateau widths above c - 2*eta clip to copies,
        which a refinement round does not score."""
        sizes = count_candidates(monkeypatch)
        _, mu, fields, state, t, strict = clip_cases(0)[0]
        ev = SlopeEvaluator(as_atoms(mu), fields[0], variance_about(0.0, 12.0))
        params, *_ = search_maximizer([ev], t, state, strict)
        assert params.eta == state.eta_min(t, strict)
        assert len(sizes) == 4  # the probe, the coarse round and two refinement rounds
        assert all(n < N_A * N_W * N_ETA / 4 for n in sizes[2:]), sizes

    @pytest.mark.parametrize("seed", range(3))
    def test_pruning_is_exact(self, monkeypatch, seed):
        """With the window bound at +inf no centre is pruned; the answer is the same."""
        sizes = count_candidates(monkeypatch)
        V = variance_about(0.0, radius=12.0)
        state = ControllerState(c=2.0, h=0.5, radius=6.0)
        ends = np.linspace(-6.0, 6.0, N_A)[[10, 40]][:, None] + [-1.0, 1.0]
        cases = clip_cases(seed) + [
            # every slope is 0: the probe floor is 0 and every centre is kept
            ("dirac", ParticleMeasure.dirac(0.0), (ones,), state, 10.0, False),
            # atoms exactly on the ends of two centres' windows
            ("ends", ParticleMeasure(ends.reshape(-1, 1), np.full(4, 0.25)),
             (ones, np.sin), state, 10.0, False),
        ]
        for name, mu, fields, state, t, strict in cases:
            evaluators = [SlopeEvaluator(as_atoms(mu), g, V) for g in fields]
            sizes.clear()
            got = search_maximizer(evaluators, t, state, strict)
            n_pruned = sum(sizes)
            with monkeypatch.context() as patch:
                patch.setattr(SlopeEvaluator, "window_bound",
                              lambda self, lo, hi, eta_min: (np.full(np.shape(lo), np.inf), 0.0))
                sizes.clear()
                want = search_maximizer(evaluators, t, state, strict)
            bits = [[float(v).hex() for v in (p.a, p.b, p.eta, *rest)]
                    for p, *rest in (got, want)]
            assert bits[0] == bits[1], name
            if name == "dirac":
                assert got[2] == 0.0 and n_pruned == sum(sizes)
            else:
                assert n_pruned < sum(sizes), name

    def test_narrow_cluster_prunes_coarse_round(self, monkeypatch):
        sizes = count_candidates(monkeypatch)
        rng = np.random.default_rng(3)
        mu = random_particles(rng, 50, span=3.3, lo=3.0)
        state = ControllerState(c=2.0, h=0.5, radius=6.0)
        ev = SlopeEvaluator(as_atoms(mu), ones, variance_about(0.0, 6.0))
        search_maximizer([ev], 10.0, state)
        assert sizes[0] == N_A  # the probe
        assert sizes[1] < N_A * N_W * N_ETA / 4, sizes

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        mu = random_particles(rng, 25)
        V = variance_about(0.0, radius=6.0)
        state = ControllerState(c=2.0, h=0.5, radius=6.0)
        outs = [search_maximizer([SlopeEvaluator(as_atoms(mu), ones, V)], 5.0, state)
                for _ in range(2)]
        assert outs[0][0].a == outs[1][0].a
        assert outs[0][2] == outs[1][2]


class TestStateMachine:
    def mk_state(self, **kw):
        kw.setdefault("c", 2.0)
        kw.setdefault("h", 0.5)
        kw.setdefault("radius", 10.0)
        return ControllerState(**kw)

    def test_dirac_at_center_stays_idle(self):
        # all slopes vanish on the consensus state
        state = self.mk_state()
        mu = ParticleMeasure.dirac(0.0)
        V = variance_about(0.0, radius=10.0)
        dec, new = decide_multi(5.0, as_atoms(mu), state, (ones,), V)
        assert dec.control is None and not dec.switched
        assert new is state

    def test_activation_above_threshold(self):
        state = self.mk_state()
        mu = ParticleMeasure.dirac(3.0)
        V = variance_about(0.0, radius=10.0)
        t = 10.0  # phi3 = 2/11 << slope 6
        dec, new = decide_multi(t, as_atoms(mu), state, (ones,), V)
        assert dec.control is not None and dec.switched and dec.reason == "entry"
        assert dec.control.sign == -1   # push mass at x > 0 toward 0
        assert new.active is dec.control

    def test_idle_below_phi3(self):
        state = self.mk_state(kappa=1.0)
        # tiny slope: atom very close to the variance center
        mu = ParticleMeasure(np.array([[0.01], [-0.01]]), np.array([0.5, 0.5]))
        V = variance_about(0.0, radius=10.0)
        dec, new = decide_multi(10.0, as_atoms(mu), state, (ones,), V)
        assert dec.control is None and not dec.switched

    def test_hold_between_thresholds(self):
        """An active bump with slope between phi1 and phi3/(1-h) is held."""
        V = variance_about(0.0, radius=10.0)
        mu = ParticleMeasure.dirac(3.0)
        state = self.mk_state(h=0.5)
        dec, state = decide_multi(10.0, as_atoms(mu), state, (ones,), V)
        ctrl = dec.control
        dec2, state2 = decide_multi(10.01, as_atoms(mu), state, (ones,), V)
        assert dec2.control is ctrl  # frozen, not re-searched
        assert not dec2.switched and dec2.reason is None
        assert dec2.current_slope == pytest.approx(6.0)

    def test_hysteresis_switch(self):
        """A challenger more than 1/(1-h) times better forces a switch."""
        V = variance_about(0.0, radius=10.0)
        state = self.mk_state(h=0.5)
        mu = ParticleMeasure.dirac(3.0)
        dec, state = decide_multi(10.0, as_atoms(mu), state, (ones,), V)
        old = dec.control
        # mass teleports far away: old bump now covers nothing
        mu2 = ParticleMeasure(np.array([[3.0], [-8.0]]), np.array([0.01, 0.99]))
        dec2, state2 = decide_multi(10.01, as_atoms(mu2), state, (ones,), V)
        assert dec2.switched and dec2.reason == "challenger"
        assert dec2.control is not None and dec2.control is not old
        assert dec2.current_slope <= (1.0 - state.h) * dec2.candidate_slope + 1e-9

    def test_abandon_below_phi1(self):
        V = variance_about(0.0, radius=10.0)
        state = self.mk_state()
        mu = ParticleMeasure.dirac(3.0)
        dec, state = decide_multi(10.0, as_atoms(mu), state, (ones,), V)
        # all mass reaches the center: active slope drops to 0 <= phi1
        mu2 = ParticleMeasure.dirac(0.0)
        dec2, state2 = decide_multi(10.5, as_atoms(mu2), state, (ones,), V)
        assert dec2.switched and dec2.control is None and dec2.reason == "below_phi1"
        assert state2.active is None

    def test_held_bump_raising_V_is_dropped(self):
        """The hold reads the signed rate: a bump whose mass sits on the other
        side of V's centre raises V, and is dropped however steep it is."""
        V = variance_about(0.0, radius=10.0)
        held = ActiveControl(BumpParams(-1.5, -0.5, 0.25), -1)  # pushes x = -1 outward
        state = self.mk_state(active=held)
        dec, new = decide_multi(10.0, as_atoms(ParticleMeasure.dirac(-1.0)), state, (ones,), V)
        assert dec.switched and dec.reason == "below_phi1"
        # V' = 2x = -2 at the mass and u g = -1 there, so V rises at rate 2
        assert dec.current_slope == -2.0
        assert dec.control.sign == 1 and new.active is dec.control

    def test_multi_field_single_active(self):
        V = variance_about(0.0, radius=10.0)
        state = self.mk_state()
        mu = ParticleMeasure.dirac(3.0)
        half = lambda x: 0.5 * ones(x)
        dec, _ = decide_multi(10.0, as_atoms(mu), state, (half, ones), V)
        # stronger gain wins; exactly one field is active
        assert dec.control.field_index == 1

    def test_constraints_on_emitted_controls(self):
        rng = np.random.default_rng(2)
        V = variance_about(0.0, radius=6.0)
        state = self.mk_state(radius=6.0)
        for k in range(30):
            mu = random_particles(rng, 20)
            t = 2.0 + 0.1 * k
            dec, state = decide_multi(t, as_atoms(mu), state, (ones,), V)
            if dec.control is not None:
                p = dec.control.params
                assert p.b - p.a + 2 * p.eta <= state.c + 1e-12
                assert abs(dec.control.sign) == 1
                assert 1.0 / p.eta <= state.kappa * (1.0 + t) + 1e-9
