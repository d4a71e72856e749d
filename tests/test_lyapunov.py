import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfjq.controller import bump_1d
from mfjq.kernels import HKKernel, nonlocal_field
from mfjq.lyapunov import (MomentFunctional, _rk4_flow, lie_derivative,
                           lie_derivative_fd_oracle, rk4_step, value, variance_about)
from mfjq.measures import GridMeasure, ParticleMeasure, as_atoms, moment


def random_particles(rng, n, span=5.0):
    x = rng.uniform(-span, span, n)
    w = rng.uniform(0.1, 1.0, n)
    return ParticleMeasure(x[:, None], w / w.sum())


def random_field(rng):
    if rng.random() < 0.5:
        kern = HKKernel(0.05).interaction()
        return nonlocal_field(kern, random_particles(rng, 20))
    a = rng.uniform(-5.0, 4.0)
    b = a + rng.uniform(0.0, 1.0)
    eta = rng.uniform(0.05, 0.5)
    sgn = rng.choice([-1.0, 1.0])
    return lambda x: sgn * bump_1d(a, b, eta, x)


class TestValue:
    def test_variance_of_dirac_is_zero(self):
        V = variance_about(0.0, radius=5.0)
        assert value(V, as_atoms(ParticleMeasure.dirac(0.0))) == 0.0

    def test_variance_two_atoms(self):
        V = variance_about(0.0, radius=5.0)
        mu = ParticleMeasure(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
        assert value(V, as_atoms(mu)) == pytest.approx(1.0)

    def test_variance_uniform_grid(self):
        V = variance_about(0.0, radius=5.0)
        mu = GridMeasure.uniform(-1.0, 1.0, -1.0, 1.0, 800)
        assert value(V, as_atoms(mu)) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_recentring(self):
        V = variance_about(2.0, radius=5.0)
        assert value(V, as_atoms(ParticleMeasure.dirac(2.0))) == 0.0

    def test_k_bound_validation(self):
        with pytest.raises(ValueError):
            MomentFunctional(v=lambda x: x, v_prime=lambda x: 1.0, k_bound=-1.0)


class TestLieDerivative:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_fd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        V = variance_about(0.0, radius=6.0)
        mu = random_particles(rng, int(rng.integers(2, 50)))
        field = random_field(rng)
        exact = lie_derivative(V, field, mu)
        approx = lie_derivative_fd_oracle(V, field, mu, tau=1e-4)
        assert abs(exact - approx) <= 1e-5 * max(abs(exact), 1e-10)

    @given(lam=st.floats(-10, 10), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, lam, seed):
        rng = np.random.default_rng(seed)
        V = variance_about(0.0, radius=6.0)
        mu = random_particles(rng, 15)
        field = random_field(rng)
        lhs = lie_derivative(V, lambda x: lam * np.asarray(field(x)), mu)
        rhs = lam * lie_derivative(V, field, mu)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_additivity(self, seed):
        rng = np.random.default_rng(seed)
        V = variance_about(0.0, radius=6.0)
        mu = random_particles(rng, 15)
        f1, f2 = random_field(rng), random_field(rng)
        lhs = lie_derivative(
            V, lambda x: np.asarray(f1(x)) + np.asarray(f2(x)), mu)
        rhs = lie_derivative(V, f1, mu) + lie_derivative(V, f2, mu)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_zero_field(self):
        V = variance_about(0.0, radius=6.0)
        mu = ParticleMeasure.dirac(1.0)
        assert lie_derivative(V, lambda x: np.zeros_like(x), mu) == 0.0

    def test_oracle_tau_validation(self):
        V = variance_about(0.0, radius=6.0)
        with pytest.raises(ValueError):
            lie_derivative_fd_oracle(V, lambda x: x, ParticleMeasure.dirac(0.0),
                                     tau=0.0)


def rk4_reference(x, field, h):
    """The plain four-stage formula, every stage on every atom."""
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestRK4Step:
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("h", ["scalar", "negative", "per_atom"])
    def test_matches_four_stage_formula(self, zero, h):
        """Bit for bit, with stages 2-4 evaluated on the moving atoms only.

        The field rests at ``zero`` on (-1, 0] (x = -0.0 included), at -0.0
        left of -1, is NaN on [1.8, 2.2] and moves everywhere else."""
        def pointwise(x):
            v = np.where(np.abs(x - 2.0) <= 0.2, np.nan, np.sin(3.0 * x) + 0.5)
            return np.where(x <= 0.0, np.where(x > -1.0, zero, -0.0), v)

        calls = []

        def counting(x):
            calls.append(x.size)
            return pointwise(x)

        rng = np.random.default_rng(5)
        x = np.concatenate(([-0.0, 0.0, -0.0, -3.0, -0.5, 0.25, 2.0, 5.0],
                            rng.uniform(-4.0, 4.0, 40)))
        step = {"scalar": 0.1, "negative": -0.1,
                "per_atom": rng.choice([-1.0, 1.0], x.size) * rng.uniform(0.01, 0.3, x.size)}[h]
        moving = int(np.count_nonzero(pointwise(x) != 0.0))
        assert 0 < moving < x.size
        got = rk4_step(x, counting, step)
        assert got.tobytes() == rk4_reference(x, pointwise, step).tobytes()
        assert calls == [x.size, moving, moving, moving]
        calls.clear()  # with nothing moving, stages 2-4 still call the field
        still = np.array([-0.0, 0.0, -0.5, -3.0])
        expected = rk4_reference(still, pointwise, 0.1)
        assert rk4_step(still, counting, 0.1).tobytes() == expected.tobytes()
        assert calls == [still.size, 0, 0, 0]


class TestBatchedFlow:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_one_flow_matches_two(self, seed):
        """The oracle's single flow of [x, x] by [+tau, -tau] gives each atom
        the path, and the oracle the value, of two separate flows, bit for bit."""
        rng = np.random.default_rng(seed)
        mu = random_particles(rng, int(rng.integers(1, 60)))
        if rng.random() < 0.5:  # any number of sources, not random_field's 20
            sources = random_particles(rng, int(rng.integers(1, 60)))
            field = nonlocal_field(HKKernel(0.05).interaction(), sources)
        else:
            field = random_field(rng)
        V = variance_about(rng.uniform(-1.0, 1.0), radius=6.0)
        tau = 1e-4
        x, n = mu.x, mu.x.size
        both = _rk4_flow(np.concatenate((x, x)), field, np.repeat((tau, -tau), n))
        xp, xm = _rk4_flow(x, field, tau), _rk4_flow(x, field, -tau)
        assert both[:n].tobytes() == xp.tobytes()
        assert both[n:].tobytes() == xm.tobytes()
        vp = float(np.dot(V.v(xp), mu.weights))
        vm = float(np.dot(V.v(xm), mu.weights))
        assert lie_derivative_fd_oracle(V, field, mu, tau) == (vp - vm) / (2.0 * tau)


class TestDissipativity:
    """The bounded-confidence drift never increases the variance."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_drift_rate_nonpositive(self, seed):
        rng = np.random.default_rng(seed)
        kern = HKKernel(0.05).interaction()
        mu = random_particles(rng, int(rng.integers(2, 40)))
        V = variance_about(0.0, radius=6.0)
        assert lie_derivative(V, nonlocal_field(kern, mu), mu) <= 1e-12

    def test_two_atom_closed_form(self):
        hk = HKKernel(0.05)
        V = variance_about(0.0, radius=6.0)
        x, y = 0.5, -0.5
        mu = ParticleMeasure(np.array([[x], [y]]), np.array([0.5, 0.5]))
        rate = lie_derivative(V, nonlocal_field(hk.interaction(), mu), mu)
        assert rate == pytest.approx(-0.5 * float(hk.phi(x - y)) * (x - y) ** 2)
        assert rate == pytest.approx(-0.5)


def test_diff_bound_check():
    rng = np.random.default_rng(7)
    V = variance_about(0.0, radius=6.0)
    mu = random_particles(rng, 20)
    u = lambda x: bump_1d(-1.0, 1.0, 0.3, x)
    # |rate along u*g| <= k_bound * integral |u| d mu, with g = 1
    rate = lie_derivative(V, u, mu)
    assert abs(rate) <= V.k_bound * moment(as_atoms(mu), lambda x: np.abs(u(x))) + 1e-12
