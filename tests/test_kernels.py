import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfjq.kernels import (HKKernel, ball_cutoff, constant_kernel, make_kernel,
                          nonlocal_field)
from mfjq.measures import ParticleMeasure, SupportBall


class TestHKPhi:
    def test_plateau_and_cutoff(self):
        k = HKKernel(0.05)
        np.testing.assert_allclose(k.phi([0.0, 0.5, -0.99]), 1.0)
        np.testing.assert_allclose(k.phi([1.1, -2.0, 50.0]), 0.0)

    def test_ramp_is_linear(self):
        eps = 0.2
        k = HKKernel(eps)
        r = np.linspace(1.0, 1.0 + eps, 11)
        np.testing.assert_allclose(k.phi(r), (1.0 + eps - r) / eps, atol=1e-12)

    def test_even(self):
        k = HKKernel(0.05)
        r = np.linspace(-2, 2, 101)
        np.testing.assert_allclose(k.phi(r), k.phi(-r))

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            HKKernel(0.0)


class TestHKField:
    def test_two_atoms_attract(self):
        kern = HKKernel(0.05).interaction()
        mu = ParticleMeasure(np.array([[0.5], [-0.5]]), np.array([0.5, 0.5]))
        f = nonlocal_field(kern, mu)
        # atom at 0.5 is pulled toward -0.5 with phi(1) = 1
        assert f(np.array([0.5]))[0] == pytest.approx(-0.5)
        assert f(np.array([-0.5]))[0] == pytest.approx(0.5)

    def test_single_atom_stationary(self):
        kern = HKKernel(0.05).interaction()
        f = nonlocal_field(kern, ParticleMeasure.dirac(2.0))
        assert f(np.array([2.0]))[0] == 0.0

    def test_decoupled_beyond_confidence(self):
        kern = HKKernel(0.05).interaction()
        mu = ParticleMeasure(np.array([[0.0], [3.0]]), np.array([0.5, 0.5]))
        f = nonlocal_field(kern, mu)
        np.testing.assert_allclose(f(np.array([0.0, 3.0])), 0.0, atol=1e-15)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_field_matrix_matches_field_at(self, seed):
        rng = np.random.default_rng(seed)
        kern = HKKernel(0.1).interaction()
        ax = rng.uniform(-3, 3, 17)
        aw = rng.uniform(0, 1, 17)
        aw /= aw.sum()
        x = rng.uniform(-4, 4, 9)
        np.testing.assert_allclose(kern.field_matrix(x, ax) @ aw,
                                   kern.field_at(x, ax, aw), atol=1e-13)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_field_at_is_pointwise(self, seed):
        """A point's field does not depend on the other points of the call."""
        rng = np.random.default_rng(seed)
        kern = HKKernel(0.05).interaction()
        n = int(rng.integers(1, 60))
        ax = rng.uniform(-5, 5, n)
        aw = rng.uniform(0.1, 1, n)
        aw /= aw.sum()
        x = rng.uniform(-6, 6, int(rng.integers(1, 60)))
        more = np.concatenate((x, rng.uniform(-6, 6, int(rng.integers(1, 60)))))
        assert kern.field_at(more, ax, aw)[:x.size].tobytes() == kern.field_at(x, ax, aw).tobytes()

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_declared_bound_holds(self, seed):
        rng = np.random.default_rng(seed)
        eps = 0.05
        kern = HKKernel(eps).interaction()
        ax = rng.uniform(-0.5, 0.5, 12)
        aw = rng.uniform(0, 1, 12)
        aw /= aw.sum()
        x = rng.uniform(-1, 1, 40)
        assert np.max(np.abs(kern.field_at(x, ax, aw))) <= kern.bound_M + 1e-12

    def test_declared_lipschitz_constant(self):
        eps = 0.1
        kern = HKKernel(eps).interaction()
        # steepest slope of r -> phi(r) r occurs on the ramp
        r = np.linspace(0.0, 1.0 + eps, 200001)
        v = HKKernel(eps).phi(r) * r
        slopes = np.abs(np.diff(v) / np.diff(r))
        assert slopes.max() <= kern.lipschitz_L + 1e-6


def test_constant_kernel_field_is_total_mass():
    k = constant_kernel(2.0)
    x = np.linspace(-1, 1, 5)
    aw = np.array([0.25, 0.75])
    np.testing.assert_allclose(k.field_at(x, np.array([0.0, 1.0]), aw), 2.0)
    np.testing.assert_allclose(k.field_matrix(x, np.zeros(2)) @ aw, 2.0)


def test_make_kernel_registry():
    assert make_kernel("hk").bound_M == pytest.approx(1.05)
    assert make_kernel("hk", epsilon=0.1).bound_M == pytest.approx(1.1)
    for name in ("nope", "constant_g"):
        with pytest.raises(KeyError):
            make_kernel(name)


class TestBallCutoff:
    def test_shape(self):
        ball = SupportBall(10.0)
        x = np.array([0.0, 8.9, 9.5, 10.0, -11.0])
        np.testing.assert_allclose(ball_cutoff(x, ball, 1.0),
                                   [1.0, 1.0, 0.5, 0.0, 0.0])

    def test_truncated_field_vanishes_outside(self):
        # the solvers truncate every velocity field this way
        ball = SupportBall(2.0)
        x = np.array([0.0, 1.4, 2.5])
        np.testing.assert_allclose(np.ones_like(x) * ball_cutoff(x, ball, 0.5),
                                   [1.0, 1.0, 0.0])
