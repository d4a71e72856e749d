import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfjq.kernels import (BLOCK_ENTRIES, HKKernel, ball_cutoff, constant_kernel,
                          make_kernel, nonlocal_field)
from mfjq.measures import GridMeasure, ParticleMeasure, SupportBall
from mfjq.scenarios import ScenarioSpec, run_hk


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
        with pytest.raises(ValueError):
            HKKernel(1e-320)  # 1/eps overflows to inf
        # 1/eps = 1e308 is finite, and such a run works; r / eps overflows for
        # r > 1.8 without a warning, and phi is still 1 below 1 and 0 past 1 + eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = HKKernel(1e-308).phi(np.array([0.5, 1.5, 2.0, 1e3]))
        np.testing.assert_array_equal(phi, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("eps", [1e-308, 1e-20, 0.05])
    def test_one_at_distance_one(self, eps):
        # the plateau is closed: below eps ~ 1e-16 the ramp loses its 1 to roundoff
        np.testing.assert_array_equal(HKKernel(eps).phi([1.0, -1.0]), [1.0, 1.0])


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
        np.testing.assert_allclose(ball_cutoff(x, ball),
                                   [1.0, 1.0, 0.5, 0.0, 0.0])

    def test_truncated_field_vanishes_outside(self):
        # the solvers truncate every velocity field this way
        ball = SupportBall(2.0)
        x = np.array([0.0, 1.4, 2.5])
        np.testing.assert_allclose(np.ones_like(x) * ball_cutoff(x, ball),
                                   [1.0, 1.0, 0.0])


HK = HKKernel(0.05).interaction()


def _points(rng, n: int) -> np.ndarray:
    """Random points, half of them on a lattice of step eps / 4, so that some
    distances fall exactly on the ramp's ends 1 and 1 + eps."""
    lattice = rng.integers(-80, 80, n) * 0.0125
    return np.where(rng.random(n) < 0.5, lattice, rng.uniform(-3.0, 3.0, n))


def _unblocked(x, y) -> np.ndarray:
    return HK.rule(np.asarray(x, dtype=float)[:, None], y)


class TestBlockedFieldMatrix:
    """field_matrix fills K a block of rows at a time, bit for bit the rule's matrix."""

    # (blocks, extra rows): 1 row, one block less one row, one block, one
    # block and one row, several blocks and a partial one
    @given(seed=st.integers(0, 10_000), n_atoms=st.integers(1, 200),
           rows=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)]))
    @settings(max_examples=60, deadline=None)
    def test_rows_around_a_block(self, seed, n_atoms, rows):
        rng = np.random.default_rng(seed)
        blocks, extra = rows
        x = _points(rng, blocks * (BLOCK_ENTRIES // n_atoms) + extra)
        y = _points(rng, n_atoms)
        K = HK.field_matrix(x, y)
        assert K.shape == (x.size, n_atoms)
        assert K.tobytes() == _unblocked(x, y).tobytes()

    @given(seed=st.integers(0, 10_000), n_atoms=st.integers(1, 3000))
    @settings(max_examples=40, deadline=None)
    def test_any_number_of_atoms(self, seed, n_atoms):
        rng = np.random.default_rng(seed)
        per_block = max(1, BLOCK_ENTRIES // n_atoms)
        x = _points(rng, int(rng.integers(1, 3 * per_block + 2)))
        y = _points(rng, n_atoms)
        assert HK.field_matrix(x, y).tobytes() == _unblocked(x, y).tobytes()

    @given(seed=st.integers(0, 10_000), cells=st.integers(1, 400))
    @settings(max_examples=30, deadline=None)
    def test_edges_by_centres(self, seed, cells):
        rng = np.random.default_rng(seed)
        half = float(rng.uniform(1.0, 12.0))
        mu = GridMeasure(-half, half, np.full(cells, 1.0 / cells))
        K = HK.field_matrix(mu.edges, mu.centers)
        assert K.shape == (cells + 1, cells)
        assert K.tobytes() == _unblocked(mu.edges, mu.centers).tobytes()

    @given(seed=st.integers(0, 10_000), cells=st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_in_place_cutoff(self, seed, cells):
        """Scaling K's rows in place equals the cutoff product K's callers form."""
        rng = np.random.default_rng(seed)
        half = float(rng.uniform(1.0, 12.0))
        c = GridMeasure(-half, half, np.full(cells, 1.0 / cells)).centers
        ball = SupportBall(half)
        cut = ball_cutoff(c, ball)
        K = HK.field_matrix(c, c)
        product = cut[:, None] * K
        K *= cut[:, None]
        assert K.tobytes() == product.tobytes()


def _traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocated during fn(), as tracemalloc sees them."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestDriftMatrixMemory:
    """Building K costs about K's own bytes; a grid run builds no K at all."""

    CELLS = 1600
    LIMIT = 1.1 * CELLS ** 2 * 8

    def test_field_matrix_peak(self):
        x = np.linspace(-10.0, 10.0, self.CELLS)
        assert _traced_peak(lambda: HK.field_matrix(x, x)) <= self.LIMIT

    def test_grid_run_peak(self):
        spec = ScenarioSpec.builtin("hk_free").apply_overrides(cells=self.CELLS, t_end=0.01)
        assert _traced_peak(lambda: run_hk(spec)) <= self.LIMIT


class TestGridRunMemory:
    """A grid run's memory grows as O(n): the drift is a stencil, not a matrix.

    The peak is a few dozen float64 arrays of about n entries: the measure's
    mass, offsets, edges and centres, the two cutoffs and the taps (at most
    2n - 1) stay live, about 8n; the rule's temporaries on the 2n - 1 tap
    offsets (about 12n) come and go before the first step; one step's
    temporaries in ``_shift_cells`` (a dozen per-cell arrays, three of them
    2n long) are about 13n.  So 32 n float64 bound it with room, while a
    dense drift matrix is 6400 n and even its band alone, n x 559 taps, is
    559 n.
    """

    CELLS = 6400
    LIMIT = 32 * CELLS * 8

    def test_grid_run_peak_is_linear(self):
        # a small run first, so that first-call set-up is not counted
        run_hk(ScenarioSpec.builtin("hk_free").apply_overrides(cells=64, t_end=0.01))
        spec = ScenarioSpec.builtin("hk_free").apply_overrides(cells=self.CELLS, t_end=0.01)
        assert _traced_peak(lambda: run_hk(spec)) <= self.LIMIT
