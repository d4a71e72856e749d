import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from mfjq.measures import (GridMeasure, ParticleMeasure, as_atoms, barycenter,
                           moment, sup_norm, support_bounds, total_mass,
                           wasserstein_1d, write_csv)

from helpers import translate


def random_particles(rng, n, span=5.0):
    x = rng.uniform(-span, span, n)
    w = rng.uniform(0.1, 1.0, n)
    return ParticleMeasure(x[:, None], w / w.sum())


def wasserstein_lp(mu, nu, p=1.0):
    """Brute-force optimal transport between atom lists via linprog."""
    xa, wa = as_atoms(mu)
    xb, wb = as_atoms(nu)
    n, m = xa.size, xb.size
    cost = np.abs(xa[:, None] - xb[None, :]) ** p
    # row-sum and column-sum equality constraints on the transport plan
    A = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        A.append(row.ravel())
    for j in range(m):
        col = np.zeros((n, m))
        col[:, j] = 1.0
        A.append(col.ravel())
    res = linprog(cost.ravel(), A_eq=np.array(A),
                  b_eq=np.concatenate([wa, wb]), bounds=(0, None),
                  method="highs")
    assert res.success
    return res.fun ** (1.0 / p)


class TestGridMeasure:
    def test_basic_geometry(self):
        mu = GridMeasure(0.0, 1.0, np.full(4, 0.25))
        assert mu.dx == pytest.approx(0.25)
        np.testing.assert_allclose(mu.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(mu.centers, [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(mu.density, 1.0)

    @given(x_min=st.floats(-100.0, 100.0), width=st.floats(1e-3, 200.0),
           n=st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_shared_read_only_geometry(self, x_min, width, n):
        """edges and centers are the linspace / arange formulas bit for bit,
        one read-only pair for every measure on a grid."""
        x_max = x_min + width
        mu = GridMeasure(x_min, x_max, np.full(n, 1.0 / n))
        dx = (x_max - x_min) / n
        assert mu.edges.tobytes() == np.linspace(x_min, x_max, n + 1).tobytes()
        assert mu.centers.tobytes() == (x_min + (np.arange(n) + 0.5) * dx).tobytes()
        other = GridMeasure(x_min, x_max, mu.cell_mass.copy())
        assert other.edges is mu.edges and other.centers is mu.centers
        with pytest.raises(ValueError):
            mu.edges[0] = 1.0
        with pytest.raises(ValueError):
            mu.centers[-1] = 1.0

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            GridMeasure(0.0, 1.0, np.full(4, 0.3))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            GridMeasure(0.0, 1.0, np.array([0.6, 0.5, -0.1, 0.0]))

    def test_uniform_exact_overlap(self):
        mu = GridMeasure.uniform(-1.0, 1.0, -2.0, 2.0, 8)
        # cells fully inside [-1,1] carry 1/4 each, outside zero
        np.testing.assert_allclose(
            mu.cell_mass, [0, 0, 0.25, 0.25, 0.25, 0.25, 0, 0], atol=1e-15)

    def test_sup_norm(self):
        mu = GridMeasure(0.0, 2.0, np.array([0.75, 0.25]))
        assert sup_norm(mu) == pytest.approx(0.75)

    def test_centroid_offsets(self):
        mu = GridMeasure(0.0, 2.0, np.array([0.75, 0.25]), np.array([0.5, -0.25]))
        np.testing.assert_allclose(mu.centroids, [1.0, 1.25])
        assert barycenter(mu) == pytest.approx(0.75 * 1.0 + 0.25 * 1.25)
        # moments are taken over the centroids; translation keeps the offsets
        assert moment(as_atoms(mu), lambda x: x) == pytest.approx(0.75 * 1.0 + 0.25 * 1.25)
        assert barycenter(translate(mu, 2.0)) == pytest.approx(barycenter(mu) + 2.0)
        np.testing.assert_array_equal(GridMeasure(0.0, 2.0, mu.cell_mass).offset, 0.0)

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            GridMeasure(0.0, 2.0, np.array([0.75, 0.25]), np.array([0.6, 0.0]))
        with pytest.raises(ValueError):
            GridMeasure(0.0, 2.0, np.array([0.75, 0.25]), np.zeros(3))


class TestParticleMeasure:
    def test_dirac(self):
        mu = ParticleMeasure.dirac(1.5)
        assert mu.x.shape == (1,)
        assert mu.x[0] == 1.5
        assert total_mass(mu) == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            ParticleMeasure(np.zeros((3, 1)), np.array([0.5, 0.5]))

    def test_x_requires_1d(self):
        # an (n, 1) column is flattened; anything wider is rejected
        np.testing.assert_array_equal(
            ParticleMeasure(np.array([[0.5], [1.0]]), np.array([0.5, 0.5])).x, [0.5, 1.0])
        with pytest.raises(ValueError):
            ParticleMeasure(np.zeros((1, 2)), np.array([1.0]))


def reference_csv(path, header, rows) -> None:
    """The csv-module writer that ``write_csv`` must reproduce byte for byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" for v in row])


CSV_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
                     -1e-310, 1e300, -1e300, 1e-300, -1e-300]),
    st.integers(-10**20, 10**20),
)
# more rows than write_csv formats in one block
MANY_ROWS = np.random.default_rng(3).normal(size=(2500, 3)) * 1e5
MANY_ROWS[::97, 1] = np.nan


def constant_column(value, n):
    """n > 1024 rows: one column is ``value`` throughout, one mixes 0.0 and
    -0.0 (equal as numbers, not as bits, so not constant), one varies."""
    return (["const", "zeros", "k"],
            [[value, -0.0 if k % 7 == 3 else 0.0, k] for k in range(n)])


CONSTANT_COLUMNS = st.tuples(CSV_NUMBERS, st.integers(1025, 2100)).map(
    lambda vn: constant_column(*vn))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(CSV_NUMBERS, min_size=k, max_size=k), max_size=12)
    .map(lambda rows: ([f"c{i}" for i in range(k)], rows))) | CONSTANT_COLUMNS)
@example((["a", "b", "c"], MANY_ROWS.tolist()))
@example(constant_column(-0.0, 1025))
@example(constant_column(float("nan"), 1500))
@example(constant_column(float("-inf"), 2049))
def test_write_csv_matches_csv_module(case):
    header, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        write_csv(ours, header, rows)
        reference_csv(ref, header, rows)
        assert ours.read_bytes() == ref.read_bytes()


def test_as_atoms_drops_zero_mass():
    mu = GridMeasure(0.0, 1.0, np.array([0.5, 0.0, 0.5, 0.0]))
    x, w = as_atoms(mu)
    assert x.size == 2
    assert w.sum() == pytest.approx(1.0)


def test_moment_midpoint_quadrature():
    mu = GridMeasure.uniform(-1.0, 1.0, -1.0, 1.0, 400)
    # second moment of uniform on [-1,1] is 1/3; midpoint rule is O(dx^2)
    assert moment(as_atoms(mu), lambda x: x * x) == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_support_bounds_grid():
    mu = GridMeasure(0.0, 1.0, np.array([0.0, 0.5, 0.5, 0.0]))
    lo, hi = support_bounds(mu)
    assert (lo, hi) == (0.25, 0.75)


class TestWasserstein:
    def test_two_diracs(self):
        assert wasserstein_1d(ParticleMeasure.dirac(0.0),
                              ParticleMeasure.dirac(3.0)) == pytest.approx(3.0)

    @given(a=st.floats(-10, 10), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_translation_identity(self, a, seed):
        rng = np.random.default_rng(seed)
        mu = random_particles(rng, int(rng.integers(2, 30)))
        assert wasserstein_1d(mu, translate(mu, a)) == pytest.approx(
            abs(a), abs=1e-12)

    def test_translation_identity_grid(self):
        mu = GridMeasure.uniform(0.0, 1.0, -2.0, 2.0, 64)
        assert wasserstein_1d(mu, translate(mu, 0.7)) == pytest.approx(
            0.7, abs=1e-12)

    @given(seed=st.integers(0, 10_000), p=st.sampled_from([1.0, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_against_lp_oracle(self, seed, p):
        rng = np.random.default_rng(seed)
        mu = random_particles(rng, int(rng.integers(2, 20)))
        nu = random_particles(rng, int(rng.integers(2, 20)))
        assert wasserstein_1d(mu, nu, p) == pytest.approx(
            wasserstein_lp(mu, nu, p), abs=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        mus = [random_particles(rng, int(rng.integers(2, 15))) for _ in range(3)]
        d01 = wasserstein_1d(mus[0], mus[1])
        d12 = wasserstein_1d(mus[1], mus[2])
        d02 = wasserstein_1d(mus[0], mus[2])
        assert d02 <= d01 + d12 + 1e-12

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(3)
        mu = random_particles(rng, 10)
        assert wasserstein_1d(mu, mu) == 0.0

    def test_order_validation(self):
        mu = ParticleMeasure.dirac(0.0)
        with pytest.raises(ValueError):
            wasserstein_1d(mu, mu, p=0.5)

