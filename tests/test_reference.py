"""The free HK run on the pinned grid against a particle reference.

The reference starts from the same initial cell masses, split into four
equal atoms per cell, and moves the atoms with RK4.  Its HK field uses
windowed prefix sums over the sorted atoms (O(N log N) per stage), so the
whole run to t = 50 takes seconds instead of the minutes of a dense O(N^2)
field.  The reference is binned onto the grid before clusters are detected,
exactly as the grid run is.
"""
import numpy as np
import pytest

from mfjq.kernels import HKKernel
from mfjq.measures import GridMeasure
from mfjq.scenarios import (ScenarioSpec, detect_clusters,
                            make_initial_measure, run_hk)

ATOMS_PER_CELL = 4
REF_DT = 0.02


def hk_field_sorted(x, y, w, eps):
    """sum_j w_j phi(|y_j - x|) (y_j - x) at the points x, for sorted atoms y.

    On each piece of phi the summand is a polynomial of degree <= 2 in y, so
    each window sum is a combination of prefix sums of w, w*y and w*y^2.
    """
    s0, s1, s2 = (np.concatenate(([0.0], np.cumsum(w * y ** p))) for p in range(3))

    def window(lo, hi):
        i, j = np.searchsorted(y, lo), np.searchsorted(y, hi)
        return s0[j] - s0[i], s1[j] - s1[i], s2[j] - s2[i]

    a = 1.0 + 1.0 / eps
    c0, c1, _ = window(x - 1.0, x + 1.0)
    v = c1 - x * c0                                   # phi = 1
    for lo, hi, sign in ((x + 1.0, x + 1.0 + eps, -1.0),
                         (x - 1.0 - eps, x - 1.0, 1.0)):
        r0, r1, r2 = window(lo, hi)                   # phi = a - |d| / eps
        v += a * (r1 - x * r0) + sign * (r2 - 2.0 * x * r1 + x * x * r0) / eps
    return v


def particle_reference(mu0: GridMeasure, eps: float, t_end: float):
    keep = mu0.cell_mass > 0
    sub = (np.arange(ATOMS_PER_CELL) + 0.5) / ATOMS_PER_CELL
    y = (mu0.edges[:-1][keep][:, None] + sub * mu0.dx).ravel()
    w = np.repeat(mu0.cell_mass[keep] / ATOMS_PER_CELL, ATOMS_PER_CELL)
    h = REF_DT
    for _ in range(int(round(t_end / h))):
        order = np.argsort(y, kind="stable")
        y, w = y[order], w[order]
        f = lambda x: hk_field_sorted(x, y, w, eps)
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y, w


def bin_atoms(mu0: GridMeasure, y, w) -> GridMeasure:
    idx = np.clip(((y - mu0.x_min) // mu0.dx).astype(int), 0, mu0.n_cells - 1)
    return GridMeasure(mu0.x_min, mu0.x_max,
                       np.bincount(idx, weights=w, minlength=mu0.n_cells))


def test_windowed_field_matches_dense():
    rng = np.random.default_rng(3)
    y = np.sort(rng.uniform(0.0, 6.0, 300))
    w = rng.uniform(0.1, 1.0, 300)
    w /= w.sum()
    x = np.concatenate((rng.uniform(-1.0, 7.0, 200), y[:50] + 1.02, y[50:100] - 1.0))
    dense = HKKernel(0.05).interaction().field_at(x, y, w)
    np.testing.assert_allclose(hk_field_sorted(x, y, w, 0.05), dense,
                               rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def free_runs():
    spec = ScenarioSpec.builtin("hk_free")
    mu0 = make_initial_measure(spec)
    log, _ = run_hk(spec)
    grid = log.snapshots[-1][1]
    assert log.snapshots[-1][0] == pytest.approx(spec.t_end)
    y, w = particle_reference(mu0, spec.epsilon, spec.t_end)
    return dict(spec=spec, grid=grid, ref=bin_atoms(mu0, y, w), atoms=(y, w))


def test_cluster_masses_match_reference(free_runs):
    # tolerance: a third of the mass of one initial cell (about 6e-3), and one
    # cell width for the centres; the reference itself moves the masses by up
    # to 5e-4 between four and eight atoms per cell
    spec = free_runs["spec"]
    grid, ref = (detect_clusters(free_runs[k], gap=1.0 + spec.epsilon,
                                 floor=spec.cluster_mass_floor)
                 for k in ("grid", "ref"))
    assert grid.n_clusters == ref.n_clusters == 3
    for g, r in zip(grid.clusters, ref.clusters):
        assert g.mass == pytest.approx(r.mass, abs=2e-3)
        assert g.center == pytest.approx(r.center, abs=free_runs["grid"].dx)


def test_minor_cluster_mass_matches_reference(free_runs):
    # the minor cluster between the two left clusters: the reference holds
    # 7.2e-3 (7.4e-3 with eight atoms per cell); a donor-cell scheme at this
    # resolution holds 1.8e-2
    y, w = free_runs["atoms"]
    ref = float(w[(y > 3.0) & (y < 5.0)].sum())
    grid = free_runs["grid"]
    inside = (grid.centers > 3.0) & (grid.centers < 5.0)
    assert float(grid.cell_mass[inside].sum()) == pytest.approx(ref, abs=1.5e-3)
