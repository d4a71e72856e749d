"""Compactly supported probability measures on the line.

Two representations are used throughout:

* :class:`GridMeasure` -- cell masses on a uniform 1D grid (finite-volume
  convention: storing masses, not point densities, makes conservation exact
  by construction), each with the centroid of the mass inside its cell.
* :class:`ParticleMeasure` -- a weighted empirical measure.

:func:`as_atoms` says where a measure's mass sits: at each cell's centroid on
a grid, at the particles otherwise.  Moments, the barycenter and the 1D
p-Wasserstein distance (through quantile functions) are taken over those
atoms; the sup-norm reads the piecewise-constant density.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

_NEG_TOL = 1e-12


@dataclass(frozen=True)
class SupportBall:
    """Closed ball B(0, R) outside which all dynamics vanish."""

    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < np.inf:
            raise ValueError(f"support ball radius must be finite and positive, got {self.radius}")


@dataclass(frozen=True)
class GridMeasure:
    """Probability measure with density piecewise constant on a uniform grid.

    ``cell_mass[i]`` is the mass in the cell [x_min + i*dx, x_min + (i+1)*dx].
    ``offset[i]`` is the centroid of that mass relative to the cell midpoint,
    in units of dx, in [-1/2, 1/2]; it defaults to 0.  The grid transport
    carries it, and :func:`as_atoms` puts each cell's mass at its centroid,
    so every moment is taken over the state the scheme holds.  The density
    ignores it.
    """

    x_min: float
    x_max: float
    cell_mass: np.ndarray
    offset: Optional[np.ndarray] = None

    def __post_init__(self):
        m = np.asarray(self.cell_mass, dtype=float)
        object.__setattr__(self, "cell_mass", m)
        off = np.zeros_like(m) if self.offset is None else np.asarray(self.offset, dtype=float)
        object.__setattr__(self, "offset", off)
        if off.shape != m.shape:
            raise ValueError("offset must have one entry per cell")
        if not (np.abs(off) <= 0.5 + 1e-9).all():
            raise ValueError("centroid offsets must lie in [-1/2, 1/2]")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if m.ndim != 1 or m.size == 0:
            raise ValueError("cell_mass must be a nonempty 1D array")
        if m.min() < -_NEG_TOL:
            raise ValueError(f"negative cell mass {m.min():.3e}")
        if not abs(m.sum() - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"total mass {m.sum()!r} is not 1")

    @property
    def n_cells(self) -> int:
        return self.cell_mass.size

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def edges(self) -> np.ndarray:
        """The n_cells + 1 cell edges; read-only, shared by every measure on
        this grid."""
        return _grid_geometry(self.x_min, self.x_max, self.n_cells)[0]

    @property
    def centers(self) -> np.ndarray:
        """The cell midpoints; read-only, shared by every measure on this grid."""
        return _grid_geometry(self.x_min, self.x_max, self.n_cells)[1]

    @property
    def centroids(self) -> np.ndarray:
        return self.centers + self.offset * self.dx

    @property
    def density(self) -> np.ndarray:
        return self.cell_mass / self.dx

    @classmethod
    def uniform(cls, lo: float, hi: float, x_min: float, x_max: float,
                n_cells: int) -> "GridMeasure":
        """Uniform density on [lo, hi], binned onto the grid (exact overlaps)."""
        edges = np.linspace(x_min, x_max, n_cells + 1)
        overlap = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)
        s = overlap.sum()
        if s <= 0:
            raise ValueError("interval does not intersect the grid")
        return cls(x_min, x_max, overlap / s)

    def to_csv(self, path) -> None:
        write_csv(path, ("x", "density"), np.column_stack((self.centers, self.density)))


@dataclass(frozen=True)
class ParticleMeasure:
    """Weighted empirical measure sum_i w_i delta_{x_i} on the line."""

    x: np.ndarray        # shape (n,); an (n, 1) column is flattened
    weights: np.ndarray  # shape (n,)

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.ndim == 2 and x.shape[1] == 1:
            x = x[:, 0]
        if x.ndim != 1:
            raise ValueError(f"positions must have shape (n,) or (n, 1), got {x.shape}")
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "weights", w)
        if x.shape != w.shape:
            raise ValueError("positions and weights length mismatch")
        if w.min() < -_NEG_TOL:
            raise ValueError(f"negative weight {w.min():.3e}")
        if not abs(w.sum() - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"total mass {w.sum()!r} is not 1")

    @classmethod
    def dirac(cls, x: float) -> "ParticleMeasure":
        return cls(np.array([float(x)]), np.array([1.0]))

    def to_csv(self, path) -> None:
        write_csv(path, ("x", "weight"), np.column_stack((self.x, self.weights)))


Measure = Union[GridMeasure, ParticleMeasure]
Atoms = tuple[np.ndarray, np.ndarray]  # positions and weights, as as_atoms gives them


@lru_cache(maxsize=16)
def _grid_geometry(x_min: float, x_max: float, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """(edges, centers) of a uniform grid, built once and frozen.

    A run steps through many measures on one grid; they share these arrays,
    which are read-only because every caller gets the same ones.
    """
    edges = np.linspace(x_min, x_max, n_cells + 1)
    centers = x_min + (np.arange(n_cells) + 0.5) * ((x_max - x_min) / n_cells)
    edges.flags.writeable = False
    centers.flags.writeable = False
    return edges, centers


def write_csv(path, header, rows) -> None:
    """Write a header and rows of numbers, each number as ``%.12g``.

    The lines end in CRLF, as those of the ``csv`` module do.  A column whose
    values are all bitwise equal (so 0.0 and -0.0 differ, and NaNs must share
    their payload) is formatted once, as literal text of the line template;
    only the other columns are formatted row by row.
    """
    values = np.asarray(rows, dtype=float).reshape(-1, len(header))
    bits = values.view(np.int64)
    # column by column: numpy reduces axis 0 of a 2-D array through iteration
    # buffers, which raised the concentration demo's peak RSS
    const = [len(c) > 0 and c.min() == c.max() for c in bits.T]
    line = ",".join("%.12g" % v if c else "%.12g"
                    for v, c in zip(values[:1].ravel(), const)) + "\r\n"
    vary = ~np.array(const, dtype=bool)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        # a block of rows at a time, so that a long file is never held whole
        for start in range(0, len(values), 1024):
            block = values[start:start + 1024, vary]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def total_mass(mu: Measure) -> float:
    if isinstance(mu, GridMeasure):
        return float(mu.cell_mass.sum())
    return float(mu.weights.sum())


def as_atoms(mu: Measure) -> Atoms:
    """1D atomization: (positions, weights), zero-mass atoms dropped.

    A grid measure puts one atom per cell at the centroid of its mass.  The
    centroids lie inside their cells, so they are sorted.
    """
    grid = isinstance(mu, GridMeasure)
    x, w = (mu.centroids, mu.cell_mass) if grid else (mu.x, mu.weights)
    keep = w > 0
    return x[keep], w[keep]


def moment(atoms: Atoms, v: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of v against the atoms (x, w) of a measure (see :func:`as_atoms`)."""
    x, w = atoms
    return float(np.dot(np.asarray(v(x), dtype=float), w))


def barycenter(mu: Measure) -> float:
    """First moment: the integral of x against mu."""
    return moment(as_atoms(mu), lambda x: x)


def sup_norm(mu: GridMeasure) -> float:
    """L-infinity norm of the piecewise-constant density."""
    if not isinstance(mu, GridMeasure):
        raise TypeError("sup_norm is defined for grid measures")
    return float(mu.cell_mass.max() / mu.dx)


def support_bounds(mu: Measure) -> tuple[float, float]:
    """Leftmost / rightmost location carrying more than mass 1e-14."""
    if isinstance(mu, GridMeasure):
        idx = (mu.cell_mass > 1e-14).nonzero()[0]
        if idx.size == 0:
            return mu.x_min, mu.x_min
        e = mu.edges
        return float(e[idx[0]]), float(e[idx[-1] + 1])
    x = mu.x
    keep = mu.weights > 1e-14
    if not keep.any():
        return 0.0, 0.0
    return float(x[keep].min()), float(x[keep].max())


def _quantile_segments(mu: Measure, nu: Measure):
    """Common refinement of the two quantile partitions.

    Returns (ds, xq_mu, xq_nu): segment lengths in [0, 1] and the constant
    quantile values of each measure on each segment.
    """
    out = []
    for m in (mu, nu):
        x, w = as_atoms(m)
        order = np.argsort(x, kind="stable")
        x, w = x[order], w[order]
        cum = np.cumsum(w)
        cum[-1] = 1.0  # kill accumulated roundoff at the top
        out.append((x, cum))
    (xa, ca), (xb, cb) = out
    levels = np.union1d(ca, cb)
    # index of the atom active on segment (levels[k-1], levels[k]]
    ia = np.searchsorted(ca, levels, side="left")
    ib = np.searchsorted(cb, levels, side="left")
    ia = np.minimum(ia, xa.size - 1)
    ib = np.minimum(ib, xb.size - 1)
    ds = np.diff(np.concatenate(([0.0], levels)))
    return ds, xa[ia], xb[ib]


def wasserstein_1d(mu: Measure, nu: Measure, p: float = 1.0) -> float:
    """p-Wasserstein distance via quantile functions.

    Exact for pairs of particle measures (common refinement of the quantile
    partitions); grid measures are atomized at their cell centroids first.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    ds, qa, qb = _quantile_segments(mu, nu)
    return float(np.dot(ds, np.abs(qa - qb) ** p) ** (1.0 / p))
