"""Canned desk-scale experiments.

* free / controlled kinetic bounded-confidence opinion dynamics on [0, 10]
  (clustering without control, consensus with the sparse feedback), and
* the mass-concentration demo for a steepest-descent gain limited by how
  much of the crowd it may touch (population budget), which piles mass up
  into a near-Dirac in finite time.

Scenario parameters live in JSON files shipped with the package
(``scenario_specs/``); every run is deterministic given (seed, config).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .controller import ControllerState
from .kernels import make_kernel
from .lyapunov import variance_about
from .measures import GridMeasure, ParticleMeasure, SupportBall, _grid_geometry, barycenter
from .rng import default_rng
from .solver import SolverConfig, TrajectoryLog, _is_finite_number, evolve

BUILTIN_SCENARIOS = ("hk_free", "hk_ctrl_h02", "hk_ctrl_h05", "hk_ctrl_h09",
                     "concentration")


# Fields only a grid run reads; the concentration demo rejects any but their defaults.
GRID_ONLY_KEYS = ("interval", "domain", "n_cells", "radius", "epsilon", "kernel",
                  "kernel_params", "cluster_mass_floor", "initial_density", "controller")


@dataclass
class ScenarioSpec:
    name: str
    seed: int = 42
    interval: tuple = (0.0, 10.0)     # support of the random initial density
    domain: tuple = (-12.0, 12.0)     # grid extent (contains the support ball)
    n_cells: int = 400
    radius: float = 12.0
    epsilon: float = 0.05
    dt: float = 0.01
    t_end: float = 50.0
    kernel: str = "hk"
    kernel_params: dict = field(default_factory=dict)
    controller: Optional[dict] = None
    snapshot_every: Optional[float] = 5.0
    cluster_mass_floor: float = 1e-3
    concentration: Optional[dict] = None
    initial_density: Optional[list] = None  # explicit cell masses (overrides seed)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown spec keys: {', '.join(unknown)}")
        if "name" not in d:
            raise ValueError("spec has no name")
        d = dict(d)
        for key in ("interval", "domain"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ScenarioSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def builtin(cls, name: str) -> "ScenarioSpec":
        if name not in BUILTIN_SCENARIOS:
            raise KeyError(f"unknown scenario {name!r}")
        text = resources.files("mfjq.scenario_specs").joinpath(f"{name}.json").read_text()
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("interval", "domain"):
            if isinstance(d[key], tuple):
                d[key] = list(d[key])
        return d

    def apply_overrides(self, **kw) -> "ScenarioSpec":
        d = self.to_dict()
        ctrl_keys = {"h", "c", "kappa"}
        for k, v in kw.items():
            if v is None:
                continue
            if k in ctrl_keys:
                if d.get("controller") is None:
                    raise ValueError(f"override {k!r} needs a controlled scenario")
                d["controller"][k] = v
            elif k in ("cells", "seed") and d.get("concentration") is not None:
                raise ValueError(f"override {k!r} has no effect on the concentration demo")
            elif k == "seed" and d.get("initial_density") is not None:
                raise ValueError("override 'seed' has no effect on a spec with initial_density")
            elif k == "cells":
                d["n_cells"] = v
            else:
                if k not in d:
                    raise KeyError(f"unknown override {k!r}")
                d[k] = v
        return ScenarioSpec.from_dict(d)

    def validate(self) -> "ScenarioSpec":
        """Raise ValueError or KeyError on a config no run can use.  A spec with
        a ``concentration`` dict is the particle demo, any other a grid run."""
        SolverConfig(self.dt, self.t_end, self.snapshot_every)  # time grid and snapshot rules
        if not _is_int(self.seed, 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.concentration is not None:
            default = ScenarioSpec(self.name)
            ignored = [k for k in GRID_ONLY_KEYS if getattr(self, k) != getattr(default, k)]
            if ignored:
                raise ValueError(f"the concentration demo does not use {', '.join(ignored)}")
            if self.snapshot_every is None:
                raise ValueError("the concentration demo reports from its snapshots; "
                                 "snapshot_every must be set")
            conc = self.concentration
            if "c" not in conc or not set(conc) <= {"c", "n_particles", "n_intervals"}:
                raise ValueError("concentration takes the key c and optionally "
                                 f"n_particles, n_intervals; got {', '.join(sorted(conc))}")
            # the demo drives mass 1 - c inside [0, 1] to the point 1 - c
            c = conc["c"]
            if not (_is_finite_number(c) and 0 < c < 1):
                raise ValueError(f"concentration c must be a number in (0, 1), got {c!r}")
            for key in ("n_particles", "n_intervals"):
                n = conc.get(key, 1)
                if not _is_int(n, 1):
                    raise ValueError(f"concentration {key} must be an integer >= 1, got {n!r}")
            t_max = default_epsilon_schedule(c)[-1][0]
            if self.t_end > t_max:
                raise ValueError(f"t_end {self.t_end} is past the end {t_max:.6g} "
                                 "of the concentration demo's gain schedule")
            return self
        if not _is_int(self.n_cells, 1):
            raise ValueError(f"n_cells must be an integer >= 1, got {self.n_cells!r}")
        if self.initial_density is not None and len(self.initial_density) != self.n_cells:
            raise ValueError(f"initial_density has {len(self.initial_density)} cells, "
                             f"n_cells is {self.n_cells}")
        for key in ("domain", "interval"):
            pair = getattr(self, key)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(_is_finite_number(v) for v in pair)):
                raise ValueError(f"{key} must be two finite numbers, got {pair!r}")
            lo, hi = pair
            if not hi > lo:
                raise ValueError(f"{key} [{lo}, {hi}] must run from low to high")
        if self.initial_density is not None:
            try:
                make_initial_measure(self)
            except ValueError as exc:
                raise ValueError(f"initial_density: {exc}") from None
        elif not _interval_cells(self).any():
            raise ValueError(f"interval {list(self.interval)} holds no cell centre "
                             f"of the {self.n_cells}-cell grid on {list(self.domain)}")
        ball = SupportBall(self.radius)
        # the zero-flux faces sit where the tapered fields vanish, and mass that
        # leaves the ball is seen only while the ball lies on the grid
        if not (self.domain[0] <= -ball.radius and ball.radius <= self.domain[1]):
            raise ValueError(f"domain {list(self.domain)} must contain the support ball "
                             f"[{-ball.radius}, {ball.radius}]")
        if self.initial_density is None and not (
                self.domain[0] <= self.interval[0] and self.interval[1] <= self.domain[1]):
            raise ValueError(f"interval {list(self.interval)} must lie inside "
                             f"domain {list(self.domain)}")
        if self.kernel_params:
            raise ValueError("kernel_params must be empty (the hk kernel reads only "
                             f"epsilon), got {self.kernel_params!r}")
        if not (_is_finite_number(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be a finite number > 0, got {self.epsilon!r}")
        make_kernel(self.kernel, epsilon=self.epsilon)
        # a cell holds at most the total mass 1, so a floor of 1 finds no cluster
        if not (_is_finite_number(self.cluster_mass_floor) and 0 <= self.cluster_mass_floor < 1):
            raise ValueError("cluster_mass_floor must be a number in [0, 1), "
                             f"got {self.cluster_mass_floor!r}")
        if self.controller is not None:
            _controller_state(self)
        return self


@dataclass(frozen=True)
class Cluster:
    center: float
    mass: float
    width: float


@dataclass(frozen=True)
class ClusterReport:
    clusters: tuple
    consensus: bool

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def detect_clusters(mu: GridMeasure, gap: float, floor: float) -> ClusterReport:
    """Group above-floor cells into clusters separated by at least ``gap``.

    ``floor`` is a per-cell mass floor.  Consensus means one cluster carries
    at least 99% of the mass.
    """
    if not gap > 0:
        raise ValueError("gap must be positive")
    centers = mu.centers
    idx = np.flatnonzero(mu.cell_mass > floor)
    clusters = []
    if idx.size:
        breaks = np.flatnonzero(np.diff(centers[idx]) >= gap)
        start = 0
        for stop in list(breaks + 1) + [idx.size]:
            cells = idx[start:stop]
            m = mu.cell_mass[cells].sum()
            center = float(np.dot(centers[cells], mu.cell_mass[cells]) / m)
            width = float(centers[cells[-1]] - centers[cells[0]] + mu.dx)
            clusters.append(Cluster(center, float(m), width))
            start = stop
    consensus = any(cl.mass >= 0.99 for cl in clusters)
    return ClusterReport(tuple(clusters), consensus)


def _is_int(v, lo: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _interval_cells(spec: ScenarioSpec) -> np.ndarray:
    """Which cells of the spec's grid have their centre in ``interval``."""
    centers = _grid_geometry(*spec.domain, spec.n_cells)[1]
    lo, hi = spec.interval
    return (centers >= lo) & (centers <= hi)


def make_initial_measure(spec: ScenarioSpec) -> GridMeasure:
    """Uniform-random cell masses on the initial interval, fixed by the seed.

    The draws are those of numpy's ``default_rng(spec.seed).random(n_cells)``,
    reproduced by :mod:`mfjq.rng`.
    """
    x_min, x_max = spec.domain
    if spec.initial_density is not None:
        return GridMeasure(x_min, x_max, np.asarray(spec.initial_density))
    inside = _interval_cells(spec)
    rng = default_rng(spec.seed)
    mass = np.where(inside, rng.random(spec.n_cells), 0.0)
    return GridMeasure(x_min, x_max, mass / mass.sum())


def _controller_state(spec: ScenarioSpec) -> ControllerState:
    cfg = spec.controller
    if sorted(cfg) != ["c", "h", "kappa"]:
        raise ValueError(f"controller takes exactly the keys c, h, kappa; got "
                         f"{', '.join(sorted(cfg)) or 'none'}")
    # The ramps must span a couple of cells or the face-velocity upwinding
    # sees a bump that is zero at every edge near its boundary.
    dx = (spec.domain[1] - spec.domain[0]) / spec.n_cells
    return ControllerState(c=cfg["c"], h=cfg["h"], radius=spec.radius,
                           kappa=cfg["kappa"], eta_floor=2.0 * dx)


def run_hk(spec: ScenarioSpec, *, on_snapshot: Optional[Callable] = None
           ) -> tuple[TrajectoryLog, ClusterReport]:
    """Bounded-confidence evolution; reports the opinion clusters at t_end.

    With ``spec.controller`` set, the sparse feedback runs, and the log's
    meta records ``consensus_time``, the first time V drops below 1% of
    V(0).  ``on_snapshot`` is passed to :func:`evolve`.
    """
    mu0 = make_initial_measure(spec)
    V = variance_about(barycenter(mu0))
    state = None if spec.controller is None else _controller_state(spec)
    config = SolverConfig(dt=spec.dt, t_end=spec.t_end, snapshot_every=spec.snapshot_every)
    log = evolve(mu0, make_kernel(spec.kernel, epsilon=spec.epsilon), config,
                 SupportBall(spec.radius), V, controller=state, on_snapshot=on_snapshot)
    if spec.controller is not None:
        below = np.flatnonzero(log.V < 0.01 * log.V[0])
        log.meta["consensus_time"] = float(log.t[below[0]]) if below.size else None
    report = detect_clusters(log.final, gap=1.0 + spec.epsilon,
                             floor=spec.cluster_mass_floor)
    return log, report


# ---------------------------------------------------------------------------
# Mass concentration under a population budget
# ---------------------------------------------------------------------------

def default_epsilon_schedule(c: float, n_intervals: int = 20) -> list:
    """Piecewise schedule [(t_i, eps_i)] up to 0.95 c: eps_i active until t_i,
    eps_i = (c - t_i)/2, so each ramp width stays below c - t."""
    ts = np.linspace(0.0, 0.95 * c, n_intervals + 1)[1:]
    return [(float(t), float((c - t) / 2.0)) for t in ts]


def _smoothstep(y: np.ndarray) -> np.ndarray:
    y = y.clip(0.0, 1.0)
    return y * y * (3.0 - 2.0 * y)


def concentration_gain(c: float, eps: float):
    """Gain equal to -1 on [1-c+eps, 1], 0 left of 1-c and right of 1+eps,
    with smooth ramps of width eps on both sides."""

    def u(x):
        x = np.asarray(x, dtype=float)
        left = _smoothstep((x - (1.0 - c)) / eps)
        right = _smoothstep((1.0 + eps - x) / eps)
        return -np.minimum(left, right)

    return u


def run_concentration_demo(spec: ScenarioSpec, *, on_snapshot: Optional[Callable] = None
                           ) -> tuple[TrajectoryLog, dict]:
    """Drive a uniform density on [0, 1] toward chi_[0,1-c] + c*delta_{1-c}.

    The gain acts only where at most mass c of the crowd sits; shrinking the
    ramp width along the schedule concentrates that mass at 1 - c.  The spec's
    ``concentration`` dict gives c, ``n_particles`` (default 5000) and
    ``n_intervals`` of the schedule (default 20); the run steps by ``dt`` to
    ``t_end``.  The report's series are computed from each snapshot as it is
    taken, every ``snapshot_every`` from t = 0.  The log keeps no snapshot;
    each one is also passed to ``on_snapshot(t, mu)`` when that is given.
    """
    conc = spec.concentration
    c = conc["c"]
    n_particles = conc.get("n_particles", 5000)
    epsilons = default_epsilon_schedule(c, conc.get("n_intervals", 20))
    times = np.array([t for t, _ in epsilons])
    eps_vals = [e for _, e in epsilons]

    def eps_at(t):
        i = min(int(np.searchsorted(times, t, side="left")), len(eps_vals) - 1)
        return eps_vals[i]

    def prescribed(t):
        return concentration_gain(c, eps_at(t))

    x0 = (np.arange(n_particles) + 0.5) / n_particles
    mu0 = ParticleMeasure(x0, np.full(n_particles, 1.0 / n_particles))
    V = variance_about(0.0)
    config = SolverConfig(dt=spec.dt, t_end=spec.t_end,
                          snapshot_every=spec.snapshot_every, log_every=10)
    snap_t, omega_mass, window_mass, left_density = [], [], [], []
    target = 1.0 - c

    def record(t, mu):
        x = mu.x
        eps = eps_at(t)
        snap_t.append(t)
        omega_mass.append(float(mu.weights[(x >= target) & (x <= 1.0 + eps)].sum()))
        window_mass.append(float(
            mu.weights[(x >= target - 0.02) & (x <= target + 0.02)].sum()))
        sel = (x >= 0.0) & (x <= target - 0.02)
        left_density.append(float(mu.weights[sel].sum() / (target - 0.02)))
        if on_snapshot is not None:
            on_snapshot(t, mu)

    log = evolve(mu0, None, config, SupportBall(2.0), V, prescribed_control=prescribed,
                 on_snapshot=record)
    report = dict(t=np.array(snap_t), omega_mass=np.array(omega_mass),
                  window_mass=np.array(window_mass),
                  left_density=np.array(left_density), c=c)
    return log, report
