"""Time evolution of a measure under a nonlocal drift plus localized control.

One loop, :func:`evolve`, serves both backends: the control fields, the
controller's slopes and V are integrals against the atoms of the step's start
(on a grid, the cell centroids and masses of :func:`~mfjq.measures.as_atoms`,
formed once) and are frozen over the step.  The controller is queried once
per step, and its bump is held piecewise constant between switch events.

Grid measures carry each cell's mass and the centroid of that mass.  The
interaction drift alone is evaluated on the uniform midpoints x_i, v_i =
sum_j K(x_j - x_i) m_j; there it is a correlation of the masses with the
kernel's taps k_m = K(m dx) (:func:`stencil_velocity`), a band as wide as the
kernel's reach, so no n x n matrix is built.  The drift moves each cell's
content rigidly; the parts are re-binned with their own centroids.  Mass and
positivity are exact, and since sum_i m_i v_i = 0 for an odd kernel the first
moment is conserved to roundoff, so an isolated cluster keeps its barycenter.
The control field is evaluated at the cell edges and upwinded at the faces
(monotone, with the density's growth bounded by the discrete divergence).
Particle measures advance along characteristics with RK4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .controller import ControlDecision, ControllerState, decide_multi
from .kernels import InteractionKernel, ball_cutoff
from .lyapunov import MomentFunctional, rk4_step, value
from .measures import (GridMeasure, Measure, ParticleMeasure, SupportBall, as_atoms,
                       support_bounds, sup_norm, total_mass, write_csv)


class SupportEscapeError(RuntimeError):
    """Raised when the evolving measure leaves the dynamics' support ball."""


@dataclass(frozen=True)
class SolverConfig:
    """The time grid: t_end is a whole number of steps dt, and every log_every-th is logged."""

    dt: float
    t_end: float
    snapshot_every: Optional[float] = None
    log_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end {self.t_end} is shorter than one step dt={self.dt}")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ValueError(f"t_end {self.t_end} is not a whole number of steps dt={self.dt}")
        if not (type(self.log_every) is int and self.log_every >= 1):
            raise ValueError(f"log_every must be an integer >= 1, got {self.log_every!r}")


CSV_COLUMNS = ["t", "V", "slope", "control_a", "control_b", "control_eta",
               "control_sign", "mass", "sup_norm", "supp_lo", "supp_hi"]
# the log's columns: the CSV's, then the discrete divergence bound of the step
# that starts at the row (NaN on a particle run), which check_linf_bound reads
LOG_COLUMNS = CSV_COLUMNS + ["div_sup"]


# Counts of the work a run did, in meta.json's "perf" record.  Every controller
# query is settled in one of four ways: skipped (idle, nothing admissible), by
# the ceiling U, by a strict search, or by the active slope falling to phi1.
# candidates_scored counts every candidate bump whose slope was evaluated.  The
# record also keeps max_best_over_ceiling, the largest best / U over the strict
# searches (at most 1; None when no strict search ran).
PERF_COUNTS = ("cfl_substeps", "controller_queries", "strict_searches",
               "settled_by_ceiling", "idle_queries_skipped", "candidates_scored")


@dataclass
class TrajectoryLog:
    dt: float
    dx: float
    switches: list = field(init=False, default_factory=list)  # one dict per switch
    ceiling_gaps: list = field(init=False, default_factory=list)  # best - U per search
    snapshots: list = field(init=False, default_factory=list)  # (t, mu) unless streamed
    final: Optional[Measure] = field(init=False, default=None)  # the measure at t_end
    meta: dict = field(init=False, default_factory=dict)
    perf: dict = field(init=False, default_factory=lambda: dict.fromkeys(PERF_COUNTS, 0)
                       | {"max_best_over_ceiling": None})
    # the logged steps fill the first _n rows; the buffer doubles when full
    _buf: np.ndarray = field(init=False, repr=False,
                             default_factory=lambda: np.empty((64, len(LOG_COLUMNS))))
    _n: int = field(init=False, repr=False, default=0)

    def append(self, t, V, slope, ctrl, mass, sup, lo, hi, div_sup=float("nan")):
        a = b = eta = float("nan")
        sign = 0
        if ctrl is not None:
            a, b, eta = ctrl.params.a, ctrl.params.b, ctrl.params.eta
            sign = ctrl.sign
        if self._n == len(self._buf):
            self._buf = np.concatenate([self._buf, np.empty_like(self._buf)])
        self._buf[self._n] = (t, V, slope, a, b, eta, sign, mass, sup, lo, hi, div_sup)
        self._n += 1

    @property
    def rows(self) -> np.ndarray:
        """The logged steps, one float row of CSV_COLUMNS each (a view)."""
        return self._buf[:self._n, :len(CSV_COLUMNS)]

    def record_decision(self, t: float, decision: ControlDecision) -> None:
        """Count a controller query by how it was settled; log its switch."""
        perf = self.perf
        perf["controller_queries"] += 1
        perf["candidates_scored"] += decision.scored
        if decision.switched:
            self.switches.append(dict(t=t, reason=decision.reason,
                                      current_slope=decision.current_slope,
                                      candidate_slope=decision.candidate_slope))
        if decision.searched_slope is not None:
            perf["strict_searches"] += 1
            self.ceiling_gaps.append(decision.searched_slope - decision.ceiling)
            # a strict search runs only when U > phi1(t) > 0
            ratio = decision.searched_slope / decision.ceiling
            perf["max_best_over_ceiling"] = max(ratio, perf["max_best_over_ceiling"] or 0.0)
        elif decision.empty:
            perf["idle_queries_skipped"] += 1
        elif decision.reason != "below_phi1":
            perf["settled_by_ceiling"] += 1

    def column(self, name: str) -> np.ndarray:
        return self._buf[:self._n, LOG_COLUMNS.index(name)]

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    @property
    def V(self) -> np.ndarray:
        return self.column("V")

    @property
    def n_switches(self) -> int:
        return len(self.switches)

    def to_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, self.rows)


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def _shift_cells(mass: np.ndarray, offset: np.ndarray,
                 shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move each cell's content rigidly by ``shift`` cells and re-bin it.

    The content of a cell is the uniform block of its mass that is centred at
    its centroid and as wide as the cell allows.  A block is at most one cell
    wide, so it lands on at most two cells; each part brings its own
    centroid, so mass and first moment carry over exactly.
    """
    n = mass.size
    src = mass.nonzero()[0]
    m, off = mass[src], offset[src]
    half = np.maximum(0.5 - np.abs(off), 0.0)
    centre = off + shift[src]                # relative to the source cell
    left, right = centre - half, centre + half
    k = np.floor(left + 0.5)                 # cell that receives the left end
    face = k + 0.5                           # right face of that cell
    m_right = m * ((right - face) / np.maximum(2.0 * half, 1e-300)).clip(0.0, 1.0)
    parts = np.concatenate((m - m_right, m_right))
    # centroids of the two parts, relative to the cell each lands in
    offs = np.concatenate((0.5 * (left + np.minimum(right, face)) - k,
                           0.5 * (face + right) - (k + 1.0)))
    dest = np.concatenate((src + k, src + k + 1.0)).astype(np.intp).clip(0, n - 1)
    new_mass = np.bincount(dest, parts, n)
    moment = np.bincount(dest, parts * offs, n)
    new_off = np.divide(moment, new_mass, out=np.zeros(n), where=new_mass > 0.0)
    return new_mass, new_off.clip(-0.5, 0.5)


def _upwind_substep(mass: np.ndarray, offset: np.ndarray, v_edges: np.ndarray,
                    dt: float, dx: float) -> tuple[np.ndarray, np.ndarray]:
    rho = mass / dx
    # upwind density at interior faces; boundary fluxes are zero (the
    # dynamics vanish there, and zeroing them makes conservation exact)
    v = v_edges[1:-1]
    rho_up = np.where(v > 0.0, rho[:-1], rho[1:])
    flux = np.zeros(mass.size + 1)
    flux[1:-1] = v * rho_up
    new_mass = mass - dt * (flux[1:] - flux[:-1])
    # outflow leaves with the cell's centroid; inflow enters at the face
    out = dt * (np.maximum(flux[1:], 0.0) - np.minimum(flux[:-1], 0.0))
    moment = (offset * (mass - out)
              - 0.5 * dt * (np.maximum(flux[:-1], 0.0) + np.minimum(flux[1:], 0.0)))
    new_off = np.divide(moment, new_mass, out=np.zeros(mass.size), where=new_mass > 0.0)
    return new_mass, new_off.clip(-0.5, 0.5)


CFL_MAX = 0.9  # a sub-step of step_grid moves mass at most this many cells


def stencil_velocity(mass: np.ndarray, taps: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """The drift v_i = cut_i * sum_j taps[M + j - i] mass_j, M = taps.size // 2.

    ``taps`` come from :meth:`InteractionKernel.grid_stencil`; the band may be
    wider than the grid.  The work is O(n_cells * taps.size).
    """
    M = taps.size // 2
    return cut * np.convolve(mass, taps[::-1])[M:M + mass.size]


def step_grid(mu: GridMeasure, field: np.ndarray, dt: float, *,
              drift: Optional[tuple[np.ndarray, np.ndarray]] = None,
              drift_velocity: Optional[np.ndarray] = None,
              perf: Optional[dict] = None) -> GridMeasure:
    """One finite-volume step; sub-divides internally to honor the CFL bound.

    ``field`` holds the velocity at the n_cells + 1 cell edges; its flux is
    upwinded at the faces.  ``drift`` is an optional stencil ``(taps, cut)``:
    odd-length taps and a cutoff per cell, so that cell i moves with velocity
    ``stencil_velocity(cell_mass, taps, cut)[i]``, re-evaluated every
    sub-step, and its content is shifted rigidly.  When the taps are odd (an
    odd kernel) the drift conserves ``barycenter(mu)`` to roundoff while the
    mass lies where the cutoff is 1.  ``drift_velocity`` is that velocity for
    mu.cell_mass when the caller has it already.  The sub-steps taken are
    added to ``perf["cfl_substeps"]`` when ``perf`` is given.
    """
    v_edges = np.asarray(field, dtype=float)
    if v_edges.shape != (mu.n_cells + 1,):
        raise ValueError("edge velocity array has wrong shape")
    mass, offset = mu.cell_mass, mu.offset
    vmax = float(np.abs(v_edges).max())
    if drift is not None:
        taps, cut = (np.asarray(a, dtype=float) for a in drift)
        if taps.ndim != 1 or taps.size % 2 == 0:
            raise ValueError("drift taps must be a 1-D array of odd length")
        if cut.shape != (mu.n_cells,):
            raise ValueError("drift cutoff must hold one value per cell")
        w = stencil_velocity(mass, taps, cut) if drift_velocity is None else drift_velocity
        vmax = max(vmax, float(np.abs(w).max()))
    n_sub = max(1, math.ceil(vmax * dt / (CFL_MAX * mu.dx))) if vmax > 0 else 1
    if perf is not None:
        perf["cfl_substeps"] += n_sub
    h = dt / n_sub
    for j in range(n_sub):
        if drift is not None:
            if j:
                w = stencil_velocity(mass, taps, cut)
            mass, offset = _shift_cells(mass, offset, (h / mu.dx) * w)
        if v_edges.any():
            mass, offset = _upwind_substep(mass, offset, v_edges, h, mu.dx)
    return GridMeasure(mu.x_min, mu.x_max, mass, offset)


def step_particles(mu: ParticleMeasure, field: Callable, dt: float) -> ParticleMeasure:
    """Advance every atom one RK4 step along the frozen field; weights unchanged."""
    return ParticleMeasure(rk4_step(mu.x, field, dt), mu.weights)


# ---------------------------------------------------------------------------
# Full evolution
# ---------------------------------------------------------------------------

@dataclass
class Dynamics:
    """Drift kernel, control kernels, optional feedback or prescribed gain."""

    f_kernel: Optional[InteractionKernel]
    g_kernels: Sequence[InteractionKernel] = ()
    controller: Optional[ControllerState] = None
    # prescribed_control(t) -> u(x); applied through g_kernels[0]
    prescribed_control: Optional[Callable[[float], Callable]] = None


def _check_support(mu: Measure, ball: SupportBall, tol: float) -> tuple[float, float]:
    lo, hi = support_bounds(mu)
    if lo < -ball.radius - tol or hi > ball.radius + tol:
        raise SupportEscapeError(
            f"support [{lo:.4g}, {hi:.4g}] escaped B(0, {ball.radius})")
    return lo, hi


def _log_meta(log: TrajectoryLog, dynamics: Dynamics, config: SolverConfig,
              ball: SupportBall) -> None:
    L = M = 0.0
    kernels = [k for k in (dynamics.f_kernel, *dynamics.g_kernels) if k is not None]
    if kernels:
        L = max(k.lipschitz_L for k in kernels)
        M = max(k.bound_M for k in kernels)
    log.meta.update(dict(L=L, M=M, theta=config.t_end, radius=ball.radius,
                         dt=config.dt))


def evolve(mu0: Measure, dynamics: Dynamics, config: SolverConfig,
           ball: SupportBall, V: MomentFunctional, *,
           on_snapshot: Optional[Callable[[float, Measure], None]] = None) -> TrajectoryLog:
    """Evolve mu0 to t_end, logging diagnostics every ``log_every`` steps.

    A snapshot is taken every ``snapshot_every`` from t = 0.  Each one goes to
    ``on_snapshot(t, mu)`` as it is taken when that is given, so the log keeps
    none of them; otherwise it is appended to ``log.snapshots``.
    ``log.final`` is the measure at t_end either way.

    Fields are tapered to zero over the outer tenth of the ball.  Raises
    :class:`SupportEscapeError` if mass leaves B(0, R) beyond one cell width
    (grid) or 1e-9 (particles).
    """
    grid = isinstance(mu0, GridMeasure)
    mu = mu0
    taper = ball.radius / 10.0
    f = dynamics.f_kernel
    drift = None
    if grid:
        edges = mu.edges
        if f is not None:
            # the drift moves cell contents with velocities at the midpoints
            drift = (f.grid_stencil(mu.dx, mu.n_cells),
                     ball_cutoff(mu.centers, ball, taper))

    state = dynamics.controller
    log = TrajectoryLog(dt=config.dt, dx=mu.dx if grid else 0.0)
    _log_meta(log, dynamics, config, ball)
    if on_snapshot is None:
        def on_snapshot(t, snap):
            log.snapshots.append((t, snap))
    n_steps = int(round(config.t_end / config.dt))
    last_snap = -math.inf
    t = 0.0
    u_ctrl = u_e = None  # the held bump and its values at the edges
    for k in range(n_steps + 1):
        # a grid step atomizes once, for its fields, the controller and V; a particle
        # field reads every particle, the controller and V those with mass
        ax, aw = atoms = as_atoms(mu) if grid else (mu.x, mu.weights)
        g_fields = [
            (lambda x, g=g: g.field_at(x, ax, aw) * ball_cutoff(x, ball, taper))
            for g in dynamics.g_kernels
        ]

        ctrl, slope_now, u_fn, g_index = None, 0.0, None, 0
        if state is not None:
            decision, state = decide_multi(t, atoms if grid else as_atoms(mu), state, g_fields, V)
            log.record_decision(t, decision)
            ctrl, slope_now = decision.control, decision.slope
            if ctrl is not None:
                u_fn, g_index = ctrl.u, ctrl.field_index
        elif dynamics.prescribed_control is not None:
            u_fn = dynamics.prescribed_control(t)

        if grid:  # the drift has its own stencil; the edge field is the control alone
            w_drift = None if drift is None else stencil_velocity(mu.cell_mass, *drift)
            if u_fn is None:
                v_e = np.zeros(edges.size)
            else:
                if ctrl is None or ctrl is not u_ctrl:
                    u_ctrl, u_e = ctrl, np.asarray(u_fn(edges), dtype=float)
                v_e = u_e * g_fields[g_index](edges)
        else:
            def velocity(x):  # f[mu] + u g[mu]
                v = (np.zeros_like(np.asarray(x, dtype=float)) if u_fn is None
                     else np.asarray(u_fn(x), dtype=float) * g_fields[g_index](x))
                return v if f is None else f.field_at(x, ax, aw) * ball_cutoff(x, ball, taper) + v

        if k % config.log_every == 0 or k == n_steps:
            lo, hi = _check_support(mu, ball, mu.dx + 1e-9 if grid else 1e-9)
            sup = div = float("nan")
            if grid:
                sup = sup_norm(mu)
                # the two velocities the step uses: drift at midpoints, control at edges
                div = np.abs(v_e[1:] - v_e[:-1]).max()
                if w_drift is not None:
                    div += np.abs(w_drift[1:] - w_drift[:-1]).max()
                div /= mu.dx
            log.append(t, value(V, atoms if grid else as_atoms(mu)), slope_now, ctrl,
                       total_mass(mu), sup, lo, hi, div)
        every = config.snapshot_every
        if every is not None and t - last_snap >= every - 1e-12:
            on_snapshot(t, mu)
            last_snap = t
        if k == n_steps:
            log.final = mu
            break
        if grid:
            mu = step_grid(mu, v_e, config.dt, drift=drift, drift_velocity=w_drift,
                           perf=log.perf)
        else:
            mu = step_particles(mu, velocity, config.dt)
        t = (k + 1) * config.dt
    return log


# ---------------------------------------------------------------------------
# Runtime checks
# ---------------------------------------------------------------------------

def check_linf_bound(log: TrajectoryLog) -> dict:
    """Discrete Gronwall audit of the density sup-norm along a grid run.

    Checks, at every logged step, sup[k+1] <= sup[k] * (1 + dt * divsup[k])
    with relative slack 5*(dx + dt), and the a-priori global bound
    exp(theta * (2L + M * theta)) * sup[0] in dimension 1.  Returns a
    report; never raises.
    """
    sup = log.column("sup_norm")
    div = log.column("div_sup")
    dt_log = np.diff(log.t)
    slack = 5.0 * (log.dx + log.dt)
    bound = sup[:-1] * (1.0 + dt_log * div[:-1]) * (1.0 + slack)
    bad = sup[1:] > bound
    violations = list(zip(log.t[1:][bad].tolist(), sup[1:][bad].tolist(),
                          bound[bad].tolist()))
    m = log.meta
    theta = m.get("theta", float(log.t[-1]))
    # compare in log space: the a-priori constant easily overflows a float
    log_bound = theta * (2.0 * m.get("L", 0.0) + m.get("M", 0.0) * theta)
    with np.errstate(divide="ignore"):
        global_ok = bool(np.all(np.log(sup) <= log_bound + math.log(sup[0]) + 1e-9))
    return dict(ok=not violations and global_ok, violations=violations,
                global_bound_ok=global_ok, slack=slack)


def stability_probe(mu0: Measure, nu0: Measure, dynamics: Dynamics,
                    config: SolverConfig, ball: SupportBall,
                    V: MomentFunctional) -> dict:
    """Co-evolve two initial data and fit the exponential growth rate of W_1."""
    from .measures import wasserstein_1d

    log_mu = evolve(mu0, dynamics, config, ball, V)
    log_nu = evolve(nu0, dynamics, config, ball, V)
    times = np.array([t for t, _ in _resnap(log_mu)])
    w1 = np.array([wasserstein_1d(m, n, 1.0)
                   for (_, m), (_, n) in zip(_resnap(log_mu), _resnap(log_nu))])
    mask = w1 > 0
    if mask.sum() >= 2:
        ts, ys = times[mask], np.log(w1[mask])
        A = np.vstack([ts, np.ones_like(ts)]).T
        coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
        rate = float(coef[0])
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else float(1.0 - (res[0] if res.size else 0.0) / ss_tot)
    else:
        rate, r2 = 0.0, 1.0
    return dict(t=times, w1=w1, rate=rate, r_squared=r2)


def _resnap(log: TrajectoryLog):
    if not log.snapshots:
        raise ValueError("stability probe needs snapshot_every set in the config")
    return log.snapshots
