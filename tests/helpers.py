"""Helpers that only the tests use: criteria 7 and 10 and their unit tests.

The package itself never atomizes a measure just to score one bump, moves a
measure rigidly, or co-evolves two initial data, so these live here.
"""
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from mfjq.controller import BumpParams, SlopeEvaluator
from mfjq.kernels import InteractionKernel
from mfjq.lyapunov import MomentFunctional
from mfjq.measures import (GridMeasure, Measure, ParticleMeasure, SupportBall,
                           as_atoms, wasserstein_1d)
from mfjq.solver import SolverConfig, TrajectoryLog, evolve


def slope(mu: Measure, g_field: Callable, V: MomentFunctional,
          params: BumpParams) -> float:
    """|rate of V along bump(params) * g| for a frozen measure snapshot."""
    ev = SlopeEvaluator(as_atoms(mu), g_field, V)
    return abs(float(ev.signed_batch(params.a, params.b, params.eta)))


def translate(mu: Measure, a: float) -> Measure:
    """Exact translation by a (grid coordinates shift, atoms move)."""
    if isinstance(mu, GridMeasure):
        return replace(mu, x_min=mu.x_min + a, x_max=mu.x_max + a)
    return ParticleMeasure(mu.x + a, mu.weights)


def stability_probe(mu0: Measure, nu0: Measure, f: Optional[InteractionKernel],
                    config: SolverConfig, ball: SupportBall,
                    V: MomentFunctional) -> dict:
    """Co-evolve two initial data under the drift kernel f and fit the
    exponential growth rate of W_1."""
    log_mu = evolve(mu0, f, config, ball, V)
    log_nu = evolve(nu0, f, config, ball, V)
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
