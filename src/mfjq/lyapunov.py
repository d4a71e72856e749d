"""Moment functionals V[mu] = integral v d mu and their rates of change.

The rate of change of V when mu is transported by a velocity field w is
computed in closed form as integral v'(x) w(x) d mu(x).  The closed form is
validated against a brute-force finite-difference oracle that actually
pushes the measure along the frozen field (see
:func:`lie_derivative_fd_oracle`), which is used only in tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import Measure, as_atoms, moment


@dataclass(frozen=True)
class MomentFunctional:
    """Scalar functional mu -> integral v d mu with explicit derivative v'.

    ``k_bound`` bounds |rate along u*g| by k_bound * ||u||_{L1(mu)}; it is
    sup over the support ball of |v'| times the sup-norm bound of g.
    """

    v: Callable[[np.ndarray], np.ndarray]
    v_prime: Callable[[np.ndarray], np.ndarray]
    k_bound: float

    def __post_init__(self):
        if self.k_bound < 0:
            raise ValueError("k_bound must be nonnegative")


def variance_about(center: float, radius: float) -> MomentFunctional:
    """v(x) = (x - center)^2; k_bound from |v'| <= 2(R + |center|) on B(0, R)
    and a control kernel bounded by 1."""
    c = float(center)
    return MomentFunctional(v=lambda x: (x - c) ** 2,
                            v_prime=lambda x: 2.0 * (x - c),
                            k_bound=2.0 * (radius + abs(c)))


def value(V: MomentFunctional, mu: Measure) -> float:
    return moment(mu, V.v)


def lie_derivative(V: MomentFunctional, field: Callable, mu: Measure) -> float:
    """Closed-form rate of V along a frozen velocity field."""
    return moment(mu, lambda x: np.asarray(V.v_prime(x)) * np.asarray(field(x)))


def rk4_step(x: np.ndarray, field: Callable, h) -> np.ndarray:
    """One classical RK4 step of length h (a scalar or one per point).

    The field must be pointwise: its value at a point depends on that point
    alone, as ``InteractionKernel.field_at``'s does.  Then a point where the
    first stage gives ±0 has k2 = k3 = k4 = k1, so the atoms at rest are not
    re-evaluated: stages 2-4 run on the moving atoms only (a NaN velocity
    counts as moving), and every atom gets the bits of the four-stage formula.
    """
    k1 = np.asarray(field(x))
    # at rest, k1 + 2 k1 + 2 k1 + k1 is k1: a sum of like-signed zeros keeps the sign
    out = x + (h / 6.0) * k1
    # stages 2-4 call the field even with no points, so a step makes four calls
    move = (k1 != 0.0).nonzero()
    x, k1 = x[move], k1[move]
    if np.ndim(h):
        h = h[move]
    k2 = np.asarray(field(x + 0.5 * h * k1))
    k3 = np.asarray(field(x + 0.5 * h * k2))
    k4 = np.asarray(field(x + h * k3))
    out[move] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def _rk4_flow(x: np.ndarray, field: Callable, tau) -> np.ndarray:
    """Four RK4 steps of length tau / 4 along the frozen field.

    ``tau`` is a scalar or one flow time per atom.  When the field at a point
    depends on that point alone, as ``InteractionKernel.field_at`` does, each
    atom's path depends only on its own start and flow time.
    """
    for _ in range(4):
        x = rk4_step(x, field, tau / 4)
    return x


def lie_derivative_fd_oracle(V: MomentFunctional, field: Callable, mu: Measure,
                             tau: float = 1e-4) -> float:
    """Central difference of V along the frozen-field flow (test oracle).

    Atomizes the measure, pushes the atoms forward and backward by tau with
    RK4 (both in one flow of the doubled atoms), and returns
    (V[+tau] - V[-tau]) / (2 tau).  Independent of the closed form it
    validates.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    x, w = as_atoms(mu)
    n = x.size
    ends = _rk4_flow(np.concatenate((x, x)), field, np.repeat((tau, -tau), n))
    vp = float(np.dot(np.asarray(V.v(ends[:n])), w))
    vm = float(np.dot(np.asarray(V.v(ends[n:])), w))
    return (vp - vm) / (2.0 * tau)
