"""Pairwise interaction kernels and the induced nonlocal velocity fields.

A kernel is a pairwise rule (x, y) -> velocity; the field it induces on a
measure is x -> integral of rule(x, y) d mu(y), a weighted sum over the atoms
of :func:`~mfjq.measures.as_atoms` (one per cell, at its centroid, on a grid).
The grid drift uses :meth:`InteractionKernel.grid_stencil` on the uniform
cell midpoints instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import Measure, SupportBall, as_atoms

# Entries per row block of field_matrix: 2**13 float64, a 64 KiB temporary
# that the allocator recycles instead of mapping fresh pages for each block.
BLOCK_ENTRIES = 2 ** 13


@dataclass(frozen=True)
class InteractionKernel:
    """Pairwise rule with declared regularity constants.

    ``rule(x, y)`` must accept broadcastable float arrays.  ``lipschitz_L``
    and ``bound_M`` are the declared Lipschitz constant and sup-norm bound of
    the induced field.
    """

    rule: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_L: float
    bound_M: float

    def field_at(self, x_eval: np.ndarray, atoms_x: np.ndarray,
                 atoms_w: np.ndarray) -> np.ndarray:
        """The field at each point of x_eval.

        Each point's sum over the atoms runs on its own, so its value does not
        depend on which other points are evaluated in the same call (a BLAS
        matrix-vector product sums a row differently by its place in a block
        of rows).
        """
        x_eval = np.asarray(x_eval, dtype=float)
        if atoms_x.size == 0:
            return np.zeros_like(x_eval)
        return np.einsum("...j,j->...", self.rule(x_eval[..., None], atoms_x), atoms_w)

    def field_matrix(self, x_eval: np.ndarray, atoms_x: np.ndarray) -> np.ndarray:
        """Dense rule matrix K with field = K @ weights (positions fixed).

        No run builds it: grid runs apply :meth:`grid_stencil`.  It is the
        dense reference the tests check the stencil against, and the kernel
        matrix the benchmark's set-up probe builds.

        Built a block of rows at a time, so the rule's temporaries stay at
        most BLOCK_ENTRIES wide however large K is; every entry is the rule
        of the same two numbers, so K is bit-identical to the unblocked rule.
        """
        x_eval = np.asarray(x_eval, dtype=float)
        out = np.empty((x_eval.size, np.size(atoms_x)))
        rows = max(1, BLOCK_ENTRIES // max(out.shape[1], 1))
        for i in range(0, x_eval.size, rows):
            out[i:i + rows] = self.rule(x_eval[i:i + rows, None], atoms_x)
        return out

    def grid_stencil(self, dx: float, n: int) -> np.ndarray:
        """Taps k_m = rule(0, m dx) for m = -(n-1) .. n-1, zero ends trimmed.

        Assumes the rule depends on y - x only, as HK's does; then the field
        of cell masses m_j on a uniform grid of n cells with spacing dx is
        v_i = sum_j k_{j-i} m_j.  The taps have odd length 2M + 1, with k_0
        at index M; an odd rule gives taps that are exactly odd, since
        (-m) dx = -(m dx) in floating point.
        """
        k = self.rule(0.0, np.arange(1 - n, n) * dx)
        nz = k.nonzero()[0]
        M = int(np.abs(nz - (n - 1)).max()) if nz.size else 0
        return k[n - 1 - M:n + M]


@dataclass(frozen=True)
class ConstantKernel(InteractionKernel):
    """Rule identically equal to ``value``; field is ``value`` times total mass."""

    value: float = 1.0

    def field_at(self, x_eval, atoms_x, atoms_w):
        return np.full(np.shape(x_eval), self.value * float(atoms_w.sum()))

    def field_matrix(self, x_eval, atoms_x):
        return np.full((len(x_eval), len(atoms_x)), self.value)


def constant_kernel(value: float = 1.0) -> ConstantKernel:
    return ConstantKernel(rule=lambda x, y: np.full(np.broadcast(x, y).shape, value),
                          lipschitz_L=0.0, bound_M=abs(value), value=value)


@dataclass(frozen=True)
class HKKernel:
    """Bounded-confidence attraction with a Lipschitz ramp of width epsilon.

    The confidence weight is 1 for distances below 1, falls linearly to 0 on
    [1, 1+epsilon] and vanishes beyond.
    """

    epsilon: float = 0.05

    def __post_init__(self):
        # phi's ramp forms 1/eps; an infinite one makes inf - inf = NaN taps
        if not (self.epsilon > 0 and math.isfinite(1.0 / float(self.epsilon))):
            raise ValueError(f"mollification width epsilon must be positive with a finite "
                             f"reciprocal, got {self.epsilon}")

    def phi(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        eps = self.epsilon
        with np.errstate(over="ignore"):  # a tiny eps sends r / eps to inf, which clips to 0
            ramp = -r / eps + 1.0 + 1.0 / eps
        return np.where(r < 1.0, 1.0, ramp.clip(0.0, 1.0))

    def interaction(self) -> InteractionKernel:
        eps = self.epsilon

        def rule(x, y):
            d = y - x
            return self.phi(d) * d

        # sup over the ramp of |d/dr (phi(r) r)| is (1+eps)/eps + 1
        L = 1.0 + (1.0 + eps) / eps
        return InteractionKernel(rule=rule, lipschitz_L=L, bound_M=1.0 + eps)


def make_kernel(name: str, epsilon: float = 0.05) -> InteractionKernel:
    """The drift kernel a run config names; "hk" is the only one."""
    if name != "hk":
        raise KeyError(f"unknown kernel {name!r}")
    return HKKernel(epsilon).interaction()


def nonlocal_field(kernel: InteractionKernel, mu: Measure) -> Callable[[np.ndarray], np.ndarray]:
    """Pure closure x -> integral rule(x, y) d mu(y) over a measure snapshot."""
    ax, aw = as_atoms(mu)
    return lambda x: kernel.field_at(x, ax, aw)


def ball_cutoff(x, ball: SupportBall, taper: float) -> np.ndarray:
    """Lipschitz cutoff: 1 inside B(0, R - taper), 0 outside B(0, R)."""
    r = np.abs(np.asarray(x, dtype=float))
    return ((ball.radius - r) / taper).clip(0.0, 1.0)
