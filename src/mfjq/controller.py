"""Sparse steepest-descent feedback with hysteresis.

The control is a signed mollified bump u = +/- chi^eta_[a,b] acting through
a control kernel g.  At each query the controller either holds the frozen
bump, stays idle, or re-runs a steepest-descent search for the bump whose
slope (the magnitude of the rate of change of the Lyapunov functional along
u*g) is maximal over the admissible parameter set

    |omega(a, b, eta)| = b - a + 2*eta <= c   and   eta >= eta_min(t),

with a hysteresis margin h preventing chattering between near-optimal bumps.

Slopes are evaluated with prefix sums over the sorted atoms (x, w) the caller
passes, so a round of the search costs O((n_atoms + n_candidates) log
n_atoms).  The clips to the admissible set and to [-R, R] make copies of many
grid points; each round scores its distinct candidates only, at most
N_A * N_W * N_ETA.  The coarse round also skips every centre whose window of
width c cannot hold a bump as steep as the best probe bump (a bathtub bound on
the slope), which leaves its winner and the refinement unchanged.

The same bound, taken over one window of width c per atom, gives a ceiling U
on the slope of every strictly admissible bump.  A query whose decision U
already settles (idle with U < phi3, or a frozen bump that no bump below U
can beat by the hysteresis margin) skips its strict search; the decisions
are those of the search.  An idle query with nothing strictly admissible
builds no evaluator at all.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .lyapunov import MomentFunctional
from .measures import Atoms


# ---------------------------------------------------------------------------
# Bump controls
# ---------------------------------------------------------------------------

def bump_1d(a: float, b: float, eta: float, x) -> np.ndarray:
    """Mollified indicator: 1 on [a, b], 0 outside [a-eta, b+eta], linear ramps."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    if a > b:
        raise ValueError("bump requires a <= b")
    x = np.asarray(x, dtype=float)
    left = (x - a + eta) / eta
    right = (-x + b + eta) / eta
    return np.minimum(left, right).clip(0.0, 1.0)


@dataclass(frozen=True)
class BumpParams:
    """The triple (a, b, eta): plateau [a, b] and ramp width eta."""

    a: float
    b: float
    eta: float

    def __post_init__(self):
        for name in ("a", "b", "eta"):
            # a scalar or a one-element array; a longer array raises ValueError
            value = np.asarray(getattr(self, name), dtype=float).item()
            object.__setattr__(self, name, value)
        if self.a > self.b + 1e-15:
            raise ValueError("bump requires a <= b")
        if not self.eta > 0:
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class ActiveControl(BumpParams):
    """The control in force: the bump (a, b, eta) with a sign, on one control field."""

    sign: int
    field_index: int = 0

    def u(self, x) -> np.ndarray:
        return self.sign * bump_1d(self.a, self.b, self.eta, x)


# ---------------------------------------------------------------------------
# Slope evaluation
# ---------------------------------------------------------------------------

class SlopeEvaluator:
    """Signed slope integrals q -> integral q(x) * bump(x) d mu(x) via prefix sums.

    q(x) = v'(x) * g(x) is fixed at construction (atoms and control field
    frozen); each candidate bump then costs O(log n_atoms).  The atoms are
    sorted only when they are out of order; a grid's cell centroids, each in
    its own cell, come sorted.  ``scored`` counts the candidates signed_batch
    has evaluated.
    """

    def __init__(self, atoms: Atoms, g_field: Callable, V: MomentFunctional):
        x, w = atoms
        if (x[1:] < x[:-1]).any():
            order = np.argsort(x, kind="stable")
            x, w = x[order], w[order]
        self.x = x
        qm = np.asarray(V.v_prime(x)) * np.asarray(g_field(x)) * w
        sums = np.empty((4, x.size + 1))
        sums[:, 0] = 0.0
        qm.cumsum(out=sums[0, 1:])
        (x * qm).cumsum(out=sums[1, 1:])
        # prefix sums of the positive and negative parts, for window_bound
        np.maximum(qm, 0.0).cumsum(out=sums[2, 1:])
        np.maximum(-qm, 0.0).cumsum(out=sums[3, 1:])
        self.c0, self.c1, self.p0, self.n0 = sums
        self.scored = 0

    def signed_batch(self, a, b, eta) -> np.ndarray:
        """Signed rate of V along bump(a,b,eta)*g, vectorized over candidates."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        eta = np.asarray(eta, dtype=float)
        x, c0, c1 = self.x, self.c0, self.c1
        lo, hi = a - eta, b + eta
        iL = x.searchsorted(lo, side="left")
        iA = x.searchsorted(a, side="left")
        iB = x.searchsorted(b, side="right")
        iR = x.searchsorted(hi, side="right")
        cA, cB = c0[iA], c0[iB]
        # left ramp, atoms in [a-eta, a): weight (x - a + eta) / eta
        left = ((c1[iA] - c1[iL]) - lo * (cA - c0[iL])) / eta
        # plateau, atoms in [a, b]
        mid = cB - cA
        # right ramp, atoms in (b, b+eta]: weight (b + eta - x) / eta
        right = (hi * (c0[iR] - cB) - (c1[iR] - c1[iB])) / eta
        signed = left + mid + right
        self.scored += signed.size
        return signed

    def window_bound(self, lo, hi, eta_min: float):
        """(bound, allowance): |signed_batch| <= bound + allowance for every
        bump with support in the window [lo, hi] and ramp width >= eta_min.

        A bump takes values in [0, 1], so it collects at most the positive
        part, or the negative part, of q*m over the atoms of its window (the
        bathtub principle, Lieb & Loss, Analysis, Thm 1.14).  The allowance
        covers signed_batch's roundoff: its prefix-sum differences carry
        errors of order n * 1e-16 * sum |q m| * (|x| + |a|) / eta.
        """
        iL = self.x.searchsorted(lo, side="left")
        iR = self.x.searchsorted(hi, side="right")
        bound = np.maximum(self.p0[iR] - self.p0[iL], self.n0[iR] - self.n0[iL])
        reach = max(np.abs(self.x).max(), np.abs(lo).max(), np.abs(hi).max())
        allowance = float(1e-9 * (self.p0[-1] + self.n0[-1]) * (1.0 + reach / eta_min))
        return bound, allowance


# ---------------------------------------------------------------------------
# Controller state machine
# ---------------------------------------------------------------------------

# Search grid: bump centres, plateau widths, ramp widths, refinement rounds.
N_A, N_W, N_ETA, REFINE_ROUNDS = 64, 16, 8, 2


@dataclass(frozen=True)
class ControllerState:
    """Configuration plus the mutable part of the switching state machine."""

    c: float                       # sparsity budget |omega| <= c
    h: float                       # hysteresis parameter in (0, 1)
    radius: float                  # search window [-R, R]
    kappa: float = 1.0             # threshold scale
    eta_floor: float = 0.0         # resolution floor for the ramp width
    active: Optional[ActiveControl] = None

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise ValueError("hysteresis h must lie in (0, 1)")
        if not 0.0 < self.c < np.inf:
            raise ValueError(f"sparsity budget c must be finite and positive, got {self.c}")
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"threshold scale kappa must be finite and positive, got {self.kappa}")

    # Threshold schedule: finite at t = 0, decreasing to 0, with
    # phi_1 < phi_2 < phi_3 at every time.
    def phi1(self, t: float) -> float:
        return 0.5 * self.kappa / (1.0 + t)

    def phi2(self, t: float) -> float:
        return self.kappa / (1.0 + t)

    def phi3(self, t: float) -> float:
        return 2.0 * self.kappa / (1.0 + t)

    def eta_min(self, t: float, strict: bool = False) -> float:
        scale = 2.0 if strict else 1.0
        return max(scale / (self.kappa * (1.0 + t)), self.eta_floor)


@dataclass(frozen=True)
class ControlDecision:
    control: Optional[ActiveControl]
    switched: bool
    slope: float = 0.0            # slope of the control applied, 0 when idle
    current_slope: float = 0.0    # rate at which the bump in force decreased V; < 0 if it raised V
    # at a switch the challenger's slope, else the new bump's; 0 without a switch
    candidate_slope: float = 0.0
    ceiling: float = 0.0          # U: no strictly admissible bump is steeper
    searched_slope: Optional[float] = None  # best strict slope, if the search ran
    # why it switched: "entry" from idle, the active slope fell "below_phi1",
    # or a "challenger" beat the hysteresis margin; None without a switch
    reason: Optional[str] = None
    empty: bool = False           # idle with nothing strictly admissible: nothing evaluated
    scored: int = 0               # candidates the query's slope evaluators scored


def _distinct(v) -> np.ndarray:
    """True at the first entry of each run of equal values along the last axis."""
    keep = np.ones(v.shape, dtype=bool)
    keep[..., 1:] = v[..., 1:] != v[..., :-1]
    return keep


def _grid(centers, etas, w_lo, w_hi, c: float):
    """Each distinct (center, width, eta) candidate once: eta-major, then
    center, then width.

    The N_W widths run evenly from w_lo to w_hi (scalars, or one value per
    eta) and are clipped to the admissible [0, c - 2*eta].  Every axis is
    sorted, so the copies its clip makes are adjacent: one mask over the
    (eta, center, width) product keeps the first of each run; equal etas
    must come with equal width rows.
    """
    lo, hi = np.reshape(w_lo, (-1, 1)), np.reshape(w_hi, (-1, 1))
    # np.linspace written out: given one zero-length row, numpy's array
    # linspace divides before it multiplies on every row, moving last bits
    widths = lo + np.arange(N_W) * ((hi - lo) / (N_W - 1))
    widths[:, -1:] = hi
    widths = widths.clip(0.0, np.maximum(c - 2.0 * etas, 0.0)[:, None])
    keep = (_distinct(etas)[:, None, None] & _distinct(centers)[:, None]
            & _distinct(widths)[:, None, :])
    e, m, w = keep.nonzero()
    return centers[m], widths[e, w], etas[e]


def _tie_floor(smax: float) -> float:
    """The smallest slope that ties smax; it never decreases as smax grows."""
    return smax - max(1e-12, 1e-9 * smax)


def _pick_best(a, b, eta, s_abs) -> int:
    idx = np.flatnonzero(s_abs >= _tie_floor(float(s_abs.max())))
    # deterministic tie-break: lexicographically smallest (a, b, eta)
    return idx[np.lexsort((eta[idx], b[idx], a[idx]))[0]]


def _live_centers(ev: SlopeEvaluator, centers, eta: float, width: float,
                  c: float) -> np.ndarray:
    """The centres whose coarse bumps can still win or tie the coarse round.

    The widest bump at the smallest eta on every centre is a coarse
    candidate, so its best slope lb is a floor for the coarse best.  Every
    coarse bump of centre m lies in [m - c/2, m + c/2]; a centre whose
    window bound stays below _tie_floor(lb) <= _tie_floor(coarse best) holds
    no candidate of the tie set.  When lb is within the allowance (all slopes
    0, say) no bound is below it and every centre is kept.
    """
    a, b = centers - 0.5 * width, centers + 0.5 * width
    lb = float(np.abs(ev.signed_batch(a, b, eta)).max())
    bound, allowance = ev.window_bound(centers - 0.5 * c, centers + 0.5 * c, eta)
    return centers[bound + allowance >= _tie_floor(lb)]


def search_maximizer(evaluators: Sequence[SlopeEvaluator], t: float,
                     state: ControllerState, strict: bool = False):
    """Grid search + local refinement of the slope over the admissible set.

    Returns (control, slope), the control signed to decrease V, or None when
    the admissible set is empty.  Ties are broken toward the lexicographically
    smallest (a, b, eta) and then the smallest field index.
    """
    c, R = state.c, state.radius
    eta_lo = state.eta_min(t, strict)
    if eta_lo > c / 2.0:
        return None
    etas = np.linspace(eta_lo, c / 2.0, N_ETA)
    w_hi = np.maximum(c - 2.0 * etas, 0.0)
    centers = np.linspace(-R, R, N_A)
    dm, dw, de = 2.0 * R / (N_A - 1), c / (N_W - 1), c / 2.0 / (N_ETA - 1)
    best = None  # (slope, field_index, a, b, eta, signed)
    for i, ev in enumerate(evaluators):
        m, w, e = _grid(_live_centers(ev, centers, etas[0], w_hi[0], c), etas,
                        0.0, w_hi, c)
        for round_ in range(REFINE_ROUNDS + 1):
            if round_:  # re-grid one coarse cell around the best candidate
                m_c, w_c, e_c = float(m[k]), float(w[k]), float(e[k])
                m, w, e = _grid(
                    np.linspace(m_c - dm, m_c + dm, N_A).clip(-R, R),
                    np.linspace(e_c - de, e_c + de, N_ETA).clip(eta_lo, c / 2.0),
                    w_c - dw, w_c + dw, c)
            a, b = m - 0.5 * w, m + 0.5 * w
            signed = ev.signed_batch(a, b, e)
            s_abs = np.abs(signed)
            k = _pick_best(a, b, e, s_abs)
            cand = (float(s_abs[k]), i, float(a[k]), float(b[k]), float(e[k]),
                    float(signed[k]))
            if best is None or cand[0] > best[0] + 1e-15:
                best = cand
    if best is None:
        return None
    s, i, a, b, eta, signed = best
    return ActiveControl(a, b, eta, -1 if signed > 0 else 1, i), s


def slope_ceiling(evaluators: Sequence[SlopeEvaluator], t: float,
                  state: ControllerState) -> float:
    """U >= the slope of every strictly admissible bump, on every field; 0 when
    none is admissible.

    A bump's support is at most c wide, so the atoms it covers lie in
    [x_i, x_i + c], x_i the leftmost of them; window_bound over these
    windows, one per atom, bounds its slope.
    """
    eta_lo = state.eta_min(t, strict=True)
    if eta_lo > state.c / 2.0:
        return 0.0
    U = 0.0
    for ev in evaluators:
        bound, allowance = ev.window_bound(ev.x, ev.x + state.c, eta_lo)
        U = max(U, float(bound.max()) + allowance)
    return U


def decide_multi(t: float, atoms: Atoms, state: ControllerState,
                 g_fields: Sequence[Callable], V: MomentFunctional
                 ) -> tuple[ControlDecision, ControllerState]:
    """One controller query on atoms (x, w); at most one field active at any time.

    Idle mode waits until some strictly admissible bump has slope >= phi3(t);
    active mode holds the frozen bump until the rate at which it decreases V
    drops to phi1(t) or a strictly admissible challenger beats it by the
    hysteresis factor 1/(1 - h).  Both exits funnel through a fresh
    steepest-descent search.  The strict search runs only when the ceiling U
    leaves the decision open, and an idle query with nothing strictly
    admissible (U = 0) evaluates nothing.
    """
    ctrl = state.active
    if ctrl is None and state.eta_min(t, strict=True) > state.c / 2.0:
        return ControlDecision(None, False, empty=True), state
    evaluators = [SlopeEvaluator(atoms, g, V) for g in g_fields]
    U = slope_ceiling(evaluators, t, state)
    s_cur, best, reason = 0.0, None, None
    if ctrl is None:
        # U = 0 settles an empty admissible set, so every search that runs finds a bump
        if not U < state.phi3(t):  # U < phi3: no bump can enter
            best = search_maximizer(evaluators, t, state, strict=True)[1]
            reason = "entry" if best >= state.phi3(t) else None
    else:
        # the rate at which the held bump decreases V (0.0 - turns a rate of -0.0 into 0.0)
        ev = evaluators[ctrl.field_index]
        s_cur = 0.0 - ctrl.sign * float(ev.signed_batch(ctrl.a, ctrl.b, ctrl.eta))
        if s_cur <= state.phi1(t):
            reason = "below_phi1"
        elif not s_cur > (1.0 - state.h) * U:  # else no challenger can beat the margin
            best = search_maximizer(evaluators, t, state, strict=True)[1]
            reason = "challenger" if s_cur <= (1.0 - state.h) * best else None
    s, candidate = s_cur, 0.0
    if reason is not None:
        found = search_maximizer(evaluators, t, state, strict=False)
        ctrl, s = None, 0.0
        # kappa > 0 makes phi2 > 0, so an accepted slope has a definite sign
        if found is not None and found[1] >= state.phi2(t):
            ctrl, s = found
        candidate = best if reason == "challenger" else s
        state = replace(state, active=ctrl)
    return (ControlDecision(ctrl, reason is not None, slope=s, current_slope=s_cur,
                            candidate_slope=candidate, ceiling=U, searched_slope=best,
                            reason=reason, scored=sum(ev.scored for ev in evaluators)),
            state)
