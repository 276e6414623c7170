"""Three-outcome {1, 2, perp} POVMs built from the window operator.

Two families are shipped:

* ``support``: M_i = P_{E_i} W_T P_{E_i} with diagonal support projectors.
  Probabilities depend on |psi(k)|^2 only through the symmetric kernel, so
  the family cannot see spectral phases in the infinite-window limit.
* ``state``: M_i = W_T |psi_i><psi_i| W_T.  Phase-sensitive; this is the
  verifier's tool against delayed (time-shifted) states.

Both resolve the identity exactly: M_perp := I - M_1 - M_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import KGrid, SampledState, overlap
from .window import build_window

PERP = 0  # outcome code for the inconclusive channel

_NEG_TOL = 1e-9


@dataclass(frozen=True)
class OutcomeDist:
    p1: float
    p2: float
    p_perp: float

    def __post_init__(self):
        for p in (self.p1, self.p2, self.p_perp):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        if abs(self.p1 + self.p2 + self.p_perp - 1.0) > 1e-8:
            raise ValueError("outcome probabilities must sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p_perp])


@dataclass(frozen=True)
class Povm:
    family: str
    m1: np.ndarray
    m2: np.ndarray
    m_perp: np.ndarray
    T: float
    grid: KGrid

    @property
    def elements(self):
        return (self.m1, self.m2, self.m_perp)


def support_povm(grid: KGrid, e1, e2, T: float) -> Povm:
    """Support-projector family: M_i = P_{E_i} W_T P_{E_i}."""
    (lo1, hi1), (lo2, hi2) = (map(float, e1), map(float, e2))
    if max(lo1, lo2) < min(hi1, hi2):
        raise ValueError("support intervals overlap")
    w = build_window(grid, T)
    ind1 = ((grid.nodes > lo1) & (grid.nodes < hi1)).astype(float)
    ind2 = ((grid.nodes > lo2) & (grid.nodes < hi2)).astype(float)
    m1 = w.matrix * np.outer(ind1, ind1)
    m2 = w.matrix * np.outer(ind2, ind2)
    m_perp = np.eye(grid.size) - m1 - m2
    return Povm(family="support", m1=m1, m2=m2, m_perp=m_perp, T=T, grid=grid)


def state_povm(psi1: SampledState, psi2: SampledState, T: float) -> Povm:
    """State-projector family: M_i = W_T |psi_i><psi_i| W_T."""
    if abs(overlap(psi1, psi2)) > 1e-8:
        raise ValueError("reference states must be orthogonal")
    grid = psi1.grid
    w = build_window(grid, T)
    b1 = w.matrix @ psi1.weighted()
    b2 = w.matrix @ psi2.weighted()
    m1 = np.outer(b1, np.conj(b1))
    m2 = np.outer(b2, np.conj(b2))
    m_perp = np.eye(grid.size) - m1 - m2
    return Povm(family="state", m1=m1, m2=m2, m_perp=m_perp, T=T, grid=grid)


def pure_density(state: SampledState) -> np.ndarray:
    """Rank-one density matrix in the weighted basis."""
    u = state.weighted()
    return np.outer(u, np.conj(u))


def mixed_density(states, weights=None) -> np.ndarray:
    """Convex mixture of pure states; defaults to equal weights (unit trace)."""
    states = list(states)
    if weights is None:
        weights = [1.0 / len(states)] * len(states)
    rho = sum(wt * pure_density(s) for wt, s in zip(weights, states))
    return rho


def _clamp_prob(p: float, label: str) -> float:
    if p < -_NEG_TOL:
        raise ValueError(f"{label} = {p}: negative beyond quadrature noise")
    return max(p, 0.0)


def outcome_dist(povm: Povm, state_or_density) -> OutcomeDist:
    """Outcome probabilities p_o = Tr(rho M_o) for a pure or mixed input."""
    if isinstance(state_or_density, SampledState):
        u = state_or_density.weighted()
        if u.size != povm.grid.size:
            raise ValueError("state dimension does not match the POVM grid")
        probs = [float(np.real(np.vdot(u, m @ u))) for m in povm.elements]
    else:
        rho = np.asarray(state_or_density)
        if rho.shape != (povm.grid.size, povm.grid.size):
            raise ValueError("density matrix dimension does not match the POVM grid")
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"density matrix trace {tr} != 1")
        probs = [float(np.real(np.einsum("ij,ji->", rho, m))) for m in povm.elements]
    p1, p2, pp = (_clamp_prob(p, lbl) for p, lbl in zip(probs, ("p1", "p2", "p_perp")))
    total = p1 + p2 + pp
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return OutcomeDist(p1=p1 / total, p2=p2 / total, p_perp=pp / total)


def sample_outcomes(dists, channel_bits, rng: np.random.Generator) -> np.ndarray:
    """Draw one outcome (1, 2 or PERP) per channel from a single ``rng.random(n)``.

    Channel c meets ``dists[channel_bits[c]]``; its draw r gives 1 when
    r < p1, 2 when r < p1 + p2, PERP otherwise.
    """
    bits = np.asarray(channel_bits, dtype=np.intp)
    p1 = np.array([d.p1 for d in dists])[bits]
    p12 = np.array([d.p1 + d.p2 for d in dists])[bits]
    r = rng.random(bits.size)
    out = np.full(bits.size, PERP, dtype=np.int64)
    out[r < p12] = 2
    out[r < p1] = 1
    return out


def effective_angle(p: float) -> float:
    """Diagnostic angle arccos(1 - p) between effectively non-orthogonal states.

    p = 0 means the states look identical inside the window; p = 1 means
    fully distinguishable (angle pi/2).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    return math.acos(1.0 - p)
