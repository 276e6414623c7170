"""Three-outcome {1, 2, perp} POVMs built from the window operator.

Two families are shipped:

* ``support``: M_i = P_{E_i} W_T P_{E_i} with diagonal support projectors.
  Probabilities depend on |psi(k)|^2 only through the symmetric kernel, so
  the family cannot see spectral phases in the infinite-window limit.
* ``state``: M_i = W_T |psi_i><psi_i| W_T.  Phase-sensitive; this is the
  verifier's tool against delayed (time-shifted) states.

Both resolve the identity exactly: M_perp := I - M_1 - M_2.  The elements
are never stored: a POVM keeps its window and its two references (support
masks or reference states), and ``outcome_dist`` evaluates each
probability as a bilinear form of the window (``window.bilinear_forms``).
``outcome_dists`` does so for POVMs that differ only in their window, with
one form for all of their windows.  A mixed input is passed as its n x r
factor F, rho = F F^H.  The dense elements, for brute-force checks on
small grids, are built by the oracle one at a time
(``oracle.povm_elements``), which refuses them past ``oracle.DENSE_MAX_N``
= 4096 nodes; ``Povm.elements`` calls it and remains only for the
benchmark's span annotations (``bench/spans.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import KGrid, SampledState, _same_grid, overlap
from .window import WindowOperator, bilinear_forms, build_window

PERP = 0  # outcome code for the inconclusive channel

FAMILIES = ("support", "state")

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
    """{M_1, M_2, M_perp} kept as the window plus two references.

    ``refs`` are the 0/1 indicator vectors of E_1, E_2 (support family) or
    the weighted reference states psi_1, psi_2 (state family), read-only:
    the POVMs of one ``ProtocolContext`` share them.
    """

    family: str
    window: WindowOperator
    refs: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown POVM family {self.family!r}, expected one of {FAMILIES}")

    @property
    def T(self) -> float:
        return self.window.T

    @property
    def grid(self) -> KGrid:
        return self.window.grid

    @property
    def elements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense (M_1, M_2, M_perp), ``tuple(oracle.povm_elements(self))``;
        read only by the benchmark's span annotations (``bench/spans.py``)."""
        from . import oracle
        return tuple(oracle.povm_elements(self))


def support_povm(grid: KGrid, e1, e2, T: float) -> Povm:
    """Support-projector family: M_i = P_{E_i} W_T P_{E_i}."""
    (lo1, hi1), (lo2, hi2) = (map(float, e1), map(float, e2))
    for lo, hi in ((lo1, hi1), (lo2, hi2)):
        if not -math.inf < lo < hi < math.inf:  # NaN fails too
            raise ValueError(f"support interval ({lo!r}, {hi!r}) must be finite and non-empty")
    if max(lo1, lo2) < min(hi1, hi2):
        raise ValueError("support intervals overlap")
    ind1 = ((grid.nodes > lo1) & (grid.nodes < hi1)).astype(float)
    ind2 = ((grid.nodes > lo2) & (grid.nodes < hi2)).astype(float)
    for ind in (ind1, ind2):
        ind.setflags(write=False)
    return Povm(family="support", window=build_window(grid, T), refs=(ind1, ind2))


def state_povm(psi1: SampledState, psi2: SampledState, T: float) -> Povm:
    """State-projector family: M_i = W_T |psi_i><psi_i| W_T."""
    if abs(overlap(psi1, psi2)) > 1e-8:
        raise ValueError("reference states must be orthogonal")
    return Povm(
        family="state",
        window=build_window(psi1.grid, T),
        refs=(psi1.weighted(), psi2.weighted()),
    )


def mixed_density(states) -> np.ndarray:
    """Factor F of the equal mixture rho = (1/m) sum_j |u_j><u_j| = F F^H
    of m states.

    Column j is sqrt(1/m) u_j in the weighted basis, so rho has unit trace.
    """
    states = list(states)
    m = len(states)
    return np.column_stack([math.sqrt(1.0 / m) * s.weighted() for s in states])


def _clamp_prob(p: float, label: str) -> float:
    if p < -_NEG_TOL:
        raise ValueError(f"{label} = {p}: negative beyond quadrature noise")
    return max(p, 0.0)


def _factor(povm: Povm, state_or_factor) -> np.ndarray:
    """The n x r factor F of the input (r = 1 for a pure state)."""
    if isinstance(state_or_factor, SampledState):
        if not _same_grid(state_or_factor.grid, povm.grid):
            raise ValueError("state and POVM live on different grids")
        return state_or_factor.weighted()[:, None]
    n = povm.grid.size
    f = np.asarray(state_or_factor)
    if f.ndim != 2 or f.shape[0] != n:
        raise ValueError("density factor must be an n x r array on the POVM grid")
    if f.shape[1] == n:
        raise ValueError(
            "outcome_dist takes the n x r factor F of rho = F F^H, "
            "not an n x n density matrix"
        )
    return f


def outcome_dists(povms, state_or_factor) -> list[OutcomeDist]:
    """``outcome_dist`` for POVMs that differ only in their window, in one form.

    The POVMs share one family and one pair of references; each window
    keeps its own clamps and sum check.
    """
    povms = list(povms)
    if not povms:
        return []
    first = povms[0]
    for povm in povms[1:]:
        if povm.family != first.family or not all(
            r is r0 or np.array_equal(r, r0) for r, r0 in zip(povm.refs, first.refs)
        ):
            raise ValueError("POVMs of one call must share family and references")
    f = _factor(first, state_or_factor)
    tr = float(np.sum(np.abs(f) ** 2))
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"density matrix trace {tr} != 1")
    windows = [povm.window for povm in povms]
    if first.family == "support":
        forms = [bilinear_forms(windows, pf, pf)
                 for pf in (ind[:, None] * f for ind in first.refs)]
        probs = [[float(np.real(np.trace(g))) for g in pair] for pair in zip(*forms)]
    else:
        forms = bilinear_forms(windows, np.column_stack(first.refs), f)
        probs = [[float(np.sum(np.abs(row) ** 2)) for row in g] for g in forms]
    dists = []
    for p in probs:
        p.append(tr - p[0] - p[1])
        p1, p2, pp = (_clamp_prob(v, lbl) for v, lbl in zip(p, ("p1", "p2", "p_perp")))
        total = p1 + p2 + pp
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
        dists.append(OutcomeDist(p1=p1 / total, p2=p2 / total, p_perp=pp / total))
    return dists


def outcome_dist(povm: Povm, state_or_factor) -> OutcomeDist:
    """Outcome probabilities p_o = Tr(F^H M_o F) for a pure state or a factor F.

    State family: p_i = ||psi_i^H W F||^2.  Support family:
    p_i = Tr((P_i F)^H W (P_i F)), evaluated on E_i only, so a carrier with
    no weight on E_i gives exactly 0.0.  p_perp = Tr(rho) - p1 - p2, with
    Tr(rho) = ||F||_F^2 checked to be 1.
    """
    return outcome_dists([povm], state_or_factor)[0]


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
