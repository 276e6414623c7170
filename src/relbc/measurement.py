"""Three-outcome {1, 2, perp} POVMs built from the window operator.

Two families are shipped:

* ``support``: M_i = P_{E_i} W_T P_{E_i} with diagonal support projectors.
  Probabilities depend on |psi(k)|^2 only through the symmetric kernel, so
  the family cannot see spectral phases in the infinite-window limit.
* ``state``: M_i = W_T |psi_i><psi_i| W_T.  Phase-sensitive; this is the
  verifier's tool against delayed (time-shifted) states.

Both resolve the identity exactly: M_perp := I - M_1 - M_2.  The elements
are never stored: a POVM keeps its window and its references (``support_refs``
masks or ``state_refs`` states), and ``outcome_dists`` evaluates each
probability as a bilinear form of the window (``window.bilinear_forms``),
for one family and one pair of references at every window of a call in
one form.  A mixed input is passed as its n x r factor F, rho = F F^H.
The dense elements, for brute-force checks on small grids, are built by
the oracle one at a time (``oracle.povm_elements``), which refuses them
past ``oracle.DENSE_MAX_N`` = 4096 nodes; ``Povm.elements`` calls it and
remains only for the benchmark's span annotations (``bench/spans.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import KGrid, SampledState, _read_only, _same_grid, disjoint_supports, overlap
from .window import WindowOperator, _clamp_prob, bilinear_forms, build_window

PERP = 0  # outcome code for the inconclusive channel

FAMILIES = ("support", "state")


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
        _check_family(self.family)

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


def _check_family(family: str):
    """Raise unless ``family`` names one of the ``FAMILIES``."""
    if family not in FAMILIES:
        raise ValueError(f"unknown POVM family {family!r}, expected one of {FAMILIES}")


def support_refs(grid: KGrid, e1, e2) -> tuple[np.ndarray, np.ndarray]:
    """The support family's ``Povm.refs``: read-only 0/1 indicators of the
    intervals E_1 and E_2 on the grid, which ``disjoint_supports`` checks."""
    disjoint_supports([e1, e2])
    inside = ((grid.nodes > lo) & (grid.nodes < hi) for lo, hi in (e1, e2))
    return tuple(_read_only(ind.astype(float)) for ind in inside)


def state_refs(psi1: SampledState, psi2: SampledState) -> tuple[np.ndarray, np.ndarray]:
    """The state family's ``Povm.refs``: the weighted states psi_1, psi_2,
    which must be orthogonal."""
    if abs(overlap(psi1, psi2)) > 1e-8:
        raise ValueError("reference states must be orthogonal")
    return psi1.weighted(), psi2.weighted()


def support_povm(grid: KGrid, e1, e2, T: float) -> Povm:
    """Support-projector family: M_i = P_{E_i} W_T P_{E_i}."""
    return Povm("support", build_window(grid, T), support_refs(grid, e1, e2))


def state_povm(psi1: SampledState, psi2: SampledState, T: float) -> Povm:
    """State-projector family: M_i = W_T |psi_i><psi_i| W_T."""
    return Povm("state", build_window(psi1.grid, T), state_refs(psi1, psi2))


def mixed_density(states) -> np.ndarray:
    """Factor F of the equal mixture rho = (1/m) sum_j |u_j><u_j| = F F^H
    of m states.

    Column j is sqrt(1/m) u_j in the weighted basis, so rho has unit trace.
    """
    states = list(states)
    m = len(states)
    return np.column_stack([math.sqrt(1.0 / m) * s.weighted() for s in states])


def _factor(grid: KGrid, state_or_factor) -> np.ndarray:
    """The n x r factor F of the input (r = 1 for a pure state)."""
    if isinstance(state_or_factor, SampledState):
        if not _same_grid(state_or_factor.grid, grid):
            raise ValueError("state and POVM live on different grids")
        return state_or_factor.weighted()[:, None]
    n = grid.size
    f = np.asarray(state_or_factor)
    if f.ndim != 2 or f.shape[0] != n:
        raise ValueError("density factor must be an n x r array on the POVM grid")
    if f.shape[1] == n:
        raise ValueError(
            "outcome_dist takes the n x r factor F of rho = F F^H, "
            "not an n x n density matrix"
        )
    return f


def outcome_dists(family: str, refs, windows, state_or_factor) -> list[OutcomeDist]:
    """``outcome_dist`` under the POVMs of one family and one pair of
    references (``Povm.refs``) at each of ``windows``, in one form.

    Each window keeps its own clamps and sum check.
    """
    _check_family(family)
    windows = list(windows)
    if not windows:
        return []
    f = _factor(windows[0].grid, state_or_factor)
    tr = float(np.sum(np.abs(f) ** 2))
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"density matrix trace {tr} != 1")
    if family == "support":
        forms = [bilinear_forms(windows, pf, pf) for pf in (ind[:, None] * f for ind in refs)]
        probs = [[float(np.real(np.trace(g))) for g in pair] for pair in zip(*forms)]
    else:
        forms = bilinear_forms(windows, np.column_stack(refs), f)
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
    return outcome_dists(povm.family, povm.refs, [povm.window], state_or_factor)[0]


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
