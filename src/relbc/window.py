"""Time-window (concentration) operator with the sinc kernel.

W_T has kernel sin((k - k')T) / (pi (k - k')), the unique normalization for
which 0 <= W_T <= I and W_T -> I as T -> infinity.  Its quadratic form on a
normalized state is the detection probability inside the window (-T, T):
the fraction of the wavepacket's energy the apparatus has causal access to.

The operator is held as (grid, T, center) and never stored as a matrix.
Every probability is a bilinear form A^H W B (``bilinear_form``), which
evaluates kernel entries only between the nonzero rows of A and of B, one
row block of at most ``_BLOCK_ENTRIES`` entries at a time, so its memory
stays O(n) on any grid.  The dense matrix (``WindowOperator.matrix``) is
computed on access for the spectrum and small-grid checks, and is refused
past ``DENSE_MAX_N`` nodes before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import KGrid, SampledState

_EIG_SLACK = 1e-9

# Kernel entries evaluated at once by bilinear_form (16 MiB as complex128).
_BLOCK_ENTRIES = 1 << 20

# Largest grid whose dense n x n matrices may be materialised: one complex
# matrix at this size takes 256 MiB.
DENSE_MAX_N = 4096


class DenseBudgetError(ValueError):
    """A dense n x n matrix was asked for on a grid past ``DENSE_MAX_N``."""

    def __init__(self, what: str, n: int):
        self.n = n
        self.bytes_needed = n * n * 16
        super().__init__(
            f"{what}: a dense complex {n} x {n} matrix needs {self.bytes_needed} bytes; "
            f"dense matrices are limited to n <= {DENSE_MAX_N}"
        )


@dataclass(frozen=True)
class WindowOperator:
    """Window (center - T, center + T) in the weighted (sqrt(w)-scaled) basis."""

    grid: KGrid
    T: float
    center: float = 0.0

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Weighted kernel entries W[rows, cols] for index arrays rows, cols.

        Real for a centred window, complex (the phase exp(i (k - k') center))
        otherwise; T = inf gives the identity.
        """
        if math.isinf(self.T):
            return np.equal.outer(rows, cols).astype(float)
        k = self.grid.nodes
        dk = np.subtract.outer(k[rows], k[cols])
        kern = dk * self.T
        np.sin(kern, out=kern)
        with np.errstate(divide="ignore", invalid="ignore"):
            kern /= math.pi * dk
        # removable singularity where a row meets its own column
        kern[dk == 0] = self.T / math.pi
        sw = np.sqrt(self.grid.weights)
        kern *= np.outer(sw[rows], sw[cols])
        if self.center != 0.0:
            kern = kern * np.exp(1j * dk * self.center)
        return kern

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n operator, computed on access (small grids only).

        Raises DenseBudgetError before allocating when n > DENSE_MAX_N.
        """
        n = self.grid.size
        if n > DENSE_MAX_N:
            raise DenseBudgetError("window matrix", n)
        idx = np.arange(n)
        return self.block(idx, idx)


def build_window(grid: KGrid, T: float) -> WindowOperator:
    """Symmetric window (-T, T); T = inf gives the identity (full access)."""
    if T < 0:
        raise ValueError("window half-width must be non-negative")
    return WindowOperator(grid=grid, T=T)


def build_offset_window(grid: KGrid, tau_a: float, tau_b: float) -> WindowOperator:
    """Window over (tau_a, tau_b); needed when a packet is not centered at 0.

    The kernel picks up the phase exp(i (k - k') (tau_a + tau_b)/2) relative
    to the symmetric window of half-width (tau_b - tau_a)/2.
    """
    if tau_b < tau_a:
        raise ValueError("window endpoints must be ordered")
    return WindowOperator(
        grid=grid, T=0.5 * (tau_b - tau_a), center=0.5 * (tau_a + tau_b)
    )


def _matmul(kern: np.ndarray, x: np.ndarray) -> np.ndarray:
    """kern @ x without casting a real kernel block to complex."""
    if np.iscomplexobj(kern) or not np.iscomplexobj(x):
        return kern @ x
    # a complex (m, r) array is a real (m, 2r) one with interleaved parts
    return (kern @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)


def bilinear_form(w: WindowOperator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^H W B for (n, r_a) and (n, r_b) column blocks; returns (r_a, r_b).

    Kernel entries are evaluated only between the nonzero rows of A and of B,
    in row blocks of at most _BLOCK_ENTRIES entries, so a block that is
    identically zero (disjoint supports) contributes an exact 0.0.
    """
    rows = np.flatnonzero(np.any(a != 0, axis=1))
    cols = np.flatnonzero(np.any(b != 0, axis=1))
    out = np.zeros((a.shape[1], b.shape[1]), dtype=complex)
    if rows.size == 0 or cols.size == 0:
        return out
    b_cols = b[cols]
    step = max(1, _BLOCK_ENTRIES // cols.size)
    for start in range(0, rows.size, step):
        r = rows[start:start + step]
        out += a[r].conj().T @ _matmul(w.block(r, cols), b_cols)
    return out


def _check_grid(w: WindowOperator, state: SampledState):
    if state.grid is not w.grid and not np.array_equal(
        state.grid.nodes, w.grid.nodes
    ):
        raise ValueError("state and window live on different grids")


def detect_prob(w: WindowOperator, state: SampledState) -> float:
    """<psi| W_T |psi>: probability of detection inside the window."""
    _check_grid(w, state)
    u = state.weighted()[:, None]
    p = float(np.real(bilinear_form(w, u, u)[0, 0]))
    if p < -_EIG_SLACK:
        raise ValueError(f"quadratic form returned {p}: window operator is broken")
    if p > 1.0 + 1e-6:
        raise ValueError(f"quadratic form returned {p} > 1")
    return min(max(p, 0.0), 1.0)


def perp_prob(w: WindowOperator, state: SampledState) -> float:
    """Probability of the inconclusive outcome: 1 - detect_prob."""
    return 1.0 - detect_prob(w, state)


def window_spectrum(w: WindowOperator) -> np.ndarray:
    """Eigenvalues of W_T, descending; concentration eigenvalues in [0, 1].

    Needs the dense matrix, so it is refused past DENSE_MAX_N nodes.
    """
    vals = np.linalg.eigvalsh(w.matrix)[::-1]
    if vals.size and (vals[-1] < -_EIG_SLACK or vals[0] > 1.0 + _EIG_SLACK):
        raise ValueError(
            f"window spectrum escapes [0, 1]: [{vals[-1]}, {vals[0]}]"
        )
    return vals
