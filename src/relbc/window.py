"""Time-window (concentration) operator with the sinc kernel.

W_T has kernel sin((k - k')T) / (pi (k - k')), the unique normalization for
which 0 <= W_T <= I and W_T -> I as T -> infinity.  Its quadratic form on a
normalized state is the detection probability inside the window (-T, T):
the fraction of the wavepacket's energy the apparatus has causal access to.

The operator is held as (grid, T, center) and never stored as a matrix.
Every probability is a bilinear form A^H W B (``bilinear_form``) over the
nonzero rows of A and of B only.  The form splits the kernel as
sin((k - k')T) = sin(kT) cos(k'T) - cos(kT) sin(k'T), so it takes O(n)
sines and cosines once and then only the T-independent Cauchy entries
1/(k - k'), one row block of at most ``_BLOCK_ENTRIES`` entries at a time:
its memory stays O(n) on any grid.  The dense matrix
(``WindowOperator.matrix``) uses the direct kernel; it is computed on
access for the spectrum and small-grid checks, where it is the reference
the forms are tested against, and is refused past ``DENSE_MAX_N`` nodes
before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import KGrid, SampledState

_EIG_SLACK = 1e-9

# Cauchy entries evaluated at once by bilinear_form (8 MiB as float64).
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

        The direct sin((k - k')T) / (pi (k - k')) kernel, independent of the
        split ``bilinear_form`` uses; it builds ``matrix``.  Real for a
        centred window, complex (the phase exp(i (k - k') center))
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


def bilinear_form(w: WindowOperator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^H W B for (n, r_a) and (n, r_b) column blocks; returns (r_a, r_b).

    Only the nonzero rows of A and of B take part, so disjoint supports give
    an exact 0.0.  With phi = (k - k_ref) T about the grid midpoint k_ref,
    sin((k - k')T) = sin(phi) cos(phi') - cos(phi) sin(phi'), so

        A^H W B = [(sA)^H C (cB) - (cA)^H C (sB)] / pi + (T / pi) sum_i A_i^* B_i,

    where A and B are scaled by sqrt(w) (and, off centre, by
    exp(-i (k - k_ref) center)), s and c are sin(phi) and cos(phi) on their
    rows, and C = 1/(k - k') with a zero diagonal.  The O(n) sines and
    cosines are taken once per form; the Cauchy block C is built in row
    blocks of at most _BLOCK_ENTRIES entries.
    """
    rows = np.flatnonzero(np.any(a != 0, axis=1))
    cols = np.flatnonzero(np.any(b != 0, axis=1))
    out = np.zeros((a.shape[1], b.shape[1]), dtype=complex)
    if rows.size == 0 or cols.size == 0:
        return out
    common = np.intersect1d(rows, cols, assume_unique=True)
    if math.isinf(w.T):
        out += a[common].conj().T @ b[common]
        return out
    k = w.grid.nodes
    # k - k_ref is exact where k lies within a factor 2 of k_ref
    x = k - 0.5 * (w.grid.k_min + w.grid.k_max)
    sw = np.sqrt(w.grid.weights)

    def scaled(m, idx):
        f = (m[idx] * sw[idx, None]).astype(complex)
        if w.center != 0.0:
            f *= np.exp(-1j * w.center * x[idx])[:, None]
        return f

    a_t, b_t = scaled(a, rows), scaled(b, cols)
    phi_r, phi_c = x[rows] * w.T, x[cols] * w.T
    s_a = np.sin(phi_r)[:, None] * a_t
    c_a = np.cos(phi_r)[:, None] * a_t
    # [c B, s B] as a real (n_c, 4 r_b) array, so each block is one real GEMM
    cs_b = np.hstack([np.cos(phi_c)[:, None] * b_t, np.sin(phi_c)[:, None] * b_t])
    cs_b = cs_b.view(np.float64)
    r_b = b.shape[1]
    # positions where a row meets its own column (k = k'): C is zero there,
    # and the removable singularity is the (T / pi) sum term
    diag_r = np.searchsorted(rows, common)
    diag_c = np.searchsorted(cols, common)
    k_c = k[cols]
    step = max(1, _BLOCK_ENTRIES // cols.size)
    for start in range(0, rows.size, step):
        stop = start + step
        cauchy = np.subtract.outer(k[rows[start:stop]], k_c)
        on = (diag_r >= start) & (diag_r < stop)
        cauchy[diag_r[on] - start, diag_c[on]] = 1.0  # not 0: no division by zero
        np.reciprocal(cauchy, out=cauchy)
        cauchy[diag_r[on] - start, diag_c[on]] = 0.0
        g = (cauchy @ cs_b).view(np.complex128)
        out += s_a[start:stop].conj().T @ g[:, :r_b]
        out -= c_a[start:stop].conj().T @ g[:, r_b:]
    out += w.T * (a_t[diag_r].conj().T @ b_t[diag_c])
    out /= math.pi
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
