"""Time-window (concentration) operator with the sinc kernel.

W_T has kernel sin((k - k')T) / (pi (k - k')), the unique normalization for
which 0 <= W_T <= I and W_T -> I as T -> infinity.  Its quadratic form on a
normalized state is the detection probability inside the window (-T, T):
the fraction of the wavepacket's energy the apparatus has causal access to.

The operator is held as (grid, T, center) and never stored as a matrix.
Every probability is a bilinear form A^H W B over the nonzero rows of A
and of B only, and ``bilinear_forms`` evaluates it for every window of a
call on one grid at once.  The form splits the kernel as
sin((k - k')T) = sin(kT) cos(k'T) - cos(kT) sin(k'T), so it takes O(n)
sines and cosines per window and then only the T-independent Cauchy
entries 1/(k - k'), one row block of at most ``_BLOCK_ENTRIES`` entries at
a time.  Each block is built once for all windows of the call: its memory
stays O(n) on any grid, and an op's several windows share one O(n^2)
pass.  The dense matrix
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

# Cauchy entries evaluated at once by bilinear_forms (8 MiB as float64).
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

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n operator, computed on access (small grids only).

        The direct sin((k - k')T) / (pi (k - k')) kernel, independent of the
        split ``bilinear_forms`` uses.  Real for a centred window, complex
        (the phase exp(i (k - k') center)) otherwise; T = inf gives the
        identity.  Raises DenseBudgetError before allocating when
        n > DENSE_MAX_N.
        """
        n = self.grid.size
        if n > DENSE_MAX_N:
            raise DenseBudgetError("window matrix", n)
        if math.isinf(self.T):
            return np.eye(n)
        k = self.grid.nodes
        dk = np.subtract.outer(k, k)
        kern = dk * self.T
        np.sin(kern, out=kern)
        with np.errstate(divide="ignore", invalid="ignore"):
            kern /= math.pi * dk
        # removable singularity where a row meets its own column
        kern[dk == 0] = self.T / math.pi
        sw = np.sqrt(self.grid.weights)
        kern *= np.outer(sw, sw)
        if self.center != 0.0:
            # exp(i (k - k') center) as the cos and sin of its real phase
            arg = dk * self.center
            phase = np.empty(arg.shape, dtype=complex)
            np.cos(arg, out=phase.real)
            np.sin(arg, out=phase.imag)
            kern = kern * phase
        return kern


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


def bilinear_forms(windows, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^H W_j B for windows W_j on one grid; returns (m, r_a, r_b).

    A is (n, r_a) and B is (n, r_b).  Only the nonzero rows of A and of B
    take part, so disjoint supports give an exact 0.0 for every window.
    With phi = (k - k_ref) T about the grid midpoint k_ref,
    sin((k - k')T) = sin(phi) cos(phi') - cos(phi) sin(phi'), so

        A^H W B = [(sA)^H C (cB) - (cA)^H C (sB)] / pi + (T / pi) sum_i A_i^* B_i,

    where A and B are scaled by sqrt(w) (and, off centre, by
    exp(-i (k - k_ref) center)), s and c are sin(phi) and cos(phi) on their
    rows, and C = 1/(k - k') with a zero diagonal.  The O(n) sines and
    cosines are taken once per window.  C does not depend on T: it is built
    once per row block of at most _BLOCK_ENTRIES entries and meets the
    stacked [cB, sB] of every finite window in one real GEMM.  T = inf
    windows are the identity.
    """
    windows = list(windows)
    out = np.zeros((len(windows), a.shape[1], b.shape[1]), dtype=complex)
    if not windows:
        return out
    grid = windows[0].grid
    if any(w.grid is not grid and not np.array_equal(w.grid.nodes, grid.nodes)
           for w in windows):
        raise ValueError("windows live on different grids")
    rows = np.flatnonzero(np.any(a != 0, axis=1))
    cols = np.flatnonzero(np.any(b != 0, axis=1))
    if rows.size == 0 or cols.size == 0:
        return out
    common = np.intersect1d(rows, cols, assume_unique=True)
    finite = []
    for j, w in enumerate(windows):
        if math.isinf(w.T):
            out[j] += a[common].conj().T @ b[common]
        else:
            finite.append(j)
    if not finite:
        return out
    k = grid.nodes
    # k - k_ref is exact where k lies within a factor 2 of k_ref
    x = k - 0.5 * (grid.k_min + grid.k_max)
    sw = np.sqrt(grid.weights)

    def scaled(m, idx, center):
        f = (m[idx] * sw[idx, None]).astype(complex)
        if center != 0.0:
            f *= np.exp(-1j * center * x[idx])[:, None]
        return f

    # positions where a row meets its own column (k = k'): C is zero there,
    # and the removable singularity is the (T / pi) sum term
    diag_r = np.searchsorted(rows, common)
    diag_c = np.searchsorted(cols, common)
    r_b = b.shape[1]
    terms, cs_b = [], []
    for j in finite:
        w = windows[j]
        a_t, b_t = scaled(a, rows, w.center), scaled(b, cols, w.center)
        phi_r, phi_c = x[rows] * w.T, x[cols] * w.T
        s_a = np.sin(phi_r)[:, None] * a_t
        c_a = np.cos(phi_r)[:, None] * a_t
        terms.append((j, s_a, c_a, w.T * (a_t[diag_r].conj().T @ b_t[diag_c])))
        cs_b += [np.cos(phi_c)[:, None] * b_t, np.sin(phi_c)[:, None] * b_t]
    # [c B, s B] of every window as one real (n_c, 4 r_b m) array, so each
    # row block is one real GEMM
    cs_b = np.hstack(cs_b).view(np.float64)
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
        for i, (j, s_a, c_a, _) in enumerate(terms):
            g_c = g[:, 2 * i * r_b:(2 * i + 1) * r_b]
            g_s = g[:, (2 * i + 1) * r_b:(2 * i + 2) * r_b]
            out[j] += s_a[start:stop].conj().T @ g_c
            out[j] -= c_a[start:stop].conj().T @ g_s
    for j, _, _, diag in terms:
        out[j] += diag
        out[j] /= math.pi
    return out


def _check_grid(w: WindowOperator, state: SampledState):
    if state.grid is not w.grid and not np.array_equal(
        state.grid.nodes, w.grid.nodes
    ):
        raise ValueError("state and window live on different grids")


def detect_probs(windows, state: SampledState) -> list[float]:
    """<psi| W_j |psi> for windows W_j on the state's grid, in one form."""
    windows = list(windows)
    for w in windows:
        _check_grid(w, state)
    u = state.weighted()[:, None]
    probs = []
    for p in np.real(bilinear_forms(windows, u, u)[:, 0, 0]).tolist():
        if p < -_EIG_SLACK:
            raise ValueError(f"quadratic form returned {p}: window operator is broken")
        if p > 1.0 + 1e-6:
            raise ValueError(f"quadratic form returned {p} > 1")
        probs.append(min(max(p, 0.0), 1.0))
    return probs


def detect_prob(w: WindowOperator, state: SampledState) -> float:
    """<psi| W_T |psi>: probability of detection inside the window."""
    return detect_probs([w], state)[0]


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
