"""Time-window (concentration) operator with the sinc kernel.

W_T has kernel sin((k - k')T) / (pi (k - k')), the unique normalization for
which 0 <= W_T <= I and W_T -> I as T -> infinity.  Its quadratic form on a
normalized state is the detection probability inside the window (-T, T):
the fraction of the wavepacket's energy the apparatus has causal access to.

The operator is held as (grid, T) and never stored as a matrix.  Every
window is centred on 0: a time shift exists only as a sender's spectral
phase exp(i k tau0) (``SpectralAmplitude.delayed``).  Every probability
is a bilinear form A^H W B over the sub-panels that hold nonzero rows of
A and of B, and ``bilinear_forms`` evaluates it for every window of a
call on one grid at once.  The form splits the kernel as
sin((k - k')T) = sin(kT) cos(k'T) - cos(kT) sin(k'T), so it takes O(n)
sines and cosines per window and then one product with the T-independent
Cauchy matrix C = 1/(k - k') for all windows of the call.  C is applied
sub-panel by sub-panel (``_cauchy``), in the one-level form of the fast
multipole method (Greengard & Rokhlin 1987), with every block taken from
the sub-panel edges and the rule rather than from the stored nodes:

* self blocks are the rule's own 1/(x_i - x_j), built once per process
  and scaled by 1 / half-width;
* other near pairs (gap smaller than the wider sub-panel) take
  k - k' as a sum of non-negative terms, free of cancellation, and each
  step builds such a block once per geometry class (gap and the two
  half-widths), which on a uniform panel is one block for all of its
  neighbour pairs;
* every far pair goes through ``_PROXIES`` Chebyshev proxies per
  sub-panel (Fong & Darve 2009), which keeps the far field to rounding
  level and costs (n p / rule)^2 instead of n^2 kernel entries.

A step builds at most ``_BLOCK_ENTRIES`` kernel entries, or one
sub-panel's proxies against all others' (p^2 per sub-panel) on grids past
about 4.7e5 nodes, so memory stays O(n) on any grid.  The oracle builds
the dense references the forms are tested against (``oracle.window_matrix``,
``oracle.window_spectrum``) and refuses them past ``oracle.DENSE_MAX_N`` =
4096 nodes; ``WindowOperator.matrix`` calls it, kept only for the
benchmark's span annotations (``bench/spans.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectra import KGrid, SampledState, _leggauss, _same_grid

# Quadrature noise a probability may carry past either end of [0, 1].
_PROB_SLACK = 1e-9

# Kernel entries the Cauchy operator builds at once (8 MiB as float64).
_BLOCK_ENTRIES = 1 << 20

# Chebyshev proxies per sub-panel in the far field.  Sub-panels interact
# through proxies when the gap between them is at least the wider one's
# width, so 1/(k - k') is smooth over both: the pole lies at least three
# half-widths from either centre, and p = 24 proxies interpolate it to
# rounding level (Fong & Darve, J. Comput. Phys. 228, 2009).
_PROXIES = 24
# A gap this close to the wider width counts as far, so that equal
# sub-panels two apart are far whatever the rounding of their edges.
_FAR_GAP = 1.0 - 1e-9


@dataclass(frozen=True)
class WindowOperator:
    """Window (-T, T) in the weighted (sqrt(w)-scaled) basis."""

    grid: KGrid
    T: float

    # a class constant, not a field: every window is centred on 0, and
    # only the benchmark's span annotations (``bench/spans.py``) read it
    center = 0.0

    def __post_init__(self):
        # written so that NaN fails; T = inf is the identity
        if not self.T >= 0:
            raise ValueError(f"window half-width must be non-negative, got {self.T!r}")

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n operator, ``oracle.window_matrix(self)``; read only
        by the benchmark's span annotations (``bench/spans.py``)."""
        from . import oracle
        return oracle.window_matrix(self)


def build_window(grid: KGrid, T: float) -> WindowOperator:
    """Symmetric window (-T, T); T = inf gives the identity (full access)."""
    return WindowOperator(grid=grid, T=T)


def bilinear_forms(windows, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^H W_j B for windows W_j on one grid; returns (m, r_a, r_b).

    A is (n, r_a) and B is (n, r_b).  Only the sub-panels holding nonzero
    rows of A and of B take part, and an all-zero side gives an exact 0.0
    for every window.  With phi = (k - k_ref) T about the grid midpoint
    k_ref, sin((k - k')T) = sin(phi) cos(phi') - cos(phi) sin(phi'), so

        A^H W B = [(sA)^H C (cB) - (cA)^H C (sB)] / pi + (T / pi) sum_i A_i^* B_i,

    where A and B are scaled by sqrt(w), s and c are sin(phi) and cos(phi)
    on their rows, and C = 1/(k - k') with a zero diagonal.  The scaling, the
    (rows x windows) sines and cosines and the diagonal sum are taken once
    per call; C, which does not depend on T, is applied once to the stacked
    [cB, sB] of every finite nonzero window (``_cauchy``).
    T = inf windows are the identity, and T = 0 windows the zero operator:
    they skip the phases and the product and give an exact 0.0.
    """
    windows = list(windows)
    out = np.zeros((len(windows), a.shape[1], b.shape[1]), dtype=complex)
    if not windows:
        return out
    grid = windows[0].grid
    if not all(_same_grid(w.grid, grid) for w in windows):
        raise ValueError("windows live on different grids")
    row_nz, col_nz = a.any(axis=1), b.any(axis=1)
    if not row_nz.any() or not col_nz.any():
        return out
    common = np.flatnonzero(row_nz & col_nz)
    a_c, b_c = a[common].conj().T, b[common]
    full = [j for j, w in enumerate(windows) if math.isinf(w.T)]
    if full:
        out[full] = a_c @ b_c
    finite = [j for j, w in enumerate(windows) if w.T != 0.0 and not math.isinf(w.T)]
    if not finite:
        return out
    r = grid.rule
    rp = np.flatnonzero(row_nz.reshape(-1, r).any(axis=1))
    cp = np.flatnonzero(col_nz.reshape(-1, r).any(axis=1))
    rows = (rp[:, None] * r + np.arange(r)).ravel()
    cols = (cp[:, None] * r + np.arange(r)).ravel()
    ts = np.array([windows[j].T for j in finite])
    x = grid.centred_nodes

    def phases(idx):
        phi = np.multiply.outer(x[idx], ts)
        return np.sin(phi)[..., None], np.cos(phi)[..., None]

    sin_r, cos_r = phases(rows)
    sin_c, cos_c = (sin_r, cos_r) if np.array_equal(rp, cp) else phases(cols)
    sw = grid.sqrt_weights[:, None]
    b_t = (b[cols] * sw[cols])[:, None, :]
    # [c B, s B] of every window as one real (n_c, 4 r_b m) right-hand side
    cs_b = np.empty((cols.size, ts.size, 2, b.shape[1]), dtype=complex)
    cs_b[:, :, 0] = cos_c * b_t
    cs_b[:, :, 1] = sin_c * b_t
    cs_b = cs_b.reshape(cols.size, -1).view(np.float64)
    g = _cauchy(grid, rp, cp, cs_b).view(np.complex128).reshape(rows.size, ts.size, 2, -1)
    g = sin_r * g[:, :, 0] - cos_r * g[:, :, 1]
    a_t = (a[rows] * sw[rows])[:, None, :].conj()
    forms = a_t.transpose(1, 2, 0) @ g.transpose(1, 0, 2)
    # where a row meets its own column (k = k') C is zero, and the
    # removable singularity is the (T / pi) sum term
    diag = a_c @ (b_c * grid.weights[common, None])
    out[finite] = (forms + ts[:, None, None] * diag) / math.pi
    return out


@lru_cache(maxsize=8)
def _rule_operators(rule: int):
    """The rule's own Cauchy matrix and its Chebyshev interpolation matrix.

    S[i, j] = 1/(x_i - x_j) on the rule's nodes in [-1, 1], zero on the
    diagonal, so a sub-panel of half-width h has the self block S / h.
    L[i, l] is the l-th Lagrange polynomial on the ``_PROXIES`` Chebyshev
    points t_l, evaluated at x_i: L interpolates from the proxies to the
    nodes and L^T anterpolates charges from the nodes to the proxies.
    Returns (S, L, t).
    """
    x, _ = _leggauss(rule)
    diff = np.subtract.outer(x, x)
    np.fill_diagonal(diff, 1.0)
    s = 1.0 / diff
    np.fill_diagonal(s, 0.0)
    theta = (np.arange(_PROXIES) + 0.5) * math.pi / _PROXIES
    t = np.cos(theta)
    # barycentric form with the Chebyshev weights (-1)^l sin(theta_l): exact
    # at the proxies as rounded, so the kernel is reproduced to ~1e-15
    q = np.sin(theta) * (-1.0) ** np.arange(_PROXIES) / np.subtract.outer(x, t)
    interp = q / q.sum(axis=1, keepdims=True)
    for arr in (s, interp, t):
        arr.setflags(write=False)
    return s, interp, t


def _cauchy(grid: KGrid, rp: np.ndarray, cp: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C y on the nodes of sub-panels rp, for y on the nodes of sub-panels cp.

    Node a of sub-panel i lies at lo_i + h_i (1 + x_a) = hi_i - h_i (1 - x_a)
    for the rule's nodes x and half-width h_i, and every block is taken from
    that geometry.  Each step classifies its rows of rp against all of cp
    once: a pair is near when its gap is below the wider width (up to
    ``_FAR_GAP``).  A self block is the rule's S / h.  Another near pair,
    i above j, has k_a - k'_b = (lo_i - hi_j) + h_i (1 + x_a) + h_j (1 - x_b),
    a sum of non-negative terms, so its block is free of cancellation; i
    below j subtracts the transpose of the mirrored block.  The block
    depends on the pair only through its geometry (lo_i - hi_j, h_i, h_j),
    so a step builds it once per geometry, the same bits for every pair
    that shares one, and drops it before the proxies.  Far pairs go
    through the proxies: y is anterpolated to the proxies of cp, they
    interact through 1/(t - t'), and the result is interpolated to the nodes
    of rp.  A step's proxy kernel has at most ``_BLOCK_ENTRIES`` entries, or
    one sub-panel's proxies against all of cp's where that is more (past
    ``_BLOCK_ENTRIES`` / p^2 sub-panels, about 4.7e5 nodes).
    """
    r, m, p, edges = grid.rule, y.shape[1], _PROXIES, grid.panel_edges
    s, interp, t = _rule_operators(r)
    x, _ = _leggauss(r)
    lo, hi = edges[:-1], edges[1:]
    width = hi - lo
    half = 0.5 * width
    offsets = half[:, None] * t
    y = y.reshape(cp.size, r, m)
    charges = (interp.T @ y).reshape(-1, m)
    out = np.zeros((rp.size, r, m))
    step = max(1, _BLOCK_ENTRIES // (p * p * cp.size))
    for start in range(0, rp.size, step):
        blk = rp[start:start + step]
        gap = np.maximum(np.subtract.outer(lo[cp], hi[blk]).T, np.subtract.outer(lo[blk], hi[cp]))
        near = gap < _FAR_GAP * np.maximum.outer(width[blk], width[cp])
        blocks = {}
        for i, j in zip(*np.nonzero(near)):
            a, b = blk[i], cp[j]
            if a == b:
                out[start + i] += s @ (y[j] / half[b])
                continue
            up, dn = max(a, b), min(a, b)
            geo = (lo[up] - hi[dn], half[up], half[dn])
            if a > b:
                out[start + i] += _neighbour_block(blocks, x, geo) @ y[j]
            else:
                out[start + i] -= _neighbour_block(blocks, x, geo).T @ y[j]
        del blocks  # not held while the step's proxy kernel is built
        if near.all():
            continue
        # proxy distances from differences of edges, which are exact for
        # edges within a factor 2 of each other: the distances keep their
        # relative precision wherever the grid lies
        mids = 0.5 * (np.subtract.outer(lo[blk], lo[cp]) + np.subtract.outer(hi[blk], hi[cp]))
        kern = (mids[:, None, :, None] + offsets[blk, :, None, None]) - offsets[cp]
        pairs = kern.transpose(0, 2, 1, 3)
        pairs[near] = 1.0  # not 0: no division by zero
        np.reciprocal(kern, out=kern)
        pairs[near] = 0.0
        kern = kern.reshape(blk.size * p, -1)
        out[start:start + step] += interp @ (kern @ charges).reshape(blk.size, p, m)
    return out.reshape(-1, m)


def _neighbour_block(blocks: dict, x: np.ndarray, geo: tuple) -> np.ndarray:
    """1/(k_a - k'_b) of a near pair of geometry geo = (lo_up - hi_dn, h_up, h_dn),
    rows in the upper sub-panel; built on first use and kept in ``blocks``."""
    block = blocks.get(geo)
    if block is None:
        dk = (geo[0] + geo[1] * (1.0 + x))[:, None] + geo[2] * (1.0 - x)
        block = blocks[geo] = np.divide(1.0, dk, out=dk)
    return block


def detect_probs(windows, state: SampledState) -> list[float]:
    """<psi| W_j |psi> for windows W_j on the state's grid, in one form."""
    windows = list(windows)
    if windows and not _same_grid(state.grid, windows[0].grid):
        raise ValueError("state and window live on different grids")
    u = state.weighted()[:, None]
    forms = np.real(bilinear_forms(windows, u, u)[:, 0, 0]).tolist()
    return [_clamp_prob(p, "detection probability") for p in forms]


def _clamp_prob(p: float, label: str) -> float:
    """p clamped to [0, 1]; a p more than ``_PROB_SLACK`` outside is an error.
    The one clamp of ``detect_probs`` and ``measurement.outcome_dists``."""
    if not -_PROB_SLACK <= p <= 1.0 + _PROB_SLACK:
        raise ValueError(f"{label} = {p} lies outside [0, 1] beyond quadrature noise")
    return min(max(p, 0.0), 1.0)


def detect_prob(w: WindowOperator, state: SampledState) -> float:
    """<psi| W_T |psi>: probability of detection inside the window."""
    return detect_probs([w], state)[0]
