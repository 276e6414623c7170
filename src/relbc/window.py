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
Cauchy matrix C = 1/(k - k') for all windows of the call.  That product
runs in real arithmetic on the (n_c, 2 L m) right-hand side of B's L live
real columns for m windows: of the real and imaginary part of each column
of B, only those not identically zero, so it skips the zero imaginary
part of an undelayed state, and the zero column that one carrier's
indicator leaves in a mixed factor, as it skips zero rows.  C is applied
sub-panel by sub-panel (``_cauchy``), in the one-level form of the fast
multipole method (Greengard & Rokhlin 1987), with every block taken from
the sub-panel edges and the rule rather than from the stored nodes:

* self blocks are the rule's own 1/(x_i - x_j), built once per process
  and scaled by 1 / half-width;
* other near pairs (gap smaller than the wider sub-panel) take
  k - k' as a sum of non-negative terms, free of cancellation, in one
  block per geometry class (gap and the two half-widths), which on a
  uniform panel is one block for all of its neighbour pairs;
* every far pair goes through ``_PROXIES`` Chebyshev proxies per
  sub-panel (Fong & Darve 2009), which keeps the far field to rounding
  level and costs (n p / rule)^2 instead of n^2 kernel entries.

Which pairs are near, of which kind and geometry, and whether any is far
depends on the layout and the two sub-panel sets only, so it is planned
once (``_cauchy_plan``, a ``functools.lru_cache`` of ``_PLAN_CACHE``
plans) and a call only does the products with y.  The neighbour blocks
are shared through a ``functools.lru_cache`` of ``_BLOCK_CACHE`` blocks
keyed on (geometry, rule) (``_neighbour_block``).  The two caches retain
at most 4 blocks of 0.5 MiB at the 256-node rule, and 16 plans of under
1 KiB, plus 0.5 KiB per near pair, plus 8 bytes per panel edge each; a
carrier grid has at most three near pairs per row sub-panel, so a plan
over all 16384 sub-panels of a 2^22-node grid stays under 25 MB.
``cache_info()`` on either cache counts its hits.  The far-field proxy
kernel is built per call and not kept: a step builds at most
``_BLOCK_ENTRIES`` kernel entries, or one sub-panel's proxies against all
others' (p^2 per sub-panel) on grids past about 4.7e5 nodes, so memory
stays O(n) on any grid.  The oracle builds
the dense references the forms are tested against (``oracle.window_matrix``,
``oracle.window_spectrum``) and refuses them past ``oracle.DENSE_MAX_N`` =
4096 nodes; ``WindowOperator.matrix`` calls it, kept only for the
benchmark's span annotations (``bench/spans.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spectra import KGrid, SampledState, _leggauss, _read_only, _same_grid

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

# Plans of the Cauchy operator kept (``_cauchy_plan``), and neighbour
# blocks of rule^2 float64 kept (``_neighbour_block``, 0.5 MiB each at
# the 256-node rule); the module docstring states the bytes they retain.
_PLAN_CACHE = 16
_BLOCK_CACHE = 4


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
    (windows x rows) sines and cosines and the diagonal sum are taken once
    per call; C, which does not depend on T, is applied once (``_cauchy``),
    in real arithmetic, to the real (n_c, 2 L m) right-hand side [cB, sB]
    of every finite nonzero window.  Its columns are B's live real columns:
    of the real and imaginary part of each of B's columns, only the L <= 2
    r_b that are not identically zero take part, so a real-valued B costs
    half of what a complex one costs, and a delayed (fully complex) B keeps
    all its columns.  The results are scattered back into the complex
    C(cB), C(sB) before the contraction with A.
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
    same = b is a
    row_nz = _nonzero_rows(a)
    col_nz = row_nz if same else _nonzero_rows(b)
    if not row_nz.any() or not col_nz.any():
        return out
    common = np.flatnonzero(row_nz if same else row_nz & col_nz)
    b_c = b[common]
    a_c = b_c.conj().T if same else a[common].conj().T
    full = [j for j, w in enumerate(windows) if math.isinf(w.T)]
    if full:
        out[full] = a_c @ b_c
    finite = [j for j, w in enumerate(windows) if w.T != 0.0 and not math.isinf(w.T)]
    if not finite:
        return out
    r = grid.rule
    rp = np.flatnonzero(row_nz.reshape(-1, r).any(axis=1))
    rows = (rp[:, None] * r + np.arange(r)).ravel()
    ts = np.array([windows[j].T for j in finite])
    x = grid.centred_nodes
    sw = grid.sqrt_weights[:, None]

    def phases(idx):
        phi = np.multiply.outer(ts, x[idx])
        return np.sin(phi), np.cos(phi)

    sin_r, cos_r = phases(rows)
    if same:
        cp, cols, sin_c, cos_c = rp, rows, sin_r, cos_r
    else:
        cp = np.flatnonzero(col_nz.reshape(-1, r).any(axis=1))
        cols = (cp[:, None] * r + np.arange(r)).ravel()
        sin_c, cos_c = (sin_r, cos_r) if np.array_equal(rp, cp) else phases(cols)
    b_t = (b[cols] * sw[cols])[:, None, :]
    # B's real columns, the real and imaginary part of each complex one: only
    # the L live (not identically zero) ones enter the product
    b_f = b_t[:, 0].astype(complex, copy=False).view(np.float64).T
    live = [j for j, col in enumerate(b_f) if col.any()]
    # [c B, s B] of every window on the live columns, as one real
    # (n_c, 2 L m) right-hand side, filled through its transpose
    cs_b = np.empty((cols.size, ts.size, 2, len(live)))
    np.multiply(cos_c, b_f[live, None], out=cs_b.T[:, 0])
    np.multiply(sin_c, b_f[live, None], out=cs_b.T[:, 1])
    g_l = _cauchy(grid, rp, cp, cs_b.reshape(cols.size, -1))
    g_l = g_l.reshape(rows.size, *cs_b.shape[1:]).T
    # sin(phi) C(cB) - cos(phi) C(sB), scattered back into the real
    # columns of the complex g
    g = np.zeros((rows.size, ts.size, b.shape[1]), dtype=complex)
    for k, j in enumerate(live):
        g_j = g.view(np.float64)[:, :, j].T
        np.multiply(sin_r, g_l[k, 0], out=g_j)
        g_j -= cos_r * g_l[k, 1]
    a_t = b_t.conj() if same else (a[rows] * sw[rows])[:, None, :].conj()
    forms = a_t.transpose(1, 2, 0) @ g.transpose(1, 0, 2)
    # where a row meets its own column (k = k') C is zero, and the
    # removable singularity is the (T / pi) sum term
    diag = a_c @ (b_c * grid.weights[common, None])
    out[finite] = (forms + ts[:, None, None] * diag) / math.pi
    return out


def _nonzero_rows(a: np.ndarray) -> np.ndarray:
    """Mask of the rows of a with a nonzero entry, OR-ed column by column:
    numpy reduces along a short last axis several times slower."""
    nz = np.zeros(a.shape[0], dtype=bool)
    for col in a.T:
        nz |= col != 0
    return nz


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
    that geometry.  Which pairs are near, and how, does not depend on y:
    ``_cauchy_plan`` decides it once per layout and (rp, cp), and this
    applies the plan.  A self block is the rule's S / h.  Another near pair,
    i above j, has k_a - k'_b = (lo_i - hi_j) + h_i (1 + x_a) + h_j (1 - x_b),
    a sum of non-negative terms, so its block is free of cancellation; i
    below j subtracts the transpose of the mirrored block.  The block
    depends on the pair only through its geometry (lo_i - hi_j, h_i, h_j),
    so every pair that shares one gets the same bits from
    ``_neighbour_block``.  Far pairs go through the proxies: y is
    anterpolated to the proxies of cp, they interact through 1/(t - t'),
    and the result is interpolated to the nodes of rp.  A step's proxy
    kernel has at most ``_BLOCK_ENTRIES`` entries, or one sub-panel's
    proxies against all of cp's where that is more (past ``_BLOCK_ENTRIES``
    / p^2 sub-panels, about 4.7e5 nodes); it is freed before the step's
    near field, and the step adds its far field last.
    """
    r, m, p = grid.rule, y.shape[1], _PROXIES
    plan = _cauchy_plan(grid.panel_edges.tobytes(), np.asarray(rp, np.intp).tobytes(),
                        np.asarray(cp, np.intp).tobytes())
    s, interp, t = _rule_operators(r)
    y = y.reshape(cp.size, r, m)
    out = np.zeros((rp.size, r, m))
    if plan.far:
        charges = (interp.T @ y).reshape(-1, m)
        lo, hi = grid.panel_edges[:-1], grid.panel_edges[1:]
        offsets = (0.5 * (hi - lo))[:, None] * t
    for start, stop, pairs, near in plan.steps:
        far = None
        if near is not None:
            blk = rp[start:stop]
            # proxy distances from differences of edges, which are exact for
            # edges within a factor 2 of each other: the distances keep their
            # relative precision wherever the grid lies
            mids = 0.5 * (np.subtract.outer(lo[blk], lo[cp]) + np.subtract.outer(hi[blk], hi[cp]))
            kern = (mids[:, None, :, None] + offsets[blk, :, None, None]) - offsets[cp]
            kern.transpose(0, 2, 1, 3)[near] = 1.0  # not 0: no division by zero
            np.reciprocal(kern, out=kern)
            kern.transpose(0, 2, 1, 3)[near] = 0.0
            far = interp @ (kern.reshape(blk.size * p, -1) @ charges).reshape(blk.size, p, m)
            del kern  # not held while the near field builds its blocks
        for i, j, kind, geo in pairs:
            if kind == 0:
                out[i] += s @ (y[j] / geo)
            elif kind > 0:
                out[i] += _neighbour_block(*geo, r) @ y[j]
            else:
                out[i] -= _neighbour_block(*geo, r).T @ y[j]
        if far is not None:
            out[start:stop] += far
    return out.reshape(-1, m)


class _Plan(NamedTuple):
    """The y-independent part of ``_cauchy`` for one layout and (rp, cp).

    Rows of rp go in ``steps``; a step (start, stop, pairs, near) holds
    rp[start:stop] and its near pairs as (row of rp, index into cp, kind,
    geometry), in the order they are summed: kind 0 is a self block
    (geometry: its half-width), 1 a row sub-panel above its column and -1
    one below (geometry (lo_up - hi_dn, h_up, h_dn)).  ``near`` is None
    when every pair of the step is near, else the (row, column) indices
    within the step of its near pairs, which the proxy kernel skips.
    ``far`` says whether any pair is far.
    """

    steps: tuple
    far: bool


@lru_cache(maxsize=_PLAN_CACHE)
def _cauchy_plan(edges: bytes, rp: bytes, cp: bytes) -> _Plan:
    """The ``_Plan`` of the layout with these panel edges for sub-panels rp
    and cp, given as the bytes of float64 and intp arrays: a plan holds no
    grid."""
    edges = np.frombuffer(edges)
    rp, cp = np.frombuffer(rp, dtype=np.intp), np.frombuffer(cp, dtype=np.intp)
    lo, hi = edges[:-1], edges[1:]
    width = hi - lo
    half = 0.5 * width
    steps, geos = [], {}
    step = max(1, _BLOCK_ENTRIES // (_PROXIES * _PROXIES * cp.size))
    for start in range(0, rp.size, step):
        blk = rp[start:start + step]
        gap = np.maximum(np.subtract.outer(lo[cp], hi[blk]).T, np.subtract.outer(lo[blk], hi[cp]))
        near = gap < _FAR_GAP * np.maximum.outer(width[blk], width[cp])
        idx = tuple(_read_only(i) for i in np.nonzero(near))
        pairs = []
        for i, j in zip(*(i.tolist() for i in idx)):
            a, b = int(blk[i]), int(cp[j])
            if a == b:
                pairs.append((start + i, j, 0, float(half[b])))
            else:
                up, dn = max(a, b), min(a, b)
                geo = (float(lo[up] - hi[dn]), float(half[up]), float(half[dn]))
                pairs.append((start + i, j, 1 if a > b else -1, geos.setdefault(geo, geo)))
        steps.append((start, start + blk.size, tuple(pairs), None if near.all() else idx))
    return _Plan(tuple(steps), any(near is not None for *_, near in steps))


@lru_cache(maxsize=_BLOCK_CACHE)
def _neighbour_block(gap: float, h_up: float, h_dn: float, rule: int) -> np.ndarray:
    """1/(k_a - k'_b) of a near pair of geometry (lo_up - hi_dn, h_up, h_dn),
    rows in the upper sub-panel, read-only."""
    x, _ = _leggauss(rule)
    dk = (gap + h_up * (1.0 + x))[:, None] + h_dn * (1.0 - x)
    block = np.divide(1.0, dk, out=dk)
    block.setflags(write=False)
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
