"""Single-photon spectral amplitudes and their quadrature discretization.

The bit carriers are normalized spectral wavefunctions psi(k) with compact
support on the positive wavenumber axis (c = 1, so wavenumber and angular
frequency coincide numerically).  Everything downstream (window operators,
POVMs, the protocol) works on states sampled onto a composite
Gauss-Legendre grid.

The carriers of one problem stay fixed while the window T changes, so the
grid of a panel layout and a carrier sampled on it are built once and
shared, read-only: ``grid_for_amplitudes`` and ``sample`` keep the last
4 layouts and 8 states in ``functools.lru_cache``s (``_layout_grid`` and
``_sample``), whose ``cache_info()`` counts their hits.  A grid compares
by identity, so it can key the state cache; ``_same_grid`` decides
whether two grids are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

SHAPES = ("rectangular", "truncated-gaussian", "raised-cosine")

# Truncated gaussian: support spans +-3 standard deviations.
_GAUSS_SUPPORT_SIGMAS = 3.0

# Nodes of the one Gauss-Legendre rule every grid_for_amplitudes panel uses;
# a wide or oscillatory panel is cut into more sub-panels, never given a
# higher-order rule (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).
_RULE = 256

# Largest gap between two supports, relative to max(|k|, 1), that
# grid_for_amplitudes treats as touching (no gap panel).  The 256 nodes of a
# gap panel collide at widths of 1e-13 k to 1e-12 k and are distinct at
# 1e-11 k.
_TOUCH_GAP = 1e-10

# Largest grid grid_for_amplitudes builds (64 MiB of nodes and weights).
# The far field of a window form grows as (24 n / 256)^2 kernel entries: one
# detection probability took 4.3 s at 3.0e5 nodes and 18.6 s at 6.0e5 nodes
# (2 vCPUs, OpenBLAS), so on this grid it would take about 15 minutes.
MAX_GRID_NODES = 1 << 22

# Grids grid_for_amplitudes keeps, one per panel layout, least recently used
# first out.  A grid holds its nodes, weights, sqrt(w) and centred nodes,
# 32 bytes a node: at worst 4 x 128 MiB at MAX_GRID_NODES.
GRID_CACHE_SIZE = 4

# States sample keeps, least recently used first out.  A state holds its
# values and its weighted vector, 32 bytes a node, and keeps its grid alive:
# at worst 8 x 256 MiB at MAX_GRID_NODES, where its grid has left the grid
# cache.
SAMPLE_CACHE_SIZE = 8


class GridBudgetError(ValueError):
    """A grid past ``MAX_GRID_NODES`` nodes was asked for."""

    def __init__(self, n: int, T: float):
        self.n = n
        self.T = T
        super().__init__(
            f"grid for window T = {T!r} needs {n} nodes; "
            f"grids are limited to n <= {MAX_GRID_NODES}"
        )


class GridResolutionError(ValueError):
    """An amplitude a grid cannot resolve: its support leaves the grid's
    span, or the node spacing across it exceeds delta / 64."""


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class SpectralAmplitude:
    """Normalized spectral wavefunction psi(k) with support (k_c - d/2, k_c + d/2).

    ``tau0`` multiplies the amplitude by exp(i*k*tau0), which shifts the
    time-domain profile by tau0 and leaves |psi(k)|^2 untouched.
    """

    shape: str
    k_c: float
    delta: float
    tau0: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}, expected one of {SHAPES}")
        for name in ("k_c", "delta", "tau0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.delta <= 0:
            raise ValueError("bandwidth must be positive")
        lo, hi = self.support
        if lo <= 0:
            raise ValueError(
                "support crosses k = 0: photon momenta must stay positive"
            )
        if not lo < hi:
            raise ValueError(
                f"support (k_c - delta/2, k_c + delta/2) is empty in floating point: "
                f"k_c = {self.k_c!r}, delta = {self.delta!r}"
            )

    @property
    def support(self) -> tuple[float, float]:
        return (self.k_c - self.delta / 2, self.k_c + self.delta / 2)

    def delayed(self, tau0: float) -> "SpectralAmplitude":
        """Same amplitude with an extra spectral phase exp(i*k*tau0)."""
        return replace(self, tau0=self.tau0 + tau0)

    def __call__(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        x = k - self.k_c
        inside = np.abs(x) < self.delta / 2
        if self.shape == "rectangular":
            base = np.where(inside, 1.0 / math.sqrt(self.delta), 0.0)
        elif self.shape == "truncated-gaussian":
            sigma = self.delta / (2 * _GAUSS_SUPPORT_SIGMAS)
            # closed-form norm of exp(-x^2 / 2 sigma^2) truncated to +-3 sigma
            norm_sq = sigma * math.sqrt(math.pi) * math.erf(_GAUSS_SUPPORT_SIGMAS)
            base = np.where(
                inside, np.exp(-(x**2) / (2 * sigma**2)) / math.sqrt(norm_sq), 0.0
            )
        else:  # raised-cosine (Hann profile); int cos^4 = 3 delta / 8
            base = np.where(
                inside,
                np.cos(math.pi * x / self.delta) ** 2 / math.sqrt(3 * self.delta / 8),
                0.0,
            )
        if self.tau0 == 0.0:
            return base.astype(complex)
        return base * np.exp(1j * self.tau0 * k)

    @classmethod
    def from_json(cls, obj: dict) -> "SpectralAmplitude":
        """The amplitude of a JSON object {"shape", "k_c", "delta", "tau0"},
        tau0 optional (default 0).  A missing key raises KeyError; k_c,
        delta and tau0 must be JSON numbers (``json_number``), or ValueError
        names the key."""
        shape = obj["shape"]
        numbers = {"k_c": obj["k_c"], "delta": obj["delta"], "tau0": obj.get("tau0", 0.0)}
        for key, value in numbers.items():
            try:
                numbers[key] = json_number(value)
            except ValueError as exc:
                raise ValueError(f"key {key!r}: {exc}") from None
        return cls(shape=shape, **numbers)


def json_number(value) -> float:
    """A JSON number as a float; a boolean or a numeric string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a JSON number, got {value!r}")
    return float(value)


def make_amplitude(
    shape: str, k_c: float, delta: float, tau0: float = 0.0
) -> SpectralAmplitude:
    """Construct a normalized amplitude; rejects unphysical parameters."""
    return SpectralAmplitude(shape=shape, k_c=k_c, delta=delta, tau0=tau0)


def disjoint_pair(
    k_1: float, k_2: float, delta: float, shape: str = "rectangular"
) -> tuple[SpectralAmplitude, SpectralAmplitude]:
    """Two equal-bandwidth amplitudes with disjoint supports.

    Requires |k_1 - k_2| >= delta; touching supports (equality) are fine
    since the intersection has measure zero.
    """
    if abs(k_1 - k_2) < delta:
        raise ValueError(
            "supports overlap: |k_1 - k_2| must be at least the bandwidth"
        )
    return (
        make_amplitude(shape, k_1, delta),
        make_amplitude(shape, k_2, delta),
    )


@dataclass(frozen=True, eq=False)
class KGrid:
    """Composite Gauss-Legendre grid: one ``rule``-point rule on each sub-panel.

    Sub-panel p spans [panel_edges[p], panel_edges[p + 1]] and holds nodes
    p * rule to (p + 1) * rule - 1.  The window forms apply 1/(k - k') from
    this layout alone (the edges and the rule), not from the stored nodes,
    which are that geometry rounded to ulp(k).  The arrays are read-only,
    since a grid is shared (``grid_for_amplitudes``), and a grid hashes and
    compares by identity.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panel_edges: np.ndarray
    rule: int

    def __post_init__(self):
        nodes, weights, edges = (
            _read_only(np.asarray(a, dtype=float))
            for a in (self.nodes, self.weights, self.panel_edges)
        )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "panel_edges", edges)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-D arrays")
        if edges.ndim != 1 or nodes.size != self.rule * (edges.size - 1):
            raise ValueError("grid must hold one rule of nodes per sub-panel")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be positive")
        span = self.k_max - self.k_min
        if abs(weights.sum() - span) > 1e-12 * max(span, 1.0):
            raise ValueError("weights do not integrate the constant 1 over the span")

    @property
    def k_min(self) -> float:
        return float(self.panel_edges[0])

    @property
    def k_max(self) -> float:
        return float(self.panel_edges[-1])

    @property
    def size(self) -> int:
        return self.nodes.size

    @cached_property
    def sqrt_weights(self) -> np.ndarray:
        """sqrt(w), which scales every state into the weighted basis."""
        return _read_only(np.sqrt(self.weights))

    @cached_property
    def centred_nodes(self) -> np.ndarray:
        """k - k_ref about the grid midpoint k_ref; exact where k lies within
        a factor 2 of k_ref."""
        return _read_only(self.nodes - 0.5 * (self.k_min + self.k_max))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr (arr itself keeps its flags)."""
    view = arr.view()
    view.setflags(write=False)
    return view


def gauss_legendre_grid(panels, nodes_per_panel: int) -> KGrid:
    """Composite GL grid: one ``nodes_per_panel``-point rule on each of the
    contiguous ascending panels [(a, b), ...]."""
    edges = np.asarray(panels, dtype=float).reshape(-1, 2)
    if not len(edges):
        raise ValueError("at least one panel required")
    a, b = edges.T
    if not np.all(b > a):
        raise ValueError("panel endpoints must be ascending")
    if np.any(np.abs(b[:-1] - a[1:]) > 1e-12 * np.maximum(np.abs(b[:-1]), 1.0)):
        raise ValueError("panels must be contiguous")
    rule = int(nodes_per_panel)
    x, w = _leggauss(rule)
    half = (0.5 * (b - a))[:, None]
    return KGrid(
        nodes=(half * x + (0.5 * (a + b))[:, None]).ravel(),
        weights=(half * w).ravel(),
        panel_edges=np.append(a, b[-1]),
        rule=rule,
    )


def _subpanels(width: float, delta: float, T: float) -> int:
    # spacing <= delta/64 needs ~ 64*pi*width/delta interior GL nodes;
    # resolving the sin((k-k')T) oscillation needs ~ width*T/2 nodes.
    need = 64 * math.pi * width / delta
    if math.isfinite(T):
        need = max(need, width * T / 2)
    return max(1, math.ceil(need / _RULE))


def grid_for_amplitudes(amplitudes, T: float = 0.0) -> KGrid:
    """Panelled grid covering every amplitude's support plus the gaps between.

    Panels align with support edges, except that a gap of at most
    ``_TOUCH_GAP`` max(|k|, 1) counts as touching: the supports share an
    edge.  Each panel of width w is cut into m equal sub-panels of one
    256-node rule, m = ceil(max(64 pi w / delta_min, w T / 2) / 256), so
    the node spacing stays <= delta_min/64 and the sinc kernel of the
    window half-width T stays resolved; m depends on the amplitudes and T
    only through w T and w / delta_min.  Raises GridBudgetError, before
    allocating, past MAX_GRID_NODES nodes.

    The grid depends on the panel edges and the counts m alone, so one
    read-only grid per layout is shared: a ``functools.lru_cache`` keeps
    the last ``GRID_CACHE_SIZE`` layouts (at worst 4 x 128 MiB at
    MAX_GRID_NODES), and a new one is built by ``gauss_legendre_grid``.
    """
    supports = sorted(a.support for a in amplitudes)
    if not supports:
        raise ValueError("need at least one amplitude")
    delta_min = min(hi - lo for lo, hi in supports)
    edges = [supports[0][0]]
    for (lo, hi), nxt in zip(supports, supports[1:] + [None]):
        if edges[-1] < hi:
            edges.append(hi)
        if nxt is None:
            continue
        if nxt[0] < hi:
            raise ValueError(f"amplitude supports must not overlap: ({lo!r}, {hi!r}) and {nxt!r}")
        # a gap within rounding of hi is touching: no gap panel, and the
        # next support's panel starts at hi
        if nxt[0] - hi > _TOUCH_GAP * max(abs(hi), 1.0):
            edges.append(nxt[0])
    panels = list(zip(edges[:-1], edges[1:]))
    counts = tuple(_subpanels(b - a, delta_min, T) for a, b in panels)
    n = _RULE * sum(counts)
    if n > MAX_GRID_NODES:
        raise GridBudgetError(n, T)
    return _layout_grid(tuple(edges), counts)


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _layout_grid(edges: tuple, counts: tuple) -> KGrid:
    """The grid of panels between ``edges``, panel p cut into counts[p] sub-panels."""
    panels = zip(edges[:-1], edges[1:], counts)
    cuts = [np.linspace(a, b, m + 1)[:-1] for a, b, m in panels]
    cuts = np.append(np.concatenate(cuts), edges[-1])
    return gauss_legendre_grid(np.column_stack((cuts[:-1], cuts[1:])), _RULE)


@dataclass(frozen=True)
class SampledState:
    """An amplitude evaluated on a grid and renormalized to unit quadrature norm.

    ``values`` is read-only, since ``sample`` shares the states it makes.
    """

    grid: KGrid
    values: np.ndarray

    def __post_init__(self):
        values = _read_only(np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid")
        norm = float(self.grid.weights @ np.abs(values) ** 2)
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"state is not normalized: quadrature norm {norm}")

    def weighted(self) -> np.ndarray:
        """Coefficient vector sqrt(w_i) * v_i; unit 2-norm, the working basis.

        Computed once per state, read-only."""
        return self._weighted

    @cached_property
    def _weighted(self) -> np.ndarray:
        return _read_only(self.grid.sqrt_weights * self.values)


def sample(amplitude: SpectralAmplitude, grid: KGrid) -> SampledState:
    """Evaluate an amplitude on a grid and renormalize it to unit quadrature norm.

    Raises GridResolutionError when the grid does not span the support or
    its node spacing across the support exceeds delta / 64.  A
    ``functools.lru_cache`` keeps the last ``SAMPLE_CACHE_SIZE`` states and
    returns them again for the same amplitude on the same grid object (at
    worst 8 x 256 MiB, grids included, at MAX_GRID_NODES).
    """
    return _sample(amplitude, grid)


@lru_cache(maxsize=SAMPLE_CACHE_SIZE)
def _sample(amplitude: SpectralAmplitude, grid: KGrid) -> SampledState:
    """``sample``, cached."""
    lo, hi = amplitude.support
    tol = 1e-12 * max(abs(lo), abs(hi), 1.0)
    if grid.k_min > lo + tol or grid.k_max < hi - tol:
        raise GridResolutionError(
            f"grid does not cover the amplitude support: support ({lo!r}, {hi!r}) "
            f"against grid span [{grid.k_min!r}, {grid.k_max!r}]"
        )
    inside = grid.nodes[(grid.nodes > lo) & (grid.nodes < hi)]
    spacing = float(np.diff(np.concatenate(([lo], inside, [hi]))).max())
    if spacing > amplitude.delta / 64 + tol:
        raise GridResolutionError(
            f"grid too coarse: node spacing {spacing!r} across the support "
            f"({lo!r}, {hi!r}) exceeds delta/64 = {amplitude.delta / 64!r}"
        )
    raw = amplitude(grid.nodes)
    norm = math.sqrt(float(grid.weights @ np.abs(raw) ** 2))
    if norm == 0.0:
        raise ValueError("amplitude vanishes on the grid")
    return SampledState(grid=grid, values=raw / norm)


def _same_grid(a: KGrid, b: KGrid) -> bool:
    """One grid object, or two with equal nodes and weights."""
    return a is b or (
        np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
    )


def overlap(a: SampledState, b: SampledState) -> complex:
    """Quadrature inner product sum_i w_i a_i* b_i."""
    if not _same_grid(a.grid, b.grid):
        raise ValueError("states live on different grids")
    return complex(np.sum(a.grid.weights * np.conj(a.values) * b.values))
