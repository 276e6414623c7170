import math
import tracemalloc

import numpy as np
import pytest

from relbc import spectra
from relbc.spectra import (
    SampledState,
    SpectralAmplitude,
    disjoint_pair,
    gauss_legendre_grid,
    grid_for_amplitudes,
    make_amplitude,
    overlap,
    sample,
    time_profile,
)
from relbc.window import build_window, detect_prob

SHAPES = spectra.SHAPES


def test_rectangular_is_flat():
    amp = make_amplitude("rectangular", 10.0, 1.0)
    k = np.array([9.6, 10.0, 10.4])
    assert np.allclose(np.abs(amp(k)) ** 2, 1.0)
    assert np.all(amp(np.array([9.4, 10.6])) == 0)


def test_phase_delay_leaves_modulus_unchanged():
    amp = make_amplitude("rectangular", 10.0, 1.0, tau0=0.5)
    k = np.linspace(9.6, 10.4, 7)
    assert np.allclose(amp(k), np.exp(0.5j * k) / math.sqrt(1.0))
    assert np.allclose(np.abs(amp(k)) ** 2, np.abs(make_amplitude("rectangular", 10.0, 1.0)(k)) ** 2)


@pytest.mark.parametrize("shape", SHAPES)
def test_unit_norm_after_sampling(shape):
    amp = make_amplitude(shape, 10.0, 1.0)
    grid = grid_for_amplitudes([amp])
    state = sample(amp, grid)
    assert abs(grid.weights @ np.abs(state.values) ** 2 - 1.0) < 1e-10


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(shape="rectangular", k_c=10.0, delta=0.0),
        dict(shape="rectangular", k_c=10.0, delta=-1.0),
        dict(shape="rectangular", k_c=0.4, delta=1.0),  # support crosses k=0
        dict(shape="lorentzian", k_c=10.0, delta=1.0),
    ],
)
def test_rejects_unphysical_amplitudes(kwargs):
    with pytest.raises(ValueError):
        SpectralAmplitude(**kwargs)


@pytest.mark.parametrize("k_c, delta", [(1e300, 0.5), (1e17, 1.0)])
def test_rejects_support_that_collapses(k_c, delta):
    # k_c - delta/2 and k_c + delta/2 round to the same number
    with pytest.raises(ValueError, match="empty") as info:
        SpectralAmplitude(shape="rectangular", k_c=k_c, delta=delta)
    assert repr(k_c) in str(info.value) and repr(delta) in str(info.value)


def test_disjoint_pair_supports():
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0)
    assert a1.support == (11.5, 12.5)
    assert a2.support == (9.5, 10.5)


def test_disjoint_pair_touching_ok():
    a1, a2 = disjoint_pair(11.0, 10.0, 1.0)
    assert a1.support[0] == a2.support[1]


def test_disjoint_pair_overlap_rejected():
    with pytest.raises(ValueError):
        disjoint_pair(10.5, 10.0, 1.0)


def test_grid_quadrature_exactness():
    grid = gauss_legendre_grid([(9.5, 10.5), (10.5, 12.5)], 256)
    assert abs(grid.weights.sum() - 3.0) < 1e-12
    # GL nodes integrate polynomials exactly
    assert abs(grid.weights @ grid.nodes**3 - (12.5**4 - 9.5**4) / 4) < 1e-9


def test_amplitude_json_roundtrip():
    amp = make_amplitude("raised-cosine", 10.0, 2.0, tau0=0.3)
    assert SpectralAmplitude.from_json(amp.to_json()) == amp


def test_sample_rejects_partial_coverage():
    amp = make_amplitude("rectangular", 10.0, 1.0)
    half = gauss_legendre_grid([(9.5, 10.0)], 256)
    with pytest.raises(ValueError, match="cover"):
        sample(amp, half)


def test_sample_rejects_coarse_grid():
    amp = make_amplitude("rectangular", 10.0, 1.0)
    coarse = gauss_legendre_grid([(9.5, 10.5)], 32)
    with pytest.raises(ValueError, match="coarse"):
        sample(amp, coarse)


def test_state_rejects_nan_values():
    grid = grid_for_amplitudes([make_amplitude("rectangular", 10.0, 1.0)])
    with pytest.raises(ValueError, match="not normalized: quadrature norm nan"):
        SampledState(grid, np.full(grid.size, np.nan))


def test_sample_phase_invariance_of_intensity():
    grid = grid_for_amplitudes([make_amplitude("rectangular", 10.0, 1.0)])
    s0 = sample(make_amplitude("rectangular", 10.0, 1.0), grid)
    s1 = sample(make_amplitude("rectangular", 10.0, 1.0, tau0=0.5), grid)
    assert np.allclose(np.abs(s0.values) ** 2, np.abs(s1.values) ** 2)


@pytest.mark.parametrize("shape", SHAPES)
def test_disjoint_overlap_is_exactly_zero(shape):
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0, shape=shape)
    grid = grid_for_amplitudes([a1, a2])
    assert overlap(sample(a1, grid), sample(a2, grid)) == 0


def test_overlap_self_and_hermiticity():
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0, shape="truncated-gaussian")
    grid = grid_for_amplitudes([a1, a2])
    s1, s2 = sample(a1, grid), sample(a2, grid)
    assert abs(overlap(s1, s1) - 1.0) < 1e-8
    assert overlap(s1, s2) == np.conj(overlap(s2, s1))


def test_overlap_phase_closed_form():
    # <psi | e^{ik tau0} psi> = e^{i k_c tau0} sinc(delta tau0 / 2) for flat psi
    grid = grid_for_amplitudes([make_amplitude("rectangular", 10.0, 1.0)])
    s0 = sample(make_amplitude("rectangular", 10.0, 1.0), grid)
    s1 = sample(make_amplitude("rectangular", 10.0, 1.0, tau0=0.5), grid)
    got = overlap(s0, s1)
    expected = math.sin(0.25) / 0.25
    assert abs(abs(got) - expected) < 1e-12


def test_overlap_grid_mismatch():
    amp = make_amplitude("rectangular", 10.0, 1.0)
    s1 = sample(amp, gauss_legendre_grid([(9.5, 10.5)], 256))
    s2 = sample(amp, gauss_legendre_grid([(9.4, 10.6)], 256))
    with pytest.raises(ValueError):
        overlap(s1, s2)


@pytest.mark.parametrize("pair", [("rectangular", "raised-cosine"),
                                  ("truncated-gaussian", "rectangular")])
def test_cauchy_schwarz(pair):
    a = make_amplitude(pair[0], 10.0, 1.0)
    b = make_amplitude(pair[1], 10.2, 1.0)
    grid = gauss_legendre_grid([(9.5, 9.7), (9.7, 10.5), (10.5, 10.7)], 512)
    assert abs(overlap(sample(a, grid), sample(b, grid))) <= 1.0 + 1e-12


def test_time_profile_rectangular_envelope():
    delta, k_c = 1.0, 10.0
    amp = make_amplitude("rectangular", k_c, delta)
    grid = grid_for_amplitudes([amp])
    state = sample(amp, grid)
    taus = np.array([0.0, 1.0, 3.0, 2 * math.pi])
    got = np.abs(time_profile(state, taus)) ** 2
    x = delta * taus / 2
    expected = (delta / (2 * math.pi)) * np.where(x == 0, 1.0, np.sin(x) / np.where(x == 0, 1.0, x)) ** 2
    assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
def test_time_profile_parseval(shape):
    amp = make_amplitude(shape, 10.0, 1.0)
    # tau range covering >= 99.9% of the energy; the rectangular profile has
    # 1/tau^2 tails and needs a much wider window (and a denser k-grid to
    # push the discrete-spectrum revival time past the window edge)
    if shape == "rectangular":
        span, n_nodes, n_panels = 2000.0, 2048, 8000
    else:
        span, n_nodes, n_panels = 200.0, 256, 800
    grid = gauss_legendre_grid([amp.support], n_nodes)
    state = sample(amp, grid)
    edges = np.linspace(-span, span, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * (edges[1] - edges[0])
    taus = (half * x[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    wt = np.tile(half * w, len(edges) - 1)
    # evaluate in chunks: the full (n_tau, n_nodes) phase matrix is huge
    total = sum(
        wt[i:i + 8192] @ np.abs(time_profile(state, taus[i:i + 8192])) ** 2
        for i in range(0, len(taus), 8192)
    )
    assert abs(total - 1.0) < 1e-3


def test_time_profile_shift_theorem():
    amp0 = make_amplitude("raised-cosine", 10.0, 1.0)
    amp2 = make_amplitude("raised-cosine", 10.0, 1.0, tau0=2.0)
    grid = grid_for_amplitudes([amp0])
    taus = np.linspace(-5, 5, 41)
    p0 = np.abs(time_profile(sample(amp0, grid), taus)) ** 2
    p2 = np.abs(time_profile(sample(amp2, grid), taus + 2.0)) ** 2
    assert np.allclose(p0, p2, atol=1e-12)


@pytest.mark.parametrize(
    "t_open, n", [(10.0, 768), (352.0, 768), (1e3, 1536), (2e3, 3072), (1e4, 15360)]
)
def test_two_carrier_grid_sizes(t_open, n):
    # one 256-node rule; each of the three unit-width panels is cut into
    # ceil(t_open / 2 / 256) sub-panels, with support edges kept as panel edges
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([a1, a2], T=t_open)
    assert grid.size == n
    for edge in (9.5, 10.5, 11.5, 12.5):
        assert np.count_nonzero(grid.nodes < edge) % 256 == 0


def test_grid_budget_fails_before_allocating():
    amp = make_amplitude("rectangular", 10.0, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(spectra.GridBudgetError) as info:
            grid_for_amplitudes([amp], T=1e9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = info.value
    assert isinstance(err, ValueError)
    assert err.n == 256 * math.ceil(5e8 / 256) > spectra.MAX_GRID_NODES
    assert err.T == 1e9
    assert str(err.n) in str(err) and "1000000000.0" in str(err)
    assert peak < 2**20, peak


# Shared grids and memoised samples.  Each test gets empty caches, so it
# sees its own builds only.


@pytest.fixture
def fresh_caches():
    spectra._layout_grid.cache_clear()
    spectra._sample.cache_clear()


def test_same_layout_returns_same_grid(fresh_caches):
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([a1, a2], T=10.0)
    # T = 10 and T = 300 both give one sub-panel per unit panel
    assert grid_for_amplitudes([a2, a1], T=300.0) is grid
    assert grid_for_amplitudes([a1, a2], T=1e3) is not grid


def test_shared_grid_and_state_are_read_only(fresh_caches):
    amp = make_amplitude("raised-cosine", 10.0, 1.0)
    grid = grid_for_amplitudes([amp], T=5.0)
    state = sample(amp, grid)
    arrays = (grid.nodes, grid.weights, grid.panel_edges, grid.sqrt_weights,
              grid.centred_nodes, state.values, state.weighted())
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert sample(amp, grid) is state
    assert state.weighted() is state.weighted()


def test_grid_cache_evicts_least_recently_used(fresh_caches):
    amps = [make_amplitude("rectangular", 10.0 + 2 * i, 1.0)
            for i in range(spectra.GRID_CACHE_SIZE + 1)]
    grids = [grid_for_amplitudes([a], T=1.0) for a in amps]
    assert len({id(g) for g in grids}) == len(grids)
    for amp, grid in zip(amps[1:], grids[1:]):
        assert grid_for_amplitudes([amp], T=1.0) is grid
    rebuilt = grid_for_amplitudes([amps[0]], T=1.0)
    assert rebuilt is not grids[0]
    assert np.array_equal(rebuilt.nodes, grids[0].nodes)
    # a state on the evicted grid and a window on its rebuilt twin: equal
    # grids, so the same bits as both on one object
    state = sample(amps[0], grids[0])
    assert (detect_prob(build_window(rebuilt, 1.0), state)
            == detect_prob(build_window(grids[0], 1.0), state))


def test_sample_memo_is_per_grid_and_bounded(fresh_caches):
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0)
    small = grid_for_amplitudes([a1, a2], T=10.0)
    large = grid_for_amplitudes([a1, a2], T=1e3)
    on_small, on_large = sample(a1, small), sample(a1, large)
    assert on_small.grid is small and on_small.values.size == small.size == 768
    assert on_large.grid is large and on_large.values.size == large.size == 1536
    delays = [a1.delayed(0.5 * (i + 1)) for i in range(spectra.SAMPLE_CACHE_SIZE)]
    states = [sample(a, small) for a in delays]
    # the two oldest entries, on_small and on_large, are gone
    assert sample(a1, small) is not on_small
    assert np.array_equal(sample(a1, small).values, on_small.values)
    assert sample(delays[-1], small) is states[-1]


def test_unresolved_amplitude_names_its_numbers():
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([a1, a2], T=10.0)
    with pytest.raises(spectra.GridResolutionError, match=r"\(19\.5, 20\.5\).*\[9\.5, 12\.5\]"):
        sample(make_amplitude("rectangular", 20.0, 1.0), grid)
    with pytest.raises(spectra.GridResolutionError, match=r"spacing .* exceeds delta/64 = 0\.00015625"):
        sample(make_amplitude("rectangular", 11.0, 0.01), grid)
