"""The panel-structured Cauchy operator against direct sums on large grids.

``window.bilinear_forms`` applies C = 1/(k - k') sub-panel by sub-panel
(``window._cauchy``): rule self blocks, other near pairs from the sub-panel
geometry without cancellation, and far pairs through Chebyshev proxies.
The dense-matrix tests stop at n = 3072; these tests pin the far field to
a direct sum at n = 15360 and 75264, the near field to an 80-bit sum at
n = 1536 to 75264, the forms to the dense matrix on uneven and on nearly
contiguous sub-panels and to the direct blocked Cauchy sum at n = 15360, the flat packet to its
closed form at T*delta = 2.5e5, and the memory of one operator step.  The
operator's plans and neighbour blocks are cached: a cold and a warm call
give the same bits, and the bytes the caches retain stay bounded.
"""

import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from relbc import measurement, oracle, window
from relbc.spectra import (
    _leggauss,
    disjoint_pair,
    gauss_legendre_grid,
    grid_for_amplitudes,
    make_amplitude,
    sample,
)


def _carriers(t_open: float):
    """The README's two carriers (12, 10), delta = 1, on the grid for t_open."""
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    return amp1, amp2, grid_for_amplitudes([amp1, amp2], T=t_open)


def _geometry(grid):
    """Sub-panel lower edges, upper edges and half-widths, and the rule's nodes."""
    lo, hi = grid.panel_edges[:-1], grid.panel_edges[1:]
    return lo, hi, 0.5 * (hi - lo), _leggauss(grid.rule)[0]


def _nodes_of(grid, panels):
    return (panels[:, None] * grid.rule + np.arange(grid.rule)).ravel()


@pytest.mark.parametrize("t_open, n", [(1e4, 15360), (5e4, 75264)])
def test_far_field_matches_direct_sum(t_open, n):
    # The operator is applied from the far sub-panels of p only, picked
    # here by the operator's rule (gap at least the wider width), so every
    # pair goes through the proxies.  The direct sum takes k - k' from the
    # sub-panel edges and the rule's nodes, the geometry the operator uses.
    _, _, grid = _carriers(t_open)
    assert grid.size == n
    r, panels = grid.rule, grid.panel_edges.size - 1
    lo, hi, half, x = _geometry(grid)
    cp = np.arange(panels)
    y = np.random.default_rng(9).standard_normal((n, 4))
    # both ends, the support edges and the middle of the grid
    for p in (0, 1, panels // 3, panels // 2, 2 * panels // 3, panels - 1):
        gap = np.maximum(lo[cp] - hi[p], lo[p] - hi[cp])
        far_src = cp[gap >= window._FAR_GAP * np.maximum(hi[p] - lo[p], hi - lo)]
        far = window._cauchy(grid, np.array([p]), far_src, y[_nodes_of(grid, far_src)])
        direct = np.zeros((r, 4))
        for src in np.array_split(far_src, -(-far_src.size // 16)):
            # (k_i - k'_j) per far source sub-panel, in the layout of y
            gap = 0.5 * ((lo[p] - lo[src]) + (hi[p] - hi[src]))
            dk = gap[:, None, None] + half[p] * x[None, :, None] - (half[src, None] * x)[:, None, :]
            direct += np.reciprocal(dk).transpose(1, 0, 2).reshape(r, -1) @ y[_nodes_of(grid, src)]
        rel = np.max(np.abs(far - direct)) / np.max(np.abs(direct))
        assert rel < 1e-13, (p, rel)


@pytest.mark.parametrize("t_open, n", [(1e3, 1536), (1e4, 15360), (5e4, 75264)])
def test_near_field_matches_extended_precision(t_open, n):
    # The near field of a sub-panel, its self block and both neighbours,
    # against an 80-bit sum on the same geometry, with k - k' as a sum of
    # non-negative terms.  Blocks built from the stored nodes, which are
    # that geometry rounded to ulp(k), miss it by 5e-11 at n = 1536 and
    # 5e-9 at n = 75264.
    _, _, grid = _carriers(t_open)
    assert grid.size == n
    r, panels = grid.rule, grid.panel_edges.size - 1
    lo, hi, half, x = (np.asarray(v, dtype=np.longdouble) for v in _geometry(grid))
    y = np.random.default_rng(9).standard_normal((n, 4))
    for p in (1, panels // 3, panels // 2, panels - 2):
        src = np.array([p - 1, p, p + 1])
        near = window._cauchy(grid, np.array([p]), src, y[_nodes_of(grid, src)])
        ref = np.zeros((r, 4), dtype=np.longdouble)
        for q, sign in ((p - 1, 1), (p + 1, -1)):
            up, dn = max(p, q), min(p, q)
            dk = (lo[up] - hi[dn]) + half[up] * (1 + x)[:, None] + half[dn] * (1 - x)
            ref += sign / (dk if q < p else dk.T) @ y[_nodes_of(grid, np.array([q]))]
        dk = half[p] * np.subtract.outer(x, x)
        np.fill_diagonal(dk, np.inf)
        ref += (1 / dk) @ y[_nodes_of(grid, np.array([p]))]
        rel = float(np.max(np.abs(near - ref)) / np.max(np.abs(ref)))
        assert rel <= 1e-14, (p, rel)


@pytest.mark.parametrize("rule, panels", [(32, 40), (64, 20)])
def test_forms_match_dense_on_uneven_sub_panels(rule, panels):
    # carriers' grids have equal sub-panels; these widths differ by up to
    # 10x between neighbours, so near and far pairs join sub-panels of
    # different widths, and the rule is not the 256-node one
    rng = np.random.default_rng(rule)
    edges = 9.5 + np.concatenate(([0.0], np.cumsum(rng.uniform(0.02, 0.2, panels))))
    grid = gauss_legendre_grid(list(zip(edges[:-1], edges[1:])), rule)
    assert grid.size == rule * panels <= oracle.DENSE_MAX_N
    n = grid.size
    a = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    a[: n // 3] = 0.0
    b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    b[-n // 4:] = 0.0
    a, b = a / np.linalg.norm(a, axis=0), b / np.linalg.norm(b, axis=0)
    windows = [window.build_window(grid, 0.5), window.build_window(grid, 30.0),
               window.build_window(grid, 100.0)]
    for w, form in zip(windows, window.bilinear_forms(windows, a, b)):
        assert np.max(np.abs(form - a.conj().T @ oracle.window_matrix(w) @ b)) <= 1e-12, w.T


def test_forms_match_dense_on_nearly_contiguous_panels():
    # gauss_legendre_grid takes panels 5e-13 apart as contiguous; the grid's
    # nodes and the forms' sub-panels both come from its one set of edges
    grid = gauss_legendre_grid([(9.5, 10.5 + 5e-13), (10.5, 11.5), (11.5, 12.5)], 256)
    rng = np.random.default_rng(5)
    a, b = rng.random((grid.size, 2)), rng.random((grid.size, 3))
    a, b = a / np.linalg.norm(a, axis=0), b / np.linalg.norm(b, axis=0)
    windows = [window.build_window(grid, 10.0), window.build_window(grid, 100.0)]
    for w, form in zip(windows, window.bilinear_forms(windows, a, b)):
        assert np.max(np.abs(form - a.T @ oracle.window_matrix(w) @ b)) <= 1e-13, w.T


def _direct_forms(windows, a, b):
    """A^H W_j B for centred finite windows, with C = 1/(k - k') summed
    directly over the nonzero rows of A and B, one row block at a time."""
    windows = list(windows)
    out = np.zeros((len(windows), a.shape[1], b.shape[1]), dtype=complex)
    rows, cols = np.flatnonzero(a.any(axis=1)), np.flatnonzero(b.any(axis=1))
    if not rows.size or not cols.size:
        return out
    grid = windows[0].grid
    assert all(math.isfinite(w.T) for w in windows)
    k = grid.nodes
    x = k - 0.5 * (grid.k_min + grid.k_max)
    sw = np.sqrt(grid.weights)[:, None]
    ts = np.array([w.T for w in windows])
    a_w, b_w = a[rows] * sw[rows], b[cols] * sw[cols]
    phi_c = np.multiply.outer(x[cols], ts)[..., None]
    rhs = np.stack([np.cos(phi_c) * b_w[:, None], np.sin(phi_c) * b_w[:, None]], axis=2)
    rhs = rhs.astype(complex).reshape(cols.size, -1).view(np.float64)
    for start in range(0, rows.size, 256):
        blk = rows[start:start + 256]
        cauchy = np.subtract.outer(k[blk], k[cols])
        # a row meeting its own column gets 1/inf = 0
        own = np.flatnonzero(np.isin(blk, cols))
        cauchy[own, np.searchsorted(cols, blk[own])] = np.inf
        np.reciprocal(cauchy, out=cauchy)
        g = (cauchy @ rhs).view(complex).reshape(blk.size, ts.size, 2, -1)
        phi_r = np.multiply.outer(x[blk], ts)[..., None]
        a_blk = a_w[start:start + 256, None].conj()
        out += np.einsum("iwa,iwb->wab", np.sin(phi_r) * a_blk, g[:, :, 0])
        out -= np.einsum("iwa,iwb->wab", np.cos(phi_r) * a_blk, g[:, :, 1])
    common = np.intersect1d(rows, cols)
    diag = (a[common] * grid.weights[common, None]).conj().T @ b[common]
    return (out + ts[:, None, None] * diag) / math.pi


def test_forms_match_direct_sum_at_n15360(monkeypatch):
    amp1, amp2, grid = _carriers(1e4)
    assert grid.size == 15360
    psi1, psi2 = sample(amp1, grid), sample(amp2, grid)
    sent = {
        "delayed": sample(amp1.delayed(7.5), grid),
        "mixed": measurement.mixed_density([psi1, psi2]),
    }
    times = (10.0, 1e3, 1e4)
    refs = {
        "support": measurement.support_povm(grid, amp1.support, amp2.support, 0.0).refs,
        "state": measurement.state_povm(psi1, psi2, 0.0).refs,
    }
    windows = [window.build_window(grid, t) for t in times]

    def evaluate():
        dists = {(family, name): [astuple(d)
                                  for d in measurement.outcome_dists(family, r, windows, s)]
                 for family, r in refs.items() for name, s in sent.items()}
        return dists, window.detect_probs(windows, psi1)

    dists, probs = evaluate()
    monkeypatch.setattr(measurement, "bilinear_forms", _direct_forms)
    monkeypatch.setattr(window, "bilinear_forms", _direct_forms)
    ref_dists, ref_probs = evaluate()
    for key, ref in ref_dists.items():
        assert np.max(np.abs(np.array(dists[key]) - ref)) <= 1e-13, key
    assert np.max(np.abs(np.array(probs) - ref_probs)) <= 1e-13


def test_flat_packet_matches_closed_form_at_td_2_5e5():
    amp = make_amplitude("rectangular", 10.0, 1.0)
    T = 2.5e5
    grid = grid_for_amplitudes([amp], T=T)
    assert grid.size == 125184
    p = window.detect_prob(window.build_window(grid, T), sample(amp, grid))
    # the miss is 2.6e-14 (numpy 2.4, OpenBLAS)
    assert abs(p - oracle.detect_prob_flat_closed_form(1.0, T)) < 1e-8


def test_far_field_step_memory_at_n75264():
    _, _, grid = _carriers(5e4)
    panels = grid.panel_edges.size - 1
    cp = np.arange(panels)
    # the row sub-panels of one operator step
    rp = np.arange(window._BLOCK_ENTRIES // (window._PROXIES ** 2 * panels))
    assert rp.size >= 1
    y = np.ones((grid.size, 4))
    # the rule's operators are built once per process, not per step
    window._rule_operators(grid.rule)
    tracemalloc.start()
    try:
        window._cauchy(grid, rp, cp, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the proxy kernel of the step (at most 8 MiB) and O(n) besides
    print(f"one operator step at n = {grid.size}: peak {peak} bytes")
    assert peak < 8 * window._BLOCK_ENTRIES + 2**20, peak


def _one_far_field_step(grid):
    """Peak traced bytes and result of the operator step of the test above."""
    panels = grid.panel_edges.size - 1
    cp = np.arange(panels)
    rp = np.arange(window._BLOCK_ENTRIES // (window._PROXIES ** 2 * panels))
    y = np.ones((grid.size, 4))
    tracemalloc.start()
    try:
        out = window._cauchy(grid, rp, cp, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


def test_far_field_step_memory_with_cold_and_warm_caches():
    # a cold call builds the plan and the neighbour blocks, the blocks after
    # the step's proxy kernel is freed; a warm one builds neither
    _, _, grid = _carriers(5e4)
    window._rule_operators(grid.rule)
    window._cauchy_plan.cache_clear()
    window._neighbour_block.cache_clear()
    cold, out = _one_far_field_step(grid)
    warm, again = _one_far_field_step(grid)
    assert window._cauchy_plan.cache_info().hits == 1
    assert np.array_equal(out, again)
    for peak in (cold, warm):
        assert peak < 8 * window._BLOCK_ENTRIES + 2**20, (cold, warm)


def test_cache_bytes_stay_under_the_stated_bound():
    # 12 sub-panels of uneven widths: at least 11 neighbour geometries, more
    # than the block cache keeps, and 48 (rp, cp) patterns, more than the
    # plan cache keeps
    rng = np.random.default_rng(12)
    edges = 9.5 + np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 0.4, 12))))
    grid = gauss_legendre_grid(list(zip(edges[:-1], edges[1:])), 256)
    panels = np.arange(12)
    patterns = [(np.sort(rng.choice(panels, rng.integers(1, 13), replace=False)),
                 np.sort(rng.choice(panels, rng.integers(1, 13), replace=False)))
                for _ in range(48)]
    window._rule_operators(grid.rule)
    window._cauchy_plan.cache_clear()
    window._neighbour_block.cache_clear()
    tracemalloc.start()
    try:
        for rp, cp in patterns:
            window._cauchy(grid, rp, cp, np.ones((cp.size * grid.rule, 2)))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert window._cauchy_plan.cache_info().currsize == window._PLAN_CACHE
    assert window._neighbour_block.cache_info().currsize == window._BLOCK_CACHE
    # the module docstring's bound: 0.5 MiB a block, and per plan 1 KiB,
    # 0.5 KiB a near pair and 8 bytes a panel edge; no plan has more near
    # pairs than the one of all sub-panels against all
    full = window._cauchy_plan.__wrapped__(grid.panel_edges.tobytes(), panels.tobytes(),
                                           panels.tobytes())
    pairs = sum(len(step[2]) for step in full.steps)
    bound = (window._BLOCK_CACHE * 2**19
             + window._PLAN_CACHE * (2**10 + 2**9 * pairs + 8 * edges.size))
    print(f"caches retain {retained} bytes, bound {bound}")
    assert retained < bound, (retained, bound)


@pytest.mark.parametrize("t_open, n", [(100.0, 768), (2e3, 3072)])
def test_cold_and_warm_plans_give_the_same_bits(t_open, n, monkeypatch):
    amp1, amp2, grid = _carriers(t_open)
    assert grid.size == n
    psi1, psi2 = sample(amp1, grid), sample(amp2, grid)
    sent = {
        "honest": psi1,
        "delayed": sample(amp1.delayed(7.5), grid),
        "mixed": measurement.mixed_density([psi1, psi2]),
        "wrong_state": sample(make_amplitude("raised-cosine", 12.1, 0.8), grid),
        # across the edge between the lower carrier's panel and the gap panel
        "wrong_in_gap": sample(make_amplitude("raised-cosine", 10.4, 0.8), grid),
    }
    refs = {
        "support": measurement.support_refs(grid, amp1.support, amp2.support),
        "state": measurement.state_refs(psi1, psi2),
    }
    windows = [window.build_window(grid, t) for t in (1.0, t_open / 10, t_open)]

    def evaluate():
        dists = {(family, name): [astuple(d)
                                  for d in measurement.outcome_dists(family, r, windows, s)]
                 for family, r in refs.items() for name, s in sent.items()}
        return dists, window.detect_probs(windows, psi1)

    window._cauchy_plan.cache_clear()
    cold = evaluate()
    before = window._cauchy_plan.cache_info()
    warm = evaluate()
    after = window._cauchy_plan.cache_info()
    # every form of the repeat call reuses its plan
    assert after.misses == before.misses and after.hits > before.hits
    window._cauchy_plan.cache_clear()
    window._neighbour_block.cache_clear()
    assert warm == cold == evaluate()
    # and the forms keep their agreement with the direct sum
    monkeypatch.setattr(measurement, "bilinear_forms", _direct_forms)
    monkeypatch.setattr(window, "bilinear_forms", _direct_forms)
    ref_dists, ref_probs = evaluate()
    for key, ref in ref_dists.items():
        assert np.max(np.abs(np.array(cold[0][key]) - ref)) <= 1e-13, key
    assert np.max(np.abs(np.array(cold[1]) - ref_probs)) <= 1e-13
