"""The matrix-free window forms against the dense matrices they replace.

Every production probability is a bilinear form of the window operator,
evaluated through the Cauchy split of its kernel with one product with
C = 1/(k - k') for all windows of a call; the oracle's dense references
(``oracle.window_matrix``, ``oracle.povm_elements``) use the direct kernel
and serve small-grid checks only.  These tests pin the forms, one window
or several per call, to Tr(rho M) and u^H W u from the dense matrices,
bound the memory of one large-grid distribution, and check that dense
materialisation past the budget fails before it allocates.
"""

import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from relbc import attacks, measurement, oracle
from relbc.protocol import CommitConfig, ProtocolContext
from relbc.spectra import disjoint_pair, gauss_legendre_grid, make_amplitude, sample
from relbc.oracle import (
    DENSE_MAX_N,
    DenseBudgetError,
    povm_elements,
    window_matrix,
    window_spectrum,
)
from relbc.window import bilinear_forms, build_window, detect_prob

AGREE_ABS = 1e-12


def _context(t_open: float) -> ProtocolContext:
    """The README's two carriers (12, 10), delta = 1."""
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    return ProtocolContext(CommitConfig(n_channels=5, amp1=amp1, amp2=amp2, t_open=t_open))


def _family(ctx, family: str) -> ProtocolContext:
    """The context of ``ctx``'s config under another POVM family."""
    return ProtocolContext(replace(ctx.config, povm_family=family))


@pytest.fixture(scope="module")
def ctx():
    c = _context(100.0)
    assert c.grid.size == 768
    return c


def _inputs(ctx, tau0, wrong_kc, wrong_delta):
    return {
        "honest": ctx.psi1,
        "delayed": sample(ctx.config.amp1.delayed(tau0), ctx.grid),
        "wrong_state": sample(make_amplitude("raised-cosine", wrong_kc, wrong_delta), ctx.grid),
        "mixed": measurement.mixed_density([ctx.psi1, ctx.psi2]),
    }


def _dense_probs(elements, sent):
    if isinstance(sent, np.ndarray):
        return [float(np.real(np.trace(sent.conj().T @ m @ sent))) for m in elements]
    u = sent.weighted()
    return [float(np.real(np.vdot(u, m @ u))) for m in elements]


# each example materialises dense elements, so a failure is reported as
# drawn instead of being shrunk through hundreds of such examples
@settings(max_examples=12, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    log_t=st.floats(min_value=-2.0, max_value=2.0),
    tau0=st.floats(min_value=0.5, max_value=10.0),
    wrong_delta=st.floats(min_value=0.6, max_value=1.0),
    wrong_pos=st.floats(min_value=0.0, max_value=1.0),
)
def test_forms_match_dense_matrices(ctx, log_t, tau0, wrong_delta, wrong_pos):
    T = 10.0**log_t
    lo, hi = 9.5 + wrong_delta / 2, 12.5 - wrong_delta / 2
    sent = _inputs(ctx, tau0, lo + wrong_pos * (hi - lo), wrong_delta)
    for family in ("support", "state"):
        povm = _family(ctx, family).povm(T)
        elements = tuple(povm_elements(povm))
        for name, s in sent.items():
            dist = np.array(astuple(measurement.outcome_dist(povm, s)))
            dense = np.array(_dense_probs(elements, s))
            assert np.max(np.abs(dist - dense)) <= AGREE_ABS, (family, name, T)
    w = build_window(ctx.grid, T)
    matrix = window_matrix(w)
    for s in (sent["honest"], sent["delayed"], sent["wrong_state"]):
        u = s.weighted()
        assert abs(detect_prob(w, s) - float(np.real(np.vdot(u, matrix @ u)))) <= AGREE_ABS
    # disjoint supports: the support family's cross-probabilities are exact zeros
    support = _family(ctx, "support").povm(T)
    for s, wrong in ((ctx.psi1, "p2"), (sent["delayed"], "p2"), (ctx.psi2, "p1")):
        assert getattr(measurement.outcome_dist(support, s), wrong) == 0.0


@pytest.fixture(scope="module")
def ctx3072():
    c = _context(2e3)
    assert c.grid.size == 3072 <= DENSE_MAX_N
    return c


@pytest.mark.parametrize("T", [1e-3, 1e3])
def test_forms_match_dense_matrices_at_n3072(ctx3072, T):
    # the largest dense-checkable grid, at both ends of its window range:
    # phases (k - k_ref) T up to 1.5e3, and near-cancelling sines at 1e-3
    ctx = ctx3072
    sent = _inputs(ctx, 7.5, 11.0, 0.8)
    for family in ("support", "state"):
        povm = _family(ctx, family).povm(T)
        elements = tuple(povm_elements(povm))
        for name, s in sent.items():
            dist = np.array(astuple(measurement.outcome_dist(povm, s)))
            dense = np.array(_dense_probs(elements, s))
            assert np.max(np.abs(dist - dense)) <= AGREE_ABS, (family, name)
        del elements
    w = build_window(ctx.grid, T)
    matrix = window_matrix(w)
    for s in (sent["honest"], sent["delayed"], sent["wrong_state"]):
        u = s.weighted()
        assert abs(detect_prob(w, s) - float(np.real(np.vdot(u, matrix @ u)))) <= AGREE_ABS
    support = _family(ctx, "support").povm(T)
    for s, wrong in ((ctx.psi1, "p2"), (sent["delayed"], "p2"), (ctx.psi2, "p1")):
        assert getattr(measurement.outcome_dist(support, s), wrong) == 0.0


# each example materialises four dense windows
@settings(max_examples=8, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    log_t=st.floats(min_value=-2.0, max_value=2.0),
    order=st.permutations(range(4)),
    tau0=st.floats(min_value=0.5, max_value=10.0),
)
def test_multi_window_forms_match_dense_matrices(ctx, log_t, order, tau0):
    # finite, empty, full and t_open windows in any order, on the n = 768
    # two-carrier grid; T log-uniform up to t_open = 100
    grid, t_open = ctx.grid, ctx.config.t_open
    windows = [
        build_window(grid, 10.0**log_t),
        build_window(grid, 0.0),
        build_window(grid, math.inf),
        build_window(grid, t_open),
    ]
    windows = [windows[i] for i in order]
    sent = _inputs(ctx, tau0, 11.0, 0.8)
    a = np.column_stack([ctx.psi1.weighted(), ctx.psi2.weighted()])
    b = np.column_stack([sent["delayed"].weighted(), sent["wrong_state"].weighted(),
                         sent["mixed"]])
    forms = bilinear_forms(windows, a, b)
    assert forms.shape == (4, 2, 4)
    for w, form in zip(windows, forms):
        dense = a.conj().T @ window_matrix(w) @ b
        assert np.max(np.abs(form - dense)) <= AGREE_ABS, w.T
    # an empty side (psi_1 restricted to E_2) gives exact zeros in every slot
    lo, hi = ctx.config.amp2.support
    empty = (((grid.nodes > lo) & (grid.nodes < hi)) * ctx.psi1.weighted())[:, None]
    assert not np.any(bilinear_forms(windows, empty, b))
    assert not np.any(bilinear_forms(windows, a, empty))
    support = _family(ctx, "support").refs
    assert all(d.p2 == 0.0 for d in measurement.outcome_dists("support", support, windows, ctx.psi1))
    assert all(d.p1 == 0.0 for d in measurement.outcome_dists("support", support, windows, ctx.psi2))


def test_multi_window_calls_reject_mixed_inputs(ctx, big_grid):
    with pytest.raises(ValueError, match="different grids"):
        bilinear_forms([build_window(ctx.grid, 1.0), build_window(big_grid, 1.0)],
                       ctx.psi1.weighted()[:, None], ctx.psi1.weighted()[:, None])
    with pytest.raises(ValueError, match="different grids"):
        measurement.outcome_dists("state", ctx.refs, [build_window(ctx.grid, 1.0),
                                                      build_window(big_grid, 1.0)], ctx.psi1)
    with pytest.raises(ValueError, match="unknown POVM family 'suport'"):
        measurement.outcome_dists("suport", ctx.refs, [build_window(ctx.grid, 1.0)], ctx.psi1)
    assert measurement.outcome_dists("state", ctx.refs, [], ctx.psi1) == []
    assert bilinear_forms([], ctx.psi1.weighted()[:, None], ctx.psi2.weighted()[:, None]).shape == (0, 1, 1)


# POVM completeness and positivity; touching carriers give n = 512, a gap n = 768
@settings(max_examples=4, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    log_t=st.floats(min_value=-2.0, max_value=math.log10(352.0)),
    gap=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=1.0)),
)
@example(log_t=math.log10(352.0), gap=0.0)
def test_povm_validity_property(log_t, gap):
    amp1, amp2 = disjoint_pair(11.0 + gap, 10.0, 1.0)
    T = min(10.0**log_t, 352.0)  # 10**log10(352) rounds to just past t_open
    for family in ("support", "state"):
        c = ProtocolContext(CommitConfig(n_channels=2, amp1=amp1, amp2=amp2, t_open=352.0,
                                         povm_family=family))
        assert c.grid.size <= 768
        report = oracle.povm_validity_bruteforce(c.povm(T))
        assert report["passed"], (family, report["min_eigenvalue"],
                                  report["completeness_residual"])


def test_outcome_dist_rejects_dense_density(ctx):
    povm = ctx.povm(1.0)
    factor = measurement.mixed_density([ctx.psi1, ctx.psi2])
    with pytest.raises(ValueError, match="factor"):
        measurement.outcome_dist(povm, factor @ factor.conj().T)


def test_mixed_distribution_memory_at_n3072():
    ctx = _context(2e3)
    assert ctx.grid.size == 3072
    mixed = attacks.Strategy(kind="mixed")
    tracemalloc.start()
    try:
        ctx.outcome_dists(1e3, attacks.sent_pair(mixed, ctx))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense complex matrix at this n is 151 MB
    assert peak < 64 * 2**20, peak


def test_multi_window_mixed_distribution_memory_at_n3072(ctx3072):
    mixed = measurement.mixed_density([ctx3072.psi1, ctx3072.psi2])
    tracemalloc.start()
    try:
        windows = [ctx3072.window(T) for T in (1e-3, 1.0, 10.0, 1e2, 1e3, 2e3)]
        dists = measurement.outcome_dists("state", ctx3072.refs, windows, mixed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dists) == 6
    # six dense complex matrices at this n would take 906 MB
    assert peak < 64 * 2**20, peak


@pytest.fixture(scope="module")
def big_grid():
    """20 panels of 256 nodes on [9, 13]: past the dense budget, cheap to build."""
    edges = np.linspace(9.0, 13.0, 21)
    grid = gauss_legendre_grid(list(zip(edges[:-1], edges[1:])), 256)
    assert grid.size == 5120 > DENSE_MAX_N
    return grid


def _fails_without_allocating(fn, n):
    tracemalloc.start()
    try:
        with pytest.raises(DenseBudgetError) as info:
            fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = info.value
    assert isinstance(err, ValueError)
    assert err.n == n and err.bytes_needed == n * n * 16
    assert str(n) in str(err) and str(n * n * 16) in str(err)
    assert peak < 2**20, peak


def test_dense_materialisation_fails_fast(big_grid):
    n = big_grid.size
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0)
    s1, s2 = sample(a1, big_grid), sample(a2, big_grid)
    w = build_window(big_grid, 5.0)
    support = measurement.support_povm(big_grid, a1.support, a2.support, 5.0)
    state = measurement.state_povm(s1, s2, 5.0)
    _fails_without_allocating(lambda: window_matrix(w), n)
    _fails_without_allocating(lambda: window_spectrum(w), n)
    _fails_without_allocating(lambda: tuple(povm_elements(support)), n)
    _fails_without_allocating(lambda: tuple(povm_elements(state)), n)
    for povm in (support, state):
        _fails_without_allocating(lambda: next(povm_elements(povm)), n)
    # the forms themselves still work on this grid
    assert 0.0 < detect_prob(w, s1) < 1.0
    d = measurement.outcome_dist(support, s1)
    assert d.p2 == 0.0 and math.isclose(d.p1, detect_prob(w, s1), abs_tol=1e-12)
