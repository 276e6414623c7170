import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from relbc import measurement, oracle, window
from relbc.measurement import (
    FAMILIES,
    PERP,
    OutcomeDist,
    Povm,
    effective_angle,
    mixed_density,
    outcome_dist,
    outcome_dists,
    sample_outcomes,
    state_povm,
    support_povm,
)
from relbc.protocol import CommitConfig
from relbc.spectra import disjoint_pair, grid_for_amplitudes, sample
from relbc.window import build_window, detect_prob, detect_probs


@pytest.fixture(scope="module")
def pair():
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([a1, a2], T=20.0)
    return a1, a2, grid, sample(a1, grid), sample(a2, grid)


def test_povm_rejects_unknown_family(pair):
    # unchecked, a misspelt family is read as the state family, and support
    # indicators as state references give p_perp far below zero
    a1, a2, grid, s1, _ = pair
    povm = support_povm(grid, a1.support, a2.support, 1.0)
    message = re.escape(f"unknown POVM family 'suport', expected one of {FAMILIES}")
    # one check, with one message, for the POVM, the distributions and the config
    for call in (
        lambda: Povm("suport", povm.window, povm.refs),
        lambda: outcome_dists("suport", povm.refs, [povm.window], s1),
        lambda: CommitConfig(n_channels=1, amp1=a1, amp2=a2, t_open=20.0, povm_family="suport"),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert all(Povm(f, povm.window, povm.refs).family == f for f in FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_form_past_one_beyond_rounding_raises(pair, monkeypatch, family):
    # one slack, 1e-9, on both sides of [0, 1]: a form 5e-7 above 1 is an
    # error from the detection probability and from the outcome distribution
    a1, a2, grid, s1, s2 = pair
    povm = (support_povm(grid, a1.support, a2.support, 1.0) if family == "support"
            else state_povm(s1, s2, 1.0))
    over = 1.0 + 5e-7

    def forms(windows, a, b):
        # p1 = over and p2 = 0: the state family squares row 0 of one form,
        # and the support family's second form is on P_2 psi_1 = 0
        out = np.zeros((len(windows), a.shape[1], b.shape[1]), dtype=complex)
        if a.any():
            out[:, 0, 0] = math.sqrt(over) if a.shape[1] == 2 else over
        return out

    monkeypatch.setattr(window, "bilinear_forms", forms)
    monkeypatch.setattr(measurement, "bilinear_forms", forms)
    with pytest.raises(ValueError, match=r"detection probability = 1\.000000"):
        detect_probs([povm.window], s1)
    with pytest.raises(ValueError, match=r"p1 = 1\.000000"):
        outcome_dists(family, povm.refs, [povm.window], s1)


def test_support_povm_completeness_exact(pair):
    a1, a2, grid, *_ = pair
    povm = support_povm(grid, a1.support, a2.support, 2.0)
    m1, m2, m_perp = oracle.povm_elements(povm)
    total = m1 + m2 + m_perp
    assert np.array_equal(total, np.eye(grid.size))


@pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
def test_support_povm_positive(pair, T):
    a1, a2, grid, *_ = pair
    povm = support_povm(grid, a1.support, a2.support, T)
    for m in oracle.povm_elements(povm):
        assert np.linalg.eigvalsh(m)[0] >= -1e-9


def test_support_povm_rejects_overlap(pair):
    grid = pair[2]
    with pytest.raises(ValueError):
        support_povm(grid, (9.5, 10.5), (10.0, 11.0), 1.0)


@pytest.mark.parametrize("bad", [(12.5, 11.5), (11.5, 11.5), (11.5, math.inf),
                                 (math.nan, 12.5)])
def test_support_povm_rejects_empty_or_reversed_interval(pair, bad):
    # a reversed interval gave an all-zero indicator, so M_1 = 0 and p1 read 0
    grid = pair[2]
    with pytest.raises(ValueError, match=r"support interval \(.*\) must be finite and non-empty"):
        support_povm(grid, bad, (9.5, 10.5), 5.0)


def test_support_povm_projector_limit(pair):
    a1, a2, grid, s1, _ = pair
    povm = support_povm(grid, a1.support, a2.support, 1000.0 / 3)
    # use a grid sized for that T only implicitly; large-T limit via T*delta >> 1
    d = outcome_dist(povm, s1)
    assert d.p1 >= 0.98


def test_support_cross_probability_exactly_zero(pair):
    a1, a2, grid, s1, s2 = pair
    for T in (0.1, 1.0, 10.0):
        povm = support_povm(grid, a1.support, a2.support, T)
        assert outcome_dist(povm, s1).p2 == 0.0
        assert outcome_dist(povm, s2).p1 == 0.0


def test_zero_window_all_perp(pair):
    a1, a2, grid, s1, _ = pair
    povm = support_povm(grid, a1.support, a2.support, 0.0)
    assert outcome_dist(povm, s1) == OutcomeDist(0.0, 0.0, 1.0)


def test_support_matches_window_detect(pair):
    a1, a2, grid, s1, _ = pair
    povm = support_povm(grid, a1.support, a2.support, 1.0)
    d = outcome_dist(povm, s1)
    assert abs(d.p1 - detect_prob(build_window(grid, 1.0), s1)) < 1e-14


def test_state_povm_honest_limit(pair):
    *_, s1, s2 = pair
    povm = state_povm(s1, s2, 300.0)
    assert outcome_dist(povm, s1).p1 >= 0.98


def test_state_povm_zero_window(pair):
    *_, s1, s2 = pair
    povm = state_povm(s1, s2, 0.0)
    d = outcome_dist(povm, s1)
    assert d == OutcomeDist(0.0, 0.0, 1.0)


def test_state_povm_rejects_nonorthogonal(pair):
    *_, s1, _ = pair
    with pytest.raises(ValueError):
        state_povm(s1, s1, 1.0)


@pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
def test_state_povm_perp_positive(pair, T):
    *_, s1, s2 = pair
    povm = state_povm(s1, s2, T)
    assert np.linalg.eigvalsh(tuple(oracle.povm_elements(povm))[2])[0] >= -1e-9


def test_state_povm_detects_delay(pair):
    # delayed by tau0 with delta*tau0 = pi: p1 drops to ~ sinc^2(pi/2) = (2/pi)^2
    a1, a2, grid, s1, s2 = pair
    povm = state_povm(s1, s2, 300.0)
    delayed = sample(a1.delayed(math.pi), grid)
    p1 = outcome_dist(povm, delayed).p1
    assert p1 < 0.5
    assert abs(p1 - (2 / math.pi) ** 2) < 0.02


def test_state_povm_p1_decreases_with_delay(pair):
    a1, a2, grid, s1, s2 = pair
    povm = state_povm(s1, s2, 300.0)
    taus = np.linspace(0.0, 2 * math.pi, 9)
    p1s = [outcome_dist(povm, sample(a1.delayed(t), grid)).p1 for t in taus]
    assert np.all(np.diff(p1s) < 0)


def test_support_povm_phase_blind_projective(pair):
    # the projective (T = inf) support measurement cannot see spectral phases
    a1, a2, grid, s1, _ = pair
    povm = support_povm(grid, a1.support, a2.support, math.inf)
    delayed = sample(a1.delayed(2 * math.pi), grid)
    d0 = np.array(astuple(outcome_dist(povm, s1)))
    d1 = np.array(astuple(outcome_dist(povm, delayed)))
    assert np.max(np.abs(d0 - d1)) < 1e-10


def test_support_povm_phase_sensitivity_decays(pair):
    # at finite T the windowed support family leaks phase at order (T*delta)^-3
    a1, a2, grid, s1, _ = pair
    delayed = sample(a1.delayed(2 * math.pi), grid)
    diffs = []
    for T in (10.0, 20.0):
        povm = support_povm(grid, a1.support, a2.support, T)
        d0 = np.array(astuple(outcome_dist(povm, s1)))
        d1 = np.array(astuple(outcome_dist(povm, delayed)))
        diffs.append(np.max(np.abs(d0 - d1)))
    assert diffs[1] < diffs[0] / 4  # faster than quadratic decay


def test_mixed_density_trace_and_linearity(pair):
    a1, a2, grid, s1, s2 = pair
    factor = mixed_density([s1, s2])
    assert abs(np.trace(factor @ factor.conj().T) - 1.0) < 1e-12
    povm = support_povm(grid, a1.support, a2.support, 5.0)
    d = outcome_dist(povm, factor)
    p_det = detect_prob(build_window(grid, 5.0), s1)
    assert abs(d.p1 - p_det / 2) < 1e-10
    assert abs(d.p2 - p_det / 2) < 1e-10


def test_outcome_dist_rejects_bad_trace(pair):
    a1, a2, grid, s1, _ = pair
    povm = support_povm(grid, a1.support, a2.support, 1.0)
    with pytest.raises(ValueError, match="trace"):
        outcome_dist(povm, 2.0 * s1.weighted()[:, None])


def test_outcome_dist_rejects_state_on_another_grid_of_the_same_size():
    a1, a2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([a1, a2], T=10.0)
    povm = state_povm(sample(a1, grid), sample(a2, grid), 10.0)
    b1, b2 = disjoint_pair(22.0, 20.0, 1.0)
    other = grid_for_amplitudes([b1, b2], T=10.0)
    assert other.size == grid.size == 768
    with pytest.raises(ValueError, match="different grids"):
        outcome_dist(povm, sample(b1, other))


def test_bruteforce_double_integral_equivalence(pair):
    # window form vs direct quadrature double integral of the kernel
    a1, a2, grid, s1, _ = pair
    T = 2.0
    povm = support_povm(grid, a1.support, a2.support, T)
    p_trace = outcome_dist(povm, s1).p1
    k, w, v = grid.nodes, grid.weights, s1.values
    dk = np.subtract.outer(k, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.sin(dk * T) / (math.pi * dk)
    np.fill_diagonal(kern, T / math.pi)
    mask = (k > 11.5) & (k < 12.5)
    integrand = np.outer(w * np.conj(v) * mask, w * v * mask) * kern
    assert abs(p_trace - np.sum(integrand).real) < 1e-10


def test_sample_outcome_degenerate():
    rng = np.random.default_rng(1)
    dists = (OutcomeDist(1.0, 0.0, 0.0), OutcomeDist(0.0, 0.0, 1.0))
    bits = [0, 1] * 20
    assert sample_outcomes(dists, bits, rng).tolist() == [1, PERP] * 20


def test_sample_outcome_statistics():
    dist = OutcomeDist(0.3, 0.2, 0.5)
    rng = np.random.default_rng(42)
    n = 100_000
    out = sample_outcomes((dist,), np.zeros(n, dtype=int), rng)
    for code, p in ((1, 0.3), (2, 0.2), (PERP, 0.5)):
        freq = np.mean(out == code)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 3 * sigma


def test_sample_outcome_deterministic():
    dist = OutcomeDist(0.3, 0.2, 0.5)
    a = sample_outcomes((dist,), [0] * 5, np.random.default_rng(7))
    b = sample_outcomes((dist,), [0] * 5, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_effective_angle():
    assert effective_angle(0.0) == 0.0
    assert effective_angle(1.0) == pytest.approx(math.pi / 2)
    assert math.cos(effective_angle(0.1)) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        effective_angle(1.5)


@pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
def test_povm_validity_both_families(pair, T):
    a1, a2, grid, s1, s2 = pair
    for povm in (
        support_povm(grid, a1.support, a2.support, T),
        state_povm(s1, s2, T),
    ):
        report = oracle.povm_validity_bruteforce(povm)
        assert report["passed"], report


def _complex_elements(povm):
    """The same (M_1, M_2, M_perp) in complex arithmetic throughout."""
    w = oracle.window_matrix(povm.window).astype(complex)
    refs = [np.asarray(r, dtype=complex) for r in povm.refs]
    if povm.family == "support":
        m1, m2 = (w * np.outer(r, r) for r in refs)
    else:
        m1, m2 = (np.outer(b, np.conj(b)) for b in (w @ r for r in refs))
    return m1, m2, np.eye(povm.grid.size) - m1 - m2


@pytest.mark.parametrize("T", [0.0, 0.1, 10.0, math.inf])
def test_real_povm_has_real_elements(pair, T):
    a1, a2, grid, s1, s2 = pair
    for povm in (support_povm(grid, a1.support, a2.support, T), state_povm(s1, s2, T)):
        assert all(m.dtype == np.float64 for m in oracle.povm_elements(povm)), povm.family


def test_delayed_povm_has_complex_elements(pair):
    a1, a2, grid, _, _ = pair
    delayed = state_povm(sample(a1.delayed(2.0), grid), sample(a2.delayed(2.0), grid), 1.0)
    assert all(m.dtype == np.complex128 for m in oracle.povm_elements(delayed))


@pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
def test_real_elements_match_complex_arithmetic(pair, T):
    a1, a2, grid, s1, s2 = pair
    for povm in (support_povm(grid, a1.support, a2.support, T), state_povm(s1, s2, T)):
        for m, ref in zip(oracle.povm_elements(povm), _complex_elements(povm)):
            assert np.max(np.abs(m - ref)) <= 1e-15, povm.family


def test_real_elements_give_the_complex_oracle_report(pair):
    a1, a2, grid, s1, s2 = pair
    T = 10.0  # the widest window relbc validate checks
    for povm in (support_povm(grid, a1.support, a2.support, T), state_povm(s1, s2, T)):
        real, cplx = tuple(oracle.povm_elements(povm)), _complex_elements(povm)
        got = oracle.povm_validity_bruteforce(povm, real)
        want = oracle.povm_validity_bruteforce(povm, cplx)
        assert got["passed"] and want["passed"]
        for name in ("m1", "m2", "m_perp"):
            for key in ("min_eig", "max_eig"):
                assert abs(got["elements"][name][key] - want["elements"][name][key]) <= 1e-12
