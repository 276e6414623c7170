"""Checks for the independent cross-check routines themselves."""

import math
from dataclasses import replace

import numpy as np
import pytest

from relbc.measurement import outcome_dist, support_povm, state_povm
from relbc import oracle
from relbc.oracle import (
    _HERMITIAN_TOL,
    TimeDomainConvergenceError,
    _hermitian_residual,
    _profile_sq,
    detect_prob_flat_closed_form,
    detect_prob_time_domain,
    parity_exhaustive,
    povm_validity_bruteforce,
    sine_integral,
)
from relbc.spectra import disjoint_pair, grid_for_amplitudes, make_amplitude, sample
from relbc.window import build_offset_window, build_window, detect_prob


# High-precision references computed with mpmath (mp.si / direct quadrature
# of the closed form) at 50 digits, truncated to double precision.
SI_REFS = {
    1.0: 0.94608307036718301494,
    8.0: 1.5741868217069420521,
    10.0: 1.6583475942188740493,
    100.0: 1.5622254668890562934,
    1e4: 1.5708915453859619157,
}

CF_REFS = {
    0.01: 0.0031830900199143,
    1.0: 0.30964254750185156606,
    100.0: 0.99366711583591,
    1e4: 0.99993633996715,
}


def test_sine_integral_reference_values():
    for x, ref in SI_REFS.items():
        assert abs(sine_integral(x) - ref) < 5e-14


def test_sine_integral_odd_and_zero():
    assert sine_integral(0.0) == 0.0
    for x in (0.3, 7.0, 42.0):
        assert sine_integral(-x) == -sine_integral(x)


def test_sine_integral_continuous_at_split():
    # the series/continued-fraction handoff must not leave a seam
    lo = sine_integral(8.0 - 1e-9)
    hi = sine_integral(8.0 + 1e-9)
    assert abs(hi - lo) < 1e-9


def test_sine_integral_asymptote():
    assert abs(sine_integral(1e6) - math.pi / 2) < 2e-6


def test_closed_form_reference_values():
    for x, ref in CF_REFS.items():
        assert abs(detect_prob_flat_closed_form(1.0, x) - ref) < 1e-13


def test_closed_form_scaling():
    # depends on delta and T only through the product
    a = detect_prob_flat_closed_form(2.0, 5.0)
    b = detect_prob_flat_closed_form(0.5, 20.0)
    assert abs(a - b) < 1e-14


def test_closed_form_limits():
    assert detect_prob_flat_closed_form(1.0, 0.0) == 0.0
    assert abs(detect_prob_flat_closed_form(1.0, 1e-6) - 1e-6 / math.pi) < 1e-12
    assert detect_prob_flat_closed_form(1.0, 1e8) > 1 - 1e-7


@pytest.mark.parametrize("shape", ["rectangular", "truncated-gaussian", "raised-cosine"])
def test_time_domain_matches_kernel(shape):
    amp = make_amplitude(shape, 10.0, 1.0)
    T = 2.0
    grid = grid_for_amplitudes([amp], T=T)
    state = sample(amp, grid)
    w = build_window(grid, T)
    p_kernel = detect_prob(w, state)
    p_time = detect_prob_time_domain(amp, T)
    assert abs(p_time - p_kernel) < 1e-8 * max(p_kernel, 1e-3)


def test_time_domain_matches_closed_form():
    amp = make_amplitude("rectangular", 10.0, 1.0)
    for T in (0.1, 1.0, 10.0):
        ref = detect_prob_flat_closed_form(1.0, T)
        assert abs(detect_prob_time_domain(amp, T) - ref) < 1e-8


def test_time_domain_delay_with_recentred_window():
    # a delayed pulse seen through a window centred on the delay looks honest
    amp = make_amplitude("raised-cosine", 10.0, 1.0)
    ref = detect_prob_time_domain(amp, 3.0)
    got = detect_prob_time_domain(amp.delayed(7.0), 3.0, center=7.0)
    assert abs(got - ref) < 1e-9


def _fake_profile(calls):
    """A stand-in for _profile_sq that records its k-node counts and never
    converges: call c gives |psi|^2 = c at every tau."""
    def profile(amplitude, taus, nk):
        calls.append(nk)
        return np.full(taus.size, float(len(calls)))
    return profile


@pytest.mark.parametrize("tau0, first_nk", [(0.0, 128), (2e4, 10081)])
def test_time_domain_unconverged_raises_with_its_parameters(monkeypatch, tau0, first_nk):
    calls = []
    monkeypatch.setattr(oracle, "_profile_sq", _fake_profile(calls))
    amp = make_amplitude("raised-cosine", 10.0, 1.0).delayed(tau0)
    with pytest.raises(TimeDomainConvergenceError) as info:
        detect_prob_time_domain(amp, 1.0, tol=1e-9)
    err = info.value
    assert isinstance(err, ValueError)
    assert (err.shape, err.delta, err.tau0, err.T, err.tol) == (
        "raised-cosine", 1.0, tau0, 1.0, 1e-9)
    # the tau weights sum to 2T, so evaluation c gives 2c
    assert len(calls) == 8 and err.last == pytest.approx((14.0, 16.0))
    assert "raised-cosine" in str(err) and "tol=1e-09" in str(err)
    # the k-nodes double up to the cap and never drop below where they began
    assert calls[0] == first_nk
    assert all(b >= a for a, b in zip(calls, calls[1:]))
    assert calls[-1] == max(first_nk, 6000)


def _build_povms():
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([amp1, amp2], T=5.0)
    s1, s2 = sample(amp1, grid), sample(amp2, grid)
    return (
        support_povm(grid, amp1.support, amp2.support, 5.0),
        state_povm(s1, s2, 5.0),
    )


def test_povm_validity_passes_for_honest_construction():
    for povm in _build_povms():
        report = povm_validity_bruteforce(povm)
        assert report["passed"]
        assert report["min_eigenvalue"] > -1e-9
        assert report["completeness_residual"] < 1e-8


def test_povm_validity_catches_corruption():
    povm, _ = _build_povms()
    m1, m2, m_perp = oracle.povm_elements(povm)
    bad = np.array(m1)
    bad[0, -1] += 1e-3
    report = povm_validity_bruteforce(povm, (bad, m2, m_perp))
    assert not report["passed"]


@pytest.fixture(scope="module")
def povm_cases():
    """Both families at T = 1 on one 768-node grid, with real and with
    complex elements: an off-centre window makes the support family
    complex, delayed references make the state family complex."""
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([amp1, amp2], T=5.0)
    support = support_povm(grid, amp1.support, amp2.support, 1.0)
    cases = {
        "support-real": support,
        "support-complex": replace(support, window=build_offset_window(grid, -0.5, 1.5)),
        "state-real": state_povm(sample(amp1, grid), sample(amp2, grid), 1.0),
        "state-complex": state_povm(sample(amp1.delayed(2.0), grid),
                                    sample(amp2.delayed(2.0), grid), 1.0),
    }
    for name, povm in cases.items():
        assert np.iscomplexobj(next(oracle.povm_elements(povm))) == name.endswith("complex")
    return cases


CASES = ("support-real", "support-complex", "state-real", "state-complex")


@pytest.mark.parametrize("case", CASES)
def test_povm_validity_reports_hermiticity(povm_cases, case):
    report = povm_validity_bruteforce(povm_cases[case])
    assert report["passed"]
    for name in ("m1", "m2", "m_perp"):
        assert 0.0 <= report["elements"][name]["hermitian_residual"] <= _HERMITIAN_TOL
    if case.endswith("real"):
        assert report["hermitian_residual"] == 0.0


@pytest.mark.parametrize("case", CASES)
def test_povm_validity_catches_non_hermitian_element(povm_cases, case):
    # an upper-triangle entry moved between M_1 and M_perp: eigvalsh reads
    # the lower triangle only and the sum is still the identity, so only
    # the Hermiticity check can see it
    povm = povm_cases[case]
    m1, m2, m_perp = oracle.povm_elements(povm)
    m1[0, -1] += 0.3
    m_perp[0, -1] -= 0.3
    report = povm_validity_bruteforce(povm, (m1, m2, m_perp))
    assert not report["passed"]
    assert report["completeness_residual"] <= 1e-8
    assert report["min_eigenvalue"] >= -1e-9
    assert report["elements"]["m1"]["hermitian_residual"] == pytest.approx(0.3)
    assert report["elements"]["m_perp"]["hermitian_residual"] == pytest.approx(0.3)
    assert report["elements"]["m2"]["hermitian_residual"] <= _HERMITIAN_TOL


@pytest.mark.parametrize("n", [128, 300])
def test_hermitian_residual_matches_full_transpose(n):
    # row blocks of 128: one whole block, and a ragged last block
    rng = np.random.default_rng(n)
    m = rng.random((n, n)) + 1j * rng.random((n, n))
    assert _hermitian_residual(m) == np.max(np.abs(m - m.conj().T))
    h = m + m.conj().T
    assert _hermitian_residual(h) == 0.0
    assert _hermitian_residual(h.real) == 0.0
    h[n - 1, 0] += 0.25
    assert _hermitian_residual(h) == pytest.approx(0.25)


@pytest.mark.parametrize("case", CASES)
def test_povm_validity_catches_negative_element(povm_cases, case):
    # eps e_0 e_0^T moved from M_1 to M_perp keeps completeness and
    # Hermiticity; e_0^T M_1 e_0 is below eps, so M_1 is no longer positive
    eps = 1e-6
    povm = povm_cases[case]
    m1, m2, m_perp = oracle.povm_elements(povm)
    assert abs(m1[0, 0]) < eps / 2
    m1[0, 0] -= eps
    m_perp[0, 0] += eps
    report = povm_validity_bruteforce(povm, (m1, m2, m_perp))
    assert not report["passed"]
    assert report["elements"]["m1"]["min_eig"] < -eps / 2
    assert report["completeness_residual"] <= 1e-8
    assert report["hermitian_residual"] <= _HERMITIAN_TOL


@pytest.mark.parametrize("shape", ["rectangular", "truncated-gaussian", "raised-cosine"])
def test_profile_phases_match_complex_exponential(shape):
    amp = make_amplitude(shape, 10.0, 1.0).delayed(3.0)
    taus = np.linspace(-40.0, 40.0, 301)
    lo, hi = amp.support
    x, w = np.polynomial.legendre.leggauss(256)
    k = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)
    wk = 0.5 * (hi - lo) * w
    vals = amp(k)
    vals = vals / math.sqrt(float(wk @ np.abs(vals) ** 2))
    # the cos/sin of the real phase gives exactly the complex exponential
    ref = np.abs(np.exp(-1j * np.outer(taus, k)) @ (wk * vals) / math.sqrt(2 * math.pi)) ** 2
    assert np.array_equal(_profile_sq(amp, taus, 256), ref)


def test_parity_exhaustive_single_channel():
    out = parity_exhaustive(1, 0.3)
    assert abs(out["all_detected"] - 0.3) < 1e-15
    # with one channel an undetected bit is a coin flip
    assert abs(out["guess_success"] - (0.3 + 0.7 / 2)) < 1e-15


def test_parity_exhaustive_matches_formulas():
    for n in (2, 3, 4):
        for p in (0.1, 0.5, 0.9):
            out = parity_exhaustive(n, p)
            assert abs(out["all_detected"] - p**n) < 1e-14
            expect = p**n + (1 - p**n) / 2
            assert abs(out["guess_success"] - expect) < 1e-14


def test_parity_exhaustive_reference_points():
    assert abs(parity_exhaustive(3, 0.5)["all_detected"] - 0.125) < 1e-15
    out = parity_exhaustive(4, 0.3)
    assert abs(out["all_detected"] - 0.0081) < 1e-15
    assert abs(out["guess_success"] - 0.50405) < 1e-15


@pytest.mark.parametrize("TDelta", [2.5e4, 5e4])
def test_flat_closed_form_past_the_old_node_cap(TDelta):
    # a single 5200-node panel gave 2.109 and 3.928 here
    amp = make_amplitude("rectangular", 10.0, 1.0)
    grid = grid_for_amplitudes([amp], T=TDelta)
    p = detect_prob(build_window(grid, TDelta), sample(amp, grid))
    assert abs(p - detect_prob_flat_closed_form(1.0, TDelta)) < 1e-8


def test_two_carrier_protocol_grid_at_TDelta_1e4():
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    T = 1e4
    grid = grid_for_amplitudes([amp1, amp2], T=T)
    povm = support_povm(grid, amp1.support, amp2.support, T)
    dist = outcome_dist(povm, sample(amp1, grid))
    assert abs(dist.p1 - detect_prob_flat_closed_form(1.0, T)) < 1e-12
    assert dist.p2 == 0.0


def test_oracle_stays_independent_of_the_production_path():
    # The oracle may read an amplitude's definition and nothing else of the
    # package: nothing of window, measurement, protocol, attacks or cli, and
    # no grid, sampled state or cached object of spectra.
    import ast
    from pathlib import Path

    own = []
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            own += [(alias.name, []) for alias in node.names if alias.name.startswith("relbc")]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("relbc")):
            module = (node.module or "").removeprefix("relbc").lstrip(".")
            own.append((module, [alias.name for alias in node.names]))
    assert own == [("spectra", ["SpectralAmplitude"])], own
