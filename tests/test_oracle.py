"""Checks for the independent cross-check routines themselves."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbc.measurement import outcome_dist, support_povm, state_povm
from relbc import oracle
from relbc.oracle import (
    _HERMITIAN_TOL,
    TimeDomainConvergenceError,
    _eigvalsh_by_blocks,
    _hermitian_residual,
    detect_prob_flat_closed_form,
    detect_prob_time_domain,
    parity_exhaustive,
    povm_validity_bruteforce,
    sine_integral,
    time_profile,
)
from relbc.protocol import CommitConfig, ProtocolContext
from relbc.spectra import (
    disjoint_pair,
    gauss_legendre_grid,
    grid_for_amplitudes,
    make_amplitude,
    sample,
)
from relbc.window import build_window, detect_prob


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


@pytest.mark.parametrize("delta, T", [(1.0, math.inf), (math.inf, 2.0), (math.inf, math.inf)])
def test_closed_form_at_an_infinite_product_is_its_limit(delta, T):
    # the window operator gives 1 at T = inf too
    assert detect_prob_flat_closed_form(delta, T) == 1.0


@pytest.mark.parametrize("delta, T", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (0.0, math.inf),
], ids=["nan-delta", "nan-T", "inf-delta-zero-T", "zero-delta-inf-T"])
def test_closed_form_refuses_nan_with_its_parameters(delta, T):
    with pytest.raises(ValueError, match=re.escape(f"delta={delta!r}, T={T!r}")):
        detect_prob_flat_closed_form(delta, T)


@pytest.mark.parametrize("T, center, tol", [
    (math.nan, 0.0, 1e-8), (math.inf, 0.0, 1e-8), (1.0, math.nan, 1e-8),
    (1.0, math.inf, 1e-8), (1.0, 0.0, math.nan),
], ids=["nan-T", "inf-T", "nan-center", "inf-center", "nan-tol"])
def test_time_domain_refuses_non_finite_inputs_with_their_parameters(T, center, tol):
    amp = make_amplitude("rectangular", 10.0, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"T={T!r}, center={center!r}, tol={tol!r}")):
        detect_prob_time_domain(amp, T, tol=tol, center=center)


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
    """A stand-in for time_profile that records its k-node counts and never
    converges: call c gives |psi|^2 = c at every tau."""
    def profile(amplitude, taus, nk):
        calls.append(nk)
        return np.full(taus.size, math.sqrt(len(calls)))
    return profile


@pytest.mark.parametrize("tau0, first_nk", [(0.0, 128), (2e4, 10081)])
def test_time_domain_unconverged_raises_with_its_parameters(monkeypatch, tau0, first_nk):
    calls = []
    monkeypatch.setattr(oracle, "time_profile", _fake_profile(calls))
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
    complex elements: delayed references make the state family complex,
    and the support family's real elements are cast to complex
    (``_elements``), since its elements are real for every sender."""
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([amp1, amp2], T=5.0)
    support = support_povm(grid, amp1.support, amp2.support, 1.0)
    cases = {
        "support-real": support,
        "support-complex": support,
        "state-real": state_povm(sample(amp1, grid), sample(amp2, grid), 1.0),
        "state-complex": state_povm(sample(amp1.delayed(2.0), grid),
                                    sample(amp2.delayed(2.0), grid), 1.0),
    }
    for name in cases:
        assert np.iscomplexobj(_elements(cases, name)[0]) == name.endswith("complex")
    return cases


def _elements(povm_cases, case):
    """The case's dense [M_1, M_2, M_perp]; cast to complex for support-complex."""
    elements = list(oracle.povm_elements(povm_cases[case]))
    return [m.astype(complex) for m in elements] if case == "support-complex" else elements


CASES = ("support-real", "support-complex", "state-real", "state-complex")


@pytest.mark.parametrize("case", CASES)
def test_povm_validity_reports_hermiticity(povm_cases, case):
    report = povm_validity_bruteforce(povm_cases[case], _elements(povm_cases, case))
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
    m1, m2, m_perp = _elements(povm_cases, case)
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
    m1, m2, m_perp = _elements(povm_cases, case)
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
    ref = np.exp(-1j * np.outer(taus, k)) @ (wk * vals) / math.sqrt(2 * math.pi)
    assert np.array_equal(time_profile(amp, taus, 256), ref)


def test_time_profile_rectangular_envelope():
    delta = 1.0
    amp = make_amplitude("rectangular", 10.0, delta)
    taus = np.array([0.0, 1.0, 3.0, 2 * math.pi])
    got = np.abs(time_profile(amp, taus, 256)) ** 2
    x = delta * taus / 2
    expected = (delta / (2 * math.pi)) * np.where(x == 0, 1.0, np.sin(x) / np.where(x == 0, 1.0, x)) ** 2
    assert np.allclose(got, expected, atol=1e-12)


def test_time_profile_shift_theorem():
    amp0 = make_amplitude("raised-cosine", 10.0, 1.0)
    amp2 = make_amplitude("raised-cosine", 10.0, 1.0, tau0=2.0)
    taus = np.linspace(-5, 5, 41)
    p0 = np.abs(time_profile(amp0, taus, 256)) ** 2
    p2 = np.abs(time_profile(amp2, taus + 2.0, 256)) ** 2
    assert np.allclose(p0, p2, atol=1e-12)


@pytest.mark.parametrize("shape", ["rectangular", "truncated-gaussian", "raised-cosine"])
def test_time_profile_parseval(shape):
    # |psi|^2 integrated over (-200, 200) on 800 16-node panels
    amp = make_amplitude(shape, 10.0, 1.0)
    edges = np.linspace(-200.0, 200.0, 801)
    x, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * (edges[1] - edges[0])
    taus = (half * x[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    total = np.tile(half * w, 800) @ np.abs(time_profile(amp, taus, 256)) ** 2
    if shape == "rectangular":
        # the flat band's 1/tau^2 tails leave 3e-3 of its energy outside the
        # range; inside, the closed form holds to rounding
        assert abs(total - detect_prob_flat_closed_form(1.0, 200.0)) < 1e-12
    else:
        # at least 99.9 % of the energy lies inside
        assert abs(total - 1.0) < 1e-3


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


@st.composite
def _block_hermitian(draw):
    """A Hermitian matrix of contiguous diagonal blocks of random sizes, each
    random, all zero or the identity (zero and identity rows split into
    1 x 1 blocks), real or complex."""
    dtype = draw(st.sampled_from([float, complex]))
    block = st.tuples(st.integers(1, 12), st.sampled_from(["random", "zero", "eye"]))
    kinds = draw(st.lists(block, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.zeros((sum(size for size, _ in kinds),) * 2, dtype=dtype)
    a = 0
    for size, kind in kinds:
        b = a + size
        if kind == "eye":
            m[a:b, a:b] = np.eye(size)
        elif kind == "random":
            blk = rng.normal(size=(size, size))
            if dtype is complex:
                blk = blk + 1j * rng.normal(size=(size, size))
            m[a:b, a:b] = blk + blk.conj().T
        a = b
    return m


@settings(max_examples=200, deadline=None)
@given(m=_block_hermitian())
def test_block_eigenvalues_match_whole_matrix(m):
    vals = _eigvalsh_by_blocks(m)
    assert vals.dtype == np.float64
    whole = np.linalg.eigvalsh(m)
    assert np.max(np.abs(np.sort(vals) - whole)) <= 1e-13 * np.max(np.abs(m))


@pytest.mark.parametrize("entry", [(2, 5), (5, 2)])
def test_one_nonzero_in_either_triangle_merges_the_blocks_it_spans(monkeypatch, entry):
    # four 2 x 2 blocks; one entry couples the second and third, in the
    # upper triangle (which eigvalsh never reads) or the lower one
    rng = np.random.default_rng(1)
    m = np.zeros((8, 8))
    for a in range(0, 8, 2):
        blk = rng.normal(size=(2, 2))
        m[a:a + 2, a:a + 2] = blk + blk.T
    m[entry] = 0.5
    sent = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sent.append(a) or eigvalsh(a))
    vals = _eigvalsh_by_blocks(m)
    assert [(a.shape, np.shares_memory(a, m)) for a in sent] == [((2, 2), True), ((4, 4), True),
                                                                ((2, 2), True)]
    assert np.array_equal(vals, np.concatenate([eigvalsh(m[0:2, 0:2]), eigvalsh(m[2:6, 2:6]),
                                                eigvalsh(m[6:8, 6:8])]))


def test_validate_povms_split_support_elements_only(monkeypatch):
    # the POVMs `relbc validate` audits: support elements reach eigvalsh
    # one carrier block at a time, state elements whole and uncopied
    sent = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sent.append(a) or eigvalsh(a))
    for family in ("support", "state"):
        ctx = ProtocolContext(CommitConfig(
            n_channels=1, amp1=make_amplitude("rectangular", 12.0, 1.0),
            amp2=make_amplitude("rectangular", 10.0, 1.0), t_open=10.0, povm_family=family))
        for T in (0.1, 1.0, 10.0):
            povm = ctx.povm(T)
            assert povm.grid.size == 768
            elements = list(oracle.povm_elements(povm))
            sent.clear()
            assert povm_validity_bruteforce(povm, iter(elements))["passed"]
            if family == "support":
                assert sent and all(a.shape[0] <= 256 for a in sent)
            else:
                assert len(sent) == 3 and all(a is m for a, m in zip(sent, elements))


@pytest.mark.parametrize("case", ["support-real", "support-complex"])
def test_nan_on_an_isolated_diagonal_fails_the_audit(povm_cases, case):
    # a 1 x 1 block: its eigenvalue is the NaN itself, never sorted past
    povm = povm_cases[case]
    m1, m2, m_perp = _elements(povm_cases, case)
    assert not np.any(m1[0]) and not np.any(m1[:, 0])
    m1[0, 0] = math.nan
    report = povm_validity_bruteforce(povm, (m1, m2, m_perp))
    assert not report["passed"]
    assert math.isnan(report["elements"]["m1"]["min_eig"])
    assert math.isnan(report["min_eigenvalue"])
    assert not math.isnan(report["elements"]["m2"]["min_eig"])


@pytest.mark.parametrize("case", ["support-real", "support-complex"])
def test_nan_coupling_two_blocks_fails_the_audit(povm_cases, case):
    # M_perp's two carrier blocks joined by a NaN at both ends: one block,
    # which eigvalsh gives NaN eigenvalues or cannot solve
    povm = povm_cases[case]
    m1, m2, m_perp = _elements(povm_cases, case)
    assert m_perp[0, -1] == 0.0
    m_perp[0, -1] = m_perp[-1, 0] = math.nan
    report = povm_validity_bruteforce(povm, (m1, m2, m_perp))
    assert not report["passed"]
    assert math.isnan(report["elements"]["m_perp"]["min_eig"])
    assert math.isnan(report["min_eigenvalue"])
    # the NaN pair is in a tile past the first of the Hermiticity pass
    assert math.isnan(report["elements"]["m_perp"]["hermitian_residual"])
    assert math.isnan(report["hermitian_residual"])


def test_block_audit_sees_the_unresolved_support_povm():
    # README carriers on three unit panels from 9.5 to 12.5, each of two
    # 256-node sub-panels (1536 nodes): at T = 1000 the support POVM is not
    # valid, M_perp's least eigenvalue being about -0.0066
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    edges = np.arange(9.5, 12.75, 0.5)
    grid = gauss_legendre_grid(list(zip(edges[:-1], edges[1:])), 256)
    assert grid.size == 1536
    povm = support_povm(grid, amp1.support, amp2.support, 1000.0)
    report = povm_validity_bruteforce(povm)
    assert not report["passed"]
    assert report["min_eigenvalue"] == pytest.approx(-0.0066, abs=5e-5)
    whole = min(np.linalg.eigvalsh(m)[0] for m in oracle.povm_elements(povm))
    assert abs(report["min_eigenvalue"] - whole) <= 1e-12
