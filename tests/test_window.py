import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbc import oracle
from relbc.spectra import grid_for_amplitudes, make_amplitude, sample
from relbc.window import (
    WindowOperator,
    bilinear_forms,
    build_offset_window,
    build_window,
    detect_prob,
    detect_probs,
)


@pytest.fixture(scope="module")
def flat():
    amp = make_amplitude("rectangular", 10.0, 1.0)
    grid = grid_for_amplitudes([amp], T=100.0)
    return amp, grid, sample(amp, grid)


def test_zero_window_is_zero_matrix(flat):
    _, grid, state = flat
    w = build_window(grid, 0.0)
    assert np.all(oracle.window_matrix(w) == 0)
    assert detect_prob(w, state) == 0.0


def test_negative_window_rejected(flat):
    _, grid, _ = flat
    with pytest.raises(ValueError):
        build_window(grid, -1.0)


# NaN slips past a `<` comparison, so each of these used to give a nan
# probability or fail only later, as a broken operator
@pytest.mark.parametrize("make, message", [
    (lambda g, s: detect_prob(build_window(g, math.nan), s), "non-negative, got nan"),
    (lambda g, s: build_offset_window(g, math.nan, 1.0), "non-negative, got nan"),
    (lambda g, s: WindowOperator(g, 1.0, center=math.inf), "centre must be finite, got inf"),
    (lambda g, s: WindowOperator(g, -1.0), "non-negative, got -1.0"),
], ids=["nan-half-width", "nan-offset-endpoint", "infinite-centre", "negative-half-width"])
def test_window_checks_its_own_parameters(flat, make, message):
    _, grid, state = flat
    with pytest.raises(ValueError, match=message):
        make(grid, state)


def test_kernel_hermitian(flat):
    _, grid, _ = flat
    w = build_window(grid, 2.0)
    m = oracle.window_matrix(w)
    assert np.max(np.abs(m - m.T.conj())) < 1e-12


def test_spectrum_in_unit_interval(flat):
    _, grid, _ = flat
    vals = oracle.window_spectrum(build_window(grid, 5.0))
    assert vals[0] <= 1.0 + 1e-9
    assert vals[-1] >= -1e-9
    assert np.all(np.diff(vals) <= 0)


def test_operator_monotone_in_T(flat):
    _, grid, _ = flat
    w1 = build_window(grid, 1.0)
    w2 = build_window(grid, 2.5)
    diff = np.linalg.eigvalsh(oracle.window_matrix(w2) - oracle.window_matrix(w1))
    assert diff[0] >= -1e-9


def test_detect_prob_flat_reference_value(flat):
    # (2/pi)(Si(1) - (1 - cos 1)) = 0.3096425...
    _, grid, state = flat
    p = detect_prob(build_window(grid, 1.0), state)
    assert abs(p - 0.30964254750185156) < 1e-10


def test_long_window_saturates(flat):
    _, grid, state = flat
    assert detect_prob(build_window(grid, 100.0), state) >= 0.99


def test_short_window_linear_law(flat):
    _, grid, state = flat
    p1 = detect_prob(build_window(grid, 0.01), state)
    p2 = detect_prob(build_window(grid, 0.02), state)
    assert abs(p1 - 0.01 / math.pi) < 1e-5
    assert abs(p2 / p1 - 2.0) < 0.01


def test_detect_monotone_in_T(flat):
    _, grid, state = flat
    ts = np.linspace(0.0, 20.0, 60)
    ps = [detect_prob(build_window(grid, t), state) for t in ts]
    assert np.all(np.diff(ps) >= -1e-12)


def test_perp_asymptotics(flat):
    _, grid, state = flat
    p_long, p_short = detect_probs(
        [build_window(grid, 100.0), build_window(grid, 0.001)], state
    )
    assert 1.0 - p_long <= 0.01
    assert 1.0 - p_short > 0.999


def test_infinite_window_is_identity(flat):
    _, grid, state = flat
    w = build_window(grid, math.inf)
    assert np.array_equal(oracle.window_matrix(w), np.eye(grid.size))
    assert detect_prob(w, state) == pytest.approx(1.0, abs=1e-12)


def test_zero_windows_give_exact_positive_zero_forms(flat):
    amp, grid, state = flat
    delayed = sample(amp.delayed(2.0), grid)
    windows = [build_window(grid, 0.0), build_offset_window(grid, 3.0, 3.0),
               build_window(grid, 1.0), build_window(grid, math.inf)]
    u = np.column_stack([state.weighted(), delayed.weighted()])
    forms = bilinear_forms(windows, u, u)
    for zero in forms[:2]:
        assert np.array_equal(zero, np.zeros_like(zero))
        assert not np.any(np.signbit(zero.real)) and not np.any(np.signbit(zero.imag))
    assert np.all(forms[2:].real > 0.0)
    for s in (state, delayed):
        probs = detect_probs(windows[:2], s)
        assert probs == [0.0, 0.0]
        assert not any(math.copysign(1.0, p) < 0 for p in probs)


def test_phase_delay_equals_recentered_window(flat):
    # e^{ik tau0} psi inside (-T, T) <-> psi inside the window recentered at tau0
    amp, grid, state = flat
    tau0 = 1.3
    delayed = sample(amp.delayed(tau0), grid)
    w_sym = build_window(grid, 4.0)
    w_off = build_offset_window(grid, -4.0 + tau0, 4.0 + tau0)
    assert abs(detect_prob(w_off, delayed) - detect_prob(w_sym, state)) < 1e-12


def test_offset_window_reduces_to_symmetric(flat):
    _, grid, _ = flat
    w_sym = build_window(grid, 2.0)
    w_off = build_offset_window(grid, -2.0, 2.0)
    assert np.allclose(oracle.window_matrix(w_sym), oracle.window_matrix(w_off))


def test_offset_window_rejects_disorder(flat):
    _, grid, _ = flat
    with pytest.raises(ValueError):
        build_offset_window(grid, 1.0, -1.0)


def test_slepian_eigenvalue_count():
    # over a single support, #{eigenvalues > 1/2} ~ T * delta / pi
    amp = make_amplitude("rectangular", 10.0, 1.0)
    grid = grid_for_amplitudes([amp], T=40.0)
    for T in (10.0, 20.0, 40.0):
        vals = oracle.window_spectrum(build_window(grid, T))
        count = int(np.sum(vals > 0.5))
        assert abs(count - T / math.pi) <= 2


def test_detect_prob_grid_mismatch(flat):
    amp, grid, state = flat
    other = grid_for_amplitudes([make_amplitude("rectangular", 20.0, 1.0)])
    w = build_window(other, 1.0)
    with pytest.raises(ValueError):
        detect_prob(w, state)


@pytest.mark.parametrize("shape", ["rectangular", "truncated-gaussian", "raised-cosine"])
def test_matches_time_domain_oracle(shape):
    amp = make_amplitude(shape, 10.0, 2.0)
    grid = grid_for_amplitudes([amp], T=5.0)
    state = sample(amp, grid)
    for T in (0.05, 0.5, 5.0):
        p_kernel = detect_prob(build_window(grid, T), state)
        p_time = oracle.detect_prob_time_domain(amp, T)
        assert abs(p_kernel - p_time) <= 1e-6 * p_time


@settings(max_examples=40, deadline=None)
@given(
    log_td=st.floats(min_value=-2.0, max_value=3.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
@example(log_td=3.0, scale=10.0)
@example(log_td=3.0, scale=0.1)
@pytest.mark.parametrize("shape", ["rectangular", "truncated-gaussian", "raised-cosine"])
def test_detect_prob_depends_on_T_delta_only(shape, log_td, scale):
    # scaling k_c and delta by s and T by 1/s leaves p unchanged; the grid
    # rule sees only w T and w / delta, so both grids are the same up to scale
    T = 10.0**log_td

    def p(s):
        amp = make_amplitude(shape, 10.0 * s, s)
        grid = grid_for_amplitudes([amp], T=T / s)
        return detect_prob(build_window(grid, T / s), sample(amp, grid))

    assert abs(p(scale) - p(1.0)) <= 1e-12
