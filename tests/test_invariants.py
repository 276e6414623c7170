"""The paper's invariants of the two-carrier protocol as property tests.

* Exact zeros: the support family's M_i = P_{E_i} W_T P_{E_i} reads a
  sender only on E_i, so whatever misses E_i has p_i exactly 0.0, for pure
  and for mixed inputs, at every window T <= t_open.
* TΔ scaling: the outcome distributions of both families depend on the
  carriers and the sender only through k_i / Δ, TΔ and τ0·Δ.
* Delay ≡ shifted window: a packet launched τ0 late, the spectral phase
  exp(ikτ0), is detected in (-T, T) as often as the undelayed packet in
  (-T - τ0, T - τ0), by the oracle's time-domain quadrature.
"""

import math
from dataclasses import astuple, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relbc import attacks, measurement, oracle
from relbc.protocol import CommitConfig, ProtocolContext
from relbc.spectra import SHAPES, disjoint_pair, grid_for_amplitudes, make_amplitude, sample
from relbc.window import build_window, detect_prob

# window half-widths up to TΔ = 500 keep every grid at four sub-panels or fewer
_LOG_TD = st.floats(min_value=-1.0, max_value=math.log10(500.0))


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    delta=st.floats(min_value=0.25, max_value=4.0),
    k_low=st.floats(min_value=1.0, max_value=20.0),
    gap=st.one_of(st.just(0.0), st.integers(min_value=8, max_value=32).map(lambda m: m / 16)),
    log_td=_LOG_TD,
    fracs=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=3),
    delays=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=2),
    wrong=st.tuples(st.sampled_from(SHAPES), st.floats(min_value=0.5, max_value=1.0),
                    st.floats(min_value=0.0, max_value=1.0)),
)
def test_support_family_gives_exact_zeros_off_its_carrier(
    shape, delta, k_low, gap, log_td, fracs, delays, wrong
):
    # k_low, gap, the delays and the wrong state's width and place are in units of delta
    amp1, amp2 = disjoint_pair((k_low + 1.0 + gap) * delta, k_low * delta, delta, shape)
    t_open = 10.0**log_td / delta
    ctx = ProtocolContext(CommitConfig(n_channels=1, amp1=amp1, amp2=amp2, t_open=t_open,
                                       povm_family="support"))
    windows = [ctx.window(f * t_open) for f in fracs]
    # what misses E_1 (the upper carrier's support) and what misses E_2
    off = {1: [sample(amp2.delayed(d / delta), ctx.grid) for d in delays],
           2: [sample(amp1.delayed(d / delta), ctx.grid) for d in delays]}
    if gap > 0.0:
        # a wrong state inside the gap misses both supports
        wrong_shape, width, place = wrong
        width *= gap * delta
        lo = amp2.support[1] + width / 2
        hi = amp1.support[0] - width / 2
        gap_state = sample(make_amplitude(wrong_shape, lo + place * (hi - lo), width), ctx.grid)
        off[1].append(gap_state)
        off[2].append(gap_state)
    for i, states in off.items():
        for sent in states + [measurement.mixed_density(states)]:
            dists = measurement.outcome_dists("support", ctx.refs, windows, sent)
            assert [d.p1 if i == 1 else d.p2 for d in dists] == [0.0] * len(windows)


def test_carriers_touching_up_to_rounding_give_exact_zeros():
    # supports one ulp apart
    delta = 0.3693022435767125
    amp1, amp2 = disjoint_pair(3 * delta, 2 * delta, delta)
    config = CommitConfig(n_channels=1, amp1=amp1, amp2=amp2, t_open=10.0)
    for family in measurement.FAMILIES:
        ctx = ProtocolContext(replace(config, povm_family=family))
        d0, d1 = ctx.outcome_dists(10.0)
        assert d0.p1 > 0.5 and d1.p2 > 0.5, family
        if family == "support":
            assert (d0.p2, d1.p1) == (0.0, 0.0)


def _dists(shape, k1, k2, delta, t_open, T, tau0):
    """Both families' distributions of the honest, delayed and mixed senders."""
    amp1, amp2 = disjoint_pair(k1, k2, delta, shape)
    config = CommitConfig(n_channels=1, amp1=amp1, amp2=amp2, t_open=t_open)
    out = []
    for family in measurement.FAMILIES:
        ctx = ProtocolContext(replace(config, povm_family=family))
        for strategy in (attacks.HONEST, attacks.Strategy("delayed", tau0=tau0),
                         attacks.Strategy("mixed")):
            out += [astuple(d) for d in ctx.outcome_dists(T, attacks.sent_pair(strategy, ctx))]
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    k_low=st.floats(min_value=1.0, max_value=20.0),
    gap=st.floats(min_value=0.05, max_value=2.0),
    log_td=_LOG_TD,
    frac=st.floats(min_value=1e-3, max_value=1.0),
    tau0=st.floats(min_value=0.0, max_value=50.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_two_carrier_distributions_depend_on_T_delta_only(
    shape, k_low, gap, log_td, frac, tau0, scale
):
    # k_i and delta scaled by s, t_open, T and tau0 by 1/s; the grid rule sees
    # only w T and w / delta, so both grids are the same up to scale.  The
    # carriers keep a gap: s (k_1 - k_2) may round below s
    t_open = 10.0**log_td

    def dists(s):
        return _dists(shape, (k_low + 1.0 + gap) * s, k_low * s, s, t_open / s,
                      frac * t_open / s, tau0 / s)

    assert np.max(np.abs(dists(scale) - dists(1.0))) <= 1e-12


@settings(max_examples=90, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    delta=st.floats(min_value=0.3, max_value=3.0),
    k_over_delta=st.floats(min_value=1.0, max_value=20.0),
    T=st.floats(min_value=0.1, max_value=20.0),
    shift=st.floats(min_value=-10.0, max_value=10.0),
)
def test_delay_equals_shifted_window(shape, delta, k_over_delta, T, shift):
    # the production delay (a spectral phase under the window (-T, T))
    # against the oracle's independent window about -tau0
    amp = make_amplitude(shape, k_over_delta * delta, delta)
    tau0 = shift * T
    g = grid_for_amplitudes([amp], T)
    p = detect_prob(build_window(g, T), sample(amp.delayed(tau0), g))
    assert abs(p - oracle.detect_prob_time_domain(amp, T, tol=1e-11, center=-tau0)) <= 1e-12
