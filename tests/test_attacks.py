import math
import re
from dataclasses import replace

import numpy as np
import pytest

from relbc import measurement, spectra
from relbc.attacks import (
    HONEST,
    Strategy,
    cheat_detection_prob,
    early_binding_advantages,
    monte_carlo_detection_rate,
    per_channel_flag_probs,
    required_bandwidth,
    sent_pair,
    transmitted_state,
)
from relbc.protocol import (
    ABORT,
    INCONCLUSIVE,
    CommitConfig,
    ProtocolContext,
    run_many,
    run_protocol,
)
from relbc.spectra import SampledState, disjoint_pair, grid_for_amplitudes, make_amplitude
from relbc.window import build_window, detect_prob


@pytest.fixture(scope="module")
def config():
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    return CommitConfig(n_channels=3, amp1=amp1, amp2=amp2, t_open=20.0, seed=5)


@pytest.fixture(scope="module")
def ctx(config):
    return ProtocolContext(config)


@pytest.fixture(scope="module")
def long_ctx(config):
    # a window long enough that honest carriers are essentially resolved
    long = CommitConfig(
        n_channels=config.n_channels, amp1=config.amp1, amp2=config.amp2,
        t_open=1000.0,
    )
    return ProtocolContext(long)


def _variant(ctx, **changes):
    """The context of ``ctx``'s config with some fields changed."""
    return ProtocolContext(replace(ctx.config, **changes))


def test_strategy_validation():
    for kind in ("replay", "early_measure"):
        with pytest.raises(ValueError, match="unknown"):
            Strategy(kind=kind)
    with pytest.raises(ValueError, match="non-negative"):
        Strategy(kind="delayed", tau0=-1.0)
    with pytest.raises(ValueError, match="amplitude"):
        Strategy(kind="wrong_state")


def test_transmitted_state_honest(ctx):
    assert transmitted_state(HONEST, 0, ctx) is ctx.psi1
    assert transmitted_state(HONEST, 1, ctx) is ctx.psi2
    with pytest.raises(ValueError, match="claimed bit"):
        transmitted_state(HONEST, 2, ctx)


def test_transmitted_state_delayed(ctx):
    sent = transmitted_state(Strategy(kind="delayed", tau0=3.0), 0, ctx)
    assert isinstance(sent, SampledState)
    # a launch delay is a pure spectral phase: same modulus as the carrier
    assert np.allclose(np.abs(sent.values), np.abs(ctx.psi1.values), atol=1e-12)
    assert not np.allclose(sent.values, ctx.psi1.values)


def test_transmitted_state_mixed(ctx):
    factor = transmitted_state(Strategy(kind="mixed"), 0, ctx)
    assert isinstance(factor, np.ndarray) and factor.shape == (ctx.grid.size, 2)
    rho = factor @ factor.conj().T
    u1, u2 = ctx.psi1.weighted(), ctx.psi2.weighted()
    assert np.allclose(rho, 0.5 * np.outer(u1, u1.conj()) + 0.5 * np.outer(u2, u2.conj()))


def test_transmitted_state_wrong(ctx, config):
    other = make_amplitude("raised-cosine", config.amp1.k_c, config.amp1.delta)
    sent = transmitted_state(Strategy(kind="wrong_state", amplitude=other), 1, ctx)
    assert isinstance(sent, SampledState)
    assert not np.allclose(np.abs(sent.values), np.abs(ctx.psi2.values), atol=1e-3)


def test_honest_support_flag_prob_is_zero(ctx, config):
    # an honest carrier lives entirely inside its own support projector
    for bit in (0, 1):
        (q,) = per_channel_flag_probs(
            HONEST, _variant(ctx, povm_family="support"), [config.t_open], bit
        )
        assert q == 0.0


def test_honest_state_flag_prob_vanishes(long_ctx):
    # the state family flags silence too, so q -> 0 only in the long window
    (q,) = per_channel_flag_probs(HONEST, long_ctx, [1000.0])
    assert q < 0.01


def test_mixed_support_flag_prob_approaches_half(long_ctx):
    support = _variant(long_ctx, povm_family="support")
    (q,) = per_channel_flag_probs(Strategy(kind="mixed"), support, [1000.0])
    assert abs(q - 0.5) < 0.01


def test_delayed_state_flag_prob(long_ctx, config):
    # a delay of a full beat period nearly empties the claimed-state outcome
    tau0 = 2 * math.pi / config.amp1.delta
    (q,) = per_channel_flag_probs(
        Strategy(kind="delayed", tau0=tau0), long_ctx, [1000.0]
    )
    assert q >= 0.95


def test_cheat_detection_closed_form(long_ctx):
    support = _variant(long_ctx, n_channels=20, povm_family="support")
    p = cheat_detection_prob(Strategy(kind="mixed"), support, 1000.0)
    (q,) = per_channel_flag_probs(Strategy(kind="mixed"), support, [1000.0])
    assert p == pytest.approx(1.0 - (1.0 - q) ** 20, rel=1e-12)
    assert p > 1.0 - 2.0 ** -19


def test_monte_carlo_matches_analytic(ctx, config):
    strategy = Strategy(kind="mixed")
    n, runs = 3, 4000
    support = _variant(ctx, n_channels=n, povm_family="support", seed=17)
    expect = cheat_detection_prob(strategy, support, config.t_open)
    rate = monte_carlo_detection_rate(strategy, support, config.t_open, runs)
    sigma = math.sqrt(expect * (1 - expect) / runs)
    assert abs(rate - expect) < 3.5 * sigma


@pytest.mark.parametrize("family", ["support", "state"])
def test_closed_form_and_monte_carlo_average_the_claimed_bit(family):
    # a sender that ships carrier 1 for both bits is flagged almost only on
    # claims of bit 1, so counting claims of bit 0 alone misses it
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    ctx = ProtocolContext(CommitConfig(
        n_channels=5, amp1=amp1, amp2=amp2, t_open=100.0, povm_family=family, seed=11,
    ))
    strategy = Strategy(kind="wrong_state", amplitude=amp1)
    q0, q1 = (per_channel_flag_probs(strategy, ctx, [100.0], bit)[0] for bit in (0, 1))
    assert q0 < 0.07 < 0.99 < q1
    expect = cheat_detection_prob(strategy, ctx, 100.0)
    assert expect == pytest.approx(1.0 - (1.0 - (q0 + q1) / 2) ** 5, rel=1e-12)
    runs = 4000
    rate = monte_carlo_detection_rate(strategy, ctx, 100.0, runs)
    sigma = math.sqrt(expect * (1 - expect) / runs)
    assert abs(rate - expect) < 3.5 * sigma


def test_monte_carlo_deterministic(ctx, config):
    args = (Strategy(kind="mixed"), _variant(ctx, n_channels=2, seed=3), config.t_open, 200)
    assert monte_carlo_detection_rate(*args) == monte_carlo_detection_rate(*args)


@pytest.mark.parametrize("kind", ["mixed", "wrong_state"])
@pytest.mark.parametrize(
    ("family", "flagged"), [("support", (ABORT,)), ("state", (ABORT, INCONCLUSIVE))]
)
def test_monte_carlo_follows_stream_contract(ctx, config, family, flagged, kind):
    # run i: a uniform committed bit from the stream (seed, i), then one
    # protocol round on the same stream, flagged by its verdict
    fam = _variant(ctx, povm_family=family)
    strategy = Strategy(kind=kind, amplitude=config.amp1)
    povm = (
        measurement.support_povm(ctx.grid, config.amp1.support, config.amp2.support, 15.0)
        if family == "support"
        else measurement.state_povm(ctx.psi1, ctx.psi2, 15.0)
    )
    dists = tuple(measurement.outcome_dist(povm, s) for s in sent_pair(strategy, fam))
    runs, hits = 300, 0
    for i in range(runs):
        rng = np.random.default_rng([config.seed, i])
        bit = int(rng.integers(2))
        hits += run_protocol(fam.config, bit, rng, dists).verdict in flagged
    assert monte_carlo_detection_rate(strategy, fam, 15.0, runs) == hits / runs
    assert 0 < hits < runs


def test_early_binding_at_zero(config, ctx):
    [(ind, coll, guess)] = early_binding_advantages(ctx, [0.0])
    assert ind == 0.0
    assert coll == 0.0
    assert guess == 0.5


def test_early_binding_consistency(config, ctx):
    t = 5.0
    w = build_window(ctx.grid, t)
    p = detect_prob(w, ctx.psi1)
    [(ind, coll, guess)] = early_binding_advantages(ctx, [t])
    n = config.n_channels
    assert ind == pytest.approx(p**n, rel=1e-12)
    assert coll == pytest.approx(p ** (n / 2), rel=1e-12)
    assert guess == pytest.approx(p**n + (1 - p**n) / 2, rel=1e-12)
    with pytest.raises(ValueError, match="probe"):
        early_binding_advantages(ctx, [config.t_open])


def test_required_bandwidth_bound_holds():
    epsilon, t_c, n = 1e-3, 10.0, 4
    delta = required_bandwidth(epsilon, t_c, n)
    amp = make_amplitude("rectangular", delta, delta)
    from relbc.spectra import grid_for_amplitudes, sample

    grid = grid_for_amplitudes([amp], T=t_c)
    p = detect_prob(build_window(grid, t_c), sample(amp, grid))
    assert p ** (n / 2) <= 2 * epsilon
    # and the bracket is tight: doubling the bandwidth breaks the bound
    amp2 = make_amplitude("rectangular", 2 * delta, 2 * delta)
    grid2 = grid_for_amplitudes([amp2], T=t_c)
    p2 = detect_prob(build_window(grid2, t_c), sample(amp2, grid2))
    assert p2 ** (n / 2) > 2 * epsilon


def test_required_bandwidth_reuses_one_layout():
    # the bisection runs on one normalised carrier, so it neither rebuilds a
    # layout per step nor evicts the grids already cached
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([amp1, amp2], T=20.0)
    before = spectra._layout_grid.cache_info()
    required_bandwidth(0.1, 50.0, 4)
    after = spectra._layout_grid.cache_info()
    assert after.misses - before.misses <= 1
    assert grid_for_amplitudes([amp1, amp2], T=20.0) is grid


def test_required_bandwidth_validation():
    with pytest.raises(ValueError, match="epsilon"):
        required_bandwidth(0.7, 1.0, 2)
    with pytest.raises(ValueError, match="positive"):
        required_bandwidth(1e-3, 0.0, 2)


# each function's count argument: its name, least value and a call with it
COUNT_CALLS = {
    "required_bandwidth": ("n_channels", 1, lambda ctx, n: required_bandwidth(0.1, 50.0, n)),
    "monte_carlo_detection_rate": (
        "runs", 1, lambda ctx, runs: monte_carlo_detection_rate(HONEST, ctx, 1.0, runs)),
    "run_many": ("runs", 0, lambda ctx, runs: run_many(ctx, runs, 0)),
}


@pytest.mark.parametrize("fn, value", [
    ("required_bandwidth", 0), ("required_bandwidth", 2.5), ("required_bandwidth", True),
    ("required_bandwidth", -2), ("monte_carlo_detection_rate", -3),
    ("monte_carlo_detection_rate", 0), ("run_many", -2), ("run_many", True),
])
def test_counts_are_checked_by_name(ctx, fn, value):
    # without the check, N = 0 or runs = 0 divide by zero, N = 2.5 gives a
    # fractional channel count, True runs as 1 and N = -2 searches for seconds
    name, least, call = COUNT_CALLS[fn]
    message = f"{name} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(ctx, value)
    # relbc run --runs 0 writes a header-only CSV
    assert run_many(ctx, 0, 0) == []


def test_windows_past_t_open_are_rejected(ctx, config):
    # the grid is resolved for windows up to t_open only
    t = config.t_open * 1.5
    for call in (
        lambda: ctx.povm(t),
        lambda: ctx.outcome_dists(t),
        lambda: per_channel_flag_probs(HONEST, ctx, [t]),
        lambda: monte_carlo_detection_rate(HONEST, _variant(ctx, povm_family="support"), t, 10),
    ):
        with pytest.raises(ValueError, match=r"t = 30\.0 exceeds t_open = 20\.0"):
            call()
    assert _variant(ctx, povm_family="support").povm(math.inf).T == math.inf
