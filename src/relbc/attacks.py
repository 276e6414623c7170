"""Cheating strategies and their detection probabilities.

Sender-side strategies replace the honest carriers: a delayed launch is
exactly a spectral phase exp(i*k*tau0); a mixed sender ships the same
half/half mixture on every channel; a wrong-state sender ships an arbitrary
normalized amplitude.  The receiver-side adversary measures early and is
credited the analytic collective bound (``early_binding_advantages``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measurement, protocol, window
from .spectra import SpectralAmplitude, grid_for_amplitudes, sample

KINDS = ("honest", "delayed", "mixed", "wrong_state")


@dataclass(frozen=True)
class Strategy:
    kind: str
    tau0: float = 0.0
    amplitude: SpectralAmplitude | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not 0 <= self.tau0 < math.inf:
            raise ValueError(f"delay tau0 must be finite and non-negative, got {self.tau0!r}")
        if self.kind == "wrong_state" and self.amplitude is None:
            raise ValueError("wrong_state strategy needs an amplitude")


HONEST = Strategy(kind="honest")


def transmitted_state(strategy: Strategy, claimed_bit: int, ctx: protocol.ProtocolContext):
    """What actually enters the channel when A claims ``claimed_bit``.

    Returns a SampledState, or for the mixed strategy the n x 2 factor F of
    the half/half mixture rho = F F^H (``measurement.mixed_density``).
    """
    if claimed_bit not in (0, 1):
        raise ValueError("claimed bit must be 0 or 1")
    if strategy.kind == "honest":
        return ctx.carrier(claimed_bit)
    if strategy.kind == "delayed":
        amp = (ctx.config.amp1 if claimed_bit == 0 else ctx.config.amp2).delayed(
            strategy.tau0
        )
        return sample(amp, ctx.grid)
    if strategy.kind == "mixed":
        return measurement.mixed_density([ctx.psi1, ctx.psi2])
    return sample(strategy.amplitude, ctx.grid)


def per_channel_flag_probs(
    strategy: Strategy,
    ctx: protocol.ProtocolContext,
    times,
    claimed_bit: int = 0,
) -> list[float]:
    """Probability that one channel contradicts the claim A will open, per time.

    Under the config's POVM family.  Support family: only a definite wrong
    outcome flags (silence never contradicts a claim).  State family:
    verification demands confirmation, so anything but the claimed outcome
    flags, q = 1 - p_claimed.  The transmitted state is sampled once and
    every window is evaluated in one form.
    """
    family = ctx.config.povm_family
    sent = transmitted_state(strategy, claimed_bit, ctx)
    windows = [ctx.window(T) for T in times]
    flags = []
    for dist in measurement.outcome_dists(family, ctx.refs, windows, sent):
        p_claimed, p_wrong = (
            (dist.p1, dist.p2) if claimed_bit == 0 else (dist.p2, dist.p1)
        )
        flags.append(p_wrong if family == "support" else 1.0 - p_claimed)
    return flags


def cheat_detection_prob(strategy: Strategy, ctx: protocol.ProtocolContext, T: float) -> float:
    """Probability that at least one of the config's N channels flags, with
    each channel's claimed bit uniform: 1 - (1 - (q_0 + q_1)/2)^N."""
    q = sum(per_channel_flag_probs(strategy, ctx, [T], bit)[0] for bit in (0, 1)) / 2.0
    return 1.0 - (1.0 - q) ** ctx.config.n_channels


def sent_pair(strategy: Strategy, ctx: protocol.ProtocolContext):
    """What A ships for channel bits 0 and 1; the mixed sender ships one
    mixture for both, so its distribution is computed once."""
    if strategy.kind == "mixed":
        factor = transmitted_state(strategy, 0, ctx)
        return factor, factor
    return transmitted_state(strategy, 0, ctx), transmitted_state(strategy, 1, ctx)


def monte_carlo_detection_rate(
    strategy: Strategy, ctx: protocol.ProtocolContext, T: float, runs: int
) -> float:
    """Sampled counterpart of cheat_detection_prob: the flagged fraction of
    seeded protocol rounds with the measurement at window T.

    Run i takes the stream (seed, i), draws a uniform committed bit from it
    and plays ``protocol.run_protocol`` on the same stream, so its channel
    bits are uniform too.  A round is flagged by its verdict: an abort in
    the support family, anything but accept in the state family.
    """
    protocol._check_count("runs", runs, 1)
    config = ctx.config
    dists = ctx.outcome_dists(T, sent_pair(strategy, ctx))
    flags = (
        (protocol.ABORT,)
        if config.povm_family == "support"
        else (protocol.ABORT, protocol.INCONCLUSIVE)
    )
    flagged = 0
    for i in range(runs):
        rng = np.random.default_rng([config.seed, i])
        bit = int(rng.integers(2))
        flagged += protocol.run_protocol(config, bit, rng, dists).verdict in flags
    return flagged / runs


def early_binding_advantages(
    ctx: protocol.ProtocolContext, t_probes
) -> list[tuple[float, float, float]]:
    """B's parity-identification success from measuring at each t_probe.

    Each entry is (individual p^N, collective p^(N/2), guess-augmented) with
    N the config's channel count and p = detect probability of a carrier
    inside the window (-t_probe, t_probe); every window is evaluated in one
    form.
    """
    t_probes = list(t_probes)
    if any(not 0.0 <= t < ctx.config.t_open for t in t_probes):
        raise ValueError("probe time must lie in [0, t_open)")
    windows = [window.build_window(ctx.grid, t) for t in t_probes]
    n = ctx.config.n_channels
    return [
        (
            protocol.ident_prob_individual(p, n),
            protocol.ident_prob_collective(p, n),
            protocol.guess_success(p, n),
        )
        for p in window.detect_probs(windows, ctx.psi1)
    ]


def required_bandwidth(
    epsilon: float,
    t_c: float,
    n_channels: int,
    shape: str = "rectangular",
) -> float:
    """Bandwidth making the collective attack epsilon-harmless up to t_c.

    Solves p(t_c)^(N/2) <= 2*epsilon for the largest compliant delta by
    bisection against the window's detect probability; the returned
    bandwidth satisfies the bound by construction (the bracket's low end).
    The carrier (shape, k_c = delta, delta) scales with delta, so p depends
    on x = delta * t_c alone: the bisection runs in x on the carrier with
    delta = 1, whose grids at each x share one panel layout up to x = 512.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    # written so that NaN fails
    if not 0 < t_c < math.inf:
        raise ValueError(f"storage time t_c must be positive and finite, got {t_c!r}")
    protocol._check_count("n_channels", n_channels, 1)
    target = (2.0 * epsilon) ** (2.0 / n_channels)
    unit = SpectralAmplitude(shape=shape, k_c=1.0, delta=1.0)

    def p_of(x: float) -> float:
        grid = grid_for_amplitudes([unit], T=x)
        return window.detect_prob(window.build_window(grid, x), sample(unit, grid))

    lo = 1e-6
    hi = 2.0
    while p_of(hi) < target:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("no bandwidth reaches the target probability")
    if p_of(lo) > target:
        raise ValueError("epsilon too small for the bisection bracket")
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if p_of(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo / t_c
