"""N-channel parity-bit commitment protocol.

A commits a bit as the parity of N channel bits, launching one wavepacket
per channel at t = 0.  B measures each channel with a three-outcome POVM
whose window parameter grows with elapsed time; before the horizon the
carriers are effectively non-orthogonal, so B cannot identify the parity,
while A cannot change it after launch.  After the horizon A opens the
channel bits and B cross-checks them against his definite outcomes.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import measurement, spectra, window
from .spectra import KGrid, SampledState, SpectralAmplitude, grid_for_amplitudes, sample

ACCEPT = "accept"
ABORT = "abort"
INCONCLUSIVE = "inconclusive"

# The verdicts that flag a round, per POVM family.  The support family never
# confirms a claim, so only a contradiction flags; the state family demands
# confirmation, so a silent channel flags too.
FLAGGING = {"support": (ABORT,), "state": (ABORT, INCONCLUSIVE)}

# Channel rounds, N * runs, that one ``run_many`` batch may hold: its
# transcripts keep every channel's bit and outcome.
MAX_CHANNEL_ROUNDS = 1 << 20


class RunBudgetError(ValueError):
    """A ``run_many`` batch past ``MAX_CHANNEL_ROUNDS`` channel rounds was asked for."""

    def __init__(self, n_channels: int, runs: int):
        self.n_channels = n_channels
        self.runs = runs
        super().__init__(
            f"{runs} runs of n_channels = {n_channels} need {n_channels * runs} "
            f"channel rounds; a batch is limited to N * runs <= {MAX_CHANNEL_ROUNDS}"
        )


@dataclass(frozen=True)
class CommitConfig:
    n_channels: int
    amp1: SpectralAmplitude
    amp2: SpectralAmplitude
    t_open: float
    t_probe: float = 0.0
    povm_family: str = "state"
    seed: int = 0
    # constant launch-time offset for a non-zero channel length; the
    # idealized protocol sets the channel length to zero
    channel_delay: float = 0.0

    def __post_init__(self):
        _check_count("n_channels", self.n_channels, 1)
        _check_count("seed", self.seed, 0)
        if not 0 <= self.channel_delay < math.inf:
            raise ValueError(
                f"channel_delay must be finite and non-negative, got {self.channel_delay!r}"
            )
        if not 0 < self.t_open < math.inf:
            raise ValueError(f"t_open must be positive and finite, got {self.t_open!r}")
        if not 0.0 <= self.t_probe < self.t_open:
            raise ValueError("probe time must satisfy 0 <= t_probe < t_open")
        measurement._check_family(self.povm_family)
        spectra.disjoint_supports([self.amp1.support, self.amp2.support])

    @property
    def open_window(self) -> float:
        """Window parameter of B's measurement at t_open; the carriers reach
        B channel_delay after launch."""
        return max(self.t_open - self.channel_delay, 0.0)


@dataclass(frozen=True)
class CommitRecord:
    bit: int
    channel_bits: tuple[int, ...]

    def __post_init__(self):
        if self.bit not in (0, 1) or any(b not in (0, 1) for b in self.channel_bits):
            raise ValueError("bits must be 0 or 1")
        parity = functools.reduce(lambda a, b: a ^ b, self.channel_bits)
        if parity != self.bit:
            raise ValueError("channel bits do not have the committed parity")


@dataclass(frozen=True)
class CommitTranscript:
    config: CommitConfig
    record: CommitRecord
    outcomes: tuple[int, ...]
    verdict: str

    def to_json(self) -> dict:
        # A opens exactly what it committed, so the claims are the record
        return {
            "n_channels": self.config.n_channels,
            "family": self.config.povm_family,
            "seed": self.config.seed,
            "t_open": self.config.t_open,
            "bit": self.record.bit,
            "channel_bits": list(self.record.channel_bits),
            "outcomes": list(self.outcomes),
            "measure_time": self.config.t_open,
            "claimed_bit": self.record.bit,
            "claimed_channel_bits": list(self.record.channel_bits),
            "verdict": self.verdict,
        }


class ProtocolContext:
    """Grid, carriers and POVM references shared across runs of one config."""

    def __init__(self, config: CommitConfig):
        self.config = config
        self.grid: KGrid = grid_for_amplitudes(
            [config.amp1, config.amp2], T=config.t_open
        )
        self.psi1: SampledState = sample(config.amp1, self.grid)
        self.psi2: SampledState = sample(config.amp2, self.grid)
        # the family's Povm.refs: window-independent, so built and checked once
        self.refs = (
            measurement.support_refs(self.grid, config.amp1.support, config.amp2.support)
            if config.povm_family == "support"
            else measurement.state_refs(self.psi1, self.psi2)
        )

    def window(self, t: float) -> window.WindowOperator:
        """The window at parameter t on the context's grid.

        The grid is resolved for windows up to t_open only: a finite t past
        it raises ValueError.
        """
        if t > self.config.t_open and not math.isinf(t):
            raise ValueError(
                f"window t = {t!r} exceeds t_open = {self.config.t_open!r}, "
                "the largest window the grid is resolved for"
            )
        return window.build_window(self.grid, t)

    def povm(self, t: float) -> measurement.Povm:
        """The config family's POVM at ``window(t)``, on the context's references."""
        return measurement.Povm(self.config.povm_family, self.window(t), self.refs)

    def outcome_dists(
        self, t: float, sent=None
    ) -> tuple[measurement.OutcomeDist, measurement.OutcomeDist]:
        """Outcome distributions under the config's POVM family at window
        parameter t, for channel bits 0 and 1.

        ``sent`` is what the sender ships for each channel bit (a state or
        the n x r factor of a density matrix); the honest carriers by
        default.
        """
        family, windows = self.config.povm_family, [self.window(t)]
        s0, s1 = (self.psi1, self.psi2) if sent is None else sent
        (d0,) = measurement.outcome_dists(family, self.refs, windows, s0)
        return d0, d0 if s1 is s0 else measurement.outcome_dists(family, self.refs, windows, s1)[0]

    def carrier(self, channel_bit: int) -> SampledState:
        return self.psi1 if channel_bit == 0 else self.psi2


def commit(config: CommitConfig, bit: int, rng: np.random.Generator) -> CommitRecord:
    """A's commit move: random channel bits with the committed parity.

    The carrier launched on a channel (at t = 0; a non-zero channel_delay
    only shifts the clock) is ``ProtocolContext.carrier`` of its bit.
    """
    n = config.n_channels
    head = [int(b) for b in rng.integers(0, 2, size=n - 1)]
    parity = functools.reduce(lambda a, b: a ^ b, head, 0)
    channel_bits = tuple(head + [parity ^ int(bit)])
    return CommitRecord(bit=int(bit), channel_bits=channel_bits)


def open_and_verify(claims: CommitRecord, outcomes) -> str:
    """B's verdict once A has opened at t_open.

    abort: some definite outcome contradicts the opened channel bit.
    accept: every channel gave a definite, matching outcome.
    inconclusive: no contradiction, but some channel stayed silent.
    """
    if len(claims.channel_bits) != len(outcomes):
        raise ValueError("one claim per channel required")
    definite_match = True
    for claimed_bit, outcome in zip(claims.channel_bits, outcomes):
        if outcome == measurement.PERP:
            definite_match = False
        elif outcome != claimed_bit + 1:
            return ABORT
    return ACCEPT if definite_match else INCONCLUSIVE


def flag_prob(family: str, dist: measurement.OutcomeDist, claimed_bit: int) -> float:
    """Probability that one channel with outcome distribution ``dist`` flags
    a claim of ``claimed_bit`` under ``FLAGGING[family]``: anything but the
    claimed outcome where silence flags, a wrong definite outcome otherwise."""
    p_claimed, p_wrong = (dist.p1, dist.p2) if claimed_bit == 0 else (dist.p2, dist.p1)
    return 1.0 - p_claimed if INCONCLUSIVE in FLAGGING[family] else p_wrong


def run_protocol(
    config: CommitConfig,
    bit: int,
    rng: np.random.Generator,
    dists: tuple[measurement.OutcomeDist, measurement.OutcomeDist],
) -> CommitTranscript:
    """One full commit / measure / open / verify round: the only code that
    plays a round.

    ``dists`` are the outcome distributions per channel bit at the
    measurement (``ProtocolContext.outcome_dists``).  The round takes the
    commit draw (N - 1 uniform channel bits), then one draw per channel,
    from ``rng``; A's opened claims are always the committed record.
    """
    record = commit(config, bit, rng)
    outcomes = tuple(measurement.sample_outcomes(dists, record.channel_bits, rng).tolist())
    return CommitTranscript(
        config=config,
        record=record,
        outcomes=outcomes,
        verdict=open_and_verify(record, outcomes),
    )


def run_many(
    ctx: ProtocolContext, runs: int, bit: int, sent=None
) -> list[CommitTranscript]:
    """Independent seeded runs of the context's config; run i uses the
    stream (seed, i).

    ``sent`` is what the sender ships for channel bits 0 and 1 (see
    ``ProtocolContext.outcome_dists``); their distributions are computed
    once for the whole batch.  A batch past ``MAX_CHANNEL_ROUNDS`` channel
    rounds raises RunBudgetError before anything is drawn.
    """
    _check_count("runs", runs, 0)
    config = ctx.config
    if config.n_channels * runs > MAX_CHANNEL_ROUNDS:
        raise RunBudgetError(config.n_channels, runs)
    dists = ctx.outcome_dists(config.open_window, sent)
    return [
        run_protocol(config, bit, np.random.default_rng([config.seed, i]), dists)
        for i in range(runs)
    ]


def ident_prob_individual(p: float, n_channels: int) -> float:
    """All N channels identified under per-channel measurements: p^N."""
    _check_p(p)
    return p**n_channels


def ident_prob_collective(p: float, n_channels: int) -> float:
    """Credited success of a joint measurement on all N carriers: p^(N/2)."""
    _check_p(p)
    return p ** (n_channels / 2)


def guess_success(p: float, n_channels: int) -> float:
    """Parity-identification probability with a fair-coin fallback.

    B learns the parity when every channel fires (p^N) and guesses it
    otherwise: p^N + (1 - p^N)/2.
    """
    _check_p(p)
    q = p**n_channels
    return q + (1.0 - q) / 2.0


def storage_security_curve(ctx: ProtocolContext, times) -> list[tuple[float, float]]:
    """Secure-storage probability P_store(t), from 1 (t = 0) down to 0, for
    the context's N carriers.

    The adversary B is credited max(collective, guessing) success; the
    advantage over a fair coin is rescaled so success 1/2 maps to security 1
    and success 1 maps to security 0.
    """
    times = [float(t) for t in times]
    n = ctx.config.n_channels
    windows = [ctx.window(t) for t in times]
    curve = []
    for t, p in zip(times, window.detect_probs(windows, ctx.psi1)):
        best = max(ident_prob_collective(p, n), guess_success(p, n))
        curve.append((t, 1.0 - 2.0 * (best - 0.5)))
    return curve


def _check_count(name: str, value, least: int):
    """Raise unless ``value`` is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_p(p: float):
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
