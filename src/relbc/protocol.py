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
from dataclasses import dataclass, replace

import numpy as np

from . import measurement, window
from .spectra import KGrid, SampledState, SpectralAmplitude, grid_for_amplitudes, sample

ACCEPT = "accept"
ABORT = "abort"
INCONCLUSIVE = "inconclusive"

FAMILIES = ("support", "state")


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
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        if not 0 <= self.channel_delay < math.inf:
            raise ValueError(
                f"channel_delay must be finite and non-negative, got {self.channel_delay!r}"
            )
        if not 0 < self.t_open < math.inf:
            raise ValueError(f"t_open must be positive and finite, got {self.t_open!r}")
        if not 0.0 <= self.t_probe < self.t_open:
            raise ValueError("probe time must satisfy 0 <= t_probe < t_open")
        if self.povm_family not in FAMILIES:
            raise ValueError(f"unknown POVM family {self.povm_family!r}")
        lo1, hi1 = self.amp1.support
        lo2, hi2 = self.amp2.support
        if max(lo1, lo2) < min(hi1, hi2):
            raise ValueError("carrier supports must be disjoint")

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
    """Grid and reference states shared across runs of one config."""

    def __init__(self, config: CommitConfig):
        self.config = config
        self.grid: KGrid = grid_for_amplitudes(
            [config.amp1, config.amp2], T=config.t_open
        )
        self.psi1: SampledState = sample(config.amp1, self.grid)
        self.psi2: SampledState = sample(config.amp2, self.grid)
        self._povms: dict[str, measurement.Povm] = {}

    def povm(self, t: float, family: str | None = None) -> measurement.Povm:
        """Build the POVM with window parameter t (the config's family by default).

        The grid is resolved for windows up to t_open only: a finite t past
        it raises ValueError.  A family's references do not depend on t, so
        they are built and checked once per context, and later POVMs of the
        family share them with a window of their own.
        """
        if t > self.config.t_open and not math.isinf(t):
            raise ValueError(
                f"window t = {t!r} exceeds t_open = {self.config.t_open!r}, "
                "the largest window the grid is resolved for"
            )
        family = family or self.config.povm_family
        first = self._povms.get(family)
        if first is None:
            first = self._povms[family] = (
                measurement.support_povm(
                    self.grid, self.config.amp1.support, self.config.amp2.support, t
                )
                if family == "support"
                else measurement.state_povm(self.psi1, self.psi2, t)
            )
            return first
        return replace(first, window=window.build_window(self.grid, t))

    def outcome_dists(
        self, t: float, sent=None
    ) -> tuple[measurement.OutcomeDist, measurement.OutcomeDist]:
        """Outcome distributions under the config's POVM family at window
        parameter t, for channel bits 0 and 1.

        ``sent`` is what the sender ships for each channel bit (a state or
        the n x r factor of a density matrix); the honest carriers by
        default.  The POVM is built once and dropped on return.
        """
        povm = self.povm(t)
        s0, s1 = (self.psi1, self.psi2) if sent is None else sent
        d0 = measurement.outcome_dist(povm, s0)
        return d0, d0 if s1 is s0 else measurement.outcome_dist(povm, s1)

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


def open_and_verify(
    config: CommitConfig,
    claims: CommitRecord,
    outcomes,
    open_time: float,
) -> str:
    """B's verdict once A has opened.

    abort: some definite outcome contradicts the opened channel bit.
    accept: every channel gave a definite, matching outcome.
    inconclusive: no contradiction, but some channel stayed silent.
    Opening before the agreed horizon is a protocol-order violation.
    """
    if open_time < config.t_open:
        raise ValueError("opening before t_open violates the protocol order")
    if len(claims.channel_bits) != len(outcomes):
        raise ValueError("one claim per channel required")
    definite_match = True
    for claimed_bit, outcome in zip(claims.channel_bits, outcomes):
        if outcome == measurement.PERP:
            definite_match = False
        elif outcome != claimed_bit + 1:
            return ABORT
    return ACCEPT if definite_match else INCONCLUSIVE


def run_protocol(
    config: CommitConfig,
    bit: int,
    rng: np.random.Generator,
    dists: tuple[measurement.OutcomeDist, measurement.OutcomeDist],
    record: CommitRecord | None = None,
) -> CommitTranscript:
    """One full commit / measure / open / verify round.

    ``dists`` are the outcome distributions per channel bit at the
    measurement (``ProtocolContext.outcome_dists``).  ``record`` skips the
    commit draw when the channel bits were fixed upstream.  A's opened
    claims are always the committed record.
    """
    if record is None:
        record = commit(config, bit, rng)
    elif record.bit != bit:
        raise ValueError("record parity does not match the committed bit")
    elif len(record.channel_bits) != config.n_channels:
        raise ValueError(
            f"record has {len(record.channel_bits)} channel bits, "
            f"config has {config.n_channels} channels"
        )
    outcomes = tuple(measurement.sample_outcomes(dists, record.channel_bits, rng).tolist())
    return CommitTranscript(
        config=config,
        record=record,
        outcomes=outcomes,
        verdict=open_and_verify(config, record, outcomes, config.t_open),
    )


def run_many(
    ctx: ProtocolContext, runs: int, bit: int, sent=None
) -> list[CommitTranscript]:
    """Independent seeded runs of the context's config; run i uses the
    stream (seed, i).

    ``sent`` is what the sender ships for channel bits 0 and 1 (see
    ``ProtocolContext.outcome_dists``); their distributions are computed
    once for the whole batch.
    """
    config = ctx.config
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


def simulate_identification(
    p: float, n_channels: int, runs: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo frequencies of (all channels fired, parity guessed right)."""
    _check_p(p)
    fired = rng.random((runs, n_channels)) < p
    all_fired = fired.all(axis=1)
    success = np.where(all_fired, True, rng.random(runs) < 0.5)
    return float(all_fired.mean()), float(success.mean())


def storage_security_curve(config: CommitConfig, times) -> list[tuple[float, float]]:
    """Secure-storage probability P_store(t), from 1 (t = 0) down to 0.

    The adversary B is credited max(collective, guessing) success; the
    advantage over a fair coin is rescaled so success 1/2 maps to security 1
    and success 1 maps to security 0.
    """
    times = [float(t) for t in times]
    if any(t < 0 or t > config.t_open for t in times):
        raise ValueError("times must lie within [0, t_open]")
    ctx = ProtocolContext(config)
    windows = [window.build_window(ctx.grid, t) for t in times]
    curve = []
    for t, p in zip(times, window.detect_probs(windows, ctx.psi1)):
        best = max(
            ident_prob_collective(p, config.n_channels),
            guess_success(p, config.n_channels),
        )
        curve.append((t, 1.0 - 2.0 * (best - 0.5)))
    return curve


def _check_p(p: float):
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
