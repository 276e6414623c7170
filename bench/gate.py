"""Correctness gate: checks one op's exit code and output against references.

The gate runs outside the timed and traced spans.  ``check`` returns a list
of problems; an empty list means the op passed.  The references come from
``relbc.oracle`` (closed form, time-domain quadrature) and, for the abort
frequencies of protocol runs, from exact probabilities computed through the
layer API.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

SWEEP_CLOSED_ABS = 1e-8
SWEEP_TIME_DOMAIN_REL = 1e-6
# Time-domain quadrature builds (taus x k-nodes) matrices that grow as
# (T*delta)^2; above this it needs gigabytes, so the subsample stays below it.
TIME_DOMAIN_MAX_TD = 100.0
# Abort counts are judged by their exact binomial tail probability, which
# must not fall below the two-sided normal tail beyond 5 standard errors.
# Unlike the normal approximation this holds for rare aborts over few runs,
# where a single abort is already "many standard errors" away from R*p << 1.
ABORT_SIGMAS = 5.0
ABORT_TAIL = math.erfc(ABORT_SIGMAS / math.sqrt(2.0))


def parse_csv(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


VALIDATE_CHECKS = 18  # 6 POVM audits, 9 oracle comparisons, 3 closed forms


def expected_rows(op: dict) -> int:
    cfg = op["config"]
    if op["cmd"] == "sweep":
        return len(cfg["shapes"]) * len(cfg["deltas"]) * len(cfg["times"])
    if op["cmd"] == "run":
        return int(op["args"][op["args"].index("--runs") + 1])
    if op["cmd"] == "attack":
        return len(cfg["times"])
    return VALIDATE_CHECKS


def count_rows(op: dict, text: str) -> int:
    if op["cmd"] == "validate":
        return sum(1 for line in text.splitlines()
                   if line.startswith(("povm ", "oracle ", "closed-form ")))
    return len(parse_csv(text))


class Gate:
    """Per-workload checks of one op's output."""

    def __init__(self, seed: int):
        self.seed = seed

    def check(self, op_index: int, op: dict, exit_code: int, text: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            if count_rows(op, text) != expected_rows(op):
                return [f"{count_rows(op, text)} rows, expected {expected_rows(op)}"]
            return getattr(self, f"_check_{op['cmd']}")(op_index, op, text)
        except (KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check_sweep(self, op_index, op, text):
        from relbc import make_amplitude, oracle

        rows = parse_csv(text)
        problems = []
        for r in rows:
            delta, t, p = float(r["delta"]), float(r["T"]), float(r["p_detect"])
            if float(r["p_perp"]) != 1.0 - p:
                problems.append(f"p_perp != 1 - p_detect at delta={delta} T={t}")
            if r["shape"] == "rectangular":
                ref = oracle.detect_prob_flat_closed_form(delta, t)
                if not abs(p - ref) <= SWEEP_CLOSED_ABS:
                    problems.append(
                        f"rectangular delta={delta} T={t}: {p!r} vs closed form {ref!r}")
        others = [r for r in rows if r["shape"] != "rectangular"
                  and float(r["delta"]) * float(r["T"]) <= TIME_DOMAIN_MAX_TD]
        if others:
            rng = np.random.default_rng([self.seed, op_index])
            r = others[int(rng.integers(len(others)))]
            delta, t, p = float(r["delta"]), float(r["T"]), float(r["p_detect"])
            amp = make_amplitude(r["shape"], op["config"]["k_c"] * delta, delta)
            ref = oracle.detect_prob_time_domain(amp, t, tol=1e-11)
            if not abs(p - ref) <= SWEEP_TIME_DOMAIN_REL * ref:
                problems.append(
                    f"{r['shape']} delta={delta} T={t}: {p!r} vs time domain {ref!r}")
        return problems

    @staticmethod
    def _exact_wrong_probs(cfg: dict) -> tuple[float, float]:
        """Per-channel probability of a contradicting outcome, by channel bit."""
        from relbc import SpectralAmplitude, attacks, make_amplitude, measurement, protocol

        shape = cfg.get("shape", "rectangular")
        config = protocol.CommitConfig(
            n_channels=1,
            amp1=make_amplitude(shape, cfg["k1"], cfg["delta"]),
            amp2=make_amplitude(shape, cfg["k2"], cfg["delta"]),
            t_open=cfg["t_open"],
            povm_family=cfg["family"],
        )
        wrong = cfg.get("wrong_state")
        strategy = attacks.Strategy(
            kind=cfg["adversary"],
            tau0=cfg.get("tau0", 0.0),
            amplitude=SpectralAmplitude.from_json(wrong) if wrong else None,
        )
        ctx = protocol.ProtocolContext(config)
        povm = ctx.povm(config.t_open)
        d0, d1 = (measurement.outcome_dist(povm, attacks.transmitted_state(strategy, b, ctx))
                  for b in (0, 1))
        return d0.p2, d1.p1

    def _check_run(self, op_index, op, text):
        cfg = op["config"]
        rows = parse_csv(text)
        aborted = [int(r["aborted"]) for r in rows]
        problems = []
        if any(int(r["success"]) and int(r["aborted"]) for r in rows):
            problems.append("a run both succeeded and aborted")
        if cfg["family"] == "support" and cfg["adversary"] == "honest" and any(aborted):
            problems.append(f"honest support-family sender aborted {sum(aborted)} times")
        q0, q1 = self._exact_wrong_probs(cfg)
        p_abort = abort_probability(q0, q1, cfg["n_channels"], cfg["bit"])
        tail = binomial_tail(sum(aborted), len(aborted), p_abort)
        if tail < ABORT_TAIL:
            problems.append(
                f"{sum(aborted)} aborts in {len(aborted)} runs vs exact probability "
                f"{p_abort:.6g}: tail probability {tail:.3g} is beyond "
                f"{ABORT_SIGMAS:g} standard errors")
        return problems

    def _check_attack(self, op_index, op, text):
        cfg = op["config"]
        problems = []
        for r in parse_csv(text):
            q, det, n = float(r["q"]), float(r["detection_prob"]), int(r["N"])
            if det != 1.0 - (1.0 - q) ** n:
                problems.append(f"T={r['T']}: detection_prob {det!r} != 1-(1-q)^N")
            if cfg["family"] == "support" and cfg["adversary"] == "honest" and q != 0.0:
                problems.append(f"T={r['T']}: honest support-family q = {q!r}, not 0")
        return problems

    def _check_validate(self, op_index, op, text):
        if text.splitlines()[-1] != "failures: 0":
            return [f"validate reported {text.splitlines()[-1]!r}"]
        return []


def abort_probability(q0: float, q1: float, n_channels: int, bit: int) -> float:
    """P(some channel contradicts its opened bit) for uniform bits of fixed parity.

    With a = 1 - q0 and c = 1 - q1, the strings of N bits with an even
    (odd) number of ones carry ((a + c)^N +- (a - c)^N) / 2 of the product
    weight, and there are 2^(N-1) of each.
    """
    a, c = 1.0 - q0, 1.0 - q1
    sign = 1.0 if bit == 0 else -1.0
    clean = ((a + c) ** n_channels + sign * (a - c) ** n_channels) / 2.0**n_channels
    return min(max(1.0 - clean, 0.0), 1.0)


def binomial_tail(k: int, n: int, p: float) -> float:
    """Two-sided exact tail probability of k successes in n trials."""
    pmf = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
    return min(1.0, 2.0 * min(sum(pmf[: k + 1]), sum(pmf[k:])))
