"""Top-level acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(run with ``pytest -s`` to see them as they go; pytest shows the captured
line for any failing criterion anyway).
"""

import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from relbc import cli, measurement, oracle, protocol, window
from relbc.attacks import Strategy, monte_carlo_detection_rate, per_channel_flag_probs, required_bandwidth
from relbc.spectra import SHAPES, disjoint_pair, grid_for_amplitudes, make_amplitude, sample


def _verdict(num: int, label: str, ok: bool) -> bool:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def _kernel_detect(amp, T):
    grid = grid_for_amplitudes([amp], T=T)
    return window.detect_prob(window.build_window(grid, T), sample(amp, grid))


def _flat_t_for(p_target: float) -> float:
    """Invert the flat-spectrum detect probability for a window length."""
    lo, hi = 1e-9, 1e4
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if oracle.detect_prob_flat_closed_form(1.0, mid) < p_target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


@pytest.fixture(scope="module")
def long_run():
    """Carrier pair and context with the window fully open (T * delta = 1e3)."""
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    config = protocol.CommitConfig(
        n_channels=3, amp1=amp1, amp2=amp2, t_open=1000.0,
        povm_family="support", seed=1234,
    )
    return config, protocol.ProtocolContext(config)


def test_criterion_01_kernel_vs_time_domain():
    worst = 0.0
    for shape in SHAPES:
        for delta in (0.5, 1.0, 2.0):
            amp = make_amplitude(shape, 10.0 * delta, delta)
            for x in (0.1, 1.0, 10.0):
                T = x / delta
                p_kernel = _kernel_detect(amp, T)
                p_time = oracle.detect_prob_time_domain(amp, T, tol=1e-11)
                worst = max(worst, abs(p_kernel - p_time) / p_time)
    assert _verdict(
        1, f"kernel vs time-domain quadrature, 27 combos, worst rel {worst:.2e}",
        worst < 1e-6,
    )


def test_criterion_02_flat_closed_form():
    worst = 0.0
    for x in np.logspace(-3, 4, 50):
        p_kernel = _kernel_detect(make_amplitude("rectangular", 10.0, 1.0), float(x))
        p_closed = oracle.detect_prob_flat_closed_form(1.0, float(x))
        worst = max(worst, abs(p_kernel - p_closed))
    assert _verdict(
        2, f"flat-spectrum closed form over 50 log points, worst abs {worst:.2e}",
        worst < 1e-8,
    )


def test_criterion_03_asymptotics():
    amp = make_amplitude("rectangular", 10.0, 1.0)
    ratio = _kernel_detect(amp, 2e-3) / _kernel_detect(amp, 1e-3)
    saturated = _kernel_detect(amp, 100.0)
    tail_ok = all(
        1.0 - _kernel_detect(amp, float(x)) <= 3.0 / float(x)
        for x in np.logspace(1, 4, 9)
    )
    ok = 1.99 <= ratio <= 2.01 and saturated >= 0.99 and tail_ok
    assert _verdict(
        3,
        f"short-window ratio {ratio:.5f}, saturation {saturated:.5f}, "
        f"tail bound {'holds' if tail_ok else 'violated'}",
        ok,
    )


def test_criterion_04_exact_zeros():
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([amp1, amp2], T=10.0)
    psi1, psi2 = sample(amp1, grid), sample(amp2, grid)
    worst = 0.0
    for T in (0.1, 1.0, 10.0):
        povm = measurement.support_povm(grid, amp1.support, amp2.support, T)
        worst = max(
            worst,
            measurement.outcome_dist(povm, psi1).p2,
            measurement.outcome_dist(povm, psi2).p1,
        )
    assert _verdict(
        4, f"disjoint-support cross-probabilities, worst {worst:.2e}", worst < 1e-14
    )


def test_criterion_05_povm_validity():
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    grid = grid_for_amplitudes([amp1, amp2], T=100.0)
    psi1, psi2 = sample(amp1, grid), sample(amp2, grid)
    worst_eig, worst_res = 0.0, 0.0
    for T in (0.1, 1.0, 10.0, 100.0):
        for povm in (
            measurement.support_povm(grid, amp1.support, amp2.support, T),
            measurement.state_povm(psi1, psi2, T),
        ):
            report = oracle.povm_validity_bruteforce(povm)
            worst_eig = min(worst_eig, report["min_eigenvalue"])
            worst_res = max(worst_res, report["completeness_residual"])
    ok = worst_eig >= -1e-9 and worst_res <= 1e-8
    assert _verdict(
        5,
        f"POVM validity both families, min eig {worst_eig:.2e}, "
        f"residual {worst_res:.2e}",
        ok,
    )


def test_criterion_06_monotonicity():
    times = np.linspace(0.0, 20.0, 200)
    monotone = True
    for shape in SHAPES:
        amp = make_amplitude(shape, 10.0, 1.0)
        grid = grid_for_amplitudes([amp], T=float(times[-1]))
        state = sample(amp, grid)
        probs = [
            window.detect_prob(window.build_window(grid, float(t)), state)
            for t in times
        ]
        monotone &= all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    config = protocol.CommitConfig(n_channels=4, amp1=amp1, amp2=amp2, t_open=20.0)
    ctx = protocol.ProtocolContext(config)
    curve = [s for _, s in protocol.storage_security_curve(ctx, times)]
    curve_ok = all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))
    assert _verdict(
        6,
        f"detect_prob non-decreasing (3 shapes x 200 T), "
        f"security curve non-increasing: {monotone and curve_ok}",
        monotone and curve_ok,
    )


def test_criterion_07_protocol_statistics():
    runs = 100_000
    rng = np.random.default_rng(2024)
    worst_pull = 0.0
    for p_target in (0.1, 0.3, 0.5):
        t_probe = _flat_t_for(p_target)
        p = oracle.detect_prob_flat_closed_form(1.0, t_probe)
        for n in (2, 3, 5):
            # every channel fires (outcome 1) with probability p; B learns the
            # parity when all N fire and flips a fair coin otherwise
            outcomes = measurement.sample_outcomes(
                [measurement.OutcomeDist(p, 0.0, 1.0 - p)], np.zeros(runs * n, dtype=int), rng
            )
            all_fired = (outcomes.reshape(runs, n) == 1).all(axis=1)
            guessed = all_fired | (rng.random(runs) < 0.5)
            f_all, f_guess = float(all_fired.mean()), float(guessed.mean())
            for freq, expect in (
                (f_all, protocol.ident_prob_individual(p, n)),
                (f_guess, protocol.guess_success(p, n)),
            ):
                sigma = math.sqrt(expect * (1.0 - expect) / runs)
                worst_pull = max(worst_pull, abs(freq - expect) / sigma)
    exact = True
    for n in range(1, 5):
        for p in (0.1, 0.3, 0.5):
            out = oracle.parity_exhaustive(n, p)
            exact &= abs(out["all_detected"] - p**n) < 1e-14
            exact &= abs(out["guess_success"] - (p**n + (1 - p**n) / 2)) < 1e-14
    ok = worst_pull < 3.0 and exact
    assert _verdict(
        7,
        f"identification Monte Carlo worst pull {worst_pull:.2f} sigma, "
        f"exhaustive N<=4 {'exact' if exact else 'WRONG'}",
        ok,
    )


def test_criterion_08_honest_completeness(long_run):
    config, ctx = long_run
    runs = 10_000
    p1 = measurement.outcome_dist(ctx.povm(config.t_open), ctx.carrier(0)).p1
    verdicts = [t.verdict for t in protocol.run_many(ctx, runs, bit=0)]
    aborts = verdicts.count(protocol.ABORT)
    accepts = verdicts.count(protocol.ACCEPT)
    expect = p1**config.n_channels
    sigma = math.sqrt(expect * (1.0 - expect) / runs)
    rate = accepts / runs
    ok = aborts == 0 and abs(rate - expect) < 3.0 * sigma
    assert _verdict(
        8,
        f"honest runs: {aborts} aborts / {runs}, accept rate {rate:.5f} "
        f"vs {expect:.5f} (3 sigma = {3 * sigma:.5f})",
        ok,
    )


def test_criterion_09_attack_detection(long_run):
    config, ctx = long_run
    runs = 2000
    wide = protocol.ProtocolContext(replace(config, n_channels=20, seed=99))
    rate = monte_carlo_detection_rate(Strategy(kind="mixed"), wide, config.t_open, runs)
    expect = 1.0 - 2.0**-20
    sigma = math.sqrt(expect * (1.0 - expect) / runs)
    mixed_ok = abs(rate - expect) < 3.0 * sigma
    tau0 = 2.0 * math.pi / config.amp1.delta
    state = protocol.ProtocolContext(replace(config, povm_family="state"))
    (q,) = per_channel_flag_probs(Strategy(kind="delayed", tau0=tau0), state, [config.t_open])
    delayed_ok = q >= 0.95
    # phase-blindness of the support family, evaluated at the projective
    # (fully open window) limit where it is an exact operator identity
    povm_inf = measurement.support_povm(
        ctx.grid, config.amp1.support, config.amp2.support, math.inf
    )
    honest = np.array(astuple(measurement.outcome_dist(povm_inf, ctx.psi1)))
    delayed = np.array(astuple(measurement.outcome_dist(
        povm_inf, sample(config.amp1.delayed(tau0), ctx.grid)
    )))
    contrast = float(np.max(np.abs(honest - delayed)))
    blind_ok = contrast < 1e-10
    assert _verdict(
        9,
        f"mixed N=20 rate {rate:.6f} (expect {expect:.6f}), delayed state-family "
        f"q = {q:.4f}, support-family phase contrast {contrast:.2e}",
        mixed_ok and delayed_ok and blind_ok,
    )


def test_criterion_10_security_horizon():
    epsilon, t_c, n = 1e-3, 10.0, 4
    delta = required_bandwidth(epsilon, t_c, n)
    amp = make_amplitude("rectangular", delta, delta)
    grid = grid_for_amplitudes([amp], T=t_c)
    p = window.detect_prob(window.build_window(grid, t_c), sample(amp, grid))
    ok = p ** (n / 2) <= 2 * epsilon
    assert _verdict(
        10,
        f"bandwidth {delta:.6e} for eps={epsilon}: p(t_c)^(N/2) = "
        f"{p ** (n / 2):.3e} <= {2 * epsilon:.0e}",
        ok,
    )


def test_criterion_11_determinism(tmp_path):
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "shapes": ["rectangular", "raised-cosine"],
        "deltas": [0.5, 1.0],
        "times": [0.5, 5.0],
    }))
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "n_channels": 3, "delta": 1.0, "k1": 12.0, "k2": 10.0,
        "t_open": 20.0, "family": "support",
    }))
    same = True
    for j, argv in enumerate((
        ["sweep", "--config", str(sweep_cfg), "--seed", "3"],
        ["run", "--config", str(run_cfg), "--runs", "10", "--seed", "3"],
        ["run", "--config", str(run_cfg), "--runs", "5", "--seed", "3",
         "--format", "json"],
    )):
        a, b = tmp_path / f"a{j}.out", tmp_path / f"b{j}.out"
        assert cli.main(argv + ["--out", str(a)]) == cli.EXIT_OK
        assert cli.main(argv + ["--out", str(b)]) == cli.EXIT_OK
        if a.is_dir():
            pairs = zip(sorted(a.iterdir()), sorted(b.iterdir()))
            same &= all(x.read_bytes() == y.read_bytes() for x, y in pairs)
        else:
            same &= a.read_bytes() == b.read_bytes()
    assert _verdict(11, f"byte-identical CLI reruns: {same}", same)
