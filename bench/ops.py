"""Seeded op lists for the benchmark workloads.

An op is one ``relbc`` CLI invocation: a subcommand, a JSON config (written
to a scratch file just before the run) and extra arguments.  The lists
depend on the workload name and the seed only, never on the installed
program, so two commits are always measured on identical inputs.

Op cost grows with the square of the grid size, and the grid size is a step
function of the largest T*delta of an op, so a few random large ops would
decide a short run's totals.  The lists are therefore designed, not drawn
independently: each is a sequence of identical blocks, and every block has
one op per point of a fixed log-spaced ladder of the cost-driving parameter
(the largest T*delta of a sweep op, t_open of a protocol or attack op), with
a fixed op shape at each point.  The seed draws what does not change an
op's cost: spectral shapes, which deltas, adversary details, channel
counts, committed bits, and the order of ops inside a block.  ``run.py``
always measures whole blocks, so every run sees the same mix.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("sweep", "protocol_mc", "attack", "validate")

SHAPES = ("rectangular", "truncated-gaussian", "raised-cosine")
FAMILIES = ("support", "state")
ADVERSARIES = ("honest", "delayed", "wrong_state", "mixed")

# The README's two-carrier configuration.
CARRIERS = {"delta": 1.0, "k1": 12.0, "k2": 10.0}

SWEEP_TD = (1e-1, 1e4)
SWEEP_DELTAS = (0.5, 1.0, 2.0)
PROTOCOL_T_OPEN = (1e2, 1e3)
ATTACK_T_OPEN = (1e1, 1e3)
# Attack ops up to this t_open use the smallest two-carrier grid (3 x 256
# nodes); the top of ATTACK_T_OPEN uses the largest (3 x 1024).
ATTACK_SMALL_T_OPEN = 300.0
# Attack ops keep one dense POVM per time in the protocol context, so ops
# above this t_open (the 3072-node grid) use 3 times; that holds their peak
# to the 1.6 GB of the warm-up op instead of 2.9 GB for 6 times.
ATTACK_BIG_T_OPEN = 700.0
# Rounds per protocol op; a mixed-state round costs ~10x a pure one.
PROTOCOL_RUNS = {"mixed": 2, "pure": 6}

# Blocks are short (a few seconds) so that a run holds several of them: the
# rate is reported as the median over a run's blocks, and a run overshoots
# its --seconds by less than one block.
BLOCK_SIZE = {"sweep": 24, "protocol_mc": 16, "attack": 16, "validate": 1}
# A run measures at least MIN_BLOCKS whole blocks, so every op shape is
# timed more than once per run.  The list holds more blocks than a run
# reaches on this machine; a longer run starts over from its first op.
MIN_BLOCKS = 2
BLOCKS = {"sweep": 3, "protocol_mc": 3, "attack": 16, "validate": 1}


def _sig(x: float) -> float:
    """Round to 6 significant digits so configs stay readable."""
    return float(f"{x:.6g}")


def _ladder(lo: float, hi: float, k: int) -> list[float]:
    return [_sig(x) for x in np.logspace(math.log10(lo), math.log10(hi), k)]


def _sweep_block(rng):
    ops = []
    for j, top_td in enumerate(_ladder(*SWEEP_TD, BLOCK_SIZE["sweep"])):
        n_t = 2 + (j // 3) % 3
        # pairs are a factor 2 apart, so every draw for a slot costs the same
        deltas = [
            [SWEEP_DELTAS[int(rng.integers(3))]],
            list(SWEEP_DELTAS[int(rng.integers(2)):][:2]),
            list(SWEEP_DELTAS),
        ][j % 3]
        # the largest delta meets the ladder point; every (delta, T) pair
        # keeps T*delta inside SWEEP_TD
        t_lo = SWEEP_TD[0] / deltas[0]
        t_max = max(top_td / deltas[-1], 2 * t_lo)
        # fixed, not drawn: the cost of the sinc kernel's sin() depends on
        # the size of its arguments, so random window lengths would make a
        # slot's cost differ from seed to seed
        times = _ladder(t_lo, t_max, n_t)
        ops.append({
            "cmd": "sweep",
            "config": {
                "shapes": [SHAPES[int(rng.integers(3))]],
                "deltas": deltas,
                "times": times,
                "k_c": 10.0,
            },
            "args": [],
        })
    return ops


def _adversary_fields(rng, adversary: str) -> dict:
    if adversary == "delayed":
        return {"tau0": _sig(rng.uniform(0.5, 10.0))}
    if adversary == "wrong_state":
        width = _sig(rng.uniform(0.6, 1.0))
        # support stays inside the carriers' grid span [9.5, 12.5]
        k_c = _sig(rng.uniform(9.5 + width / 2, 12.5 - width / 2))
        return {"wrong_state": {
            "shape": SHAPES[int(rng.integers(3))], "k_c": k_c, "delta": width,
        }}
    return {}


def _two_carrier_config(rng, family, adversary, t_open, n_range) -> dict:
    cfg = dict(CARRIERS)
    cfg.update({
        "n_channels": int(rng.integers(*n_range)),
        "t_open": t_open,
        "family": family,
        "bit": int(rng.integers(2)),
        "adversary": adversary,
    })
    cfg.update(_adversary_fields(rng, adversary))
    return cfg


def _protocol_block(rng):
    """Each family walks the whole t_open ladder, meeting the adversaries in
    turn, so both families reach the largest grid once per block."""
    ops = []
    ladder = _ladder(*PROTOCOL_T_OPEN, BLOCK_SIZE["protocol_mc"] // len(FAMILIES))
    for f, family in enumerate(FAMILIES):
        for i, t_open in enumerate(ladder):
            adversary = ADVERSARIES[(i + 2 * f) % len(ADVERSARIES)]
            # with 5 or more channels nearly every round carries both
            # carriers, so the per-round cost hardly depends on the draw
            cfg = _two_carrier_config(rng, family, adversary, t_open, (5, 13))
            runs = PROTOCOL_RUNS["mixed" if adversary == "mixed" else "pure"]
            ops.append({"cmd": "run", "config": cfg, "args": ["--runs", str(runs)]})
    return ops


def _attack_block(rng):
    """A t_open ladder on the smallest grid, then the top point (the
    3072-node grid), with the families alternating along it; the top point
    is a delayed sender against the state family.

    One large op per block costs about as much as the rest of the block,
    and leaves fewer than ten large ops in a run, so the median and the
    tail percentile of a run's op times fall among the small ops, whose
    costs spread evenly, instead of on the jump between two grid sizes.
    A block takes about 7 s on a 2-vCPU machine.
    """
    ops = []
    ladder = _ladder(ATTACK_T_OPEN[0], ATTACK_SMALL_T_OPEN, BLOCK_SIZE["attack"] - 1)
    ladder.append(ATTACK_T_OPEN[1])
    for i, t_open in enumerate(ladder):
        rev = len(ladder) - 1 - i
        family = FAMILIES[(rev + 1) % 2]
        adversary = ADVERSARIES[(rev // 2 + 1) % len(ADVERSARIES)]
        cfg = _two_carrier_config(rng, family, adversary, t_open, (2, 21))
        n_times = 3 if t_open > ATTACK_BIG_T_OPEN else 3 + i % 4
        lo = math.log10(t_open / 100.0)
        times = {t_open}
        while len(times) < n_times:
            times.add(_sig(10 ** rng.uniform(lo, math.log10(t_open))))
        cfg["times"] = sorted(times)
        if i % 2:
            cfg["t_probe"] = _sig(t_open * rng.uniform(0.01, 0.5))
        ops.append({"cmd": "attack", "config": cfg, "args": []})
    return ops


def _validate_block(rng):
    return [{"cmd": "validate", "config": None, "args": []}]


_BLOCK_FNS = {
    "sweep": _sweep_block,
    "protocol_mc": _protocol_block,
    "attack": _attack_block,
    "validate": _validate_block,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The workload's seeded op list: BLOCKS[workload] blocks, each shuffled."""
    if workload not in _BLOCK_FNS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops: list[dict] = []
    for _ in range(BLOCKS[workload]):
        ops_b = _BLOCK_FNS[workload](rng)
        ops.extend(ops_b[i] for i in rng.permutation(len(ops_b)))
    return ops


# Fixed, seed-independent ops run once during set-up.  Each is the largest
# op its workload can draw, so the set-up also fixes the process's peak RSS
# instead of leaving it to whichever large op a run reaches.
WARMUP_OPS = {
    "sweep": {"cmd": "sweep", "args": [], "config": {
        "shapes": ["rectangular"], "deltas": [1.0], "times": [SWEEP_TD[1]], "k_c": 10.0,
    }},
    "protocol_mc": {"cmd": "run", "args": ["--runs", "1"], "config": dict(
        CARRIERS, n_channels=2, t_open=PROTOCOL_T_OPEN[1], family="state", bit=0,
        adversary="mixed",
    )},
    "attack": {"cmd": "attack", "args": [], "config": dict(
        CARRIERS, n_channels=2, t_open=ATTACK_T_OPEN[1], family="state", bit=0,
        adversary="mixed", times=[10.0, 100.0, ATTACK_T_OPEN[1]],
    )},
    "validate": {"cmd": "validate", "config": None, "args": []},
}

# The two-carrier protocol at T*delta = 1e4: recorded by the pre-flight
# memory estimate, never run.
GUARDED_CASE = dict(
    CARRIERS, n_channels=5, t_open=1e4, family="state", bit=0, adversary="honest",
)
