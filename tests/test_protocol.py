import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbc import attacks, measurement, spectra
from relbc.measurement import PERP, OutcomeDist, sample_outcomes
from relbc.protocol import (
    ABORT,
    ACCEPT,
    FLAGGING,
    INCONCLUSIVE,
    MAX_CHANNEL_ROUNDS,
    CommitConfig,
    CommitRecord,
    ProtocolContext,
    RunBudgetError,
    commit,
    flag_prob,
    guess_success,
    ident_prob_collective,
    ident_prob_individual,
    open_and_verify,
    run_many,
    storage_security_curve,
)
from relbc.spectra import disjoint_pair


@pytest.fixture(scope="module")
def config():
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    return CommitConfig(
        n_channels=3, amp1=amp1, amp2=amp2, t_open=50.0, seed=7,
    )


@pytest.fixture(scope="module")
def ctx(config):
    return ProtocolContext(config)


def test_config_rejects_overlapping_carriers():
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    bad = amp1.delayed(0.0)  # same object semantics, shifted support below
    with pytest.raises(ValueError, match="disjoint"):
        CommitConfig(n_channels=2, amp1=amp1, amp2=amp1, t_open=10.0)
    with pytest.raises(ValueError, match="probe"):
        CommitConfig(n_channels=2, amp1=amp1, amp2=amp2, t_open=10.0, t_probe=10.0)
    with pytest.raises(ValueError, match="channel"):
        CommitConfig(n_channels=0, amp1=amp1, amp2=amp2, t_open=10.0)
    del bad


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
def test_config_rejects_seeds_that_are_not_counts(seed):
    # numpy would refuse these only once run_many draws, a float with a
    # bare TypeError; the config names the seed when it is built
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    message = f"seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        CommitConfig(n_channels=2, amp1=amp1, amp2=amp2, t_open=10.0, seed=seed)
    assert CommitConfig(n_channels=2, amp1=amp1, amp2=amp2, t_open=10.0,
                        seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, True, 0, -1, "3"])
def test_config_rejects_channel_counts_that_are_not_counts(n):
    # p^2.5 or a NaN would otherwise flow into every closed form, and True
    # would run as one channel
    amp1, amp2 = disjoint_pair(12.0, 10.0, 1.0)
    message = f"n_channels must be an integer >= 1, got {n!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        CommitConfig(n_channels=n, amp1=amp1, amp2=amp2, t_open=10.0)


def test_record_parity_invariant():
    CommitRecord(bit=1, channel_bits=(1, 0, 0))
    with pytest.raises(ValueError, match="parity"):
        CommitRecord(bit=0, channel_bits=(1, 0, 0))
    with pytest.raises(ValueError, match="0 or 1"):
        CommitRecord(bit=0, channel_bits=(2, 0))


def test_commit_parity_always_matches(config, ctx):
    rng = np.random.default_rng(0)
    for bit in (0, 1):
        for _ in range(50):
            record = commit(config, bit, rng)
            assert record.bit == bit
            assert len(record.channel_bits) == config.n_channels
    # each launched state is the carrier for its channel bit
    assert ctx.carrier(0) is ctx.psi1
    assert ctx.carrier(1) is ctx.psi2


def test_commit_single_channel(config, ctx):
    cfg = CommitConfig(
        n_channels=1, amp1=config.amp1, amp2=config.amp2, t_open=50.0,
    )
    rng = np.random.default_rng(1)
    record = commit(cfg, 1, rng)
    assert record.channel_bits == (1,)


def test_commit_channel_bits_uniform(config, ctx):
    # with the parity fixed, each individual channel bit is still a fair coin
    rng = np.random.default_rng(3)
    runs = 4000
    counts = np.zeros(config.n_channels)
    for _ in range(runs):
        record = commit(config, 1, rng)
        counts += record.channel_bits
    sigma = 0.5 * math.sqrt(runs)
    assert np.all(np.abs(counts - runs / 2) < 3 * sigma)


def test_measurement_at_zero_time_is_silent(config, ctx):
    rng = np.random.default_rng(2)
    record = commit(config, 0, rng)
    outcomes = sample_outcomes(ctx.outcome_dists(0.0), record.channel_bits, rng)
    assert tuple(outcomes) == (PERP,) * config.n_channels


def test_measurement_rejects_negative_time(config, ctx):
    with pytest.raises(ValueError, match="non-negative"):
        ctx.outcome_dists(-1.0)


def test_support_family_never_misfires(config, ctx):
    # honest disjoint-support carriers can never trip the wrong projector
    rng = np.random.default_rng(4)
    dists = ProtocolContext(replace(config, povm_family="support")).outcome_dists(config.t_open)
    for _ in range(200):
        record = commit(config, 0, rng)
        outcomes = sample_outcomes(dists, record.channel_bits, rng)
        for b, o in zip(record.channel_bits, outcomes):
            assert o in (PERP, b + 1)


def test_open_and_verify_verdicts():
    claims = CommitRecord(bit=0, channel_bits=(0, 1, 1))
    assert open_and_verify(claims, (1, 2, 2)) == ACCEPT
    assert open_and_verify(claims, (1, PERP, 2)) == INCONCLUSIVE
    assert open_and_verify(claims, (2, 2, 2)) == ABORT
    # abort wins even when other channels are silent
    assert open_and_verify(claims, (PERP, 1, PERP)) == ABORT
    with pytest.raises(ValueError, match="per channel"):
        open_and_verify(claims, (1, 2))


def test_run_protocol_honest_never_aborts(config, ctx):
    for t in run_many(ctx, 100, bit=1):
        assert t.verdict in (ACCEPT, INCONCLUSIVE)
        # A opens exactly what it committed
        j = t.to_json()
        assert (j["claimed_bit"], j["claimed_channel_bits"]) == (j["bit"], j["channel_bits"])
        assert j["measure_time"] == config.t_open


def test_run_protocol_deterministic(config, ctx):
    a = run_many(ctx, 5, bit=0)
    b = run_many(ctx, 5, bit=0)
    assert [t.to_json() for t in a] == [t.to_json() for t in b]
    # ... and distinct run indices do differ somewhere
    assert any(x.to_json() != y.to_json() for x, y in zip(a, a[1:]))


def _reference_outcomes(dists, channel_bits, rng):
    """The sampling contract, one channel at a time: a single rng.random()
    per channel, 1 below p1, 2 below p1 + p2, PERP otherwise."""
    out = []
    for b in channel_bits:
        r = rng.random()
        d = dists[b]
        out.append(1 if r < d.p1 else 2 if r < d.p1 + d.p2 else PERP)
    return out


@st.composite
def _outcome_dists(draw):
    cuts = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
    return OutcomeDist(cuts[0], cuts[1] - cuts[0], 1.0 - cuts[1])


@settings(max_examples=200, deadline=None)
@given(
    dists=st.tuples(_outcome_dists(), _outcome_dists()),
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampler_matches_scalar_reference(dists, bits, seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sample_outcomes(dists, bits, rng_a).tolist() == _reference_outcomes(dists, bits, rng_b)
    # both consumed the same stream, so later draws stay in step
    assert rng_a.random() == rng_b.random()


def _reference_runs(config, runs, bit, dists):
    """Run i on the stream [seed, i]: the commit draw, then one draw per channel."""
    out = []
    for i in range(runs):
        rng = np.random.default_rng([config.seed, i])
        record = commit(config, bit, rng)
        outcomes = tuple(_reference_outcomes(dists, record.channel_bits, rng))
        out.append((outcomes, open_and_verify(record, outcomes)))
    return out


def _direct_dists(ctx, t, sent):
    povm = measurement.state_povm(ctx.psi1, ctx.psi2, t)
    return tuple(measurement.outcome_dist(povm, s) for s in sent)


@pytest.mark.parametrize("kind", ["honest", "delayed"])
@pytest.mark.parametrize("bit", [0, 1])
def test_run_many_follows_stream_contract(config, ctx, kind, bit):
    sent = attacks.sent_pair(attacks.Strategy(kind=kind, tau0=3.0), ctx)
    got = run_many(ctx, 60, bit=bit, sent=sent)
    expect = _reference_runs(config, 60, bit, _direct_dists(ctx, config.t_open, sent))
    assert [(t.outcomes, t.verdict) for t in got] == expect
    assert len({v for _, v in expect}) > 1


@pytest.mark.parametrize("delay", [20.0, 80.0])
def test_channel_delay_shortens_the_window(config, ctx, delay):
    delayed = replace(config, channel_delay=delay)
    t = max(config.t_open - delay, 0.0)
    dists = _direct_dists(ctx, t, (ctx.psi1, ctx.psi2))
    assert ctx.outcome_dists(t) == dists
    assert dists != ctx.outcome_dists(config.t_open)
    got = run_many(ProtocolContext(delayed), 60, bit=1)
    assert [(t.outcomes, t.verdict) for t in got] == _reference_runs(delayed, 60, 1, dists)


def test_variant_context_shares_grid_and_carriers(config):
    ctx = ProtocolContext(config)
    before = spectra._layout_grid.cache_info()
    variant = ProtocolContext(replace(config, n_channels=20, povm_family="support", seed=3))
    after = spectra._layout_grid.cache_info()
    assert variant.grid is ctx.grid
    assert variant.psi1 is ctx.psi1 and variant.psi2 is ctx.psi2
    assert after.misses == before.misses and after.hits > before.hits


def test_ident_formulas():
    assert ident_prob_individual(0.5, 10) == pytest.approx(9.765625e-4, rel=1e-12)
    assert ident_prob_collective(0.5, 10) == pytest.approx(0.03125, rel=1e-12)
    assert guess_success(0.3, 4) == pytest.approx(0.50405, rel=1e-12)
    assert guess_success(1.0, 7) == 1.0
    assert guess_success(0.0, 7) == 0.5
    with pytest.raises(ValueError, match="probability"):
        ident_prob_individual(1.5, 2)


def test_collective_dominates_individual():
    for p in (0.05, 0.3, 0.7, 0.99):
        for n in (1, 2, 5, 20):
            assert ident_prob_collective(p, n) >= ident_prob_individual(p, n)


def test_storage_security_curve(config, ctx):
    times = np.linspace(0.0, config.t_open, 12)
    curve = storage_security_curve(ctx, times)
    vals = [s for _, s in curve]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    # monotone decline as the window opens
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.2
    with pytest.raises(ValueError, match="t_open"):
        storage_security_curve(ctx, [config.t_open + 1.0])


@pytest.mark.parametrize("family", ["support", "state"])
def test_context_povms_share_their_references(config, family):
    ctx = ProtocolContext(replace(config, povm_family=family))
    first, later = ctx.povm(1.0), ctx.povm(5.0)
    assert later.T == 5.0 and later.family == family
    assert all(r is r0 for r, r0 in zip(later.refs, first.refs))
    with pytest.raises(ValueError, match="read-only"):
        later.refs[0][0] = 1.0
    if family == "support":
        fresh = measurement.support_povm(ctx.grid, config.amp1.support, config.amp2.support, 5.0)
    else:
        fresh = measurement.state_povm(ctx.psi1, ctx.psi2, 5.0)
    sent = measurement.mixed_density([ctx.psi1, ctx.psi2])
    assert measurement.outcome_dist(later, sent) == measurement.outcome_dist(fresh, sent)


@pytest.mark.parametrize("family", ["support", "state"])
def test_context_builds_no_window_and_no_povm(config, monkeypatch, family):
    # the context keeps only the family's references; a window and a POVM
    # are built when a distribution is asked for
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built")

    for cls in (measurement.WindowOperator, measurement.Povm):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    ctx = ProtocolContext(replace(config, povm_family=family))
    assert len(ctx.refs) == 2
    with pytest.raises(AssertionError, match="WindowOperator built"):
        ctx.outcome_dists(1.0)


def test_draws_come_from_three_places_only():
    # One sampling path: the commit draw, the outcome draw and the Monte Carlo
    # rate's committed bit are the only calls of a Generator draw method (or
    # of numpy's legacy global ones) in the package.
    import ast
    from pathlib import Path

    import relbc

    draws = {name for name in dir(np.random.Generator) if not name.startswith("_")}
    draws -= {"bit_generator", "spawn"}
    found = []
    for path in sorted(Path(relbc.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found += [(path.stem, fn.name, node.func.attr) for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in draws]
    assert sorted(found) == [
        ("attacks", "monte_carlo_detection_rate", "integers"),
        ("measurement", "sample_outcomes", "random"),
        ("protocol", "commit", "integers"),
    ], found


@pytest.mark.parametrize("family", measurement.FAMILIES)
@pytest.mark.parametrize("claimed_bit", [0, 1])
@pytest.mark.parametrize("outcome", [1, 2, PERP])
def test_flag_prob_is_one_exactly_for_a_flagging_verdict(family, claimed_bit, outcome):
    # a point-mass channel flags with probability 1 when B's one-channel
    # verdict is in the family's flagging set, and 0 otherwise
    assert tuple(FLAGGING) == measurement.FAMILIES
    dist = OutcomeDist(*(float(o == outcome) for o in (1, 2, PERP)))
    verdict = open_and_verify(CommitRecord(claimed_bit, (claimed_bit,)), (outcome,))
    assert flag_prob(family, dist, claimed_bit) == float(verdict in FLAGGING[family])


def test_run_batch_past_budget_is_refused_before_drawing(ctx, monkeypatch):
    def refuse(*args):
        raise AssertionError("drew a round")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    big = ProtocolContext(replace(ctx.config, n_channels=MAX_CHANNEL_ROUNDS // 4 + 1))
    with pytest.raises(RunBudgetError, match="5 runs of n_channels = 262145") as info:
        run_many(big, 5, 0)
    assert (info.value.n_channels, info.value.runs) == (MAX_CHANNEL_ROUNDS // 4 + 1, 5)
    assert isinstance(info.value, ValueError)


def test_one_owner_builds_context_windows_and_povms():
    # only ProtocolContext.window builds a window on a context's grid, and
    # Povm is constructed only by ctx.povm and the two family builders, so
    # no run or attack path builds a Povm
    import ast
    from pathlib import Path

    import relbc

    def calls(node, name):
        """(callee, first argument, enclosing function) of every call under node."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from calls(child, f"{name}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "attr", getattr(child.func, "id", None))
                yield callee, child.args[0] if child.args else None, name
            yield from calls(child, name)

    def on_context_grid(arg):
        return (isinstance(arg, ast.Attribute) and arg.attr == "grid"
                and isinstance(arg.value, ast.Name) and arg.value.id in ("ctx", "self"))

    windows, povms = [], []
    for path in sorted(Path(relbc.__file__).parent.glob("*.py")):
        for callee, arg, name in calls(ast.parse(path.read_text()), path.stem):
            if callee in ("build_window", "WindowOperator") and on_context_grid(arg):
                windows.append(name)
            if callee == "Povm":
                povms.append(name)
    assert windows == ["protocol.ProtocolContext.window"]
    assert sorted(povms) == [
        "measurement.state_povm", "measurement.support_povm", "protocol.ProtocolContext.povm",
    ]
