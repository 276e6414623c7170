import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import relbc
from relbc import attacks, measurement, spectra, window
from relbc.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from relbc.protocol import CommitConfig, ProtocolContext
from relbc.spectra import SpectralAmplitude, make_amplitude

NAN = float("nan")

SWEEP_CFG = {
    "shapes": ["rectangular", "raised-cosine"],
    "deltas": [0.5, 1.0],
    "times": [0.0, 1.0, 10.0],
    "k_c": 10.0,
}

RUN_CFG = {
    "n_channels": 3,
    "delta": 1.0,
    "k1": 12.0,
    "k2": 10.0,
    "t_open": 20.0,
    "family": "support",
    "bit": 1,
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_sweep_csv_deterministic(tmp_path):
    cfg = _write(tmp_path, SWEEP_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# relbc ")
    assert lines[2].startswith("# config-sha256: ")
    assert lines[3] == "delta,T,shape,p_detect,p_perp,alpha_eff"
    # one row per (shape, delta, time)
    assert len(lines) == 4 + 2 * 2 * 3


def test_sweep_zero_time_rows(tmp_path):
    cfg = _write(tmp_path, SWEEP_CFG)
    out = tmp_path / "s.csv"
    main(["sweep", "--config", cfg, "--out", str(out)])
    for line in out.read_text().splitlines()[4:]:
        delta, t, shape, p, perp, alpha = line.split(",")
        if float(t) == 0.0:
            assert float(p) == 0.0 and float(perp) == 1.0
        else:
            assert 0.0 < float(p) < 1.0
        assert abs(float(p) + float(perp) - 1.0) < 1e-12


def test_sweep_json_format(tmp_path):
    cfg = _write(tmp_path, SWEEP_CFG)
    out = tmp_path / "s.json"
    main(["sweep", "--config", cfg, "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 12
    assert {"delta", "T", "shape", "p_detect"} <= set(payload["rows"][0])


def test_sweep_infinite_time_keeps_finite_rows(tmp_path):
    # T = inf is the identity: it does not size the grid of the finite rows
    rows = {}
    for name, times in (("finite", [1000.0]), ("mixed", [1000.0, math.inf])):
        out = tmp_path / f"{name}.csv"
        cfg = _write(tmp_path, {"deltas": [1.0], "times": times, "k_c": 10.0}, f"{name}.json")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows[name] = out.read_text().splitlines()[4:]
    assert rows["mixed"][0] == rows["finite"][0]
    assert rows["mixed"][1].split(",")[3] == "1.0"


def test_sweep_matches_closed_form(tmp_path):
    from relbc.oracle import detect_prob_flat_closed_form

    cfg = _write(tmp_path, {"deltas": [1.0], "times": [1.0], "k_c": 10.0})
    out = tmp_path / "one.csv"
    main(["sweep", "--config", cfg, "--out", str(out)])
    row = out.read_text().splitlines()[-1].split(",")
    assert abs(float(row[3]) - detect_prob_flat_closed_form(1.0, 1.0)) < 1e-10


def test_run_csv(tmp_path):
    cfg = _write(tmp_path, RUN_CFG)
    out = tmp_path / "runs.csv"
    assert main(["run", "--config", cfg, "--runs", "20", "--seed", "9",
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[3] == "seed,run,N,T_probe,T_open,family,adversary,success,aborted"
    rows = [line.split(",") for line in lines[4:]]
    assert len(rows) == 20
    # honest senders never abort
    assert all(r[8] == "0" for r in rows)
    assert all(r[6] == "honest" for r in rows)


def test_run_zero_runs_header_only(tmp_path):
    cfg = _write(tmp_path, RUN_CFG)
    out = tmp_path / "empty.csv"
    assert main(["run", "--config", cfg, "--runs", "0", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 4


def test_run_deterministic_across_invocations(tmp_path):
    cfg = _write(tmp_path, RUN_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", cfg, "--runs", "10", "--seed", "4", "--out", str(a)])
    main(["run", "--config", cfg, "--runs", "10", "--seed", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_run_json_files(tmp_path):
    cfg = _write(tmp_path, RUN_CFG)
    outdir = tmp_path / "transcripts"
    main(["run", "--config", cfg, "--runs", "3", "--format", "json",
          "--out", str(outdir)])
    files = sorted(outdir.iterdir())
    assert [f.name for f in files] == ["run_00000.json", "run_00001.json",
                                       "run_00002.json"]
    t = json.loads(files[0].read_text())
    assert t["bit"] == 1
    assert len(t["channel_bits"]) == 3
    assert t["verdict"] in ("accept", "inconclusive")


def test_run_adversarial_mixed_aborts(tmp_path):
    cfg = dict(RUN_CFG, adversary="mixed", n_channels=8, t_open=200.0)
    path = _write(tmp_path, cfg)
    out = tmp_path / "cheat.csv"
    main(["run", "--config", path, "--runs", "30", "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()[4:]]
    # a half/half mixture on every channel is flagged almost surely
    assert sum(r[8] == "1" for r in rows) >= 28


def test_attack_table(tmp_path):
    cfg = dict(RUN_CFG, adversary="delayed", tau0=3.0, times=[1.0, 5.0, 20.0])
    path = _write(tmp_path, cfg)
    out = tmp_path / "attack.csv"
    assert main(["attack", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[3].startswith("strategy,param,N,T,q,detection_prob")
    rows = [line.split(",") for line in lines[4:]]
    assert len(rows) == 3
    assert all(r[0] == "delayed" and float(r[1]) == 3.0 for r in rows)
    for r in rows:
        q, det = float(r[4]), float(r[5])
        assert abs(det - (1 - (1 - q) ** 3)) < 1e-12
    # every sender but the delayed one reports the probe time as its parameter
    wrong = dict(RUN_CFG, adversary="wrong_state", t_probe=2.0, times=[5.0],
                 wrong_state={"shape": "raised-cosine", "k_c": 11.0, "delta": 0.8})
    path = _write(tmp_path, wrong, "wrong.json")
    assert main(["attack", "--config", path, "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[4].split(",")[:2] == ["wrong_state", "2.0"]


WRONG = {"shape": "raised-cosine", "k_c": 11.0, "delta": 0.8}


@pytest.mark.parametrize("family", ["support", "state"])
@pytest.mark.parametrize("adversary", ["delayed", "mixed", "wrong_state"])
def test_attack_matches_per_time_reference(tmp_path, family, adversary):
    # times below, at and above t_probe, so rows meet several probe windows
    times = [0.0, 0.5, 2.0, 5.0, 20.0, 1.0]
    cfg = dict(RUN_CFG, family=family, adversary=adversary, tau0=3.0, t_probe=2.0,
               times=times, wrong_state=WRONG)
    out = tmp_path / "attack.csv"
    assert main(["attack", "--config", _write(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[4:]]
    # the reference: one POVM, one outcome_dist and one detect_prob per time
    amp1, amp2 = (make_amplitude("rectangular", k, 1.0) for k in (12.0, 10.0))
    config = CommitConfig(n_channels=3, amp1=amp1, amp2=amp2, t_open=20.0,
                          t_probe=2.0, povm_family=family)
    ctx = ProtocolContext(config)
    strategy = attacks.Strategy(kind=adversary, tau0=3.0,
                                amplitude=SpectralAmplitude.from_json(WRONG))
    sent = attacks.transmitted_state(strategy, 0, ctx)
    assert [float(r[3]) for r in rows] == sorted(times)
    for r in rows:
        t = float(r[3])
        d = measurement.outcome_dist(ctx.povm(t), sent)
        q = d.p2 if family == "support" else 1.0 - d.p1
        p = window.detect_prob(window.build_window(ctx.grid, min(2.0, t)), ctx.psi1)
        expect = (q, 1.0 - (1.0 - q) ** 3, p**3, p**1.5, p**3 + (1.0 - p**3) / 2.0)
        got = [float(v) for v in r[4:]]
        assert max(abs(g - e) for g, e in zip(got, expect)) <= 1e-13, (t, got, expect)


def test_readme_examples_run(tmp_path, capsys):
    """The README's config heredocs and relbc lines, run in a temp dir."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    heredocs = re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)\nEOF$", readme, re.M | re.S)
    assert [name for name, _ in heredocs] == ["sweep.json", "run.json", "attack.json"]
    for name, text in heredocs:
        (tmp_path / name).write_text(text)
    commands = re.findall(r"^relbc (.*)$", readme, re.M)
    assert [c.split()[0] for c in commands] == ["sweep", "run", "attack", "validate"]
    for command in commands:
        argv = shlex.split(command)
        argv = [str(tmp_path / a) if prev in ("--config", "--out") else a
                for prev, a in zip([None] + argv, argv)]
        capsys.readouterr()
        assert main(argv) == EXIT_OK, command
    assert capsys.readouterr().out.endswith("failures: 0\n")
    assert all((tmp_path / out).exists() for out in ("sweep.csv", "runs.csv", "attack.csv"))


def test_parser_is_reused_without_leaking_defaults(tmp_path):
    """In-process calls on the one cached parser match fresh processes."""
    run_cfg = _write(tmp_path, RUN_CFG, "run.json")
    attack_cfg = _write(tmp_path, dict(RUN_CFG, adversary="delayed", tau0=3.0,
                                       times=[1.0, 20.0]), "attack.json")
    calls = [
        ["run", "--config", run_cfg, "--runs", "2", "--seed", "3"],
        ["attack", "--config", attack_cfg],
        ["run", "--config", run_cfg],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(relbc.__file__).parents[1]))
    assert build_parser() is build_parser()
    for i, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{i}.csv", tmp_path / f"fresh{i}.csv"
        assert main(argv + ["--out", str(here)]) == EXIT_OK
        subprocess.run([sys.executable, "-m", "relbc.cli", *argv, "--out", str(fresh)],
                       env=env, check=True, timeout=120)
        assert here.read_bytes() == fresh.read_bytes(), argv
    # --runs and --seed of the first call do not carry over to the third
    last = (tmp_path / "here2.csv").read_text().splitlines()
    assert last[1] == "# seed: 0" and len(last) == 5


def test_validate_ok(tmp_path, capsys):
    assert main(["validate"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "failures: 0" in text
    assert "FAIL" not in text
    povms = [line.split(":")[0] for line in text.splitlines() if line.startswith("povm ")]
    assert povms == [
        f"povm family={family} T={T}"
        for family in ("support", "state")
        for T in (0.1, 1.0, 10.0)
    ]


def test_validate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # eigvalsh's rounding noise in min_eig differs between one and two
    # threads; it prints as 0.000e+00
    env = dict(os.environ, PYTHONPATH=str(Path(relbc.__file__).resolve().parents[1]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"validate{threads}.txt"
        subprocess.run([sys.executable, "-m", "relbc.cli", "validate", "--out", str(out)],
                       env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True, timeout=120)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_validate_detects_corruption(tmp_path):
    out = tmp_path / "audit.txt"
    code = main(["validate", "--inject-corruption", "--out", str(out)])
    assert code == EXIT_INVARIANT
    assert "FAIL" in out.read_text()


def test_exit_codes(tmp_path, capsys):
    # usage errors
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["run", "--config", _write(tmp_path, RUN_CFG), "--runs", "-2"]) == EXIT_USAGE
    # a seed is a non-negative integer on every subcommand
    assert main(["run", "--config", _write(tmp_path, RUN_CFG), "--seed", "-1"]) == EXIT_USAGE
    assert main(["attack", "--config", _write(tmp_path, RUN_CFG), "--seed", "-1"]) == EXIT_USAGE
    assert main(["validate", "--seed", "-5"]) == EXIT_USAGE
    assert main(["sweep", "--config", _write(tmp_path, SWEEP_CFG), "--seed", "1.5"]) == EXIT_USAGE
    # options a subcommand does not read are refused, not ignored
    assert main(["attack", "--config", _write(tmp_path, RUN_CFG), "--format", "json"]) == EXIT_USAGE
    assert main(["validate", "--config", _write(tmp_path, RUN_CFG)]) == EXIT_USAGE
    assert main(["validate", "--format", "json"]) == EXIT_USAGE
    # config errors
    assert main(["sweep"]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["sweep", "--config", str(bad)]) == EXIT_CONFIG
    not_obj = tmp_path / "list.json"
    not_obj.write_text("[1, 2]")
    assert main(["sweep", "--config", str(not_obj)]) == EXIT_CONFIG
    incomplete = _write(tmp_path, {"n_channels": 2}, "inc.json")
    assert main(["run", "--config", incomplete]) == EXIT_CONFIG
    overlap = _write(
        tmp_path, dict(RUN_CFG, k1=10.2), "overlap.json"
    )
    assert main(["run", "--config", overlap]) == EXIT_CONFIG
    for name, cmd, cfg in (
        ("bit2", "run", dict(RUN_CFG, bit=2)),
        ("bitx", "run", dict(RUN_CFG, bit="x")),
        ("times", "attack", dict(RUN_CFG, times=["soon"])),
        ("shapes", "sweep", dict(SWEEP_CFG, shapes=["square"])),
        ("early", "run", dict(RUN_CFG, adversary="early_measure")),
    ):
        assert main([cmd, "--config", _write(tmp_path, cfg, f"{name}.json")]) == EXIT_CONFIG
    # bad values that used to surface as invariant violations name their key
    for name, cmd, cfg, named in (
        ("delta0", "sweep", dict(SWEEP_CFG, deltas=[0.0]), ("'deltas'",)),
        ("negtime", "attack", dict(RUN_CFG, times=[-1.0]), ("'times'",)),
        ("kc", "sweep", {"k_c": 0.4, "deltas": [1.0], "times": [1.0]}, ("'k_c'",)),
        # the grid is resolved for windows up to t_open only
        ("late", "attack", dict(RUN_CFG, times=[1.0, 1000.0]), ("'times'", "t_open = 20.0")),
        # a negative delay would push the measurement window past t_open
        ("negdelay", "run", dict(RUN_CFG, channel_delay=-10.0), ("channel_delay", "-10.0")),
        # an infinite delay would measure every channel with an empty window
        ("infdelay", "run", dict(RUN_CFG, channel_delay=math.inf), ("channel_delay", "inf")),
        # an infinite t_open would let any finite window past the grid
        ("topeninf", "attack", dict(RUN_CFG, t_open=math.inf), ("t_open", "inf")),
        ("topennan", "run", dict(RUN_CFG, t_open=NAN), ("t_open", "nan")),
        # non-finite spectral parameters
        ("deltanan", "run", dict(RUN_CFG, delta=NAN), ("config key 'delta'", "nan")),
        ("deltaneg", "run", dict(RUN_CFG, delta=-1.0), ("config key 'delta'", "-1.0")),
        ("k1nan", "attack", dict(RUN_CFG, k1=NAN), ("config key 'k1'", "nan")),
        ("kcnan", "sweep", dict(SWEEP_CFG, k_c=NAN), ("'k_c'", "nan")),
        ("deltainf", "sweep", dict(SWEEP_CFG, deltas=[math.inf]), ("'deltas'", "inf")),
        ("tau0nan", "attack", dict(RUN_CFG, adversary="delayed", tau0=NAN), ("tau0", "nan")),
        ("wrongtau0", "run", dict(
            RUN_CFG, adversary="wrong_state",
            wrong_state={"shape": "rectangular", "k_c": 12.0, "delta": 1.0, "tau0": NAN},
        ), ("tau0", "nan")),
        # counts are not truncated
        ("nfrac", "run", dict(RUN_CFG, n_channels=2.7), ("'n_channels'", "2.7")),
        ("nbool", "run", dict(RUN_CFG, n_channels=True), ("'n_channels'", "True")),
        ("ninf", "run", dict(RUN_CFG, n_channels=math.inf), ("'n_channels'", "inf")),
        ("bitfrac", "run", dict(RUN_CFG, bit=0.9), ("'bit'", "0.9")),
        # a string is not read one character at a time
        ("timesstr", "attack", dict(RUN_CFG, times="10"), ("'times'", "JSON array")),
        ("deltasstr", "sweep", dict(SWEEP_CFG, deltas="12"), ("'deltas'", "JSON array")),
        ("shapesstr", "sweep", dict(SWEEP_CFG, shapes="rectangular"), ("'shapes'", "JSON array")),
        # k_c +- delta/2 round to one number: the support is empty
        ("kchuge", "sweep", dict(SWEEP_CFG, k_c=1e300), ("'k_c'", "empty", "delta = 0.5")),
        # numbers must be JSON numbers: a boolean or a numeric string is refused
        ("deltabool", "run", dict(RUN_CFG, delta=True), ("config key 'delta'", "True")),
        ("deltasbool", "sweep", dict(SWEEP_CFG, deltas=[True]), ("'deltas'", "True")),
        ("timesbool", "attack", dict(RUN_CFG, times=[True, 10.0]), ("'times'", "True")),
        ("tprobebool", "run", dict(RUN_CFG, t_probe=True), ("'t_probe'", "True")),
        ("topenstr", "run", dict(RUN_CFG, t_open="20"), ("'t_open'", "'20'")),
        ("nstr", "run", dict(RUN_CFG, n_channels="2"), ("'n_channels'", "'2'")),
        ("bitstr", "run", dict(RUN_CFG, bit="1"), ("'bit'", "'1'")),
        ("k1str", "attack", dict(RUN_CFG, k1="12"), ("config key 'k1'", "'12'")),
        ("kcstr", "sweep", dict(SWEEP_CFG, k_c="10"), ("'k_c'", "'10'")),
        ("tau0str", "attack", dict(RUN_CFG, adversary="delayed", tau0="6.28"),
         ("'tau0'", "'6.28'")),
    ):
        capsys.readouterr()
        assert main([cmd, "--config", _write(tmp_path, cfg, f"{name}.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(part in err for part in named), err
    # an integral float is still a count
    whole = _write(tmp_path, dict(RUN_CFG, n_channels=3.0, bit=1.0), "whole.json")
    assert main(["run", "--config", whole, "--out", str(tmp_path / "whole.csv")]) == EXIT_OK
    # the old advisory --jobs option is gone
    assert main(["run", "--config", _write(tmp_path, RUN_CFG), "--jobs", "2"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("n_channels, runs", [(10**9, 1), (2**20 + 1, 1), (2**10, 2**10 + 1)])
def test_run_past_batch_budget_is_refused_before_drawing(tmp_path, capsys, n_channels, runs):
    # N = 1e9 in one run was OOM-killed; the batch is refused by name instead
    path = _write(tmp_path, dict(RUN_CFG, n_channels=n_channels))
    capsys.readouterr()
    assert main(["run", "--config", path, "--runs", str(runs)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert f"{runs} runs of n_channels = {n_channels}" in err and "1048576" in err, err


@pytest.mark.parametrize("cmd", ["attack", "run"])
@pytest.mark.parametrize("wrong, named", [
    ([12.0, 1.0], ("JSON object", "[12.0, 1.0]")),
    ("raised-cosine", ("JSON object",)),
    ({"shape": "rectangular", "delta": 1.0}, ("missing key 'k_c'",)),
    (None, ("missing config key",)),
    # numbers must be JSON numbers
    ({"shape": "rectangular", "k_c": "12", "delta": 1.0}, ("'k_c'", "'12'")),
    ({"shape": "rectangular", "k_c": 12.0, "delta": True}, ("'delta'", "True")),
    ({"shape": "rectangular", "k_c": 12.0, "delta": 1.0, "tau0": "6.28"}, ("'tau0'", "'6.28'")),
])
def test_wrong_state_that_is_not_an_amplitude_is_config_error(tmp_path, capsys, cmd, wrong, named):
    cfg = dict(RUN_CFG, adversary="wrong_state")
    if wrong is not None:
        cfg["wrong_state"] = wrong
    capsys.readouterr()
    assert main([cmd, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'wrong_state'" in err and all(part in err for part in named), err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "sweep.csv"
    existing = tmp_path / "existing"
    existing.write_text("kept\n")
    for argv, path in (
        (["sweep", "--config", _write(tmp_path, SWEEP_CFG), "--out", str(missing)], missing),
        # the json runs go into a directory, and a file is in the way
        (["run", "--config", _write(tmp_path, RUN_CFG), "--format", "json",
          "--out", str(existing)], existing),
    ):
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"cannot write {path}" in err, err
    assert not missing.parent.exists()
    assert existing.read_text() == "kept\n"


def test_run_bad_family_is_config_error(tmp_path):
    path = _write(tmp_path, dict(RUN_CFG, family="telepathy"))
    assert main(["run", "--config", path]) == EXIT_CONFIG


def test_attack_past_grid_budget_is_invariant_violation(tmp_path, capsys):
    # a 1.5e9-node grid is refused by name before anything is allocated
    path = _write(tmp_path, dict(RUN_CFG, t_open=1e9))
    capsys.readouterr()
    assert main(["attack", "--config", path]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "1500000000 nodes" in err and "T = 1000000000.0" in err, err


@pytest.mark.parametrize("cmd", ["attack", "run"])
@pytest.mark.parametrize("wrong, named", [
    # outside the carriers' grid span [9.5, 12.5]
    ({"k_c": 20.0, "delta": 1.0}, ("(19.5, 20.5)", "[9.5, 12.5]")),
    # a bandwidth the grid's node spacing cannot resolve
    ({"k_c": 11.0, "delta": 0.01}, ("node spacing", "delta/64 = 0.00015625")),
])
def test_unresolved_wrong_state_is_config_error(tmp_path, capsys, cmd, wrong, named):
    cfg = dict(RUN_CFG, t_open=100.0, adversary="wrong_state",
               wrong_state=dict(wrong, shape="rectangular"))
    capsys.readouterr()
    assert main([cmd, "--config", _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'wrong_state'" in err and all(part in err for part in named), err


# The README carriers on the 768-node layout with a wrong-state sender in the
# gap panel, so the state-family forms pair it with both carrier panels
# through neighbour blocks.
REUSE_CFG = dict(
    RUN_CFG, family="state", t_open=50.0, times=[0.5, 5.0, 50.0], adversary="wrong_state",
    wrong_state={"shape": "raised-cosine", "k_c": 10.9, "delta": 0.8},
)


def test_attack_ops_on_one_layout_build_one_grid(tmp_path, monkeypatch):
    spectra._layout_grid.cache_clear()
    calls = []
    build = spectra.gauss_legendre_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(spectra, "gauss_legendre_grid", counted)
    out = str(tmp_path / "o.csv")
    for cfg in (REUSE_CFG, dict(REUSE_CFG, adversary="delayed", tau0=3.0, t_open=200.0),
                dict(REUSE_CFG, adversary="mixed", family="support", t_open=10.0, times=[1.0, 10.0])):
        assert main(["attack", "--config", _write(tmp_path, cfg), "--out", out]) == EXIT_OK
    assert len(calls) == 1


def test_attack_csv_same_from_fresh_process_and_after_other_layouts(tmp_path):
    path = _write(tmp_path, REUSE_CFG)
    fresh = tmp_path / "fresh.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(relbc.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-m", "relbc.cli", "attack", "--config", path,
                    "--out", str(fresh)], check=True, env=env, timeout=120)
    out = str(tmp_path / "o.csv")
    for cfg in (dict(REUSE_CFG, t_open=1e3, times=[1e3]),
                dict(REUSE_CFG, k1=14.0, k2=10.0, adversary="honest")):
        assert main(["attack", "--config", _write(tmp_path, cfg, "other.json"), "--out", out]) == EXIT_OK
    assert main(["attack", "--config", path, "--out", out]) == EXIT_OK
    assert Path(out).read_bytes() == fresh.read_bytes()
