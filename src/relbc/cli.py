"""Batch CLI: parameter sweeps, protocol Monte Carlo, attack studies, audits.

Subcommands: sweep | run | attack | validate.  Outputs are deterministic
CSV (with a '#'-prefixed metadata header) or JSON, reproducible from
(config, seed).  Exit codes: 0 ok, 1 usage, 2 invariant violation,
3 config error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
from pathlib import Path

from . import __version__, attacks, measurement, oracle, protocol, window
from .spectra import (
    SHAPES,
    GridResolutionError,
    SpectralAmplitude,
    grid_for_amplitudes,
    json_number,
    make_amplitude,
    sample,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_CONFIG = 3


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    return cfg


_MISSING = object()


def _require(cfg: dict, key: str, kind=json_number, default=_MISSING):
    """``kind(cfg[key])``; a missing key takes ``default`` or is an error."""
    if key not in cfg and default is _MISSING:
        raise ConfigError(f"missing config key {key!r}")
    try:
        return kind(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _array(values) -> list:
    """A JSON array; a string or an object is refused, not read element-wise."""
    if not isinstance(values, list):
        raise ValueError(f"expected a JSON array, got {values!r}")
    return values


def _floats(values) -> list[float]:
    return [json_number(v) for v in _array(values)]


def _positive_number(value) -> float:
    value = json_number(value)
    if not 0 < value < math.inf:
        raise ValueError(f"must be positive and finite, got {value!r}")
    return value


def _positive(values) -> list[float]:
    return [_positive_number(v) for v in _array(values)]


def _non_negative(values) -> list[float]:
    values = _floats(values)
    for v in values:
        if not v >= 0:
            raise ValueError(f"entries must be non-negative, got {v!r}")
    return values


def _shapes(values) -> list[str]:
    values = _array(values)
    for v in values:
        if v not in SHAPES:
            raise ValueError(f"unknown shape {v!r}, expected one of {SHAPES}")
    return values


def _integer(value) -> int:
    """An integral JSON number; a fraction, a boolean or a string is refused."""
    if not json_number(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _bit(value) -> int:
    bit = _integer(value)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return bit


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _header(seed, cfg: dict) -> list[str]:
    return [
        f"# relbc {__version__}",
        f"# seed: {seed}",
        f"# config-sha256: {_config_hash(cfg)}",
    ]


def _emit(out_path: str | None, text: str):
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _csv(header_lines, columns, rows) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(line + "\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    shapes = _require(cfg, "shapes", _shapes, default=["rectangular"])
    deltas = _require(cfg, "deltas", _positive, default=[1.0])
    times = _require(cfg, "times", _non_negative, default=[0.0])
    k_c = _require(cfg, "k_c", default=10.0)
    rows = []
    for shape in shapes:
        for delta in deltas:
            try:
                amp = make_amplitude(shape, k_c * delta, delta)
            except ValueError as exc:
                raise ConfigError(f"config key 'k_c': {exc}") from exc
            # T = inf is the identity and needs no resolution
            top = max((t for t in times if math.isfinite(t)), default=0.0)
            grid = grid_for_amplitudes([amp], T=top)
            state = sample(amp, grid)
            for t in sorted(times):
                w = window.build_window(grid, t)
                p = window.detect_prob(w, state)
                rows.append(
                    (delta, t, shape, p, 1.0 - p, measurement.effective_angle(p))
                )
    columns = ("delta", "T", "shape", "p_detect", "p_perp", "alpha_eff")
    if args.format == "json":
        payload = [dict(zip(columns, r)) for r in rows]
        _emit(args.out, json.dumps({"meta": {"seed": args.seed, "config_sha256": _config_hash(cfg)}, "rows": payload}, indent=2) + "\n")
    else:
        _emit(args.out, _csv(_header(args.seed, cfg), columns, rows))
    return EXIT_OK


def _protocol_config(cfg: dict, seed: int) -> protocol.CommitConfig:
    shape = _require(cfg, "shape", lambda v: _shapes([v])[0], default="rectangular")
    delta = _require(cfg, "delta", _positive_number)
    amp1, amp2 = (
        _require(cfg, key, lambda k: make_amplitude(shape, json_number(k), delta))
        for key in ("k1", "k2")
    )
    try:
        return protocol.CommitConfig(
            n_channels=_require(cfg, "n_channels", _integer),
            amp1=amp1,
            amp2=amp2,
            t_open=_require(cfg, "t_open"),
            t_probe=_require(cfg, "t_probe", default=0.0),
            povm_family=cfg.get("family", "state"),
            seed=seed,
            channel_delay=_require(cfg, "channel_delay", default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _amplitude(obj) -> SpectralAmplitude:
    """A JSON object {"shape", "k_c", "delta"[, "tau0"]} as an amplitude."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {obj!r}")
    try:
        return SpectralAmplitude.from_json(obj)
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc


def _strategy(cfg: dict) -> attacks.Strategy:
    kind = cfg.get("adversary", "honest")
    if kind == "wrong_state":
        return attacks.Strategy(kind=kind, amplitude=_require(cfg, "wrong_state", _amplitude))
    try:
        return attacks.Strategy(kind=kind, tau0=_require(cfg, "tau0", default=0.0))
    except ValueError as exc:
        raise ConfigError(f"bad adversary spec: {exc}") from exc


def _context(config: protocol.CommitConfig, strategy: attacks.Strategy) -> protocol.ProtocolContext:
    """The config's protocol context; a wrong-state amplitude its grid cannot
    resolve is a config error (the state is kept for the sender)."""
    ctx = protocol.ProtocolContext(config)
    if strategy.kind == "wrong_state":
        try:
            sample(strategy.amplitude, ctx.grid)
        except GridResolutionError as exc:
            raise ConfigError(f"config key 'wrong_state': {exc}") from exc
    return ctx


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    config = _protocol_config(cfg, args.seed)
    strategy = _strategy(cfg)
    bit = _require(cfg, "bit", _bit, default=0)
    ctx = _context(config, strategy)
    transcripts = protocol.run_many(ctx, args.runs, bit, sent=attacks.sent_pair(strategy, ctx))
    if args.format == "json":
        if args.out is None:
            for t in transcripts:
                sys.stdout.write(json.dumps(t.to_json(), sort_keys=True) + "\n")
        else:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            for i, t in enumerate(transcripts):
                (outdir / f"run_{i:05d}.json").write_text(
                    json.dumps(t.to_json(), sort_keys=True, indent=2) + "\n"
                )
        return EXIT_OK
    columns = (
        "seed", "run", "N", "T_probe", "T_open", "family", "adversary",
        "success", "aborted",
    )
    rows = [
        (
            config.seed, i, config.n_channels, config.t_probe, config.t_open,
            config.povm_family, strategy.kind,
            int(t.verdict == protocol.ACCEPT), int(t.verdict == protocol.ABORT),
        )
        for i, t in enumerate(transcripts)
    ]
    _emit(args.out, _csv(_header(args.seed, cfg), columns, rows))
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg = _load_config(args.config)
    config = _protocol_config(cfg, args.seed)
    strategy = _strategy(cfg)
    times = _require(cfg, "times", _non_negative, default=[config.t_open])
    # the grid is resolved for windows up to t_open only
    late = [t for t in times if t > config.t_open]
    if late:
        raise ConfigError(
            f"config key 'times': entries must lie within [0, t_open = {config.t_open!r}], "
            f"got {late[0]!r}"
        )
    ctx = _context(config, strategy)
    n = config.n_channels
    param = strategy.tau0 if strategy.kind == "delayed" else config.t_probe
    times = sorted(times)
    qs = attacks.per_channel_flag_probs(strategy, ctx, times)
    # B's advantage per probe time; rows past t_probe share one
    probes = sorted({min(config.t_probe, t) for t in times})
    early = dict(zip(probes, attacks.early_binding_advantages(ctx, probes)))
    rows = [
        (strategy.kind, param, n, t, q, 1.0 - (1.0 - q) ** n,
         *early[min(config.t_probe, t)])
        for t, q in zip(times, qs)
    ]
    columns = (
        "strategy", "param", "N", "T", "q", "detection_prob",
        "P_ind", "P_coll", "P_guess",
    )
    _emit(args.out, _csv(_header(args.seed, cfg), columns, rows))
    return EXIT_OK


def _audit_povm(povm, corrupt: bool) -> tuple[bool, str]:
    """The brute-force check of one POVM's dense elements, as (passed, line).

    The elements are streamed into the check one at a time, and the report
    is dropped on return, so an audit never holds two POVMs' elements at
    once.  ``corrupt`` overwrites an entry of M_1 as it is yielded, before
    any check; M_perp is built from the window and the references, so it
    does not see the corruption.
    """
    elements = oracle.povm_elements(povm)
    if corrupt:
        elements = _corrupt_first(elements)
    report = oracle.povm_validity_bruteforce(povm, elements)
    ok = report["passed"]
    min_eig = report["min_eigenvalue"]
    # eigvalsh's rounding noise near zero differs with the BLAS thread count
    min_eig = 0.0 if abs(min_eig) <= 1e-12 else min_eig
    return ok, (
        f"min_eig={min_eig:.3e} "
        f"residual={report['completeness_residual']:.3e} {'ok' if ok else 'FAIL'}"
    )


def _corrupt_first(elements):
    """``elements`` with one entry of M_1 overwritten as it is yielded."""
    m1 = next(elements)
    m1[0, -1] = -m1[0, -1] - 0.5
    yield m1
    del m1
    yield from elements


def cmd_validate(args) -> int:
    lines = [f"# relbc {__version__} validate"]
    failures = 0
    for family in measurement.FAMILIES:
        # the POVMs run and attack measure; grid and carriers come from the caches
        ctx = protocol.ProtocolContext(protocol.CommitConfig(
            n_channels=1,
            amp1=make_amplitude("rectangular", 12.0, 1.0),
            amp2=make_amplitude("rectangular", 10.0, 1.0),
            t_open=10.0,
            povm_family=family,
        ))
        for T in (0.1, 1.0, 10.0):
            ok, line = _audit_povm(ctx.povm(T), args.inject_corruption)
            failures += not ok
            lines.append(f"povm family={family} T={T}: {line}")
    for shape in ("rectangular", "truncated-gaussian", "raised-cosine"):
        amp = make_amplitude(shape, 10.0, 1.0)
        for T in (0.1, 1.0, 10.0):
            g = grid_for_amplitudes([amp], T=T)
            p_kernel = window.detect_prob(window.build_window(g, T), sample(amp, g))
            p_time = oracle.detect_prob_time_domain(amp, T)
            rel = abs(p_kernel - p_time) / max(p_time, 1e-30)
            ok = rel < 1e-6
            failures += not ok
            lines.append(
                f"oracle shape={shape} T={T}: kernel={p_kernel:.9f} "
                f"time={p_time:.9f} rel={rel:.2e} {'ok' if ok else 'FAIL'}"
            )
    for T in (0.5, 2.0, 20.0):
        amp = make_amplitude("rectangular", 10.0, 1.0)
        g = grid_for_amplitudes([amp], T=T)
        p_kernel = window.detect_prob(window.build_window(g, T), sample(amp, g))
        p_closed = oracle.detect_prob_flat_closed_form(1.0, T)
        ok = abs(p_kernel - p_closed) < 1e-8
        failures += not ok
        lines.append(
            f"closed-form T={T}: kernel={p_kernel:.12f} closed={p_closed:.12f} "
            f"{'ok' if ok else 'FAIL'}"
        )
    lines.append(f"failures: {failures}")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def _count(text: str) -> int:
    """``--runs`` and ``--seed``: a non-negative integer; anything else is a
    usage error."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="relbc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("sweep", cmd_sweep, "detection-probability sweep over (shape, delta, T)"),
        ("run", cmd_run, "Monte Carlo protocol runs"),
        ("attack", cmd_attack, "cheating-strategy study"),
        ("validate", cmd_validate, "POVM validity and oracle agreement audit"),
    ):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(func=fn)
        # only the options each subcommand reads, but --seed on all of them,
        # so that one argv form can drive every subcommand
        if name != "validate":
            p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--seed", type=_count, default=0, help="master RNG seed")
        p.add_argument("--out", help="output path (default: stdout)")
        if name in ("sweep", "run"):
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "run":
            p.add_argument("--runs", type=_count, default=1)
        if name == "validate":
            p.add_argument("--inject-corruption", action="store_true",
                           help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        # the config is read in _load_config, so this is the output failing
        where = "stdout" if exc.filename is None else exc.filename
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
