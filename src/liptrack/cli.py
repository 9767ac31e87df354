"""Command-line entry point: train, sweep, bounds, biasvar, emit-plot-data.

Exit codes: 0 success, 1 configuration error (the message names the
offending key or path), 2 runtime failure.  Standard output stays
machine-readable (the `bounds` subcommand prints exactly one JSON
object); progress and diagnostics go to the error stream.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .bounds import ProbeSet, build_report
from .ensembles import resolve_xprime, sweep_biasvar, write_biasvar_csv
from .harness import (ExperimentConfig, PLOT_KINDS, SWEEP_AXES, apply_overrides, apply_profile,
                      build_data, cell_net, emit_plot_data, read_records_jsonl, run_sweep,
                      train_cell, write_failures, write_run_dir)
from .models import load_checkpoint, save_checkpoint
from .training import DivergenceError, check_batch_size


class ConfigError(Exception):
    """User-facing configuration problem; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _json_or_text(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_override(item: str):
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    return key, _json_or_text(raw)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _effective_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            d = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON ({err})")
    else:
        d = ExperimentConfig().to_dict()
    if getattr(args, "profile", None):
        try:
            apply_profile(d, args.profile)
        except KeyError as err:
            raise ConfigError(str(err.args[0]))
    overrides = dict(_parse_override(s) for s in (getattr(args, "set", None) or []))
    try:
        apply_overrides(d, overrides)
        return ExperimentConfig.from_dict(d)
    except KeyError as err:
        raise ConfigError(str(err.args[0]))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad config value: {err}")


def _load_data_ref(ref: str):
    """Resolve a --data reference: 'synthetic', a CSV file/dir, or a CIFAR dir."""
    cfg = ExperimentConfig()
    if ref != "synthetic":
        path = Path(ref)
        if not path.exists():
            raise ConfigError(f"data reference not found: {path}")
        kind = "cifar10" if path.is_dir() and (path / "data_batch_1.bin").exists() else "mnist1d"
        cfg.dataset.update(kind=kind, path=path)
    return build_data(cfg)


def _training_data(cfg: ExperimentConfig):
    """The config's data, with the batch size checked before any run dir exists."""
    data = build_data(cfg)
    try:
        check_batch_size(cfg.batch_size, data.train_x.shape[0])
    except ValueError as err:
        raise ConfigError(str(err))
    return data


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_train(args) -> int:
    cfg = _effective_config(args)
    if cfg.max_epochs < 1:  # the trace and checkpoint describe the last trained epoch
        raise ConfigError(f"train needs max_epochs >= 1, got {cfg.max_epochs}")
    data = _training_data(cfg)
    run_dir = write_run_dir(cfg, args.out, {"subcommand": "train"})
    seed = cfg.seeds[0]
    net = cell_net(cfg, data, seed)
    _log(f"training {cfg.family} width={cfg.width} seed={seed} -> {run_dir}")
    trace = train_cell(cfg, net, data, seed)
    trace.write_jsonl(run_dir / "trace.jsonl")
    save_checkpoint(net, run_dir / "checkpoint.json", seed, trace.final.epoch)
    _log(f"stopped after epoch {trace.final.epoch} ({trace.stop_reason}), "
         f"grad_norm={trace.final.grad_norm:.3g}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _effective_config(args)
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {args.axis!r}; expected one of {SWEEP_AXES}")
    _log(f"sweep axis={args.axis} -> {args.out}")
    records, summary, failures = run_sweep(cfg, args.axis, args.out)
    _log(f"wrote {len(records)} records, {len(summary)} summary rows, "
         f"{len(failures)} failures")
    return 0


def _cmd_bounds(args) -> int:
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    net, meta = load_checkpoint(ckpt_path)
    data = _load_data_ref(args.data)
    probe = None
    if args.probe:
        probe = ProbeSet(data.train.inputs, data.test.inputs, args.pairs_per_lambda,
                         args.probe_seed)
    report = build_report(net, data.train.inputs,
                          {"arch": meta["arch"], "seed": meta["seed"], "epoch": meta["epoch"]},
                          probe=probe, softmax_composed=args.softmax)
    print(json.dumps(report))
    return 0


def _cmd_biasvar(args) -> int:
    cfg = _effective_config(args)
    data = _training_data(cfg)
    try:
        resolve_xprime(args.xprime, data.test.inputs)
    except ValueError as err:
        raise ConfigError(str(err))
    run_dir = write_run_dir(cfg, args.out, {"subcommand": "biasvar"})
    _log(f"bias-variance sweep over widths {cfg.widths} -> {run_dir}")
    rows, failures = sweep_biasvar(cfg, data, args.xprime)
    write_biasvar_csv(rows, run_dir / "biasvar.csv")
    write_failures(failures, run_dir)
    _log(f"wrote {len(rows)} rows, {len(failures)} failures")
    return 0


def _read_rows(path: Path):
    if path.suffix == ".jsonl":
        return read_records_jsonl(path)
    with open(path, newline="") as fh:
        return [{k: _json_or_text(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _cmd_emit_plot_data(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise ConfigError(f"input not found: {path}")
    rows = _read_rows(path)
    try:
        emit_plot_data(rows, args.kind, args.out, size=args.size)
    except (KeyError, ValueError) as err:
        raise ConfigError(str(err))
    _log(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--profile", help="named profile applied over the config (desk|paper)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted-key override, e.g. dataset.label_noise=0.2")
    p.add_argument("--out", default="runs", help="output directory for run folders")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="liptrack",
                     description="Train small ReLU nets and track Lipschitz bounds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="single training run; writes trace + checkpoint")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="size x seed sweep along one axis")
    _add_config_flags(p)
    p.add_argument("--axis", default="width", help="width|depth|samples|noise")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="Lipschitz report for a checkpoint (JSON on stdout)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="'synthetic', an MNIST1D CSV file/dir, or a CIFAR-10 dir")
    p.add_argument("--probe", action="store_true", help="include the convex-combination probe set")
    p.add_argument("--pairs-per-lambda", type=_nonnegative_int, default=10000)
    p.add_argument("--probe-seed", type=int, default=0)
    p.add_argument("--softmax", action="store_true",
                   help="compose the lower estimates with a softmax layer")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("biasvar", help="per-width bias-variance study; writes CSV")
    _add_config_flags(p)
    p.add_argument("--xprime", default="zero",
                   help="'zero' or 'test_point:<i>' reference point for the bounds")
    p.set_defaults(func=_cmd_biasvar)

    p = sub.add_parser("emit-plot-data", help="turn run outputs into plot-ready CSV")
    p.add_argument("--input", required=True, help="summary.csv, records.jsonl, or biasvar.csv")
    p.add_argument("--kind", required=True, help="|".join(PLOT_KINDS))
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=float, default=None,
                   help="size filter for bounds-vs-epoch")
    p.set_defaults(func=_cmd_emit_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as err:
        _log(f"config error: {err}")
        return 1
    except DivergenceError as err:
        _log(f"run failed: {err}")
        return 2
    except Exception as err:  # runtime contract: any other failure exits 2
        _log(f"run failed: {type(err).__name__}: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
