"""Command-line entry point.

Subcommands: train-source, adapt, sweep, memory, replay. Every config key
has a flag of the same name with dashes (nested keys join their path);
flags override the JSON config, which overrides the defaults. Exit codes:
0 success, 2 config error (including a file that cannot be read,
written or parsed, and a --model that does not match the config), 3
numerical failure.

The default output root is ./runs, overridable via the GMMADAPT_RUNS
environment variable.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import RunConfig, config_keys, load_config
from .errors import ConfigError, GmmAdaptError, MalformedFile, NumericalFailure
from .metrics import MemoryModelInputs, csv_text
from .runner import (
    MEMORY_COLUMNS,
    build_task,
    prepare_setup,
    replay,
    resolve_output_dir,
    run_adapt,
    run_memory,
    run_sweep,
    train_source_model,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _flag(path: tuple[str, ...]) -> str:
    return "--" + "-".join(path).replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    for path, typ in config_keys():
        if typ is bool:
            parser.add_argument(_flag(path), action="store_true", default=None)
        else:
            parser.add_argument(_flag(path), type=typ)


def _collect_overrides(args: argparse.Namespace) -> dict:
    """Nested config dict of the flags given; an absent flag is None."""
    overrides: dict = {}
    for path, _ in config_keys():
        value = getattr(args, "_".join(path))
        if value is None:
            continue
        node = overrides
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return overrides


def _load(args: argparse.Namespace) -> RunConfig:
    return load_config(args.config, _collect_overrides(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmadapt",
        description="Streaming-GMM pseudo-labeling and online model adaptation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train-source", help="pre-train the source model")
    _add_config_flags(p_train)
    p_train.add_argument("--out", help="checkpoint path (default <root>/source/model.ckpt)")

    p_adapt = sub.add_parser("adapt", help="run online adaptation on the target stream")
    _add_config_flags(p_adapt)
    p_adapt.add_argument("--out", help="run directory (default <root>/adapt)")
    p_adapt.add_argument("--model", help="source checkpoint to adapt; trains one if omitted")

    p_sweep = sub.add_parser("sweep", help="hyperparameter sweep over repeated runs")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--out", help="sweep directory (default <root>/sweep)")
    p_sweep.add_argument("--parameter", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 16,32,64")
    p_sweep.add_argument("--repeats", type=int, default=1)
    p_sweep.add_argument("--compensate-n-init", action="store_true",
                         help="scale n_init to keep n_init*n_b constant (batch-size sweeps)")

    p_mem = sub.add_parser("memory", help="closed-form memory comparison table")
    for name, default in vars(MemoryModelInputs()).items():
        p_mem.add_argument(_flag((name,)), type=type(default), default=default)
    p_mem.add_argument("--classes", default="1:345",
                       help="inclusive class-count span lo:hi, or a single count")
    p_mem.add_argument("--out", help="CSV path (default stdout only)")

    p_replay = sub.add_parser("replay", help="re-score a stored run directory")
    p_replay.add_argument("run_dir")
    p_replay.add_argument("--out", help="file for the recomputed summary (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except NumericalFailure as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, MalformedFile) as err:
        print(f"file error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (GmmAdaptError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "train-source":
        cfg = _load(args)
        out = Path(args.out) if args.out else resolve_output_dir(None, "source") / "model.ckpt"
        out.parent.mkdir(parents=True, exist_ok=True)
        source, _ = build_task(cfg)
        model, holdout_acc, history = train_source_model(cfg, source)
        model.save(out)
        print(f"source model saved to {out}")
        print(f"holdout accuracy: {holdout_acc:.4f}  final train loss: {history[-1]:.4f}")
        return EXIT_OK

    if args.command == "adapt":
        cfg = _load(args)
        out_dir = resolve_output_dir(args.out, "adapt")
        summary = run_adapt(cfg, out_dir, setup=prepare_setup(cfg, args.model))
        primary = summary["full_run"]["primary_metric"]
        print(f"run directory: {out_dir}")
        print(f"primary metric ({cfg.shift.kind}): {primary:.4f}")
        return EXIT_OK

    if args.command == "sweep":
        cfg = _load(args)
        out_dir = resolve_output_dir(args.out, "sweep")
        values = _parse_values(args.values)
        rows = run_sweep(cfg, args.parameter, values, args.repeats, out_dir,
                         compensate_n_init=args.compensate_n_init)
        print(f"sweep directory: {out_dir}")
        for row in rows:
            print(f"{row['parameter']}={row['value']}: "
                  f"mean={row['mean_primary_metric']:.4f} (n={row['n_runs']})")
        return EXIT_OK

    if args.command == "memory":
        lo, hi = _parse_span(args.classes)
        inputs = MemoryModelInputs(*(getattr(args, name) for name in vars(MemoryModelInputs())))
        text = csv_text(run_memory(inputs, lo, hi), MEMORY_COLUMNS)
        if args.out:
            Path(args.out).write_text(text)
        print(text, end="")
        return EXIT_OK

    if args.command == "replay":
        summary = replay(Path(args.run_dir))
        text = json.dumps(summary, indent=2) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        print(text, end="")
        return EXIT_OK

    raise GmmAdaptError(f"unhandled command {args.command!r}")


def _parse_values(raw: str) -> list[float]:
    values = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        num = float(item)
        values.append(int(num) if num.is_integer() else num)
    if not values:
        raise ConfigError("no sweep values given")
    return values


def _parse_span(raw: str) -> tuple[int, int]:
    try:
        if ":" in raw:
            lo, hi = raw.split(":")
            return int(lo), int(hi)
        n = int(raw)
        return n, n
    except ValueError as err:
        raise ConfigError(f"bad class span {raw!r}: {err}") from err

