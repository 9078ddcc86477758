"""Command-line front end.

One subcommand per stage plus the end-to-end runners.  A stage subcommand
runs the pipeline's own stage function and prints the pipeline's lines for
that stage, then the stage's info:

    marker    resolve the marker scales and sanity-check one instance
    tile      run the tiling suite on sampled instances
    phi       run the signal checks and the image-width estimate
    widim     calibrate the width estimator on cube grids
    fmap      build and verify a sampled block map
    pipeline  full chain; writes report.json and the CSV tables
    products  the finite-product experiment at shrinking budgets
    verify    full chain, console lines only
    report    re-render a previously written report.json

Exit codes: 0 all checks pass, 1 a check failed or a structural invariant
broke mid-run, 2 the configuration was rejected.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, default_config, load_config
from .dynsys import ConfigurationError
from .pipeline import (
    PipelineError,
    report_lines,
    run_pipeline,
    run_products,
    run_stage,
    stage_lines,
    write_artifacts,
    write_report,
)
from .widim import CellSpace, min_multiplicity


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meandimlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("marker", "resolve marker scales and sanity-check one instance"),
        ("tile", "run the tiling suite on sampled instances"),
        ("phi", "run the signal checks and the image-width estimate"),
        ("widim", "calibrate the width estimator on cube grids"),
        ("fmap", "build and verify a sampled block map"),
        ("pipeline", "run the full chain and write report artifacts"),
        ("products", "run the finite-product experiment"),
        ("verify", "run the full chain, console output only"),
        ("report", "re-render a written report.json"),
    ):
        p = sub.add_parser(name, help=desc)
        if name != "report":
            p.add_argument("--config", metavar="PATH", help="experiment config JSON")
            p.add_argument("--seed", type=int, default=None, help="override the seed")
        if name not in ("marker", "phi", "fmap", "verify"):
            p.add_argument("--out", metavar="DIR", default=None, help="output directory")
        if name == "widim":
            p.add_argument(
                "--mode",
                choices=("exact", "greedy"),
                default="greedy",
                help="cover search mode of the width computation",
            )
            p.add_argument("--eps", type=float, default=0.9)
            p.add_argument("--cells", type=int, default=10)
            p.add_argument("--dim-max", type=int, default=3)
        if name == "products":
            p.add_argument("--count", type=int, default=2, help="number of factors (1..4)")
    return parser


def _config_for(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "out", None) is not None:
        config = replace(config, out_dir=args.out)
    return config


def _emit(lines) -> None:
    for line in lines:
        print(line)


def _write(out_dir, docs: dict, tables: dict) -> None:
    written = write_artifacts(out_dir, docs, tables)
    print(f"wrote {', '.join(written)} to {out_dir}/")


_STAGE_OF = {"marker": "marker", "tile": "tiling", "phi": "phi", "fmap": "fmap"}


def _cmd_stage(args) -> int:
    config = _config_for(args)
    stage = run_stage(config, _STAGE_OF[args.command])
    _emit(stage_lines(stage.to_json()))
    _emit(f"{key} = {value}" for key, value in stage.info.items())
    if config.out_dir:
        _write(config.out_dir, {}, stage.tables)
    return 0 if all(c.passed for c in stage.checks) else 1


def _cmd_widim(args) -> int:
    config = _config_for(args)
    rows = []
    for dim in range(1, args.dim_max + 1):
        space = CellSpace.cube_grid(dim, args.cells)
        res = min_multiplicity(space, args.eps, mode=args.mode, seed=config.seed)
        rows.append((dim, res.widim_upper, res.certified_lower, res.flag))
        lower = "-" if res.certified_lower is None else str(res.certified_lower)
        notes = [args.mode]
        if args.mode == "exact":
            notes.append(f"{res.nodes} nodes")
        if res.flag:
            notes.append(res.flag)
        print(
            f"[-1,1]^{dim} grid {args.cells}: widim_upper = {res.widim_upper}, "
            f"certified_lower = {lower} ({', '.join(notes)})"
        )
    if config.out_dir:
        header = ["dim", "widim_upper", "certified_lower", "flag"]
        _write(config.out_dir, {}, {"widim": (header, rows)})
    return 0


def _cmd_run(args) -> int:
    config = _config_for(args)
    report = run_pipeline(config)
    _emit(report.lines())
    if args.command == "pipeline":
        out_dir = config.out_dir or "out"
        written = write_report(report, out_dir)
        print(f"wrote {', '.join(written)} to {out_dir}/")
    return 0 if report.passed else 1


def _cmd_products(args) -> int:
    config = _config_for(args)
    report = run_products(config, args.count)
    _emit(report.lines())
    if config.out_dir:
        _write(config.out_dir, {"products": report.to_json()}, report.tables)
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    where = args.out or "out"
    path = Path(where)
    if path.is_dir():
        path = path / "report.json"
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"no report at {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"report is not valid JSON: {exc}") from exc
    _emit(report_lines(doc))
    print(f"generated at {doc.get('generated_at')}")
    return 0 if doc.get("passed") else 1


_COMMANDS = {
    "marker": _cmd_stage,
    "tile": _cmd_stage,
    "phi": _cmd_stage,
    "widim": _cmd_widim,
    "fmap": _cmd_stage,
    "pipeline": _cmd_run,
    "products": _cmd_products,
    "verify": _cmd_run,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"lemma failure at {exc.stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
