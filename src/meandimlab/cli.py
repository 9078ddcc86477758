"""Command-line front end.

One subcommand per stage plus the end-to-end runners:

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
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, default_config, load_config, resolve
from .dynsys import ConfigurationError, sample_points
from .fibre import FMapConstruction, build_fmap, check_fiber_bound, check_nerve_transfer, verify_fiber_bound
from .marker import check_coverage, check_separation, gap_histogram, marker_sequence, support_window_for
from .pipeline import (
    PipelineError,
    StarMap,
    _clustered_space,
    _counts,
    band_suite,
    hurewicz_report,
    phi_suite,
    run_pipeline,
    run_products,
    tiling_suite,
    write_report,
)
from .signal import SignalParams
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
        if name not in ("marker", "fmap", "verify"):
            p.add_argument("--out", metavar="DIR", default=None, help="output directory")
        if name in ("phi", "widim"):
            p.add_argument(
                "--mode",
                choices=("exact", "greedy"),
                default="greedy",
                help="cover search mode of the width computation",
            )
        if name == "products":
            p.add_argument("--count", type=int, default=2, help="number of factors (1..4)")
        if name == "widim":
            p.add_argument("--eps", type=float, default=0.9)
            p.add_argument("--cells", type=int, default=10)
            p.add_argument("--dim-max", type=int, default=3)
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


def _cmd_marker(args) -> int:
    config = _config_for(args)
    res = resolve(config)
    mspec = res.mspec
    x = sample_points(config.system, 1, config.seed)[0]
    lo, hi = support_window_for(mspec, -4 * mspec.M1, 4 * mspec.M1)
    seq = marker_sequence(mspec, x, lo, hi)
    ok_sep, wit_sep = check_separation(seq)
    ok_cov, wit_cov = check_coverage(seq)
    print(f"M = {mspec.M}, M1 = {mspec.M1}, arc radius = {mspec.arc_radius}")
    print(f"[{'PASS' if ok_sep else 'FAIL'}] marker-separation"
          + ("" if ok_sep else f": witness {wit_sep}"))
    print(f"[{'PASS' if ok_cov else 'FAIL'}] marker-coverage"
          + ("" if ok_cov else f": witness {wit_cov}"))
    hist = gap_histogram(seq)
    for gap, count in sorted(hist.items()):
        print(f"  gap {gap}: {count}")
    return 0 if ok_sep and ok_cov else 1


def _cmd_tile(args) -> int:
    config = _config_for(args)
    res = resolve(config)
    counts = _counts(config.sample_count)
    suites, t0 = tiling_suite(
        res.mspec, res.tparams, counts["tile_samples"], seed=config.seed
    )
    results = [s.result() for s in suites.values()]
    _emit(r.line() for r in results)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "tiling.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["label", "lo", "hi"])
            for n, a, b in zip(t0.labels, t0.lo, t0.hi):
                w.writerow([int(n), float(a), float(b)])
        print(f"wrote {out / 'tiling.csv'}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_phi(args) -> int:
    config = _config_for(args)
    res = resolve(config)
    counts = _counts(config.sample_count)
    suites, sep_res, est = phi_suite(
        res.mspec,
        res.tparams,
        res.sparams,
        counts["signal_samples"],
        counts["n_signal"],
        eps=config.eps,
        seed=config.seed + 1,
        mode=args.mode,
    )
    results = [s.result() for s in suites.values()] + [sep_res]
    _emit(r.line() for r in results)
    print(f"free fraction max = {est['free_fraction_max']:.6g}")
    print(f"image width estimate at eps={config.eps}: {est['z_width']['value']:.6g}")
    if config.out_dir:
        from .signal import FactorImage, _phi_profile, factor_context

        x = sample_points(config.system, 1, config.seed + 1)[0]
        ctx = factor_context(
            x, res.mspec, res.tparams, res.sparams, (0, counts["n_signal"] - 1)
        )
        fimg = FactorImage(window=ctx.window, phi_seq=_phi_profile(ctx, res.sparams))
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "phi_trace.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "phi", "g"])
            w.writerows(fimg.rows())
        print(f"wrote {out / 'phi_trace.csv'}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_widim(args) -> int:
    config = _config_for(args)
    rows = []
    for dim in range(1, args.dim_max + 1):
        space = CellSpace.cube_grid(dim, args.cells)
        res = min_multiplicity(space, args.eps, mode=args.mode, seed=config.seed)
        rows.append((dim, res.widim_upper, res.certified_lower, res.flag))
        lower = "-" if res.certified_lower is None else str(res.certified_lower)
        print(
            f"[-1,1]^{dim} grid {args.cells}: widim_upper = {res.widim_upper}, "
            f"certified_lower = {lower} ({args.mode}{', ' + res.flag if res.flag else ''})"
        )
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "widim.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dim", "widim_upper", "certified_lower", "flag"])
            w.writerows(rows)
        print(f"wrote {out / 'widim.csv'}")
    return 0


def _cmd_fmap(args) -> int:
    config = _config_for(args)
    res = resolve(config)
    counts = _counts(config.sample_count)
    space = _clustered_space(
        config.system,
        counts["fmap_bases"],
        res.numbers.n_horizon,
        config.eps,
        config.seed + 2,
    )
    fmap = build_fmap(
        space,
        config.eps,
        res.numbers.m,
        construction=FMapConstruction.SEARCHED_PL,
        budget=64,
        seed=config.seed + 2,
        horizon=res.numbers.n_horizon,
    )
    rep = verify_fiber_bound(fmap, space, config.eps, probe_count=40, seed=config.seed + 2)
    checks = (check_fiber_bound(rep), check_nerve_transfer(fmap))
    print(
        f"atoms = {space.n_atoms}, vertices = {fmap.nerve.n_vertices}, "
        f"nerve dim = {fmap.nerve.dimension}, bound = {fmap.bound:.6g}"
    )
    _emit(c.line() for c in checks)
    return 0 if all(c.passed for c in checks) else 1


def _cmd_pipeline(args) -> int:
    config = _config_for(args)
    report = run_pipeline(config)
    _emit(report.lines())
    out_dir = config.out_dir or "out"
    written = write_report(report, out_dir)
    print(f"wrote {', '.join(written)} to {out_dir}/")
    return 0 if report.passed else 1


def _cmd_products(args) -> int:
    config = _config_for(args)
    report = run_products(config, args.count)
    _emit(report.lines())
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "products.json", "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / "factors.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "eps", "delta", "n_window", "bound_term", "M", "M1", "m", "delta_prime"])
            for f in report.factors:
                w.writerow(
                    [f.k, f.eps, f.delta, f.n_window, f.bound_term,
                     f.params["M"], f.params["M1"], f.params["m"], f.params["delta_prime"]]
                )
        print(f"wrote products.json, factors.csv to {out}/")
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    config = _config_for(args)
    report = run_pipeline(config)
    _emit(report.lines())
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
    for stage in doc.get("stages", ()):
        for c in stage.get("checks", ()):
            tag = "PASS" if c.get("passed") else "FAIL"
            print(f"{stage['name']:<12}[{tag}] {c['id']}: {c.get('detail', '')}")
    verdict = (doc.get("comparison") or {}).get("verdict")
    if verdict is not None:
        print(f"{'comparison':<12}verdict: {verdict}")
    passed = bool(doc.get("passed"))
    print(f"{'overall':<12}{'PASS' if passed else 'FAIL'}")
    print(f"generated at {doc.get('generated_at')}")
    return 0 if passed else 1


_COMMANDS = {
    "marker": _cmd_marker,
    "tile": _cmd_tile,
    "phi": _cmd_phi,
    "widim": _cmd_widim,
    "fmap": _cmd_fmap,
    "pipeline": _cmd_pipeline,
    "products": _cmd_products,
    "verify": _cmd_verify,
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
