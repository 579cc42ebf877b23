"""Command-line entry point.

Subcommands: check, moments, variance, simulate, estimate, test, mc, region.
JSON is the canonical output; CSV is used for trajectories and grids. Exit
codes: 0 success, 2 usage/configuration error, 3 degenerate data,
4 hypothesis violation, 5 pathological parameter set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__, asymptotics, harness
from . import estimate as est
from . import fourth_order, model, numerics, second_order
from .errors import (ConfigurationError, DegenerateDataError, HypothesisError,
                     PathologicalParamsError, RcarError)
from .simulate import (DEFAULT_BURN_IN, GENERATOR_ID, ingest,
                       simulate as run_simulation, write_csv, write_rows)

EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_HYPOTHESIS = 4
EXIT_PATHOLOGICAL = 5


def _default_seed() -> int:
    try:
        return int(os.environ.get("RCAR_SEED", "0"))
    except ValueError as exc:
        raise ConfigurationError(f"RCAR_SEED: {exc}") from None


def _provenance(params: model.ModelParams | None, seed=None, **settings) -> dict:
    block = {
        "version": __version__,
        "generator": GENERATOR_ID,
        "settings": settings,
    }
    if params is not None:
        block["params"] = params.to_dict()
    if seed is not None:
        block["seed"] = seed
    return block


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_rows(header, rows, out: str | None) -> None:
    fh = open(out, "w", newline="", encoding="utf-8") if out else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out:
            fh.close()


def _params_from_args(args) -> model.ModelParams:
    """Resolve parameters: run-file values first, CLI flags override."""
    values: dict[str, str] = {}
    if getattr(args, "params_file", None):
        file_values = model.load_run_file(args.params_file)
        unknown = set(file_values) - set(model.PARAM_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown keys in {args.params_file}: {', '.join(sorted(unknown))}"
            )
        values.update(file_values)
    if args.theta is not None:
        values["theta"] = repr(args.theta)
    if args.alpha is not None:
        values["alpha"] = repr(args.alpha)
    if args.eps is not None:
        spec = model.parse_noise(args.eps)
        if spec is None:
            raise ConfigurationError("eps noise cannot be 'none'")
        values["eps.family"] = spec.family.value
        values["eps.scale"] = repr(spec.scale)
    if args.eta is not None:
        spec = model.parse_noise(args.eta)
        if spec is None:
            values["eta.family"] = "none"
            values.pop("eta.scale", None)
        else:
            values["eta.family"] = spec.family.value
            values["eta.scale"] = repr(spec.scale)
    return model.params_from_mapping(values)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--eps", default=None, metavar="FAMILY:SCALE",
                        help="innovation noise, e.g. gaussian:1")
    parser.add_argument("--eta", default=None, metavar="FAMILY:SCALE",
                        help="coefficient noise, e.g. gaussian:0.2 or none")
    parser.add_argument("--params-file", default=None,
                        help="flat key=value run file; flags override")


def _add_out_flag(parser: argparse.ArgumentParser, fmt: str = "json") -> None:
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=fmt)


def _require_json(args) -> None:
    if getattr(args, "format", "json") != "json":
        raise ConfigurationError(
            "CSV output is restricted to grids and trajectories; this "
            "subcommand emits JSON"
        )


def cmd_check(args) -> int:
    _require_json(args)
    params = _params_from_args(args)
    report = model.check_hypotheses(params, mc_draws=args.mc_draws, seed=args.seed)
    payload = report.to_dict()
    payload["provenance"] = _provenance(params, seed=args.seed,
                                        mc_draws=args.mc_draws)
    _emit_json(payload, args.out)
    return 0


def cmd_moments(args) -> int:
    _require_json(args)
    params = _params_from_args(args)
    so = second_order.build_second_order(params)
    payload = so.to_dict()
    payload["acvf"] = second_order.acvf(so, args.hmax).to_dict()
    if args.order == 4:
        fo = fourth_order.build_fourth_order(params, so)
        payload.update(fo.to_dict())
    payload["provenance"] = _provenance(params, order=args.order, hmax=args.hmax)
    _emit_json(payload, args.out)
    return 0


def cmd_variance(args) -> int:
    _require_json(args)
    params = _params_from_args(args)
    so = second_order.build_second_order(params)
    fo = fourth_order.build_fourth_order(params, so)
    lim = asymptotics.limits(params, so)
    stack = asymptotics.sigma_psi(params, so, fo)
    payload = {
        "theta_star": lim.theta_star,
        "vartheta_star": lim.vartheta_star,
        "gamma": lim.gamma,
        "sigma2_star": lim.sigma2_star,
        "kappa2": stack.kappa2,
        "omega2": stack.omega2,
        "Sigma": stack.Sigma.tolist(),
        "Psi": stack.Psi.tolist(),
        "psi": stack.psi,
        "psi0": stack.psi0,
        "provenance": _provenance(params),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    traj = run_simulation(params, args.n, args.seed, args.burn_in)
    if args.format == "json":
        _emit_json({
            "t": list(range(traj.n + 1)),
            "x": traj.x.tolist(),
            "provenance": _provenance(params, seed=args.seed,
                                      n=args.n, burn_in=traj.burn_in),
        }, args.out)
    elif args.out:
        write_csv(traj, args.out)
    else:
        write_rows(sys.stdout, traj.x)
    return 0


def _run_estimation(args) -> est.EstimationReport:
    traj = ingest(args.infile)
    return est.correlation_test(
        traj, level=args.level, source=args.theta_source,
        eps_family=model.NoiseFamily(args.eps_family),
        eta_family=model.NoiseFamily(args.eta_family),
    )


def cmd_estimate(args) -> int:
    _require_json(args)
    report = _run_estimation(args)
    payload = report.to_dict()
    payload["provenance"] = _provenance(None, infile=args.infile,
                                        level=args.level,
                                        theta_source=args.theta_source)
    _emit_json(payload, args.out)
    return 0


def cmd_test(args) -> int:
    _require_json(args)
    report = _run_estimation(args)
    payload = {k: getattr(report, k) for k in
               ("n", "statistic", "p_value", "reject", "level",
                "gamma_tilde", "psi0_hat", "theta_hat_source")}
    payload["provenance"] = _provenance(None, infile=args.infile,
                                        level=args.level,
                                        theta_source=args.theta_source)
    _emit_json(payload, args.out)
    return 0


_MC_KEYS = set(model.PARAM_KEYS) | {
    "n", "replicates", "level", "master_seed", "burn_in", "experiment",
    "alpha_grid", "mu_key", "theta_source", "workers",
}


def cmd_mc(args) -> int:
    _require_json(args)
    values = model.load_run_file(args.config) if args.config else {}
    unknown = set(values) - _MC_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown keys in {args.config}: {', '.join(sorted(unknown))}"
        )
    params = model.params_from_mapping(values)
    experiment = args.experiment or values.get("experiment")
    if not experiment:
        raise ConfigurationError("no experiment given (flag or config key)")

    def _get(key, cast, default):
        return cast(values[key]) if key in values else default

    cfg = harness.MCConfig(
        params=params,
        n=_get("n", int, 1000),
        replicates=_get("replicates", int, 1000),
        master_seed=(args.seed if args.seed is not None
                     else _get("master_seed", int, _default_seed())),
        experiment=experiment,
        level=_get("level", float, 0.05),
        burn_in=_get("burn_in", int, DEFAULT_BURN_IN),
        alpha_grid=tuple(float(v) for v in values["alpha_grid"].split(","))
        if "alpha_grid" in values else (),
        mu_key=tuple(int(v) for v in values["mu_key"].split(","))
        if "mu_key" in values else None,
        theta_source=values.get("theta_source", "tilde"),
        workers=args.workers,
    )
    report = harness.run_experiment(cfg)
    _emit_json(report.to_dict(include_replicates=args.keep_replicates), args.out)
    return 0


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ConfigurationError(f"bad range {text!r}, expected lo:hi:step") from exc
    if step <= 0 or hi < lo:
        raise ConfigurationError(f"bad range {text!r}")
    return np.arange(lo, hi + step / 2, step)


def cmd_region(args) -> int:
    eps = model.parse_noise(args.eps)
    eta = model.parse_noise(args.eta)
    if eps is None:
        raise ConfigurationError("eps noise cannot be 'none'")
    header = ["theta", "alpha", "rho_M", "rho_H"]
    rows = []
    for theta in _parse_range(args.theta_range):
        for alpha in _parse_range(args.alpha_range):
            try:
                params = model.ModelParams(theta, alpha, eps, eta)
            except PathologicalParamsError:
                rows.append([f"{theta:.17g}", f"{alpha:.17g}", "nan", "nan"])
                continue
            rho_m = numerics.spectral_radius(second_order.m_matrix(params))
            rho_h = numerics.spectral_radius(fourth_order.h_matrix(params))
            rows.append([f"{theta:.17g}", f"{alpha:.17g}",
                         f"{rho_m:.17g}", f"{rho_h:.17g}"])
    if args.format == "json":
        _emit_json({"columns": header,
                    "rows": [[float(v) for v in row] for row in rows]},
                   args.out)
    else:
        _emit_rows(header, rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcar",
        description="Random-coefficient AR(1) with correlated coefficients: "
                    "moments, simulation, estimation and the correlation test.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="hypothesis report for a parameter set")
    _add_param_flags(p)
    p.add_argument("--mc-draws", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=_default_seed())
    _add_out_flag(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("moments", help="second/fourth-order moment tables")
    _add_param_flags(p)
    p.add_argument("--order", type=int, choices=(2, 4), default=2)
    p.add_argument("--hmax", type=int, default=10)
    _add_out_flag(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("variance", help="asymptotic variances and covariances")
    _add_param_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("simulate", help="simulate a trajectory to CSV")
    _add_param_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    _add_out_flag(p, fmt="csv")
    p.set_defaults(func=cmd_simulate)

    for name, func, help_text in (
        ("estimate", cmd_estimate, "full estimation report for a series"),
        ("test", cmd_test, "correlation test for a series"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--level", type=float, default=0.05)
        p.add_argument("--theta-source", choices=("tilde", "hat"),
                       default="tilde")
        p.add_argument("--eps-family", default="gaussian",
                       help="assumed innovation family for the variance plug-in")
        p.add_argument("--eta-family", default="gaussian",
                       help="assumed coefficient-noise family for the plug-in")
        _add_out_flag(p)
        p.set_defaults(func=func)

    p = sub.add_parser("mc", help="Monte Carlo experiment from a run file")
    p.add_argument("--experiment", choices=harness.EXPERIMENTS, default=None)
    p.add_argument("--config", default=None, help="flat key=value run file")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed override (else config/master_seed or RCAR_SEED)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--keep-replicates", action="store_true",
                   help="include per-replicate values in the report")
    _add_out_flag(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("region", help="stationarity-condition grid to CSV")
    p.add_argument("--theta-range", required=True, metavar="LO:HI:STEP")
    p.add_argument("--alpha-range", required=True, metavar="LO:HI:STEP")
    p.add_argument("--eps", required=True, metavar="FAMILY:SCALE")
    p.add_argument("--eta", required=True, metavar="FAMILY:SCALE")
    _add_out_flag(p, fmt="csv")
    p.set_defaults(func=cmd_region)

    return parser


def _join_range_flags(argv):
    """Glue `--x-range -1:1:0.05` into `--x-range=-1:1:0.05` so argparse does
    not mistake the leading-dash value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--theta-range", "--alpha-range") and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and ":" in argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        # the parser's seed defaults read RCAR_SEED, which may be malformed
        args = build_parser().parse_args(_join_range_flags(list(argv)))
        return args.func(args)
    except ConfigurationError as exc:
        print(f"rcar: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateDataError as exc:
        print(f"rcar: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except HypothesisError as exc:
        print(f"rcar: hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except PathologicalParamsError as exc:
        print(f"rcar: pathological parameters: {exc}", file=sys.stderr)
        return EXIT_PATHOLOGICAL
    except (RcarError, ValueError) as exc:
        print(f"rcar: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RcarError) else EXIT_USAGE
    except OSError as exc:
        print(f"rcar: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
