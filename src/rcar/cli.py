"""Command-line entry point.

Subcommands: check, moments, variance, simulate, estimate, test, mc, region.
JSON is the canonical output; CSV is used for trajectories and grids. Each
command returns its result, a JSON payload or a CSV writer, and one emitter,
`_emit`, writes it to `--out` or stdout. The exit code is 0 on success (a
reader that closes stdout early is not an error), else the one `EXIT_TABLE`
gives for the error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__, asymptotics, harness
from . import estimate as est
from . import fourth_order, model, second_order
from .errors import (ConfigurationError, DegenerateDataError, HypothesisError,
                     PathologicalParamsError, RcarError)
from .series_csv import ingest, write_csv, write_rows
from .simulate import DEFAULT_BURN_IN, GENERATOR_ID, simulate_blocks as run_simulation

# `write_csv` has no caller here, since `rcar simulate` writes its time
# blocks as they come; it is re-exported because the benchmark's tracer
# wraps `cli.write_csv` (tests/test_bench_names.py pins the name)
__all__ = ["main", "write_csv"]

#: the exit policy: an error takes the exit code and stderr label of the
#: first row whose class it is an instance of
EXIT_TABLE = (
    (ConfigurationError, 2, "configuration error"),
    (DegenerateDataError, 3, "degenerate data"),
    (HypothesisError, 4, "hypothesis violation"),
    (PathologicalParamsError, 5, "pathological parameters"),
    (RcarError, 1, "error"),
    (ValueError, 2, "error"),
    (OSError, 1, "i/o error"),
    (MemoryError, 1, "out of memory"),
)


def _seed(value) -> int:
    """value as a seed: an integer in 0..2**64 - 1. The library reduces any
    other integer mod 2**64, so it would alias a seed of that range."""
    seed = int(value)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("a seed is an integer in 0..2**64 - 1")
    return seed


def _default_seed() -> int:
    return model.cast_value("RCAR_SEED", os.environ.get("RCAR_SEED", "0"), _seed)


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


def _null_non_finite(obj):
    """obj with every nan or infinite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(v) for v in obj]
    return obj


@contextlib.contextmanager
def _replacing(out: str):
    """A binary stream whose bytes replace the file `out` once the block ends.

    They go to a temporary sibling file, which `os.replace` moves over
    `out` on success and which is removed on any error, so a failed run
    leaves no partial file and an existing `out` as it was. A path that
    exists and is not a regular file (a device, a pipe) is written in place.
    """
    target = os.path.realpath(out)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(out, "wb") as fh:
            yield fh
        return
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "wb")
    except OSError as exc:
        exc.filename = out  # name the output, not its temporary sibling
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _emit(result, out: str | None) -> None:
    """Write a command's result to the file `out`, or to stdout if None.

    The result is a JSON payload (a dict, written as strict JSON: an
    undefined or infinite value is null) or a function that writes a CSV
    table to a binary stream. Stdout's bytes go to `sys.stdout.buffer`; a
    text stdout without one (as `contextlib.redirect_stdout` sets) gets
    them decoded. A reader that closes stdout early ends the output quietly.
    """
    if isinstance(result, dict):
        text = json.dumps(_null_non_finite(result), indent=2, allow_nan=False)
        result = lambda fh: fh.write(text.encode() + b"\n")
    if out:
        with _replacing(out) as fh:
            result(fh)
    else:
        try:
            sys.stdout.flush()
            stream = getattr(sys.stdout, "buffer", None)
            if stream is None:
                stream = io.BytesIO()
                result(stream)
                sys.stdout.write(stream.getvalue().decode())
            else:
                result(stream)
                stream.flush()
        except BrokenPipeError:
            # stdout is dead; the interpreter's last flush must not report it
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _parse_eps(text: str) -> model.NoiseSpec:
    """The `--eps` noise spec; the innovations cannot be 'none'."""
    spec = model.cast_value("--eps", text, model.parse_noise)
    if spec is None:
        raise ConfigurationError("eps noise cannot be 'none'")
    return spec


def _params_from_args(args) -> model.ModelParams:
    """Resolve parameters: run-file values first, CLI flags override."""
    values: dict[str, str] = {}
    if args.params_file:
        values.update(model.load_run_file(args.params_file))
    if args.theta is not None:
        values["theta"] = repr(args.theta)
    if args.alpha is not None:
        values["alpha"] = repr(args.alpha)
    if args.eps is not None:
        spec = _parse_eps(args.eps)
        values["eps.family"] = spec.family.value
        values["eps.scale"] = repr(spec.scale)
    if args.eta is not None:
        spec = model.cast_value("--eta", args.eta, model.parse_noise)
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


def _add_out_flag(parser: argparse.ArgumentParser, csv: bool = False) -> None:
    """`--out` and `--format`; CSV is the default where the command has it."""
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"),
                        default="csv" if csv else "json")
    parser.set_defaults(has_csv=csv)


def cmd_check(args) -> dict:
    params = _params_from_args(args)
    payload = model.check_hypotheses(params).to_dict()
    payload["provenance"] = _provenance(params)
    return payload


def cmd_moments(args) -> dict:
    params = _params_from_args(args)
    so = second_order.build_second_order(params)
    lim = asymptotics.limits(params, so)
    payload = so.to_dict()
    payload["acvf"] = {"gamma": second_order.acvf(so, args.hmax).tolist(),
                       "theta_star": lim.theta_star,
                       "vartheta_star": lim.vartheta_star}
    if args.order == 4:
        fo = fourth_order.build_fourth_order(params, so)
        payload.update(fo.to_dict())
    payload["provenance"] = _provenance(params, order=args.order, hmax=args.hmax)
    return payload


def cmd_variance(args) -> dict:
    params = _params_from_args(args)
    so = second_order.build_second_order(params)
    fo = fourth_order.build_fourth_order(params, so)
    stack = asymptotics.sigma_psi(params, so, fo)
    return {**stack.to_dict(), "provenance": _provenance(params)}


def cmd_simulate(args):
    params = _params_from_args(args)
    seed = (args.env_seed if args.seed is None
            else model.cast_value("--seed", args.seed, _seed))
    path = run_simulation(params, args.n, seed, args.burn_in)
    if args.format == "csv":
        # each time block is written as it comes
        return functools.partial(write_rows,
                                 blocks=(x for x, _, _ in path.blocks))
    x, = path.collect()
    return {
        "t": list(range(path.n + 1)),
        "x": x.tolist(),
        "provenance": _provenance(params, seed=seed,
                                  n=args.n, burn_in=path.burn_in),
    }


def cmd_estimate(args) -> dict:
    # the flags are checked before the series is read
    eps_family = model.cast_value("--eps-family", args.eps_family, model.NoiseFamily)
    eta_family = model.cast_value("--eta-family", args.eta_family, model.NoiseFamily)
    level = model.cast_value("--level", args.level, est.check_level)
    payload = est.correlation_test(
        ingest(args.infile), level=level, source=args.theta_source,
        eps_family=eps_family, eta_family=eta_family).to_dict()
    payload["provenance"] = _provenance(None, infile=args.infile,
                                        level=args.level,
                                        theta_source=args.theta_source)
    return payload


def cmd_test(args) -> dict:
    """The test's fields of the `rcar estimate` report."""
    payload = cmd_estimate(args)
    keys = ("n", "statistic", "p_value", "reject", "level", "gamma_tilde",
            "psi0_hat", "theta_hat_source", "provenance")
    return {k: payload[k] for k in keys}


def _comma_list(cast):
    return lambda text: tuple(cast(v) for v in text.split(","))


# the `MCConfig` fields a run file may set, with the cast of each value;
# `MCConfig` holds the defaults of those the file leaves out
_MC_CASTS = {
    "n": int, "replicates": int, "master_seed": _seed, "level": float,
    "burn_in": int, "theta_source": str,
    "alpha_grid": _comma_list(float), "mu_key": _comma_list(int),
}
_MC_KEYS = (*model.PARAM_KEYS, *_MC_CASTS, "experiment")


def cmd_mc(args) -> dict:
    values = model.load_run_file(args.config, _MC_KEYS) if args.config else {}
    params = model.params_from_mapping(values)
    experiment = args.experiment or values.get("experiment")
    if not experiment:
        raise ConfigurationError("no experiment given (flag or config key)")

    settings = {"n": 1000, "replicates": 1000, "master_seed": args.env_seed}
    settings.update((key, model.cast_value(key, values[key], cast))
                    for key, cast in _MC_CASTS.items() if key in values)
    if args.seed is not None:
        settings["master_seed"] = model.cast_value("--seed", args.seed, _seed)
    cfg = harness.MCConfig(params=params, experiment=experiment,
                           workers=args.workers, **settings)
    report = harness.run_experiment(cfg)
    return report.to_dict(include_replicates=args.keep_replicates)


def _parse_range(flag: str, text: str) -> np.ndarray:
    """The grid lo, lo + step, ... up to hi of the flag's `lo:hi:step`."""
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError:
        lo = hi = step = math.nan
    top = model.MAX_COEFFICIENT
    if not (0 < step < math.inf and -top <= lo <= hi <= top):
        raise ConfigurationError(f"{flag} = {text}: expected lo:hi:step with "
                                 f"0 < step < inf and -{top:g} <= lo <= hi <= {top:g}")
    return np.arange(lo, hi + step / 2, step)


def cmd_region(args):
    eps = _parse_eps(args.eps)
    eta = model.cast_value("--eta", args.eta, model.parse_noise)
    theta = _parse_range("--theta-range", args.theta_range)
    alpha = _parse_range("--alpha-range", args.alpha_range)
    # every point shares the noise, and so T; (0, 0) is never pathological
    noise = model.ModelParams(0.0, 0.0, eps, eta)
    keep = ~model.two_alpha_tau2_one(alpha, noise.tau(2))
    c = second_order.cross_moments(second_order.moment_tables(noise)[0], theta)
    rho = np.full((2, len(theta), len(alpha)), np.nan)
    rho[:, :, keep] = second_order.spectral_radii(c[:, None], alpha[keep])
    header = ["theta", "alpha", "rho_M", "rho_H"]
    rows = np.stack(np.broadcast_arrays(theta[:, None], alpha, *rho),
                    axis=-1).reshape(-1, 4).tolist()
    if args.format == "json":
        return {"columns": header, "rows": rows}
    text = ",".join(header) + "\r\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g\r\n" % tuple(row) for row in rows)
    return lambda fh: fh.write(text.encode())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `rcar` parser, built on first use. Each subcommand sets `command`;
    main runs the module's `cmd_<command>`."""
    parser = argparse.ArgumentParser(
        prog="rcar",
        description="Random-coefficient AR(1) with correlated coefficients: "
                    "moments, simulation, estimation and the correlation test.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="hypothesis report for a parameter set")
    _add_param_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("moments", help="second/fourth-order moment tables")
    _add_param_flags(p)
    p.add_argument("--order", type=int, choices=(2, 4), default=2)
    p.add_argument("--hmax", type=int, default=10,
                   help="largest autocovariance lag, 0..1000 (default 10)")
    _add_out_flag(p)

    p = sub.add_parser("variance", help="asymptotic variances and covariances")
    _add_param_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("simulate", help="simulate a trajectory to CSV")
    _add_param_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="trajectory seed (default RCAR_SEED, else 0)")
    p.add_argument("--burn-in", type=int, default=None,
                   help="steps discarded before X_0, drawn from streams of "
                        "their own and doubled until the start is forgotten; "
                        "at one seed and burn-in, a path is bitwise the prefix "
                        "of every longer one (default: derived from the rate "
                        "E ln|theta_t|, or %d where it is not negative)"
                        % DEFAULT_BURN_IN)
    _add_out_flag(p, csv=True)

    for name, help_text in (
        ("estimate", "full estimation report for a series"),
        ("test", "correlation test for a series"),
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

    p = sub.add_parser("mc", help="Monte Carlo experiment from a run file")
    p.add_argument("--experiment", choices=harness.EXPERIMENTS, default=None)
    p.add_argument("--config", default=None, help="flat key=value run file")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed override (else config/master_seed or RCAR_SEED)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--keep-replicates", action="store_true",
                   help="include per-replicate values in the report")
    _add_out_flag(p)

    p = sub.add_parser("region", help="stationarity-condition grid to CSV")
    p.add_argument("--theta-range", required=True, metavar="LO:HI:STEP")
    p.add_argument("--alpha-range", required=True, metavar="LO:HI:STEP")
    p.add_argument("--eps", required=True, metavar="FAMILY:SCALE")
    p.add_argument("--eta", required=True, metavar="FAMILY:SCALE")
    _add_out_flag(p, csv=True)

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
        # RCAR_SEED is read on every call; a malformed value is an error
        # whatever the subcommand
        args = build_parser().parse_args(
            _join_range_flags(list(argv)),
            argparse.Namespace(env_seed=_default_seed()))
        if args.format == "csv" and not args.has_csv:
            raise ConfigurationError(
                "CSV output is restricted to grids and trajectories; this "
                "subcommand emits JSON")
        # looked up at call time, so a cmd_* replaced on the module is honoured
        _emit(globals()[f"cmd_{args.command}"](args), args.out)
        return 0
    except tuple(cls for cls, _, _ in EXIT_TABLE) as exc:
        code, label = next((code, label) for cls, code, label in EXIT_TABLE
                           if isinstance(exc, cls))
        print(f"rcar: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
