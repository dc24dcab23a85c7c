"""Batch command-line interface.

Five subcommands: distribution, outage-curve, optimize, contour, validate.
main is the one runner: it parses the flags, builds the city, calls the
command's handler, which only computes, and emits what the handler returns.
Densities cross this boundary in UAVs per km2 and are converted to per-m2
exactly once, here, inward only: output densities are the CLI's own values.
Exit codes: 0 success, 1 validation failure, 2 bad configuration or geometry.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import subprocess
import sys
from pathlib import Path

from . import __version__
from .connectivity import (
    PlacementMode,
    ScenarioConfig,
    estimate_distribution,
    mixture_cdf,
    outage_grid,
)
from .geometry import CityModel, InvalidGeometryError, PRESETS, _preset
from .los import Placement
from .optimize import (
    HeightSearchSpec,
    grid_points,
    min_density_for_outage,
    optimize_height,
    sweep_contour,
)
from .oracle import validation_sweep

PER_KM2 = 1e-6  # one UAV per km2, expressed per m2


class ConfigError(ValueError):
    """Bad config file or inconsistent options."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors reach main as one-line ConfigErrors."""

    def error(self, message):
        raise ConfigError(message)


def _add_city_options(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("city")
    g.add_argument("--preset", choices=sorted(PRESETS), help="named city model")
    g.add_argument("--mu-s", type=float, help="mean street width, m (explicit city)")
    g.add_argument("--mu-b", type=float, help="mean block side, m (explicit city)")
    g.add_argument("--mu-h", type=float, help="mean building height, m (explicit city)")
    g.add_argument("--w-v", type=float, help="vehicle street width, m (default mu_s)")
    g.add_argument("--w-h", type=float, help="crossing street width, m (default mu_s)")
    g.add_argument("--building-h-min", type=float, help="min building height, m (default mu_h/2)")
    g.add_argument("--building-h-max", type=float, help="max building height, m (default 1.5*mu_h)")


def _add_scenario_options(p: argparse.ArgumentParser, *reads: str) -> None:
    """--r-max, --h-v and --seed, plus the flag groups named in reads: "gamma_th",
    "run" (--n-realizations, --workers), "placement" and "envelope" (the caps)."""
    # a command gets only the flags it reads, so a flag it would ignore is an error
    g = p.add_argument_group("scenario")
    g.add_argument("--r-max", type=float, default=250.0, help="max 3D link range, m")
    g.add_argument("--h-v", type=float, default=10.0, help="vehicle antenna height, m")
    g.add_argument("--seed", type=int, default=0, help="base seed of the run")
    if "gamma_th" in reads:
        g.add_argument("--gamma-th", type=float, default=0.8, help="connectivity threshold")
    if "run" in reads:
        g.add_argument("--n-realizations", type=int, default=100_000,
                       help="Monte Carlo realizations")
        g.add_argument("--workers", type=int, default=1, help="worker processes")
    if "placement" in reads:
        g.add_argument(
            "--placement",
            choices=[m.value for m in PlacementMode],
            default=PlacementMode.MIXTURE.value,
            help="vehicle placement mode",
        )
    if "envelope" in reads:
        g.add_argument("--lambda-cap", type=float, help="envelope density cap, per km2")
        g.add_argument("--d-cap", type=float, help="envelope disk radius cap, m")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("output")
    g.add_argument("--output", default="-", help="output path, or - for stdout")
    g.add_argument("--format", choices=["csv", "structured"], default="csv")
    g.add_argument("--config", help="key=value file parsed before the flags")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="uavgrid",
        description="LoS connectivity of UAV swarms over grid cities",
    )
    parser.add_argument("--version", action="version", version=f"uavgrid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    table: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("distribution", help="connectivity CDF on a gamma grid")
    p.add_argument("--lambda-uav", type=float, required=True, help="UAV density, per km2")
    p.add_argument("--h-uav", type=float, required=True, help="UAV altitude, m")
    p.add_argument("--gamma-step", type=float, default=0.01, help="gamma grid step")
    _add_city_options(p)
    _add_scenario_options(p, "run", "envelope")
    _add_output_options(p)
    table["distribution"] = p

    p = sub.add_parser("outage-curve", help="outage vs altitude at fixed density")
    p.add_argument("--lambda-uav", type=float, required=True, help="UAV density, per km2")
    p.add_argument("--h-lo", type=float, required=True, help="lowest altitude, m")
    p.add_argument("--h-hi", type=float, required=True, help="highest altitude, m")
    p.add_argument("--h-step", type=float, default=5.0, help="altitude step, m")
    _add_city_options(p)
    _add_scenario_options(p, "gamma_th", "run", "placement", "envelope")
    _add_output_options(p)
    table["outage-curve"] = p

    p = sub.add_parser("optimize", help="altitude minimizing outage")
    p.add_argument("--lambda-uav", type=float, required=True, help="UAV density, per km2")
    p.add_argument("--h-lo", type=float, required=True, help="window low edge, m")
    p.add_argument("--h-hi", type=float, required=True, help="window high edge, m")
    p.add_argument("--grid-step", type=float, default=5.0, help="coarse grid step, m")
    p.add_argument("--refine-tol", type=float, default=1.0, help="refinement tolerance, m")
    _add_city_options(p)
    # optimize_height sizes its own envelope to the search window
    _add_scenario_options(p, "gamma_th", "run", "placement")
    _add_output_options(p)
    table["optimize"] = p

    p = sub.add_parser("contour", help="outage over a density-altitude grid")
    p.add_argument("--lambda-lo", type=float, required=True, help="lowest density, per km2")
    p.add_argument("--lambda-hi", type=float, required=True, help="highest density, per km2")
    p.add_argument("--lambda-step", type=float, default=1.0, help="density step, per km2")
    p.add_argument("--h-lo", type=float, required=True, help="lowest altitude, m")
    p.add_argument("--h-hi", type=float, required=True, help="highest altitude, m")
    p.add_argument("--h-step", type=float, default=5.0, help="altitude step, m")
    p.add_argument(
        "--target-outage",
        type=float,
        help="also report the smallest density meeting this outage",
    )
    _add_city_options(p)
    _add_scenario_options(p, "gamma_th", "run", "placement", "envelope")
    _add_output_options(p)
    table["contour"] = p

    p = sub.add_parser("validate", help="closed forms vs explicit building draws")
    p.add_argument("--cases", type=int, default=200, help="randomized cases")
    p.add_argument("--n-draws", type=int, default=100_000, help="city draws per case")
    p.add_argument("--max-outliers", type=int, default=2, help="tolerated cases beyond z-limit")
    p.add_argument("--z-limit", type=float, default=3.0, help="pass threshold in standard errors")
    _add_scenario_options(p)
    _add_output_options(p)
    table["validate"] = p

    return parser, table


def _config_tokens(path: str, subparser: argparse.ArgumentParser) -> list[str]:
    """One --key=value token per key=value line of a config file."""
    tokens = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in ("config", "help", "version"):
            raise ConfigError(f"{path}:{lineno}: {key!r} cannot be set from a config file")
        option = "--" + key.replace("_", "-")
        # exact names only: argparse would also take unique prefixes
        if option not in subparser._option_string_actions:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        tokens.append(f"{option}={raw.strip()}")
    return tokens


def _splice_config(argv: list[str], table: dict[str, argparse.ArgumentParser]) -> list[str]:
    """Put the --config file's tokens right after the subcommand.

    Flags typed on the command line come later, so they win over the file.
    """
    if not argv or argv[0] not in table:
        return argv
    scout = _Parser(prog=f"uavgrid {argv[0]}", add_help=False)
    scout.add_argument("--config")
    path = scout.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    return [argv[0], *_config_tokens(path, table[argv[0]]), *argv[1:]]


def _build_city(args) -> CityModel:
    explicit = [v is not None for v in (args.mu_s, args.mu_b, args.mu_h)]
    if args.preset is not None:
        if any(explicit):
            raise ConfigError("give either --preset or explicit --mu-s/--mu-b/--mu-h, not both")
        city = PRESETS[args.preset]
    elif all(explicit):
        city = _preset(args.mu_h, args.mu_b, args.mu_s)
    else:
        raise ConfigError("an explicit city needs --mu-s, --mu-b and --mu-h")
    heights = _given(h_min=args.building_h_min, h_max=args.building_h_max)
    return dataclasses.replace(city, heights=dataclasses.replace(city.heights, **heights),
                               **_given(w_v=args.w_v, w_h=args.w_h))


def _given(**flags) -> dict:
    """The flags that were given (not None), as keywords."""
    return {k: v for k, v in flags.items() if v is not None}


def _run(args) -> dict:
    """The API's run keywords: n, seed, workers, any caps (lambda_cap per m2), placement_mode."""
    run = {"n_realizations": args.n_realizations, "seed": args.seed, "workers": args.workers}
    if "lambda_cap" in args:
        lambda_cap = None if args.lambda_cap is None else args.lambda_cap * PER_KM2
        run.update(lambda_cap=lambda_cap, d_cap=args.d_cap)
    if "placement" in args:
        run["placement_mode"] = args.placement
    return run


@functools.cache
def _revision() -> str:
    """The checkout's git revision, resolved once per process; "unknown" if git fails."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, columns: list[str], rows: list[list], metadata: dict) -> None:
    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "tool": "uavgrid",
            "version": __version__,
            "revision": _revision(),
            "command": args.command,
            **metadata,
            "columns": columns,
            "rows": rows,
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)


def _cmd_distribution(args, city):
    lam = args.lambda_uav * PER_KM2
    gammas = grid_points(0.0, 1.0, args.gamma_step)
    config = ScenarioConfig(city, args.r_max, args.h_v, lam, args.h_uav, **_run(args))
    dists = estimate_distribution(config)
    mix = mixture_cdf(dists[Placement.INTERSECTION], dists[Placement.STREET], city)
    rows = [
        [
            g,
            float(dists[Placement.INTERSECTION].evaluate(g)),
            float(dists[Placement.STREET].evaluate(g)),
            float(mix.evaluate(g)),
        ]
        for g in gammas
    ]
    metadata = {"lambda_uav_per_km2": args.lambda_uav, "h_uav_m": args.h_uav}
    return ["gamma", "F_intersection", "F_street", "F_mixture"], rows, metadata, 0


def _cmd_outage_curve(args, city):
    lam = args.lambda_uav * PER_KM2
    heights = grid_points(args.h_lo, args.h_hi, args.h_step)
    values = outage_grid(
        city,
        args.r_max,
        args.h_v,
        [lam],
        heights,
        args.gamma_th,
        **_run(args),
    )[0]
    rows = [[h, float(v)] for h, v in zip(heights, values)]
    metadata = {"lambda_uav_per_km2": args.lambda_uav, "gamma_th": args.gamma_th}
    return ["h_uav_m", "outage"], rows, metadata, 0


def _cmd_optimize(args, city):
    lam = args.lambda_uav * PER_KM2
    search = HeightSearchSpec(
        h_lo=args.h_lo,
        h_hi=args.h_hi,
        grid_step=args.grid_step,
        refine_tol=args.refine_tol,
        gamma_th=args.gamma_th,
    )
    h_star, outage_star = optimize_height(
        city,
        args.r_max,
        args.h_v,
        lam,
        search,
        **_run(args),
    )
    metadata = {"lambda_uav_per_km2": args.lambda_uav, "gamma_th": args.gamma_th}
    return ["h_star_m", "outage_star"], [[h_star, outage_star]], metadata, 0


def _cmd_contour(args, city):
    lambdas_km2 = grid_points(args.lambda_lo, args.lambda_hi, args.lambda_step)
    heights = grid_points(args.h_lo, args.h_hi, args.h_step)
    if args.target_outage is not None and not 0.0 <= args.target_outage <= 1.0:
        raise ValueError("--target-outage must lie in [0, 1]")
    lambdas = [v * PER_KM2 for v in lambdas_km2]
    grid = sweep_contour(
        city,
        args.r_max,
        args.h_v,
        lambdas,
        heights,
        args.gamma_th,
        **_run(args),
    )
    rows = [
        [lam_km2, h, float(grid.outage[i, j])]
        for i, lam_km2 in enumerate(lambdas_km2)
        for j, h in enumerate(heights)
    ]
    metadata = {
        "gamma_th": args.gamma_th,
        "lambda_axis_per_km2": lambdas_km2,
        "height_axis_m": heights,
    }
    if args.target_outage is not None:
        best = min_density_for_outage(grid, args.target_outage)
        if best is None:
            metadata.update(min_density_per_km2=None, h_star_m=None)
            note = f"no density in the grid meets outage <= {args.target_outage}"
        else:
            lam_min, h_star = best
            # the density as the lambda_per_km2 column prints it, not converted back
            lam_km2 = lambdas_km2[lambdas.index(lam_min)]
            metadata.update(min_density_per_km2=lam_km2, h_star_m=h_star)
            note = (f"min density {lam_km2:g} per km2 at h = {h_star:g} m "
                    f"for outage <= {args.target_outage}")
        print(note, file=sys.stderr)
    return ["lambda_per_km2", "h_uav_m", "outage"], rows, metadata, 0


def _cmd_validate(args, city):
    if args.max_outliers < 0:
        raise ConfigError("--max-outliers cannot be negative")
    results = validation_sweep(
        cases=args.cases,
        n=args.n_draws,
        seed=args.seed,
        r_max=args.r_max,
        h_v=args.h_v,
        z_limit=args.z_limit,
    )
    rows = [
        [r.case_id, r.d, r.phi, r.placement.value, r.p_analytic, r.p_oracle, r.se, r.passed]
        for r in results
    ]
    outliers = sum(1 for r in results if not r.passed)
    print(
        f"{outliers} of {args.cases} cases beyond {args.z_limit} se "
        f"(allowed: {args.max_outliers})",
        file=sys.stderr,
    )
    return (
        ["case_id", "d_m", "phi_rad", "placement", "p_analytic", "p_oracle", "se", "pass"],
        rows,
        {
            "cases": args.cases,
            "n_draws": args.n_draws,
            "z_limit": args.z_limit,
            "outliers": outliers,
            "max_outliers": args.max_outliers,
        },
        0 if outliers <= args.max_outliers else 1,
    )


# Each handler only computes: it takes the parsed flags and the city (None for
# validate) and returns (columns, rows, metadata, exit status) for main to emit.
_COMMANDS = {
    "distribution": _cmd_distribution,
    "outage-curve": _cmd_outage_curve,
    "optimize": _cmd_optimize,
    "contour": _cmd_contour,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, table = build_parser()
    try:
        args = parser.parse_args(_splice_config(argv, table))
        city = _build_city(args) if "preset" in args else None
        columns, rows, metadata, status = _COMMANDS[args.command](args, city)
        # the run's provenance first: the seed, and n for a Monte Carlo command
        shared = {key: getattr(args, key) for key in ("seed", "n_realizations") if key in args}
        _emit(args, columns, rows, {**shared, **metadata})
        return status
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    except (ConfigError, InvalidGeometryError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # a run too large to allocate is bad input, not a validation failure
        print(f"error: {str(e) or 'the run does not fit in memory'}", file=sys.stderr)
        return 2
