"""Batch command-line interface.

Five subcommands: distribution, outage-curve, optimize, contour, validate,
each declared once in _COMMANDS.  main is the one runner: it builds the parser
of the command it runs (every command's name and help line, that command's
flags alone), parses the flags, builds the city, calls the command's handler,
which only computes, and emits what the handler returns.
Densities cross this boundary in UAVs per km2 and are converted to per-m2
exactly once, here, inward only: output densities are the CLI's own values.
Exit codes: 0 success, 1 validation failure, 2 bad configuration or geometry.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .connectivity import (
    PlacementMode,
    check_probability,
    estimate_distribution,
    mixture_cdf,
    outage_grid,
)
from .geometry import CityModel, InvalidGeometryError, PRESETS, _preset
from .optimize import (
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


def _flag(option: str, type, help: str | None, **kwargs) -> tuple[str, dict]:
    """One flag: its option string and its add_argument keywords."""
    return option, {"type": type, "help": help, **kwargs}


# The flags commands share, each declared once.  A part is (group heading,
# flags), and a command gets only the parts it reads, so a flag it would ignore
# is an error.  "scenario" (--r-max, --h-v, --seed) shares its heading with the
# parts gamma_th, run (--n-realizations, --workers), placement and envelope
# (the caps).
_PARTS = {
    "city": ("city", (
        _flag("--preset", str, "named city model", choices=sorted(PRESETS)),
        _flag("--mu-s", float, "mean street width, m (explicit city)"),
        _flag("--mu-b", float, "mean block side, m (explicit city)"),
        _flag("--mu-h", float, "mean building height, m (explicit city)"),
        _flag("--w-v", float, "vehicle street width, m (default mu_s)"),
        _flag("--w-h", float, "crossing street width, m (default mu_s)"),
        _flag("--building-h-min", float, "min building height, m (default mu_h/2)"),
        _flag("--building-h-max", float, "max building height, m (default 1.5*mu_h)"),
    )),
    "scenario": ("scenario", (
        _flag("--r-max", float, "max 3D link range, m", default=250.0),
        _flag("--h-v", float, "vehicle antenna height, m", default=10.0),
        _flag("--seed", int, "base seed of the run", default=0),
    )),
    "gamma_th": ("scenario", (_flag("--gamma-th", float, "connectivity threshold", default=0.8),)),
    "run": ("scenario", (
        _flag("--n-realizations", int, "Monte Carlo realizations", default=100_000),
        _flag("--workers", int, "worker threads", default=1),
    )),
    "placement": ("scenario", (
        _flag("--placement", str, "vehicle placement mode",
              choices=[m.value for m in PlacementMode], default=PlacementMode.MIXTURE.value),
    )),
    "envelope": ("scenario", (
        _flag("--lambda-cap", float, "envelope density cap, per km2"),
        _flag("--d-cap", float, "envelope disk radius cap, m"),
    )),
    "output": ("output", (
        _flag("--output", str, "output path, or - for stdout", default="-"),
        _flag("--format", str, "csv rows, or one JSON document with the run's metadata",
              choices=["csv", "structured"], default="csv"),
        _flag("--config", str, "key=value file parsed before the flags"),
    )),
}
_LAMBDA_UAV = _flag("--lambda-uav", float, "UAV density, per km2", required=True)
_H_LO = _flag("--h-lo", float, "lowest altitude, m", required=True)
_H_HI = _flag("--h-hi", float, "highest altitude, m", required=True)
_H_STEP = _flag("--h-step", float, "altitude step, m", default=5.0)


def build_parser(command: str | None) -> tuple[_Parser, _Parser | None]:
    """The parser of every command name and help line, and command's subparser.

    Only that subparser gets its flags: a run never reaches the other four, so
    they stay empty.  It is None when command names no command.
    """
    parser = _Parser(
        prog="uavgrid",
        description="LoS connectivity of UAV swarms over grid cities",
    )
    parser.add_argument("--version", action="version", version=f"uavgrid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name, help=entry.help) for name, entry in _COMMANDS.items()}
    if command not in subparsers:
        return parser, None
    p, entry, groups = subparsers[command], _COMMANDS[command], {}
    for option, kwargs in entry.flags:
        p.add_argument(option, **kwargs)
    for part in entry.parts.split():
        heading, flags = _PARTS[part]
        if heading not in groups:
            groups[heading] = p.add_argument_group(heading)
        for option, kwargs in flags:
            groups[heading].add_argument(option, **kwargs)
    return parser, p


def _config_tokens(path: str, subparser: argparse.ArgumentParser) -> list[str]:
    """One --key=value token per key=value line of a config file, read as UTF-8 (BOM ignored)."""
    tokens = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
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


def _splice_config(argv: list[str], subparser: _Parser | None) -> list[str]:
    """Put the --config file's tokens right after the subcommand.

    subparser is argv[0]'s, the command's; the file's keys are checked against
    it.  Flags typed on the command line come later, so they win over the file.
    """
    if subparser is None:
        return argv
    scout = _Parser(prog=f"uavgrid {argv[0]}", add_help=False)
    scout.add_argument("--config")
    path = scout.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    return [argv[0], *_config_tokens(path, subparser), *argv[1:]]


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


def _run(args, city) -> dict:
    """The API keywords of the shared flags: city, r_max, h_v, gamma_th where the command
    reads it, the run (n, seed, workers), any caps (lambda_cap per m2) and placement_mode."""
    run = {"city": city, "r_max": args.r_max, "h_v": args.h_v,
           "n_realizations": args.n_realizations, "seed": args.seed, "workers": args.workers}
    if "gamma_th" in args:
        run["gamma_th"] = args.gamma_th
    if "lambda_cap" in args:
        lambda_cap = None if args.lambda_cap is None else args.lambda_cap * PER_KM2
        run.update(lambda_cap=lambda_cap, d_cap=args.d_cap)
    if "placement" in args:
        run["placement_mode"] = args.placement
    return run


@functools.cache
def _revision() -> str:
    """The checkout's git revision, resolved once per process.

    "unknown" if git fails, or if the repository git finds does not track this
    file: git walks up from the package, so an untracked copy inside another
    repository (a virtualenv in its tree, say) would report that repository.
    """
    # imported here, as json is in _emit: a CSV run loads neither
    import subprocess

    here = Path(__file__)
    try:
        for cmd in (["git", "ls-files", "--error-unmatch", "--", here.name],
                    ["git", "describe", "--always", "--dirty"]):
            out = subprocess.run(cmd, cwd=here.parent, capture_output=True, text=True,
                                 timeout=10)
            if out.returncode != 0:
                return "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _fmt(value) -> str:
    # a numpy scalar prints as the Python number it holds, not as np.float64(0.5)
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(columns: list[str], rows: list[list]) -> str:
    """The CSV text: the header columns, then one line per row, every cell as _fmt writes it.

    Cells are formatted a column at a time.  A column of exact Python floats
    (what tolist() and the grid axes hold) is written by repr, _fmt's rule for
    a float, with no call per cell; any other column goes through _fmt.
    """
    cells = [map(repr, col) if {*map(type, col)} == {float} else map(_fmt, col)
             for col in zip(*rows)]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def _emit(args, columns: list[str], rows: list[list], metadata: dict) -> None:
    if args.format == "csv":
        text = _csv(columns, rows)
    else:
        import json

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
    gammas = grid_points(0.0, 1.0, args.gamma_step)
    counts = estimate_distribution(lambda_values=[args.lambda_uav * PER_KM2],
                                   height_values=[args.h_uav], gamma_values=gammas,
                                   **_run(args, city))
    f_int, f_street = counts[:, :, 0, 0] / args.n_realizations
    columns = [f.tolist() for f in (f_int, f_street, mixture_cdf(f_int, f_street, city))]
    rows = [list(row) for row in zip(gammas, *columns)]
    metadata = {"lambda_uav_per_km2": args.lambda_uav, "h_uav_m": args.h_uav}
    return ["gamma", "F_intersection", "F_street", "F_mixture"], rows, metadata, 0


def _cmd_outage_curve(args, city):
    lam = args.lambda_uav * PER_KM2
    heights = grid_points(args.h_lo, args.h_hi, args.h_step)
    values = outage_grid(lambda_values=[lam], height_values=heights, **_run(args, city))[0]
    rows = [[h, float(v)] for h, v in zip(heights, values)]
    metadata = {"lambda_uav_per_km2": args.lambda_uav, "gamma_th": args.gamma_th}
    return ["h_uav_m", "outage"], rows, metadata, 0


def _cmd_optimize(args, city):
    lam = args.lambda_uav * PER_KM2
    h_star, outage_star = optimize_height(lambda_uav=lam, h_lo=args.h_lo, h_hi=args.h_hi,
                                          grid_step=args.grid_step, refine_tol=args.refine_tol,
                                          **_run(args, city))
    metadata = {"lambda_uav_per_km2": args.lambda_uav, "gamma_th": args.gamma_th}
    return ["h_star_m", "outage_star"], [[h_star, outage_star]], metadata, 0


def _cmd_contour(args, city):
    lambdas_km2 = grid_points(args.lambda_lo, args.lambda_hi, args.lambda_step)
    heights = grid_points(args.h_lo, args.h_hi, args.h_step)
    if args.target_outage is not None:
        check_probability("--target-outage", args.target_outage)
    outage = sweep_contour(lambda_axis=[v * PER_KM2 for v in lambdas_km2], height_axis=heights,
                           **_run(args, city))
    rows = [[lam_km2, h, v] for lam_km2, row in zip(lambdas_km2, outage.tolist())
            for h, v in zip(heights, row)]
    metadata = {
        "gamma_th": args.gamma_th,
        "lambda_axis_per_km2": lambdas_km2,
        "height_axis_m": heights,
    }
    if args.target_outage is not None:
        # the km2 labels: the density comes back as the lambda_per_km2 column prints it
        best = min_density_for_outage(lambdas_km2, heights, outage, args.target_outage)
        if best is None:
            metadata.update(min_density_per_km2=None, h_star_m=None)
            note = f"no density in the grid meets outage <= {args.target_outage}"
        else:
            metadata.update(min_density_per_km2=best[0], h_star_m=best[1])
            # every digit the CSV prints; an integral value drops its ".0"
            lam_km2, h_star = (_fmt(v).removesuffix(".0") for v in best)
            note = (f"min density {lam_km2} per km2 at h = {h_star} m "
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


# One subcommand: its help line, its own flags, the _PARTS it reads and its
# handler.  The handler only computes: it takes the parsed flags and the city
# (None without the city part) and returns (columns, rows, metadata, exit
# status) for main to emit.
_Command = collections.namedtuple("_Command", "help flags parts handler")
_COMMANDS = {
    "distribution": _Command("connectivity CDF on a gamma grid", (
        _LAMBDA_UAV,
        _flag("--h-uav", float, "UAV altitude, m", required=True),
        _flag("--gamma-step", float, "gamma grid step", default=0.01),
    ), "city scenario run envelope output", _cmd_distribution),
    "outage-curve": _Command("outage vs altitude at fixed density", (
        _LAMBDA_UAV, _H_LO, _H_HI, _H_STEP,
    ), "city scenario gamma_th run placement envelope output", _cmd_outage_curve),
    # no envelope part: optimize_height sizes its own envelope to the search window
    "optimize": _Command("altitude minimizing outage", (
        _LAMBDA_UAV,
        _flag("--h-lo", float, "window low edge, m", required=True),
        _flag("--h-hi", float, "window high edge, m", required=True),
        _flag("--grid-step", float, "coarse grid step, m", default=5.0),
        _flag("--refine-tol", float, "refinement tolerance, m", default=1.0),
    ), "city scenario gamma_th run placement output", _cmd_optimize),
    "contour": _Command("outage over a density-altitude grid", (
        _flag("--lambda-lo", float, "lowest density, per km2", required=True),
        _flag("--lambda-hi", float, "highest density, per km2", required=True),
        _flag("--lambda-step", float, "density step, per km2", default=1.0),
        _H_LO, _H_HI, _H_STEP,
        _flag("--target-outage", float, "also report the smallest density meeting this outage"),
    ), "city scenario gamma_th run placement envelope output", _cmd_contour),
    "validate": _Command("closed forms vs explicit building draws", (
        _flag("--cases", int, "randomized cases", default=200),
        _flag("--n-draws", int, "city draws per case", default=100_000),
        _flag("--max-outliers", int, "tolerated cases beyond z-limit", default=2),
        _flag("--z-limit", float, "pass threshold in standard errors", default=3.0),
    ), "scenario output", _cmd_validate),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a run reaches a command only as argv[0]: the top level's own flags, -h and --version, exit
    parser, subparser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(_splice_config(argv, subparser))
        city = _build_city(args) if "preset" in args else None
        columns, rows, metadata, status = _COMMANDS[args.command].handler(args, city)
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
