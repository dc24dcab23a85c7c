import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uavgrid.cli as cli
import uavgrid.connectivity as connectivity
from uavgrid.cli import main
from uavgrid.connectivity import MAX_WORKERS, estimate_distribution, mixture_cdf
from uavgrid.geometry import PRESETS, HeightDistribution
from uavgrid.optimize import grid_points, optimize_height


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def _cdf(city, lambda_uav, gammas, n_realizations, seed):
    """Each placement's connectivity CDF at the gammas, at h_uav 100 m, r_max 250 m, h_v 10 m."""
    counts = estimate_distribution(city, 250.0, 10.0, [lambda_uav], [100.0], gammas,
                                   n_realizations, seed)
    return counts[:, :, 0, 0] / n_realizations


def test_distribution_header_and_pipeline_agreement(capsys):
    code, out, err = run_cli(
        ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "100",
         "--n-realizations", "1500", "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma,F_intersection,F_street,F_mixture"
    assert len(lines) == 102
    assert lines[1].split(",")[0] == "0.0"
    assert lines[-1].split(",")[0] == "1.0"
    assert float(lines[-1].split(",")[3]) == 1.0
    # the per-km2 flag and the per-m2 api hit the same numbers
    (f_int,), (f_street,) = _cdf(PRESETS["urban"], 20 * 1e-6, [0.8], 1500, 3)
    mix = mixture_cdf(f_int, f_street, PRESETS["urban"])
    row08 = next(l for l in lines[1:] if l.startswith("0.8,"))
    assert float(row08.split(",")[3]) == mix


def test_distribution_rows_are_one_scalar_evaluate_per_gamma(capsys):
    """Each CDF is counted once over the whole gamma grid, bit for bit as one gamma at a time."""
    city = PRESETS["urban"]
    for seed, lam, step in ((1, 20.0, 0.01), (2, 5.0, 0.003), (3, 60.0, 0.25)):
        code, out, _ = run_cli(
            ["distribution", "--preset", "urban", "--lambda-uav", str(lam), "--h-uav", "100",
             "--n-realizations", "700", "--seed", str(seed), "--gamma-step", str(step)], capsys)
        assert code == 0

        def row(g):
            f = _cdf(city, lam * 1e-6, [g], 700, seed)[:, 0]
            return ",".join(repr(float(v)) for v in [g, *f, mixture_cdf(*f, city)])

        assert out.strip().split("\n")[1:] == [row(g) for g in grid_points(0.0, 1.0, step)]


def test_output_file_and_byte_reproducibility(tmp_path, capsys):
    f1, f2, f3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    base = ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "100",
            "--n-realizations", "1200", "--seed", "5"]
    assert main(base + ["--output", str(f1)]) == 0
    assert main(base + ["--output", str(f2)]) == 0
    assert main(base + ["--output", str(f3), "--workers", "2"]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_bytes() == f3.read_bytes()


def test_outage_curve_matches_distribution_at_shared_height(capsys):
    code, out, _ = run_cli(
        ["outage-curve", "--preset", "urban", "--lambda-uav", "20",
         "--h-lo", "100", "--h-hi", "110", "--h-step", "5",
         "--n-realizations", "1500", "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "h_uav_m,outage"
    assert [l.split(",")[0] for l in lines[1:]] == ["100.0", "105.0", "110.0"]
    code2, out2, _ = run_cli(
        ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "100",
         "--n-realizations", "1500", "--seed", "3"], capsys)
    assert code2 == 0
    row08 = next(l for l in out2.strip().split("\n")[1:] if l.startswith("0.8,"))
    # same seed and same envelope caps: the two commands agree exactly
    assert float(row08.split(",")[3]) == float(lines[1].split(",")[1])
    code3, out3, _ = run_cli(
        ["outage-curve", "--preset", "urban", "--lambda-uav", "20", "--h-lo", "100",
         "--h-hi", "110", "--h-step", "10", "--n-realizations", "1500", "--seed", "3",
         "--placement", "street-only"], capsys)
    assert code3 == 0
    # a single placement's curve is that placement's column, not the mixture
    street = float(out3.strip().split("\n")[1].split(",")[1])
    assert street == float(row08.split(",")[2]) != float(row08.split(",")[3])


def test_outage_curve_at_the_cap_matches_the_contour_row(capsys):
    # the curve's one density is its envelope cap, where only the last rank
    # decides; the contour's 20/km2 row is its cap too, but it counts both
    # densities by crossing mark.  Both draw the same envelope.
    grid = ["--preset", "urban", "--h-lo", "60", "--h-hi", "200", "--h-step", "20",
            "--n-realizations", "3000", "--seed", "4"]
    code, curve, _ = run_cli(["outage-curve", *grid, "--lambda-uav", "20"], capsys)
    assert code == 0
    code2, contour, _ = run_cli(["contour", *grid, "--lambda-lo", "10", "--lambda-hi", "20",
                                 "--lambda-step", "10"], capsys)
    assert code2 == 0
    rows = [l.split(",", 1)[1] for l in contour.strip().split("\n")[1:] if l.startswith("20.0,")]
    assert curve.strip().split("\n")[1:] == rows and len(rows) == 8


def test_zero_density_is_outage_one_in_every_grid_command(capsys):
    grid = ["--preset", "urban", "--h-lo", "100", "--h-hi", "150", "--h-step", "50",
            "--n-realizations", "200", "--seed", "4"]
    code, zero_only, _ = run_cli(["contour", *grid, "--lambda-lo", "0", "--lambda-hi", "0"], capsys)
    assert code == 0
    code2, out2, _ = run_cli(["contour", *grid, "--lambda-lo", "0", "--lambda-hi", "10",
                              "--lambda-step", "10"], capsys)
    assert code2 == 0
    zero_rows = [l for l in out2.strip().split("\n")[1:] if l.startswith("0.0,")]
    assert zero_only.strip().split("\n")[1:] == zero_rows and len(zero_rows) == 2
    code3, curve, _ = run_cli(["outage-curve", *grid, "--lambda-uav", "0"], capsys)
    assert code3 == 0
    assert [l.split(",")[1] for l in curve.strip().split("\n")[1:]] == \
        [l.split(",")[2] for l in zero_rows]


ZERO_DENSITY = {
    "distribution": ["--lambda-uav", "0", "--h-uav", "100"],
    "outage-curve": ["--lambda-uav", "0", "--h-lo", "100", "--h-hi", "100"],
    "contour": ["--lambda-lo", "0", "--lambda-hi", "0", "--h-lo", "100", "--h-hi", "100"],
}


@pytest.mark.parametrize("command", sorted(ZERO_DENSITY))
def test_zero_density_checks_given_caps_in_every_command(command, capsys):
    args = [command, "--preset", "urban", "--n-realizations", "50", *ZERO_DENSITY[command]]
    code, plain, _ = run_cli(args, capsys)
    assert code == 0
    # caps that cover the 233 m disk change nothing; the density cap defaults to 0
    for caps in (["--d-cap", "300"], ["--lambda-cap", "10"],
                 ["--lambda-cap", "10", "--d-cap", "300"]):
        assert run_cli(args + caps, capsys)[:2] == (0, plain)
    # a 50 m disk cap does not cover it, whatever the density
    code, out, err = run_cli(args + ["--d-cap", "50"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# One scenario per Monte Carlo command, at a positive density.
SCENARIO = {
    "distribution": ["--lambda-uav", "10", "--h-uav", "50"],
    "outage-curve": ["--lambda-uav", "10", "--h-lo", "50", "--h-hi", "60"],
    "optimize": ["--lambda-uav", "10", "--h-lo", "50", "--h-hi", "60"],
    "contour": ["--lambda-lo", "10", "--lambda-hi", "10", "--h-lo", "50", "--h-hi", "60"],
}


@pytest.mark.parametrize("r_max", ["inf", "0"])
@pytest.mark.parametrize("command", sorted(SCENARIO))
def test_zero_density_checks_r_max_in_every_command(command, r_max, capsys):
    """Every command checks its scenario by one rule, even when nothing is drawn."""
    zero = {**ZERO_DENSITY, "optimize": ["--lambda-uav", "0", "--h-lo", "100", "--h-hi", "150"]}
    code, out, err = run_cli([command, "--preset", "urban", "--n-realizations", "50",
                              *zero[command], "--r-max", r_max], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, blamed",
    [(["--n-realizations", "1000000000000000"], "n_realizations"),
     # the ground range of r_max = 1e300 overflows; no cap was given, so none is to blame
     (["--r-max", "1e300"], "r_max")],
    ids=["n-realizations-over-bound", "r-max-overflows"],
)
@pytest.mark.parametrize("command", sorted(SCENARIO))
def test_bad_run_is_refused_before_drawing(command, flags, blamed, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew realizations of a refused run")

    monkeypatch.setattr(connectivity, "sample_envelope_points", no_draw)
    code, out, err = run_cli([command, "--preset", "urban", "--n-realizations", "50",
                              *SCENARIO[command], *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert blamed in err and "cap" not in err


@pytest.mark.parametrize("command", sorted(SCENARIO))
def test_workers_above_the_bound_exit_2_before_any_pool(command, capsys, no_pool):
    code, out, err = run_cli([command, "--preset", "urban", "--n-realizations", "20000",
                              *SCENARIO[command], "--workers", str(MAX_WORKERS + 1)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: need 1 <= workers <= {MAX_WORKERS}\n"


def test_contour_reports_the_grid_density_it_printed(capsys):
    """min_density_per_km2 is the lambda_per_km2 value, not 31/km2 converted to m2 and back."""
    code, out, err = run_cli(
        ["contour", "--preset", "urban", "--lambda-lo", "28", "--lambda-hi", "34", "--h-lo", "140",
         "--h-hi", "160", "--target-outage", "0.11", "--n-realizations", "3000", "--seed", "0",
         "--format", "structured"], capsys)
    assert code == 0
    assert '"min_density_per_km2": 31.0,' in out
    assert json.loads(out)["min_density_per_km2"] == 31.0
    assert err == "min density 31 per km2 at h = 160 m for outage <= 0.11\n"


def test_contour_note_prints_every_digit_of_the_grid(capsys):
    """The stderr note prints the density and height as the CSV does, not to 6 digits."""
    code, out, err = run_cli(
        ["contour", "--preset", "urban", "--lambda-lo", "30.1234567", "--lambda-hi", "40.1234567",
         "--h-lo", "100.123456789", "--h-hi", "200.123456789", "--h-step", "10",
         "--target-outage", "0.2", "--n-realizations", "2000", "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    lam, h = doc["min_density_per_km2"], doc["h_star_m"]
    # no grid value is integral, so no ".0" is dropped
    assert [lam, h] in [row[:2] for row in doc["rows"]] and not lam.is_integer()
    assert err == f"min density {lam!r} per km2 at h = {h!r} m for outage <= 0.2\n"


# distribution's radio values that its scenario rule refuses: NaN and inf in each,
# a vehicle below ground, UAVs below the vehicle or out of range, a negative density
BAD_RADIO = [[flag, value] for flag in ("--r-max", "--h-uav", "--h-v", "--lambda-uav")
             for value in ("nan", "inf")]
BAD_RADIO += [["--h-v", "-1"], ["--h-uav", "5"], ["--r-max", "40"], ["--lambda-uav", "-1"]]


@pytest.mark.parametrize("flags", BAD_RADIO, ids=["".join(f) for f in BAD_RADIO])
def test_bad_distribution_scenario_exits_2(flags, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew realizations of a refused run")

    monkeypatch.setattr(connectivity, "sample_envelope_points", no_draw)
    code, out, err = run_cli(["distribution", "--preset", "urban", "--n-realizations", "50",
                              *SCENARIO["distribution"], *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Each scenario pushed to about 1.7e8 UAVs per realization, by its density or
# by the density cap (optimize takes no caps).
DENSE = [
    ("distribution", ["--lambda-uav", "1e9"]),
    ("outage-curve", ["--lambda-uav", "1e9"]),
    ("optimize", ["--lambda-uav", "1e9"]),
    ("contour", ["--lambda-lo", "1e9", "--lambda-hi", "1e9"]),
    ("distribution", ["--lambda-cap", "1e9"]),
    ("outage-curve", ["--lambda-cap", "1e9"]),
    ("contour", ["--lambda-cap", "1e9"]),
]


@pytest.mark.parametrize("command, flags", DENSE, ids=[f"{c}{f[0]}" for c, f in DENSE])
def test_dense_envelope_is_refused_before_drawing(command, flags, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew realizations of a refused run")

    monkeypatch.setattr(connectivity, "sample_envelope_points", no_draw)
    code, out, err = run_cli([command, "--preset", "urban", "--n-realizations", "50",
                              *SCENARIO[command], *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "UAVs per realization" in err


def test_held_envelope_draw_is_refused_before_drawing(capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew realizations of a refused run")

    monkeypatch.setattr(connectivity, "sample_envelope_points", no_draw)
    # about 957 UAVs per realization, under the per-realization bound, held 20000 times
    code, out, err = run_cli(["optimize", "--preset", "urban", "--lambda-uav", "5000", "--h-lo", "50",
                              "--h-hi", "60", "--n-realizations", "20000", "--workers", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "envelope draw would hold" in err


def test_optimize_matches_api(capsys):
    code, out, _ = run_cli(
        ["optimize", "--preset", "urban", "--lambda-uav", "30",
         "--h-lo", "120", "--h-hi", "180", "--grid-step", "20",
         "--n-realizations", "1500", "--seed", "2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "h_star_m,outage_star"
    h, o = (float(v) for v in lines[1].split(","))
    assert 120.0 <= h <= 180.0 and 0.0 <= o <= 1.0
    want = optimize_height(PRESETS["urban"], 250.0, 10.0, 30 * 1e-6, 120.0, 180.0,
                           n_realizations=1500, seed=2, grid_step=20.0)
    assert (h, o) == want


def test_a_step_finer_than_the_rounding_stays_in_the_window(capsys):
    """optimize's h* and contour's heights lie in [h_lo, h_hi] at a step of 1e-11 m."""
    window = ["--h-lo", "50.00000000004", "--h-hi", "50.0000000001"]
    run = ["--preset", "urban", "--n-realizations", "300", "--seed", "1"]
    code, out, _ = run_cli(["optimize", "--lambda-uav", "30", *window, "--grid-step", "1e-11",
                            *run], capsys)
    assert code == 0
    h_star = float(out.strip().split("\n")[1].split(",")[0])
    assert 50.00000000004 <= h_star <= 50.0000000001
    code, out, _ = run_cli(["contour", "--lambda-lo", "30", "--lambda-hi", "30", *window,
                            "--h-step", "1e-11", *run], capsys)
    assert code == 0
    heights = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert heights == grid_points(50.00000000004, 50.0000000001, 1e-11) and len(heights) == 7


def test_contour_output_and_target_report(capsys):
    code, out, err = run_cli(
        ["contour", "--preset", "urban", "--lambda-lo", "10", "--lambda-hi", "20",
         "--lambda-step", "10", "--h-lo", "100", "--h-hi", "150", "--h-step", "50",
         "--n-realizations", "800", "--seed", "4", "--target-outage", "1.0"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda_per_km2,h_uav_m,outage"
    assert len(lines) == 5
    assert lines[1].startswith("10.0,100.0,")
    assert lines[2].startswith("10.0,150.0,")
    assert lines[3].startswith("20.0,100.0,")
    assert "min density 10 per km2" in err


@pytest.mark.parametrize("target", ["1.5", "nan", "-0.1"])
def test_contour_checks_target_outage_before_the_run(target, capsys, monkeypatch):
    from uavgrid import cli

    def no_run(*args, **kwargs):
        raise AssertionError("the grid ran before --target-outage was checked")

    monkeypatch.setattr(cli, "sweep_contour", no_run)
    code, out, err = run_cli(
        ["contour", "--preset", "urban", "--lambda-lo", "10", "--lambda-hi", "20",
         "--lambda-step", "10", "--h-lo", "100", "--h-hi", "150", "--h-step", "50",
         "--n-realizations", "800", "--target-outage", target], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "target-outage" in err


def test_validate_cli_pass(capsys):
    code, out, err = run_cli(["validate", "--cases", "4", "--n-draws", "3000", "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "case_id,d_m,phi_rad,placement,p_analytic,p_oracle,se,pass"
    assert len(lines) == 5
    assert "of 4 cases beyond" in err


def test_validate_cli_flags_disagreement(capsys, monkeypatch):
    import uavgrid.oracle as oracle_mod

    real = oracle_mod.empirical_los_probability

    def skewed(link, city, placement, n, rng):
        p, se = real(link, city, placement, n, rng)
        return max(0.0, p - 0.5), se

    monkeypatch.setattr(oracle_mod, "empirical_los_probability", skewed)
    code, out, err = run_cli(["validate", "--cases", "4", "--n-draws", "2000", "--seed", "3"], capsys)
    assert code == 1


def test_numpy_scalars_print_as_plain_numbers(capsys, monkeypatch):
    """A p_hat left as np.float64 makes np.float64 and np.bool_ cells; they print as numbers."""
    import uavgrid.oracle as oracle_mod

    args = ["validate", "--cases", "4", "--n-draws", "2000", "--seed", "3"]
    code, plain, _ = run_cli(args, capsys)
    real = oracle_mod.empirical_los_probability

    def numpy_scalars(link, city, placement, n, rng):
        p, se = real(link, city, placement, n, rng)
        return np.float64(p), np.float64(se)

    monkeypatch.setattr(oracle_mod, "empirical_los_probability", numpy_scalars)
    rows = oracle_mod.validation_sweep(cases=4, n=2000, seed=3)
    assert all(type(r.p_oracle) is np.float64 and type(r.passed) is np.bool_ for r in rows)
    assert run_cli(args, capsys)[:2] == (code, plain)
    assert "np." not in plain and ",true\n" in plain
    assert [cli._fmt(v) for v in (np.float64(0.5), np.True_, np.int64(7), np.float32(0.25))] == [
        "0.5", "true", "7", "0.25"]


def test_csv_columns_print_as_each_cell_would():
    """The CSV is written a column at a time, and its bytes are the per-cell _fmt rule:
    a column of exact Python floats by repr, any other column through _fmt."""
    mixed = [1, True, np.bool_(False), np.float64(0.1), np.float32(0.25), "street",
             math.nan, math.inf, -math.inf, -0.0, 1e-300, np.int64(-3), 0.5]
    floats = [0.1, 2.5, math.nan, math.inf, -math.inf, -0.0, 1e-300, 1.0, 3e20, 1e-5, 0.3,
              7.0, 1 / 3]
    numpy_floats = [np.float64(v) for v in floats]
    ints = list(range(-6, 7))
    bools = [k % 3 == 0 for k in range(13)]
    rows = [list(row) for row in zip(mixed, floats, numpy_floats, ints, bools)]
    header = ["mixed", "floats", "numpy_floats", "ints", "bools"]
    want = "".join(",".join(line) + "\n" for line in
                   [header, *([cli._fmt(v) for v in row] for row in rows)])
    assert cli._csv(header, rows) == want
    assert want.split("\n")[1:3] == ["1,0.1,0.1,-6,true", "true,2.5,2.5,-5,false"]
    # no rows: the header alone
    assert cli._csv(header, []) == ",".join(header) + "\n"


def test_a_csv_run_never_loads_json_or_subprocess():
    """Only structured output needs json, and only its revision needs subprocess."""
    # a fresh interpreter, as this test process has loaded both already
    src = str(Path(cli.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = ["--preset", "urban", "--n-realizations", "200", "--output", os.devnull]
    runs = [["contour", "--lambda-lo", "20", "--lambda-hi", "30", "--lambda-step", "5",
             "--h-lo", "100", "--h-hi", "110", "--target-outage", "0.5", *run],
            ["distribution", "--lambda-uav", "20", "--h-uav", "100", *run]]
    code = ("import sys, uavgrid.cli\n"
            f"for argv in {runs!r}:\n"
            "    print(uavgrid.cli.main(argv), 'json' in sys.modules, 'subprocess' in sys.modules)\n"
            "uavgrid.cli.main(argv + ['--format', 'structured'])\n"
            "print('json' in sys.modules, 'subprocess' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    # a structured run loads both, so the first two lines are not vacuous
    assert out.stdout.split("\n") == ["0 False False", "0 False False", "True True", ""]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# base scenario\n"
        "preset=urban\n"
        "lambda-uav=20\n"
        "h_uav=100\n"
        "n-realizations=900\n"
        "seed=11\n"
    )
    code, out, _ = run_cli(["distribution", "--config", str(cfg)], capsys)
    assert code == 0
    code2, out2, _ = run_cli(["distribution", "--config", str(cfg), "--seed", "12"], capsys)
    assert code2 == 0
    assert out != out2
    code3, out3, _ = run_cli(["distribution", "--config", str(cfg), "--seed", "11"], capsys)
    assert code3 == 0
    assert out == out3


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # h_uav is a key of distribution's parser, not of optimize's
    for argv, key in ((["distribution", "--lambda-uav", "20", "--h-uav", "100"], "no-such-option"),
                      (["optimize", "--lambda-uav", "30", "--h-lo", "50", "--h-hi", "250"], "h_uav")):
        cfg.write_text(f"{key}=100\n")
        code, _, err = run_cli(
            [*argv, "--config", str(cfg), "--preset", "urban", "--n-realizations", "100"], capsys)
        assert code == 2
        assert f"unknown option {key!r}" in err


def test_bad_geometry_exits_2(capsys):
    code, _, err = run_cli(
        ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "400",
         "--n-realizations", "100"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("h_lo, h_hi", [("100", "100"), ("150", "100"), ("100", "300")])
def test_optimize_window_refusal_states_the_rule(h_lo, h_hi, capsys):
    code, out, err = run_cli(
        ["optimize", "--preset", "urban", "--lambda-uav", "30", "--h-lo", h_lo, "--h-hi", h_hi],
        capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "h_v < h_lo < h_hi < h_v + r_max" in err
    assert len(err.strip().splitlines()) == 1


def test_grid_endpoints_run_as_given(capsys):
    """An endpoint with more than 10 decimals is the altitude or density the command scores."""
    code, out, err = run_cli(
        ["optimize", "--preset", "urban", "--lambda-uav", "30", "--h-v", "10",
         "--h-lo", "10.00000000001", "--h-hi", "100", "--n-realizations", "300"], capsys)
    assert code == 0 and err == ""
    code, out, err = run_cli(
        ["contour", "--preset", "urban", "--lambda-lo", "0.00000000001",
         "--lambda-hi", "0.00000000001", "--h-lo", "100", "--h-hi", "100",
         "--n-realizations", "300"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[1].startswith("1e-11,100.0,")


def test_preset_conflicts_with_explicit_city(capsys):
    code, _, err = run_cli(
        ["distribution", "--preset", "urban", "--mu-s", "10", "--lambda-uav", "20",
         "--h-uav", "100", "--n-realizations", "100"], capsys)
    assert code == 2


_CITY = ("city", "--preset --mu-s --mu-b --mu-h --w-v --w-h --building-h-min --building-h-max")
_OUTPUT = ("output", "--output --format --config")
# Each command's option strings by group heading, in help order: the CLI's
# flag contract, written out apart from cli._COMMANDS.
_FLAGS = {
    "distribution": (
        ("options", "-h --help --lambda-uav --h-uav --gamma-step"), _CITY,
        ("scenario", "--r-max --h-v --seed --n-realizations --workers --lambda-cap --d-cap"),
        _OUTPUT),
    "outage-curve": (
        ("options", "-h --help --lambda-uav --h-lo --h-hi --h-step"), _CITY,
        ("scenario", "--r-max --h-v --seed --gamma-th --n-realizations --workers --placement "
                     "--lambda-cap --d-cap"),
        _OUTPUT),
    "optimize": (
        ("options", "-h --help --lambda-uav --h-lo --h-hi --grid-step --refine-tol"), _CITY,
        ("scenario", "--r-max --h-v --seed --gamma-th --n-realizations --workers --placement"),
        _OUTPUT),
    "contour": (
        ("options", "-h --help --lambda-lo --lambda-hi --lambda-step --h-lo --h-hi --h-step "
                    "--target-outage"), _CITY,
        ("scenario", "--r-max --h-v --seed --gamma-th --n-realizations --workers --placement "
                     "--lambda-cap --d-cap"),
        _OUTPUT),
    "validate": (
        ("options", "-h --help --cases --n-draws --max-outliers --z-limit"),
        ("scenario", "--r-max --h-v --seed"),
        _OUTPUT),
}


@pytest.mark.parametrize("command", _FLAGS)
def test_main_builds_the_flags_of_the_command_it_runs(command, monkeypatch, capsys):
    build, built = cli.build_parser, []

    def spy(name):
        built.append(build(name))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0 and out.startswith(f"usage: uavgrid {command} [-h]")
    (parser, subparser), = built
    groups = tuple((g.title, " ".join(s for a in g._group_actions for s in a.option_strings))
                   for g in subparser._action_groups if g._group_actions)
    assert groups == _FLAGS[command]
    # every command is registered by name; the other four get no flag
    subparsers = parser._subparsers._group_actions[0].choices
    assert list(subparsers) == list(_FLAGS) and subparsers[command] is subparser
    for name, other in subparsers.items():
        if name != command:
            assert [a.option_strings for a in other._actions] == [["-h", "--help"]]


def test_top_level_help_and_bare_run(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0 and out.startswith("usage: uavgrid [-h] [--version]")
    assert all(name in out for name in _FLAGS)
    code, _, err = run_cli([], capsys)
    assert code == 2 and "required: command" in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(["distribution", "--nope", "1"], capsys)
    assert code == 2


def test_missing_required_flag_exits_2(capsys):
    code, _, _ = run_cli(["distribution", "--preset", "urban"], capsys)
    assert code == 2


def test_explicit_city_flags_reproduce_preset(capsys):
    code, out, _ = run_cli(
        ["distribution", "--mu-s", "13", "--mu-b", "45", "--mu-h", "19",
         "--lambda-uav", "20", "--h-uav", "100", "--n-realizations", "600", "--seed", "2"], capsys)
    code2, out2, _ = run_cli(
        ["distribution", "--preset", "urban",
         "--lambda-uav", "20", "--h-uav", "100", "--n-realizations", "600", "--seed", "2"], capsys)
    assert code == 0 and code2 == 0
    assert out == out2
    # overrides apply to the explicit city as to the API's
    code3, out3, _ = run_cli(
        ["distribution", "--mu-s", "13", "--mu-b", "45", "--mu-h", "19", "--w-v", "20",
         "--building-h-max", "40", "--lambda-uav", "20", "--h-uav", "100",
         "--n-realizations", "600", "--seed", "2"], capsys)
    assert code3 == 0 and out3 != out
    city = dataclasses.replace(PRESETS["urban"], w_v=20.0, heights=HeightDistribution(9.5, 40.0))
    f = _cdf(city, 20 * 1e-6, [0.8], 600, 2)[:, 0]
    row08 = next(l for l in out3.strip().split("\n")[1:] if l.startswith("0.8,"))
    assert [float(v) for v in row08.split(",")[1:]] == [*f, mixture_cdf(*f, city)]


def test_structured_format(capsys):
    args = ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "100",
            "--n-realizations", "800", "--seed", "9"]
    code, out, _ = run_cli(args + ["--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "uavgrid"
    assert doc["command"] == "distribution"
    assert doc["seed"] == 9
    assert doc["n_realizations"] == 800
    assert doc["version"]
    assert doc["revision"]
    assert doc["columns"] == ["gamma", "F_intersection", "F_street", "F_mixture"]
    assert len(doc["rows"]) == 101
    code2, out2, _ = run_cli(args, capsys)
    csv_rows = [l.split(",") for l in out2.strip().split("\n")[1:]]
    assert [float(r[3]) for r in csv_rows] == [row[3] for row in doc["rows"]]


def test_structured_revision_survives_git_timeout(monkeypatch, capsys):
    from uavgrid import cli

    calls = []

    def hung_git(cmd, **kwargs):
        calls.append(cmd)
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hung_git)
    cli._revision.cache_clear()
    args = ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "100",
            "--n-realizations", "50", "--format", "structured"]
    try:
        first = run_cli(args, capsys)
        second = run_cli(args, capsys)
    finally:
        cli._revision.cache_clear()
    for code, out, err in (first, second):
        assert code == 0
        assert json.loads(out)["revision"] == "unknown"
        assert "Traceback" not in err
    assert len(calls) == 1  # resolved once per process


def test_structured_revision_is_unknown_in_a_foreign_repository(tmp_path):
    """An untracked copy of the package inside another repository reports no revision."""
    git = shutil.which("git")
    if git is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "other"

    def in_repo(*args):
        return subprocess.run([git, "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, capture_output=True, text=True, check=True).stdout

    repo.mkdir()
    in_repo("init", "-q")
    (repo / ".gitignore").write_text(".venv/\n")
    in_repo("add", ".gitignore")
    in_repo("commit", "-q", "-m", "other")
    site = repo / ".venv"
    shutil.copytree(Path(cli.__file__).parent, site / "uavgrid", ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(site), "PYTHONDONTWRITEBYTECODE": "1"}
    code = "import uavgrid.cli; print(uavgrid.cli._revision())"

    def revision():
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=env).stdout.strip()

    assert revision() == "unknown"
    # once that repository tracks the copy, its revision is the copy's
    in_repo("add", "-f", ".venv")
    in_repo("commit", "-q", "-m", "vendor uavgrid")
    assert revision() == in_repo("describe", "--always", "--dirty").strip() != "unknown"


def test_shared_envelope_couples_cli_runs(capsys):
    """Two ranges under one point envelope: the longer range dominates."""
    common = ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "100",
              "--n-realizations", "1500", "--seed", "7", "--d-cap", "287"]
    code_a, out_a, _ = run_cli(common + ["--r-max", "300"], capsys)
    code_b, out_b, _ = run_cli(common + ["--r-max", "200"], capsys)
    assert code_a == 0 and code_b == 0
    fa = [float(l.split(",")[3]) for l in out_a.strip().split("\n")[1:]]
    fb = [float(l.split(",")[3]) for l in out_b.strip().split("\n")[1:]]
    assert all(x <= y for x, y in zip(fa, fb))


URBAN_ARGS = ["--preset", "urban", "--n-realizations", "10"]


@pytest.mark.parametrize(
    "args",
    [
        ["optimize", "--preset", "urban", "--lambda-uav", "30", "--h-lo", "50", "--h-hi", "250",
         "--n-realizations", "0"],
        ["contour", *URBAN_ARGS, "--lambda-lo", "5", "--lambda-hi", "10", "--h-lo", "50",
         "--h-hi", "100", "--seed", "-1"],
        ["distribution", *URBAN_ARGS, "--lambda-uav", "20", "--h-uav", "100",
         "--seed", str(2**64)],
        ["outage-curve", *URBAN_ARGS, "--lambda-uav", "20", "--h-lo", "50", "--h-hi", "100",
         "--workers", "0"],
        # flags a command would ignore are not registered for it
        ["optimize", *URBAN_ARGS, "--lambda-uav", "30", "--h-lo", "50", "--h-hi", "250",
         "--lambda-cap", "90"],
        ["optimize", *URBAN_ARGS, "--lambda-uav", "30", "--h-lo", "50", "--h-hi", "250",
         "--d-cap", "400"],
        ["distribution", *URBAN_ARGS, "--lambda-uav", "20", "--h-uav", "100",
         "--gamma-th", "0.3"],
        # NaN fails every ordered comparison, so each guard must be written to catch it
        ["optimize", *URBAN_ARGS, "--lambda-uav", "30", "--h-lo", "50", "--h-hi", "250",
         "--refine-tol", "nan"],
        ["distribution", *URBAN_ARGS, "--lambda-uav", "20", "--h-uav", "100", "--w-v", "nan"],
        ["distribution", *URBAN_ARGS, "--lambda-uav", "nan", "--h-uav", "100"],
        ["distribution", *URBAN_ARGS, "--lambda-uav", "20", "--h-uav", "100", "--d-cap", "nan"],
        ["optimize", *URBAN_ARGS, "--lambda-uav", "30", "--h-lo", "50", "--h-hi", "250",
         "--grid-step", "nan"],
        ["distribution", *URBAN_ARGS, "--lambda-uav", "20", "--h-uav", "100",
         "--gamma-step", "nan"],
        # a vehicle below the ground plane has no meaning, and would score certain LoS
        ["contour", *URBAN_ARGS, "--h-v", "-5", "--lambda-lo", "10", "--lambda-hi", "20",
         "--lambda-step", "10", "--h-lo", "50", "--h-hi", "100", "--h-step", "50"],
        ["optimize", *URBAN_ARGS, "--h-v", "-5", "--lambda-uav", "30", "--h-lo", "50",
         "--h-hi", "200"],
        # about 2e9 grid points: refused before any point is built
        ["optimize", "--preset", "urban", "--lambda-uav", "30", "--h-lo", "50", "--h-hi", "250",
         "--n-realizations", "300", "--grid-step", "1e-7"],
        ["contour", *URBAN_ARGS, "--lambda-lo", "10", "--lambda-hi", "20",
         "--lambda-step", "1e-8", "--h-lo", "50", "--h-hi", "100"],
        ["distribution", *URBAN_ARGS, "--lambda-uav", "20", "--h-uav", "100",
         "--gamma-step", "1e-9"],
        # density 0 keeps the run from chunking; the bound on n refuses it before any allocation
        ["distribution", "--preset", "urban", "--lambda-uav", "0", "--h-uav", "100",
         "--n-realizations", "1000000000000000"],
    ],
    ids=["n-realizations-0", "seed-negative", "seed-2-64", "workers-0",
         "optimize-lambda-cap", "optimize-d-cap", "distribution-gamma-th",
         "refine-tol-nan", "w-v-nan", "lambda-uav-nan", "d-cap-nan", "grid-step-nan",
         "gamma-step-nan", "contour-h-v-negative", "optimize-h-v-negative",
         "grid-step-oversized", "lambda-step-oversized", "gamma-step-oversized",
         "n-realizations-out-of-memory"],
)
def test_bad_run_parameters_exit_2(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [["--cases", "-1"], ["--max-outliers", "-1"], ["--z-limit", "nan"],
     ["--r-max", "nan"], ["--r-max", "inf"], ["--r-max", "20"], ["--h-v", "nan"],
     ["--h-v", "-1"], ["--cases", "1", "--n-draws", "1000000000000000"],
     # one above oracle.MAX_DRAWS: refused before the case draws anything
     ["--cases", "1", "--n-draws", "1000001"],
     # expects about 3e9 building sides per case: refused before the case draws anything
     ["--cases", "1", "--n-draws", "100000", "--r-max", "1e6"],
     ["--seed", "-1"], ["--seed", "18446744073709551616"],
     # one above oracle.MAX_CASES: refused before the first case is drawn
     ["--cases", "1000001", "--n-draws", "1"]],
    ids=["cases", "max-outliers", "z-limit", "r-max-nan", "r-max-inf", "r-max-short",
         "h-v-nan", "h-v-negative", "n-draws-out-of-memory", "n-draws-over-bound",
         "sides-over-bound", "seed-negative", "seed-2-64", "cases-over-bound"],
)
def test_validate_rejects_bad_input(args, capsys):
    code, _, err = run_cli(["validate", "--cases", "2", "--n-draws", "100", *args], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def _base_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=urban\nlambda-uav=20\nh_uav=100\nn-realizations=300\nseed=11\n")
    return cfg


def test_config_flag_before_file_wins(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    code, out, _ = run_cli(["distribution", "--seed", "12", "--config", str(cfg)], capsys)
    code2, out2, _ = run_cli(
        ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "100",
         "--n-realizations", "300", "--seed", "12"], capsys)
    assert code == 0 and code2 == 0
    assert out == out2


def test_config_equals_form(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    code, out, _ = run_cli(["distribution", f"--config={cfg}"], capsys)
    code2, out2, _ = run_cli(["distribution", "--config", str(cfg)], capsys)
    assert code == 0 and code2 == 0
    assert out == out2


@pytest.mark.parametrize("line", ["seed=abc", "preset=nowhere", "help=1"])
def test_config_bad_line_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"lambda-uav=20\nh-uav=100\n{line}\n")
    code, _, err = run_cli(["distribution", "--preset", "urban", "--config", str(cfg)], capsys)
    assert code == 2
    assert "error:" in err


# Every command's numeric flags are set in turn to each of these values, from a
# small base run of that command (at most 50 realizations; validate runs 2 cases
# of 50 draws).  The flag takes its value as --flag=value, so argparse reads a
# value such as -inf as a value, not as an option.
BAD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "5e-324", "1e-320", "abc",
              "", "1.5")
_CITY = {"--mu-s": "13", "--mu-b": "45", "--mu-h": "19"}
_SMALL_RUNS = {
    "distribution": {**_CITY, "--lambda-uav": "20", "--h-uav": "100", "--n-realizations": "50"},
    "outage-curve": {**_CITY, "--lambda-uav": "20", "--h-lo": "50", "--h-hi": "150",
                     "--h-step": "50", "--n-realizations": "50"},
    "optimize": {**_CITY, "--lambda-uav": "20", "--h-lo": "50", "--h-hi": "150",
                 "--grid-step": "50", "--refine-tol": "20", "--n-realizations": "50"},
    "contour": {**_CITY, "--lambda-lo": "10", "--lambda-hi": "20", "--lambda-step": "10",
                "--h-lo": "50", "--h-hi": "150", "--h-step": "50", "--target-outage": "0.5",
                "--n-realizations": "50"},
    "validate": {"--cases": "2", "--n-draws": "50"},
}


def _numeric_flags(command):
    subparser = cli.build_parser(command)[1]
    return [action.option_strings[0] for action in subparser._actions
            if action.type in (int, float)]


def test_bad_flag_values_never_raise(capsys):
    """Whatever number a flag is given, a run exits 0, 1 or 2 and never raises.

    An exit 2 prints one stderr line, "error: ...", and a distribution that
    exits 0 ends with F = 1.0 at gamma = 1 in every column.
    """
    wrong = []
    for command, base in _SMALL_RUNS.items():
        for flag in _numeric_flags(command):
            for value in BAD_VALUES:
                argv = [command, *(f"{k}={v}" for k, v in {**base, flag: value}.items())]
                try:
                    code = main(argv)
                except Exception as e:  # a warning too: pytest makes warnings errors
                    code = f"raised {e!r}"
                out, err = capsys.readouterr()
                if code == 2:
                    ok = err.startswith("error: ") and err.count("\n") == 1
                elif code == 0 and command == "distribution":
                    ok = out.splitlines()[-1] == "1.0,1.0,1.0,1.0"
                else:
                    ok = code in (0, 1)
                if not ok:
                    wrong.append(f"{' '.join(argv)}: exit {code}, stderr {err[-200:]!r}")
    assert not wrong, f"{len(wrong)} runs:\n" + "\n".join(wrong[:20])
