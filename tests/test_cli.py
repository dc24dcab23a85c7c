import dataclasses
import json

import pytest

import uavgrid.connectivity as connectivity
from uavgrid.cli import main
from uavgrid.connectivity import ScenarioConfig, estimate_distribution, mixture_cdf
from uavgrid.geometry import PRESETS, HeightDistribution, RadioParams
from uavgrid.los import Placement
from uavgrid.optimize import HeightSearchSpec, optimize_height


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


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
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=20 * 1e-6)
    cfg = ScenarioConfig(city=PRESETS["urban"], radio=radio, n_realizations=1500, seed=3)
    dists = estimate_distribution(cfg)
    mix = mixture_cdf(dists[Placement.INTERSECTION], dists[Placement.STREET], PRESETS["urban"])
    row08 = next(l for l in lines[1:] if l.startswith("0.8,"))
    assert float(row08.split(",")[3]) == mix.evaluate(0.8)


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

    monkeypatch.setattr(connectivity, "_draw_chunk", no_draw)
    code, out, err = run_cli([command, "--preset", "urban", "--n-realizations", "50",
                              *SCENARIO[command], *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert blamed in err and "cap" not in err


# distribution's radio values that its scenario rule refuses: NaN and inf in each,
# a vehicle below ground, UAVs below the vehicle or out of range, a negative density
BAD_RADIO = [[flag, value] for flag in ("--r-max", "--h-uav", "--h-v", "--lambda-uav")
             for value in ("nan", "inf")]
BAD_RADIO += [["--h-v", "-1"], ["--h-uav", "5"], ["--r-max", "40"], ["--lambda-uav", "-1"]]


@pytest.mark.parametrize("flags", BAD_RADIO, ids=["".join(f) for f in BAD_RADIO])
def test_bad_distribution_scenario_exits_2(flags, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew realizations of a refused run")

    monkeypatch.setattr(connectivity, "_draw_chunk", no_draw)
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

    monkeypatch.setattr(connectivity, "_draw_chunk", no_draw)
    code, out, err = run_cli([command, "--preset", "urban", "--n-realizations", "50",
                              *SCENARIO[command], *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "UAVs per realization" in err


def test_held_envelope_draw_is_refused_before_drawing(capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew realizations of a refused run")

    monkeypatch.setattr(connectivity, "_draw_chunk", no_draw)
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
    want = optimize_height(PRESETS["urban"], 250.0, 10.0, 30 * 1e-6,
                           HeightSearchSpec(h_lo=120.0, h_hi=180.0, grid_step=20.0),
                           n_realizations=1500, seed=2)
    assert (h, o) == want


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
    cfg.write_text("no-such-option=1\n")
    code, _, err = run_cli(
        ["distribution", "--config", str(cfg), "--lambda-uav", "20", "--h-uav", "100",
         "--n-realizations", "100"], capsys)
    assert code == 2
    assert "unknown option" in err


def test_bad_geometry_exits_2(capsys):
    code, _, err = run_cli(
        ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "400",
         "--n-realizations", "100"], capsys)
    assert code == 2
    assert "error:" in err


def test_preset_conflicts_with_explicit_city(capsys):
    code, _, err = run_cli(
        ["distribution", "--preset", "urban", "--mu-s", "10", "--lambda-uav", "20",
         "--h-uav", "100", "--n-realizations", "100"], capsys)
    assert code == 2


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
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=20 * 1e-6)
    dists = estimate_distribution(ScenarioConfig(city=city, radio=radio, n_realizations=600, seed=2))
    mix = mixture_cdf(dists[Placement.INTERSECTION], dists[Placement.STREET], city)
    row08 = next(l for l in out3.strip().split("\n")[1:] if l.startswith("0.8,"))
    assert [float(v) for v in row08.split(",")[1:]] == [
        dists[Placement.INTERSECTION].evaluate(0.8), dists[Placement.STREET].evaluate(0.8),
        mix.evaluate(0.8)]


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
    import subprocess

    from uavgrid import cli

    calls = []

    def hung_git(cmd, **kwargs):
        calls.append(cmd)
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(cli.subprocess, "run", hung_git)
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
     ["--seed", "-1"], ["--seed", "18446744073709551616"]],
    ids=["cases", "max-outliers", "z-limit", "r-max-nan", "r-max-inf", "r-max-short",
         "h-v-nan", "h-v-negative", "n-draws-out-of-memory", "n-draws-over-bound",
         "sides-over-bound", "seed-negative", "seed-2-64"],
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
