import json
import os

import pytest
from click.testing import CliRunner

from fastslow import cli
from fastslow.acceptance import Workspace, criterion_9
from fastslow.cli import main
from fastslow.systems import fixture


@pytest.fixture()
def runner():
    return CliRunner()


def test_sigma_lin_prints_analytic_value(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "LIN", "sigma"])
    assert res.exit_code == 0, res.output
    assert "sigma2 = 0.500000" in res.output
    data = json.loads((tmp_path / "sigma" / "sigma.json").read_text())
    assert abs(data["sigma2"][0][0] - 0.5) <= 1e-3
    assert (tmp_path / "sigma" / "manifest.json").exists()
    assert (tmp_path / "sigma" / "resolved_config.json").exists()


def test_unknown_config_key_exits_2(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"fixture": "LIN", "not_a_key": 1}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path), "sigma"])
    assert res.exit_code == 2
    manifest = json.loads((tmp_path / "sigma" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["config_sha256"] is None


@pytest.mark.parametrize("key", ["drift_quantum", "density_residual", "max_orbit_steps",
                                 "eps_max", "integrator_tol", "covariance_tol",
                                 "covariance_agree", "fd_step", "pair_grid", "pair_delta",
                                 "shadow_c", "shadow_c_sharp", "shadow_tol",
                                 "residual_slack", "ulam_n", "sigma_m",
                                 "sigma_tail_tol"])
def test_removed_tolerance_key_exits_2(runner, tmp_path, key):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"fixture": "LIN", "tolerances": {key: 1}}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path), "sigma"])
    assert res.exit_code == 2
    assert "unknown config key" in res.output
    manifest = json.loads((tmp_path / "sigma" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"


def test_config_cannot_widen_an_acceptance_band(runner, tmp_path):
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"fixture": "CPL", "tolerances": {"residual_slack": 1e6}}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path),
                               "verify-all", "--criteria", "10"])
    assert res.exit_code == 2
    manifest = json.loads((tmp_path / "verify-all" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert not (tmp_path / "verify-all" / "acceptance.json").exists()


def test_config_cannot_size_the_frozen_solve(runner, tmp_path):
    # a 16-cell Ulam solve used to fail criteria 2, 3 and 12 (exit 1)
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"fixture": "LIN", "tolerances": {"ulam_n": 16}}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path),
                               "verify-all", "--criteria", "2,3,12"])
    assert res.exit_code == 2, res.output
    manifest = json.loads((tmp_path / "verify-all" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert not (tmp_path / "verify-all" / "acceptance.json").exists()


def test_verify_all_ignores_out_times(runner, tmp_path):
    # criterion 10 conditions at t = 0.25 and 0.375, which a 5-point grid lacks
    details = {}
    for out_times in (33, 5):
        cfg = tmp_path / f"grid{out_times}.json"
        cfg.write_text(json.dumps({"fixture": "CPL", "out_times": out_times}))
        out = tmp_path / str(out_times)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                   "verify-all", "--criteria", "10"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "verify-all" / "acceptance.json").read_text())
        details[out_times] = report["criteria"][0]["details"]
    assert details[5] == details[33]


@pytest.mark.parametrize("text", ['{"fixture": "LIN", "out_dir": "elsewhere", "bad": 1}',
                                  '{"fixture": "LIN", "out_dir": "elsewhere",'])
def test_unloadable_config_manifest_goes_to_default_out(runner, tmp_path, text):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("cfg.json", "w") as fh:
            fh.write(text)
        res = runner.invoke(main, ["--config", "cfg.json", "srb"])
        assert res.exit_code == 2
        manifest = json.loads(open("out/srb/manifest.json").read())
        assert manifest["status"] == "config-error"
        assert not os.path.exists("elsewhere")


def test_unknown_fixture_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "XYZ", "sigma"])
    assert res.exit_code == 2


def test_invalid_eps_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "LIN",
                               "--eps", "0.9", "sigma"])
    assert res.exit_code == 2


@pytest.mark.parametrize("key,value", [("out_times", 9.5), ("n_trajectories", 100.0),
                                       ("threads", True), ("out_times", 1)])
def test_count_in_config_must_be_an_integer(runner, tmp_path, key, value):
    cfg = tmp_path / "counts.json"
    cfg.write_text(json.dumps({"fixture": "LIN", key: value}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path), "average"])
    assert res.exit_code == 2, res.output
    assert f"{key} must be an integer" in res.output
    manifest = json.loads((tmp_path / "average" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"


def test_numerical_failure_exits_3_and_writes_manifest(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CPL",
                               "--eps", "0.05", "decompose"])
    assert res.exit_code == 3
    manifest = json.loads((tmp_path / "decompose" / "manifest.json").read_text())
    assert manifest["status"] == "numerical-error"


def test_verify_subset(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "verify-all",
                               "--criteria", "1,3"])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "verify-all" / "acceptance.json").read_text())
    assert [c["id"] for c in report["criteria"]] == [1, 3]
    assert report["all_passed"]


def test_verify_fixture_cbd(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CBD", "verify-all"])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "verify-all" / "acceptance.json").read_text())
    assert [c["id"] for c in report["criteria"]] == [3, 12]


def test_fluctuate_reports_are_reproducible(runner, tmp_path):
    args = ["--fixture", "LIN", "--theta0", "0.3", "--eps", "1e-3",
            "--n", "500", "--seed", "7", "fluctuate"]
    res1 = runner.invoke(main, ["--out", str(tmp_path / "a")] + args)
    assert res1.exit_code == 0, res1.output
    res2 = runner.invoke(main, ["--out", str(tmp_path / "b")] + args)
    assert res2.exit_code == 0
    blob1 = (tmp_path / "a" / "fluctuate" / "clt.json").read_bytes()
    blob2 = (tmp_path / "b" / "fluctuate" / "clt.json").read_bytes()
    assert blob1 == blob2
    mom1 = (tmp_path / "a" / "fluctuate" / "moments.json").read_bytes()
    mom2 = (tmp_path / "b" / "fluctuate" / "moments.json").read_bytes()
    assert mom1 == mom2


def test_srb_sweep_csv(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "LIN",
                               "srb", "--theta-count", "3"])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "srb" / "srb_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "theta,omega_bar_0,sigma2_00,M,tail_estimate"
    assert len(lines) == 4
    val = float(lines[1].split(",")[2])
    assert abs(val - 0.5) <= 1e-3


def test_average_csv_and_plot(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "LIN",
                               "--theta0", "0.25", "average", "--plot"])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "average" / "averaged.csv").read_text().strip().splitlines()
    assert lines[0] == "t,theta_bar_0"
    assert float(lines[-1].split(",")[1]) == pytest.approx(0.25, abs=1e-9)
    assert (tmp_path / "average" / "averaged.svg").read_text().startswith("<svg")


def test_average_covariance_csv(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "LIN",
                               "--theta0", "0.3", "average", "--covariance"])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "average" / "covariance.csv").read_text().strip().splitlines()
    assert lines[0] == "t,theta_bar_0,Sigma_00,S_00"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[2] == pytest.approx(0.5, abs=1e-3)   # Sigma(1) for LIN
    assert last[3] == pytest.approx(1.0, abs=1e-9)   # flow is identity (B = 0)


def test_fluctuate_writes_text_report(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "LIN",
                               "--theta0", "0.3", "--eps", "1e-3", "--n", "300",
                               "fluctuate"])
    assert res.exit_code == 0, res.output
    text = (tmp_path / "fluctuate" / "report.txt").read_text()
    assert text.startswith("report: clt")
    assert "report: moment_scaling" in text


def test_shadow_summary(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CPL",
                               "--eps", "1e-4", "shadow", "--points", "10"])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "shadow" / "summary.json").read_text())
    assert summary["eps=0.0001"]["max_defect"] <= 1e-12


def test_shadow_zero_eps_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CPL",
                               "--eps", "1e-4", "--eps", "0", "shadow", "--points", "3"])
    assert res.exit_code == 2, res.output
    assert "eps > 0" in res.output
    manifest = json.loads((tmp_path / "shadow" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert not (tmp_path / "shadow" / "summary.json").exists()


def test_shadow_summary_keeps_eps_that_agree_to_six_digits(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CPL",
                               "--eps", "1.0000001e-4", "--eps", "1.0000002e-4",
                               "shadow", "--points", "2"])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "shadow" / "summary.json").read_text())
    assert sorted(summary) == ["eps=0.00010000001", "eps=0.00010000002"]


def test_shadow_repeated_eps_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CPL",
                               "--eps", "1e-4", "--eps", "1e-4", "shadow", "--points", "2"])
    assert res.exit_code == 2, res.output
    manifest = json.loads((tmp_path / "shadow" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert not (tmp_path / "shadow" / "summary.json").exists()


def test_shadow_summary_matches_criterion_9(runner, tmp_path):
    # criterion 9 draws its first eps from default_rng(seed + 9) with 100 points
    ws = Workspace()
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CPL",
                               "--seed", str(ws.seed + 9), "--eps", "1e-4",
                               "shadow", "--points", "100"])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "shadow" / "summary.json").read_text())
    assert summary["eps=0.0001"] == criterion_9(ws).details["eps=0.0001"]


def test_decompose_outputs(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "LIN",
                               "--eps", "1e-3", "decompose", "--steps", "2"])
    assert res.exit_code == 0, res.output
    fam = json.loads((tmp_path / "decompose" / "family.json").read_text())
    assert fam["format"] == "fastslow-family/1"
    margins = json.loads((tmp_path / "decompose" / "margins.json").read_text())
    assert min(margins["slope"], margins["curvature"], margins["logdensity"]) >= 0.25


def test_fluctuate_inline_system(runner, tmp_path):
    cfg = tmp_path / "inline.json"
    cfg.write_text(json.dumps({"system": fixture("CPL").to_dict(), "n_trajectories": 200}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path), "fluctuate"])
    assert res.exit_code == 0, res.output
    manifest = json.loads((tmp_path / "fluctuate" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert (tmp_path / "fluctuate" / "clt.json").exists()


def test_fluctuate_rejects_planar_system(runner, tmp_path):
    planar = {"d": 2, "degree": 3, "f_terms": [],
              "omega_terms": [[[1.0, 1, 0.0, "cos", [0, 0], 0.0, "none"]],
                              [[1.0, 1, 0.0, "sin", [0, 0], 0.0, "none"]]]}
    cfg = tmp_path / "planar.json"
    cfg.write_text(json.dumps({"system": planar, "n_trajectories": 10}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path), "fluctuate"])
    assert res.exit_code == 2, res.output
    manifest = json.loads((tmp_path / "fluctuate" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"


TERM = [0.14, 1, 0.0, "sin", [1], 0.0, "sin"]   # amp, kx, px, fx, lt, pt, ft


def inline_system(f_term=TERM, **keys):
    return {"d": 1, "degree": 3, "f_terms": [f_term],
            "omega_terms": [[[1.0, 1, 0.0, "cos", [], 0.0, "none"]]], **keys}


@pytest.mark.parametrize("system", [
    pytest.param(inline_system(TERM[:6]), id="short-term"),
    pytest.param(inline_system(TERM[:3] + ["tan"] + TERM[4:]), id="unknown-fx"),
    pytest.param(inline_system(TERM[:6] + ["tan"]), id="unknown-ft"),
    pytest.param({k: v for k, v in inline_system().items() if k != "degree"}, id="no-degree"),
    pytest.param(inline_system(["big"] + TERM[1:]), id="text-amp"),
    pytest.param(inline_system(TERM[:2] + ["a"] + TERM[3:]), id="text-phase"),
    pytest.param(inline_system(degree=2), id="degree-2"),
    pytest.param(inline_system(TERM[:4] + [[1, 0]] + TERM[5:]), id="lt-length"),
])
@pytest.mark.parametrize("command", ["sigma", "fluctuate"])
def test_malformed_inline_system_exits_2(runner, tmp_path, system, command):
    cfg = tmp_path / "bad_system.json"
    cfg.write_text(json.dumps({"system": system}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path), command])
    assert res.exit_code == 2, res.output
    assert "malformed inline system" in res.output
    manifest = json.loads((tmp_path / command / "manifest.json").read_text())
    assert manifest["status"] == "config-error"


@pytest.mark.parametrize("command", ["decompose", "fluctuate"])
def test_single_eps_command_rejects_several_eps(runner, tmp_path, command):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "LIN",
                               "--eps", "1e-3", "--eps", "1e-4", command])
    assert res.exit_code == 2, res.output
    manifest = json.loads((tmp_path / command / "manifest.json").read_text())
    assert manifest["status"] == "config-error"


@pytest.mark.parametrize("out_times", [2, 3, 10])
def test_fluctuate_rejects_a_grid_its_reports_cannot_read(runner, tmp_path, out_times):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"fixture": "LIN", "out_times": out_times, "n_trajectories": 50}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path), "fluctuate"])
    assert res.exit_code == 2, res.output
    manifest = json.loads((tmp_path / "fluctuate" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert not (tmp_path / "fluctuate" / "clt.json").exists()


@pytest.mark.parametrize("args", [["shadow", "--points", "0"],
                                  ["decompose", "--steps", "-1"],
                                  ["decompose", "--steps", "0"],
                                  ["srb", "--theta-count", "0"]])
def test_count_below_one_exits_2(runner, tmp_path, args):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CPL",
                               "--eps", "1e-4", *args])
    assert res.exit_code == 2, res.output
    assert "must be >= 1" in res.output
    manifest = json.loads((tmp_path / args[0] / "manifest.json").read_text())
    assert manifest["status"] == "config-error"


@pytest.mark.parametrize("command", ["sigma", "average", "decompose", "fluctuate"])
def test_theta0_of_wrong_length_exits_2(runner, tmp_path, command):
    cfg = tmp_path / "theta0.json"
    cfg.write_text(json.dumps({"fixture": "LIN", "theta0": [0.3, 0.5]}))
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path), command])
    assert res.exit_code == 2, res.output
    manifest = json.loads((tmp_path / command / "manifest.json").read_text())
    assert manifest["status"] == "config-error"


def test_unexpected_exception_exits_3_and_writes_manifest(runner, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "shadow_diagnostic", broken)
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CPL",
                               "--eps", "1e-4", "shadow", "--points", "2"])
    assert res.exit_code == 3
    manifest = json.loads((tmp_path / "shadow" / "manifest.json").read_text())
    assert manifest["status"] == "internal-error"


def test_average_prints_provider_stats(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path), "--fixture", "CPL", "average"])
    assert res.exit_code == 0, res.output
    line = next(ln for ln in res.output.splitlines() if ln.startswith("provider: "))
    stats = json.loads(line[len("provider: "):])
    assert stats["nodes"] == 64 and stats["N"] == 4096
