"""End-to-end tests for the command-line front end."""
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stlmc import cli
from stlmc.cli import build_parser, main
from stlmc.errors import BoundViolationError


def write_config(tmp_path, **overrides):
    cfg = {
        "target": {
            "weights": [0.5, 0.5],
            "means": [[-1.5], [1.5]],
            "sigma2": 1.0,
        },
        "run": {"eta": 0.1, "T": 0.5, "t": 80, "seed": 5},
        "n_samples": 200,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_sample_without_config_is_usage_error(capsys):
    assert main(["sample"]) == 2
    assert "--config" in capsys.readouterr().err


def test_sample_without_seed_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, run={"eta": 0.1, "T": 0.5, "t": 80})
    assert main(["sample", "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


def test_unparseable_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sample", "--config", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_unknown_run_option_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, run={"eta": 0.1, "T": 0.5, "t": 80,
                                      "seed": 5, "step_count": 3})
    assert main(["sample", "--config", str(cfg)]) == 2
    assert "step_count" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("t", None), ("eta", [0.1]), ("workers", None),
                                        ("n_samples", None), ("t", 40.9), ("m", 10.5),
                                        ("workers", 1.7), ("seed", True),
                                        ("max_retries", 100.2), ("n_samples", 20.9),
                                        ("eta", True), ("workers", True)])
def test_wrongly_typed_run_value_is_usage_error(tmp_path, capsys, key, value):
    run = {"eta": 0.1, "T": 0.5, "t": 80, "seed": 5}
    cfg = (write_config(tmp_path, n_samples=value) if key == "n_samples"
           else write_config(tmp_path, run=dict(run, **{key: value})))
    out = tmp_path / "o"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_usage_error(tmp_path, capsys):
    # numpy's SeedSequence refused it mid-run with a message naming no field
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["sample", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_step_count_is_usage_error(tmp_path, capsys):
    # round(T / eta) raised OverflowError in the first stage
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["sample", "--config", str(cfg), "--eta", "1e-10", "--T", "1e300",
                 "--seed", "1", "--out", str(out)]) == 2
    assert "T / eta must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--c1", "--c2"])
def test_non_finite_ladder_scale_is_usage_error(tmp_path, capsys, flag):
    # --c1 inf sampled plain Langevin on a one-level ladder, --c2 inf on two levels
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["sample", "--config", str(cfg), flag, "inf", "--out", str(out)]) == 2
    assert f"{flag[2:]} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_ladder_neighbor_moves_cannot_climb_is_usage_error(tmp_path, capsys):
    # two steps never carry a chain from level 1 to level 4 of the +-1.5
    # ladder: the final stage ran out its 100 rounds and exited 1
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["sample", "--config", str(cfg), "--t", "2", "--out", str(out)]) == 2
    assert "t=2 steps cannot climb from level 1 to level 4" in capsys.readouterr().err
    assert not out.exists()
    # estimation alone stops at level 3, which two steps reach
    assert main(["estimate-z", "--config", str(cfg), "--t", "2", "--out", str(out)]) == 0
    assert (out / "estimates.json").exists()


@pytest.mark.parametrize("argv", [["analyze", "--seed", "1"], ["analyze", "--eta", "0.1"],
                                  ["analyze", "--bins", "5"], ["estimate-z", "--bins", "5"],
                                  ["estimate-z", "--mode-radius", "1"]])
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["--config", "cfg.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_section_keys_are_run_params_fields_plus_workers():
    fields = set(inspect.signature(cli.RunParams).parameters)
    assert cli._RUN_KEYS == fields | {"workers"}
    assert set(cli._RUN_DEFAULTS) == {"eta", "T", "t", "workers"}


@pytest.mark.parametrize("section, value, named", [
    ("run", None, "run section"), ("run", [], "run section"), ("run", "ab", "run section"),
    ("target", None, "target section"), ("target", [], "target section"),
    ("target", "x", "target section"),
    ("perturbation", 3, "perturbation section"),
    ("perturbation", {"amplitude": None}, "perturbation.amplitude"),
    ("perturbation", {"amplitude": True}, "perturbation.amplitude"),
    ("perturbation", {"amplitude": 0.2, "scale": True}, "perturbation.scale"),
    ("target", {"weights": [1.0], "means": [[0.0]], "sigma2": True}, "target.sigma2"),
    ("output_dir", 3, "output_dir"),
])
def test_malformed_config_section_is_usage_error(tmp_path, capsys, section, value, named):
    out = tmp_path / "o"
    if section == "perturbation":
        target = {"weights": [1.0], "means": [[0.0]], "sigma2": 1.0, "perturbation": value}
        cfg = write_config(tmp_path, target=target, output_dir=str(out))
    else:
        cfg = write_config(tmp_path, **dict({"output_dir": str(out)}, **{section: value}))
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key", [
    ("config", "n_sample"), ("target", "perturbaton"), ("perturbation", "scal"),
    ("run", "step_count"),
])
def test_unknown_config_key_is_refused_before_sampling(tmp_path, capsys, monkeypatch,
                                                       section, key):
    def no_run(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "run_main_algorithm", no_run)
    target = {"weights": [0.5, 0.5], "means": [[-1.5], [1.5]], "sigma2": 1.0}
    if section == "config":
        cfg = write_config(tmp_path, n_sample=50)
    elif section == "run":
        cfg = write_config(tmp_path, run={"eta": 0.1, "t": 80, "seed": 5, "step_count": 3})
    elif section == "target":
        cfg = write_config(tmp_path, target=dict(target, perturbaton={"amplitude": 0.2}))
    else:
        cfg = write_config(tmp_path, target=dict(
            target, perturbation={"amplitude": 0.2, "scal": 2.0}))
    out = tmp_path / "o"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown {section} keys ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def _perturbed(pert):
    return {"target": {"weights": [1.0], "means": [[0.0]], "sigma2": 1.0, "perturbation": pert}}


_MIX = {"weights": [0.5, 0.5], "means": [[-1.5], [1.5]], "sigma2": 1.0}


# the whole stderr line of every case of the two tests above
@pytest.mark.parametrize("command, overrides, line", [
    ("analyze", {"run": None}, "the run section must be a JSON object (got None)"),
    ("analyze", {"run": []}, "the run section must be a JSON object (got [])"),
    ("analyze", {"run": "ab"}, "the run section must be a JSON object (got 'ab')"),
    ("analyze", {"target": None}, "the target section must be a JSON object (got None)"),
    ("analyze", {"target": []}, "the target section must be a JSON object (got [])"),
    ("analyze", {"target": "x"}, "the target section must be a JSON object (got 'x')"),
    ("analyze", _perturbed(3), "the perturbation section must be a JSON object (got 3)"),
    ("analyze", _perturbed({"amplitude": None}),
     "perturbation.amplitude must be float (got None)"),
    ("analyze", _perturbed({"amplitude": True}),
     "perturbation.amplitude must be float (got True)"),
    ("analyze", _perturbed({"amplitude": 0.2, "scale": True}),
     "perturbation.scale must be float (got True)"),
    ("analyze", {"target": {"weights": [1.0], "means": [[0.0]], "sigma2": True}},
     "target.sigma2 must be float (got True)"),
    ("analyze", {"output_dir": 3}, "output_dir must be a string (got 3)"),
    ("sample", {"n_sample": 50}, "unknown config keys ['n_sample']"),
    ("sample", {"target": dict(_MIX, perturbaton={"amplitude": 0.2})},
     "unknown target keys ['perturbaton']"),
    ("sample", {"target": dict(_MIX, perturbation={"amplitude": 0.2, "scal": 2.0})},
     "unknown perturbation keys ['scal']"),
])
def test_config_refusal_lines(tmp_path, capsys, monkeypatch, command, overrides, line):
    def no_run(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "run_main_algorithm", no_run)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, **dict({"output_dir": str(out)}, **overrides))
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_unusable_out_is_refused_up_front(tmp_path, capsys, monkeypatch, out):
    def no_run(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "run_main_algorithm", no_run)
    (tmp_path / "afile").write_text("")
    cfg = write_config(tmp_path)
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    assert "afile is not a directory" in capsys.readouterr().err


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    # on the +-3 desk, 20 steps per chain and one round per stage run
    # out at stage 9
    cfg = write_config(tmp_path, target={
        "weights": [0.5, 0.5], "means": [[-3.0], [3.0]], "sigma2": 1.0,
    })
    out = tmp_path / "o"
    assert main(["sample", "--config", str(cfg), "--out", str(out), "--m", "10",
                 "--t", "20", "--max-retries", "1", "--seed", "1"]) == 1
    assert "failure:" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_target_is_usage_error(tmp_path, capsys):
    # D = max ||mu_i|| overflowed to inf, and the ladder was blamed for it
    cfg = write_config(tmp_path, target={
        "weights": [0.5, 0.5], "means": [[-1e200], [1e200]], "sigma2": 1.0,
    })
    out = tmp_path / "o"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "means up to 1e+200" in err and "sigma2=1" in err
    assert not out.exists()


def test_missing_target_field_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, target={"weights": [1.0], "means": [[0.0]]})
    assert main(["sample", "--config", str(cfg)]) == 2
    assert "sigma2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "compare", "estimate-z"])
def test_oversized_step_is_usage_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--eta", "0.6"]) == 2
    assert "sigma2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_samples", ["0", "-3"])
def test_compare_refuses_nonpositive_n_samples_before_sampling(tmp_path, capsys,
                                                               monkeypatch, n_samples):
    def no_run(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "run_main_algorithm", no_run)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["compare", "--config", str(cfg), "--out", str(out),
                 "--n-samples", n_samples]) == 2
    assert "n_samples must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "compare"])
@pytest.mark.parametrize("flags, overrides, named", [
    (["--bins", "0"], {}, "bins"),
    (["--bins", "-2"], {}, "bins"),
    (["--mode-radius", "-1"], {}, "mode_radius"),
    (["--mode-radius", "0"], {}, "mode_radius"),
    (["--mode-radius", "nan"], {}, "mode_radius"),
    (["--mode-radius", "inf"], {}, "mode_radius"),
    ([], {"mode_radius": "abc"}, "mode_radius"),
    ([], {"mode_radius": [1.0]}, "mode_radius"),
    ([], {"mode_radius": -1}, "mode_radius"),
    ([], {"mode_radius": True}, "mode_radius"),
])
def test_bad_report_options_are_refused_before_sampling(tmp_path, capsys, monkeypatch,
                                                        command, flags, overrides, named):
    def no_run(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "run_main_algorithm", no_run)
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == 2
    assert f"{named} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "analyze"])
def test_oversized_ladder_is_refused_before_sampling(tmp_path, capsys, monkeypatch, command):
    # sigma2 = 1e-4 on the +-3 desk asks for 152,383 levels
    def no_run(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr("stlmc.partition_estimator._collect_top", no_run)
    monkeypatch.setattr(cli, "discretize_langevin_generator", no_run)
    cfg = write_config(tmp_path, target={
        "weights": [0.5, 0.5], "means": [[-3.0], [3.0]], "sigma2": 1e-4,
    })
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv + (["--eta", "1e-5"] if command == "sample" else [])) == 2
    assert "152383 levels" in capsys.readouterr().err
    assert not out.exists()


# 1,000 bins on the perturbed four-mode mixture take 12,048 quadrature nodes
# per axis, 1.45e8 points; the plain mixture takes the same panel grid, and
# 338 bins are 4,104 nodes per axis, just past 2**24 points
@pytest.mark.parametrize("command, perturbation, bins, points", [
    ("sample", {"amplitude": 0.2, "scale": 1.0}, 1000, 145154304),
    ("compare", {"amplitude": 0.2, "scale": 1.0}, 1000, 145154304),
    ("sample", None, 338, 16842816),
    ("compare", None, 338, 16842816),
], ids=["sample", "compare", "sample-plain", "compare-plain"])
def test_oversized_tv_grid_is_refused_before_sampling(tmp_path, capsys, monkeypatch, command,
                                                      perturbation, bins, points):
    def no_run(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "run_main_algorithm", no_run)
    target = {"weights": [0.25] * 4, "sigma2": 1.0,
              "means": [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]]}
    if perturbation:
        target["perturbation"] = perturbation
    cfg = write_config(tmp_path, target=target)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--bins", str(bins)]) == 2
    assert f"{points} points" in capsys.readouterr().err
    assert not out.exists()


def test_compare_exits_1_when_tempering_fails(tmp_path, capsys):
    # 20 steps per chain cannot climb the 15-level +-3 ladder, so an
    # estimation stage runs out of rounds
    cfg = write_config(tmp_path, target={
        "weights": [0.5, 0.5], "means": [[-3.0], [3.0]], "sigma2": 1.0,
    })
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--m", "10",
                 "--t", "20", "--max-retries", "2"]) == 1
    assert "failure:" in capsys.readouterr().err
    assert not (out / "compare.txt").exists()


def test_step_beyond_perturbation_curvature_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, target={
        "weights": [0.5, 0.5], "means": [[-1.5], [1.5]], "sigma2": 1.0,
        "perturbation": {"amplitude": 2.0, "scale": 0.5},
    })
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "curvature" in capsys.readouterr().err


def test_analyze_rejects_high_dimension(tmp_path, capsys):
    cfg = write_config(tmp_path, target={
        "weights": [1.0], "means": [[0.0, 0.0, 0.0]], "sigma2": 1.0,
    })
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "d <= 2" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "tempering-bounds"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] tempering-bounds:" in out
    assert "[FAIL]" not in out
    assert out.strip().endswith("checks passed")


def test_sample_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(["sample", "--config", str(cfg), "--out", str(out), "--trace"])
    assert code == 0

    samples = (out / "samples.csv").read_text().splitlines()
    assert samples[0] == "# stlmc samples v1"
    assert samples[1] == "sample,x_1"
    assert len(samples) == 2 + 200
    xs = np.array([float(r.split(",")[1]) for r in samples[2:]])
    assert np.abs(xs).max() < 8.0

    est = json.loads((out / "estimates.json").read_text())
    assert est["format"] == "stlmc-estimates-v1"
    assert est["seed"] == 5
    assert est["log_zhat"][0] == 0.0
    assert len(est["betas"]) == len(est["log_zhat"])

    summary = (out / "summary.txt").read_text()
    assert summary.startswith("# stlmc sample summary v1")
    assert "mode fractions" in summary
    assert "TV distance" in summary

    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "# stlmc trace v1"
    assert trace[1] == "step,level,move_type,accepted,x_1"

    stdout = capsys.readouterr().out
    assert "gradient evaluations" in stdout


def test_summary_occupancy_counts_every_step_of_the_final_stage(tmp_path, monkeypatch):
    # the engine counts occupancy from the first step, with every chain at
    # level 1, and the summary must not claim a burn-in
    results = []
    run = cli.run_main_algorithm
    monkeypatch.setattr(cli, "run_main_algorithm",
                        lambda *a, **k: results.append(run(*a, **k)) or results[-1])
    cfg = write_config(tmp_path, run={"eta": 0.1, "T": 0.5, "t": 40, "m": 20, "seed": 5})
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "summary.txt").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("level occupancy"))
    assert "burn-in" not in lines[at]
    final = results[0].stats["phases"][-1]
    occ = final["occupancy"]
    assert occ.sum() == final["chains"] * 40
    np.testing.assert_allclose([float(v) for v in lines[at + 1].split()], occ / occ.sum(),
                               atol=5e-5)


def test_config_mode_radius_is_honoured(tmp_path, capsys):
    cfg = write_config(tmp_path, mode_radius=1,
                       run={"eta": 0.1, "T": 0.5, "t": 40, "m": 20, "seed": 5})
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert "mode fractions (radius 1): " in (tmp_path / "s" / "summary.txt").read_text()


def test_sample_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
    assert (out_a / "estimates.json").read_bytes() == (out_b / "estimates.json").read_bytes()


def test_estimate_z_reports_deviations(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "z"
    assert main(["estimate-z", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "estimate_z.txt").read_text()
    assert report.startswith("# stlmc estimate-z report v1")
    assert "max |deviation|" in report
    assert (out / "estimates.json").exists()
    worst = float(report.strip().splitlines()[-1].split("=")[1])
    assert worst < 1.0


def test_estimate_z_above_two_dimensions_skips_quadrature(tmp_path, capsys):
    target = {"weights": [0.5, 0.5], "means": [[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0]],
              "sigma2": 1.0}
    cfg = write_config(tmp_path, target=target,
                       run={"eta": 0.1, "T": 0.5, "t": 40, "m": 20, "seed": 5})
    out = tmp_path / "z"
    assert main(["estimate-z", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "estimate_z.txt").read_text().splitlines()
    L = len(json.loads((out / "estimates.json").read_text())["betas"])
    assert lines[1] == f"L={L} seed=5"
    levels = lines[2:-1]
    assert [line.split(":")[0] for line in levels] == [f"level {k}" for k in range(1, L + 1)]
    assert not any("quadrature" in line for line in levels)
    assert lines[-1] == "quadrature comparison skipped (d > 2)"


def test_analyze_reports_spectra(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "an"
    assert main(["analyze", "--config", str(cfg), "--out", str(out),
                 "--cells", "200"]) == 0
    report = (out / "analyze.txt").read_text()
    assert report.startswith("# stlmc analyze report v1")
    assert "eigenvalues of minus the generator" in report
    assert "adjacent-level overlap" in report
    assert "partition-ratio margins" in report


def test_analyze_one_level_ladder(tmp_path, capsys):
    # z_ratio_bound_check on no level pairs raised numpy's zero-size
    # reduction error, and analyze exited 2
    cfg = write_config(tmp_path, target={"weights": [1.0], "means": [[0.0]], "sigma2": 1.0})
    out = tmp_path / "an"
    assert main(["analyze", "--config", str(cfg), "--out", str(out), "--cells", "50"]) == 0
    lines = (out / "analyze.txt").read_text().splitlines()
    assert lines[-1] == "adjacent-level overlap (whole-space affinity):"
    assert [line for line in lines if line.startswith("  beta=")] == [lines[3]]
    assert lines[3].startswith("  beta=1.000000: ")


def test_compare_writes_both_methods(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out),
                 "--n-samples", "150"]) == 0
    report = (out / "compare.txt").read_text()
    assert report.startswith("# stlmc compare v1")
    assert "tempering" in report
    assert "plain-langevin" in report
    assert "grad_evals" in report
    rows = report.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["tempering", "plain-langevin"]


FOUR_MODE = {"weights": [0.25] * 4, "sigma2": 1.0,
             "means": [[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]]}


def test_analyze_report_is_reproducible(tmp_path):
    # shift-invert Lanczos from a random start vector would change the
    # printed round-off of lambda_1 from one solve to the next
    cfg = write_config(tmp_path, target=FOUR_MODE, run={"c2": 2.0})
    reports = []
    for k in range(2):
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / f"in{k}")]) == 0
        reports.append((tmp_path / f"in{k}" / "analyze.txt").read_bytes())
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "stlmc", "analyze", "--config", str(cfg),
                    "--out", str(tmp_path / "fresh")], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    reports.append((tmp_path / "fresh" / "analyze.txt").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_analyze_checks_the_ladder_in_one_call(tmp_path, monkeypatch):
    calls = []
    check = cli.z_ratio_bound_check
    monkeypatch.setattr(cli, "z_ratio_bound_check",
                        lambda *a: calls.append(len(a[1])) or check(*a))
    cfg = write_config(tmp_path, target=FOUR_MODE, run={"c2": 2.0})
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "an"),
                 "--cells", "20"]) == 0
    report = (tmp_path / "an" / "analyze.txt").read_text()
    assert calls == [12] and "12->13: ratio=" in report


def test_analyze_exits_1_when_a_bound_check_fails(tmp_path, monkeypatch, capsys):
    # a violated bound is a failed check, not bad usage
    def violated(*args):
        raise BoundViolationError("z-ratio upper bound", 2.0, 1.0)

    monkeypatch.setattr(cli, "z_ratio_bound_check", violated)
    assert main(["analyze", "--config", str(write_config(tmp_path)), "--out",
                 str(tmp_path / "an"), "--cells", "50"]) == 1
    assert "failure: z-ratio upper bound" in capsys.readouterr().err


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter, since this one has loaded every stack."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_sampling_loads_no_deferred_scipy_stack(tmp_path):
    # importing every module, a sample run with --trace and estimate-z need
    # numpy only, and analyze then loads what it uses on its first call; its
    # quadrature oracle needs no scipy.integrate
    cfg = write_config(tmp_path)
    script = f"""
import importlib, pkgutil, sys
import stlmc
for mod in pkgutil.iter_modules(stlmc.__path__):
    importlib.import_module("stlmc." + mod.name)
from stlmc import cli
assert cli.main(["sample", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "s")!r},
                 "--m", "20", "--t", "40", "--trace"]) == 0
assert cli.main(["estimate-z", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "z")!r},
                 "--m", "20", "--t", "40"]) == 0
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, f"sample or estimate-z loaded {{loaded}}"
assert cli.main(["analyze", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "a")!r},
                 "--cells", "50"]) == 0
assert "scipy.integrate" not in sys.modules, "analyze loaded scipy.integrate"
"""
    _run_fresh(script)
    assert (tmp_path / "s" / "trace.csv").exists()
    assert "quadrature=" in (tmp_path / "z" / "estimate_z.txt").read_text()
    assert (tmp_path / "a" / "analyze.txt").exists()


def test_perturbed_sampling_loads_no_deferred_scipy_stack(tmp_path):
    # the TV summary of a perturbed target needs no scipy; the close-mode
    # desk variant keeps compare's plain chains short
    cfg = write_config(tmp_path, target={
        "weights": [0.5, 0.5], "means": [[-1.5], [1.5]], "sigma2": 1.0,
        "perturbation": {"amplitude": 0.2, "scale": 1.0}})
    script = f"""
import sys
from stlmc import cli
for command in ("sample", "compare"):
    assert cli.main([command, "--config", {str(cfg)!r}, "--out", {str(tmp_path)!r} + "/" + command,
                     "--m", "10", "--t", "40", "--n-samples", "100"]) == 0
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, f"sample and compare loaded {{loaded}}"
"""
    _run_fresh(script)
    assert "TV distance vs quadrature density" in (tmp_path / "sample" / "summary.txt").read_text()
    assert (tmp_path / "compare" / "compare.txt").exists()
