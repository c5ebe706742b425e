"""Command-line interface: artifacts, manifests, determinism, exit codes."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from scipy.special import ndtr

from screenlab import (
    ModelConfig,
    empirical_scores,
    expected_regret,
    gamma1,
    marginal_posterior_phi,
    regret_curve,
    run_stage_one,
    sample_population,
    score_s1,
    score_s2,
)
from screenlab import cli
from screenlab.cli import main, render_csv
from screenlab.regret import _regret_values
from screenlab.scores import ALGOS
from conftest import BASELINE_DOC, IRREGULAR_DOC, NONMONOTONE_PHI_DOC, WEAK_GAMMA_DOC

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASELINE_DOC))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_text(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


def reference_csv(header, rows) -> str:
    """The row-wise writer render_csv replaced: csv.writer, one call per cell."""
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, (bool, np.bool_, int, np.integer)):
            return str(int(value))
        if isinstance(value, str):
            return value
        return repr(float(value))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buf.getvalue()


class TestValidate:
    def test_ok(self, config_path, capsys):
        assert main(["validate", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "certificate: accepted" in out
        assert "regular" in out

    def test_bad_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "gone.json")]) == 1

    @pytest.mark.parametrize("field,value,literal", [
        ("sigma_theta", float("nan"), "NaN"),
        ("x_q", float("inf"), "Infinity"),
        ("mu_u", [0.0, float("-inf")], "-Infinity"),
    ])
    def test_non_finite_value_exits_1(self, tmp_path, capsys, field, value, literal):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**BASELINE_DOC, field: value}))
        assert literal in path.read_text()
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert literal in err and "finite" in err

    def test_invalid_model_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BASELINE_DOC, "pi": 1.5}))
        assert main(["validate", "--config", str(path)]) == 1

    def test_unsupported_preview_still_validates(self, tmp_path, capsys):
        path = tmp_path / "sideways.json"
        path.write_text(json.dumps(NONMONOTONE_PHI_DOC))
        assert main(["validate", "--config", str(path)]) == 0
        assert "unavailable" in capsys.readouterr().out


class TestClassify:
    def test_stdout_json(self, config_path, capsys):
        assert main(["classify", "--config", config_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "regular"
        np.testing.assert_allclose(doc["theta_beta"], 0.9054651081081642, atol=1e-10)

    def test_unsupported_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sideways.json"
        path.write_text(json.dumps(NONMONOTONE_PHI_DOC))
        assert main(["classify", "--config", str(path)]) == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_irregular_verdict(self, tmp_path, capsys):
        path = tmp_path / "irr.json"
        path.write_text(json.dumps(IRREGULAR_DOC))
        assert main(["classify", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == "irregular"


class TestTau:
    def test_single_theta_report(self, config_path, capsys):
        assert main(["tau", "--config", config_path, "--theta", "0.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["tau_star"], -0.4685727658020907, atol=1e-9)
        np.testing.assert_allclose(doc["tau_d1"], -0.35986836698867297, atol=1e-9)
        np.testing.assert_allclose(doc["tau_d2"], -0.5124846463145134, atol=1e-9)
        assert doc["ordering"] == "d2<d1"
        assert doc["crossings_q0"]["crossings"] == pytest.approx([doc["tau_star"]])

    def test_theta_grid_gives_array(self, config_path, capsys):
        assert main([
            "tau", "--config", config_path, "--theta-grid=-1:1:3",
        ]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["theta"] for d in docs] == [-1.0, 0.0, 1.0]

    def test_crossing_report_via_q(self, config_path, capsys):
        assert main([
            "tau", "--config", config_path, "--theta", "0.0", "--q", "0",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case_label"] == "unqualified"
        assert len(doc["crossings"]) == 1

    def test_missing_theta_exits_1(self, config_path, capsys):
        assert main(["tau", "--config", config_path]) == 1
        assert "exactly one of --theta and --theta-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tau", "scores", "sweep"])
    def test_theta_with_theta_grid_exits_1(self, config_path, tmp_path, capsys, command):
        out = str(tmp_path / "out")
        argv = [command, "--config", config_path, "--theta", "0", "--theta-grid=-1:1:3"]
        assert main(argv + ["--out", out]) == 1
        assert "exactly one of --theta and --theta-grid" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command,theta", [
        ("tau", "nan"), ("tau", "0.5,inf"), ("scores", "inf"), ("scores", "-inf"),
        ("sweep", "nan"), ("regret", "inf"),
    ])
    def test_non_finite_theta_exits_1(self, config_path, tmp_path, capsys, command, theta):
        argv = [command, "--config", config_path, f"--theta={theta}"]
        if command != "tau":
            argv += ["--tau-grid=-0.5:0.5:3", "--out", str(tmp_path / "out")]
        if command == "regret":
            argv += ["--q", "1"]
        assert main(argv) == 1
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_manifest.json").exists()


class TestScores:
    def test_artifacts_and_manifest(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main([
            "scores", "--config", config_path, "--theta", "0.0",
            "--tau-grid=-0.5:0.5:5", "--out", out,
        ]) == 0
        rows = read_csv(os.path.join(out, "scores.csv"))
        assert len(rows) == 5
        np.testing.assert_allclose(
            float(rows[2]["s1"]), 0.6340681545868624, rtol=1e-12
        )
        np.testing.assert_allclose(
            float(rows[2]["gamma1"]), 1.4054651081081644, rtol=1e-12
        )
        manifest = json.loads(open(os.path.join(out, "run_manifest.json")).read())
        entry = manifest["outputs"][0]
        blob = open(os.path.join(out, "scores.csv"), "rb").read()
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
        assert entry["bytes"] == len(blob)
        raw = open(config_path, "rb").read()
        assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()

    def test_grid_clamped_with_notice(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main([
            "scores", "--config", config_path, "--theta", "0.0",
            "--tau-grid=-5:5:7", "--out", out,
        ]) == 0
        assert "clamped" in capsys.readouterr().err
        rows = read_csv(os.path.join(out, "scores.csv"))
        taus = [float(r["tau"]) for r in rows]
        assert taus[0] > -1.0 and taus[-1] < 1.0

    def test_grid_outside_interval_exits_1(self, config_path, tmp_path, capsys):
        assert main([
            "scores", "--config", config_path, "--theta", "0.0",
            "--tau-grid", "5:6:3", "--out", str(tmp_path / "x"),
        ]) == 1

    def test_malformed_grid_exits_1(self, config_path, tmp_path):
        assert main([
            "scores", "--config", config_path, "--theta", "0.0",
            "--tau-grid", "0..5", "--out", str(tmp_path / "x"),
        ]) == 1

    def test_byte_determinism(self, config_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main([
                "scores", "--config", config_path, "--theta-grid=-1:2:4",
                "--tau-grid=-0.9:0.9:11", "--out", out,
            ]) == 0
            outs.append(open(os.path.join(out, "scores.csv"), "rb").read())
        assert outs[0] == outs[1]

    def test_schema_flag(self, config_path, capsys):
        assert main(["scores", "--config", config_path, "--schema"]) == 0
        assert "gamma1" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["scores", "tau"])
    def test_theta_past_s1_precision_exits_1(self, config_path, tmp_path, capsys, command):
        """scores wrote nan for s1 here and tau failed with 'f is NaN'."""
        out = str(tmp_path / "out")
        assert main([command, "--config", config_path, "--theta=-1e200", "--out", out]) == 1
        assert "round off" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["scores", "sweep"])
    def test_weak_gamma_signal_runs(self, tmp_path, command):
        """The default tau grid reaches the clamp edge, where the cutoff of
        this config lies ~1.5e4 sds above both classes' means."""
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(WEAK_GAMMA_DOC))
        out = str(tmp_path / "out")
        assert main([command, "--config", str(path), "--theta=0", "--out", out]) == 0
        s1 = np.array([float(row["s1"]) for row in read_csv(os.path.join(out, "scores.csv"))])
        assert len(s1) == 400 and ((s1 >= 0.0) & (s1 <= 1.0)).all()


class TestRegret:
    def test_artifacts(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert main([
            "regret", "--config", config_path, "--theta", "0.0", "--q", "1",
            "--tau-grid=-0.9:0.9:7", "--out", out,
        ]) == 0
        rows = read_csv(os.path.join(out, "regret.csv"))
        assert {r["algo"] for r in rows} == {"s1", "s2"}
        assert len(rows) == 14
        jumps = json.loads(open(os.path.join(out, "regret_jumps.json")).read())
        heights = {j["algo"]: j["height"] for j in jumps["jumps"]}
        assert heights == {"s1": -1.0, "s2": 1.0}

    def test_bad_q_exits_1(self, config_path, tmp_path):
        assert main([
            "regret", "--config", config_path, "--theta", "0.0", "--q", "7",
            "--out", str(tmp_path / "x"),
        ]) == 1

    @pytest.mark.parametrize("present,missing", [(["--q", "1"], "theta"), (["--theta", "0"], "q")])
    def test_missing_option_exits_1(self, config_path, tmp_path, capsys, present, missing):
        argv = ["regret", "--config", config_path, "--out", str(tmp_path / "x")]
        assert main(argv + present) == 1
        assert f"--{missing} is required for regret" in capsys.readouterr().err


class TestSweep:
    def test_full_artifact_set(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert main([
            "sweep", "--config", config_path, "--theta=-0.5,0.5",
            "--tau-grid=-0.8:0.8:9", "--out", out,
        ]) == 0
        names = sorted(os.listdir(out))
        assert names == [
            "average_regret.csv", "regret.csv", "regret_jumps.json",
            "run_manifest.json", "scores.csv", "thresholds.json",
        ]
        doc = json.loads(open(os.path.join(out, "thresholds.json")).read())
        assert doc["environment"]["classification"] == "regular"
        np.testing.assert_allclose(doc["tau_bar"], -0.4086591074919251, atol=1e-6)
        assert doc["tau_bar_reason"] is None
        assert [p["theta"] for p in doc["per_theta"]] == [-0.5, 0.5]
        avg = read_csv(os.path.join(out, "average_regret.csv"))
        assert len(avg) == 9
        manifest = json.loads(open(os.path.join(out, "run_manifest.json")).read())
        assert len(manifest["outputs"]) == 5

    def test_irregular_tau_bar_null(self, tmp_path):
        path = tmp_path / "irr.json"
        path.write_text(json.dumps(IRREGULAR_DOC))
        out = str(tmp_path / "out")
        assert main([
            "sweep", "--config", str(path), "--theta", "1.0",
            "--tau-grid=-0.8:0.8:3", "--out", out,
        ]) == 0
        doc = json.loads(open(os.path.join(out, "thresholds.json")).read())
        assert doc["tau_bar"] is None
        assert doc["tau_bar_reason"] == "irregular"


class TestSimulate:
    def test_artifacts(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert main([
            "simulate", "--config", config_path, "--tau", "0.0",
            "--m", "20000", "--seed", "11", "--out", out,
        ]) == 0
        stage = read_csv(os.path.join(out, "stage1.csv"))
        assert len(stage) == 20000
        rejected = [r for r in stage if r["accepted"] == "0"]
        assert rejected and all(r["q_label"] == "" for r in rejected)
        accepted = [r for r in stage if r["accepted"] == "1"]
        assert accepted and all(r["q_label"] in {"0", "1"} for r in accepted)
        mc = read_csv(os.path.join(out, "regret_mc.csv"))
        assert [r["algo"] for r in mc] == ["s1", "s2"]
        env = json.loads(open(os.path.join(out, "environment.json")).read())
        assert env["classification"] == "regular"

    def test_same_seed_same_bytes(self, config_path, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main([
                "simulate", "--config", config_path, "--tau", "0.1",
                "--m", "5000", "--seed", "3", "--out", out,
            ]) == 0
            blobs.append(open(os.path.join(out, "stage1.csv"), "rb").read())
        assert blobs[0] == blobs[1]

    def test_missing_tau_exits_1(self, config_path, tmp_path):
        assert main([
            "simulate", "--config", config_path, "--out", str(tmp_path / "x"),
        ]) == 1

    def test_manifest_records_stage_timings(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert main([
            "simulate", "--config", config_path, "--tau", "0.0",
            "--m", "2000", "--seed", "1", "--out", out,
        ]) == 0
        manifest = json.loads(read_text(os.path.join(out, "run_manifest.json")))
        timings = manifest["timings"]
        assert list(timings) == [
            "sample_s", "stage_one_s", "binning_s", "mc_regret_s",
            "classify_s", "render_s", "write_s",
        ]
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())


class TestCsvByteOracle:
    """Column-wise rendering writes the bytes the row-wise writer wrote."""

    def test_mixed_columns_across_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)
        floats = np.array([0.1, -0.0, 1e-300, np.inf, np.nan, 2.5e17, -1 / 3])
        ints = np.array([0, -7, 2**40, 3, 3, 1, 0])
        flags = floats > 0
        labels = np.ma.MaskedArray(
            np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.int8),
            mask=[False, True, True, False, False, True, False],
        )
        optional = [0.5, None, 1.0, None, 0.25, 0.125, None]
        names = ["s1", "s2", "s1", "s2", "s1", "s2", "s1"]
        header = ["f", "i", "b", "label", "opt", "name"]
        rows = zip(
            floats, ints, flags,
            [None if gone else int(v) for v, gone in zip(labels.data, labels.mask)],
            optional, names,
        )
        got = render_csv(header, [floats, ints, flags, labels, optional, names])
        assert got == reference_csv(header, rows)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            render_csv(["a", "b"], [np.zeros(3), np.zeros(2)])

    def test_simulate_artifacts(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 4096)
        m, seed, tau = 50_000, 5, 0.9
        out = str(tmp_path / "out")
        assert main([
            "simulate", "--config", config_path, "--tau", str(tau), "--m", str(m),
            "--seed", str(seed), "--bins", "30", "--out", out,
        ]) == 0
        config = ModelConfig.from_dict(BASELINE_DOC)
        data = run_stage_one(config, sample_population(config, m, seed), tau)
        stage_rows = [
            (theta, int(hired), int(q) if hired else None)
            for theta, hired, q in zip(data.theta.tolist(), data.accepted, data.q_label.data)
        ]
        assert any(row[2] is None for row in stage_rows)
        bins = empirical_scores(data, 30)
        bin_rows = [
            (b.theta_lo, b.theta_hi, b.n, b.n_accepted,
             b.s2_hat, b.s2_se, b.s1_hat, b.s1_se)
            for b in bins
        ]
        assert any(b.s1_hat is None for b in bins)
        cohort = sample_population(config, m, seed + 1)
        mc_rows = []
        for algo, score in (("s1", score_s1), ("s2", score_s2)):
            u = _regret_values(config.payoffs, score(config, cohort.theta, tau), cohort.q)[3]
            mc_rows.append((algo, tau, m, seed + 1, u.mean(), u.std(ddof=1) / np.sqrt(m)))
        for name, rows in (("stage1.csv", stage_rows),
                           ("scores_empirical.csv", bin_rows),
                           ("regret_mc.csv", mc_rows)):
            header = [column for column, _ in cli.SCHEMAS[name]]
            assert read_text(os.path.join(out, name)) == reference_csv(header, rows)

    def test_sweep_artifacts(self, config_path, tmp_path):
        thetas = [-0.5, 0.5]
        out = str(tmp_path / "out")
        assert main([
            "sweep", "--config", config_path, "--theta=-0.5,0.5",
            "--tau-grid=-0.8:0.8:9", "--out", out,
        ]) == 0
        config = ModelConfig.from_dict(BASELINE_DOC)
        tau_grid = np.linspace(-0.8, 0.8, 9)
        score_rows, regret_rows = [], []
        for theta in thetas:
            s1 = score_s1(config, theta, tau_grid)
            s2 = score_s2(config, theta, tau_grid)
            cut = gamma1(config, theta, tau_grid)
            phi = float(marginal_posterior_phi(config, theta))
            signal = config.signal
            z_q = (cut - signal.conditional_gamma_mean(theta, qualified=True)) / signal.conditional_gamma_sd
            z_u = (cut - signal.conditional_gamma_mean(theta, qualified=False)) / signal.conditional_gamma_sd
            surv_q, surv_u = ndtr(-z_q), ndtr(-z_u)
            for j, tau in enumerate(tau_grid):
                score_rows.append(
                    (theta, tau, s1[j], s2[j], cut[j], phi, surv_q[j], surv_u[j])
                )
            for q in (0, 1):
                curves = regret_curve(config, theta, q, tau_grid)
                for algo in ALGOS:
                    for j, tau in enumerate(curves.tau):
                        regret_rows.append((
                            theta, q, tau, algo, curves.score[algo][j],
                            curves.n_ex_ante[algo][j], curves.accepted[algo][j],
                            curves.p_ex_post[algo][j], curves.u[algo][j],
                        ))
        average_rows = [
            (tau, expected_regret(config, "s1", float(tau)),
             expected_regret(config, "s2", float(tau)))
            for tau in tau_grid
        ]
        for name, rows in (("scores.csv", score_rows),
                           ("regret.csv", regret_rows),
                           ("average_regret.csv", average_rows)):
            header = [column for column, _ in cli.SCHEMAS[name]]
            assert read_text(os.path.join(out, name)) == reference_csv(header, rows)


class TestEntryPoint:
    def test_console_script_runs(self, config_path):
        proc = subprocess.run(
            [sys.executable, "-m", "screenlab.cli", "validate",
             "--config", config_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "accepted" in proc.stdout

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("argv,first", [
        (["scores", "--schema"], "scores.csv"),
        (["regret", "--schema"], "regret.csv"),
        (["tau", "--config", "gone.json", "--theta", "0", "--schema", "--out", "x"],
         "thresholds.json"),
        (["classify", "--config", "gone.json", "--schema", "--out", "x"],
         "environment.json"),
    ])
    def test_schema_needs_no_config_and_computes_nothing(
        self, tmp_path, monkeypatch, capsys, argv, first
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == first and "{" not in out
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["validate", "scores", "tau", "regret", "sweep", "classify"])
    def test_seed_is_a_simulate_option(self, config_path, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", config_path, "--seed", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["validate"], ["classify"], ["tau", "--theta", "0"],
        ["scores", "--theta", "0", "--out", "x"],
        ["simulate", "--tau", "0", "--out", "x"],
    ])
    def test_missing_config_exits_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "--config is required" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_global_schema_dump(self, capsys):
        assert main(["--schema"]) == 0
        out = capsys.readouterr().out
        for name in ("scores.csv", "regret.csv", "stage1.csv", "environment.json"):
            assert name in out


def readme_cli_examples() -> list[list[str]]:
    """argv of every `screenlab` call in README.md's CLI section: each line
    of its sh block, with backslash continuations joined, and each inline
    `screenlab ...` example of its prose."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block, prose = section.split("```sh\n", 1)[1].split("```", 1)
    lines = block.replace("\\\n", " ").splitlines()
    calls = [line for line in lines if line.startswith("screenlab ")]
    calls += re.findall(r"`(screenlab [^`]+)`", section.split("```sh\n", 1)[0] + prose)
    return [shlex.split(call)[1:] for call in calls]


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    argv = [os.path.join(ROOT, arg) if arg.startswith("configs/") else arg for arg in argv]
    assert main(argv) == 0
