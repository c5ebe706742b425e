"""Command-line interface: artifacts, manifests, determinism, exit codes."""
from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.special import ndtr

from screenlab import (
    ModelConfig,
    ScreeningError,
    empirical_scores,
    find_critical_prejudices,
    gamma1,
    marginal_posterior_phi,
    regret_curve,
    run_stage_one,
    sample_population,
    score_s1,
    score_s2,
)
from screenlab import cli, population, thresholds
from screenlab.cli import main, render_csv
from screenlab.regret import _regret_values
from screenlab.scores import ALGOS
from conftest import (
    BASELINE_DOC, EXTREME_CONFIGS, FLAT_THETA_DOC, HUGE_INT_TEXT, IRREGULAR_DOC,
    NONMONOTONE_PHI_DOC, WEAK_GAMMA_DOC,
)
from test_regret import oracle_expected_regret

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the package's own chunk size, read before any test patches it
CHUNK_ROWS = cli.CSV_CHUNK_ROWS


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


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


NEG_NAN = float(np.copysign(np.nan, -1.0))
PAYLOAD_NAN = float(np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0])
# floats that repeat often, including pairs equal by value but not by bits
FLOATS = st.sampled_from([0.0, -0.0, np.nan, NEG_NAN, PAYLOAD_NAN, np.inf, -np.inf,
                          5e-324, -5e-324, 0.1]) | st.floats()


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


@pytest.fixture()
def forked(monkeypatch):
    """3-row CSV chunks, so ``mixed_table`` has four; takes the CPU count the
    CLI sees and returns the list of forks it makes, one entry per call."""
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)
    forks = []
    fork = getattr(os, "fork", None)

    def counting():
        forks.append(None)
        return fork()

    # raising=False: the sweep test that counts no fork runs without os.fork too
    monkeypatch.setattr(os, "fork", counting, raising=False)

    def with_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        return forks

    return with_cpus


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the started renders fork only on POSIX")


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def existing_out(tmp_path):
    """An output directory that holds an earlier run's stage1.csv and
    scores.csv and a file of the user's."""
    kept = tmp_path / "kept"
    kept.mkdir()
    for name in ("stage1.csv", "scores.csv", "notes.txt"):
        (kept / name).write_bytes(b"earlier " + name.encode())
    return kept


def assert_left_as_found(kept) -> None:
    """``existing_out``'s directory holds its earlier files and no temp file."""
    assert sorted(os.listdir(kept)) == ["notes.txt", "scores.csv", "stage1.csv"]
    for name in os.listdir(kept):
        assert read_bytes(kept / name) == b"earlier " + name.encode()


def run_failing(argv, error) -> None:
    """main(argv) with a stage that raises ``error``: a ScreeningError exits
    2, and an interrupt leaves main as it came."""
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 2


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

    def test_non_utf8_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not UTF-8" in err

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

    @pytest.mark.parametrize("field,value", [
        ("pi", None), ("pi", [0.4]), ("pi", {}), ("mu_q", [1.0, "a"]),
    ], ids=["null", "list", "object", "bad-mu-entry"])
    def test_value_of_the_wrong_type_exits_1(self, tmp_path, capsys, field, value):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({**BASELINE_DOC, field: value}))
        assert main(["validate", "--config", str(path)]) == 1
        assert f"error: {field} must be a number" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exits_1(self, tmp_path, capsys):
        """json.loads raised a bare ValueError, printed as a traceback."""
        path = tmp_path / "huge.json"
        path.write_text(HUGE_INT_TEXT)
        assert main(["validate", "--config", str(path)]) == 1
        assert "error: config parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", EXTREME_CONFIGS)
    def test_derived_quantity_past_float_range_exits_1(self, tmp_path, capsys, name):
        """Each config failed its command with a traceback or a misleading
        error (tau=inf, a non-finite theta), a RuntimeWarning under Tier-1."""
        fields, command = EXTREME_CONFIGS[name]
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({**BASELINE_DOC, **fields}))
        assert main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error: ") and "too extreme" in err[-1]

    def test_flat_theta_posterior_exits_0(self, tmp_path, capsys):
        """The phi = beta breakpoint was searched for, and not found."""
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(FLAT_THETA_DOC))
        assert main(["validate", "--config", str(path)]) == 0
        assert "environment: regular" in capsys.readouterr().out

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
        manifest = json.loads(read_text(os.path.join(out, "run_manifest.json")))
        entry = manifest["outputs"][0]
        blob = read_bytes(os.path.join(out, "scores.csv"))
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
        assert entry["bytes"] == len(blob)
        raw = read_bytes(config_path)
        assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()

    def test_manifest_records_the_argv_given_to_main(self, config_path, tmp_path):
        """A run from Python records the list it passed, not the host
        process's command line."""
        out = str(tmp_path / "out")
        argv = ["scores", "--config", config_path, "--theta", "0.0",
                "--tau-grid=-0.5:0.5:3", "--out", out]
        assert main(argv) == 0
        manifest = json.loads(read_text(os.path.join(out, "run_manifest.json")))
        assert manifest["argv"] == argv

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
            outs.append(read_bytes(os.path.join(out, "scores.csv")))
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
        jumps = json.loads(read_text(os.path.join(out, "regret_jumps.json")))
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
        doc = json.loads(read_text(os.path.join(out, "thresholds.json")))
        assert doc["environment"]["classification"] == "regular"
        np.testing.assert_allclose(doc["tau_bar"], -0.4086591074919251, atol=1e-6)
        assert doc["tau_bar_reason"] is None
        assert [p["theta"] for p in doc["per_theta"]] == [-0.5, 0.5]
        avg = read_csv(os.path.join(out, "average_regret.csv"))
        assert len(avg) == 9
        manifest = json.loads(read_text(os.path.join(out, "run_manifest.json")))
        assert len(manifest["outputs"]) == 5

    def test_each_theta_rooted_once(self, config_path, tmp_path, monkeypatch):
        """The thresholds, both crossing reports and all four regret-curve
        jumps of a theta come from one root of its critical prejudices."""
        rooted = []
        real = thresholds.find_critical_prejudices

        def spy(config, theta):
            rooted.extend(np.atleast_1d(theta).tolist())
            return real(config, theta)

        monkeypatch.setattr(thresholds, "find_critical_prejudices", spy)
        assert main([
            "sweep", "--config", config_path, "--theta-grid=-2:2:21",
            "--tau-grid=-0.8:0.8:5", "--out", str(tmp_path / "out"),
        ]) == 0
        assert len(rooted) == 21
        np.testing.assert_allclose(sorted(rooted), np.linspace(-2.0, 2.0, 21), atol=1e-15)

    def test_one_regret_curve_call_per_bit(self, config_path, tmp_path, monkeypatch):
        """Every theta's regret curves of a bit come from one call."""
        calls = []
        real = cli.regret_curve

        def spy(config, theta, q, tau_grid, critical):
            calls.append((q, np.atleast_1d(theta).tolist()))
            return real(config, theta, q, tau_grid, critical)

        monkeypatch.setattr(cli, "regret_curve", spy)
        assert main([
            "sweep", "--config", config_path, "--theta-grid=-2:2:21",
            "--tau-grid=-0.8:0.8:5", "--out", str(tmp_path / "out"),
        ]) == 0
        assert [q for q, _ in calls] == [0, 1]
        for _, thetas in calls:
            np.testing.assert_allclose(thetas, np.linspace(-2.0, 2.0, 21), atol=1e-15)

    def test_unsupported_model_exits_2_without_output(self, tmp_path, capsys, forked):
        """tau_bar and the average regret both need phi increasing in theta:
        the sweep fails before it computes a table or forks a render."""
        forks = forked(2)
        path = tmp_path / "sideways.json"
        path.write_text(json.dumps(NONMONOTONE_PHI_DOC))
        out = tmp_path / "out"
        assert main([
            "sweep", "--config", str(path), "--theta", "1.0",
            "--tau-grid=-0.8:0.8:3", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err.startswith("numeric failure:")
        assert not out.exists() or not os.listdir(out)
        assert forks == []

    @needs_fork
    @pytest.mark.parametrize("error", [ScreeningError, KeyboardInterrupt])
    def test_failure_after_renders_start_leaves_no_child(
        self, config_path, tmp_path, monkeypatch, forked, error
    ):
        forks = forked(2)

        def failing(config, mode):
            assert forks, "scores.csv and regret.csv are forked before tau_bar"
            raise error("stopped")

        monkeypatch.setattr(cli, "find_tau_bar", failing)
        argv = ["sweep", "--config", config_path, "--theta=-0.5,0.5", "--tau-grid=-0.8:0.8:9"]
        out = tmp_path / "new" / "out"
        run_failing(argv + ["--out", str(out)], error)
        assert len(forks) == 2  # one child per started table
        assert_no_child_left()
        assert not (tmp_path / "new").exists()
        kept = existing_out(tmp_path)
        run_failing(argv + ["--out", str(kept)], error)
        assert len(forks) == 4
        assert_no_child_left()
        assert_left_as_found(kept)

    def test_irregular_tau_bar_null(self, tmp_path):
        path = tmp_path / "irr.json"
        path.write_text(json.dumps(IRREGULAR_DOC))
        out = str(tmp_path / "out")
        assert main([
            "sweep", "--config", str(path), "--theta", "1.0",
            "--tau-grid=-0.8:0.8:3", "--out", out,
        ]) == 0
        doc = json.loads(read_text(os.path.join(out, "thresholds.json")))
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
        env = json.loads(read_text(os.path.join(out, "environment.json")))
        assert env["classification"] == "regular"

    def test_same_seed_same_bytes(self, config_path, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main([
                "simulate", "--config", config_path, "--tau", "0.1",
                "--m", "5000", "--seed", "3", "--out", out,
            ]) == 0
            blobs.append(read_bytes(os.path.join(out, "stage1.csv")))
        assert blobs[0] == blobs[1]

    def test_missing_tau_exits_1(self, config_path, tmp_path):
        assert main([
            "simulate", "--config", config_path, "--out", str(tmp_path / "x"),
        ]) == 1

    def test_one_applicant_exits_1(self, config_path, tmp_path, capsys):
        """--m 1 exited 0 and wrote nan standard errors to regret_mc.csv."""
        out = tmp_path / "out"
        assert main([
            "simulate", "--config", config_path, "--tau", "0.0",
            "--m", "1", "--out", str(out),
        ]) == 1
        assert "needs m >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["negative", "2**128"])
    def test_seed_outside_philox_keys_exits_1(self, config_path, tmp_path, capsys, seed):
        """numpy's Philox printed a ValueError traceback for these seeds."""
        assert main([
            "simulate", "--config", config_path, "--tau", "0", "--m", "100",
            f"--seed={seed}", "--out", str(tmp_path / "o"),
        ]) == 1
        assert "error: seed must lie in [0, 2**128)" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,options,code,message", [
        (NONMONOTONE_PHI_DOC, ["--tau", "0.0"], 2,
         "numeric failure: classify_environment needs the coarse-signal posterior"),
        (BASELINE_DOC, ["--tau", "5.0"], 1,
         "error: tau=5.0 outside the open prejudice interval"),
        (BASELINE_DOC, ["--tau", "0.0", "--bins", "0"], 1,
         "error: theta bin count must be at least 1, got 0"),
        (BASELINE_DOC, ["--tau", "0.0", f"--seed={2**128 - 1}"], 1,
         f"error: seed must lie in [0, 2**128), as must seed + 1, the Monte Carlo "
         f"cohort's seed; got {2**128 - 1}"),
        (dict(BASELINE_DOC, mu_q=[1e-310, 1.0]), ["--tau", "0.0"], 1,
         "error: the phi = beta breakpoint is not finite"),
        (BASELINE_DOC, ["--tau", "0.0", "--m", "0"], 1,
         "error: population size must be at least 1, got 0"),
        (BASELINE_DOC, ["--tau", "0.0", "--m", "1"], 1,
         "error: a Monte Carlo standard error needs m >= 2, got 1"),
        (BASELINE_DOC, ["--tau", "0.0", "--m", str(10**30)], 1,
         f"error: population size {10**30} is too large to allocate"),
    ], ids=["nonmonotone-phi", "tau-outside-interval", "zero-bins", "last-seed",
            "subnormal-theta-shift", "m-0", "m-1", "m-too-large"])
    def test_bad_input_exits_before_sampling(
        self, tmp_path, monkeypatch, capsys, doc, options, code, message
    ):
        """These exited only after sampling; a falling phi, after stage one,
        binning and the MC regret too, the last seed and a subnormal theta
        shift only at or after the MC regret's own draw, and m = 1 only at
        the MC regret, where m = 0 and a size past the sampler's limit
        exited in the sampler itself."""
        sampled = []

        def spy(draw):
            def sample(config, m, seed, **options):
                sampled.append(m)
                return draw(config, m, seed, **options)
            return sample

        # mc_average_regret draws its cohort through the population module's
        # sampler, which sample_population calls too
        for module, name in ((cli, "sample_population"), (population, "sample_population"),
                             (population, "_draw")):
            monkeypatch.setattr(module, name, spy(getattr(module, name)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([
            # argparse keeps the last --m: the options' own comes after this one
            "simulate", "--config", str(path), "--m", "2000", *options, "--out", str(out),
        ]) == code
        assert message in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()

    @needs_fork
    @pytest.mark.parametrize("error", [ScreeningError, KeyboardInterrupt])
    def test_failure_after_render_starts_leaves_no_child(
        self, config_path, tmp_path, monkeypatch, forked, error
    ):
        forks = forked(2)

        def failing(config, tau, m, seed):
            assert forks, "stage1.csv is forked before the MC regret"
            raise error("stopped")

        monkeypatch.setattr(cli, "mc_average_regret", failing)
        argv = ["simulate", "--config", config_path, "--tau", "0.0", "--m", "2000",
                "--seed", "1"]
        out = tmp_path / "new" / "out"
        run_failing(argv + ["--out", str(out)], error)
        assert len(forks) == 1  # stage1.csv's one child
        assert_no_child_left()
        assert not (tmp_path / "new").exists()
        kept = existing_out(tmp_path)
        run_failing(argv + ["--out", str(kept)], error)
        assert len(forks) == 2
        assert_no_child_left()
        assert_left_as_found(kept)

    @needs_fork
    def test_manifest_hashes_every_file_written(self, config_path, tmp_path, monkeypatch,
                                                forked):
        """stage1.csv is written and hashed by its child, the small tables
        and the JSON from their texts; each entry is the file's."""
        forks = forked(2)
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", CHUNK_ROWS)
        out = tmp_path / "out"
        assert main([
            "simulate", "--config", config_path, "--tau", "0.0", "--m", "40000",
            "--seed", "4", "--out", str(out),
        ]) == 0
        assert len(forks) == 1
        manifest = json.loads(read_text(out / "run_manifest.json"))
        artifacts = sorted(cli.COMMANDS["simulate"].artifacts)
        assert sorted(os.listdir(out)) == sorted([*artifacts, "run_manifest.json"])
        assert [entry["name"] for entry in manifest["outputs"]] == artifacts
        for entry in manifest["outputs"]:
            blob = read_bytes(out / entry["name"])
            assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
            assert entry["bytes"] == len(blob)

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


def assert_same_text(got: str, want: str) -> None:
    """got == want, compared as lists of lines with their endings: equal
    exactly when the texts are, but a failure names the first differing
    line, where pytest's diff of two long texts runs for minutes."""
    assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


def mixed_table():
    """(header, columns, reference text) of an 11-row table of every cell
    kind: signed zeros, NaNs of other sign and payload, infinities, the
    smallest subnormal, integers, bools, masked labels, None and strings."""
    floats = np.array([0.1, -0.0, 5e-324, np.inf, np.nan, NEG_NAN, -np.inf,
                       PAYLOAD_NAN, 0.0, -0.0, -1 / 3])
    ints = np.array([0, -7, 2**40, 3, 3, 1, 0, 5, 5, -7, 9])
    flags = floats > 0
    labels = np.ma.MaskedArray(
        np.array([1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0], dtype=np.int8),
        mask=[False, True, True, False, False, True, False, False, True, False, True],
    )
    optional = [0.5, None, 1.0, None, 0.25, 0.125, None, 0.5, 0.5, None, -0.0]
    names = ["s1", "s2", "s1", "s2", "s1", "s2", "s1", "s1", "s2", "s2", "s1"]
    header = ["f", "i", "b", "label", "opt", "name"]
    rows = zip(
        floats, ints, flags,
        [None if gone else int(v) for v, gone in zip(labels.data, labels.mask)],
        optional, names,
    )
    return header, [floats, ints, flags, labels, optional, names], reference_csv(header, rows)


def stage1_table(theta, accepted, qualified):
    """(header, columns, reference text) of a stage1.csv-shaped table: the
    float ``theta``, the bool ``accepted`` and an int8 label masked where
    not accepted."""
    labels = np.ma.MaskedArray(qualified.astype(np.int8), mask=~accepted)
    rows = zip(theta, accepted, [int(q) if hired else None
                                 for q, hired in zip(qualified, accepted)])
    header = ["theta", "accepted", "q_label"]
    return header, [theta, accepted, labels], reference_csv(header, rows)


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
        assert_same_text(got, reference_csv(header, rows))

    def test_repeated_floats_across_chunks(self, monkeypatch):
        """Repeats within a chunk: signed zeros, NaNs of other sign and
        payload, infinities, the smallest subnormal and masked cells that
        hide repeated values keep the text of their own bits."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)
        zeros = np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0, -0.0])
        odd = np.array([np.nan, NEG_NAN, np.inf, PAYLOAD_NAN, np.nan, -np.inf,
                        5e-324, -np.inf, 5e-324, np.inf, NEG_NAN])
        hidden = np.ma.MaskedArray(
            [0.25, 0.25, -0.0, 0.25, 0.0, 0.0, 0.25, -0.0, -0.0, 0.25, 0.25],
            mask=[False, True, False, True, False, True, True, False, True, False, True],
        )
        distinct = np.linspace(-1.0, 1.0, len(zeros))
        header = ["zeros", "odd", "hidden", "distinct"]
        rows = zip(zeros, odd, [None if gone else v for v, gone in
                                zip(hidden.data, hidden.mask)], distinct)
        got = render_csv(header, [zeros, odd, hidden, distinct])
        assert_same_text(got, reference_csv(header, rows))
        assert "\n-0.0,nan,,-0.8\n" in got

    @given(cells=st.lists(st.tuples(FLOATS, FLOATS, st.booleans()), min_size=1, max_size=200),
           chunk=st.integers(1, 8))
    @settings(deadline=None, max_examples=150, derandomize=True)
    def test_float_columns_match_the_row_writer(self, cells, chunk):
        plain, hidden, mask = (list(column) for column in zip(*cells))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
            got = render_csv(["a", "b"], [np.array(plain),
                                          np.ma.MaskedArray(hidden, mask=mask)])
        rows = zip(plain, [None if gone else v for v, gone in zip(hidden, mask)])
        assert_same_text(got, reference_csv(["a", "b"], rows))

    @pytest.fixture()
    def repr_calls(self, monkeypatch):
        """Every value the CSV writer passes to ``repr``, in call order."""
        calls = []

        def counting(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(cli, "repr", counting, raising=False)
        return calls

    def test_repeated_bits_formatted_once_per_chunk(self, monkeypatch, repr_calls):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 4096)
        column = np.tile([0.0, -0.0, 0.5, np.nan, np.inf], 2_000)
        got = render_csv(["f"], [column])
        chunks = -(-len(column) // cli.CSV_CHUNK_ROWS)
        assert len(repr_calls) <= 5 * chunks
        assert_same_text(got, reference_csv(["f"], ([v] for v in column)))

    def test_distinct_floats_formatted_in_row_order(self, monkeypatch, blob_chunks,
                                                   repr_calls):
        """A column whose bits do not repeat is one blob per chunk, written
        in row order by orjson; ``repr`` sees only the values orjson writes
        in another form, |v| < 1e-4, each once."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 4096)
        column = np.linspace(-1.0, 1.0, 10_000) ** 3
        got = render_csv(["f"], [column])
        assert_same_text(got, reference_csv(["f"], ([v] for v in column)))
        assert blob_chunks == [4096, 4096, 1808]
        tiny = column[np.abs(column) < 1e-4]
        assert len(tiny) > 100 and not (tiny == 0).any()
        assert sorted(repr_calls) == sorted(tiny.tolist())

    @pytest.mark.parametrize("chunk_rows", [4, 64])
    def test_one_none_among_distinct_floats(self, monkeypatch, chunk_rows):
        """A float column with one None, its other values all distinct and
        none of them 0.0, the bits the None is masked over: the masked chunk
        is gathered by distinct value, as scores_empirical.csv's s1_hat
        column is when one bin has no accepted applicant."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        values = (np.linspace(-1.0, 1.0, 17) ** 3).tolist()
        values[8] = None  # the one 0.0
        values += [-0.0, 5e-324, np.inf, 1e16]
        assert len({float(v).hex() for v in values if v is not None}) == len(values) - 1
        rows = np.arange(len(values)) / 7
        got = render_csv(["row", "f"], [rows, values])
        assert_same_text(got, reference_csv(["row", "f"], zip(rows.tolist(), values)))
        assert "\n" + repr(8 / 7) + ",\n" in got

    @pytest.mark.parametrize("route", ["row order", "distinct bits"])
    def test_float_edges_match_the_row_writer(self, route):
        """Both sides of repr's switch between positional and exponent
        form, at +-1e-4 and +-1e16, the specials, and one value from every
        binary exponent, subnormals included."""
        edges = []
        for x in (1e-4, -1e-4, 1e16, -1e16):
            below = above = x
            for _ in range(3):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                edges += [below, above]
            edges.append(x)
        largest = np.finfo(np.float64).max
        specials = [0.0, -0.0, 5e-324, -5e-324, largest, -largest,
                    np.nan, NEG_NAN, PAYLOAD_NAN, np.inf, -np.inf]
        powers = np.ldexp(4 / 3, np.arange(-1074, 1024))
        column = np.concatenate([edges, specials, powers, -powers])
        bits = column.view(np.int64)
        # each bit pattern once, or tiled, so every one repeats in its chunk
        column = (column[np.unique(bits, return_index=True)[1]] if route == "row order"
                  else np.tile(column, 2))
        got = render_csv(["f"], [column])
        assert_same_text(got, reference_csv(["f"], ([v] for v in column)))

    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    @settings(deadline=None, max_examples=150, derandomize=True)
    def test_raw_bit_patterns_match_the_row_writer(self, bits):
        column = np.array(bits, dtype=np.uint64).view(np.float64)
        got = render_csv(["f"], [column])
        assert_same_text(got, reference_csv(["f"], ([v] for v in column)))

    @pytest.mark.parametrize("column", [
        np.array([0.1, 3e-5, 1e20, 0.1, -0.0], dtype=np.float32),
        np.array([0.1, 3e-5, 1e20, 0.1, -0.0, 3e-5], dtype=np.float32),
        np.array([0.1, 3e-5, 65504.0, 0.1, -0.0, np.inf], dtype=np.float16),
        np.linspace(0.0, 1e-3, 17)[::2],
    ], ids=["float32-odd", "float32-even", "float16", "strided"])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_float_widths_match_the_row_writer(self, monkeypatch, column, chunk_rows):
        """A narrower or strided float column is written as its float64
        values, alone, inside a gap with empty cells, and after a string."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        lead = np.arange(len(column)) / 7
        masked = np.ma.MaskedArray(column, mask=np.arange(len(column)) % 2 == 1)
        names = ["s1", "s2"] * (len(column) // 2) + ["s1"] * (len(column) % 2)
        hidden = [None if gone else v for v, gone in zip(column, masked.mask)]
        for header, columns, rows in (
            (["f"], [column], zip(column)),
            (["lead", "m", "f"], [lead, masked, column], zip(lead, hidden, column)),
            (["name", "f"], [names, column], zip(names, column)),
        ):
            got = render_csv(header, columns)
            assert_same_text(got, reference_csv(header, rows))

    @pytest.mark.parametrize("chunk_rows", [1, 3, 4, 64])
    def test_adjacent_coded_columns_merged(self, monkeypatch, chunk_rows):
        """Adjacent coded columns, a string, a bool, a masked int8 and an
        int spanning -7 to 2**40, before floats whose bits repeat: led by a
        string, every chunk is rendered cell by cell."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        floats, ints, flags, labels, _, names = mixed_table()[1]
        rows = zip(names, flags, [None if gone else int(v) for v, gone in
                                  zip(labels.data, labels.mask)], ints, floats)
        got = render_csv(["name", "b", "label", "i", "f"], [names, flags, labels, ints, floats])
        assert_same_text(got, reference_csv(["name", "b", "label", "i", "f"], rows))
        assert "\ns2,0,,-7,-0.0\n" in got

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_coded_last_column(self, monkeypatch, chunk_rows):
        """The newline rides the last column's coded texts, and a masked
        last cell leaves the bare newline."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        floats = np.linspace(-1.0, 1.0, 7) ** 3
        labels = np.ma.MaskedArray(np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.int8),
                                   mask=[False, True, False, False, True, False, True])
        got = render_csv(["f", "label"], [floats, labels])
        want = reference_csv(["f", "label"], zip(
            floats, [None if gone else int(v) for v, gone in zip(labels.data, labels.mask)]))
        assert_same_text(got, want)
        assert got.endswith(repr(1.0) + ",\n")

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_all_columns_coded(self, monkeypatch, chunk_rows):
        """A float column whose bits repeat, then one gap of wide ints,
        bools, a masked int8 and strings: a blob where the product of the
        gap's texts fits the 30 codes, cell by cell where it does not."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        _, ints, flags, labels, _, names = mixed_table()[1]
        repeated = np.tile([0.5, -0.0, np.nan], 4)[:len(ints)]
        rows = zip(repeated, ints, flags,
                   [None if gone else int(v) for v, gone in zip(labels.data, labels.mask)],
                   names)
        header = ["r", "i", "b", "label", "name"]
        got = render_csv(header, [repeated, ints, flags, labels, names])
        assert_same_text(got, reference_csv(header, rows))

    def test_one_row_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 1)
        header, columns, want = mixed_table()
        assert_same_text(render_csv(header, columns), want)

    @pytest.fixture()
    def blob_chunks(self, monkeypatch):
        """The rows of every table chunk that ``_blob`` took, in call order;
        the one-column blobs of a column's distinct floats, which ``_coded``
        writes by ``_blob``, are not counted."""
        rows, blob, coded, coding = [], cli._blob, cli._coded, []

        def counting(chunk):
            body = blob(chunk)
            if body is not None and not coding:
                rows.append(len(chunk[0]))
            return body

        def spying(column):
            coding.append(column)
            try:
                return coded(column)
            finally:
                coding.pop()

        monkeypatch.setattr(cli, "_blob", counting)
        monkeypatch.setattr(cli, "_coded", spying)
        return rows

    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 64])
    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1.5e-05, 2e+16, np.nan, np.inf])
    def test_blob_fix_ups_match_the_row_writer(self, monkeypatch, blob_chunks, value,
                                               chunk_rows):
        """Each value that ``repr`` writes in another form than orjson does,
        at the first, a middle and the last row of every chunk of a
        stage1.csv-shaped table, is spliced in by the blob route."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        rows = 21
        theta = np.linspace(0.25, 2.5, rows) * np.where(np.arange(rows) % 3, 1.0, -1.0)
        for lo in range(0, rows, chunk_rows):
            hi = min(lo + chunk_rows, rows)
            theta[[lo, (lo + hi) // 2, hi - 1]] = value
        accepted = np.arange(rows) % 4 != 1
        header, columns, want = stage1_table(theta, accepted, np.arange(rows) % 3 == 0)
        assert_same_text(render_csv(header, columns), want)
        assert blob_chunks == [min(chunk_rows, rows - lo) for lo in range(0, rows, chunk_rows)]

    @pytest.mark.parametrize("chunk_rows", [1, 5])
    def test_blob_all_rejected_chunk(self, monkeypatch, blob_chunks, chunk_rows):
        """A chunk of rejected applicants has one suffix, ``,0,\\n``; so has
        one of accepted qualified ones, ``,1,1\\n``."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        theta = np.linspace(-1.5, 1.5, 15) ** 3
        accepted = np.arange(15) >= 10
        header, columns, want = stage1_table(theta, accepted, accepted)
        got = render_csv(header, columns)
        assert_same_text(got, want)
        assert got.count(",0,\n") == 10 and got.count(",1,1\n") == 5
        assert sum(blob_chunks) == 15

    @pytest.mark.parametrize("rows", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                      2 * CHUNK_ROWS])
    def test_blob_chunk_edges(self, blob_chunks, rows):
        """At the package's chunk size, tables one row short of, at and past
        a chunk edge: every chunk takes the blob route."""
        config = ModelConfig.from_dict(BASELINE_DOC)
        data = run_stage_one(config, sample_population(config, rows, 21), 0.0)
        header, columns, want = stage1_table(data.theta, data.accepted, data.q_label.data == 1)
        assert_same_text(render_csv(header, columns), want)
        assert blob_chunks == [min(CHUNK_ROWS, rows - lo) for lo in range(0, rows, CHUNK_ROWS)]

    @pytest.mark.parametrize("distinct", [30, 31])
    def test_blob_route_takes_at_most_thirty_texts(self, monkeypatch, blob_chunks, distinct):
        """A float column followed by a column of thirty texts takes the
        blob route, one control byte each; of thirty-one, cell by cell."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 64)
        floats = np.linspace(-3.0, 3.0, 40) ** 3
        ints = (np.arange(40) * 7 % distinct).astype(np.int8)
        got = render_csv(["f", "i"], [floats, ints])
        assert_same_text(got, reference_csv(["f", "i"], zip(floats, ints)))
        assert blob_chunks == ([40] if distinct <= len(cli._CODES) == 30 else [])

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_regret_shaped_table(self, monkeypatch, blob_chunks, repr_calls, chunk_rows):
        """regret.csv's columns, float, int, float, str, float, float, int,
        float, float: one blob per chunk, whose gaps share the texts of
        ``q`` and ``accepted``, ``,0,`` and ``,1,``; its zeros and ``-0.0``
        never reach ``repr``."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        rows = 40
        step = np.arange(rows)
        theta = np.repeat([-0.5, 0.5], rows // 2)
        q = step // 10 % 2
        tau = np.tile(np.linspace(-0.9, 0.9, 10), 4)
        algo = np.array(["s1", "s2"] * (rows // 2))
        score = np.linspace(1e-6, 0.9, rows) ** 3
        n = np.where(step % 3, 0.25, -0.0)
        accepted = (step % 4 > 1).astype(np.int64)
        p = np.where(accepted == 1, n, 0.0)
        u = n - p
        header = ["theta", "q", "tau", "algo", "score", "n", "accepted", "p", "u"]
        columns = [theta, q, tau, algo, score, n, accepted, p, u]
        got = render_csv(header, columns)
        assert_same_text(got, reference_csv(header, zip(*columns)))
        assert blob_chunks == [min(chunk_rows, rows - lo) for lo in range(0, rows, chunk_rows)]
        assert 0.0 not in repr_calls and any(v < 1e-4 for v in repr_calls)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_masked_float_inside_a_gap(self, monkeypatch, blob_chunks, chunk_rows):
        """A float column with empty cells between two float columns is one
        of the gap's coded columns, in every chunk that holds an empty
        cell; a chunk without one dumps it with the other floats."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        lead = np.linspace(-1.0, 1.0, 12) ** 3
        hidden = [None if i % 5 == 2 else v for i, v in
                  enumerate([0.5, -0.0, 1e-7, 0.5, np.nan, 0.25] * 2)]
        flags = np.arange(12) % 2 == 0
        last = np.arange(12) / 3
        header = ["lead", "hidden", "flag", "last"]
        got = render_csv(header, [lead, hidden, flags, last])
        assert_same_text(got, reference_csv(header, zip(lead, hidden, flags, last)))
        assert blob_chunks == [min(chunk_rows, 12 - lo) for lo in range(0, 12, chunk_rows)]

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    @pytest.mark.parametrize("lead", ["string", "masked float"])
    def test_table_led_by_no_plain_float(self, monkeypatch, blob_chunks, chunk_rows, lead):
        """A table led by a string, or a chunk led by a float column with an
        empty cell, is rendered cell by cell; in one-row chunks, the rows
        whose lead cell is not empty are blobs."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        first = (["s1", "s2", "s1"] * 4 if lead == "string"
                 else [None, 0.5, -0.0] * 4)
        floats = np.linspace(-1.0, 1.0, 12) ** 3
        got = render_csv(["a", "f"], [first, floats])
        assert_same_text(got, reference_csv(["a", "f"], zip(first, floats)))
        assert blob_chunks == ([1] * 8 if lead == "masked float" and chunk_rows == 1 else [])

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_gap_of_more_than_thirty_texts(self, monkeypatch, blob_chunks, chunk_rows):
        """A gap whose columns' texts multiply past thirty is rendered cell
        by cell; a chunk short enough to stay at thirty is one blob."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        floats = np.linspace(-1.0, 1.0, 64) ** 3
        wide = np.arange(64) % 8
        labels = np.arange(64) % 5
        got = render_csv(["f", "w", "l"], [floats, wide, labels])
        assert_same_text(got, reference_csv(["f", "w", "l"], zip(floats, wide, labels)))
        assert blob_chunks == ([] if chunk_rows == 64 else [chunk_rows] * (64 // chunk_rows)
                               + [64 % chunk_rows] * bool(64 % chunk_rows))

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_gap_texts_shared_across_gaps(self, monkeypatch, blob_chunks, chunk_rows):
        """Three gaps with the same two texts, ``,0,`` and ``,1,``, and a
        fourth that closes the row: one control byte per text."""
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        rows = 33
        bits = [np.arange(rows) // k % 2 for k in (1, 2, 5)]
        floats = [np.linspace(-2.0, 2.0, rows) * k for k in (1, 3, 5, 7)]
        columns = [floats[0], bits[0], floats[1], bits[1], floats[2], bits[2], floats[3],
                   bits[0].astype(bool)]
        header = list("abcdefgh")
        got = render_csv(header, columns)
        assert_same_text(got, reference_csv(header, zip(*columns)))
        assert blob_chunks == [min(chunk_rows, rows - lo) for lo in range(0, rows, chunk_rows)]

    def test_control_byte_in_a_string_cell(self, blob_chunks):
        """A string cell that holds one of the blob's control bytes sends
        its chunk cell by cell, where the byte is kept as written."""
        columns = [np.array([1.0, 2.0]), np.array(["a\x02b", "c"])]
        got = render_csv(["f", "s"], columns)
        assert_same_text(got, reference_csv(["f", "s"], zip(*columns)))
        assert got == "f,s\n1.0,a\x02b\n2.0,c\n"
        assert blob_chunks == []

    @given(rows=st.lists(st.tuples(FLOATS, st.booleans(), st.booleans()), min_size=1,
                         max_size=200),
           chunk=st.integers(1, 8))
    @settings(deadline=None, max_examples=150, derandomize=True)
    def test_stage1_tables_match_the_row_writer(self, rows, chunk):
        theta, accepted, qualified = (np.array(column) for column in zip(*rows))
        header, columns, want = stage1_table(theta.astype(np.float64), accepted, qualified)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
            got = render_csv(header, columns)
        assert_same_text(got, want)

    def test_header_only_table(self):
        header = ["f", "i", "name", "opt"]
        columns = [np.array([]), np.array([], dtype=np.int64), np.array([], dtype=str), []]
        assert render_csv(header, columns) == reference_csv(header, []) == "f,i,name,opt\n"
        assert list(cli._render_rows(cli._columns(columns))) == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_chunk_ranges_rendered_in_process(self, forked, cpus):
        """render_csv forks no child at any CPU count: only the tables
        started ahead of their collection do."""
        forks = forked(cpus)
        header, columns, want = mixed_table()
        assert_same_text(render_csv(header, columns), want)
        assert forks == []

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
            assert_same_text(read_text(os.path.join(out, name)), reference_csv(header, rows))

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
                critical = find_critical_prejudices(config, theta)
                curves = regret_curve(config, theta, q, tau_grid, critical)
                for k, algo in enumerate(ALGOS):
                    for j, tau in enumerate(curves.tau):
                        regret_rows.append((
                            theta, q, tau, algo, curves.score[k][j],
                            curves.n_ex_ante[k][j], curves.accepted[k][j],
                            curves.p_ex_post[k][j], curves.u[k][j],
                        ))
        average_rows = [
            (tau, oracle_expected_regret(config, "s1", float(tau))[0],
             oracle_expected_regret(config, "s2", float(tau))[0])
            for tau in tau_grid
        ]
        for name, rows in (("scores.csv", score_rows),
                           ("regret.csv", regret_rows),
                           ("average_regret.csv", average_rows)):
            header = [column for column, _ in cli.SCHEMAS[name]]
            assert_same_text(read_text(os.path.join(out, name)), reference_csv(header, rows))


def started_csv(path, header, columns) -> str:
    """The text a table started to ``path`` wrote to its temp file, whose
    sha256 and size its collector reports."""
    with cli._start_csv(str(path), header, columns) as collect:
        report = collect()
    return reported_text(path, report)


def reported_text(path, report) -> str:
    """The text of ``path``'s temp file, once ``report`` is its sha256 and size."""
    blob = read_bytes(str(path) + ".tmp")
    assert report == (hashlib.sha256(blob).hexdigest(), len(blob))
    return blob.decode("utf-8")


@needs_fork
class TestStartedCsv:
    """A table started ahead of its collection writes render_csv's bytes to
    its temp file and reports their sha256 and size."""

    @pytest.mark.parametrize("cpus,chunk_rows", [(1, 3), (2, 3), (3, 3), (1, 64), (2, 64)])
    def test_one_child_per_table_at_start(self, forked, monkeypatch, tmp_path, cpus,
                                          chunk_rows):
        """One child writes the whole table, whatever the CPU and chunk
        counts; with one CPU none is forked."""
        forks = forked(cpus)
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        header, columns, want = mixed_table()
        path = tmp_path / "t.csv"
        with cli._start_csv(str(path), header, columns) as collect:
            assert len(forks) == (cpus > 1)
            report = collect()
        got = reported_text(path, report)
        assert_same_text(got, want)
        assert_same_text(got, render_csv(header, columns))
        assert_no_child_left()

    def test_failed_fork_renders_in_process(self, forked, monkeypatch, tmp_path):
        forked(3)

        def failing():
            raise OSError("no process left")

        monkeypatch.setattr(os, "fork", failing)
        header, columns, want = mixed_table()
        assert_same_text(started_csv(tmp_path / "t.csv", header, columns), want)
        assert_no_child_left()

    def test_failed_last_fork_renders_in_process(self, forked, monkeypatch, tmp_path):
        """Of two tables started as the sweep starts them, the one whose
        fork failed renders in process at its collection, after the other
        table's child is read."""
        forks = forked(3)
        fork = os.fork

        def last_fails():
            if len(forks) == 1:
                raise OSError("no process left")
            return fork()

        monkeypatch.setattr(os, "fork", last_fails)
        header, columns, want = mixed_table()
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        with ExitStack() as started:
            collectors = [started.enter_context(cli._start_csv(str(path), header, columns))
                          for path in paths]
            reports = [collect() for collect in collectors]
        for path, report in zip(paths, reports):
            assert_same_text(reported_text(path, report), want)
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("death", ["raise", "kill"])
    def test_failed_child_renders_in_process(self, forked, monkeypatch, tmp_path, death):
        forks = forked(3)
        parent, coded = os.getpid(), cli._coded

        def failing_in_children(column):
            if os.getpid() != parent:
                if death == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("child failed")
            return coded(column)

        monkeypatch.setattr(cli, "_coded", failing_in_children)
        header, columns, want = mixed_table()
        assert_same_text(started_csv(tmp_path / "t.csv", header, columns), want)
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("report", ["short", "wrong size"])
    def test_bad_report_renders_in_process(self, forked, monkeypatch, tmp_path, report):
        """A child that writes its table but sends a short report, or one
        whose size its temp file does not have, is not believed: the table
        is rendered, written and hashed again in process."""
        forks = forked(2)
        parent, write_csv, in_parent = os.getpid(), cli._write_csv, []

        def lying_in_children(path, head, columns):
            digest, size = write_csv(path, head, columns)
            if os.getpid() == parent:
                in_parent.append(path)
                return digest, size
            return (digest[:-2], size) if report == "short" else (digest, size + 1)

        monkeypatch.setattr(cli, "_write_csv", lying_in_children)
        header, columns, want = mixed_table()
        assert_same_text(started_csv(tmp_path / "t.csv", header, columns), want)
        assert in_parent == [str(tmp_path / "t.csv.tmp")]
        assert len(forks) == 1
        assert_no_child_left()

    def test_error_in_own_range_stops_children(self, forked, monkeypatch, tmp_path):
        """Of two tables started as the sweep starts them, the first's fork
        failed, so it renders at its collection while the second's child
        runs; an error there stops and reaps that child."""
        forks = forked(3)
        parent, coded, fork, failed = os.getpid(), cli._coded, os.fork, []

        def first_fails():
            if not failed:
                failed.append(None)
                raise OSError("no process left")
            return fork()

        def failing_in_parent(column):
            if os.getpid() == parent:
                raise MemoryError("parent failed")
            return coded(column)

        monkeypatch.setattr(os, "fork", first_fails)
        monkeypatch.setattr(cli, "_coded", failing_in_parent)
        header, columns, _ = mixed_table()
        with pytest.raises(MemoryError, match="parent failed"):
            with ExitStack() as started:
                first = started.enter_context(
                    cli._start_csv(str(tmp_path / "a.csv"), header, columns))
                started.enter_context(cli._start_csv(str(tmp_path / "b.csv"), header, columns))
                first()
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    @pytest.mark.parametrize("route", ["child", "fallback"])
    def test_started_tables_manifest_entries_match_files(
        self, forked, monkeypatch, config_path, tmp_path, route, command
    ):
        """Each started table's manifest sha256 and byte count, sent by its
        child or computed in process after a failed fork, are its file's,
        and no temp file is left.  The sweep's regret.csv over 21 thetas
        is 33,600 rows, three chunks; the 40,000-row stage1.csv is three."""
        forks = forked(2)
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", CHUNK_ROWS)
        if route == "fallback":
            def failing():
                raise OSError("no process left")

            monkeypatch.setattr(os, "fork", failing)
        options, started = {
            "sweep": (["--theta-grid=-2:2:21"], ["regret.csv", "scores.csv"]),
            "simulate": (["--tau", "0.0", "--m", "40000", "--seed", "1"], ["stage1.csv"]),
        }[command]
        out = tmp_path / "out"
        assert main([command, "--config", config_path, *options, "--out", str(out)]) == 0
        assert len(forks) == (len(started) if route == "child" else 0)
        assert_no_child_left()
        artifacts = sorted(cli.COMMANDS[command].artifacts)
        assert sorted(os.listdir(out)) == sorted([*artifacts, "run_manifest.json"])
        manifest = json.loads(read_text(out / "run_manifest.json"))
        entries = {entry["name"]: entry for entry in manifest["outputs"]}
        assert sorted(entries) == artifacts
        for name in started:
            blob = read_bytes(out / name)
            assert len(blob) > 500_000
            assert entries[name]["sha256"] == hashlib.sha256(blob).hexdigest()
            assert entries[name]["bytes"] == len(blob)

    def test_collection_holds_the_text_about_once(self, forked, monkeypatch, tmp_path):
        """Collecting a 200,000-row stage1.csv from its child holds none of
        its text: the child wrote and hashed it and sent 40 bytes.  (Two
        children's pieces held it about once, and decoding and joining them
        held it twice.)"""
        forks = forked(2)
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", CHUNK_ROWS)
        config = ModelConfig.from_dict(BASELINE_DOC)
        data = run_stage_one(config, sample_population(config, 200_000, 8), 0.0)
        path = tmp_path / "stage1.csv"
        with cli._start_csv(str(path), ["theta", "accepted", "q_label"],
                            [data.theta, data.accepted, data.q_label]) as collect:
            assert len(forks) == 1
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                _, size = collect()
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert size == os.path.getsize(str(path) + ".tmp") > 4_000_000
        assert peak <= size // 100
        assert_no_child_left()

    @pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
    def test_error_before_collection_stops_children(self, forked, tmp_path, error):
        forks = forked(3)
        header, columns, _ = mixed_table()
        with pytest.raises(error):
            with cli._start_csv(str(tmp_path / "t.csv"), header, columns):
                raise error()
        assert len(forks) == 1
        assert_no_child_left()


class TestEntryPoint:
    def test_console_script_runs(self, config_path):
        # the checkout's src/ first, so the module runs without an install
        path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "screenlab.cli", "validate",
             "--config", config_path],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
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

    @pytest.mark.parametrize("argv", [
        ["scores", "--theta-grid=-1:1:1000000000000000"],
        ["scores", "--theta", "0", "--tau-grid=-0.5:0.5:1000000000000000"],
        ["simulate", "--tau", "0", "--m", "1000000000000000"],
        ["simulate", "--tau", "0", "--bins", "1000000000000000"],
        *[argv for n in (10**22, 2**60) for argv in (
            ["scores", f"--theta-grid=-1:1:{n}"],
            ["scores", "--theta", "0", f"--tau-grid=-0.5:0.5:{n}"],
            ["simulate", "--tau", "0", "--m", str(n)],
            ["simulate", "--tau", "0", "--m", "100", "--bins", str(n)],
        )],
    ])
    def test_size_too_large_to_allocate_exits_1(self, config_path, tmp_path, capsys, argv):
        """10**15 float64 elements (7 PiB) are refused before any allocation.
        numpy raised a plain ValueError past intp in elements (10**22) or in
        bytes (2**60 float64s), which escaped as a traceback."""
        out = str(tmp_path / "out")
        assert main(argv + ["--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error: ") and "too large to allocate" in err[-1]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("where", ["file", "under a file"])
    @pytest.mark.parametrize("command", [name for name, command in cli.COMMANDS.items()
                                         if command.artifacts])
    def test_out_that_cannot_be_a_directory_exits_1(
        self, config_path, tmp_path, monkeypatch, capsys, command, where
    ):
        """An --out that names a file, or a path under one, exits 1 with an
        error line before any work; os.makedirs raised a bare
        FileExistsError traceback, for simulate after the whole run."""
        drawn, draw = [], population._draw

        def spy(*args, **options):
            drawn.append(args)
            return draw(*args, **options)

        monkeypatch.setattr(population, "_draw", spy)
        taken = tmp_path / "taken"
        taken.write_bytes(b"a file")
        out = taken if where == "file" else taken / "out"
        options = {"scores": ["--theta", "0"], "tau": ["--theta", "0"],
                   "regret": ["--theta", "0", "--q", "1"], "sweep": ["--theta", "0"],
                   "simulate": ["--tau", "0", "--m", "2000"], "classify": []}[command]
        assert main([command, "--config", config_path, *options, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {str(out)!r}: ")
        assert drawn == []
        assert sorted(os.listdir(tmp_path)) == ["config.json", "taken"]
        assert read_bytes(taken) == b"a file"

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


def test_readme_python_example_runs(monkeypatch, capsys):
    """README's Python API block, run from the repo root as written; what
    it prints holds Python floats, not numpy scalars."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert "np.float64" not in capsys.readouterr().out


def test_artifact_digest_runs_parse(tmp_path):
    """Every run of scripts/artifact_digests.py is a valid invocation with
    an existing config, and the config table generator it runs exists, so
    the byte-identity check cannot rot."""
    path = os.path.join(ROOT, "scripts", "artifact_digests.py")
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert os.path.isfile(digests.GENERATOR)
    parser = cli.build_parser()
    for name, template in digests.RUNS.items():
        args = parser.parse_args([str(tmp_path) if a == digests.OUT else a for a in template])
        assert os.path.isfile(args.config), name
        assert (digests.OUT in template) != cli.COMMANDS[args.command].stdout, name
