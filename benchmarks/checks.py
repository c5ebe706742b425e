"""Output checks by routes independent of the program.

Each check returns a list of failure messages; an empty list means the
artifacts passed.  Values are compared with the reference closed forms in
reference.py, within the tolerances pinned in the repository's tests, so
an ulp-level drift in the program's arithmetic is not a failure but a wrong
cell, a dropped row or a shifted root is.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

from reference import Model
from workloads import ARTIFACTS, MANIFEST, SWEEP_TAU_POINTS, hash_artifacts

SCORE_RTOL = 1e-9           # tests/test_scores.py, scores against quadrature
GAMMA1_ATOL = 1e-10         # tests/test_acceptance.py, GAMMA1_DUAL_TOL
TAU_ATOL = 1e-12            # grid values: the same linspace up to rounding
PAYOFF_ATOL = 1e-9          # n, p and u follow from a score within SCORE_RTOL
TAU_STAR_ATOL = 1e-9        # tests/test_cli.py, tau_star
TAU_BAR_ATOL = 1e-6         # tests/test_cli.py, tau_bar
AVERAGE_REGRET_ATOL = 5e-8  # tests/test_regret.py, against scipy quadrature
COUNT_RTOL = 1e-12          # an empirical rate against its recount
BIN_BAND_SIGMA = 3.0        # tests/test_acceptance.py, criterion 10
BIN_MIN_FRACTION = 0.95
BIN_MIN_CHECKS = 50
BIN_MIN_N = 1000
BIN_MIN_ACCEPTED = 100
MC_SE_FACTOR = 5.0          # Monte Carlo results against their analytic value

SCORES_HEADER = ["theta", "tau", "s1", "s2", "gamma1", "phi", "surv_q", "surv_u"]
REGRET_HEADER = ["theta", "q", "tau", "algo", "score", "n", "accepted", "p", "u"]
AVERAGE_HEADER = ["tau", "avg_regret_s1", "avg_regret_s2"]
STAGE1_HEADER = "theta,accepted,q_label"
BINS_HEADER = ["theta_lo", "theta_hi", "n", "n_accepted", "s2_hat", "s2_se",
               "s1_hat", "s1_se"]
MC_HEADER = ["algo", "tau", "m", "seed", "value", "standard_error"]


class CheckFailed(Exception):
    """An artifact is malformed, so its remaining checks cannot run."""


def _read_csv(path: str, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{os.path.basename(path)}: header is not {header}")
    return rows[1:]


def _floats(values, what: str) -> np.ndarray:
    try:
        return np.array([float(v) if v != "" else math.nan for v in values])
    except ValueError as exc:
        raise CheckFailed(f"{what}: {exc}") from exc


def _compare(failures: list[str], what: str, got, want, *, rtol=0.0, atol=0.0,
             mask=None) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol, equal_nan=True)
    if mask is not None:
        bad &= mask
    if bad.any():
        i = int(np.argmax(bad))
        failures.append(
            f"{what}: {int(bad.sum())} of {bad.size} values differ from the "
            f"reference, first at index {i}: {float(got.flat[i])!r} vs {float(want.flat[i])!r}"
        )


def _expect_rows(name: str, rows: list, count: int) -> None:
    if len(rows) != count:
        raise CheckFailed(f"{name}: {len(rows)} rows, expected {count}")


# =====================================================================
# sweep-baseline
# =====================================================================

def check_sweep(out_dir: str, inputs: dict, model: Model, tau_bar: float) -> list[str]:
    """scores.csv and regret.csv cell by cell, every tau_star, tau_bar and a
    sample of average_regret.csv rows."""
    failures: list[str] = []
    thetas = np.array(inputs["thetas"])
    grid = model.tau_grid(SWEEP_TAU_POINTS)
    for check in (_check_scores, _check_regret, _check_thresholds, _check_average):
        try:
            check(failures, out_dir, inputs, model, thetas, grid, tau_bar)
        except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
            failures.append(f"{check.__name__}: {exc}")
    return failures


def _check_scores(failures, out_dir, inputs, model, thetas, grid, tau_bar):
    rows = _read_csv(os.path.join(out_dir, "scores.csv"), SCORES_HEADER)
    _expect_rows("scores.csv", rows, len(thetas) * len(grid))
    values = np.array(rows, dtype=float)
    theta, tau = values[:, 0], values[:, 1]
    _compare(failures, "scores.csv theta", theta, np.repeat(thetas, len(grid)))
    _compare(failures, "scores.csv tau", tau, np.tile(grid, len(thetas)), atol=TAU_ATOL)
    ref = model.scores(theta, tau)
    for j, column in enumerate(SCORES_HEADER[2:], start=2):
        if column == "gamma1":
            _compare(failures, "scores.csv gamma1", values[:, j], ref[column],
                     atol=GAMMA1_ATOL)
        else:
            _compare(failures, f"scores.csv {column}", values[:, j], ref[column],
                     rtol=SCORE_RTOL)


def _check_regret(failures, out_dir, inputs, model, thetas, grid, tau_bar):
    rows = _read_csv(os.path.join(out_dir, "regret.csv"), REGRET_HEADER)
    _expect_rows("regret.csv", rows, len(thetas) * 4 * len(grid))
    columns = list(zip(*rows))
    algo = np.array(columns[3])
    values = np.array([c for j, c in enumerate(columns) if j != 3], dtype=float)
    theta, q, tau, score, n, accepted, p, u = values
    # rows run theta by theta, then q in (0, 1), then algo in (s1, s2), then tau
    _compare(failures, "regret.csv theta", theta, np.repeat(thetas, 4 * len(grid)))
    _compare(failures, "regret.csv q", q, np.tile(np.repeat([0, 1], 2 * len(grid)), len(thetas)))
    want_algo = np.tile(np.repeat(["s1", "s2"], len(grid)), 2 * len(thetas))
    if not np.array_equal(algo, want_algo):
        failures.append("regret.csv algo: rows are not ordered s1 then s2 per (theta, q)")
    _compare(failures, "regret.csv tau", tau, np.tile(grid, 4 * len(thetas)), atol=TAU_ATOL)
    ref = model.scores(theta, tau)
    want_score = np.where(algo == "s1", ref["s1"], ref["s2"])
    want_n = want_score * model.x_q - (1.0 - want_score) * model.x_u
    # a score within rounding of beta may land on either side of the cutoff
    decided = np.abs(want_n - model.c) > PAYOFF_ATOL
    want_accepted = want_n > model.c
    want_p = np.where(want_accepted, np.where(q == 1, model.x_q, -model.x_u), 0.0)
    _compare(failures, "regret.csv score", score, want_score, rtol=SCORE_RTOL)
    _compare(failures, "regret.csv n", n, want_n, atol=PAYOFF_ATOL)
    _compare(failures, "regret.csv accepted", accepted, want_accepted, mask=decided)
    _compare(failures, "regret.csv p", p, want_p, mask=decided)
    _compare(failures, "regret.csv u", u, want_n - want_p, atol=PAYOFF_ATOL, mask=decided)


def _check_thresholds(failures, out_dir, inputs, model, thetas, grid, tau_bar):
    with open(os.path.join(out_dir, "thresholds.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    per_theta = doc["per_theta"]
    _expect_rows("thresholds.json per_theta", per_theta, len(thetas))
    _compare(failures, "thresholds.json theta", [d["theta"] for d in per_theta], thetas)
    _compare(failures, "thresholds.json tau_star", [d["tau_star"] for d in per_theta],
             [model.tau_star(t) for t in thetas], atol=TAU_STAR_ATOL)
    if doc["tau_bar"] is None:
        failures.append(f"thresholds.json tau_bar: null ({doc['tau_bar_reason']})")
    else:
        _compare(failures, "thresholds.json tau_bar", doc["tau_bar"], tau_bar,
                 atol=TAU_BAR_ATOL)


def _check_average(failures, out_dir, inputs, model, thetas, grid, tau_bar):
    rows = _read_csv(os.path.join(out_dir, "average_regret.csv"), AVERAGE_HEADER)
    _expect_rows("average_regret.csv", rows, len(grid))
    values = np.array(rows, dtype=float)
    _compare(failures, "average_regret.csv tau", values[:, 0], grid, atol=TAU_ATOL)
    for r in inputs["checked_average_rows"]:
        tau = float(values[r, 0])
        for j, algo in ((1, "s1"), (2, "s2")):
            _compare(failures, f"average_regret.csv row {r} {AVERAGE_HEADER[j]}", values[r, j],
                     model.expected_regret(algo, tau), atol=AVERAGE_REGRET_ATOL)


# =====================================================================
# simulate-1m
# =====================================================================

def check_simulate(out_dir: str, inputs: dict, model: Model) -> list[str]:
    """stage1.csv's shape and labels, the binned scores against a recount and
    against the analytic scores, and the MC regret against quadrature."""
    failures: list[str] = []
    try:
        theta, accepted, labels = _read_stage1(out_dir, inputs["m"])
        if not np.all((accepted == 0) | (accepted == 1)):
            failures.append("stage1.csv accepted: values other than 0 and 1")
        accepted = accepted == 1
        if not np.all(labels[~accepted] == -1):
            failures.append("stage1.csv q_label: a rejected applicant carries a label")
        if not np.all((labels[accepted] == 0) | (labels[accepted] == 1)):
            failures.append("stage1.csv q_label: an accepted applicant lacks a 0/1 label")
        _check_bins(failures, out_dir, inputs, model, theta, accepted, labels)
    except (CheckFailed, OSError, ValueError) as exc:
        failures.append(f"stage1.csv / scores_empirical.csv: {exc}")
    try:
        _check_mc_regret(failures, out_dir, inputs, model)
    except (CheckFailed, OSError, ValueError) as exc:
        failures.append(f"regret_mc.csv: {exc}")
    return failures


def _read_stage1(out_dir: str, m: int):
    with open(os.path.join(out_dir, "stage1.csv"), encoding="utf-8") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if header != STAGE1_HEADER:
        raise CheckFailed(f"stage1.csv: header is not {STAGE1_HEADER!r}")
    # rejected rows leave q_label empty; mark them -1 so every row parses
    values = np.loadtxt(io.StringIO(body.replace(",\n", ",-1\n")), delimiter=",",
                        ndmin=2)
    if values.shape != (m, 3):
        raise CheckFailed(f"stage1.csv: {values.shape[0]} rows of {values.shape[1]} "
                          f"columns, expected {m} rows of 3")
    return values[:, 0], values[:, 1], values[:, 2]


def _check_bins(failures, out_dir, inputs, model, theta, accepted, labels):
    rows = _read_csv(os.path.join(out_dir, "scores_empirical.csv"), BINS_HEADER)
    if not rows:
        raise CheckFailed("scores_empirical.csv: no bins")
    lo, hi, n, n_acc, s2_hat, _, s1_hat, _ = (
        _floats(col, f"scores_empirical.csv {name}") for name, col in zip(BINS_HEADER, zip(*rows))
    )
    if lo[0] != theta.min() or hi[-1] != theta.max() or np.any(hi[:-1] != lo[1:]):
        raise CheckFailed("scores_empirical.csv: bins do not tile the sampled theta range")
    # bins are [lo, hi), the last one closed
    member = np.searchsorted(hi[:-1], theta, side="right")
    bins = len(lo)
    count = np.bincount(member, minlength=bins)
    count_acc = np.bincount(member[accepted], minlength=bins)
    qualified = np.bincount(member[accepted], weights=labels[accepted], minlength=bins)
    _compare(failures, "scores_empirical.csv n (recount)", n, count)
    _compare(failures, "scores_empirical.csv n_accepted (recount)", n_acc, count_acc)
    _compare(failures, "scores_empirical.csv s2_hat (recount)", s2_hat,
             count_acc / count, rtol=COUNT_RTOL)
    with np.errstate(invalid="ignore", divide="ignore"):
        want_s1 = np.where(count_acc > 0, qualified / count_acc, math.nan)
    _compare(failures, "scores_empirical.csv s1_hat (recount)", s1_hat, want_s1,
             rtol=COUNT_RTOL)

    ref = model.scores(theta, inputs["tau"])
    s2, s1 = ref["s2"], ref["s1"]
    mean_s2 = np.bincount(member, weights=s2, minlength=bins) / np.maximum(count, 1)
    band_s2 = BIN_BAND_SIGMA * np.sqrt(
        np.bincount(member, weights=s2 * (1 - s2), minlength=bins)
    ) / np.maximum(count, 1)
    acc_member = member[accepted]
    s1_acc = s1[accepted]
    mean_s1 = np.bincount(acc_member, weights=s1_acc, minlength=bins) / np.maximum(count_acc, 1)
    band_s1 = BIN_BAND_SIGMA * np.sqrt(
        np.bincount(acc_member, weights=s1_acc * (1 - s1_acc), minlength=bins)
    ) / np.maximum(count_acc, 1)
    checked_s2 = count >= BIN_MIN_N
    checked_s1 = count_acc >= BIN_MIN_ACCEPTED
    within = (np.abs(s2_hat - mean_s2) <= band_s2)[checked_s2].sum() + (
        np.abs(s1_hat - mean_s1) <= band_s1
    )[checked_s1].sum()
    checks = int(checked_s2.sum() + checked_s1.sum())
    if checks < BIN_MIN_CHECKS or within / checks < BIN_MIN_FRACTION:
        failures.append(
            f"scores_empirical.csv: {int(within)} of {checks} bin estimates lie within "
            f"{BIN_BAND_SIGMA} sigma of the analytic scores; need {BIN_MIN_FRACTION:.0%} "
            f"of at least {BIN_MIN_CHECKS}"
        )


def _check_mc_regret(failures, out_dir, inputs, model):
    rows = _read_csv(os.path.join(out_dir, "regret_mc.csv"), MC_HEADER)
    if [row[0] for row in rows] != ["s1", "s2"]:
        raise CheckFailed("expected one row for s1 and one for s2")
    for algo, tau, m, seed, value, se in rows:
        tau, value, se = float(tau), float(value), float(se)
        if (tau, int(m), int(seed)) != (inputs["tau"], inputs["m"], inputs["sim_seed"] + 1):
            failures.append(
                f"regret_mc.csv {algo}: inputs ({tau}, {m}, {seed}) do not match the run"
            )
            continue
        exact = model.expected_regret(algo, tau)
        if not (se > 0.0 and abs(value - exact) <= MC_SE_FACTOR * se):
            failures.append(
                f"regret_mc.csv {algo}: {value!r} is not within {MC_SE_FACTOR} SE "
                f"({se!r}) of the quadrature value {exact!r}"
            )


# =====================================================================
# tau-bar-mc and the manifest
# =====================================================================

def check_tau_bar(outcome: dict, tau_bar: float) -> list[str]:
    value, se = outcome.get("value"), outcome.get("standard_error")
    if value is None or se is None or not (math.isfinite(se) and se > 0.0):
        return [f"tau_bar: no root with a positive standard error ({value!r}, {se!r})"]
    if abs(value - tau_bar) > MC_SE_FACTOR * se:
        return [f"tau_bar: {value!r} is not within {MC_SE_FACTOR} SE ({se!r}) "
                f"of the analytic value {tau_bar!r}"]
    return []


def check_manifest(out_dir: str, workload: str, hashes: dict[str, str]) -> list[str]:
    """The artifact set is complete and run_manifest.json hashes it correctly."""
    if sorted(hashes) != sorted(ARTIFACTS[workload]):
        return [f"artifacts {sorted(hashes)} are not {sorted(ARTIFACTS[workload])}"]
    try:
        with open(os.path.join(out_dir, MANIFEST), encoding="utf-8") as fh:
            listed = {e["name"]: e["sha256"] for e in json.load(fh)["outputs"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{MANIFEST}: unreadable ({exc})"]
    if listed != hashes:
        return [f"{MANIFEST}: listed hashes do not match the artifacts on disk"]
    return []


def evaluate(inputs: dict, ops: list[dict], out_dir: str,
             model: Model) -> tuple[list[str], list[bool]]:
    """Failure messages, and for each operation whether it failed.

    Every operation of a run has the same inputs.  The artifacts left on
    disk are checked once; an operation of a file-writing workload passes
    when it returned success and wrote exactly those bytes.
    """
    workload = inputs["workload"]
    if workload == "tau-bar-mc":
        tau_bar = model.tau_bar()
        failures, failed = [], []
        for i, op in enumerate(ops):
            problems = [] if op["ok"] else [op["error"]]
            problems += check_tau_bar(op, tau_bar) if op["ok"] else []
            failures += [f"operation {i}: {p}" for p in problems]
            failed.append(bool(problems))
        return failures, failed

    try:
        hashes = hash_artifacts(out_dir)
    except OSError as exc:
        return [f"artifacts unreadable: {exc}"], [True] * len(ops)
    artifact_failures = check_manifest(out_dir, workload, hashes)
    if not artifact_failures:
        if workload == "sweep-baseline":
            artifact_failures = check_sweep(out_dir, inputs, model, model.tau_bar())
        else:
            artifact_failures = check_simulate(out_dir, inputs, model)
    failures, failed = list(artifact_failures), []
    for i, op in enumerate(ops):
        if not op["ok"]:
            failures.append(f"operation {i}: {op['error']}")
        elif op["hashes"] != hashes:
            failures.append(f"operation {i}: wrote other bytes than the checked artifacts")
        failed.append(bool(artifact_failures) or not op["ok"] or op["hashes"] != hashes)
    return failures, failed
