"""Command-line entry point emitting reproducible CSV/JSON artifacts.

Subcommands compose the library modules: ``validate`` checks a config and
prints its certificate, ``scores``/``regret`` emit curve tables, ``tau``
locates the per-applicant thresholds, ``sweep`` reproduces the full set of
figures' data for a config, ``simulate`` runs the Monte Carlo population
pipeline, and ``classify`` reports the environment class.

Conventions shared by all subcommands:

* numbers are serialized in shortest round-trip decimal form, so reruns
  with identical inputs produce byte-identical CSV bodies;
* files are written atomically (temp file, then rename) and every output
  directory receives exactly one ``run_manifest.json``, written last,
  recording the config digest, seeds, command line, and output hashes;
* tau grids are given as ``min:max:count`` and are clamped to the open
  prejudice interval with a printed notice when that changes anything;
* exit status 0 means success, 1 a validation failure (bad config or
  arguments), 2 a runtime/numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from time import perf_counter

import numpy as np

from . import __version__
from .model import (
    DomainError,
    InvalidModelError,
    ModelConfig,
    ScreeningError,
    UnsupportedModelError,
    validate_mlrp,
)
from .population import (
    classify_environment,
    empirical_scores,
    mc_average_regret,
    run_stage_one,
    sample_population,
)
from .regret import expected_regret, regret_curve
from .scores import ALGOS, clamped_tau_interval, score_table
from .thresholds import (
    find_regret_crossings,
    find_tau_bar,
    threshold_report,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2

SCHEMAS: dict[str, list[tuple[str, str]]] = {
    "scores.csv": [
        ("theta", "coarse signal value of the grid row"),
        ("tau", "prejudice level of the grid row"),
        ("s1", "outcome-trained score: P(qualified | theta, accepted)"),
        ("s2", "acceptance-trained score: P(accepted | theta)"),
        ("gamma1", "fine-signal cutoff above which the reviewer accepts"),
        ("phi", "qualification posterior given theta alone"),
        ("surv_q", "P(gamma > gamma1 | qualified, theta)"),
        ("surv_u", "P(gamma > gamma1 | unqualified, theta)"),
    ],
    "regret.csv": [
        ("theta", "coarse signal value"),
        ("q", "realized qualification bit"),
        ("tau", "prejudice level"),
        ("algo", "which score generated the row: s1 or s2"),
        ("score", "score value at (theta, tau)"),
        ("n", "ex ante payoff of the scored applicant"),
        ("accepted", "second-stage decision: 1 when n exceeds the cutoff"),
        ("p", "ex post payoff actually realized"),
        ("u", "regret loss n - p"),
    ],
    "regret_jumps.json": [
        ("theta/q", "curve identity"),
        ("jumps[].algo", "score whose curve jumps"),
        ("jumps[].tau_d", "critical prejudice where the jump sits"),
        ("jumps[].height", "signed jump height"),
    ],
    "thresholds.json": [
        ("per_theta[].theta", "coarse signal value"),
        ("per_theta[].tau_star", "equalizing prejudice"),
        ("per_theta[].tau_d1", "outcome-trained critical prejudice or null"),
        ("per_theta[].tau_d2", "acceptance-trained critical prejudice"),
        ("per_theta[].equalized_score", "common score value at tau_star"),
        ("per_theta[].ordering", "d1<d2, d2<d1, d1=d2 or d1-absent"),
        ("per_theta[].crossings_q0/q1", "regret-curve crossing reports"),
        ("tau_bar", "population indifference prejudice or null"),
        ("tau_bar_reason", "why tau_bar is null, e.g. irregular"),
        ("environment", "regular/irregular classification report"),
    ],
    "average_regret.csv": [
        ("tau", "prejudice level of the grid row"),
        ("avg_regret_s1", "population mean regret of the outcome-trained score"),
        ("avg_regret_s2", "population mean regret of the acceptance-trained score"),
    ],
    "stage1.csv": [
        ("theta", "coarse signal, visible downstream"),
        ("accepted", "first-stage decision"),
        ("q_label", "qualification bit, empty when rejected (selective labels)"),
    ],
    "scores_empirical.csv": [
        ("theta_lo", "bin lower edge (quantile binning)"),
        ("theta_hi", "bin upper edge"),
        ("n", "applicants in the bin"),
        ("n_accepted", "accepted applicants in the bin"),
        ("s2_hat", "empirical acceptance rate"),
        ("s2_se", "binomial standard error of s2_hat"),
        ("s1_hat", "empirical qualified fraction among accepted, empty when none"),
        ("s1_se", "binomial standard error of s1_hat, empty when none"),
    ],
    "regret_mc.csv": [
        ("algo", "score whose regret was averaged"),
        ("tau", "prejudice level"),
        ("m", "population size"),
        ("seed", "generator seed"),
        ("value", "Monte Carlo average regret"),
        ("standard_error", "sample standard error of the mean"),
    ],
    "environment.json": [
        ("alpha_q", "P(phi(Theta) <= beta | qualified)"),
        ("alpha_u", "P(phi(Theta) <= beta | unqualified)"),
        ("rhs", "right side of the regularity inequality"),
        ("lhs", "x_u / x_q"),
        ("classification", "regular or irregular"),
        ("theta_beta", "theta at which phi meets beta"),
    ],
}


# =====================================================================
# Small serialization helpers
# =====================================================================

def write_atomic(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


# Rows are formatted this many at a time, so a 1e6-row file never holds a
# Python string per cell for the whole table at once.
CSV_CHUNK_ROWS = 65_536


def _cells(column: np.ndarray) -> list[str]:
    """Text of each cell of one column; masked cells are empty."""
    values = np.ma.getdata(column)
    if values.dtype.kind == "f":
        cells = np.fromiter(map(repr, values.tolist()), dtype=object, count=len(values))
    else:
        # flags, labels and names repeat: format each distinct value once
        if values.dtype.kind == "b":
            values = values.astype(np.int8)
        distinct, inverse = np.unique(values, return_inverse=True)
        cells = np.array([str(v) for v in distinct.tolist()], dtype=object)[inverse]
    cells[np.ma.getmaskarray(column)] = ""
    return cells.tolist()


def _as_column(values) -> np.ndarray:
    """A sequence as an array, with None entries masked."""
    if isinstance(values, np.ndarray):
        return values
    missing = [v is None for v in values]
    return np.ma.masked_array(
        [0 if gone else v for v, gone in zip(values, missing)], mask=missing
    )


def render_csv(header: list[str], columns) -> str:
    """CSV text of equal-length columns under one header line.

    Floats are written in shortest round-trip form (``repr``), integers
    and bools as integers, strings as given; masked cells and None are
    empty.  No cell needs quoting: the package writes no commas, quotes
    or newlines inside a cell.
    """
    columns = [_as_column(column) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ValueError("CSV columns must have equal lengths")
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        cells = [_cells(column[start:start + CSV_CHUNK_ROWS]) for column in columns]
        buf.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return buf.getvalue()


def render_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@dataclass
class RunManifest:
    """Reproducibility record for one output directory."""

    config_path: str
    config_sha256: str
    seed: int | None
    argv: list[str] = field(default_factory=lambda: sys.argv[1:] or ["<api>"])
    started_utc: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def write(
        self, out_dir: str, texts: dict[str, str], timings: dict | None = None
    ) -> None:
        """Hash ``texts``, the artifacts just written to ``out_dir`` by
        name, into ``run_manifest.json``; ``timings`` maps a stage name to
        its seconds and is recorded when given."""
        entries = []
        for name in sorted(texts):
            # write_atomic writes UTF-8 with no newline translation
            blob = texts[name].encode("utf-8")
            entries.append({
                "name": name,
                "sha256": hashlib.sha256(blob).hexdigest(),
                "bytes": len(blob),
            })
        doc = {
            "tool": "screenlab",
            "version": __version__,
            "config_path": self.config_path,
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "argv": self.argv,
            "started_utc": self.started_utc,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "outputs": entries,
        }
        if timings is not None:
            doc["timings"] = timings
        write_atomic(os.path.join(out_dir, "run_manifest.json"), render_json(doc))


# =====================================================================
# Argument plumbing
# =====================================================================

def _load_config(path: str) -> tuple[ModelConfig, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidModelError(f"cannot read config {path!r}: {exc}") from exc

    def reject_constant(name: str):
        raise InvalidModelError(
            f"config {path!r} contains {name}; every value must be finite"
        )

    try:
        doc = json.loads(raw.decode("utf-8"), parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise InvalidModelError(
            f"config parse error in {path!r} at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InvalidModelError("config document must be a JSON object")
    return ModelConfig.from_dict(doc), hashlib.sha256(raw).hexdigest()


def _parse_grid(spec: str, *, name: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"{name} must look like min:max:count, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"cannot parse {name} {spec!r}: {exc}") from exc
    if not lo < hi:
        raise DomainError(f"{name} needs min < max, got {spec!r}")
    if count <= 1:
        raise DomainError(f"{name} needs more than one point, got {spec!r}")
    return lo, hi, count


def _tau_grid(config: ModelConfig, spec: str | None) -> np.ndarray:
    lo, hi = clamped_tau_interval(config.payoffs)
    if spec is None:
        return np.linspace(lo, hi, 400)
    g_lo, g_hi, count = _parse_grid(spec, name="tau grid")
    c_lo, c_hi = max(g_lo, lo), min(g_hi, hi)
    if (c_lo, c_hi) != (g_lo, g_hi):
        print(
            f"notice: tau grid clamped to [{c_lo!r}, {c_hi!r}] "
            "(endpoint evaluation is undefined)",
            file=sys.stderr,
        )
    if not c_lo < c_hi:
        raise DomainError(
            f"tau grid {spec!r} lies outside the open prejudice interval"
        )
    return np.linspace(c_lo, c_hi, count)


def _theta_values(args) -> list[float]:
    if (args.theta is None) == (args.theta_grid is None):
        raise DomainError("pass exactly one of --theta and --theta-grid")
    if args.theta is not None:
        try:
            values = [float(part) for part in str(args.theta).split(",") if part]
        except ValueError as exc:
            raise DomainError(f"cannot parse theta list {args.theta!r}") from exc
        if not values:
            raise DomainError("theta list is empty")
    else:
        lo, hi, count = _parse_grid(args.theta_grid, name="theta grid")
        values = [float(t) for t in np.linspace(lo, hi, count)]
    for value in values:
        if not math.isfinite(value):
            raise DomainError(f"theta={value!r} is not finite")
    return values


def _print_schema(names) -> None:
    for name in names:
        print(name)
        for column, doc in SCHEMAS[name]:
            print(f"  {column}: {doc}")


def _required(args, option: str):
    value = getattr(args, option)
    if value is None:
        raise DomainError(f"--{option} is required for {args.command}")
    return value


def _csv(name: str, columns) -> str:
    return render_csv([column for column, _ in SCHEMAS[name]], columns)


def _field_columns(name: str, records) -> list[list]:
    """Columns of ``name`` read from the same-named fields of ``records``."""
    return [[getattr(r, column) for r in records] for column, _ in SCHEMAS[name]]


def _concat(parts) -> list[np.ndarray]:
    """Join per-block column lists into one list of columns."""
    return [np.concatenate(blocks) for blocks in zip(*parts)]


# =====================================================================
# Subcommands: each maps (config, args, lap) to {artifact name: text}.
# lap(stage) records the seconds since the previous lap; a command that
# laps gets a ``timings`` block in its manifest.
# =====================================================================

def cmd_validate(config, args, lap) -> dict[str, str]:
    certificate = validate_mlrp(config.signal)
    print(
        "MLRP certificate: accepted "
        f"(w_theta={certificate.w_theta!r}, w_gamma={certificate.w_gamma!r})"
    )
    print(f"beta = {config.beta!r}")
    try:
        report = classify_environment(config)
        print(f"environment: {report.classification}")
    except UnsupportedModelError as exc:
        print(f"environment: unavailable ({exc})")
    return {}


def cmd_scores(config, args, lap) -> dict[str, str]:
    thetas = _theta_values(args)
    tau_grid = _tau_grid(config, args.tau_grid)
    columns = _concat(score_table(config, theta, tau_grid) for theta in thetas)
    return {"scores.csv": _csv("scores.csv", columns)}


def _threshold_doc(config, theta) -> dict:
    doc = asdict(threshold_report(config, theta))
    for q in (0, 1):
        doc[f"crossings_q{q}"] = asdict(find_regret_crossings(config, theta, q))
    return doc


def cmd_tau(config, args, lap) -> dict[str, str]:
    docs = [
        _threshold_doc(config, theta) if args.q is None
        else asdict(find_regret_crossings(config, theta, args.q))
        for theta in _theta_values(args)
    ]
    return {"thresholds.json": render_json(docs[0] if len(docs) == 1 else docs)}


def _regret_outputs(config, theta, q, tau_grid):
    """regret.csv columns (rows by algo, then tau) and the jump doc."""
    curves = regret_curve(config, theta, q, tau_grid)
    k = len(curves.tau)
    columns = [
        np.full(2 * k, theta), np.full(2 * k, q), np.tile(curves.tau, 2),
        np.repeat(ALGOS, k),
    ] + [
        np.concatenate([field[algo] for algo in ALGOS])
        for field in (curves.score, curves.n_ex_ante, curves.accepted,
                      curves.p_ex_post, curves.u)
    ]
    jumps = {
        "theta": curves.theta,
        "q": curves.q,
        "jumps": [asdict(jump) for jump in curves.jumps],
    }
    return columns, jumps


def cmd_regret(config, args, lap) -> dict[str, str]:
    theta, q = _required(args, "theta"), _required(args, "q")
    tau_grid = _tau_grid(config, args.tau_grid)
    columns, jumps = _regret_outputs(config, theta, q, tau_grid)
    return {
        "regret.csv": _csv("regret.csv", columns),
        "regret_jumps.json": render_json(jumps),
    }


def cmd_sweep(config, args, lap) -> dict[str, str]:
    thetas = _theta_values(args)
    tau_grid = _tau_grid(config, args.tau_grid)

    score_columns = _concat(score_table(config, theta, tau_grid) for theta in thetas)

    regret_parts, jump_docs = zip(*(
        _regret_outputs(config, theta, q, tau_grid) for theta in thetas for q in (0, 1)
    ))

    per_theta = [_threshold_doc(config, theta) for theta in thetas]

    try:
        env_doc = asdict(classify_environment(config))
        bar = find_tau_bar(config, "analytic")
        tau_bar, reason = bar.value, bar.reason
    except UnsupportedModelError as exc:
        env_doc = None
        tau_bar, reason = None, f"unsupported: {exc}"

    averages = [
        [expected_regret(config, algo, float(tau)) for algo in ALGOS]
        for tau in tau_grid
    ]

    return {
        "scores.csv": _csv("scores.csv", score_columns),
        "regret.csv": _csv("regret.csv", _concat(regret_parts)),
        "regret_jumps.json": render_json(jump_docs),
        "thresholds.json": render_json({
            "per_theta": per_theta,
            "tau_bar": tau_bar,
            "tau_bar_reason": reason,
            "environment": env_doc,
        }),
        "average_regret.csv": _csv(
            "average_regret.csv", [tau_grid, *np.array(averages).T]
        ),
    }


def cmd_simulate(config, args, lap) -> dict[str, str]:
    tau = _required(args, "tau")
    population = sample_population(config, args.m, args.seed)
    lap("sample_s")
    data = run_stage_one(config, population, tau)
    lap("stage_one_s")
    bins = empirical_scores(data, args.bins)
    lap("binning_s")
    estimates = mc_average_regret(config, tau, args.m, args.seed + 1)
    lap("mc_regret_s")
    report = classify_environment(config)
    lap("classify_s")
    texts = {
        "stage1.csv": _csv("stage1.csv", [data.theta, data.accepted, data.q_label]),
        "scores_empirical.csv": _csv(
            "scores_empirical.csv", _field_columns("scores_empirical.csv", bins)
        ),
        "regret_mc.csv": _csv(
            "regret_mc.csv", _field_columns("regret_mc.csv", estimates)
        ),
        "environment.json": render_json(asdict(report)),
    }
    lap("render_s")
    return texts


def cmd_classify(config, args, lap) -> dict[str, str]:
    return {"environment.json": render_json(asdict(classify_environment(config)))}


# =====================================================================
# Command table, runner and entry point
# =====================================================================

@dataclass(frozen=True)
class Command:
    """A subcommand's function, help line and artifacts in ``--schema``
    order; with ``stdout`` set, a run without ``--out`` prints its one
    artifact instead of failing."""

    fn: Callable
    help: str
    artifacts: tuple[str, ...] = ()
    stdout: bool = False


COMMANDS = {
    "validate": Command(cmd_validate, "check a config and print its certificate"),
    "scores": Command(cmd_scores, "emit the analytic score table", ("scores.csv",)),
    "tau": Command(cmd_tau, "locate thresholds per theta (JSON)",
                   ("thresholds.json",), stdout=True),
    "regret": Command(cmd_regret, "emit regret curves for one applicant",
                      ("regret.csv", "regret_jumps.json")),
    "sweep": Command(cmd_sweep, "emit the full artifact set for a config", (
        "scores.csv", "regret.csv", "regret_jumps.json", "thresholds.json",
        "average_regret.csv",
    )),
    "simulate": Command(cmd_simulate, "run the Monte Carlo population pipeline", (
        "stage1.csv", "scores_empirical.csv", "regret_mc.csv", "environment.json",
    )),
    "classify": Command(cmd_classify, "report the environment class (JSON)",
                        ("environment.json",), stdout=True),
}


def run(args) -> int:
    """Print schemas, or load the config, run the command and print its
    artifact or write every artifact and the manifest to ``--out``."""
    command = COMMANDS[args.command]
    if command.artifacts and args.schema:
        _print_schema(command.artifacts)
        return EXIT_OK
    out = getattr(args, "out", None)
    if command.artifacts and not (out or command.stdout):
        raise DomainError(f"--out is required for {args.command}")
    config, digest = _load_config(_required(args, "config"))
    manifest = RunManifest(
        config_path=args.config, config_sha256=digest, seed=getattr(args, "seed", None)
    )
    timings, clock = {}, [perf_counter()]

    def lap(stage: str) -> None:
        clock.append(perf_counter())
        timings[stage] = clock[-1] - clock[-2]

    texts = command.fn(config, args, lap)
    if not out:
        for text in texts.values():
            print(text, end="")
        return EXIT_OK
    os.makedirs(out, exist_ok=True)
    for name, text in texts.items():
        write_atomic(os.path.join(out, name), text)
    if timings:
        lap("write_s")
    manifest.write(out, texts, timings or None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screenlab",
        description="Two-stage screening model laboratory",
    )
    parser.add_argument(
        "--schema", action="store_true",
        help="print every artifact schema and exit",
    )
    parser.add_argument(
        "--version", action="version", version=f"screenlab {__version__}"
    )
    sub = parser.add_subparsers(dest="command")
    p = {}
    for name, command in COMMANDS.items():
        p[name] = sub.add_parser(name, help=command.help)
        p[name].add_argument("--config", help="model config JSON path")
        if command.artifacts:
            p[name].add_argument("--out", help="output directory"
                                 + ("" if command.stdout else " (required)"))
            p[name].add_argument("--schema", action="store_true",
                                 help="print this subcommand's artifact schemas and exit")
    for name in ("scores", "tau", "sweep"):
        p[name].add_argument("--theta", help="comma-separated theta values")
        p[name].add_argument("--theta-grid", help="theta grid as min:max:count")
    for name in ("scores", "regret", "sweep"):
        p[name].add_argument("--tau-grid", help="tau grid as min:max:count (clamped)")
    p["tau"].add_argument("--q", type=int,
                          help="emit the regret-crossing report for this bit instead")
    p["regret"].add_argument("--theta", type=float, help="coarse signal value")
    p["regret"].add_argument("--q", type=int, help="realized qualification bit, 0 or 1")
    p["simulate"].add_argument("--tau", type=float, help="prejudice level to replay")
    p["simulate"].add_argument("--m", type=int, default=100_000, help="population size")
    p["simulate"].add_argument("--bins", type=int, default=50, help="theta quantile bins")
    p["simulate"].add_argument("--seed", type=int, default=0, help="generator seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if args.schema:
            _print_schema(SCHEMAS)
            return EXIT_OK
        parser.print_help()
        return EXIT_INVALID
    try:
        return run(args)
    except (InvalidModelError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ScreeningError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
