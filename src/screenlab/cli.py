"""Command-line entry point emitting reproducible CSV/JSON artifacts.

Subcommands compose the library modules: ``validate`` checks a config and
prints its certificate, ``scores``/``regret`` emit curve tables, ``tau``
locates the per-applicant thresholds, ``sweep`` reproduces the full set of
figures' data for a config, ``simulate`` runs the Monte Carlo population
pipeline, and ``classify`` reports the environment class.

Conventions shared by all subcommands:

* numbers are serialized in shortest round-trip decimal form, the text
  ``repr`` gives, so reruns with identical inputs produce byte-identical
  CSV bodies; CSV floats are written by orjson, and by ``repr`` only
  where orjson's layout differs from it;
* CSV rows are rendered as UTF-8 bytes, ``CSV_CHUNK_ROWS`` at a time.  A
  chunk whose first column is a float without empty cells, as every
  package table but regret_mc.csv's is, is one orjson blob of all such
  float columns, row by row; the byte after each float cell is set to a
  code for the text up to the next float cell, which carries the other
  columns' cells, such as stage1.csv's ``,1,0\\n``.  A chunk whose texts
  between float cells are too many for the 30 codes, as
  scores_empirical.csv's ``n`` and ``n_accepted`` make them, and a chunk
  led by another column are rendered cell by cell, each distinct text of
  a column formatted once;
* ``sweep``'s scores.csv and regret.csv and ``simulate``'s stage1.csv are
  started as soon as their columns exist: on POSIX systems with more
  than one CPU available, one child per table is forked to render it,
  write it to its temp file in ``--out`` and hash exactly those bytes
  while the later stages run, and it sends back only their sha256 and
  size.  Where the fork or the child fails, the table is rendered, written
  and hashed in process; the bytes are the same, and no option selects
  either.  Every other CSV is rendered in process and decoded once, and
  every other artifact is encoded once, for its file and its hash;
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
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from time import perf_counter

import numpy as np
import orjson

from . import __version__
from .model import (
    DomainError,
    InvalidModelError,
    ModelConfig,
    ScreeningError,
    UnsupportedModelError,
    load_config,
    require_size,
    validate_mlrp,
)
from .population import (
    _require_mc_size,
    classify_environment,
    empirical_scores,
    mc_average_regret,
    run_stage_one,
    sample_population,
)
from .regret import expected_regret, regret_curve
from .scores import ALGOS, clamped_tau_interval, log_acceptance_threshold, score_table
from .thresholds import (
    _available_cpus,
    find_critical_prejudices,
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

def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temp file and rename it to ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


# Rows are formatted this many at a time, so a 1e6-row file never holds a
# Python string per cell for the whole table at once, and a started table's
# child writes and hashes each chunk as it is rendered: at most one chunk's
# text is held.
CSV_CHUNK_ROWS = 16_384

# the bytes the text between two float cells of a blob is set to: a bare
# separator keeps its own byte, and any other text takes one of 30 control
# bytes, none of which orjson writes in a float array
_BARE = {b",": ord(","), b"\n": ord("\n")}
_CODES = bytes(code for code in range(1, 32) if code != ord("\n"))


def _coded(column: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """The distinct texts of one column chunk and each row's index into
    them: row i reads ``texts[codes[i]]``.

    Floats are told apart by their bits, not their value, so ``-0.0`` keeps
    its sign, and the distinct ones are written as one column by ``_blob``.
    A one-byte integer or bool chunk is coded by its offset from its least
    value, with no sort.  A masked cell takes one more text, the empty one.
    """
    values = np.ma.getdata(column)
    if values.dtype.kind in "biu" and values.dtype.itemsize == 1:
        codes = values.astype(np.intp)
        least = int(codes.min())
        codes -= least
        texts = [b"%d" % v for v in range(least, least + int(codes.max()) + 1)]
    elif values.dtype.kind == "f":
        distinct, codes = np.unique(values.view(np.int64), return_inverse=True)
        texts = _blob([distinct.view(np.float64)]).split(b"\n")[:-1]
    else:
        distinct, codes = np.unique(values, return_inverse=True)
        texts = [str(v).encode() for v in distinct.tolist()]
    mask = np.ma.getmaskarray(column)
    if mask.any():
        codes += mask * (len(texts) - codes)  # a third of a boolean setitem's time
        texts.append(b"")
    return texts, codes


def _blob(chunk: list[np.ndarray]) -> bytes | None:
    """CSV lines of a chunk whose first column is an unmasked float, or
    None when the chunk cannot be assembled this way.

    One ``orjson.dumps`` writes every unmasked float column, row by row, as
    ``[v0,v1,...]``, with the shortest digits that round-trip, as ``repr``
    chooses them, and in ``repr``'s layout where that is positional,
    1e-4 <= |v| < 1e16, or a zero.  The other columns ride the separators:
    the byte after each float cell, a ``,`` or the closing ``]``, is set to
    the byte of the text up to the next float cell (a ``,`` before each cell
    between, then a ``,`` or the newline), whose texts are the product of
    those columns' ``_coded`` texts.  The ``repr`` text of every other
    float, once per distinct bit pattern, is spliced in between the bytes
    that bound it; then one ``bytes.replace`` per control byte given out
    puts in its text.  None past 30 texts that need a control byte, or when
    one of them holds such a byte.
    """
    floats = [i for i, column in enumerate(chunk)
              if column.dtype.kind == "f" and not np.ma.is_masked(column)]
    if floats[:1] != [0]:
        return None
    seps = np.empty((len(chunk[0]), len(floats)), dtype=np.uint8)
    coded: dict[bytes, int] = {}  # each text past _BARE -> its control byte
    for k, (i, j) in enumerate(zip(floats, floats[1:] + [len(chunk)])):
        texts, codes = [b""], 0
        for column in chunk[i + 1:j]:
            cells, column_codes = _coded(column)
            if len(texts) * len(cells) > len(_CODES):
                return None
            texts = [text + b"," + cell for text in texts for cell in cells]
            column_codes += codes * len(cells)
            codes = column_codes
        end = b"," if j < len(chunk) else b"\n"
        texts = [text + end for text in texts]
        for text in texts:
            if text not in _BARE and text not in coded:
                if len(coded) == len(_CODES) or not set(text).isdisjoint(_CODES):
                    return None
                coded[text] = _CODES[len(coded)]
        seps[:, k] = np.array([_BARE.get(text) or coded[text] for text in texts],
                              dtype=np.uint8)[codes]
    values = (np.ascontiguousarray(np.ma.getdata(chunk[0])) if len(floats) == 1  # no copy
              else np.stack([np.ma.getdata(chunk[i]) for i in floats], axis=1).ravel())
    buf = np.frombuffer(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY),
                        dtype=np.uint8).copy()
    buf[-1] = ord(",")
    ends = np.flatnonzero(buf == ord(","))  # the byte after each cell
    buf[ends] = seps.ravel()
    body = buf[1:].tobytes()  # no "["; a cell's end is one byte earlier here
    size = np.abs(values)
    outside = np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (values != 0))
    if len(outside):
        stops = ends[outside] - 1
        starts = np.where(outside > 0, ends[outside - 1], 0)
        pieces, done, fixed = [], 0, {}  # fixed: the text of each bit pattern
        for start, stop, bits, value in zip(starts.tolist(), stops.tolist(),
                                            values[outside].view(np.int64).tolist(),
                                            values[outside].tolist()):
            if bits not in fixed:
                fixed[bits] = repr(value).encode()
            pieces += (body[done:start], fixed[bits])
            done = stop
        pieces.append(body[done:])
        body = b"".join(pieces)
    for text, code in coded.items():
        body = body.replace(bytes((code,)), text)  # one scan where it does not occur
    return body


def _columns(columns) -> list[np.ndarray]:
    """CSV columns as arrays, a sequence's None entries masked and every
    float column widened to float64; ValueError unless their lengths are
    equal."""
    arrays = [values if isinstance(values, np.ndarray) else np.ma.masked_array(
        [0 if v is None else v for v in values], mask=[v is None for v in values]
    ) for values in columns]
    arrays = [array.astype(np.float64) if array.dtype.kind == "f"
              and array.dtype != np.float64 else array for array in arrays]
    if len({len(array) for array in arrays}) > 1:
        raise ValueError("CSV columns must have equal lengths")
    return arrays


def _render_rows(columns) -> Iterator[bytes]:
    """CSV lines of every row of ``columns`` as UTF-8, one bytes per
    ``CSV_CHUNK_ROWS`` chunk, in row order.

    A chunk led by an unmasked float column is one orjson blob, assembled
    by ``_blob``, whose separators carry the other columns.  Any other
    chunk, or one ``_blob`` cannot take, is rendered cell by cell: one join
    of tokens, each a cell's ``_coded`` text and its separator, row by row.
    """
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        chunk = [column[lo:lo + CSV_CHUNK_ROWS] for column in columns]
        lines = _blob(chunk)
        if lines is None:
            tokens = [b""] * (len(chunk) * len(chunk[0]))
            for i, (column, sep) in enumerate(zip(chunk, seps)):
                texts, codes = _coded(column)
                tokens[i::len(chunk)] = np.array([text + sep for text in texts],
                                                 dtype=object)[codes].tolist()
            lines = b"".join(tokens)
        yield lines


def _write_csv(path: str, head: bytes, columns) -> tuple[str, int]:
    """Write ``head`` and then the CSV lines of ``columns`` to ``path``,
    each chunk as it is rendered; the sha256 hex digest and size of exactly
    the bytes written."""
    digest, size = hashlib.sha256(head), len(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for chunk in _render_rows(columns):
            fh.write(chunk)
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def _fork_write(path: str, head: bytes, columns) -> tuple[int, io.BufferedReader] | None:
    """Fork a child that writes a CSV to ``path`` by ``_write_csv`` and
    sends its report down a pipe: the 32-byte sha256 and the size as 8
    big-endian bytes.

    Returns the child's pid and the pipe's read end, or None when the fork
    fails.  The child leaves by ``os._exit``, never returning into the
    caller or flushing its stdio: status 0 once the report is sent, 1 on
    any exception.  A fork copies only the calling thread, which is safe
    here because the child calls no BLAS (whose threads it would lack),
    only orjson's single-threaded ``dumps``, ``repr``, sorts, ``tolist``
    and hashlib; a spawned child would instead pay a fresh import and a
    copy of the columns.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            digest, size = _write_csv(path, head, columns)
            with open(write_fd, "wb") as pipe:
                pipe.write(bytes.fromhex(digest) + size.to_bytes(8, "big"))
            status = 0
        finally:
            os._exit(status)
    # closed here, so the parent sees EOF when the child exits
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _child_report(pid: int, pipe: io.BufferedReader) -> tuple[str, int] | None:
    """The (sha256 hex digest, size) a forked child sent, or None when it
    failed or its report is short.  Reaps the child."""
    with pipe:
        report = pipe.read()
    if os.waitpid(pid, 0)[1] != 0 or len(report) != 40:
        return None
    return report[:32].hex(), int.from_bytes(report[32:], "big")


@contextmanager
def _start_csv(path: str, header: list[str],
               columns) -> Iterator[Callable[[], tuple[str, int]]]:
    """Start writing the CSV text of ``render_csv`` to ``path + ".tmp"``;
    yield its collector.

    Where more than one CPU is available, one child is forked here, which
    renders every row, writes the temp file and hashes exactly those bytes
    while the caller goes on, and sends back only their sha256 and size.
    The collector returns that (hex digest, size) once the temp file is
    seen to have that size.  With one CPU, a failed fork, or a child that
    raised, was killed or sent a short or bad report, it renders, writes
    and hashes in process instead: the bytes are the same either way.
    Leaving the ``with`` block, even by a raise, stops and reaps a child
    not yet collected; the caller removes or renames the temp file.
    """
    columns = _columns(columns)
    tmp = path + ".tmp"
    head = (",".join(header) + "\n").encode("utf-8")
    child = (_fork_write(tmp, head, columns)
             if hasattr(os, "fork") and _available_cpus() > 1 else None)

    def collect() -> tuple[str, int]:
        nonlocal child
        report = _child_report(*child) if child else None
        child = None  # reaped
        if report is None or os.path.getsize(tmp) != report[1]:
            report = _write_csv(tmp, head, columns)
        return report

    try:
        yield collect
    finally:
        # only a raise or an uncalled collector leaves the child: stop, reap
        if child:
            from signal import SIGKILL
            pid, pipe = child
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def render_csv(header: list[str], columns) -> str:
    """CSV text of equal-length columns under one header line, rendered in
    process.

    Floats of any width are written as their float64 value in shortest
    round-trip form, as ``repr`` writes it; integers and bools as
    integers, strings as given; masked cells and None are empty.  No cell
    needs quoting: the package writes no commas, quotes or newlines inside
    a cell.  Rows are rendered as bytes ``CSV_CHUNK_ROWS`` at a time by
    ``_render_rows`` and decoded once; floats are told apart by their bits,
    so ``0.0`` and ``-0.0`` keep their text.
    """
    return ",".join(header) + "\n" + b"".join(_render_rows(_columns(columns))).decode()


def render_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@dataclass
class RunManifest:
    """Reproducibility record for one output directory."""

    config_path: str
    config_sha256: str
    seed: int | None
    argv: list[str]
    started_utc: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def write(
        self, out_dir: str, artifacts: dict[str, bytes | tuple[str, int]],
        timings: dict | None = None,
    ) -> None:
        """Record ``artifacts``, the files just written to ``out_dir`` by
        name, in ``run_manifest.json``, written as UTF-8 JSON: each as the
        sha256 hex digest and size of its bytes, or of a started table, as
        the (digest, size) its writer reported.  ``timings`` maps a stage
        name to its seconds and is recorded when given."""
        entries = []
        for name in sorted(artifacts):
            data = artifacts[name]
            digest, size = ((hashlib.sha256(data).hexdigest(), len(data))
                            if isinstance(data, bytes) else data)
            entries.append({"name": name, "sha256": digest, "bytes": size})
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
        write_atomic(os.path.join(out_dir, "run_manifest.json"),
                     render_json(doc).encode("utf-8"))


# =====================================================================
# Argument plumbing
# =====================================================================

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
    require_size(f"{name} point count", count, 2)
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


def _header(name: str) -> list[str]:
    return [column for column, _ in SCHEMAS[name]]


def _csv(name: str, columns) -> str:
    return render_csv(_header(name), columns)


def _started(args, name: str, columns):
    """``_start_csv`` of artifact ``name`` of ``--out``."""
    return _start_csv(os.path.join(args.out, name), _header(name), columns)


def _field_columns(name: str, records) -> list[list]:
    """Columns of ``name`` read from the same-named fields of ``records``."""
    return [[getattr(r, column) for r in records] for column, _ in SCHEMAS[name]]


# =====================================================================
# Subcommands: each maps (config, args, lap) to {artifact name: text},
# a started CSV given as the (sha256, size) of the temp file it wrote.
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
    return {"scores.csv": _csv("scores.csv", score_table(config, thetas, tau_grid))}


def cmd_tau(config, args, lap) -> dict[str, str]:
    thetas = np.array(_theta_values(args))
    reports = (threshold_report(config, thetas) if args.q is None
               else find_regret_crossings(config, thetas, args.q))
    docs = [asdict(report) for report in reports]
    return {"thresholds.json": render_json(docs[0] if len(docs) == 1 else docs)}


def _regret_outputs(config, thetas, bits, tau_grid, critical):
    """regret.csv columns, rows by theta, bit, algo and then tau, and the
    jump doc of each (theta, bit); one regret_curve call per bit."""
    curves = [regret_curve(config, thetas, q, tau_grid, critical) for q in bits]
    thetas, tau = curves[0].theta, curves[0].tau
    shape = (len(thetas), len(bits), len(ALGOS), len(tau))
    keys = (thetas[:, None, None, None], np.array(bits)[:, None, None],
            tau, np.array(ALGOS)[:, None])
    fields = (np.stack([getattr(c, name) for c in curves], axis=1)
              for name in ("score", "n_ex_ante", "accepted", "p_ex_post", "u"))
    columns = [np.broadcast_to(column, shape).ravel() for column in (*keys, *fields)]
    jumps = [{"theta": theta, "q": c.q, "jumps": [asdict(jump) for jump in c.jumps[i]]}
             for i, theta in enumerate(thetas.tolist()) for c in curves]
    return columns, jumps


def cmd_regret(config, args, lap) -> dict[str, str]:
    theta, q = [_required(args, "theta")], _required(args, "q")
    tau_grid = _tau_grid(config, args.tau_grid)
    critical = find_critical_prejudices(config, theta)
    columns, jumps = _regret_outputs(config, theta, (q,), tau_grid, critical)
    return {
        "regret.csv": _csv("regret.csv", columns),
        "regret_jumps.json": render_json(jumps[0]),
    }


def cmd_sweep(config, args, lap) -> dict[str, str | tuple[str, int]]:
    thetas = _theta_values(args)
    tau_grid = _tau_grid(config, args.tau_grid)
    # tau_bar and the average regret need phi rising in theta: fail before
    # any table is computed or render forked
    env_doc = asdict(classify_environment(config))
    with ExitStack() as renders:
        scores = renders.enter_context(
            _started(args, "scores.csv", score_table(config, thetas, tau_grid))
        )
        # every theta's thresholds are rooted once, and its curves jump there
        reports = threshold_report(config, np.array(thetas))
        critical = ([r.tau_d1 for r in reports], [r.tau_d2 for r in reports])
        regret_columns, jump_docs = _regret_outputs(config, thetas, (0, 1), tau_grid, critical)
        regret = renders.enter_context(_started(args, "regret.csv", regret_columns))
        # the children write both tables while these run
        bar = find_tau_bar(config, "analytic")
        averages = expected_regret(config, tau_grid)
        return {
            "scores.csv": scores(),
            "regret.csv": regret(),
            "regret_jumps.json": render_json(jump_docs),
            "thresholds.json": render_json({
                "per_theta": [asdict(report) for report in reports],
                "tau_bar": bar.value,
                "tau_bar_reason": bar.reason,
                "environment": env_doc,
            }),
            "average_regret.csv": _csv(
                "average_regret.csv", [tau_grid, *averages]
            ),
        }


def cmd_simulate(config, args, lap) -> dict[str, str | tuple[str, int]]:
    tau = _required(args, "tau")
    # the checks of the later stages' inputs, with their messages, made
    # before any applicant is sampled; the classification is closed form
    report = classify_environment(config)
    log_acceptance_threshold(config.payoffs, tau)
    require_size("population size", args.m, 1)
    _require_mc_size(args.m)
    require_size("theta bin count", args.bins, 1)
    if not 0 <= args.seed < 2**128 - 1:  # the MC regret cohort's Philox key is seed + 1
        raise DomainError(f"seed must lie in [0, 2**128), as must seed + 1, the Monte "
                          f"Carlo cohort's seed; got {args.seed}")
    population = sample_population(config, args.m, args.seed)
    lap("sample_s")
    data = run_stage_one(config, population, tau)
    # the MC regret stage below is the run's memory peak, and it samples
    # its own cohort: the first one is not needed past stage one
    del population
    # the child writes stage1.csv while binning and MC regret run
    with _started(args, "stage1.csv", [data.theta, data.accepted, data.q_label]) as stage1:
        lap("stage_one_s")
        bins = empirical_scores(data, args.bins)
        lap("binning_s")
        estimates = mc_average_regret(config, tau, args.m, args.seed + 1)
        lap("mc_regret_s")
        # classify_s times the report's rendering, its classification having run first
        environment = render_json(asdict(report))
        lap("classify_s")
        texts = {
            "stage1.csv": stage1(),
            "scores_empirical.csv": _csv(
                "scores_empirical.csv", _field_columns("scores_empirical.csv", bins)
            ),
            "regret_mc.csv": _csv(
                "regret_mc.csv", _field_columns("regret_mc.csv", estimates)
            ),
            "environment.json": environment,
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


def _make_out(out: str) -> list[str]:
    """Create the directory ``out`` and any missing parents; return the
    directories this made, deepest first.  DomainError when ``out`` names a
    file or cannot be created."""
    made, path = [], os.path.abspath(out)
    while not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot create output directory {out!r}: "
                          f"{exc.strerror or exc}") from exc
    return made


def run(args, argv: list[str]) -> int:
    """Print schemas, or load the config, run the command and print its
    artifact or write every artifact and the manifest, which records
    ``argv``, to ``--out``.

    ``--out`` is created before the command runs, since a started table's
    child writes its temp file there; each temp file is renamed into place
    with the other artifacts.  A failed or interrupted run removes every
    temp file of the command's artifacts, and a directory it created, with
    what it wrote there; a directory that existed keeps its earlier files.
    """
    command = COMMANDS[args.command]
    if command.artifacts and args.schema:
        _print_schema(command.artifacts)
        return EXIT_OK
    out = getattr(args, "out", None)
    if command.artifacts and not (out or command.stdout):
        raise DomainError(f"--out is required for {args.command}")
    config, digest = load_config(_required(args, "config"))
    manifest = RunManifest(config_path=args.config, config_sha256=digest,
                           seed=getattr(args, "seed", None), argv=argv)
    timings, clock = {}, [perf_counter()]

    def lap(stage: str) -> None:
        clock.append(perf_counter())
        timings[stage] = clock[-1] - clock[-2]

    if not out:
        for text in command.fn(config, args, lap).values():
            print(text, end="")
        return EXIT_OK
    made = _make_out(out)
    try:
        artifacts = {}
        for name, text in command.fn(config, args, lap).items():
            path = os.path.join(out, name)
            if isinstance(text, str):
                # encoded once, for its file and its hash
                artifacts[name] = text.encode("utf-8")
                write_atomic(path, artifacts[name])
            else:
                os.replace(path + ".tmp", path)
                artifacts[name] = text
        if timings:
            lap("write_s")
        manifest.write(out, artifacts, timings or None)
    except BaseException:
        for name in (*command.artifacts, "run_manifest.json"):
            path = os.path.join(out, name)
            for stale in (path + ".tmp", path) if made else (path + ".tmp",):
                if os.path.lexists(stale):
                    os.remove(stale)
        for path in made:
            with suppress(OSError):  # not empty: another process wrote there
                os.rmdir(path)
        raise
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
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if args.schema:
            _print_schema(SCHEMAS)
            return EXIT_OK
        parser.print_help()
        return EXIT_INVALID
    try:
        return run(args, argv)
    except (InvalidModelError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"error: input too large to allocate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ScreeningError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
