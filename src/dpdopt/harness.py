"""Experiment configuration, orchestration, and machine-readable outputs.

Configs are flat key = value text; every key not marked optional is required:

    topology.kind = ring            # ring | erdos-renyi
    topology.n = 10                 # >= 3
    topology.p_edge = 0.35          # optional; erdos-renyi needs it, a ring rejects it; (0, 1]
    topology.seed = 7               # optional; erdos-renyi needs it, a ring rejects it; >= 0
    problem.m = 3                   # >= 1
    problem.p = 2                   # >= 1
    problem.omega_min = 0.5         # finite, <= problem.omega_max
    problem.omega_max = 1.5         # finite
    problem.seed = 11               # >= 0
    schedule.gamma = 0.05
    schedule.beta = 10
    schedule.q1 = 0.97
    schedule.q2 = 0.99
    schedule.epsilon = 1
    schedule.delta = 1              # 0 for a noiseless run.algorithm
    run.algorithm = alg1
    run.iterations = 200            # >= 1
    run.trials = 100                # >= 1
    run.seed = 0                    # >= 0
    output.trace = trace.csv        # optional; not empty
    output.summary = summary.json   # optional; not empty

Loading validates everything at once and reports the full list of
violations, not just the first. Outputs are byte-deterministic functions of
(config, master seed): the trace CSV has one row per (trial, k) and the
summary JSON carries the config echo, aggregate curves, final-residual
statistics, and a sha256 content hash.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .engine import _CONSTANT_STEP, _SERIES, ALGORITHMS, Trace, monte_carlo
from .errors import ConfigError, DivergenceError, ScheduleError
from .objective import Problem, random_problem
from .schedule import ScheduleParams, privacy_spent
from .topology import WeightMatrix, connected_erdos_renyi, metropolis_weights, ring

__all__ = [
    "ExperimentConfig",
    "parse_config_text",
    "load_config",
    "build_graph",
    "build_problem",
    "run_experiment",
    "canonical_json_bytes",
    "content_hash",
    "format_json",
    "format_csv",
    "format_trace_csv",
    "summarize",
]


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int
    p_edge: float | None
    topology_seed: int | None
    m: int
    p: int
    omega_range: tuple[float, float]
    problem_seed: int
    schedule: ScheduleParams
    algorithm: str
    iterations: int
    trials: int
    seed: int
    trace_path: str | None
    summary_path: str | None
    raw: tuple  # ((key, value) pairs as parsed, for echoing into summaries


class _Key(NamedTuple):
    key: str
    required: bool
    type: type
    check: Callable | None = None  # a parsed value it rejects is a violation
    message: str = ""  # the violation's text, followed by ", got <value>"


def _at_least(low):
    return (lambda v: v >= low), f"must be >= {low}"


def _one_of(options):
    return options.__contains__, f"must be one of {options}"


# every config key, by the field its value fills: an ExperimentConfig or a
# ScheduleParams field, or an end of ExperimentConfig.omega_range
_KEYS = {
    "kind": _Key("topology.kind", True, str, *_one_of(("ring", "erdos-renyi"))),
    "n": _Key("topology.n", True, int, *_at_least(3)),
    "p_edge": _Key("topology.p_edge", False, float, lambda v: 0.0 < v <= 1.0,
                   "must be in (0, 1]"),
    "topology_seed": _Key("topology.seed", False, int, *_at_least(0)),
    "m": _Key("problem.m", True, int, *_at_least(1)),
    "p": _Key("problem.p", True, int, *_at_least(1)),
    "omega_min": _Key("problem.omega_min", True, float, np.isfinite, "must be finite"),
    "omega_max": _Key("problem.omega_max", True, float, np.isfinite, "must be finite"),
    "problem_seed": _Key("problem.seed", True, int, *_at_least(0)),
    "gamma": _Key("schedule.gamma", True, float),
    "beta": _Key("schedule.beta", True, float),
    "q1": _Key("schedule.q1", True, float),
    "q2": _Key("schedule.q2", True, float),
    "epsilon": _Key("schedule.epsilon", True, float),
    "delta": _Key("schedule.delta", True, float),
    "algorithm": _Key("run.algorithm", True, str, *_one_of(ALGORITHMS)),
    "iterations": _Key("run.iterations", True, int, *_at_least(1)),
    "trials": _Key("run.trials", True, int, *_at_least(1)),
    "seed": _Key("run.seed", True, int, *_at_least(0)),
    "trace_path": _Key("output.trace", False, str, bool, "must not be empty"),
    "summary_path": _Key("output.summary", False, str, bool, "must not be empty"),
}


def _parse_kv(text: str) -> tuple[dict, list[str]]:
    pairs = {}
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in pairs:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        pairs[key] = value
    return pairs, problems


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a config from its text; collects all violations."""
    pairs, problems = _parse_kv(text)
    keys = {row.key for row in _KEYS.values()}
    problems.extend(f"unknown key {key!r}" for key in pairs if key not in keys)
    problems.extend(f"missing key {row.key!r}" for row in _KEYS.values()
                    if row.required and row.key not in pairs)

    # a field stays None when its key is absent or its value is rejected
    values = dict.fromkeys(_KEYS)
    for field, row in _KEYS.items():
        if row.key not in pairs:
            continue
        try:
            value = row.type(pairs[row.key])
        except ValueError:
            problems.append(
                f"{row.key}: cannot parse {pairs[row.key]!r} as {row.type.__name__}")
            continue
        if row.check is not None and not row.check(value):
            problems.append(f"{row.key}: {row.message}, got {pairs[row.key]}")
            continue
        values[field] = value

    for key in (_KEYS["p_edge"].key, _KEYS["topology_seed"].key):
        if values["kind"] == "erdos-renyi" and key not in pairs:
            problems.append(f"{key}: required for erdos-renyi")
        elif values["kind"] == "ring" and key in pairs:
            problems.append(f"{key}: not used by a ring topology")
    omega_range = (values.pop("omega_min"), values.pop("omega_max"))
    if None not in omega_range and omega_range[0] > omega_range[1]:
        problems.append(
            f"{_KEYS['omega_min'].key}: must be <= {_KEYS['omega_max'].key}, "
            f"got {omega_range[0]} > {omega_range[1]}"
        )
    sp = None
    given = {field.name: values.pop(field.name) for field in fields(ScheduleParams)}
    if None not in given.values():
        try:
            sp = ScheduleParams(**given)
        except ScheduleError as exc:
            problems.extend(f"schedule: {part}" for part in str(exc).split("; "))
    if values["algorithm"] in _CONSTANT_STEP and sp is not None and sp.delta != 0.0:
        problems.append(f"{_KEYS['algorithm'].key}: {values['algorithm']} is noiseless "
                        f"and needs {_KEYS['delta'].key} = 0")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**values, omega_range=omega_range, schedule=sp,
                            raw=tuple(sorted(pairs.items())))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    return parse_config_text(text)


def build_graph(cfg: ExperimentConfig) -> WeightMatrix:
    """The Metropolis weights of the configured graph."""
    if cfg.kind == "ring":
        g = ring(cfg.n)
    else:
        g = connected_erdos_renyi(cfg.n, cfg.p_edge, cfg.topology_seed)
    return metropolis_weights(g)


def build_problem(cfg: ExperimentConfig) -> Problem:
    return random_problem(cfg.n, cfg.m, cfg.p, cfg.omega_range, cfg.problem_seed)


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON encoding: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()


def format_json(obj) -> str:
    """Every output's JSON: json.dumps(obj, indent=2, sort_keys=True) + "\\n", byte for byte."""
    return _indented(obj, "\n") + "\n"


def _indented(obj, newline: str) -> str:
    # json.dumps with an indent runs in Python: here each container of scalars
    # is one C encoder call, and only containers of containers are walked
    inner, is_dict = newline + "  ", isinstance(obj, dict)
    items = obj.values() if is_dict else obj if isinstance(obj, (list, tuple)) else ()
    if not any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, items))):
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + newline + text[-1] if items else text
    if is_dict:  # a walked dict's keys must be str
        parts = [json.encoder.encode_basestring_ascii(key) + ": " + _indented(value, inner)
                 for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    return "[" + inner + ("," + inner).join(_indented(item, inner) for item in obj) + newline + "]"


# rows per % pass of format_csv: a block's cells and text take about 1 MB
_BLOCK_ROWS = 4096
# the %-format of a column's cells by dtype kind: %r of a float64 array's
# Python floats is float.__repr__, %d of an integer array's ints is str, and
# any other column is held as _cell's strings
_SPECS = {"f": "%r", "i": "%d", "u": "%d", "O": "%s"}


def _cell(value) -> str:
    # repr of a Python float round-trips exactly; numpy scalars must be
    # unwrapped first or they stringify as np.float64(...)
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_blocks(columns):
    """The text of format_csv's rows, one block of _BLOCK_ROWS rows at a time."""
    columns = [c if isinstance(c, np.ndarray) and (c.dtype == np.float64 or c.dtype.kind in "iu")
               else np.fromiter(map(_cell, c), dtype=object) for c in columns]
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"columns must be equally long, got lengths {list(map(len, columns))}")
    row, width = ",".join(_SPECS[c.dtype.kind] for c in columns) + "\n", len(columns)
    for lo in range(0, len(columns[0]) if columns else 0, _BLOCK_ROWS):
        cells = [None] * (width * min(_BLOCK_ROWS, len(columns[0]) - lo))
        for j, column in enumerate(columns):
            cells[j::width] = column[lo:lo + _BLOCK_ROWS].tolist()
        yield row * (len(cells) // width) % tuple(cells)


def format_csv(header, columns) -> str:
    """CSV text with a header line, from equally long columns (ValueError
    otherwise). Floats render by repr, None as an empty cell and anything
    else by str. Each block of _BLOCK_ROWS rows is one C-level % of a row
    template over the .tolist() cells of a slice of each column, so at most
    one block's cells are held at a time."""
    return "".join([",".join(header) + "\n", *_csv_blocks(columns)])


def format_trace_csv(trace: Trace, start: int = 0) -> str:
    """The trace CSV: one row per (trial, k), trial-major. Rows number the
    trials from start, and only start = 0 gives the header line, so the texts
    of consecutive pieces of an ensemble join into the CSV of the whole."""
    trials, steps = trace.residual.shape
    columns = (
        np.repeat(np.arange(start, start + trials), steps),
        np.tile(np.arange(steps), trials),
        *(getattr(trace, name).ravel() for name in _SERIES),
    )
    head = ",".join(("trial", "k", *_SERIES)) + "\n" if start == 0 else ""
    return "".join([head, *_csv_blocks(columns)])


def require_finite(algorithm: str, fields: dict) -> None:
    """Raise DivergenceError naming the first of fields, in order, that holds
    a number that is not finite. A value is a number, a list of numbers or a
    dict of them, whose entries are named field.key. The series a statistic
    is taken over are finite, so such a statistic overflowed."""
    for name, value in fields.items():
        if isinstance(value, dict):
            require_finite(algorithm, {f"{name}.{key}": v for key, v in value.items()})
        elif not np.isfinite(value).all():
            raise DivergenceError(f"{algorithm}: {name} is not finite, though every "
                                  f"residual it is taken over is")


def summarize(cfg: ExperimentConfig, trace: Trace, trace_csv: str) -> dict:
    residuals = trace.residual
    finals = residuals[:, -1]
    body = {
        "config": {k: v for k, v in cfg.raw},
        "trials": len(trace),
        "iterations": cfg.iterations,
        "privacy_spent": privacy_spent(cfg.schedule, cfg.iterations),
        "residual_mean": residuals.mean(axis=0).tolist(),
        "residual_std": residuals.std(axis=0).tolist(),
        "final_residual": {
            "mean": float(finals.mean()),
            "std": float(finals.std()),
            "min": float(finals.min()),
            "max": float(finals.max()),
        },
        "converged": bool(finals.mean() < 1e-8),
        "trace_sha256": hashlib.sha256(trace_csv.encode("utf-8")).hexdigest(),
    }
    require_finite(cfg.algorithm, {key: body[key] for key in
                                   ("residual_mean", "residual_std", "final_residual")})
    body["content_hash"] = content_hash(body)
    return body


def _write(path: str | None, data: str) -> None:
    """Write data to the file at path, or to stdout when path is None or
    empty. The CLI writes every output it makes through here."""
    if not path:
        # looked up per call, so contextlib.redirect_stdout captures it
        sys.stdout.write(data)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def run_experiment(
    cfg: ExperimentConfig,
    jobs: int = 1,
    trace_path: str | None = None,
    summary_path: str | None = None,
) -> dict:
    """Run the configured ensemble and write the artifacts.

    Returns the summary dict. trace_path/summary_path, when not None, override
    the config's output section; files are only written for paths that are
    set and not empty. Each of the jobs processes renders the trace CSV rows
    of the trials it simulates.
    """
    wm = build_graph(cfg)
    pr = build_problem(cfg)
    trace = monte_carlo(pr, wm, cfg.schedule, cfg.algorithm, cfg.iterations, cfg.trials,
                        cfg.seed, jobs=jobs, render=format_trace_csv)
    trace_csv = trace.rendered
    summary = summarize(cfg, trace, trace_csv)

    trace_path = cfg.trace_path if trace_path is None else trace_path
    summary_path = cfg.summary_path if summary_path is None else summary_path
    if trace_path:
        _write(trace_path, trace_csv)
    if summary_path:
        _write(summary_path, format_json(summary))
    return summary
