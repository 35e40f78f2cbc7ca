"""Experiment configuration, orchestration, and machine-readable outputs.

Configs are flat key = value text; every key not marked optional is required:

    topology.kind = ring            # ring | erdos-renyi
    topology.n = 10                 # >= 3
    topology.p_edge = 0.35          # optional; erdos-renyi needs it, in (0, 1]
    topology.seed = 7               # optional; erdos-renyi needs it, >= 0
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
from .errors import ConfigError, ScheduleError
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

    if values["kind"] == "erdos-renyi":
        problems.extend(f"{_KEYS[field].key}: required for erdos-renyi"
                        for field in ("p_edge", "topology_seed")
                        if _KEYS[field].key not in pairs)
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
    """The JSON of every machine-readable output: indented, sorted keys."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    # repr of a Python float round-trips exactly; numpy scalars must be
    # unwrapped first or they stringify as np.float64(...)
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _rendered(column):
    """The cells of one column, rendered lazily. Float and integer arrays
    skip the per-cell rule and give the same text: np.float64 subclasses
    float, so float.__repr__ reads its elements as they are."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return map(float.__repr__, column)
        if column.dtype.kind in "iu":
            return map(str, column)
    return map(_cell, column)


def format_csv(header, columns) -> str:
    """CSV text with a header line, from equally long columns. Floats render
    by repr, None as an empty cell and anything else by str."""
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*map(_rendered, columns))))
    return "\n".join(lines) + "\n"


def format_trace_csv(trace: Trace) -> str:
    """The trace CSV: one row per (trial, k), trial-major."""
    trials, steps = trace.residual.shape
    return format_csv(
        ("trial", "k", *_SERIES),
        (
            np.repeat(np.arange(trials), steps),
            np.tile(np.arange(steps), trials),
            *(getattr(trace, name).ravel() for name in _SERIES),
        ),
    )


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

    Returns the summary dict. trace_path/summary_path override the config's
    output section; files are only written for paths that are set.
    """
    wm = build_graph(cfg)
    pr = build_problem(cfg)
    trace = monte_carlo(pr, wm, cfg.schedule, cfg.algorithm, cfg.iterations, cfg.trials,
                        cfg.seed, jobs=jobs)
    trace_csv = format_trace_csv(trace)
    summary = summarize(cfg, trace, trace_csv)

    trace_path = trace_path or cfg.trace_path
    summary_path = summary_path or cfg.summary_path
    if trace_path:
        _write(trace_path, trace_csv)
    if summary_path:
        _write(summary_path, format_json(summary))
    return summary
