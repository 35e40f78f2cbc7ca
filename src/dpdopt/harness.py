"""Experiment configuration, orchestration, and machine-readable outputs.

Configs are flat key = value text with dotted section prefixes:

    topology.kind = ring            # ring | erdos-renyi
    topology.n = 10
    topology.p_edge = 0.35          # erdos-renyi only
    topology.seed = 7               # erdos-renyi only
    problem.m = 3
    problem.p = 2
    problem.omega_min = 0.5
    problem.omega_max = 1.5
    problem.seed = 11
    schedule.gamma = 0.05
    schedule.beta = 10
    schedule.q1 = 0.97
    schedule.q2 = 0.99
    schedule.epsilon = 1
    schedule.delta = 1
    run.algorithm = alg1
    run.iterations = 200
    run.trials = 100
    run.seed = 0
    output.trace = trace.csv        # optional
    output.summary = summary.json   # optional

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
from dataclasses import dataclass

import numpy as np

from .engine import _CONSTANT_STEP, _SERIES, ALGORITHMS, Trace, monte_carlo
from .errors import ConfigError, ScheduleError
from .objective import Problem, optimum, random_problem
from .schedule import ScheduleParams, privacy_spent
from .topology import (
    Graph,
    WeightMatrix,
    connected_erdos_renyi,
    metropolis_weights,
    ring,
)

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

_TOPOLOGY_KINDS = ("ring", "erdos-renyi")

_REQUIRED = (
    "topology.kind",
    "topology.n",
    "problem.m",
    "problem.p",
    "problem.omega_min",
    "problem.omega_max",
    "problem.seed",
    "schedule.gamma",
    "schedule.beta",
    "schedule.q1",
    "schedule.q2",
    "schedule.epsilon",
    "schedule.delta",
    "run.algorithm",
    "run.iterations",
    "run.trials",
    "run.seed",
)

_OPTIONAL = (
    "topology.p_edge",
    "topology.seed",
    "output.trace",
    "output.summary",
)


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

    known = set(_REQUIRED) | set(_OPTIONAL)
    for key in pairs:
        if key not in known:
            problems.append(f"unknown key {key!r}")
    for key in _REQUIRED:
        if key not in pairs:
            problems.append(f"missing key {key!r}")

    def take(key, conv, check=None, explain=""):
        if key not in pairs:
            return None
        try:
            value = conv(pairs[key])
        except ValueError:
            problems.append(f"{key}: cannot parse {pairs[key]!r} as {conv.__name__}")
            return None
        if check is not None and not check(value):
            problems.append(f"{key}: {explain}, got {pairs[key]}")
            return None
        return value

    kind = take("topology.kind", str, lambda s: s in _TOPOLOGY_KINDS,
                f"must be one of {_TOPOLOGY_KINDS}")
    n = take("topology.n", int, lambda v: v >= 3, "must be >= 3")
    p_edge = take("topology.p_edge", float, lambda v: 0.0 < v <= 1.0,
                  "must be in (0, 1]")
    topo_seed = take("topology.seed", int)
    if kind == "erdos-renyi":
        if p_edge is None and "topology.p_edge" not in pairs:
            problems.append("topology.p_edge: required for erdos-renyi")
        if topo_seed is None and "topology.seed" not in pairs:
            problems.append("topology.seed: required for erdos-renyi")

    m = take("problem.m", int, lambda v: v >= 1, "must be >= 1")
    p = take("problem.p", int, lambda v: v >= 1, "must be >= 1")
    omega_min = take("problem.omega_min", float, np.isfinite, "must be finite")
    omega_max = take("problem.omega_max", float, np.isfinite, "must be finite")
    if omega_min is not None and omega_max is not None and omega_min > omega_max:
        problems.append(
            f"problem.omega_min: must be <= problem.omega_max, got {omega_min} > {omega_max}"
        )
    problem_seed = take("problem.seed", int)

    sched_values = {
        name: take(f"schedule.{name}", float)
        for name in ("gamma", "beta", "q1", "q2", "epsilon", "delta")
    }
    schedule = None
    if all(v is not None for v in sched_values.values()):
        try:
            schedule = ScheduleParams(**sched_values)
        except ScheduleError as exc:
            problems.extend(f"schedule: {part}" for part in str(exc).split("; "))

    algorithm = take("run.algorithm", str, lambda s: s in ALGORITHMS,
                     f"must be one of {ALGORITHMS}")
    iterations = take("run.iterations", int, lambda v: v >= 1, "must be >= 1")
    trials = take("run.trials", int, lambda v: v >= 1, "must be >= 1")
    seed = take("run.seed", int)
    if algorithm in _CONSTANT_STEP and schedule is not None and schedule.delta != 0.0:
        problems.append(
            f"run.algorithm: {algorithm} is noiseless and needs schedule.delta = 0"
        )

    if problems:
        raise ConfigError(problems)

    return ExperimentConfig(
        kind=kind,
        n=n,
        p_edge=p_edge,
        topology_seed=topo_seed,
        m=m,
        p=p,
        omega_range=(omega_min, omega_max),
        problem_seed=problem_seed,
        schedule=schedule,
        algorithm=algorithm,
        iterations=iterations,
        trials=trials,
        seed=seed,
        trace_path=pairs.get("output.trace"),
        summary_path=pairs.get("output.summary"),
        raw=tuple(sorted(pairs.items())),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    return parse_config_text(text)


def build_graph(cfg: ExperimentConfig) -> tuple[Graph, WeightMatrix]:
    if cfg.kind == "ring":
        g = ring(cfg.n)
    else:
        g = connected_erdos_renyi(cfg.n, cfg.p_edge, cfg.topology_seed)
    return g, metropolis_weights(g)


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
    _, wm = build_graph(cfg)
    pr = build_problem(cfg)
    trace = monte_carlo(
        pr,
        wm,
        cfg.schedule,
        cfg.algorithm,
        cfg.iterations,
        cfg.trials,
        cfg.seed,
        jobs=jobs,
    )
    trace_csv = format_trace_csv(trace)
    summary = summarize(cfg, trace, trace_csv)

    trace_path = trace_path or cfg.trace_path
    summary_path = summary_path or cfg.summary_path
    if trace_path:
        _write(trace_path, trace_csv)
    if summary_path:
        _write(summary_path, format_json(summary))
    return summary
