"""Config parsing, artifact formatting, and end-to-end experiment runs."""

import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from dpdopt.errors import ConfigError
from dpdopt.harness import (
    build_graph,
    build_problem,
    canonical_json_bytes,
    content_hash,
    format_csv,
    format_trace_csv,
    load_config,
    parse_config_text,
    run_experiment,
    summarize,
)
from dpdopt import engine, harness
from dpdopt.engine import monte_carlo
from dpdopt.objective import random_problem
from dpdopt.schedule import privacy_spent
from dpdopt.topology import metropolis_weights, ring

_DELETE = object()

_BASE = {
    "topology.kind": "ring",
    "topology.n": "6",
    "problem.m": "2",
    "problem.p": "2",
    "problem.omega_min": "0.5",
    "problem.omega_max": "1.5",
    "problem.seed": "11",
    "schedule.gamma": "0.05",
    "schedule.beta": "10",
    "schedule.q1": "0.97",
    "schedule.q2": "0.99",
    "schedule.epsilon": "1",
    "schedule.delta": "1",
    "run.algorithm": "alg1",
    "run.iterations": "12",
    "run.trials": "4",
    "run.seed": "0",
}


def config_text(**overrides):
    pairs = dict(_BASE)
    for key, value in overrides.items():
        name = key.replace("__", ".")
        if value is _DELETE:
            pairs.pop(name, None)
        else:
            pairs[name] = value
    return "\n".join(f"{k} = {v}" for k, v in pairs.items()) + "\n"


def violations_of(text):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    return info.value.violations


def test_parse_round_trip_all_fields():
    text = config_text(
        **{
            "topology.kind": "erdos-renyi",
            "topology.p_edge": "0.4",
            "topology.seed": "7",
            "output.trace": "t.csv",
            "output.summary": "s.json",
        }
    )
    cfg = parse_config_text(text)
    assert cfg.kind == "erdos-renyi"
    assert cfg.n == 6
    assert cfg.p_edge == 0.4
    assert cfg.topology_seed == 7
    assert cfg.m == 2
    assert cfg.p == 2
    assert cfg.omega_range == (0.5, 1.5)
    assert cfg.problem_seed == 11
    assert cfg.schedule.gamma == 0.05
    assert cfg.schedule.beta == 10.0
    assert cfg.schedule.q1 == 0.97
    assert cfg.schedule.q2 == 0.99
    assert cfg.schedule.epsilon == 1.0
    assert cfg.schedule.delta == 1.0
    assert cfg.algorithm == "alg1"
    assert cfg.iterations == 12
    assert cfg.trials == 4
    assert cfg.seed == 0
    assert cfg.trace_path == "t.csv"
    assert cfg.summary_path == "s.json"
    # the raw echo preserves the parsed strings, sorted by key
    assert cfg.raw == tuple(sorted(cfg.raw))
    assert ("topology.kind", "erdos-renyi") in cfg.raw


def test_parse_optional_defaults():
    cfg = parse_config_text(config_text())
    assert cfg.p_edge is None
    assert cfg.topology_seed is None
    assert cfg.trace_path is None
    assert cfg.summary_path is None


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + config_text() + "\n  # trailing\n"
    text = text.replace(
        "topology.n = 6", "topology.n = 6   # inline comment"
    )
    cfg = parse_config_text(text)
    assert cfg.n == 6


def test_collects_every_violation_at_once():
    text = config_text(
        **{
            "topology.n": "two",
            "problem.omega_min": "2.0",
            "problem.omega_max": "1.0",
            "run.algorithm": "sgd",
            "run.seed": _DELETE,
            "bogus.key": "1",
            "run.retain": "true",
        }
    )
    found = violations_of(text)
    assert len(found) >= 5
    joined = "\n".join(found)
    assert "topology.n: cannot parse 'two' as int" in joined
    assert "problem.omega_min: must be <= problem.omega_max" in joined
    assert "run.algorithm: must be one of" in joined
    assert "missing key 'run.seed'" in joined
    assert "unknown key 'bogus.key'" in joined
    assert "unknown key 'run.retain'" in joined


def test_erdos_renyi_requires_edge_probability_and_seed():
    found = violations_of(config_text(**{"topology.kind": "erdos-renyi"}))
    joined = "\n".join(found)
    assert "topology.p_edge: required for erdos-renyi" in joined
    assert "topology.seed: required for erdos-renyi" in joined


def test_noiseless_algorithm_requires_zero_delta():
    found = violations_of(config_text(**{"run.algorithm": "gt-noiseless"}))
    assert any("needs schedule.delta = 0" in v for v in found)
    cfg = parse_config_text(
        config_text(
            **{
                "run.algorithm": "gt-noiseless",
                "schedule.delta": "0",
                "schedule.epsilon": "1",
            }
        )
    )
    assert cfg.schedule.delta == 0.0


def test_duplicate_and_malformed_lines_carry_line_numbers():
    text = config_text() + "run.seed = 1\nnot a pair\n"
    lineno = len(config_text().splitlines())
    found = violations_of(text)
    joined = "\n".join(found)
    assert f"line {lineno + 1}: duplicate key 'run.seed'" in joined
    assert f"line {lineno + 2}: expected 'key = value', got 'not a pair'" in joined


def test_schedule_violations_reported_individually():
    found = violations_of(
        config_text(**{"schedule.gamma": "0", "schedule.q1": "0.99", "schedule.q2": "0.97"})
    )
    schedule_items = [v for v in found if v.startswith("schedule: ")]
    assert len(schedule_items) >= 2


def test_negative_seeds_are_violations():
    found = violations_of(config_text(**{
        "topology.kind": "erdos-renyi", "topology.p_edge": "0.5", "topology.seed": "-2",
        "problem.seed": "-3", "run.seed": "-1",
    }))
    assert found == [
        "topology.seed: must be >= 0, got -2",
        "problem.seed: must be >= 0, got -3",
        "run.seed: must be >= 0, got -1",
    ]


def test_empty_output_paths_are_violations():
    # an empty path used to pass the loader and write no file
    found = violations_of(config_text(**{"output.trace": "", "output.summary": ""}))
    assert found == [
        "output.trace: must not be empty, got ",
        "output.summary: must not be empty, got ",
    ]


REQUIRED_KEYS = [
    "topology.kind", "topology.n", "problem.m", "problem.p", "problem.omega_min",
    "problem.omega_max", "problem.seed", "schedule.gamma", "schedule.beta", "schedule.q1",
    "schedule.q2", "schedule.epsilon", "schedule.delta", "run.algorithm",
    "run.iterations", "run.trials", "run.seed",
]


def test_config_keys_declared_once_and_documented_alike():
    table = {row.key for row in harness._KEYS.values()}
    documented = set(re.findall(r"^    (\w+\.\w+) = ", harness.__doc__, re.MULTILINE))
    assert documented == table
    # the README's example config parses and uses only table keys
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        example = re.search(r"```ini\n(.*?)```", fh.read(), re.DOTALL).group(1)
    cfg = parse_config_text(example)
    assert {key for key, _ in cfg.raw} <= table
    # an empty config misses exactly the required keys, each once
    assert violations_of("") == [f"missing key {key!r}" for key in REQUIRED_KEYS]


def test_load_config_missing_file(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(missing)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(config_text(), encoding="utf-8")
    cfg = load_config(path)
    assert cfg == parse_config_text(config_text())


def test_build_graph_ring():
    cfg = parse_config_text(config_text())
    wm = build_graph(cfg)
    assert np.array_equal(wm.W, metropolis_weights(ring(6)).W)


def test_build_graph_erdos_renyi_connected():
    cfg = parse_config_text(
        config_text(
            **{
                "topology.kind": "erdos-renyi",
                "topology.n": "10",
                "topology.p_edge": "0.35",
                "topology.seed": "3",
            }
        )
    )
    wm = build_graph(cfg)
    assert wm.n == 10
    assert wm.W.shape == (10, 10)
    assert np.allclose(wm.W.sum(axis=1), 1.0)


def test_build_problem_matches_generator():
    cfg = parse_config_text(config_text())
    pr = build_problem(cfg)
    ref = random_problem(6, 2, 2, (0.5, 1.5), 11)
    assert pr.n == ref.n and pr.p == ref.p
    for got, want in zip(pr.costs, ref.costs):
        assert np.array_equal(got.hess, want.hess)
        assert np.array_equal(got.bias, want.bias)


def test_canonical_json_bytes_exact():
    assert canonical_json_bytes({"b": 1, "a": [1.5, "x"]}) == b'{"a":[1.5,"x"],"b":1}'
    with pytest.raises(ValueError):
        canonical_json_bytes({"a": math.nan})


def test_content_hash_matches_direct_recompute():
    obj = {"z": [1, 2, 3], "a": {"nested": 0.25}}
    expected = hashlib.sha256(canonical_json_bytes(obj)).hexdigest()
    assert content_hash(obj) == expected
    assert content_hash({"z": [1, 2, 3], "a": {"nested": 0.125}}) != expected


@pytest.fixture(scope="module")
def small_run():
    cfg = parse_config_text(config_text())
    wm = build_graph(cfg)
    pr = build_problem(cfg)
    trace = monte_carlo(
        pr, wm, cfg.schedule, cfg.algorithm, cfg.iterations, cfg.trials, cfg.seed
    )
    return cfg, trace


def test_trace_csv_shape_and_round_trip(small_run):
    cfg, trace = small_run
    text = format_trace_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "trial,k,residual,consensus_err,mean_err,step_norm"
    assert len(lines) == 1 + cfg.trials * (cfg.iterations + 1)
    assert "np." not in text
    row = lines[1 + (cfg.iterations + 1) * 2 + 5].split(",")
    assert (int(row[0]), int(row[1])) == (2, 5)
    assert float(row[2]) == trace.residual[2, 5]
    assert float(row[5]) == trace.step_norm[2, 5]


def reference_trace_csv(trace):
    """The trace CSV written out cell by cell, without format_csv."""
    lines = ["trial,k,residual,consensus_err,mean_err,step_norm"]
    for t in range(len(trace)):
        for k in range(trace.iterations + 1):
            lines.append(
                f"{t},{k},{float(trace.residual[t, k])!r},{float(trace.consensus_err[t, k])!r},"
                f"{float(trace.mean_err[t, k])!r},{float(trace.step_norm[t, k])!r}"
            )
    return "\n".join(lines) + "\n"


def test_format_csv_cell_rule(small_run, monkeypatch):
    # floats by repr with numpy scalars unwrapped, None as an empty cell and
    # anything else by str
    row = (1, None, np.float64(0.1), 2.5e-300, np.False_, "alg1")
    columns = [[value] for value in row]
    assert format_csv("abcdef", columns) == "a,b,c,d,e,f\n1,,0.1,2.5e-300,False,alg1\n"
    # float and integer arrays render as the same values in lists do
    columns = (np.array([3, -7]), np.array([0.1, -2.5e-300]), [3, -7], [0.1, -2.5e-300])
    assert format_csv("abcd", columns) == "a,b,c,d\n3,0.1,3,0.1\n-7,-2.5e-300,-7,-2.5e-300\n"
    # the trace CSV of an ensemble run in two chunks equals the cell-by-cell
    # reference byte for byte
    cfg, _ = small_run
    wm = build_graph(cfg)
    pr = build_problem(cfg)
    chunks = []
    batched = engine._batched
    monkeypatch.setattr(engine, "_chunk_size", lambda *args: 3)
    monkeypatch.setattr(engine, "_batched", lambda *args: chunks.append(1) or batched(*args))
    trace = monte_carlo(
        pr, wm, cfg.schedule, cfg.algorithm, cfg.iterations, cfg.trials, cfg.seed
    )
    assert len(chunks) == 2
    assert format_trace_csv(trace) == reference_trace_csv(trace)


def test_summary_fields(small_run):
    cfg, trace = small_run
    csv_text = format_trace_csv(trace)
    body = summarize(cfg, trace, csv_text)
    assert body["config"] == dict(cfg.raw)
    assert body["trials"] == cfg.trials
    assert body["iterations"] == cfg.iterations
    assert body["privacy_spent"] == privacy_spent(cfg.schedule, cfg.iterations)
    stacked = trace.residual
    assert body["residual_mean"] == stacked.mean(axis=0).tolist()
    assert body["residual_std"] == stacked.std(axis=0).tolist()
    finals = stacked[:, -1]
    assert body["final_residual"]["mean"] == float(finals.mean())
    assert body["final_residual"]["min"] == float(finals.min())
    assert body["final_residual"]["max"] == float(finals.max())
    assert body["converged"] is bool(finals.mean() < 1e-8)
    assert body["trace_sha256"] == hashlib.sha256(csv_text.encode()).hexdigest()
    echoed = dict(body)
    assert echoed.pop("content_hash") == content_hash(echoed)


def test_run_experiment_writes_artifacts(tmp_path):
    trace = tmp_path / "trace.csv"
    summary_path = tmp_path / "summary.json"
    cfg = parse_config_text(config_text())
    body = run_experiment(cfg, trace_path=str(trace), summary_path=str(summary_path))
    on_disk = json.loads(summary_path.read_text(encoding="utf-8"))
    assert on_disk == body
    csv_text = trace.read_text(encoding="utf-8")
    assert hashlib.sha256(csv_text.encode()).hexdigest() == body["trace_sha256"]


def test_run_experiment_config_paths_and_overrides(tmp_path):
    text = config_text(
        **{
            "output.trace": str(tmp_path / "from_config.csv"),
            "output.summary": str(tmp_path / "from_config.json"),
        }
    )
    cfg = parse_config_text(text)
    run_experiment(cfg)
    assert (tmp_path / "from_config.csv").exists()
    assert (tmp_path / "from_config.json").exists()
    # explicit arguments win over the config's output section
    run_experiment(cfg, trace_path=str(tmp_path / "arg.csv"))
    assert (tmp_path / "arg.csv").exists()


def test_run_experiment_deterministic_hash():
    cfg = parse_config_text(config_text())
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first["content_hash"] == second["content_hash"]
    other = run_experiment(parse_config_text(config_text(**{"run.seed": "1"})))
    assert other["content_hash"] != first["content_hash"]


def test_run_experiment_jobs_equivalent():
    cfg = parse_config_text(config_text())
    assert run_experiment(cfg, jobs=2) == run_experiment(cfg, jobs=1)
