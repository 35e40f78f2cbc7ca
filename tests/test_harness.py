"""Config parsing, artifact formatting, and end-to-end experiment runs."""

import dataclasses
import hashlib
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # a ring uses neither key: given, each would change the content hash alone
    found = violations_of(config_text(**{"topology.p_edge": "0.3", "topology.seed": "4"}))
    assert found == ["topology.p_edge: not used by a ring topology",
                     "topology.seed: not used by a ring topology"]


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


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-308])
    | st.floats().map(np.float64) | st.text()
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_format_json_is_the_bytes_of_indented_json_dumps(obj):
    assert harness.format_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_format_json_keys():
    # a dict of scalars is one C encoder call, which converts a non-str key
    # as json.dumps does; a dict that holds a container is walked, and a
    # non-str key there raises TypeError
    for obj in ({1: 2.5, 3: "x"}, {1.5: None, -0.5: math.inf}, [{True: 1, False: 2}]):
        assert harness.format_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    for obj in ({1: [2.5]}, {"a": {"b": {0: {}}}}, [{None: ()}]):
        with pytest.raises(TypeError):
            harness.format_json(obj)


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
    monkeypatch.setattr(engine, "_batched",
                        lambda *args, **kwargs: chunks.append(1) or batched(*args, **kwargs))
    trace = monte_carlo(
        pr, wm, cfg.schedule, cfg.algorithm, cfg.iterations, cfg.trials, cfg.seed
    )
    assert len(chunks) == 2
    assert format_trace_csv(trace) == reference_trace_csv(trace)
    # the edges of repr's float text (exponent form from 1e16 and below 1e-4),
    # in a float64 array and in a list alike
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
              9999999999999998.0, 1e16, 1.0000000000000002e16, 1e-05, 0.0001, 9.999999999999999e-05]
    text = format_csv("ab", (np.array(floats), floats))
    assert text == "a,b\n" + "".join(f"{x!r},{x!r}\n" for x in floats)
    assert "1e+16" in text and "1e-05" in text and "-0.0" in text
    # integer arrays of any width, a uint64 above 2**63, bool and str_ arrays
    columns = (np.array([2**63, 2**64 - 1], dtype=np.uint64), np.array([-128, 127], dtype=np.int8),
               np.array([True, False]), np.repeat(["alg1", "dp-dgd"], 1))
    assert format_csv("abcd", columns) == (
        "a,b,c,d\n9223372036854775808,-128,True,alg1\n18446744073709551615,127,False,dp-dgd\n")
    # dict views, a range and float32 cells, which render as the float they hold
    rows = {"sigma": 0.5, "contractive": True}
    assert format_csv(("key", "value"), (rows.keys(), rows.values())) == (
        "key,value\nsigma,0.5\ncontractive,True\n")
    float32 = np.array([0.1, -2.5], dtype=np.float32)
    assert format_csv("kfg", (range(1, 3), float32, list(float32))) == (
        "k,f,g\n1,0.10000000149011612,0.10000000149011612\n2,-2.5,-2.5\n")
    # no rows, or no columns: the header line alone
    assert format_csv("ab", (np.array([]), [])) == "a,b\n"
    assert format_csv((), ()) == "\n"
    # a piece from start > 0 has no header, and the pieces of the trace rendered
    # in blocks of 5 rows join into the reference across block boundaries
    monkeypatch.setattr(harness, "_BLOCK_ROWS", 5)
    pieces = [dataclasses.replace(trace, **{name: getattr(trace, name)[lo:hi] for name in
                                            engine._SERIES}) for lo, hi in ((0, 1), (1, 3), (3, 4))]
    text = "".join(format_trace_csv(piece, lo) for piece, lo in zip(pieces, (0, 1, 3)))
    assert text == reference_trace_csv(trace) == format_trace_csv(trace)
    assert format_trace_csv(pieces[1], 1).startswith("1,0,")


def test_format_csv_rejects_columns_of_different_lengths():
    # zip would cut every column to the shortest; a short column is a bug
    for columns in (([1, 2], [3]), (np.arange(3), np.zeros(2)), (range(2), np.arange(2), [])):
        with pytest.raises(ValueError, match="columns must be equally long"):
            format_csv("abc"[:len(columns)], columns)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40), st.integers(1, 9))
def test_format_csv_renders_float64_cells_by_repr(values, block_rows):
    # any float64 column, in blocks of any size, renders as repr(float(x)) per cell
    column = np.array(values, dtype=np.float64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_BLOCK_ROWS", block_rows)
        text = format_csv(("x", "i"), (column, np.arange(len(values))))
    assert text == "x,i\n" + "".join(f"{float(x)!r},{i}\n" for i, x in enumerate(column))


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
    # an empty one too: it writes nothing, and does not fall back to the config
    for name in ("from_config.csv", "from_config.json"):
        (tmp_path / name).unlink()
    run_experiment(cfg, trace_path="", summary_path="")
    assert not (tmp_path / "from_config.csv").exists()
    assert not (tmp_path / "from_config.json").exists()


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
