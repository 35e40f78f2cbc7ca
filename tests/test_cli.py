"""End-to-end coverage of the command-line front end.

Every test drives cli() with an argv list and asserts on exit code plus
captured output, exactly as a shell user would see it.
"""

import collections
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dpdopt
from dpdopt import engine, privacy_eval
from dpdopt.cli import cli

cli_module = importlib.import_module("dpdopt.cli")  # dpdopt.cli is the function

MAIN_CFG = """\
topology.kind = ring
topology.n = 6
problem.m = 2
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
run.iterations = 15
run.trials = 5
run.seed = 0
"""

MNMI_CFG = """\
topology.kind = ring
topology.n = 3
problem.m = 2
problem.p = 1
problem.omega_min = 0.5
problem.omega_max = 1.5
problem.seed = 2
schedule.gamma = 0.01
schedule.beta = 100
schedule.q1 = 0.5
schedule.q2 = 0.99
schedule.epsilon = 10
schedule.delta = 1
run.algorithm = alg1
run.iterations = 8
run.trials = 60
run.seed = 5
"""


@pytest.fixture(scope="module")
def main_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "main.cfg"
    path.write_text(MAIN_CFG, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def mnmi_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mnmi.cfg"
    path.write_text(MNMI_CFG, encoding="utf-8")
    return str(path)


def test_run_text_output(main_cfg, capsys):
    assert cli(["run", "--config", main_cfg]) == 0
    out = capsys.readouterr().out
    assert "alg1: trials=5 T=15 final residual" in out
    assert "content hash " in out


def test_run_json_output(main_cfg, capsys):
    assert cli(["run", "--config", main_cfg, "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["trials"] == 5
    assert body["iterations"] == 15
    assert body["config"]["run.algorithm"] == "alg1"
    assert set(body["final_residual"]) == {"mean", "std", "min", "max"}
    assert len(body["content_hash"]) == 64


def test_run_writes_artifacts(main_cfg, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    rc = cli([
        "run", "--config", main_cfg,
        "--trace", str(trace), "--summary", str(summary),
    ])
    assert rc == 0
    capsys.readouterr()
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "trial,k,residual,consensus_err,mean_err,step_norm"
    assert len(lines) == 1 + 5 * 16
    body = json.loads(summary.read_text(encoding="utf-8"))
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert body["trace_sha256"] == digest


def test_audit_text_checks_and_exit_code(main_cfg, capsys):
    rc = cli([
        "audit", "--config", main_cfg, "--trials", "20", "--iterations", "10",
    ])
    out = capsys.readouterr().out
    checks = dict(line.split(": ") for line in out.splitlines())
    # the true-gradient dynamic contracts the injected difference below the
    # per-step envelope the other dynamics sit on, so those ordering legs
    # fail and the command signals it through the exit code
    assert checks == {
        "bound alg1": "PASS",
        "untouched rows alg1": "PASS",
        "ordering alg1<=dp-dgd": "PASS",
        "ordering alg1<=dgd-true-consensus": "PASS",
        "ordering alg1<=dgd-true-gradient": "FAIL",
        "ordering dp-dgd<=dgd-true-consensus": "PASS",
        "ordering dp-dgd<=dgd-true-gradient": "FAIL",
        "recursion dgd-true-consensus": "PASS",
        "recursion dgd-true-gradient": "PASS",
    }
    assert rc == 1


def test_audit_csv(main_cfg, tmp_path, capsys):
    out_path = tmp_path / "audit.csv"
    rc = cli([
        "audit", "--config", main_cfg, "--trials", "10", "--iterations", "8",
        "--format", "csv", "--out", str(out_path),
    ])
    assert rc == 0
    capsys.readouterr()
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,delta_hat,bound,margin"
    assert len(lines) == 1 + 8
    for i, line in enumerate(lines[1:], start=1):
        k, delta_hat, bound, margin = line.split(",")
        assert int(k) == i
        assert float(margin) == float(bound) - float(delta_hat)
        assert float(delta_hat) <= float(bound) + 1e-12
    assert "np." not in "\n".join(lines)


def test_audit_json(main_cfg, tmp_path, capsys):
    out_path = tmp_path / "audit.json"
    rc = cli([
        "audit", "--config", main_cfg, "--trials", "10", "--iterations", "6",
        "--format", "json", "--out", str(out_path),
    ])
    assert rc == 0
    capsys.readouterr()
    body = json.loads(out_path.read_text(encoding="utf-8"))
    assert set(body) == {"checks", "ordering_gap", "recursion_gap", "envelopes"}
    assert len(body["checks"]) == 9
    assert set(body["envelopes"]) == {
        "alg1", "dp-dgd", "dgd-true-consensus", "dgd-true-gradient",
    }
    for env in body["envelopes"].values():
        assert len(env["delta_hat"]) == 6
        assert len(env["bound"]) == 6
        assert env["trials"] == 10


def test_spectral_text(main_cfg, capsys):
    assert cli(["spectral", "--config", main_cfg]) == 0
    out = capsys.readouterr().out
    assert "sigma = 0.666666666667" in out
    assert "||W - I|| = 1.33333333333" in out
    # q1 = 0.97 sits far above the feasible decay bound for a 6-ring
    assert "NOT contractive" in out


def test_spectral_json(main_cfg, capsys):
    assert cli(["spectral", "--config", main_cfg, "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert set(body) == {
        "sigma", "w_minus_i_norm", "q1_bound", "q1", "rho_atilde", "contractive",
    }
    assert np.isclose(body["sigma"], 2.0 / 3.0)
    assert body["q1"] == 0.97
    assert body["contractive"] is False


def test_tune_json(capsys):
    rc = cli([
        "tune", "--epsilon", "1", "--delta", "1", "--mu", "0.5", "--L", "1.5",
        "--n", "6", "--p", "2", "--restarts", "2", "--seed", "0",
        "--format", "json",
    ])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert set(body) == {"gamma", "q1", "q2", "bound"}
    assert 0.0 < body["q1"] < body["q2"] < 1.0
    assert body["gamma"] > 0.0
    assert body["bound"] > 0.0


def test_tune_text(capsys):
    rc = cli([
        "tune", "--epsilon", "1", "--delta", "1", "--mu", "0.5", "--L", "1.5",
        "--n", "6", "--p", "2", "--restarts", "1", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy bound = " in out


def test_mnmi_text(mnmi_cfg, capsys):
    assert cli(["mnmi", "--config", mnmi_cfg]) == 0
    out = capsys.readouterr().out
    assert "M-NMI = " in out
    assert "epsilon = 10" in out


def test_mnmi_json_and_dataset(mnmi_cfg, tmp_path, capsys):
    ds_path = tmp_path / "view.csv"
    rc = cli([
        "mnmi", "--config", mnmi_cfg, "--format", "json",
        "--dataset", str(ds_path),
    ])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert set(body) == {
        "mnmi", "argmax_k", "ratios", "skipped", "epsilon", "variant", "joint",
    }
    assert 0.0 <= body["mnmi"] <= 1.0
    assert 1 <= body["argmax_k"] <= 8
    assert len(body["ratios"]) == 8
    lines = ds_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "trial,k,v,attacker_estimate"
    assert len(lines) == 1 + 60 * 8
    first = lines[1].split(",")
    assert (int(first[0]), int(first[1])) == (0, 1)
    float(first[2]), float(first[3])


def test_mnmi_epsilon_override(mnmi_cfg, capsys):
    rc = cli([
        "mnmi", "--config", mnmi_cfg, "--epsilon", "0.1", "--format", "json",
    ])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["epsilon"] == 0.1


def test_compare_json(main_cfg, capsys):
    rc = cli([
        "compare", "--config", main_cfg, "--algorithms", "alg1,dp-dgd",
        "--format", "json",
    ])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert set(body) == {"alg1", "dp-dgd"}
    for curve in body.values():
        assert len(curve["residual_mean"]) == 16
        assert curve["final_residual_mean"] >= 0.0


TUNE_ARGS = ["tune", "--epsilon", "1", "--delta", "1", "--mu", "0.5", "--L", "1.5", "--n", "6",
             "--p", "2", "--restarts", "2", "--seed", "0"]


def redumped(text):
    """What text parses to, rendered by json.dumps indented with sorted keys."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [["run"], ["audit"], ["compare", "--algorithms", "alg1,dp-dgd"], ["mnmi"],
     ["mnmi", "--joint"], ["spectral"], TUNE_ARGS],
    ids=["run", "audit", "compare", "mnmi", "mnmi-joint", "spectral", "tune"],
)
def test_json_outputs_are_the_bytes_of_json_dumps(argv, main_cfg, mnmi_cfg, tmp_path, capsys):
    # every float round-trips through repr, so an output equals its re-dump
    # exactly when it is json.dumps(indent=2, sort_keys=True)'s rendering
    command = argv[0]
    if command != "tune":
        argv = [command, "--config", mnmi_cfg if command == "mnmi" else main_cfg, *argv[1:]]
    if command == "run":
        argv += ["--trace", str(tmp_path / "trace.csv"), "--summary", str(tmp_path / "s.json")]
    assert cli([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == redumped(out)
    if command == "run":
        summary = (tmp_path / "s.json").read_text(encoding="utf-8")
        assert summary == out == redumped(summary)


# every subcommand's calls, with the header of each CSV output
FORMAT_CALLS = {
    "run": (["run"], None),
    "audit": (["audit", "--trials", "10", "--iterations", "6"], "k,delta_hat,bound,margin"),
    "spectral": (["spectral"], "key,value"),
    "tune": (TUNE_ARGS, "gamma,q1,q2,bound"),
    "mnmi": (["mnmi"], "k,ratio"),
    "compare": (["compare", "--algorithms", "alg1,dp-dgd"], "algorithm,k,residual_mean"),
}


@pytest.mark.parametrize("command,fmt", [
    (command, fmt) for command, (_, header) in FORMAT_CALLS.items()
    for fmt in ("text", "json", "csv") if header or fmt != "csv"])
def test_every_subcommand_renders_every_format(command, fmt, main_cfg, mnmi_cfg, capsys):
    argv, header = FORMAT_CALLS[command]
    if command != "tune":
        argv = [*argv, "--config", mnmi_cfg if command == "mnmi" else main_cfg]
    if fmt != "text":
        argv = [*argv, "--format", fmt]
    status = cli(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    # only a text audit exits 1 on a failed check (criterion 3's ordering
    # legs fail on this config); its JSON and CSV report the checks and exit 0
    assert status == (1 if (command, fmt) == ("audit", "text") else 0)
    if fmt == "json":
        assert captured.out == redumped(captured.out)
    elif fmt == "csv":
        assert captured.out.split("\n", 1)[0] == header
    else:
        assert captured.out.endswith("\n") and "{" not in captured.out


@pytest.mark.parametrize("command", ["audit", "compare"])
def test_json_output_builds_no_csv(command, main_cfg, monkeypatch, capsys):
    # the CSV columns are built only when the CSV is asked for
    def refuse(*args):
        raise AssertionError("format_csv called")

    monkeypatch.setattr(cli_module.harness, "format_csv", refuse)
    argv, _ = FORMAT_CALLS[command]
    assert cli([*argv, "--config", main_cfg, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)


K4_CFG = (MAIN_CFG.replace("topology.kind = ring", "topology.kind = erdos-renyi")
          .replace("topology.n = 6", "topology.n = 4")
          + "topology.p_edge = 1\ntopology.seed = 0\n")


@pytest.mark.parametrize("fmt,sigma", [("text", "sigma = 0\n"), ("json", '"sigma": 0.0,\n'),
                                       ("csv", "sigma,0.0\n")], ids=["text", "json", "csv"])
def test_spectral_accepts_a_complete_graph(fmt, sigma, tmp_path, capsys):
    # K4's Metropolis weights are exactly 11^T/n, so sigma is exactly 0
    path = tmp_path / "k4.cfg"
    path.write_text(K4_CFG, encoding="utf-8")
    argv = ["spectral", "--config", str(path)] + (["--format", fmt] if fmt != "text" else [])
    assert cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sigma in captured.out


def test_compare_csv(main_cfg, tmp_path, capsys):
    out_path = tmp_path / "compare.csv"
    rc = cli([
        "compare", "--config", main_cfg, "--algorithms", "alg1",
        "--format", "csv", "--out", str(out_path),
    ])
    assert rc == 0
    capsys.readouterr()
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "algorithm,k,residual_mean"
    assert len(lines) == 1 + 16
    assert lines[1].startswith("alg1,0,")


def rowwise_csv(header, rows):
    """CSV text built row by row, with the per-cell rule written out: floats
    by repr, None as an empty cell and anything else by str."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def test_compare_csv_matches_rowwise_reference(main_cfg, capsys):
    assert cli([
        "compare", "--config", main_cfg, "--algorithms", "alg1,dp-dgd", "--format", "csv",
    ]) == 0
    out = capsys.readouterr().out
    cfg = dpdopt.load_config(main_cfg)
    wm = dpdopt.build_graph(cfg)
    pr = dpdopt.build_problem(cfg)
    rows = []
    for alg in ("alg1", "dp-dgd"):
        trace = dpdopt.monte_carlo(pr, wm, cfg.schedule, alg, cfg.iterations, cfg.trials,
                                   cfg.seed)
        rows.extend((alg, k, value) for k, value in enumerate(trace.residual.mean(axis=0)))
    assert out == rowwise_csv(("algorithm", "k", "residual_mean"), rows)


def test_mnmi_dataset_matches_rowwise_reference(mnmi_cfg, tmp_path, capsys):
    ds_path = tmp_path / "view.csv"
    assert cli(["mnmi", "--config", mnmi_cfg, "--dataset", str(ds_path)]) == 0
    capsys.readouterr()
    cfg = dpdopt.load_config(mnmi_cfg)
    wm = dpdopt.build_graph(cfg)
    ds = dpdopt.collect_attacker_view(dpdopt.build_problem(cfg), wm, cfg.schedule,
                                      cfg.iterations, cfg.trials, cfg.seed)
    est = ds.estimate()
    rows = ((t, k + 1, ds.V[t, k], est[t, k]) for t in range(ds.trials) for k in range(ds.K))
    expected = rowwise_csv(("trial", "k", "v", "attacker_estimate"), rows)
    assert ds_path.read_text(encoding="utf-8") == expected


def test_ensemble_reductions_follow_trial_order(tmp_path, capsys):
    # the summary's curves and compare's statistics are bitwise the
    # reductions over np.stack of the per-trial runs; at 100 trials a
    # reduction over a transposed view already rounds differently
    path = tmp_path / "hundred.cfg"
    path.write_text(MAIN_CFG.replace("run.trials = 5", "run.trials = 100"), encoding="utf-8")
    cfg = dpdopt.load_config(str(path))
    wm = dpdopt.build_graph(cfg)
    pr = dpdopt.build_problem(cfg)
    rows = np.stack([
        dpdopt.run(pr, wm, cfg.schedule, "alg1", cfg.iterations,
                   seed=dpdopt.trial_seed(cfg.seed, t)).residual[0]
        for t in range(cfg.trials)
    ])
    mean, std, finals = rows.mean(axis=0).tolist(), rows.std(axis=0).tolist(), rows[:, -1]
    assert cli(["run", "--config", str(path), "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["residual_mean"], summary["residual_std"]) == (mean, std)
    assert summary["final_residual"]["mean"] == float(finals.mean())
    assert summary["final_residual"]["std"] == float(finals.std())
    assert cli([
        "compare", "--config", str(path), "--algorithms", "alg1", "--format", "json",
    ]) == 0
    curve = json.loads(capsys.readouterr().out)["alg1"]
    assert curve["residual_mean"] == mean
    assert curve["final_residual_mean"] == float(finals.mean())
    assert curve["final_residual_std"] == float(finals.std())


def ensemble_outputs(main_cfg, mnmi_cfg, where, capsys):
    """Exit code, stdout and stderr of run, audit, mnmi and compare, and the
    bytes of the trace, summary and attacker dataset they write to where."""
    paths = {name: where / name for name in ("trace.csv", "summary.json", "view.csv")}
    argvs = [
        ["run", "--config", main_cfg, "--trace", str(paths["trace.csv"]),
         "--summary", str(paths["summary.json"])],
        ["audit", "--config", main_cfg, "--trials", "7", "--iterations", "6",
         "--format", "json"],
        ["mnmi", "--config", mnmi_cfg, "--trials", "61", "--format", "json",
         "--dataset", str(paths["view.csv"])],
        ["compare", "--config", main_cfg, "--algorithms", "alg1,dp-dgd",
         "--format", "csv"],
    ]
    results = []
    for argv in argvs:
        rc = cli(argv)
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err))
    files = {name: path.read_bytes() for name, path in paths.items()}
    return results, files


@pytest.mark.parametrize("chunk", [1, 2])
def test_outputs_do_not_depend_on_the_chunking(chunk, main_cfg, mnmi_cfg, tmp_path, capsys,
                                                 monkeypatch):
    # the simulator, the audit and the attacker view all take their chunks
    # from the engine; one trial per chunk, and chunks of 2 over odd trial
    # counts (5, 7 and 61, so the last chunk is short), give the one-chunk
    # outputs byte for byte
    sizes = []
    chunk_size = engine._chunk_size
    monkeypatch.setattr(engine, "_chunk_size",
                        lambda *args: sizes.append(chunk_size(*args)) or sizes[-1])
    whole = ensemble_outputs(main_cfg, mnmi_cfg, tmp_path, capsys)
    assert sizes == [5, 7, 61, 5, 5]  # each ensemble is one chunk
    assert [rc for rc, _, _ in whole[0]] == [0, 0, 0, 0]
    monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
    assert ensemble_outputs(main_cfg, mnmi_cfg, tmp_path, capsys) == whole


def with_values(text, values):
    """Config text with the `key = value` line of each key in values set to
    its value."""
    for key, value in values.items():
        text = "".join(f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
                       for line in text.splitlines())
    return text


def jobs_outputs(cfg, algorithm, where, capfd):
    """Exit code, stdout and stderr of run and compare for --jobs 1, 2 and 3,
    with the trace and summary run writes. capfd also sees what pool workers
    print."""
    outputs = []
    for jobs in ("1", "2", "3"):
        trace, summary = where / f"trace{jobs}.csv", where / f"summary{jobs}.json"
        result = []
        for argv in (["run", "--trace", str(trace), "--summary", str(summary)],
                     ["compare", "--algorithms", algorithm, "--format", "json"]):
            rc = cli([argv[0], "--config", cfg, "--jobs", jobs, *argv[1:]])
            captured = capfd.readouterr()
            result.append((rc, captured.out, captured.err))
        outputs.append((result, trace.read_bytes(), summary.read_bytes()))
    return outputs


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize("algorithm", ["alg1", "gt-noiseless"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_outputs_do_not_depend_on_the_jobs(p, algorithm, chunk, tmp_path, capfd, monkeypatch):
    # the trials split over 1, 2 or 3 processes, with fewer trials than jobs
    # and with a short last piece (7 trials), and again inside chunks of 2,
    # give the one-process outputs byte for byte
    if chunk is not None:
        monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
    # the noiseless dynamic at the engine tests' NOISELESS schedule
    schedule = ({"schedule.gamma": 0.002, "schedule.beta": 500, "schedule.delta": 0}
                if algorithm in engine._CONSTANT_STEP else {})
    for trials in (1, 2, 7):
        cfg = tmp_path / f"jobs{trials}.cfg"
        values = {"problem.p": p, "run.trials": trials, "run.algorithm": algorithm, **schedule}
        cfg.write_text(with_values(MAIN_CFG, values), encoding="utf-8")
        one, *more = jobs_outputs(str(cfg), algorithm, tmp_path, capfd)
        assert [rc for rc, _, _ in one[0]] == [0, 0]
        assert more == [one, one]


def compare_outputs(cfg, algorithms, jobs, capfd):
    """Exit code, stdout and stderr of compare in each format (text, json,
    csv)."""
    outputs = []
    for fmt in ([], ["--format", "json"], ["--format", "csv"]):
        rc = cli(["compare", "--config", cfg, "--algorithms", algorithms, "--jobs", jobs, *fmt])
        captured = capfd.readouterr()
        outputs.append((rc, captured.out, captured.err))
    return outputs


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_compare_reports_the_full_residual(p, trials, chunk, tmp_path, capfd, monkeypatch):
    # compare asks the engine for the residual alone; every format, under
    # --jobs 1 and 2 and in one-trial chunks, equals the output made from
    # full Traces, and the Traces compare receives hold no other series, so
    # a return to the full reduction fails here
    if chunk is not None:
        monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
    received = []

    def spy(*args, **kwargs):
        received.append(engine.monte_carlo(*args, **kwargs))
        return received[-1]

    def full(*args, residual_only, **kwargs):
        return engine.monte_carlo(*args, **kwargs)

    groups = {
        "alg1,dp-dgd,dgd-true-consensus,dgd-true-gradient": {},
        "alg1-noiseless-constant,gt-noiseless,dgd-noiseless-constant":
            {"schedule.gamma": 0.002, "schedule.beta": 500, "schedule.delta": 0},
    }
    for algorithms, schedule in groups.items():
        cfg = tmp_path / "compare.cfg"
        values = {"problem.p": p, "run.trials": trials, **schedule}
        cfg.write_text(with_values(MAIN_CFG, values), encoding="utf-8")
        monkeypatch.setattr(cli_module, "monte_carlo", full)
        reference = compare_outputs(str(cfg), algorithms, "1", capfd)
        assert {rc for rc, _, _ in reference} == {0}
        monkeypatch.setattr(cli_module, "monte_carlo", spy)
        for jobs in ("1", "2"):
            assert compare_outputs(str(cfg), algorithms, jobs, capfd) == reference
    assert len(received) == 2 * 3 * 7
    for trace in received:
        assert trace.residual.shape == (trials, 16)
        assert (trace.consensus_err, trace.mean_err, trace.step_norm) == (None, None, None)
        assert trace.diagnostics == {}


@pytest.mark.parametrize(
    "jobs,trials,width",
    [(1, 5, None), (2, 5, 1), (3, 2, 1), (64, 3, 2)],
    ids=["one-job", "one-chunk-two-jobs", "more-jobs-than-trials", "jobs-64-trials-3"],
)
def test_pool_width(jobs, trials, width, tmp_path, capsys, inline_pool):
    # a one-chunk run with --jobs > 1 hands every piece but the caller's to
    # the pool, so --jobs always takes effect; the pool starts no more
    # workers than there are such pieces
    cfg = tmp_path / "width.cfg"
    cfg.write_text(with_values(MAIN_CFG, {"run.trials": trials}), encoding="utf-8")
    argv = ["run", "--config", str(cfg), "--format", "json"]
    assert cli(argv) == 0
    serial = capsys.readouterr().out
    assert cli([*argv, "--jobs", str(jobs)]) == 0
    assert capsys.readouterr().out == serial
    expected = [] if width is None else [(width, min(jobs, trials) - 1, True)]
    assert [(pool.max_workers, pool.tasks, pool.shut) for pool in inline_pool] == expected


def test_compare_unknown_algorithm(main_cfg, capsys):
    rc = cli(["compare", "--config", main_cfg, "--algorithms", "alg1,sgd"])
    assert rc == 2
    assert "unknown algorithm 'sgd'" in capsys.readouterr().err


def test_compare_repeated_algorithm(main_cfg, capsys):
    rc = cli(["compare", "--config", main_cfg, "--algorithms", "alg1,alg1,dp-dgd"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("algorithm 'alg1' is named more than once")


def test_compare_empty_algorithm_list(main_cfg, capsys):
    rc = cli(["compare", "--config", main_cfg, "--algorithms", ","])
    assert rc == 2
    assert "expected at least one algorithm" in capsys.readouterr().err


def test_spectral_csv(main_cfg, capsys):
    assert cli(["spectral", "--config", main_cfg, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "sigma", "w_minus_i_norm", "q1_bound", "q1", "rho_atilde", "contractive",
    ]
    assert lines[-1] == "contractive,False"
    assert "np." not in out


OUT_CALLS = {
    "audit": ["audit", "--trials", "10", "--iterations", "6"],
    "mnmi": ["mnmi"],
    "compare": ["compare", "--algorithms", "alg1,dp-dgd"],
}


@pytest.mark.parametrize("fmt", [None, "json", "csv"])
@pytest.mark.parametrize("command", sorted(OUT_CALLS))
def test_out_file_equals_stdout(command, fmt, main_cfg, mnmi_cfg, tmp_path, capsys):
    # --out applies to every format, text included, and writes the bytes
    # the same call prints without it
    cfg = mnmi_cfg if command == "mnmi" else main_cfg
    argv = [*OUT_CALLS[command], "--config", cfg]
    if fmt is not None:
        argv += ["--format", fmt]
    rc = cli(argv)
    printed = capsys.readouterr().out
    out_path = tmp_path / "out"
    assert cli([*argv, "--out", str(out_path)]) == rc
    assert capsys.readouterr().out == ""
    assert out_path.read_bytes() == printed.encode("utf-8")
    assert printed
    if fmt == "csv":
        assert "np." not in printed


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--trials", "4", "--iterations", "3", "--out"],
        ["audit", "--trials", "4", "--iterations", "3", "--format", "csv", "--out"],
        ["mnmi", "--iterations", "2", "--dataset"],
        ["run", "--trace"],
        ["run", "--summary"],
    ],
    ids=["audit-out", "audit-csv-out", "mnmi-dataset", "run-trace", "run-summary"],
)
def test_unwritable_output_exits_three(argv, main_cfg, mnmi_cfg, tmp_path, capsys):
    cfg = mnmi_cfg if argv[0] == "mnmi" else main_cfg
    target = tmp_path / "no-such-dir" / "out"
    assert cli([argv[0], "--config", cfg, *argv[1:], str(target)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"cannot write {target}: ")
    assert "Traceback" not in err


def test_invalid_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("topology.kind = ring\n", encoding="utf-8")
    rc = cli(["run", "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "missing key" in err


@pytest.mark.parametrize("command", ["run", "spectral"])
def test_negative_seeds_exit_two(command, tmp_path, capsys):
    bad = tmp_path / "negative.cfg"
    bad.write_text(MAIN_CFG.replace("problem.seed = 11", "problem.seed = -3")
                   .replace("run.seed = 0", "run.seed = -1"), encoding="utf-8")
    assert cli([command, "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invalid config:",
        "  - problem.seed: must be >= 0, got -3",
        "  - run.seed: must be >= 0, got -1",
    ]


@pytest.mark.parametrize("key,value", [("topology.p_edge", "0.3"), ("topology.seed", "4")])
def test_ring_config_with_erdos_renyi_key_exits_two(key, value, tmp_path, capsys):
    bad = tmp_path / "ring.cfg"
    bad.write_text(f"{MAIN_CFG}{key} = {value}\n", encoding="utf-8")
    assert cli(["run", "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invalid config:", f"  - {key}: not used by a ring topology"]


def test_package_reexports_each_module_all():
    # each name is declared once, in its module's __all__; the package
    # re-exports their union, and dpdopt.cli is the entry point, not the module
    modules = [importlib.import_module(f"dpdopt.{info.name}")
               for info in pkgutil.iter_modules(dpdopt.__path__) if info.name != "__main__"]
    owner = {name: module for module in modules for name in module.__all__}
    assert len(owner) == sum(len(module.__all__) for module in modules)
    assert len(dpdopt.__all__) == len(set(dpdopt.__all__))
    assert set(dpdopt.__all__) == set(owner)
    for name in dpdopt.__all__:
        assert getattr(dpdopt, name) is getattr(owner[name], name), name
    assert dpdopt.cli is cli_module.cli
    # harness.__all__ once omitted two names the package exported
    assert {"format_trace_csv", "summarize", "draw_rows", "format_csv"} <= set(dpdopt.__all__)


def test_missing_config_file_exits_two(tmp_path, capsys):
    rc = cli(["run", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_no_arguments_is_usage_error(capsys):
    assert cli([]) == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--trials", "-2"],
        ["audit", "--trials", "0"],
        ["mnmi", "--iterations", "-1"],
        ["compare", "--algorithms", "alg1", "--trials", "-1"],
        ["compare", "--algorithms", "alg1", "--jobs", "0"],
        ["run", "--jobs", "two"],
    ],
)
def test_counts_below_one_are_usage_errors(main_cfg, argv, capsys):
    # rejected while parsing, before the config is read or anything runs
    assert cli([argv[0], "--config", main_cfg, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: expected an integer >= 1, got '{argv[-1]}'" in err
    assert "Traceback" not in err


TUNE = ["tune", "--epsilon", "1", "--delta", "0.1", "--mu", "1", "--L", "2", "--n", "6",
        "--p", "2"]
HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv",
    [
        ["mnmi", "--trials", "40"],
        ["mnmi", "--neighbors", "0"],
        ["mnmi", "--trials", "60", "--neighbors", "60"],
        [*TUNE, "--restarts", "0"],
        [*TUNE, "--n", "0"],  # argparse keeps the last of a repeated option
        [*TUNE, "--epsilon", "0"],
        ["audit", "--i0", "99"],
        ["spectral", "--theta", "-3"],
        ["spectral", "--theta", "-1"],  # a zero denominator
        ["spectral", "--theta", "0.5"],  # a finite bound outside theta > 1
        ["audit", "--delta", "nan", "--format", "json"],
        [*TUNE, "--epsilon", "nan", "--format", "json"],
        [*TUNE, "--mu", "nan"],
        ["compare", "--algorithms", "alg1", "--epsilon", "inf"],
        [*TUNE, "--mu", "1e6", "--L", "1e6"],  # the stepsize box [1e-6, 2/(mu + L)] is empty
    ],
    ids=["mnmi-trials", "mnmi-neighbors", "mnmi-neighbors-trials", "tune-restarts",
         "tune-n", "tune-epsilon", "audit-i0", "spectral-theta", "spectral-theta-minus-one",
         "spectral-theta-half", "audit-delta-nan", "tune-epsilon-nan", "tune-mu-nan",
         "compare-epsilon-inf", "tune-empty-stepsize-box"],
)
def test_invalid_input_exits_two(argv, main_cfg, mnmi_cfg, capsys):
    # values argparse accepts but the computation rejects end in one line
    if argv[0] != "tune":
        cfg = mnmi_cfg if argv[0] == "mnmi" else main_cfg
        argv = [argv[0], "--config", cfg, *argv[1:]]
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
@pytest.mark.parametrize("command", ["mnmi", "compare"])
def test_invalid_epsilon_override_names_the_flag(command, value, main_cfg, mnmi_cfg, capsys):
    argv = [command, "--config", mnmi_cfg if command == "mnmi" else main_cfg,
            "--epsilon", value]
    if command == "compare":
        argv += ["--algorithms", "alg1"]
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("--epsilon: epsilon must be ")


@pytest.mark.parametrize(
    "edits",
    [{"schedule.delta": "nan"}, {"schedule.beta": "nan"},
     {"schedule.gamma": "inf", "schedule.beta": "0"}, {"schedule.epsilon": "inf"},
     {"problem.omega_min": "nan"}, {"problem.omega_max": "inf"}],
    ids=["delta-nan", "beta-nan", "gamma-inf", "epsilon-inf", "omega-min-nan",
         "omega-max-inf"],
)
def test_non_finite_config_exits_two(edits, tmp_path, capsys):
    # NaN passes every ordering check, so each value is checked as finite: a
    # NaN delta would run noiseless yet print a positive spend, an infinite
    # gamma would end as divergence and a NaN omega in a traceback
    cfg = tmp_path / "non_finite.cfg"
    cfg.write_text(with_values(MAIN_CFG, edits), encoding="utf-8")
    assert cli(["run", "--config", str(cfg), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key, value = next(iter(edits.items()))
    header, violation = captured.err.splitlines()
    assert header == "invalid config:"
    assert key.split(".")[1] in violation
    assert violation.endswith(f"must be finite, got {value}")


DIVERGING_CFG = MAIN_CFG.replace("topology.n = 6", "topology.n = 10").replace(
    "schedule.gamma = 0.05", "schedule.gamma = 0.9").replace(
    "schedule.beta = 10", "schedule.beta = 1").replace(
    "schedule.q1 = 0.97", "schedule.q1 = 0.999").replace(
    "schedule.q2 = 0.99", "schedule.q2 = 0.9999").replace(
    "run.iterations = 15", "run.iterations = 500")


@pytest.mark.parametrize(
    "argv",
    [["run"], ["compare", "--algorithms", "alg1,dp-dgd", "--format", "json"],
     ["audit", "--format", "json"]],
    ids=["run", "compare", "audit"],
)
def test_divergence_exits_four(argv, tmp_path, capsys, monkeypatch):
    # one rule for every consumer: the earliest non-finite iteration, then
    # its lowest trial, of what the consumer records, whatever the chunking.
    # The audit's base run steps bit for bit as the simulator does, and its
    # L1 gap is not finite where a state is not, so it names the same trial
    # and iteration
    cfg = tmp_path / "diverging.cfg"
    cfg.write_text(with_values(DIVERGING_CFG, {"run.seed": 9}), encoding="utf-8")
    name = "gap" if argv[0] == "audit" else "state"
    for chunk in (None, 1, 7):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
        assert cli([argv[0], "--config", str(cfg), *argv[1:]]) == 4
        assert capsys.readouterr() == (
            "", f"alg1 diverged: trial seed {dpdopt.trial_seed(9, 3)} has a non-finite {name} "
                "at iteration 261 of 500\n"), chunk


def test_diverging_triangle_names_one_trial(tmp_path, capsys):
    # the leakage triangle at a diverging schedule: run, audit and mnmi name
    # the same trial. The attacker view's samples at k read the message
    # Z(k) = X(k - 1) + xi, so its first non-finite sample comes one
    # iteration after the first non-finite state
    cfg = tmp_path / "triangle.cfg"
    cfg.write_text(with_values(MNMI_CFG, {
        "schedule.gamma": 0.9, "schedule.beta": 1, "schedule.q1": 0.999,
        "schedule.q2": 0.9999, "run.iterations": 500}), encoding="utf-8")
    first = f"alg1 diverged: trial seed {dpdopt.trial_seed(5, 20)} has a non-finite"
    for command, tail in (("run", "state at iteration 252"), ("audit", "gap at iteration 252"),
                          ("mnmi", "y0 at iteration 253")):
        assert cli([command, "--config", str(cfg)]) == 4
        assert capsys.readouterr() == ("", f"{first} {tail} of 500\n"), command


def test_diverging_audit_and_mnmi_stop_stepping(tmp_path, capsys, monkeypatch):
    # a replay stops at the first step with a non-finite gap off row i0, one
    # step after the dynamic's first non-finite state (compare names
    # iterations 261, 265, 265 and 266), and an attacker chunk one record row
    # past its first non-finite one, of 500 steps (501 for mnmi)
    calls = collections.Counter()
    obs_step = engine._obs_step

    def counted(algorithm, *args):
        calls[algorithm] += 1
        return obs_step(algorithm, *args)

    monkeypatch.setattr(engine, "_obs_step", counted)
    cfg = tmp_path / "diverging.cfg"
    cfg.write_text(with_values(DIVERGING_CFG, {"run.seed": 9}), encoding="utf-8")
    assert cli(["audit", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.endswith(" gap at iteration 261 of 500\n")
    assert calls == {"alg1": 262, "dp-dgd": 266, "dgd-true-consensus": 266,
                     "dgd-true-gradient": 267}
    calls.clear()
    cfg = tmp_path / "triangle.cfg"
    cfg.write_text(with_values(MNMI_CFG, {
        "schedule.gamma": 0.9, "schedule.beta": 1, "schedule.q1": 0.999,
        "schedule.q2": 0.9999, "run.iterations": 500}), encoding="utf-8")
    assert cli(["mnmi", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.endswith(" y0 at iteration 253 of 500\n")
    assert calls == {"alg1": 254}


def test_divergence_line_does_not_depend_on_the_jobs(tmp_path, capfd, monkeypatch):
    # at run.seed = 9 trial 3 is the first to leave the finite floats (at
    # iteration 261) and trial 0 follows a step later, so a piece that starts
    # at trial 0 diverges later than another piece; every split names the
    # first non-finite iteration and its lowest trial, as one batch does
    cfg = tmp_path / "diverging.cfg"
    cfg.write_text(with_values(DIVERGING_CFG, {"run.seed": 9}), encoding="utf-8")
    argv = ["run", "--config", str(cfg)]
    assert cli(argv) == 4
    one_batch = capfd.readouterr()
    assert one_batch.err.startswith(f"alg1 diverged: trial seed {dpdopt.trial_seed(9, 3)} ")
    for chunk in (None, 1):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
        for jobs in ("1", "2", "3"):
            assert cli([*argv, "--jobs", jobs]) == 4
            assert capfd.readouterr() == one_batch


OVERFLOW_CFG = """\
topology.kind = erdos-renyi
topology.n = 10
topology.p_edge = 0.35
topology.seed = 7
problem.m = 2
problem.p = 2
problem.omega_min = 50
problem.omega_max = 60
problem.seed = 11
schedule.gamma = 0.9
schedule.beta = 1
schedule.q1 = 0.97
schedule.q2 = 0.99
schedule.epsilon = 1
schedule.delta = 1
run.algorithm = dp-dgd
run.iterations = 400
run.trials = 26
run.seed = 0
"""


def first_non_finite(text, series):
    """(iteration, trial, name) of the first non-finite value of the named
    series of the config text's ensemble, reduced step by step; None when
    every value is finite."""
    cfg = dpdopt.parse_config_text(text)
    pr = dpdopt.build_problem(cfg)
    xstar = dpdopt.optimum(pr)
    seeds = [dpdopt.trial_seed(cfg.seed, t) for t in range(cfg.trials)]
    alphas, nus = engine._schedule_arrays(cfg.schedule, cfg.iterations)
    steps = engine._trajectory(pr, dpdopt.build_graph(cfg).W, cfg.algorithm, alphas, nus,
                               cfg.schedule.beta, seeds)
    prev = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (X, *_) in enumerate(steps):
            assert np.isfinite(X).all()  # the states stay finite
            xbar = X.mean(axis=1)
            values = {
                "residual": np.add.reduce((X - xstar) ** 2, axis=(1, 2)),
                "consensus_err": np.add.reduce((X - xbar[:, None]) ** 2, axis=(1, 2)),
                "mean_err": np.add.reduce((xbar - xstar) ** 2, axis=1),
                "step_norm": (np.zeros(len(X)) if prev is None
                              else np.add.reduce((X - prev) ** 2, axis=(1, 2))),
            }
            for t in range(len(X)):
                for name in series:
                    if not np.isfinite(values[name][t]):
                        return k, t, name
            prev = X
    return None


@pytest.mark.parametrize("algorithm", ["alg1", "dp-dgd"])
def test_overflowing_series_exits_four(algorithm, tmp_path, capfd, monkeypatch):
    # gamma * omega ~ 50: the states grow to ~1e155 and shrink again once the
    # stepsize has decayed, so they stay finite while the squared metrics
    # overflow. run and compare name the first iteration, trial and series
    # of their own output that is not finite, in one line, whatever the
    # split. For dp-dgd run names a series compare does not report; for
    # alg1 several series overflow at once, and the first in trace order
    # is named
    text = with_values(OVERFLOW_CFG, {"run.algorithm": algorithm})
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text, encoding="utf-8")
    seeds = [dpdopt.trial_seed(0, t) for t in range(26)]
    expected = {}
    for command, series in (("run", engine._SERIES), ("compare", ("residual",))):
        k, t, name = first_non_finite(text, series)
        expected[command] = (f"{algorithm} diverged: trial seed {seeds[t]} has a non-finite "
                             f"{name} at iteration {k} of 400\n")
    for chunk in (None, 1):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_size", lambda *args: chunk)
        for jobs in ("1", "2", "3"):
            for argv in (["run"], ["compare", "--algorithms", algorithm, "--format", "json"]):
                assert cli([argv[0], "--config", str(cfg), "--jobs", jobs, *argv[1:]]) == 4
                assert capfd.readouterr() == ("", expected[argv[0]])


def test_overflowing_statistic_exits_four(tmp_path, capsys):
    # at 100 iterations every series is finite, but the largest residuals
    # are near 1e288, so their spread over the trials overflows; the line
    # names the output field. dp-dgd has no invariant, so the suite's gate
    # checks none on these states
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(with_values(OVERFLOW_CFG, {"run.iterations": 100}), encoding="utf-8")
    assert first_non_finite(cfg.read_text(encoding="utf-8"), engine._SERIES) is None
    for argv, field in ((["run", "--format", "json"], "residual_std"),
                        (["compare", "--algorithms", "dp-dgd"], "final_residual_std")):
        assert cli([argv[0], "--config", str(cfg), *argv[1:]]) == 4
        assert capsys.readouterr() == (
            "", f"dp-dgd: {field} is not finite, though every residual it is taken over is\n")


@pytest.mark.parametrize("fmt", [[], ["--format", "json"], ["--format", "csv"]],
                         ids=["text", "json", "csv"])
@pytest.mark.parametrize(
    "values",
    [["--epsilon", "1", "--delta", "1e300"],  # delta**2 overflows
     ["--epsilon", "1e-308", "--delta", "1"]],  # epsilon**2 underflows to 0
    ids=["delta-overflows", "epsilon-underflows"],
)
def test_non_finite_tune_bound_exits_four(values, fmt, capsys):
    # finite inputs that pass every tune rule, but whose accuracy bound is
    # infinite wherever the search looks: a reported number that overflows
    argv = ["tune", *values, "--mu", "1", "--L", "2", "--n", "3", "--p", "1"]
    assert cli([*argv, *fmt]) == 4
    assert capsys.readouterr() == (
        "", "tune: the accuracy bound is not finite at any point searched\n")


@pytest.mark.parametrize("fmt", [[], ["--format", "json"], ["--format", "csv"]],
                         ids=["text", "json", "csv"])
def test_non_finite_attacker_sample_exits_four(fmt, tmp_path, capsys):
    # alpha_k = 0.01 * 0.5**(k - 1) reaches the subnormals, and both estimates
    # divide by it: at run.seed = 9 trial 4's reconstruction estimate is the
    # first sample to leave the floats, at iteration 1 040, and its verbatim
    # estimate follows at 1 041. One line names it, with no numpy warning,
    # and neither the output nor the dataset is written
    cfg = tmp_path / "mnmi.cfg"
    cfg.write_text(with_values(MNMI_CFG, {"run.trials": 200, "run.seed": 9}), encoding="utf-8")
    dataset = tmp_path / "dataset.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["mnmi", "--config", str(cfg), "--iterations", "1080",
                    "--dataset", str(dataset), *fmt]) == 4
    assert capsys.readouterr() == (
        "", f"alg1 diverged: trial seed {dpdopt.trial_seed(9, 4)} has a non-finite "
            "estimate_reconstruction at iteration 1040 of 1080\n")
    assert not dataset.exists()


def test_empty_output_flag_exits_two(mnmi_cfg, tmp_path, capsys, monkeypatch):
    # an empty output path is rejected before any config is read, not
    # replaced by the config's output path or by stdout
    written = {key: tmp_path / f"from_config.{key}" for key in ("trace", "summary")}
    cfg = tmp_path / "outputs.cfg"
    cfg.write_text(MAIN_CFG + "".join(f"output.{key} = {path}\n"
                                      for key, path in written.items()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in (["run", "--config", str(cfg), "--trace", ""],
                 ["run", "--config", str(cfg), "--summary", ""],
                 ["audit", "--config", str(cfg), "--out", ""],
                 ["audit", "--config", str(cfg), "--format", "json", "--out", ""],
                 ["mnmi", "--config", mnmi_cfg, "--format", "json", "--out", ""],
                 ["mnmi", "--config", mnmi_cfg, "--dataset", ""],
                 ["compare", "--config", str(cfg), "--algorithms", "alg1", "--out", ""]):
        assert cli(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{argv[-2]}: must not be empty\n"), argv
    assert sorted(path.name for path in tmp_path.iterdir()) == ["outputs.cfg"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["audit", "--delta", "-1"], "--delta: adjacency bound must be finite and >= 0, got -1.0"),
        (["audit", "--i0", "99"], "--i0: agent index 99 out of range for n=6"),
        (["mnmi", "--neighbors", "0"], "--neighbors: k_neighbors must be in [1, 59], got 0"),
        (["spectral", "--theta", "-3"], "--theta: theta must be > 1, got -3"),
        ([*TUNE, "--epsilon", "-1"], "--epsilon: epsilon must be finite and > 0, got -1.0"),
        ([*TUNE, "--mu", "nan"], "--mu: mu must be finite and > 0, got nan"),
        ([*TUNE, "--c2", "-0.5"], "--c2: c2 must be finite and >= 0, got -0.5"),
        ([*TUNE, "--restarts", "0"], "--restarts: restarts must be >= 1, got 0"),
        # an int that does not convert to a float
        ([*TUNE, "--n", HUGE], f"--n: n must be at most 1.7976931348623157e+308, got {HUGE}"),
        ([*TUNE, "--p", HUGE], f"--p: p must be at most 1.7976931348623157e+308, got {HUGE}"),
        ([*TUNE, "--seed", "-1"], "--seed: seed must be >= 0, got -1"),
        (["spectral", "--theta", "inf"], "--theta: theta must be finite, got inf"),
        # the config's schedule.delta is 1
        (["compare", "--algorithms", "alg1,gt-noiseless"],
         "--algorithms: gt-noiseless is noiseless and needs schedule.delta = 0"),
    ],
    ids=["audit-delta", "audit-i0", "mnmi-neighbors", "spectral-theta", "tune-epsilon",
         "tune-mu-nan", "tune-c2", "tune-restarts", "tune-n-huge", "tune-p-huge",
         "tune-seed", "spectral-theta-inf", "compare-noiseless"],
)
def test_rejected_flag_value_names_the_flag(argv, message, main_cfg, mnmi_cfg, capsys,
                                            monkeypatch):
    def not_simulated(*args, **kwargs):
        raise AssertionError("simulated before the flag was checked")

    monkeypatch.setattr(cli_module, "monte_carlo", not_simulated)
    if argv[0] != "tune":
        argv = [argv[0], "--config", mnmi_cfg if argv[0] == "mnmi" else main_cfg, *argv[1:]]
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


@pytest.mark.parametrize("source", ["--trials", "run.trials"])
def test_mnmi_sample_count_names_its_source(source, tmp_path, monkeypatch, capsys):
    # the leakage estimator needs 50 samples, one per trial; the count is
    # checked before anything is simulated, and the message names what set it
    cfg = tmp_path / "mnmi.cfg"
    argv = ["mnmi", "--config", str(cfg)]
    if source == "--trials":
        cfg.write_text(MNMI_CFG, encoding="utf-8")
        argv += ["--trials", "40"]
    else:
        cfg.write_text(with_values(MNMI_CFG, {"run.trials": 40}), encoding="utf-8")

    def not_simulated(*args, **kwargs):
        raise AssertionError("simulated before the sample count was checked")

    monkeypatch.setattr(privacy_eval, "collect_attacker_view", not_simulated)
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"{source}: need at least 50 samples, got 40\n")


def test_shared_parser_gives_a_fresh_parsers_outputs(main_cfg, mnmi_cfg, capsys, monkeypatch):
    calls = (
        ["run", "--config", main_cfg, "--bogus"],
        ["run", "--config", main_cfg, "--format", "json"],
        ["audit", "--config", main_cfg, "--trials", "3", "--format", "json"],
        ["mnmi", "--config", mnmi_cfg, "--format", "json"],
        ["compare", "--config", main_cfg, "--algorithms", "alg1,dp-dgd", "--format", "csv"],
    )

    def outputs():
        results = []
        for argv in calls:
            status = cli(argv)
            results.append((status, capsys.readouterr()))
        return results

    shared = outputs()
    assert cli_module._build_parser() is cli_module._build_parser()
    monkeypatch.setattr(cli_module, "_build_parser", cli_module._build_parser.__wrapped__)
    assert outputs() == shared
    assert [status for status, _ in shared] == [2, 0, 0, 0, 0]
    assert "unrecognized arguments: --bogus" in shared[0][1].err


def test_parser_is_built_at_the_first_call():
    src = os.path.dirname(os.path.dirname(dpdopt.__file__))
    script = ("import contextlib, importlib, io\n"
              "c = importlib.import_module('dpdopt.cli')\n"
              "built = c._build_parser.cache_info().currsize\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    c.cli(['tune', '--epsilon', '1', '--delta', '1', '--mu', '1', '--L', '2',"
              " '--n', '2', '--p', '1', '--restarts', '1'])\n"
              "print(built, c._build_parser.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 1\n"


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(dpdopt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "dpdopt", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: dpdopt")


STARTUP_SCRIPT = """\
import contextlib, io, json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import dpdopt
from dpdopt.cli import cli

main_cfg, mnmi_cfg = sys.argv[1:]
steps = [("import", None, scipy_modules())]
for argv in (
    ["run", "--config", main_cfg, "--format", "json"],
    ["audit", "--config", main_cfg, "--trials", "5", "--iterations", "5", "--format", "json"],
    ["compare", "--config", main_cfg, "--algorithms", "alg1,dp-dgd", "--format", "json"],
    ["spectral", "--config", main_cfg, "--format", "json"],
    ["tune", "--epsilon", "1", "--delta", "1", "--mu", "0.5", "--L", "1.5", "--n", "6",
     "--p", "2", "--restarts", "1", "--format", "json"],
    ["mnmi", "--config", mnmi_cfg, "--format", "json"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli(argv)
    steps.append((argv[0], status, scipy_modules()))
print(json.dumps(steps))
"""


def test_only_mnmi_imports_scipy(main_cfg, mnmi_cfg):
    # a fresh interpreter: other test modules import scipy into this one
    src = os.path.dirname(os.path.dirname(dpdopt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, main_cfg, mnmi_cfg],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert [step[:2] for step in steps] == [
        ["import", None], ["run", 0], ["audit", 0], ["compare", 0], ["spectral", 0],
        ["tune", 0], ["mnmi", 0],
    ]
    for name, _, loaded in steps[:-1]:
        assert loaded == [], f"{name} imported {loaded[:3]}"
    assert {"scipy.spatial", "scipy.special"} <= set(steps[-1][2])
