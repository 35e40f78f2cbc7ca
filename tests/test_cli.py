"""End-to-end coverage of the command-line front end.

Every test drives cli() with an argv list and asserts on exit code plus
captured output, exactly as a shell user would see it.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dpdopt
from dpdopt import engine
from dpdopt.cli import cli

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
    ],
    ids=["mnmi-trials", "mnmi-neighbors", "mnmi-neighbors-trials", "tune-restarts",
         "tune-n", "tune-epsilon", "audit-i0", "spectral-theta", "spectral-theta-minus-one",
         "spectral-theta-half", "audit-delta-nan", "tune-epsilon-nan", "tune-mu-nan",
         "compare-epsilon-inf"],
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
    text = MAIN_CFG
    for key, value in edits.items():
        text = "".join(f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
                       for line in text.splitlines())
    cfg = tmp_path / "non_finite.cfg"
    cfg.write_text(text, encoding="utf-8")
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
def test_divergence_exits_four(argv, tmp_path, capsys):
    cfg = tmp_path / "diverging.cfg"
    cfg.write_text(DIVERGING_CFG, encoding="utf-8")
    assert cli([argv[0], "--config", str(cfg), *argv[1:]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("alg1 diverged: trial seed ")
    # the simulator names the first non-finite iteration; the audit checks
    # the final states only
    if argv[0] != "audit":
        assert " has a non-finite state at iteration " in captured.err
    assert "Traceback" not in captured.err


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
