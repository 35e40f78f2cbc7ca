"""Command-line front end.

Subcommands: run (experiment to trace CSV + summary JSON), audit
(sensitivity envelopes and ordering checks), spectral (mixing constants and
feasible decay rates for a config's graph), tune (accuracy-bound parameter
search), mnmi (three-agent leakage scenario), compare (residual curves for
several dynamics on one problem). --format csv|json selects machine output;
without it a short human-readable text is printed.

Each subcommand's handler returns its result as data, (status, body, table,
text): the text output's exit status, the JSON body, a function of no
arguments that gives the CSV header and columns (None for run, which has no
CSV output) and the text output. cli() renders the one format asked for and
writes it once, to --out or stdout. No handler reads --format.

Exit status: 0 success, 1 a failed audit check, 2 a usage error or any
invalid input, 3 an output that could not be written, 4 a diverging run or
a reported number that overflows. Only text output exits 1: a JSON or CSV
audit reports its checks in the output and exits 0.
Every error is reported on stderr without a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys

import numpy as np

from . import analysis, harness, privacy_eval
from .engine import _CONSTANT_STEP, ALGORITHMS, monte_carlo
from .errors import DivergenceError
from .objective import make_adjacent
from .topology import spectral_constants

__all__ = ["cli", "main"]


@contextlib.contextmanager
def _flag(name: str):
    """Re-raise a ValueError of the block, of the same type, under the flag
    name: the config's values are valid, so every rejected value is the flag's."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{name}: {exc}") from None


def _inputs(args):
    """The config, weights, problem, schedule, trial count and horizon of
    audit, mnmi and compare, after their --epsilon, --trials and
    --iterations overrides (each subcommand has some of them)."""
    cfg = harness.load_config(args.config)
    wm = harness.build_graph(cfg)
    pr = harness.build_problem(cfg)
    sp = cfg.schedule
    if getattr(args, "epsilon", None) is not None:
        with _flag("--epsilon"):
            sp = dataclasses.replace(sp, epsilon=args.epsilon)
    trials = getattr(args, "trials", None) or cfg.trials
    T = getattr(args, "iterations", None) or cfg.iterations
    return cfg, wm, pr, sp, trials, T


def _cmd_run(args):
    cfg = harness.load_config(args.config)
    summary = harness.run_experiment(
        cfg, jobs=args.jobs, trace_path=args.trace, summary_path=args.summary
    )
    final = summary["final_residual"]
    return 0, summary, None, (
        f"{cfg.algorithm}: trials={summary['trials']} T={summary['iterations']} "
        f"final residual {final['mean']:.6g} +- {final['std']:.6g} "
        f"(spent {summary['privacy_spent']:.6g})\n"
        f"content hash {summary['content_hash']}\n"
    )


def _cmd_audit(args):
    cfg, wm, pr, sp, trials, T = _inputs(args)
    with _flag("--delta" if 0 <= args.i0 < pr.n else "--i0"):
        pair = make_adjacent(pr, args.i0, sp.delta if args.delta is None else args.delta,
                             cfg.seed)
    report = analysis.compare_sensitivities(pair, wm, sp, T, trials, cfg.seed)

    checks = {
        "bound alg1": report.envelopes["alg1"].within_bound,
        "untouched rows alg1": report.envelopes["alg1"].off_target_max == 0.0,
    }
    for key in report.ordering_gap:
        checks[f"ordering {key}"] = report.ordering_holds(key)
    for key in report.recursion_gap:
        checks[f"recursion {key}"] = report.recursion_holds(key)
    body = {
        "checks": checks,
        "ordering_gap": report.ordering_gap,
        "recursion_gap": report.recursion_gap,
        "envelopes": {
            name: {
                "delta_hat": e.delta_hat.tolist(),
                "bound": e.bound.tolist(),
                "trials": e.trials,
                "off_target_max": e.off_target_max,
            }
            for name, e in report.envelopes.items()
        },
    }
    env = report.envelopes[args.algorithm]
    return (
        0 if all(checks.values()) else 1,
        body,
        lambda: (("k", "delta_hat", "bound", "margin"),
                 (range(1, T + 1), env.delta_hat, env.bound, env.margin)),
        "".join(f"{name}: {'PASS' if ok else 'FAIL'}\n" for name, ok in checks.items()),
    )


def _cmd_spectral(args):
    cfg = harness.load_config(args.config)
    wm = harness.build_graph(cfg)
    sigma, w_minus_i = spectral_constants(wm)
    with _flag("--theta"):
        q1_max = analysis.q1_bound(sigma, args.theta, w_minus_i)
    block = analysis.atilde(sigma, cfg.schedule.q1, w_minus_i)
    contractive = analysis.rho_less_than(block, 1.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(block))))
    rows = {
        "sigma": sigma,
        "w_minus_i_norm": w_minus_i,
        "q1_bound": q1_max,
        "q1": cfg.schedule.q1,
        "rho_atilde": rho,
        "contractive": contractive,
    }
    return 0, rows, lambda: (("key", "value"), (rows.keys(), rows.values())), (
        f"sigma = {sigma:.12g}\n"
        f"||W - I|| = {w_minus_i:.12g}\n"
        f"q1 bound (theta={args.theta:g}) = {q1_max:.12g}\n"
        f"q1 = {cfg.schedule.q1:g}: rho(A~) = {rho:.6g} "
        f"({'contractive' if contractive else 'NOT contractive'})\n"
    )


# each tune flag sets the analysis.tune argument of its name; checked here, so
# that a rejected value is reported under its flag
_TUNE_RULES = (
    (("epsilon", "mu", "L"), lambda v: math.isfinite(v) and v > 0, "must be finite and > 0"),
    (("delta", "c1", "c2"), lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0"),
    (("n", "p", "restarts"), lambda v: v >= 1, "must be >= 1"),
    (("seed",), lambda v: v >= 0, "must be >= 0"),
    # an int compares with a float exactly: this rejects one that does not convert
    (("n", "p"), lambda v: v <= sys.float_info.max, f"must be at most {sys.float_info.max!r}"),
)


def _cmd_tune(args):
    for names, ok, rule in _TUNE_RULES:
        for name in names:
            value = getattr(args, name)
            if not ok(value):
                raise ValueError(f"--{name}: {name} {rule}, got {value}")
    gamma, q1, q2, bound = analysis.tune(
        args.epsilon, args.delta, args.mu, args.L, args.n, args.p, args.c1, args.c2,
        restarts=args.restarts, seed=args.seed,
    )
    rows = {"gamma": gamma, "q1": q1, "q2": q2, "bound": bound}
    return 0, rows, lambda: (rows.keys(), [[value] for value in rows.values()]), (
        f"gamma = {gamma:.6g}, q1 = {q1:.6g}, q2 = {q2:.6g}\n"
        f"accuracy bound = {bound:.6g}\n"
    )


def _cmd_mnmi(args):
    cfg, wm, pr, sp, trials, T = _inputs(args)
    # each iteration's score takes one sample per trial; checked before the
    # simulation, naming whichever of the flag or the config set the count
    if trials < privacy_eval._MIN_SAMPLES:
        source = "run.trials" if args.trials is None else "--trials"
        raise ValueError(f"{source}: need at least {privacy_eval._MIN_SAMPLES} samples, "
                         f"got {trials}")
    if not 1 <= args.neighbors <= trials - 1:
        raise ValueError(f"--neighbors: k_neighbors must be in [1, {trials - 1}], "
                         f"got {args.neighbors}")
    ds = privacy_eval.collect_attacker_view(pr, wm, sp, T, trials, cfg.seed)
    report = privacy_eval.mnmi_report(
        ds, k_neighbors=args.neighbors, variant=args.variant, joint=args.joint
    )
    if args.dataset:
        columns = (
            np.repeat(np.arange(ds.trials), ds.K),
            np.tile(np.arange(1, ds.K + 1), ds.trials),
            ds.V.ravel(),
            ds.estimate(args.variant).ravel(),
        )
        harness._write(
            args.dataset, harness.format_csv(("trial", "k", "v", "attacker_estimate"), columns)
        )

    # skipped iterations have a NaN ratio; they render as JSON null and an
    # empty CSV cell
    ratios = [None if np.isnan(r) else r for r in report.ratios]
    body = {
        "mnmi": report.value,
        "argmax_k": report.argmax_k,
        "ratios": ratios,
        "skipped": list(report.skipped),
        "epsilon": sp.epsilon,
        "variant": args.variant,
        "joint": args.joint,
    }
    return 0, body, lambda: (("k", "ratio"), (range(1, len(ratios) + 1), ratios)), (
        f"M-NMI = {report.value:.4g} at k = {report.argmax_k} "
        f"(epsilon = {sp.epsilon:g}, variant = {args.variant}, "
        f"trials = {trials}, K = {T})\n"
    )


def _cmd_compare(args):
    cfg, wm, pr, sp, trials, T = _inputs(args)
    noiseless = [alg for alg in args.algorithms if alg in _CONSTANT_STEP]
    if noiseless and sp.delta != 0.0:
        raise ValueError(f"--algorithms: {noiseless[0]} is noiseless and needs schedule.delta = 0")

    curves = {}
    for alg in args.algorithms:
        residual = monte_carlo(pr, wm, sp, alg, T, trials, cfg.seed, jobs=args.jobs,
                               residual_only=True).residual
        finals = residual[:, -1]
        curves[alg] = {
            "residual_mean": residual.mean(axis=0),
            "final_residual_mean": float(finals.mean()),
            "final_residual_std": float(finals.std()),
        }
        harness.require_finite(alg, curves[alg])

    body = {alg: {**curve, "residual_mean": curve["residual_mean"].tolist()}
            for alg, curve in curves.items()}
    return 0, body, lambda: (("algorithm", "k", "residual_mean"), (
        np.repeat(list(curves), T + 1),
        np.tile(np.arange(T + 1), len(curves)),
        np.concatenate([curve["residual_mean"] for curve in curves.values()]),
    )), "".join(
        f"{alg}: final residual {curve['final_residual_mean']:.6g} "
        f"+- {curve['final_residual_std']:.6g}\n"
        for alg, curve in curves.items()
    )


def _count(text: str) -> int:
    """argparse type of --jobs, --trials and --iterations: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _algorithms(text: str) -> list[str]:
    """argparse type of compare --algorithms: comma-separated known dynamics,
    each at most once."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"expected at least one algorithm, got {text!r}")
    for name in names:
        if name not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {name!r}; expected one of {ALGORITHMS}"
            )
        if names.count(name) > 1:
            raise argparse.ArgumentTypeError(f"algorithm {name!r} is named more than once")
    return names


_JOBS_HELP = ("processes to split the trials over, the calling one included; "
             "the output is the same for every N")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The `dpdopt` argument parser, built at the first `cli()` call and then
    shared: parsing leaves it as it was, and building it takes far longer
    than a parse."""
    parser = argparse.ArgumentParser(
        prog="dpdopt",
        description="simulate and analyze differentially private distributed optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p, choices=("csv", "json")):
        p.add_argument("--format", choices=choices, default=None,
                       help="machine-readable output format")

    p = sub.add_parser("run", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=_count, default=1, metavar="N", help=_JOBS_HELP)
    p.add_argument("--trace", help="override output.trace")
    p.add_argument("--summary", help="override output.summary")
    fmt(p, choices=("json",))
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("audit", help="sensitivity envelopes and orderings")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=_count)
    p.add_argument("--iterations", type=_count)
    p.add_argument("--i0", type=int, default=0, help="perturbed agent index")
    p.add_argument("--delta", type=float, help="override adjacency bound")
    p.add_argument("--algorithm", choices=analysis.AUDIT_ALGORITHMS, default="alg1",
                   help="which envelope the CSV body reports")
    p.add_argument("--out", help="write output here instead of stdout")
    fmt(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("spectral", help="mixing constants for a config's graph")
    p.add_argument("--config", required=True)
    p.add_argument("--theta", type=float, default=2.0)
    fmt(p)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("tune", help="minimize the accuracy bound")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    fmt(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("mnmi", help="three-agent leakage scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=_count)
    p.add_argument("--iterations", type=_count)
    p.add_argument("--epsilon", type=float, help="override schedule.epsilon")
    p.add_argument("--neighbors", type=int, default=3)
    p.add_argument("--variant", choices=("reconstruction", "verbatim"),
                   default="reconstruction")
    p.add_argument("--joint", action="store_true",
                   help="score the full observable triple")
    p.add_argument("--dataset", help="also dump (trial,k,v,estimate) CSV here")
    p.add_argument("--out", help="write output here instead of stdout")
    fmt(p)
    p.set_defaults(func=_cmd_mnmi)

    p = sub.add_parser("compare", help="residual curves for several dynamics")
    p.add_argument("--config", required=True)
    p.add_argument("--algorithms", type=_algorithms, required=True,
                   help="comma-separated tags, e.g. alg1,dp-dgd")
    p.add_argument("--epsilon", type=float, help="override schedule.epsilon")
    p.add_argument("--trials", type=_count)
    p.add_argument("--jobs", type=_count, default=1, metavar="N", help=_JOBS_HELP)
    p.add_argument("--out", help="write output here instead of stdout")
    fmt(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an empty output path is rejected, not read as "none given"
        for flag in ("trace", "summary", "out", "dataset"):
            if getattr(args, flag, None) == "":
                raise ValueError(f"--{flag}: must not be empty")
        # a diverging run overflows on its way to the DivergenceError, which
        # is the report; numpy's overflow warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            status, body, table, text = args.func(args)
        if args.format == "json":
            status, text = 0, harness.format_json(body)
        elif args.format == "csv":
            status, text = 0, harness.format_csv(*table())
        harness._write(getattr(args, "out", None), text)
    except DivergenceError as exc:
        print(exc, file=sys.stderr)
        return 4
    except ValueError as exc:
        # ConfigError and every other dpdopt.errors type but divergence
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 3
    return status


def main() -> int:
    return cli(sys.argv[1:])
