"""The dpdopt benchmark.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It starts the workload's process a
few times for set-up alone and once to measure, with `src` on PYTHONPATH and
BLAS pinned to one thread, and prints as its last line one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1. The end-to-end times are given at the reference speed of the
calibration loop in workload.py. The line before it reports the raw
latencies, the output checks and the machine. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workload import SIZES, WORKLOADS, at_reference_speed, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 7  # processes that only set up; set-up time is their median
TIMEOUT_S = 170  # the whole run ends within this, or fails

# per_layer names and units; every traced run reports all of them
LAYER_UNITS = {
    "harness.load_config_s": "s", "harness.build_s": "s", "objective.optimum_s": "s",
    "topology.weights_s": "s", "harness.format_csv_s": "s", "harness.csv_bytes": "bytes",
    "harness.summarize_s": "s", "harness.write_s": "s", "harness.write_bytes": "bytes",
    "cli.calls": "count", "cli.self_s": "s",
    "engine.monte_carlo_s": "s", "engine.self_s": "s", "engine.steps_per_s": "1/s",
    "engine.chunks": "count", "engine.workers": "count", "engine.noise_block_bytes": "bytes",
    "engine.obs_step_calls": "count", "engine.obs_step_self_s": "s",
    "engine.trial_seed_calls": "count",
    "objective.gradients_calls": "count", "objective.gradients_s": "s",
    "objective.gradients_per_step": "ratio",
    "schedule.laplace_calls": "count", "schedule.laplace_s": "s",
    "schedule.laplace_elems": "count",
    "rng.substream_calls": "count", "rng.substream_s": "s",
    "rng.substream_distinct_ratio": "ratio",
    "analysis.audit_calls": "count", "analysis.audit_s": "s",
    "analysis.replay_steps": "count", "analysis.ordering_violations": "count",
    "privacy_eval.collect_s": "s", "privacy_eval.ksg_calls": "count",
    "privacy_eval.ksg_s": "s", "privacy_eval.tree_builds": "count",
    "privacy_eval.joint_query_s": "s", "privacy_eval.marginal_count_s": "s",
    "trace.coverage": "ratio", "trace.wall_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description="dpdopt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="toy sizes serve the benchmark's own test")
    return parser.parse_args(argv)


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "dpdopt")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], root):
        return None
    return lines[1]


def _stop(proc, deadline):
    """Wait for the process until the deadline; kill it after that."""
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process timed out") from None
    finally:
        proc.stdout.close()


def _setup(cmd, env, deadline):
    """Start a workload process and time it up to its first CLI call."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"workload process failed during set-up: {line.strip()!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def tail(values):
    """The highest sample with at least ten samples beyond it, and its
    percentile; the slowest sample when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    idx = n - 11 if n >= 11 else n - 1
    return {"value": ordered[idx], "percentile": 100.0 * idx / (n - 1) if n > 1 else 100.0}


def summary(values):
    return {"median": statistics.median(values), "tail": tail(values),
            "min": min(values), "samples": len(values)}


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dpdopt", "__init__.py")):
        print("perfbench: run from a dpdopt source checkout (no src/dpdopt here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), args.workload,
           str(args.seed), repr(args.seconds), args.size, str(args.trace), workdir]
    try:
        setups, setups_norm = [], []
        for _ in range(SETUP_PROBES):
            before = calibrate()
            proc, setup = _setup(cmd + ["--probe"], env, deadline)
            _stop(proc, deadline)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe exited with {proc.returncode}")
            setups.append(setup)
            setups_norm.append(at_reference_speed(setup, (before + calibrate()) / 2))
        proc, _ = _setup(cmd, env, deadline)
        try:
            line = proc.stdout.readline()
        finally:
            _stop(proc, deadline)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"workload process exited with {proc.returncode}")
        result = json.loads(line)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # ru_maxrss of waited-for children is in KiB: the largest single process
    # among the workload process, its set-up probes and its pool workers
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    samples = result["samples"]
    walls = [s[1] for s in samples]
    norms = [s[7] for s in samples]
    failed = sum(1 for s in samples if not s[2])
    problems = sorted({s[3] for s in samples if s[3]})
    digests = {s[0]: s[6] for s in samples if s[6]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "calls": len(samples),
        "wall_s": summary(walls),
        "call_s": summary(norms),
        "setup_wall_s": statistics.median(setups),
        "error_rate": failed / len(samples),
        "result_dev": max(s[4] for s in samples),
        "ordering_violations": sum(s[5] for s in samples),
        "problems": problems[:5],
        "outputs": digests,
        "provenance": dict(result["provenance"], git_sha=_git_sha(root),
                           src_sha256=_source_digest(root)),
    }
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "call_median_s": {"value": statistics.median(norms), "unit": "s"},
            "call_tail_s": {"value": tail(norms)["value"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups_norm), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("perfbench " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
