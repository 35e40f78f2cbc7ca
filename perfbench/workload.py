"""One workload process of the dpdopt benchmark.

Started by run.py as `python3 perfbench/workload.py <workload> <seed>
<seconds> <size> <trace> <workdir> [--probe]` with `src` on PYTHONPATH and
BLAS pinned to one thread. The process imports dpdopt once, writes the
workload's config files from the seed, parses them, and then calls
`dpdopt.cli.cli(argv)` in-process, one call after another (a closed loop
with one client), until the measuring window closes. It starts no threads of
its own; the only fan-out is the program's own `--jobs` pool.

Protocol on the process's stdout: the line `ready` right before the first
CLI call (run.py times set-up up to it), then one JSON line with the samples.
With --probe the process stops after `ready`. CLI output is captured in
memory and checked after every call.

The machine's speed drifts by up to 1.5x over tens of seconds, so every call
is bracketed by a fixed calibration loop (`calibrate`), and each call's time
is also given at the reference speed: wall * CAL_REF_S / calibration time.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("ensemble", "horizon", "audit", "leakage")

# Final sizes. The reference numbers in reference.json were recorded at the
# "full" sizes; "toy" sizes serve the benchmark's own test.
SIZES = {
    "full": {
        "ensemble": {"trials": 1000, "iterations": 25, "jobs": 2},
        "horizon": {"iterations": 2000},
        "audit": {"instances": 20, "trials": 200, "iterations": 50},
        "leakage": {"trials": 2000, "iterations": 25},
    },
    "toy": {
        "ensemble": {"trials": 40, "iterations": 20, "jobs": 2},
        "horizon": {"iterations": 3000},
        "audit": {"instances": 2, "trials": 20, "iterations": 10},
        "leakage": {"trials": 200, "iterations": 4},
    },
}

# Seeds map onto a fixed set of instances so that every instance a seed can
# pick has reference numbers: seed mod 32 for the single-config workloads, a
# window of consecutive instances of the 100-instance audit corpus (the one
# acceptance criteria 2 and 3 use) for `audit`.
INSTANCES = 32
CORPUS = 100

HORIZON_ALGORITHMS = ("alg1-noiseless-constant", "gt-noiseless", "dgd-noiseless-constant")
# criterion 3: these two ordering legs fail on every corpus instance; they are
# counted as ordering violations, not as errors
KNOWN_FAILING_CHECKS = frozenset(
    {"ordering alg1<=dgd-true-gradient", "ordering dp-dgd<=dgd-true-gradient"}
)
# A checked number deviates by |got - ref| / max(|ref|, floor). Floors keep
# quantities that sit at the rounding floor (converged residuals, ordering and
# recursion gaps near 0) from reading as large relative moves.
FLOORS = {"final": 1e-8, "ordering_gap": 1e-9, "recursion_gap": 1e-9}
RESULT_TOLERANCE = 1e-6

# The calibration loop: small-array numpy steps like the engine's per-step
# kernels, batched contractions like its (trials, agents, p) kernels, and a
# k-nearest-neighbour query like the KSG estimator's. The kd-tree part slows
# less than the numpy parts when the machine slows, as the mnmi call does; a
# loop without it over-corrected that call more. CAL_REF_S is the loop's time on
# the reference box (2-vCPU Xeon, Python 3.11, numpy 2.4, scipy 1.17) at that
# box's fastest.
CAL_STEPS = 1200
CAL_BATCHES = 30
CAL_POINTS = 3000
CAL_REF_S = 0.0194


def calibrate() -> float:
    """Time the fixed calibration loop; it tracks the machine's current speed."""
    import numpy as np
    from scipy.spatial import cKDTree

    mix = np.full((10, 10), 0.1)
    x = np.ones((10, 3))
    batch = np.linspace(0.0, 1.0, 200 * 10 * 2).reshape(200, 10, 2)
    points = np.random.default_rng(0).random((CAL_POINTS, 2))
    start = time.perf_counter()
    for _ in range(CAL_STEPS):
        x = mix @ x * 0.5 + x * 0.5 - x.mean(axis=0)
    for _ in range(CAL_BATCHES):
        np.einsum("tij,tkj->tik", batch, batch)
    cKDTree(points).query(points, k=4, p=np.inf)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calibration: float) -> float:
    """A time measured while the calibration loop took `calibration` seconds,
    scaled to the speed at which it takes CAL_REF_S."""
    return seconds * CAL_REF_S / calibration


def _cfg_text(pairs: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


@dataclass
class Outcome:
    """What one checked CLI call produced."""

    numbers: dict  # name -> list of floats, compared with the reference
    flags: dict  # name -> bool, must equal the reference exactly
    digest: str  # sha256 of the call's output artifact
    problems: list  # failed checks; any problem makes the call an error
    violations: int = 0  # known failing audit legs seen


@dataclass
class Op:
    """One CLI call of a workload and the check of its output."""

    key: str  # instance name, the key into the reference table
    argv: list
    check: Callable[[str], Outcome]  # receives the captured stdout


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _floats(values) -> list:
    return [math.nan if v is None else float(v) for v in values]


# -- workloads ---------------------------------------------------------------


def _ensemble_ops(seed: int, size: dict, workdir: str) -> list[Op]:
    i = seed % INSTANCES
    cfg = os.path.join(workdir, f"ensemble-{i:02d}.cfg")
    trace = os.path.join(workdir, "trace.csv")
    summary = os.path.join(workdir, "summary.json")
    # the README config, scaled to the benchmark's trial and iteration counts
    pairs = {
        "topology.kind": "ring",
        "topology.n": 20,
        "problem.m": 3,
        "problem.p": 2,
        "problem.omega_min": 0.5,
        "problem.omega_max": 1.5,
        "problem.seed": 5 + i,
        "schedule.gamma": 0.01,
        "schedule.beta": 10,
        "schedule.q1": 0.97,
        "schedule.q2": 0.99,
        "schedule.epsilon": 1,
        "schedule.delta": 0.01,
        "run.algorithm": "alg1",
        "run.iterations": size["iterations"],
        "run.trials": size["trials"],
        "run.seed": 17 + i,
    }
    _write(cfg, _cfg_text(pairs))
    jobs = max(1, min(size["jobs"], os.cpu_count() or 1))
    argv = ["run", "--config", cfg, "--jobs", str(jobs), "--trace", trace, "--summary", summary]
    return [Op(f"i{i:02d}", argv, lambda out: _check_ensemble(pairs, trace, summary))]


def _check_ensemble(pairs: dict, trace_path: str, summary_path: str) -> Outcome:
    problems = []
    with open(summary_path, "rb") as fh:
        summary = json.loads(fh.read())
    with open(trace_path, "rb") as fh:
        trace_sha = _sha(fh.read())
    # a later call that writes nothing must not pass on these files
    os.remove(summary_path)
    os.remove(trace_path)
    if trace_sha != summary.get("trace_sha256"):
        problems.append("trace CSV does not match the summary's trace_sha256")
    body = {k: v for k, v in summary.items() if k != "content_hash"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if _sha(canonical) != summary.get("content_hash"):
        problems.append("summary content_hash does not hash its body")
    T, trials = pairs["run.iterations"], pairs["run.trials"]
    if summary.get("trials") != trials or summary.get("iterations") != T:
        problems.append("summary trials/iterations differ from the config")
    curve = _floats(summary.get("residual_mean", []))
    if len(curve) != T + 1 or not all(math.isfinite(v) for v in curve):
        problems.append("residual_mean is not T+1 finite values")
    return Outcome({"residual_mean": curve}, {}, summary.get("content_hash", ""), problems)


def _horizon_ops(seed: int, size: dict, workdir: str) -> list[Op]:
    i = seed % INSTANCES
    cfg = os.path.join(workdir, f"horizon-{i:02d}.cfg")
    # the criterion-4 config (ER n=10, p_edge=0.5, p=3, gamma=1/256, beta=256);
    # the seed picks the initial state only. Graph and problem stay fixed:
    # alpha*beta = 1 is not stable on every graph and problem (topology seed
    # 31 with problem seed 70 diverges), so other ones are not this workload.
    pairs = {
        "topology.kind": "erdos-renyi",
        "topology.n": 10,
        "topology.p_edge": 0.5,
        "topology.seed": 3,
        "problem.m": 5,
        "problem.p": 3,
        "problem.omega_min": 0.5,
        "problem.omega_max": 1.5,
        "problem.seed": 42,
        "schedule.gamma": 1.0 / 256.0,
        "schedule.beta": 256,
        "schedule.q1": 0.97,
        "schedule.q2": 0.99,
        "schedule.epsilon": 1,
        "schedule.delta": 0,
        "run.algorithm": "alg1-noiseless-constant",
        "run.iterations": size["iterations"],
        "run.trials": 1,
        "run.seed": i,
    }
    _write(cfg, _cfg_text(pairs))
    argv = [
        "compare", "--config", cfg, "--trials", "1",
        "--algorithms", ",".join(HORIZON_ALGORITHMS), "--format", "json",
    ]
    return [Op(f"i{i:02d}", argv, lambda out: _check_horizon(out, size["iterations"]))]


def _check_horizon(out: str, T: int) -> Outcome:
    body = json.loads(out)
    problems = []
    finals = {}
    for alg in HORIZON_ALGORITHMS:
        curve = body[alg]["residual_mean"]
        if len(curve) != T + 1:
            problems.append(f"{alg}: residual curve has {len(curve)} points, expected {T + 1}")
        finals[alg] = float(curve[-1])
    # criterion 4: exact convergence of the two tracking dynamics, a biased
    # floor for constant-step DGD
    for alg in ("alg1-noiseless-constant", "gt-noiseless"):
        if not finals[alg] < 1e-8:
            problems.append(f"{alg}: final residual {finals[alg]:.3e} is not below 1e-8")
    if not finals["dgd-noiseless-constant"] > 10.0 * finals["alg1-noiseless-constant"]:
        problems.append("dgd-noiseless-constant shows no floor above alg1")
    numbers = {f"final.{alg}": [v] for alg, v in finals.items()}
    return Outcome(numbers, {}, _sha(out), problems)


def _audit_ops(seed: int, size: dict, workdir: str) -> list[Op]:
    ops = []
    for j in range(size["instances"]):
        s = (seed + j) % CORPUS
        cfg = os.path.join(workdir, f"audit-{s:03d}.cfg")
        # corpus instance s of acceptance criteria 2 and 3
        pairs = {
            "topology.kind": "erdos-renyi",
            "topology.n": 10,
            "topology.p_edge": 0.35,
            "topology.seed": s,
            "problem.m": 3,
            "problem.p": 2,
            "problem.omega_min": 0.5,
            "problem.omega_max": 1.5,
            "problem.seed": s,
            "schedule.gamma": 0.01,
            "schedule.beta": 1,
            "schedule.q1": 0.97,
            "schedule.q2": 0.99,
            "schedule.epsilon": 10,
            "schedule.delta": 1,
            "run.algorithm": "alg1",
            "run.iterations": size["iterations"],
            "run.trials": size["trials"],
            "run.seed": s,
        }
        _write(cfg, _cfg_text(pairs))
        argv = [
            "audit", "--config", cfg, "--format", "json",
            "--trials", str(size["trials"]), "--iterations", str(size["iterations"]),
            "--i0", str(s % 10),
        ]
        ops.append(Op(f"s{s:03d}", argv, _check_audit))
    return ops


def _check_audit(out: str) -> Outcome:
    # the text mode exits 1 on every corpus instance (criterion 3), so the
    # JSON check map is read instead of the exit status
    body = json.loads(out)
    checks = body["checks"]
    problems = [
        f"audit check failed: {name}"
        for name, ok in checks.items()
        if not ok and name not in KNOWN_FAILING_CHECKS
    ]
    violations = sum(1 for name in KNOWN_FAILING_CHECKS if checks.get(name) is False)
    numbers = {
        f"delta_hat.{name}": _floats(env["delta_hat"])
        for name, env in body["envelopes"].items()
    }
    for group in ("ordering_gap", "recursion_gap"):
        for name, gap in body[group].items():
            numbers[f"{group}.{name}"] = [float(gap)]
    return Outcome(numbers, dict(checks), _sha(out), problems, violations)


def _leakage_ops(seed: int, size: dict, workdir: str) -> list[Op]:
    i = seed % INSTANCES
    cfg = os.path.join(workdir, f"leakage-{i:02d}.cfg")
    # the criterion-9 triangle (n=3, p=1, beta=100, q1=0.5)
    pairs = {
        "topology.kind": "ring",
        "topology.n": 3,
        "problem.m": 2,
        "problem.p": 1,
        "problem.omega_min": 0.5,
        "problem.omega_max": 1.5,
        "problem.seed": 2 + i,
        "schedule.gamma": 0.01,
        "schedule.beta": 100,
        "schedule.q1": 0.5,
        "schedule.q2": 0.99,
        "schedule.epsilon": 10,
        "schedule.delta": 1,
        "run.algorithm": "alg1",
        "run.iterations": size["iterations"],
        "run.trials": size["trials"],
        "run.seed": 9 + i,
    }
    _write(cfg, _cfg_text(pairs))
    argv = ["mnmi", "--config", cfg, "--format", "json", "--epsilon", "1"]
    return [Op(f"i{i:02d}", argv, lambda out: _check_leakage(out, size["iterations"]))]


def _check_leakage(out: str, T: int) -> Outcome:
    body = json.loads(out)
    problems = []
    value = float(body["mnmi"])
    ratios = _floats(body["ratios"])
    if len(ratios) != T:
        problems.append(f"{len(ratios)} ratios, expected {T}")
    if not 0.0 <= value <= 1.0:
        problems.append(f"M-NMI {value} outside [0, 1]")
    if not 1 <= body["argmax_k"] <= T or ratios[body["argmax_k"] - 1] != value:
        problems.append("argmax_k does not point at the reported M-NMI")
    return Outcome({"mnmi": [value], "ratios": ratios}, {}, _sha(out), problems)


BUILDERS = {
    "ensemble": _ensemble_ops,
    "horizon": _horizon_ops,
    "audit": _audit_ops,
    "leakage": _leakage_ops,
}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def make_ops(workload: str, seed: int, size: str, workdir: str) -> list[Op]:
    """Write the workload's config files for this seed and return its calls."""
    return BUILDERS[workload](seed, SIZES[size][workload], workdir)


# -- checking against the reference ------------------------------------------


def deviation(numbers: dict, reference: dict) -> float:
    """Largest deviation of the checked numbers from the reference ones."""
    if set(numbers) != set(reference):
        return math.inf
    worst = 0.0
    for name, got in numbers.items():
        want = reference[name]
        if len(got) != len(want):
            return math.inf
        floor = FLOORS.get(name.split(".", 1)[0], 0.0)
        for a, b in zip(got, want):
            b = math.nan if b is None else b
            if math.isnan(a) or math.isnan(b):
                if not (math.isnan(a) and math.isnan(b)):
                    return math.inf
                continue
            if a == b:
                continue
            scale = max(abs(b), floor)
            worst = max(worst, abs(a - b) / scale if scale > 0 else math.inf)
    return worst


def compare_with_reference(outcome: Outcome, reference: dict | None) -> float:
    """Adds reference mismatches to outcome.problems; returns result_dev."""
    if reference is None:
        return 0.0
    if outcome.flags != reference["flags"]:
        changed = sorted(k for k in set(outcome.flags) | set(reference["flags"])
                         if outcome.flags.get(k) != reference["flags"].get(k))
        outcome.problems.append(f"check map differs from the reference: {changed}")
    dev = deviation(outcome.numbers, reference["numbers"])
    if not dev <= RESULT_TOLERANCE:
        outcome.problems.append(f"result deviates from the reference by {dev:.3g}")
    return dev


def load_reference(workload: str, size: str) -> dict | None:
    """Reference table of the workload; toy sizes have none."""
    if size != "full":
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    if table["sizes"][workload] != SIZES["full"][workload]:
        raise ValueError(f"reference.json holds {workload} at other sizes; re-record it")
    return table[workload]


# -- the closed loop ---------------------------------------------------------


@dataclass
class Sample:
    key: str
    wall: float  # from the CLI call to the verified output
    ok: bool
    problem: str | None
    dev: float
    violations: int
    digest: str | None
    norm: float = math.nan  # wall at the reference speed, set by measure()


def call_and_check(cli: Callable, op: Op, reference: dict | None) -> Sample:
    """Make one CLI call, check its output, and time both.

    A non-zero exit status, an exception or a failed check marks the call
    failed; none of them stops the loop.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli(op.argv)
        if status != 0:
            raise RuntimeError(f"exit status {status}: {err.getvalue().strip()[:200]}")
        outcome = op.check(out.getvalue())
        dev = compare_with_reference(
            outcome, None if reference is None else reference[op.key]
        )
    except Exception as exc:  # any failure counts against the run
        wall = time.perf_counter() - start
        return Sample(op.key, wall, False, f"{type(exc).__name__}: {exc}"[:300], 0.0, 0, None)
    wall = time.perf_counter() - start
    problem = "; ".join(outcome.problems) or None
    return Sample(op.key, wall, problem is None, problem, dev, outcome.violations,
                  outcome.digest)


def measure(cli: Callable, ops: list[Op], seconds: float, reference: dict | None,
            on_op: Callable[[int], None] | None = None) -> list[Sample]:
    """Cycle through ops until `seconds` have passed; at least one full pass.

    The calibration loop runs before the first call and after every call; a
    call's `norm` uses the mean of the two calibrations around it.
    """
    samples = []
    calibrations = [calibrate()]
    start = time.perf_counter()
    n = 0
    while n < len(ops) or time.perf_counter() - start < seconds:
        if on_op is not None:
            on_op(n)
        samples.append(call_and_check(cli, ops[n % len(ops)], reference))
        calibrations.append(calibrate())
        n += 1
    for s, before, after in zip(samples, calibrations, calibrations[1:]):
        s.norm = at_reference_speed(s.wall, (before + after) / 2)
    return samples


def provenance(sizes: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sizes": sizes,
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, size, trace, workdir = argv[:6]
    probe = "--probe" in argv[6:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"

    import dpdopt  # noqa: F401  (the one import the set-up time includes)

    cli_module = importlib.import_module("dpdopt.cli")
    harness = importlib.import_module("dpdopt.harness")
    ops = make_ops(workload, seed, size, workdir)
    for op in ops:
        harness.load_config(op.argv[op.argv.index("--config") + 1])
    reference = load_reference(workload, size)

    tracer = None
    if trace and not probe:
        from tracing import Tracer

        tracer = Tracer()
        tracer.instrument()

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if probe:
        return 0

    def cli(argv):
        # looked up at call time, so the traced run goes through the wrapper
        return cli_module.cli(argv)

    samples = measure(cli, ops, seconds, reference,
                      on_op=None if tracer is None else tracer.start_op)
    result = {
        "samples": [[s.key, s.wall, s.ok, s.problem, s.dev, s.violations, s.digest, s.norm]
                    for s in samples],
        "provenance": provenance(SIZES[size][workload]),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(samples)
        tracer.write(os.path.join(workdir, "..", f"spans-{workload}.npz"))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
