"""Spans around the calls that dpdopt's modules make into each other.

The traced run wraps the public functions each module calls in another
module, under every name they are imported as (`engine._obs_step`,
`analysis._obs_step`, `privacy_eval._obs_step`, ...), so spans are recorded
from the benchmark's own files and dpdopt itself is unchanged. A span has a
name, a start, an end, the span that caused it and the CLI call it belongs
to; self time is its duration minus its children's. Spans are kept in memory
and written out when the run ends. The wrappers stay in place until the
process exits.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import time
from array import array

import numpy as np

# (span name, "module:attribute" targets patched to record it)
SPANS = (
    ("cli.cli", ("cli:cli",)),
    ("harness.load_config", ("harness:load_config",)),
    ("harness.build", ("harness:build_graph", "harness:build_problem")),
    ("topology.weights", ("harness:ring", "harness:connected_erdos_renyi",
                          "harness:metropolis_weights")),
    ("harness.format_csv", ("harness:format_trace_csv",)),
    ("harness.summarize", ("harness:summarize",)),
    ("harness.write", ("harness:_write",)),
    ("engine.monte_carlo", ("cli:monte_carlo", "harness:monte_carlo", "engine:monte_carlo")),
    ("engine.batched", ("engine:_batched",)),
    ("engine.obs_step", ("engine:_obs_step", "analysis:_obs_step",
                         "privacy_eval:_obs_step", "engine:step_gt")),
    ("engine.trial_seed", ("engine:trial_seed", "analysis:trial_seed",
                           "privacy_eval:trial_seed")),
    ("objective.optimum", ("engine:optimum",)),
    ("objective.gradients", ("objective:Problem.gradients",)),
    ("schedule.laplace", ("engine:laplace_from_uniform", "analysis:laplace_from_uniform",
                          "privacy_eval:laplace_from_uniform")),
    ("rng.substream", ("rng:substream", "engine:substream", "analysis:substream",
                       "privacy_eval:substream", "objective:substream",
                       "topology:substream")),
    ("analysis.compare", ("analysis:compare_sensitivities",)),
    ("analysis.audit", ("analysis:audit_sensitivity",)),
    ("privacy_eval.collect", ("privacy_eval:collect_attacker_view",)),
    ("privacy_eval.ksg", ("privacy_eval:knn_mutual_information",)),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts = {
            "csv_bytes": 0, "write_bytes": 0, "laplace_elems": 0, "trial_steps": 0,
            "replay_steps": 0, "chunks": 0, "workers": 0, "noise_block_bytes": 0,
        }
        self._noiseless = importlib.import_module("dpdopt.engine")._CONSTANT_STEP
        self.substream_keys: set = set()  # distinct (seed, *tags) of this CLI call
        self.distinct_substreams = 0  # summed over finished CLI calls

    # -- recording ---------------------------------------------------------

    def start_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.distinct_substreams += len(self.substream_keys)
        self.substream_keys.clear()

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_id)
        self.op.append(self.op_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        t = time.perf_counter()
        self.end[i] = t
        self.stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def wrap(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- instrumentation ---------------------------------------------------

    def instrument(self) -> None:
        """Patch every target in SPANS, plus the kd-tree and process pool."""
        extra = {
            "harness.format_csv": self._count_csv,
            "harness.write": self._count_write,
            "engine.monte_carlo": self._count_monte_carlo,
            "engine.batched": self._count_batched,
            "schedule.laplace": self._count_laplace,
            "analysis.audit": self._count_audit,
            "rng.substream": self._count_substream,
        }
        for name, targets in SPANS:
            for target in targets:
                module_name, attr = target.split(":")
                owner = importlib.import_module(f"dpdopt.{module_name}")
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                leaf = attr.split(".")[-1]
                setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), extra.get(name)))
        self._instrument_kdtree()
        self._instrument_pool()

    def _instrument_kdtree(self) -> None:
        privacy_eval = importlib.import_module("dpdopt.privacy_eval")
        tracer = self
        kdtree = privacy_eval.cKDTree

        class TracedTree:
            """cKDTree stand-in that times construction and the two queries."""

            def __init__(self, *args, **kwargs):
                self._tree = tracer.wrap("privacy_eval.tree_build", kdtree)(*args, **kwargs)
                self.query = tracer.wrap("privacy_eval.joint_query", self._tree.query)
                self.query_ball_point = tracer.wrap(
                    "privacy_eval.marginal_count", self._tree.query_ball_point)

        privacy_eval.cKDTree = TracedTree

    def _instrument_pool(self) -> None:
        # monte_carlo imports ProcessPoolExecutor from concurrent.futures when
        # it fans out; count the chunks it submits and the pool's width. Spans
        # inside pool workers are not recorded.
        counts = self.counts
        base = concurrent.futures.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                counts["workers"] = max(counts["workers"], self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                counts["chunks"] += 1
                return super().submit(fn, *args, **kwargs)

        concurrent.futures.ProcessPoolExecutor = CountingPool

    # counters recorded next to the spans (args are the wrapped call's)

    def _count_csv(self, args, kwargs, result):
        self.counts["csv_bytes"] += len(result)  # the CSV is ASCII

    def _count_write(self, args, kwargs, result):
        self.counts["write_bytes"] += len(args[1])

    def _count_monte_carlo(self, args, kwargs, result):
        self.counts["trial_steps"] += len(result) * args[4]

    def _count_batched(self, args, kwargs, result):
        pr, sp, algorithm, T, seeds = args[0], args[2], args[3], args[4], args[5]
        self.counts["chunks"] += 1
        self.counts["workers"] = max(self.counts["workers"], 1)
        # the engine preallocates a uniform block for noisy dynamics only
        if algorithm not in self._noiseless and sp.delta > 0.0:
            block = len(seeds) * T * pr.n * pr.p * 8
            self.counts["noise_block_bytes"] = max(self.counts["noise_block_bytes"], block)

    def _count_laplace(self, args, kwargs, result):
        self.counts["laplace_elems"] += int(np.size(args[0]))

    def _count_substream(self, args, kwargs, result):
        self.substream_keys.add(
            tuple(t if isinstance(t, str) else int(t) for t in args))

    def _count_audit(self, args, kwargs, result):
        T, trials = args[4], args[5]
        self.counts["replay_steps"] += T * trials

    # -- results -----------------------------------------------------------

    def _by_name(self):
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur - np.frombuffer(self.child)
        stats = {}
        for i, name in enumerate(self.names):
            mask = names == i
            stats[name] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
        return stats, dur

    def layer_metrics(self, samples) -> dict:
        """Per-layer metrics per CLI call (counts, busy and self seconds),
        plus ratios taken over the whole run."""
        stats, dur = self._by_name()
        calls = max(1, len(samples))

        def count(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def busy(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return stats.get(name, (0, 0.0, 0.0))[2]

        c = self.counts
        self.start_op(-1)
        top = float(dur[np.frombuffer(self.parent, dtype=np.int32) == -1].sum())
        wall = sum(s.wall for s in samples)
        steps = count("engine.obs_step")
        substreams = count("rng.substream")
        per_call = {
            "harness.load_config_s": busy("harness.load_config"),
            "harness.build_s": busy("harness.build"),
            "objective.optimum_s": busy("objective.optimum"),
            "topology.weights_s": busy("topology.weights"),
            "harness.format_csv_s": busy("harness.format_csv"),
            "harness.csv_bytes": c["csv_bytes"],
            "harness.summarize_s": busy("harness.summarize"),
            "harness.write_s": busy("harness.write"),
            "harness.write_bytes": c["write_bytes"],
            "cli.self_s": own("cli.cli"),
            "engine.monte_carlo_s": busy("engine.monte_carlo"),
            "engine.self_s": own("engine.monte_carlo") + own("engine.batched"),
            "engine.chunks": c["chunks"],
            "engine.obs_step_calls": steps,
            "engine.obs_step_self_s": own("engine.obs_step"),
            "engine.trial_seed_calls": count("engine.trial_seed"),
            "objective.gradients_calls": count("objective.gradients"),
            "objective.gradients_s": busy("objective.gradients"),
            "schedule.laplace_calls": count("schedule.laplace"),
            "schedule.laplace_s": busy("schedule.laplace"),
            "schedule.laplace_elems": c["laplace_elems"],
            "rng.substream_calls": substreams,
            "rng.substream_s": busy("rng.substream"),
            "analysis.audit_calls": count("analysis.audit"),
            "analysis.audit_s": busy("analysis.compare"),
            "analysis.replay_steps": c["replay_steps"],
            "analysis.ordering_violations": sum(s.violations for s in samples),
            "privacy_eval.collect_s": busy("privacy_eval.collect"),
            "privacy_eval.ksg_calls": count("privacy_eval.ksg"),
            "privacy_eval.ksg_s": busy("privacy_eval.ksg"),
            "privacy_eval.tree_builds": count("privacy_eval.tree_build"),
            "privacy_eval.joint_query_s": busy("privacy_eval.joint_query"),
            "privacy_eval.marginal_count_s": busy("privacy_eval.marginal_count"),
        }
        metrics = {name: value / calls for name, value in per_call.items()}
        mc = busy("engine.monte_carlo")
        metrics.update({
            "cli.calls": count("cli.cli"),
            "engine.steps_per_s": c["trial_steps"] / mc if mc > 0 else 0.0,
            "engine.workers": c["workers"],
            "engine.noise_block_bytes": c["noise_block_bytes"],
            "objective.gradients_per_step": (
                count("objective.gradients") / steps if steps else 0.0),
            "rng.substream_distinct_ratio": (
                self.distinct_substreams / substreams if substreams else 0.0),
            "trace.coverage": top / wall if wall > 0 else 0.0,
            "trace.wall_s": float(np.median([s.wall for s in samples])),
        })
        return metrics

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
