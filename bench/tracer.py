"""Per-layer tracing of a `stabgen` process by wrapping module attributes.

Each wrapped function is looked up by its callers inside the package as a
module global (``stabgen.feasibility.solve_pf``, ``stabgen.explorer.assess``
and so on), so replacing that attribute puts a span around every call
without editing the package.  A span records wall time
(CLOCK_MONOTONIC) and the calling thread's CPU time (``time.thread_time``);
their difference is time the call spent waiting, which includes GIL
contention between the explorer's threads.

Spans are summed per name in memory; only the explorer's child spans keep
their intervals, to compute the explorer's self time.
"""

import threading
import time
from collections import defaultdict

# Spans whose intervals, on one timeline, are the explorer's child work.
EXPLORER_CHILDREN = ("sampling.sample", "explorer.assess", "forest.train_split")


def _pf_counts(tracer, result, args, kwargs):
    tracer.counts["pf_iterations"] += result.iterations
    tracer.counts["pf_converged"] += int(result.converged)


def _repair_verdict(tracer, result, args, kwargs):
    return "repair." + result[2].status


def _trees(tracer, result, args, kwargs):
    tracer.counts["trees"] += len(result.trees)


def _points(tracer, result, args, kwargs):
    tracer.counts["points"] += len(result)


class Tracer:
    def __init__(self):
        self.wall_ms = defaultdict(float)
        self.cpu_ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.intervals = defaultdict(list)
        self.max_live_threads = 0
        self._lock = threading.Lock()

    def wrap(self, module, attr, name, after=None):
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            live = threading.active_count()
            t0, c0 = time.monotonic(), time.thread_time()
            result = inner(*args, **kwargs)
            t1, c1 = time.monotonic(), time.thread_time()
            with self._lock:
                names = [name]
                if after is not None:
                    extra = after(self, result, args, kwargs)
                    if extra:
                        names.append(extra)
                for n in names:
                    self.calls[n] += 1
                    self.wall_ms[n] += (t1 - t0) * 1e3
                    self.cpu_ms[n] += (c1 - c0) * 1e3
                if name in EXPLORER_CHILDREN or name == "explorer.explore":
                    self.intervals[name].append((t0, t1))
                self.max_live_threads = max(self.max_live_threads, live)
            return result

        setattr(module, attr, traced)

    def install(self):
        import stabgen.cli as cli
        import stabgen.dataset as dataset
        import stabgen.explorer as explorer
        import stabgen.feasibility as feasibility
        import stabgen.forest as forest
        import stabgen.smallsignal as smallsignal

        self.wrap(cli, "parse_config", "config.parse")
        self.wrap(cli, "explore", "explorer.explore")
        self.wrap(cli, "read_dataset", "dataset.read")
        self.wrap(cli, "compute_metrics", "dataset.metrics")
        for attr in ("write_dataset", "write_metrics", "write_tree"):
            self.wrap(cli, attr, "dataset.write")
        self.wrap(explorer, "hierarchical_sample", "sampling.sample", _points)
        self.wrap(explorer, "assess", "explorer.assess")
        self.wrap(explorer, "adjust_to_feasible", "feasibility.repair", _repair_verdict)
        self.wrap(explorer, "train_forest", "forest.train_split", _trees)
        self.wrap(explorer, "linearize", "smallsignal.linearize")
        self.wrap(explorer, "eig_stability", "smallsignal.eig")
        self.wrap(feasibility, "solve_pf", "feasibility.solve_pf", _pf_counts)
        self.wrap(feasibility, "build_admittance", "grid.build_admittance")
        self.wrap(smallsignal, "build_admittance", "grid.build_admittance")
        self.wrap(dataset, "kfold_accuracy", "forest.kfold")
        self.wrap(forest, "train_forest", "forest.train_kfold", _trees)

    def explorer_self_ms(self) -> float:
        """Explore wall time not covered by any child span, on any thread."""
        spans = self.intervals.get("explorer.explore")
        if not spans:
            return 0.0
        start, end = spans[0]
        children = sorted(iv for n in EXPLORER_CHILDREN for iv in self.intervals[n])
        covered, reach = 0.0, start
        for a, b in children:
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        return (end - start - covered) * 1e3

    def summary(self, import_ms: float) -> dict:
        return {
            "calls": dict(self.calls),
            "wall_ms": dict(self.wall_ms),
            "cpu_ms": dict(self.cpu_ms),
            "counts": dict(self.counts),
            "max_live_threads": self.max_live_threads,
            "explorer_self_ms": self.explorer_self_ms(),
            "import_ms": import_ms,
        }
