"""Spans around the calls the benchmark makes into each evcs layer.

``Tracer.segment`` installs wrappers on module and class attributes of the
package for the duration of a ``with`` block and takes them out again, so an
untraced run executes the package's code unchanged.  Each wrapped call records
a span (name, start, end, parent span) in flat arrays; ``layer_metrics``
turns the spans into the per-layer metrics.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from evcs import agg, baseline, cli, data, env, llf, policy


def _rollout_name(args, kwargs) -> str:
    rng = kwargs["rng"] if "rng" in kwargs else (args[5] if len(args) > 5 else None)
    return "policy.rollout" if rng is not None else "policy.rollout_mean"


def _count_clamps(counters: Counter, args, kwargs, trajectory) -> None:
    """Tally sampled actions that ``project_action`` moved to a bound.

    The applied action is the rounded raw action clamped into [urgent,
    chargeable], so it exceeds the rounded value exactly when the lower bound
    applied and falls below it exactly when the upper bound did.
    """
    if _rollout_name(args, kwargs) != "policy.rollout":
        return
    for step in trajectory.steps:
        rounded = math.floor(step.raw_action + 0.5)
        counters["policy.sampled_actions"] += 1
        counters["policy.clamped_lo"] += step.applied_action > rounded
        counters["policy.clamped_hi"] += step.applied_action < rounded


def _count_candidates(counters: Counter, args, kwargs, result) -> None:
    urgent = kwargs["urgent"] if "urgent" in kwargs else args[2]
    chargeable = kwargs["chargeable"] if "chargeable" in kwargs else args[3]
    counters["baseline.candidates"] += chargeable - urgent + 1


def instrumented_calls():
    """(owner, attribute, span name or name function, hook) for every wrapped call."""
    return [
        (agg.AggSimulator, "__init__", "agg.init", None),
        (agg.AggSimulator, "reset", "agg.reset", None),
        (agg.AggSimulator, "step", "agg.step", None),
        (policy, "train", lambda a, k: f"policy.train_b{a[2].batch}", None),
        (policy, "run_policy_episode", _rollout_name, _count_clamps),
        (policy, "estimate_gradient", lambda a, k: f"policy.grad_b{len(a[0])}", None),
        (policy, "fit_scaler", "policy.fit_scaler", None),
        (policy, "evaluate_policy", "policy.eval_day", None),
        (baseline, "qe_train", "baseline.train", None),
        (baseline, "qe_greedy_action", "baseline.greedy", _count_candidates),
        (baseline, "evaluate_qe", "baseline.eval_day", None),
        (data, "gen_prices", "data.gen_prices", None),
        (data, "gen_day", "data.gen_day", None),
        (data, "load_prices", "data.load_prices", None),
        (data, "load_arrivals", "data.load_arrivals", None),
        (data, "save_prices", "data.save_prices", None),
        (data, "save_arrivals", "data.save_arrivals", None),
        (cli, "cmd_generate", "cli.generate", None),
        (cli, "cmd_train", lambda a, k: f"cli.train_{a[0].algo}", None),
        (cli, "cmd_eval", "cli.eval", None),
        (cli, "cmd_compare", "cli.compare", None),
        (env, "run_episode", "env.replay", None),
        (llf, "llf_allocate", "llf.allocate", None),
    ]


@dataclass
class Segment:
    """A traced stretch of the run: its spans are ``first <= index < end``."""

    label: str
    first: int
    end: int
    wall_s: float
    counters: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.segments: list[Segment] = []
        self._stack: list[int] = []
        self._counters: Counter = Counter()

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            nid = tracer._name_ids.get(label)
            if nid is None:
                nid = tracer._name_ids[label] = len(tracer.names)
                tracer.names.append(label)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if hook is not None:
                hook(tracer._counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def segment(self, label: str):
        """Trace every instrumented call made inside the block."""
        originals = []
        for owner, attr, name, hook in instrumented_calls():
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        first = len(self.start)
        self._counters = Counter()
        t0 = perf_counter()
        try:
            yield
        finally:
            wall = perf_counter() - t0
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
            self.segments.append(Segment(label, first, len(self.start), wall, self._counters))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span, the name table and the segment table."""
        segments = np.array([(s.first, s.end, s.wall_s) for s in self.segments], dtype=float)
        np.savez_compressed(
            path, names=np.array(self.names), segment_labels=np.array([s.label for s in self.segments]),
            segments=segments, **self.arrays(),
        )


def _median(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer, passes_repeat: bool, traced_walls: list[float], untraced_walls: list[float]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans, and any inconsistency found in them.

    Segments are labelled "setup", "pass" (one timed pass each) or "gate"
    (the replays of one pass).  Counts cover the set-up plus the first traced
    pass, or the first gate segment for the oracles.  When every pass
    starts from the same inputs (``passes_repeat``), every pass must repeat
    those counts exactly; a pass that does not is reported as a problem.
    Busy time and share are medians over the traced passes.  Per-call times
    pool every span of that name.  The trace overhead compares the walls of
    traced and untraced passes, given in reference seconds.
    """
    arr = tracer.arrays()
    dur = arr["end"] - arr["start"]
    parent = arr["parent"]
    names = np.array(tracer.names + [""])[arr["name_id"]]
    layer = np.array([n.split(".")[0] for n in names] + [""])[:-1]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    # the top span of a layer: its parent is absent or in another layer
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")
    top_of_layer = layer != parent_layer

    def span_range(seg: Segment) -> slice:
        return slice(seg.first, seg.end)

    setup = [s for s in tracer.segments if s.label == "setup"]
    passes = [s for s in tracer.segments if s.label == "pass"]
    gate = [s for s in tracer.segments if s.label == "gate"]

    def counts_in(segs: list[Segment]) -> Counter:
        out = Counter()
        for seg in segs:
            out.update(names[span_range(seg)].tolist())
            out.update(seg.counters)
        return out

    first = counts_in(passes[:1])
    problems = [
        f"traced pass {k} made different calls from traced pass 0"
        for k, seg in enumerate(passes[1:], start=1)
        if passes_repeat and counts_in([seg]) != first
    ]
    unit = counts_in(setup + passes[:1])
    gate_counts = counts_in(gate[:1])

    def per_call(name: str, scale: float, values=None) -> float:
        values = dur if values is None else values
        return _median(values[names == name] * scale)

    def busy(prefix: str) -> list[float]:
        out = []
        for seg in passes:
            sl = span_range(seg)
            out.append(float(dur[sl][(layer[sl] == prefix) & top_of_layer[sl]].sum()))
        return out

    def per_pass_median(*wanted: str, per: tuple[str, ...] = ()) -> float:
        """Median over passes of the time in spans named ``wanted``, per ``per`` call."""
        out = []
        for seg in passes:
            sl = span_range(seg)
            total = float(dur[sl][np.isin(names[sl], wanted)].sum())
            calls = int(np.isin(names[sl], per).sum()) if per else 1
            if calls:
                out.append(total / calls)
        return _median(out)

    agg_busy = busy("agg")
    walls = [p.wall_s for p in passes]
    sampled = unit["policy.sampled_actions"]
    greedy_calls = unit["baseline.greedy"]
    gen_calls = int((names == "data.gen_day").sum())
    gen_time = float(dur[(names == "data.gen_day") | (names == "data.gen_prices")].sum())

    # share of b100 iteration time spent in agg and in rollout self time
    owner = np.where(names == "policy.train_b100", np.arange(len(dur)), -1)
    for _ in range(8):  # spans nest a few levels deep; parents precede children
        owner = np.where((owner < 0) & has_parent, owner[np.maximum(parent, 0)], owner)
    in_b100 = owner >= 0
    b100_total = float(dur[names == "policy.train_b100"].sum())

    def b100_frac(mask: np.ndarray, values: np.ndarray) -> float:
        return float(values[in_b100 & mask].sum()) / b100_total if b100_total else 0.0

    metrics = {
        "agg.step_us": per_call("agg.step", 1e6),
        "agg.steps": unit["agg.step"],
        "agg.busy_s": _median(agg_busy),
        "agg.share": _median(b / w for b, w in zip(agg_busy, walls)),
        "policy.rollout_ms": per_call("policy.rollout", 1e3),
        "policy.rollout_self_ms": per_call("policy.rollout", 1e3, self_time),
        "policy.rollouts": unit["policy.rollout"],
        "policy.grad_b100_ms": per_call("policy.grad_b100", 1e3),
        "policy.grad_b300_ms": per_call("policy.grad_b300", 1e3),
        "policy.fit_scaler_ms": per_call("policy.fit_scaler", 1e3),
        "policy.eval_day_ms": per_call("policy.eval_day", 1e3),
        "policy.clamp_lo_frac": unit["policy.clamped_lo"] / sampled if sampled else 0.0,
        "policy.clamp_hi_frac": unit["policy.clamped_hi"] / sampled if sampled else 0.0,
        "policy.b100_agg_frac": b100_frac(layer == "agg", np.where(top_of_layer, dur, 0.0)),
        "policy.b100_rollout_self_frac": b100_frac(names == "policy.rollout", self_time),
        "baseline.greedy_us": per_call("baseline.greedy", 1e6),
        "baseline.greedy_calls": greedy_calls,
        "baseline.candidates_per_call": unit["baseline.candidates"] / greedy_calls if greedy_calls else 0.0,
        "baseline.eval_day_ms": per_call("baseline.eval_day", 1e3),
        "data.gen_day_ms": 1e3 * gen_time / gen_calls if gen_calls else 0.0,
        "data.io_ms": 1e3 * per_pass_median(
            "data.load_prices", "data.load_arrivals", "data.save_prices", "data.save_arrivals",
            per=("data.load_arrivals", "data.save_arrivals"),
        ),
        "data.days": unit["data.gen_day"] + unit["data.load_arrivals"],
        "cli.generate_s": per_pass_median("cli.generate"),
        "cli.train_pg_s": per_pass_median("cli.train_pg"),
        "cli.train_qe_s": per_pass_median("cli.train_qe"),
        "cli.eval_s": per_pass_median("cli.eval"),
        "cli.compare_s": per_pass_median("cli.compare"),
        "cli.nonzero_exits": unit["cli.nonzero_exits"],
        "cli.bytes_written": unit["cli.bytes_written"],
        "env.replay_ms": per_call("env.replay", 1e3),
        "env.replays": gate_counts["env.replay"],
        "llf.allocate_us": per_call("llf.allocate", 1e6),
        "llf.calls": gate_counts["llf.allocate"],
        "trace.overhead_frac": (sum(traced_walls) / len(traced_walls))
        / (sum(untraced_walls) / len(untraced_walls)) - 1.0,
    }
    return metrics, problems
