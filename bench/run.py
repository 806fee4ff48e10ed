"""Benchmark of the evcs testbed: one workload per run, metrics as JSON.

    python3 bench/run.py --workload pg_train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run builds its inputs from ``--seed``, times repeated passes of the
workload for ``--seconds`` seconds, checks every output, and prints a
summary followed, as its last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones in BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The exit code is 0 only when every check passed.
``--workload all`` runs each workload in its own process, one after another.
Details (raw samples, input digest, machine) go to ``bench/out/``.

End-to-end times are reported in reference seconds: each timed step is
scaled by KERNEL_REF_S over the time a fixed calibration kernel took just
before and just after it.  The host's CPU speed drifts by up to ~2x within
a minute (other tenants share the cores), and the scaling cancels most of
that drift; raw seconds are printed and kept in the details beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import evcs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import evcs.cli; print(time.perf_counter() - t)"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# calibration kernel time that defines a reference second (about its median
# on the 2-core Xeon host the first baseline was measured on)
KERNEL_REF_S = 0.007


def calibrate() -> float:
    """Median seconds of a fixed kernel in the package's style: per-level
    lists of small lists copied slot after slot, and per-slot feature vectors
    built from small frozen states, dotted with weights and rounded."""
    weights = np.ones(14)
    times = []
    for _ in range(3):
        t0 = perf_counter()
        levels = [[[i, i % 5 + 1] for i in range(j, j + 6)] for j in range(13)]
        for _ in range(300):
            levels = [[[e[0], e[1]] for e in members] for members in levels]
        for t in range(600):
            state = (float(t % 7), tuple(len(x) + t % 3 for x in levels))
            features = np.array([state[0], *state[1]], dtype=float)
            min(max(math.floor(float(weights @ features) + 0.5), 0), 99)
        times.append(perf_counter() - t0)
    return median(times)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it, and its value."""
    for p in TAIL_PERCENTILES:
        if len(values) * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return None


def pin_to_one_cpu() -> int:
    """Keep this single-threaded process on one CPU.  Left free, the
    scheduler moves it between the host's vCPUs and a run slows by up to
    ~1.5x at random moments."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine_info() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Run:
    """One benchmark run of one workload; counts operations and failures."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracing.Tracer() if trace else None
        self.attempted = 0
        self.failures: list[str] = []  # one per failed operation
        self.passes: list[workloads.PassResult] = []
        self.import_samples: list[float] = []  # reference seconds
        self.setup_samples: list[float] = []   # reference seconds
        self.kernel = [calibrate()]

    def traced(self, label: str, traced: bool = True):
        if self.tracer is not None and traced:
            return self.tracer.segment(label)
        return contextlib.nullcontext()

    def speed(self) -> float:
        """Reference seconds per second over the interval that just ended."""
        before = self.kernel[-1]
        self.kernel.append(calibrate())
        return KERNEL_REF_S / ((before + self.kernel[-1]) / 2)

    def measure_import(self) -> None:
        """Seconds to import the package in a fresh interpreter."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for _ in range(SETUP_REPEATS):
            done = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                capture_output=True, text=True, check=True, timeout=60,
            )
            self.import_samples.append(float(done.stdout.strip().splitlines()[-1]) * self.speed())

    def setup(self, workdir: Path):
        """Build the inputs from the seed.  An untraced run builds more input
        sets from seeds derived from it, only to time them: build time
        depends on the days drawn, and a median over several draws keeps
        ``setup_s`` from following one seed's draw."""
        inputs = None
        for r in range(1 if self.tracer is not None else SETUP_REPEATS):
            with self.traced("setup"):
                t0 = perf_counter()
                built = self.workload.setup(self.seed + r * 2**32, workdir)
                elapsed = perf_counter() - t0
            self.setup_samples.append(elapsed * self.speed())
            if inputs is None:
                inputs = built
            else:
                self.workload.teardown(built)
        return inputs

    def run_passes(self, inputs) -> None:
        """Repeat passes until the time is up; a traced run alternates
        untraced and traced passes, so their walls give the trace overhead."""
        started = perf_counter()
        k = 0
        while True:
            traced = self.tracer is not None and k % 2 == 1
            try:
                with self.traced("pass", traced):
                    result = self.timed_pass(self.workload.run_pass(inputs))
                result.traced = traced
                self.workload.check_pass(inputs, result)
            except Exception:  # a crashed pass is a failed workload, not a crashed benchmark
                self.failures.append(f"pass {k} raised:\n{traceback.format_exc()}")
                return
            self.attempted += result.operations
            for message in result.failures:
                self.failures.append(f"pass {k}: {message}")
            if traced:
                segment = self.tracer.segments[-1]
                segment.counters.update(result.counters)
                segment.wall_s = result.seconds(reference=False)  # without the calibrations
            if self.workload.repeats_inputs and self.passes and result.signature != self.passes[0].signature:
                self.failures.append(f"pass {k} produced different outputs from pass 0")
            self.passes.append(result)
            k += 1
            if perf_counter() - started >= self.seconds and (self.tracer is None or k >= 2):
                return

    def timed_pass(self, steps) -> workloads.PassResult:
        """Run a pass generator, timing each step and calibrating after it."""
        timed = []
        while True:
            t0 = perf_counter()
            try:
                step = next(steps)
            except StopIteration as done:
                result = done.value
                break
            raw = perf_counter() - t0
            timed.append((step, raw, self.speed()))
        result.steps = timed
        return result

    def gate(self) -> tuple[float, int]:
        """Replay every evaluated day through the per-EV oracle (once per
        distinct pass output); the held-out cost ratio of the first pass."""
        mismatches = 0
        replayed = set()
        for k, result in enumerate(self.passes):
            if result.signature in replayed:
                continue
            replayed.add(result.signature)
            with self.traced("gate"):
                for item in result.evaluated:
                    self.attempted += 1
                    problem = workloads.replay_check(item)
                    if problem is not None:
                        mismatches += 1
                        self.failures.append(f"pass {k}: replay {item.policy} {item.day}: {problem}")
        primary = [e for e in self.passes[0].evaluated if e.policy == self.workload.primary]
        reference = [workloads.uncontrolled_cost(e.config) for e in primary]
        cost = -float(np.mean([e.reward for e in primary])) if primary else float("nan")
        ratio = cost / float(np.mean(reference)) if primary else float("nan")
        return ratio, mismatches


def end_to_end(run: Run, cost_ratio: float) -> tuple[dict, dict]:
    """End-to-end metric values (times in reference seconds) and their sample counts."""
    passes = run.passes
    values = {
        "setup_s": median(run.import_samples) + median(run.setup_samples),
        # pooled over passes: the host alternates between two speeds, and a
        # median of passes lands on one or the other from run to run
        "wall_s": sum(p.seconds() for p in passes) / len(passes),
        "rollouts_per_s": sum(p.work("train") for p in passes) / sum(p.seconds("train") for p in passes),
        "eval_days_per_s": sum(p.work("eval") for p in passes) / sum(p.seconds("eval") for p in passes),
        "heldout_cost_ratio": cost_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {name: len(passes) for name in values}
    primary_days = sum(e.policy == run.workload.primary for e in passes[0].evaluated)
    counts.update(setup_s=len(run.setup_samples), heldout_cost_ratio=primary_days, peak_rss_mb=1)
    return values, counts


def run_one(args, spec: dict) -> int:
    pin_to_one_cpu()
    workload = workloads.WORKLOADS[args.workload]()
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    started = perf_counter()
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    if not args.trace:
        run.measure_import()
    inputs = run.setup(workdir)
    try:
        run.run_passes(inputs)
    finally:
        workload.teardown(inputs)
    if not run.passes:
        print("\n".join(run.failures), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    cost_ratio, mismatches = run.gate()
    digests = [p.input_digest for p in run.passes]
    if workload.repeats_inputs and len(set(digests)) != 1:
        run.failures.append(f"passes saw different inputs: {sorted(set(digests))}")

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        values, problems = tracing.layer_metrics(
            run.tracer,
            passes_repeat=workload.repeats_inputs,
            traced_walls=[p.seconds() for p in run.passes if p.traced],
            untraced_walls=[p.seconds() for p in run.passes if not p.traced],
        )
        values["env.replay_mismatch"] = mismatches
        run.failures.extend(problems)
        counts = {name: sum(p.traced for p in run.passes) for name in values}
    else:
        values, counts = end_to_end(run, cost_ratio)
    if set(values) != set(declared):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json {section}")

    samples: dict[str, list[float]] = {}  # reference seconds per step
    for p in run.passes:
        for step, raw, speed in p.steps:
            samples.setdefault(step.name, []).append(raw * speed)
    attempted = max(run.attempted, 1)
    failed = min(len(run.failures), attempted)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "input_digest": digests[0] if workload.repeats_inputs else digests,
        "machine": machine_info(), "kernel_ref_s": KERNEL_REF_S, "kernel_s": run.kernel,
        "passes": len(run.passes), "run_wall_s": perf_counter() - started,
        "attempted": attempted, "failed": failed, "failures": run.failures,
        "metrics": {n: {"value": values[n], "unit": declared[n], "samples": counts[n]} for n in declared},
        "samples_ref_s": samples,
        "raw_steps_s": [[(step.name, raw) for step, raw, _ in p.steps] for p in run.passes],
        "step_speeds": [[speed for _, _, speed in p.steps] for p in run.passes],
        "setup_samples_ref_s": run.setup_samples, "import_samples_ref_s": run.import_samples,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if run.tracer is not None:
        run.tracer.save(OUT / f"{stem}-spans.npz")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(run.passes)} "
          f"input_digest={digests[0]}{'' if workload.repeats_inputs else ' (first pass)'}")
    print(f"# machine {json.dumps(detail['machine'], sort_keys=True)}")
    print(f"# calibration kernel median {median(run.kernel) * 1e3:.3f} ms (reference {KERNEL_REF_S * 1e3:g} ms); "
          f"raw pass wall median {median(p.seconds(reference=False) for p in run.passes):.4f} s")
    for name in declared:
        print(f"  {name:32s} {values[name]:>14.6g} {declared[name]:8s} n={counts[name]}")
    for name, values_ in sorted(samples.items()):
        extra = tail(values_)
        tail_text = f"p{extra[0]:g}={extra[1]:.6g}" if extra else "tail: fewer than 20 samples"
        print(f"  {name:32s} {median(values_):>14.6g} s median n={len(values_)}  {tail_text}")
    print(f"  {'failed_frac':32s} {failed / attempted:>14.6g} ratio    n={attempted} operations")
    for message in run.failures:
        print(f"FAILED: {message}", file=sys.stderr)

    metrics = {n: {"value": values[n], "unit": declared[n]} for n in declared}
    print(json.dumps({"correct": not run.failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if run.failures else 0


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if Path(evcs.__file__).resolve().parent != (SRC / "evcs").resolve():
        parser.error(f"imported evcs from {evcs.__file__}, not from {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
