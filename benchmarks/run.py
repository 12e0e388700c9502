"""Benchmark of omivae: cross-validated training and the ingest/analysis path.

Run from the repository root:

    python3 benchmarks/run.py --workload ingest-analyze --seed 1 --seconds 50 --trace 0

Each run is one process. It sets BLAS and OpenMP to one thread before numpy
is imported, makes the workload's inputs from the seed (several times, to
time set-up), runs whole rounds of the workload for as long as the next one
is expected to end within `--seconds`, checks the outputs, and prints one
JSON object as its last line: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`. `--workload all` runs
every workload, each in its own process, and prints one result line per
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

WORKLOAD_NAMES = ("crossval-b23", "ingest-analyze")
SETUPS = 5
FOLD_THREADS = 2
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "train_samples_per_s": "1/s",
    "embed_samples_per_s": "1/s",
    "accuracy": "ratio",
    "val_loss": "nats",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def another_round(start: float, walls: list[float], budget: float) -> bool:
    """Whether a round as long as the median so far would end within the budget."""
    return time.perf_counter() - start + statistics.median(walls) <= budget


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"benchmark: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))
    return 0


class Runner:
    """One workload in this process: set-ups, rounds, checks, metrics.

    With a tracer, a set-up or round runs with every omivae function wrapped
    and under a root span, and its spans and counters become a `Phase`.
    """

    def __init__(self, workload, seed: int, run_dir: str, tracer=None):
        self.w = workload
        self.seed = seed
        self.run_dir = run_dir
        self.tracer = tracer
        self.phases = []
        self.rounds_done = 0
        self.first = None  # (digest, output directory, kept objects) of round 0
        self.deterministic = True

    def _timed(self, name: str, fn, *args):
        import spans

        if self.tracer is None:
            t0 = time.perf_counter()
            return fn(*args), time.perf_counter() - t0
        patches = spans.install(self.tracer)
        first = len(self.tracer.spans)
        root = self.tracer.open(name)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            self.tracer.close(root)
            patches.undo()
        self.phases.append(spans.Phase(self.tracer.spans[first:], dict(self.tracer.counters), wall))
        self.tracer.counters.clear()
        return result, wall

    def setup(self):
        directory = os.path.join(self.run_dir, f"setup{time.perf_counter_ns()}")
        return self._timed("bench.setup", self.w.setup, directory, self.seed)

    def round(self, inputs):
        """One timed round; returns (round, wall, cpu). Outputs of later rounds
        are compared with the first round's and then removed."""
        import workloads

        out = os.path.join(self.run_dir, f"round{self.rounds_done}")
        os.makedirs(out)
        cpu0 = time.process_time()
        result, wall = self._timed("bench.round", self.w.round, inputs, out, self.seed)
        cpu = time.process_time() - cpu0
        digest = workloads.digest(out)
        if self.first is None:
            self.first = (digest, out, result.kept)
        else:
            self.deterministic &= digest == self.first[0]
            shutil.rmtree(out)
        self.rounds_done += 1
        return result, wall, cpu


def run_workload(args, root: str) -> dict:
    import spans
    import workloads
    from checks import CheckFailed

    run_dir = os.path.join(root, ".bench_runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        workload = workloads.WORKLOADS[args.workload]
        tracer = spans.Tracer() if args.trace else None
        # a traced run sets up once, traced; its rounds come in two halves,
        # untraced then traced, whose wall times give the tracing overhead
        runner = Runner(workload, args.seed, run_dir, tracer)
        setup_times = []
        for i in range(1 if tracer else SETUPS):
            inputs, seconds = runner.setup()
            setup_times.append(seconds)
            if i + 1 < SETUPS and tracer is None:
                shutil.rmtree(inputs.directory)
        runner.tracer = None

        meter = spans.EncodeMeter()
        walls, cpus, rates = [], [], {"train": [], "embed": []}
        attempted = failed = 0
        budget = args.seconds / 2 if tracer else args.seconds
        start = time.perf_counter()
        while True:
            patches = meter.install()
            try:
                result, wall, cpu = runner.round(inputs)
            finally:
                patches.undo()
            attempted += result.ops.attempted
            failed += result.ops.failed
            walls.append(wall)
            cpus.append(cpu)
            rows, encode_s = meter.take()
            rates["embed"].append(rows / encode_s)
            rates["train"].append(result.work["train"] / result.ops.seconds["train"])
            if not another_round(start, walls, budget):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced_walls = []
        if tracer is not None:
            runner.tracer = tracer
            start = time.perf_counter()
            while True:
                result, wall, _ = runner.round(inputs)
                attempted += result.ops.attempted
                failed += result.ops.failed
                traced_walls.append(wall)
                if not another_round(start, traced_walls, budget):
                    break

        reasons = []
        _, first_out, kept = runner.first
        try:
            quality = workload.check(inputs, first_out, args.seed, kept)
        except (CheckFailed, OSError) as exc:  # OSError: an output is missing
            quality = {"accuracy": 0.0, "val_loss": 0.0}
            reasons.append(str(exc))
        if not runner.deterministic:
            reasons.append("a later round's outputs differ from the first round's")
        if tracer is not None:
            reasons += [
                f"trace accounting: {problem}"
                for problem in map(spans.accounting_error, runner.phases)
                if problem
            ]
            os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
            tracer.write(os.path.join(root, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl"))
            overhead = statistics.median(traced_walls) / statistics.median(walls)
            values = spans.per_layer_metrics(runner.phases[0], runner.phases[1:], overhead)
            metrics = {m: {"value": values[m], "unit": spans.unit_of(m)} for m in spans.PER_LAYER}
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": peak_rss_mb,
                "train_samples_per_s": statistics.median(rates["train"]),
                "embed_samples_per_s": statistics.median(rates["embed"]),
                **quality,
            }
            metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
        for reason in reasons:
            print(f"benchmark: check failed: {reason}", file=sys.stderr)
        print(
            f"{args.workload} seed {args.seed}: {len(walls) + len(traced_walls)} rounds, "
            f"{attempted} operations, {failed} failed; round walls "
            + " ".join(f"{w:.2f}" for w in walls + traced_walls),
            file=sys.stderr,
        )
        return {"correct": not reasons, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # before numpy loads: one BLAS/OpenMP thread per process, so the fold
    # threads crossval starts are the only parallelism
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["OMIVAE_THREADS"] = str(FOLD_THREADS)
    root = os.getcwd()
    src = os.path.join(root, "src")
    # the program under test is the checkout's source tree, never an install
    if not os.path.isfile(os.path.join(src, "omivae", "__init__.py")):
        print(f"benchmark: no omivae source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    result = run_workload(args, root)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
