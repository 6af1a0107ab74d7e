#!/usr/bin/env python3
"""resicomp benchmark: one workload per run, checked, every metric named.

    python3 perfbench/run.py --workload codec-512 --seed 0 --seconds 15 --trace 0

Run from the repository root.  The benchmark imports resicomp from
./src, builds the workload's inputs from --seed, sets up several times
(each set-up imports resicomp afresh and runs a warm-up episode), then
runs the workload's items in a closed loop: whole passes over the item
list until --seconds have elapsed, at least one pass.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it wraps the layer entry
points, prints per-layer metrics and writes the spans to
.perfbench_out/.  The last line of standard output is one JSON object.
See perfbench/NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One process, no helper threads: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.ndimage  # noqa: E402,F401  loaded here, so set-up times resicomp only

import workloads  # noqa: E402
from tracing import BENCH_SPANS, CallTimer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-ups before and after the timed loop.  Spreading them over the run
# keeps a slow spell of a shared machine from setting the median alone.
SETUP_REPS = (3, 2)

# name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "send_s": "s",
    "receive_s": "s",
    "progressive_s": "s",
    "symbols_per_s": "1/s",
    "episodes_per_s": "1/s",
    "episode_s_p50": "s",
    "episode_s_p90": "s",
    "bpp": "bit/px",
    "psnr_db": "dB",
    "success_ratio": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_TIMES = (
    "density.discretize_batch", "density.quantize_probs",
    "density.freq_table_batch", "predictor.predict",
    "predictor.collect_context", "predictor.conceal",
    "token_codec.synthesize", "token_codec.analyze",
    "entropy_coder.encode", "entropy_coder.decode",
    "transport.to_bytes", "transport.from_bytes", "transport.sample_trace",
    "partition.build_plan", "context_modes.make_mode",
    "context_modes.context_depths",
)

PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    "pipeline.send_self_s": "s",
    "pipeline.receive_self_s": "s",
    "unattributed_s": "s",
    "bench.item_s_p50": "s",
    "density.tables_built": "count",
    "density.tables_per_symbol_coded": "ratio",
    "predictor.predict_calls": "count",
    "token_codec.synthesize_calls": "count",
    "entropy_coder.symbols": "count",
    "entropy_coder.payload_bytes": "count",
    "entropy_coder.corrupt_streams": "count",
    "transport.packets_lost_ratio": "ratio",
    "pipeline.send_calls_per_episode": "count",
    "pipeline.slices_decoded_ratio": "ratio",
    "pipeline.predictor_passes": "count",
}


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Run:
    """One benchmark run: set-up, closed loop, checks, metrics."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.problems = []  # failed operations, with the reason
        self.attempted = 0
        self.correct = True
        self.setup_times = []

    def _op(self, problem, check_failed=True):
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)
            self.correct = self.correct and not check_failed

    def set_up(self, reps):
        """Import resicomp afresh, build the inputs, warm up; reps times."""
        for _ in range(reps):
            t0 = perf_counter()
            rc = workloads.load_resicomp()
            self.workload.setup(rc, self.seed)
            problem = workloads.warm_up(rc, self.seed, self.workload.channels)
            self.setup_times.append(perf_counter() - t0)
            self._op(problem)
        here = Path(rc.cli.__file__).resolve()
        if SRC.resolve() not in here.parents:
            raise SystemExit(f"resicomp was imported from {here}, not {SRC}")
        return rc

    def measure(self, rc):
        OUT.mkdir(exist_ok=True)
        timer = CallTimer()
        tracer = Tracer() if self.trace else None
        call = tracer.span if tracer else _plain_call
        results = []
        first_pass = 0
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            try:
                if self.workload.uses_call_timer:
                    timer.install(rc, ["pipeline.send", "pipeline.receive"])
                if tracer:
                    tracer.install(rc)
                    tracer.item = "warm-up"
                    self._op(workloads.warm_up(rc, self.seed,
                                               self.workload.channels))
                timer.take()
                start = perf_counter()
                while True:
                    for item in self.workload.items:
                        results.append(self._item(rc, item, timer, call,
                                                  tracer, len(results)))
                    first_pass = first_pass or len(results)
                    if perf_counter() - start >= self.seconds:
                        break
                elapsed = perf_counter() - start
                if tracer:
                    tracer.item = "after"
                for problem, is_check in self.workload.after(
                        rc, self.seed, Path(workdir), call):
                    self._op(problem, check_failed=is_check)
            finally:
                if tracer:
                    tracer.restore()
                timer.restore()
        return results, first_pass, elapsed, tracer

    def _item(self, rc, item, timer, call, tracer, index):
        if tracer:
            tracer.item = index
            span = tracer.begin("item")
        try:
            result = self.workload.run_item(rc, item, timer, call)
        except Exception:  # the benchmark boundary: count, report, go on
            self._op(f"item {index} raised:\n{traceback.format_exc()}",
                     check_failed=False)
            return None
        finally:
            if tracer:
                tracer.end(span)
        self._op(result.check)
        return result


def end_to_end(results, first_pass, elapsed, run):
    done = [r for r in results if r is not None]
    first = [r for r in results[:first_pass] if r is not None]
    if not done or not first:
        raise RuntimeError("no item completed")
    seconds = [r.seconds for r in done]
    psnr = [v for r in first for v in r.psnr]
    failed = [v for r in first for v in r.failed]
    return {
        "setup_s": statistics.median(run.setup_times),
        "send_s": statistics.median(r.send_s for r in done),
        "receive_s": statistics.median(r.receive_s for r in done),
        "progressive_s": statistics.median(r.receiver_s for r in done),
        "symbols_per_s": (sum(r.symbols for r in done)
                          / sum(r.coded_s for r in done)),
        "episodes_per_s": len(done) / elapsed,
        "episode_s_p50": statistics.median(seconds),
        "episode_s_p90": float(numpy.percentile(seconds, 90)),
        "bpp": statistics.fmean(r.bpp for r in first),
        "psnr_db": statistics.fmean(psnr),
        "success_ratio": 1.0 - sum(failed) / len(failed),
        "ok_ratio": 1.0 - len(run.problems) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, results):
    """Per item: self seconds per layer, and counts; plus ratios.

    Times cover every span of the run, including the traced warm-up (so
    each layer is reached) and work after the loop; counts and ratios
    cover the workload's items only.
    """
    items = {i for i, r in enumerate(results) if r is not None}
    n = len(items)
    self_s = tracer.self_times()
    calls = tracer.calls(items)
    counts = tracer.counters(items)
    symbols = sum(results[i].symbols for i in items)
    item_spans = [end - start for name, start, end, _, item in tracer.spans
                  if name == "item" and item in items]
    metrics = {f"{name}_s": self_s.get(name, 0.0) / n for name in LAYER_TIMES}
    metrics.update({
        "pipeline.send_self_s": self_s.get("pipeline.send", 0.0) / n,
        "pipeline.receive_self_s": self_s.get("pipeline.receive", 0.0) / n,
        "unattributed_s": sum(self_s.get(s, 0.0) for s in BENCH_SPANS) / n,
        "bench.item_s_p50": statistics.median(item_spans),
        "density.tables_built": counts.get("density.tables_built", 0) / n,
        "density.tables_per_symbol_coded":
            counts.get("density.tables_built", 0) / symbols,
        "predictor.predict_calls": calls.get("predictor.predict", 0) / n,
        "token_codec.synthesize_calls":
            calls.get("token_codec.synthesize", 0) / n,
        "entropy_coder.symbols": counts.get("entropy_coder.symbols", 0) / n,
        "entropy_coder.payload_bytes":
            counts.get("entropy_coder.payload_bytes", 0) / n,
        "entropy_coder.corrupt_streams":
            counts.get("entropy_coder.corrupt_streams", 0) / n,
        "transport.packets_lost_ratio":
            (counts.get("transport.packets_lost", 0)
             / counts["transport.packets"]) if counts.get("transport.packets")
            else 0.0,
        "pipeline.send_calls_per_episode": calls.get("pipeline.send", 0) / n,
        "pipeline.slices_decoded_ratio":
            (counts.get("pipeline.slices_decoded", 0)
             / max(counts.get("pipeline.slices_arrived", 0), 1)),
        "pipeline.predictor_passes":
            counts.get("pipeline.predictor_passes", 0) / n,
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: seconds-long inputs for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "resicomp" / "__init__.py").is_file():
        print(f"error: no resicomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(workloads.WORKLOADS[args.workload](args.size), args.seed,
              args.seconds, bool(args.trace))
    rc = run.set_up(SETUP_REPS[0])
    results, first_pass, elapsed, tracer = run.measure(rc)
    if args.trace:
        metrics, units = per_layer(tracer, results), PER_LAYER
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        run.set_up(SETUP_REPS[1])
        metrics = end_to_end(results, first_pass, elapsed, run)
        units = END_TO_END

    done = [r for r in results if r is not None]
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {len(done)} items in "
          f"{elapsed:.2f} s ({first_pass} per pass), "
          f"{len(run.problems)} failed of {run.attempted} operations "
          f"(error_ratio {len(run.problems) / run.attempted:.6f})")
    if not args.trace:
        beyond = sum(r.seconds > metrics["episode_s_p90"] for r in done)
        print(f"episode_s_p90 over {len(done)} items, {beyond} beyond it; "
              f"failure_ratio {1.0 - metrics['success_ratio']:.6f}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    env = environment()
    print("env " + json.dumps(env))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "env": env}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
