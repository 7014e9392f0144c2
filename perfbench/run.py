"""fixcat benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload's pass is repeated for about S seconds and the
end-to-end metrics are reported: medians over passes, with set-up measured
separately several times, and times corrected for the machine's speed at the
moment they were taken (speed.py).  With --trace 1 one untraced and one traced
pass are run; the traced pass wraps fixcat's public functions from outside
(spans.py) and the per-layer metrics are reported, with the spans written
under perfbench/.work/.  Every pass is checked against known answers.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it records the run's provenance ({"info": ...}).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 12


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Timed:
    result: object
    raw_wall: float
    raw_cpu: float = 0.0
    wall: float = 0.0       # speed-corrected
    cpu: float = 0.0        # speed-corrected
    kernel: float = 0.0     # median reference-kernel time while timing


def measure_setup(documents, out, repeats):
    """Interpreter start, import of every fixcat module, and parsing of the
    workload's input documents, timed in a fresh process.  The machine's
    speed is sampled right before and right after each start."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), SRC] + documents
    for _ in range(repeats):
        before = speed.bracket_scale()
        t0 = time.perf_counter()
        subprocess.run(argv, check=True)
        raw = time.perf_counter() - t0
        scale = (before + speed.bracket_scale()) / 2
        out.append(Timed(None, raw, wall=raw * scale))


def timed_pass(workload):
    with speed.SpeedClock() as clock:
        res = workload.run_pass()
    return Timed(res, clock.raw_wall, clock.raw_cpu, clock.wall, clock.cpu,
                 statistics.median(clock.kernels))


def traced_pass(workload, tracer=None):
    w0 = time.perf_counter()
    res = workload.run_pass(tracer)
    return Timed(res, time.perf_counter() - w0)


def tail(samples):
    """The highest percentile with at least ten samples above it, or None
    when there are ten samples or fewer."""
    s = sorted(samples)
    return s[len(s) - 11] if len(s) > 10 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fixcat", "__init__.py")):
        fail(f"no fixcat sources under {SRC}; run from a checkout of the repo")
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"one of {', '.join(workloads.WORKLOADS)}")
    spec = load_spec()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count()}
    passes = []
    metrics = {}
    if args.trace == 0:
        # the first start writes bytecode caches and is not counted; half
        # the timed starts come before the passes and half after, so the
        # median spans the run rather than one moment of it
        setup = []
        measure_setup(workload.documents, [], 1)
        measure_setup(workload.documents, setup, SETUP_REPEATS // 2)
        import fixcat.cli  # noqa: F401  (import cost is in setup_s)
        start = time.perf_counter()
        while True:
            passes.append(timed_pass(workload))
            if len(passes) == 1:
                # later passes reuse the first one's freed memory, so the
                # peak is taken where every run has it: after one pass
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if passes[-1].result.wrong:
                break
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.raw_wall for p in passes) > args.seconds:
                break
        measure_setup(workload.documents, setup, SETUP_REPEATS // 2)

        def med(field, timed=passes):
            return statistics.median(getattr(p, field) for p in timed)

        metrics = {
            "setup_s": med("wall", setup),
            "wall_s": med("wall"),
            "cpu_s": med("cpu"),
            "items_per_s": statistics.median(p.result.items / p.wall
                                             for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        info.update({
            "setup_samples": len(setup),
            "raw_setup_s": med("raw_wall", setup),
            "raw_wall_s": med("raw_wall"),
            "raw_cpu_s": med("raw_cpu"),
            "raw_items_per_s": statistics.median(p.result.items / p.raw_wall
                                                 for p in passes),
            "raw_wall_tail_s": tail([p.raw_wall for p in passes]),
            "kernel_s": med("kernel"),
        })
        wanted = spec["end_to_end"]
    else:
        import spans
        passes.append(traced_pass(workload))
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes.append(traced_pass(workload, tracer))
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = passes[1].raw_wall - passes[0].raw_wall
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}"))
        info["channels"] = tracer.corpus_channels()
        wanted = spec["per_layer"]

    results = [p.result for p in passes]
    texts = {r.text for r in results}
    wrong = [w for r in results for w in r.wrong]
    if len(texts) > 1:
        wrong.append("verdict text differs between passes of one seed")
    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    info.update({
        "samples": len(passes),
        "raw_wall_samples_s": [p.raw_wall for p in passes],
        "verdict_sha256": hashlib.sha256(results[0].text.encode()).hexdigest(),
        "wrong_verdicts": len(wrong),
        "failed_share": failed / attempted if attempted else 1.0,
        "wrong": wrong[:20],
    })
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in wanted}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not wrong, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
