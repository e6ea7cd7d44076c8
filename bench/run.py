"""Benchmark of stationarylab: seed-generated batches of CLI experiments.

    python3 bench/run.py --workload build --seed 1 --seconds 25 --trace 0

runs the job list of one workload (`build`, `brackets` or `dynamics`; see
workloads.py) in this process through the public stationarylab.cli.run. One
client runs each job after the previous one finishes (a closed loop), with
BLAS pinned to one thread. Every job's outputs are checked outside the timed
region; a job fails if it raises, if cli.verify rejects its manifest or if a
check in checks.py fails.

--trace 0 repeats the job list while another pass fits in --seconds and
reports the end-to-end metrics of BENCHMARK.json:
  wall_ref_s     time inside cli.run at nominal host speed (speed.py), per
                 job median over passes, summed over jobs;
  setup_s        median time of `import stationarylab.cli` in a fresh
                 interpreter, which every CLI invocation pays, at nominal
                 host speed;
  peak_rss_mb    peak resident memory of this process after the first pass;
  bracket_width  mean (upper - lower) / upper over every norm.csv and
                 cesaro.csv row.
It also prints the unscaled wall_s and setup_s and the error rate (failed /
attempted jobs).

--trace 1 runs the list once untraced, once under SpanTracer and once under
CountTracer, checks that all three write identical outputs, and reports the
per-layer metrics, the tracing overhead (traced minus untraced time inside
cli.run, at nominal host speed) and the share of time inside cli.run that spans below it cover.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The spans and a per-run record (per-job
times, output sha256, speed-kernel timings) go to .bench_out/. To run every
workload:

    for w in build brackets dynamics; do
        python3 bench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if __name__ == "__main__" and not (SRC / "stationarylab" / "cli.py").is_file():
    sys.exit(f"error: no stationarylab sources under {SRC}")

# One closed-loop client on a 2-core host: BLAS must not spread over cores.
# Set before numpy is first imported.
BLAS_THREADS = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from stationarylab import cli  # noqa: E402
from speed import NOMINAL_S, SpeedSampler  # noqa: E402
from tracer import CountTracer, SpanTracer  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

SETUP_REPEATS = 7
# The child also times the speed kernel around the import, so that the import
# time can be scaled to nominal host speed like the job times.
SETUP_CODE = """
import time
from speed import kernel

def timed(f):
    t0 = time.perf_counter()
    f()
    return time.perf_counter() - t0

kernels = [timed(kernel) for _ in range(5)]
seconds = timed(lambda: __import__("stationarylab.cli"))
kernels += [timed(kernel) for _ in range(5)]
print(seconds, *kernels)
"""


def time_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median seconds of `import stationarylab.cli` in a fresh interpreter,
    at nominal host speed and unscaled."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH)])}
    scaled, unscaled = [], []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        seconds, *kernels = map(float, done.stdout.split())
        unscaled.append(seconds)
        scaled.append(seconds * statistics.fmean(NOMINAL_S / k for k in kernels))
    # the first child warms the file cache
    return statistics.median(scaled[1:]), statistics.median(unscaled[1:])


def run_pass(jobs, work: Path, span: SpanTracer | None = None,
             speed: SpeedSampler | None = None) -> list[dict]:
    """Run every job once, timing only cli.run; check outputs afterwards.

    With a SpeedSampler each result also holds the job's time at nominal host
    speed (ref_seconds) and the mean kernel time that scaled it (kernel_s).
    """
    results = []
    for job in jobs:
        out = work / job.id
        if span is not None:
            span.job = job.id
        if speed is not None:
            speed.sample()
        result = {"id": job.id, "outputs": {}, "brackets": [], "problems": []}
        t0 = time.perf_counter()
        try:
            manifest = cli.run(job.config, out)
        except Exception as exc:  # a job that raises is a failed job
            result["problems"].append(f"raised {exc!r}")
            manifest = None
        t1 = time.perf_counter()
        result["seconds"] = t1 - t0
        if speed is not None:
            result["seconds"], result["ref_seconds"], result["kernel_s"] = speed.scale(t0, t1)
        if manifest is not None:
            result["outputs"] = manifest.outputs
            try:
                result["problems"] += checks.check_job(job.id, job.config, out)
                result["brackets"] = checks.bracket_rows(out)
            except Exception as exc:  # a check that cannot read the outputs fails the job
                result["problems"].append(f"check raised {exc!r}")
        results.append(result)
    shutil.rmtree(work, ignore_errors=True)
    return results


def bracket_width(results: list[dict]) -> float:
    """Mean of (upper - lower) / upper over every bracket row of one pass;
    1, the width of no certificate, if a failed job left no rows."""
    widths = [(u - lo) / u if u else 0.0 for r in results for lo, u in r["brackets"]]
    return statistics.fmean(widths) if widths else 1.0


def per_job_median_sum(passes: list[list[dict]], key: str) -> float:
    """Sum over jobs of the job's median `key` across passes."""
    return sum(statistics.median(times)
               for times in zip(*[[r[key] for r in p] for p in passes]))


def measure(jobs, seconds: float, work: Path) -> tuple[dict, list[list[dict]]]:
    """End-to-end metrics from untraced passes; a pass starts only if it is
    predicted to end within `seconds` (the first always runs)."""
    setup_s, setup_unscaled_s = time_setup()
    passes = []
    with SpeedSampler() as speed:
        t0 = time.perf_counter()
        # (elapsed) * (n + 1) / n predicts the time after one more pass
        while not passes or (time.perf_counter() - t0) * (1 + 1 / len(passes)) <= seconds:
            passes.append(run_pass(jobs, work / f"pass{len(passes)}", speed=speed))
            if len(passes) == 1:
                # read now, so that the figure does not depend on how many
                # passes fit
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_ref_s": per_job_median_sum(passes, "ref_seconds"),
        "wall_s": per_job_median_sum(passes, "seconds"),
        "setup_s": setup_s,
        "setup_unscaled_s": setup_unscaled_s,
        "peak_rss_mb": peak_rss_mb,
        "bracket_width": bracket_width(passes[0]),
    }
    return metrics, passes


def trace(jobs, work: Path, spans_path: Path) -> tuple[dict, list[list[dict]]]:
    """Per-layer metrics from one traced pass and one count pass.

    The untraced and traced passes run under a SpeedSampler, so that the
    overhead compares times at nominal host speed; its samples add about 1%
    to the self time of whichever span they interrupt.
    """
    with SpeedSampler() as speed:
        plain = run_pass(jobs, work / "plain", speed=speed)
        with SpanTracer() as span:
            traced = run_pass(jobs, work / "traced", span, speed)
    with CountTracer() as count:
        counted = run_pass(jobs, work / "counted")
    for other in (traced, counted):
        for a, b in zip(plain, other):
            if a["outputs"] != b["outputs"]:
                b["problems"].append("outputs differ from the untraced pass")
    spans_path.write_text(json.dumps(span.to_json()) + "\n")
    metrics = {**span.metrics(), **count.counts}
    metrics["trace.overhead_s"] = (sum(r["ref_seconds"] for r in traced)
                                   - sum(r["ref_seconds"] for r in plain))
    metrics["trace.covered_share"] = span.covered_share()
    return metrics, [plain, traced, counted]


def machine() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    jobs = jobs_for(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT))
    try:
        if args.trace:
            values, passes = trace(jobs, work, OUT / f"spans-{stem}.json")
        else:
            values, passes = measure(jobs, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["problems"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "blas_threads": BLAS_THREADS,
        "jobs": [{"id": j.id, "config": j.config} for j in jobs],
        "passes": [[{k: v for k, v in r.items() if k != "brackets"} for r in p]
                   for p in passes],
        "kernel_s": statistics.median(r["kernel_s"] for r in results if "kernel_s" in r),
        "attempted": len(results), "failed": failed,
        "error_rate": failed / len(results), "metrics": values,
    }
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(jobs)} jobs, "
          f"{failed} of {len(results)} failed")
    for r in results:
        for problem in r["problems"]:
            print(f"  FAILED {r['id']}: {problem}")
    print(f"  {'error_rate':<48} {record['error_rate']:>14.6g} ratio")
    print(f"  {'speed kernel, median':<48} {record['kernel_s']:>14.6g} s")
    if not args.trace:
        print(f"  {'wall_s (unscaled)':<48} {values['wall_s']:>14.6g} s")
        print(f"  {'setup_s (unscaled)':<48} {values['setup_unscaled_s']:>14.6g} s")
    for m in reported:
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
