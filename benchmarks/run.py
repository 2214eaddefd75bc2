"""baryrom benchmark: one seeded workload, timed in-process, checked.

    python3 benchmarks/run.py --workload sweep|train|query --seed N \
        --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all   # every workload, both modes

Run from the root of a checkout: the program is imported from ./src. The
set-up runs at least three times (and for at least two seconds) and reports
its median; then passes of the workload's CLI stages repeat while at least
half a pass still fits in S seconds, and pass_s is their median. Each pass,
and the set-ups together, are scaled to a reference host speed sampled
while they ran (baryrom_bench/hostspeed.py).
With --trace 1, untraced and traced passes alternate and the per-layer
metrics are printed instead of the end-to-end ones. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set up at least three times and for at least two seconds, and report the median
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_traces"


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


@dataclass
class Loop:
    untraced: list = field(default_factory=list)  # stage -> wall, per untraced pass
    scaled: list = field(default_factory=list)  # host-scaled wall per untraced pass
    summaries: list = field(default_factory=list)  # PassSummary per traced pass
    errors: list = field(default_factory=list)
    passes: int = 0
    failed_passes: int = 0
    first_ok: bool = False
    tracer: object = None


def _pass_loop(wl, work: Path, seconds: float, trace: bool, host) -> Loop:
    """Closed loop of passes until `seconds` have passed; with tracing,
    untraced and traced passes alternate and at least one of each runs.
    Untraced passes run under the host-speed sampler, whose time is taken
    out of their stage walls."""
    from baryrom_bench import metrics, workloads
    from baryrom_bench.tracing import Tracer

    loop = Loop(tracer=Tracer() if trace else None)
    digest0 = None
    start = time.perf_counter()
    while True:
        i = loop.passes
        traced = trace and i % 2 == 1
        tracer = loop.tracer if traced else None
        out = work / f"pass{i}"
        out.mkdir()
        if traced:
            tracer.reset()
            tracer.install()
        runs = []
        first_sample = len(host.samples)
        try:
            with contextlib.nullcontext() if traced else host:
                for stage in wl.stages:
                    spent = host.spent
                    runs.append(workloads.run_cli(wl.argv(stage, out), tracer, f"cli.{stage}"))
                    runs[-1].wall -= host.spent - spent
        finally:
            if traced:
                tracer.restore()
        if traced:
            loop.summaries.append(metrics.PassSummary(tracer))
        else:
            loop.untraced.append({run.name: run.wall for run in runs})
            loop.scaled.append(sum(run.wall for run in runs) * host.factor(first_sample))
        bad = [run for run in runs if run.rc != 0]
        loop.errors += [f"pass {i}: {run.name} exited {run.rc}: {run.output[-500:]}" for run in bad]
        loop.failed_passes += bool(bad)
        loop.first_ok = loop.first_ok or (i == 0 and not bad)
        if not bad:
            digest = wl.digest(out)
            digest0 = digest0 or digest
            if digest != digest0:
                loop.errors.append(f"pass {i}: outputs differ from the first pass")
        if i > 0:
            shutil.rmtree(out)
        loop.passes += 1
        # start another pass only while at least half of one still fits
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / loop.passes >= seconds and (not trace or loop.passes >= 2):
            return loop


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from baryrom_bench import metrics, workloads
    from baryrom_bench.hostspeed import REFERENCE_S, HostSpeed

    wl = workloads.WORKLOADS[name](seed)
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    untraced_walls = {}
    try:
        host = HostSpeed()
        setup_times = []
        first_sample = len(host.samples)
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            i = len(setup_times)
            with host:
                begin, spent = time.perf_counter(), host.spent
                wl.setup(work / f"setup{i}")
                setup_times.append(time.perf_counter() - begin - (host.spent - spent))
            if i:
                shutil.rmtree(work / f"setup{i - 1}")

        setup_factor = host.factor(first_sample)
        loop = _pass_loop(wl, work, seconds, trace, host)
        # before the checks, whose reference arrays are the benchmark's own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced, passes = loop.untraced, loop.passes
        verdict = workloads.Verdict()
        if loop.first_ok:
            verdict = wl.check(work / "pass0")
        errors = loop.errors + verdict.errors
        # passes reproduce each other exactly, so each repeats the first's
        # verdict; a stage that exits non-zero fails all of its pass
        attempted = wl.operations * passes
        failed = verdict.failed * (passes - loop.failed_passes) + wl.operations * loop.failed_passes

        if not trace:
            pass_wall = statistics.median(sum(w.values()) for w in untraced)
            setup_wall = statistics.median(setup_times)
            values = {
                "pass_s": statistics.median(loop.scaled),
                "setup_s": setup_wall * setup_factor,
                "peak_rss_mb": peak_rss_mb,
            }
            units = metrics.END_TO_END
            times = metrics.stage_times(metrics.mean_dicts(untraced, wl.stages), wl.n_points)
            info = {**{k: v for k, v in times.items() if v}, **verdict.quality,
                    "pass_wall_s": pass_wall, "setup_wall_s": setup_wall,
                    "host_kernel_s": REFERENCE_S / host.factor()}
        else:
            untraced_walls = metrics.mean_dicts(untraced, wl.stages)
            values = metrics.layer_values(loop.summaries)
            for stage in metrics.STAGES:
                traced_wall = values[f"cli.{stage}.self_s"] + values[f"cli.{stage}.layer_s"]
                values[f"trace.overhead_s.{stage}"] = (
                    traced_wall - untraced_walls[stage] if stage in wl.stages else 0.0
                )
            values.update(metrics.stage_times(untraced_walls, wl.n_points))
            values.update({key: verdict.quality.get(key, 0.0) for key in metrics.QUALITY})
            units = metrics.PER_LAYER
            info = {}
            TRACE_DIR.mkdir(exist_ok=True)
            loop.tracer.save(TRACE_DIR / f"{name}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    if trace:
        for stage in wl.stages:
            own, layers = values[f"cli.{stage}.self_s"], values[f"cli.{stage}.layer_s"]
            print(f"trace  {name:6s} {stage}: self {own:.6g} + layers {layers:.6g} = traced "
                  f"{own + layers:.6g} = untraced {untraced_walls[stage]:.6g} "
                  f"+ overhead {values[f'trace.overhead_s.{stage}']:.6g} s")
    for key, value in info.items():
        unit = {**metrics.STAGE_TIMES, **metrics.QUALITY, **metrics.INFO}.get(key, "s")
        print(f"info   {name:6s} {key:36s} {value:.6g} {unit}")
    for key, unit in units.items():
        print(f"metric {name:6s} {key:36s} {values[key]:.6g} {unit}")
    print(f"passes {passes}, set-ups {len(setup_times)}, "
          f"operations {attempted} attempted / {failed} failed")
    for message in errors:
        print(f"CHECK FAILED: {message}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload in both modes, each in its own process."""
    from baryrom_bench import workloads

    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None:
                print(proc.stderr, file=sys.stderr)
            ok = ok and result is not None and result["correct"]
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "train", "query", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "baryrom" / "__init__.py").is_file():
        return _fail(f"no program sources at {SRC / 'baryrom'}; run from a full checkout")
    # one BLAS thread: the pipeline's matrices are small, and a shared
    # 2-core machine gives steadier timings without thread contention
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import baryrom

    if Path(baryrom.__file__).resolve().parent != (SRC / "baryrom").resolve():
        return _fail(f"imported baryrom from {baryrom.__file__}, not from {SRC}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
