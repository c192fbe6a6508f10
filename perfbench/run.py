"""Benchmark of the toricgs package: census, pairwise and transform workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

The package is imported from ``src/``.  Set-up (``import toricgs`` plus
building the inputs) is timed on its own; then passes over the job list run,
single-threaded and in-process, until ``--seconds`` have passed.  Times are
reported at a fixed reference speed, measured while the jobs run (``speed``).  Every job's
output is checked against an answer computed without the program.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The line before it is a record of the
run: versions, CPU count, CPU time, job counts and the baseline comparisons.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed  # perfbench/ is on sys.path when this file runs as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "pairwise", "transform")
SETUP_SAMPLES = 7  # this process plus six fresh ones
CHUNK_S = 0.25  # job time put at the reference speed by one set of samples
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    p.add_argument(
        "--corrupt-oracle",
        action="store_true",
        help="replace one expected answer by a wrong one (negative test of the oracles)",
    )
    return p.parse_args(argv)


def timed_setup(workload: str, seed: int, workdir: Path):
    """Import the package and build the inputs; returns (seconds, module, inputs).

    The seconds are at the reference speed of ``speed``.
    """
    with speed.Sampler() as sampler:
        start = sampler.reading()
        t0 = sampler.clock()
        importlib.import_module("toricgs")
        t_import = sampler.clock() - t0
        import workloads

        setup = workloads.WORKLOADS[workload][0]
        t1 = sampler.clock()
        inputs = setup(seed, workdir)
        seconds = t_import + sampler.clock() - t1
        return seconds * sampler.scale_since(start), workloads, inputs


def setup_in_fresh_process(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(jobs, sampler, failures: list, tracer=None):
    """Run every job once, then check the outputs.

    Jobs run in chunks of about CHUNK_S seconds (a longer job is a chunk of
    its own); each chunk's times, read on the sampler's clock, are put at the
    reference speed by the kernel samples taken during the chunk.  Returns
    (scaled pass seconds, scaled per-job seconds, failed jobs, unscaled pass
    seconds); the first few failures are described in ``failures``.
    """
    gc.collect()
    clock = sampler.clock
    times, outputs = [], []
    scaled_wall = raw_wall = 0.0
    i = 0
    while i < len(jobs):
        first = i
        reading = sampler.reading()
        start = clock()
        while i < len(jobs) and clock() - start < CHUNK_S:
            job = jobs[i]
            if tracer is not None:
                tracer.tag = job.kind
            t0 = clock()
            try:
                out, err = job.call(), None
            except Exception as exc:  # a failed job, counted below
                out, err = None, exc
            times.append(clock() - t0)
            outputs.append((out, err))
            i += 1
        chunk = clock() - start
        scale = sampler.scale_since(reading)
        times[first:] = [t * scale for t in times[first:]]
        scaled_wall += chunk * scale
        raw_wall += chunk
    failed = 0
    for job, (out, err) in zip(jobs, outputs):
        try:
            ok = err is None and job.check(out, job.expected)
        except Exception as exc:  # a malformed output fails its job
            ok, err = False, exc
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{job.name}: {err!r}" if err else f"{job.name}: wrong answer")
    return scaled_wall, times, failed, raw_wall


def run_passes(jobs, sampler, seconds: float, failures: list, tracer=None):
    """Whole passes while the next one is expected to end within ``seconds``."""
    start = time.perf_counter()
    passes, longest = [], 0.0
    while not passes or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, sampler, failures, tracer))
        longest = max(longest, time.perf_counter() - t0)
    return passes


def summarize(passes):
    """Pass time and job-time percentiles over all passes of a run.

    Times are at the reference speed (see ``speed``): the mean pass, and
    percentiles of the job times pooled over all passes.  The tail percentile
    is the highest one with TAIL_BEYOND jobs of a single pass beyond it.
    """
    pooled = sorted(t for p in passes for t in p[1])
    per_pass = len(passes[0][1])
    return {
        "wall_s": statistics.fmean(p[0] for p in passes),
        "job_p50_ms": statistics.median(pooled) * 1e3,
        "job_tail_ms": pooled[len(passes) * (per_pass - TAIL_BEYOND) - 1] * 1e3,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "toricgs").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def baselines(workload: str, jobs, passes, layers=None) -> dict:
    """The figures the ROADMAP Baseline table states for this workload."""
    out = {}
    if workload == "pairwise":
        six = [t for p in passes for job, t in zip(jobs, p[1]) if job.n == 6]
        out["lc_equivalent_n6_mean_us"] = statistics.fmean(six) * 1e6
        out["lc_equivalent_n6_median_us"] = statistics.median(six) * 1e6
    if workload == "census":
        plus = [t for p in passes for job, t in zip(jobs, p[1]) if job.name == "square_5_11_o0"]
        out["pentomino_locality_job_s"] = statistics.median(plus)
    if layers is not None and layers["large_orbits"]:
        out["python_engine_class_s"] = [round(s, 4) for _, _, s in layers["large_orbits"]]
        out["python_engine_class_sizes"] = [size for _, size, _ in layers["large_orbits"]]
    return out


def layer_metrics(tracer_mod, setup_layers: dict, job_layers: dict, traced: list,
                  untraced_wall: float, locality_jobs: int) -> dict:
    """Per-layer metrics: one set-up plus the mean of one traced pass."""
    n_passes = len(traced)
    m = {}
    for name in tracer_mod.SPAN_NAMES:
        calls0, self0, _ = setup_layers["stats"][name]
        calls1, self1, _ = job_layers["stats"][name]
        m[f"{name}.calls"] = (calls0 + calls1 / n_passes, "count")
        m[f"{name}.self_s"] = (self0 + self1 / n_passes, "s")
    stats = job_layers["stats"]
    gf2_self = sum(v[1] for k, v in stats.items() if k.startswith("gf2.")) / n_passes
    m["gf2.share"] = (gf2_self / statistics.fmean(p[3] for p in traced), "frac")
    members = job_layers["orbit_members"] / n_passes
    engine_s = sum(stats[k][2] for k in tracer_mod.ENGINES) / n_passes
    m["lc.orbit_members"] = (members, "count")
    m["lc.members_per_s"] = (members / engine_s if engine_s else 0.0, "1/s")
    enumerations = job_layers["engine_calls"].get("locality", 0) / n_passes
    m["lc.enumerations_per_verdict"] = (enumerations / locality_jobs if locality_jobs else 0.0, "ratio")
    dims = job_layers["free_dims"]
    m["lc.free_dim_max"] = (max(dims, default=0), "count")
    m["lc.walk_bound"] = (sum(2**k for k in dims) / n_passes, "count")
    transforms = stats["surface.transform_to_graph_state"][0]
    validations = stats["surface.validate_embedding"][0]
    m["surface.validations_per_transform"] = (validations / transforms if transforms else 0.0, "ratio")
    overhead = summarize(traced)["wall_s"] - untraced_wall
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (overhead / untraced_wall, "frac")
    return m


def diff_layers(before: dict, after: dict) -> dict:
    return {
        "stats": {k: [a - b for a, b in zip(after["stats"][k], before["stats"][k])]
                  for k in after["stats"]},
        "engine_calls": {k: v - before["engine_calls"].get(k, 0)
                         for k, v in after["engine_calls"].items()},
        "orbit_members": after["orbit_members"] - before["orbit_members"],
        "free_dims": after["free_dims"][len(before["free_dims"]):],
        "large_orbits": after["large_orbits"][len(before["large_orbits"]):],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toricgs" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'toricgs'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "toricgs"), quiet=1)
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, workdir: Path) -> int:
    setup_s, workloads, inputs = timed_setup(args.workload, args.seed, workdir / "untraced")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    _, make_jobs, corrupt = workloads.WORKLOADS[args.workload]
    jobs = make_jobs(inputs)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.corrupt_oracle:
        record["corrupted"] = corrupt(jobs)

    failures: list[str] = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with speed.Sampler() as sampler:
        if args.trace == 0:
            passes = run_passes(jobs, sampler, args.seconds, failures)
            all_passes = passes
        else:
            import tracer as tracer_mod

            passes = run_passes(jobs, sampler, args.seconds / 2, failures)
            tracer = tracer_mod.Tracer(sampler.clock)
            tracer.install()
            try:
                start = tracer.snapshot()
                workloads.WORKLOADS[args.workload][0](args.seed, workdir / "traced")
                setup_done = tracer.snapshot()
                traced = run_passes(jobs, sampler, args.seconds / 2, failures, tracer)
                end = tracer.snapshot()
            finally:
                tracer.uninstall()
            all_passes = passes + traced
    wall_total = time.perf_counter() - t0
    cpu_total = time.process_time() - cpu0

    failed = sum(p[2] for p in all_passes)
    attempted = len(jobs) * len(all_passes)
    summary = summarize(passes)
    if args.trace == 0:
        samples = [setup_s] + [setup_in_fresh_process(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "wall_s": (summary["wall_s"], "s"),
            "job_p50_ms": (summary["job_p50_ms"], "ms"),
            "job_tail_ms": (summary["job_tail_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(samples), "s"),
            "pass_frac": ((attempted - failed) / attempted, "frac"),
        }
        record["setup_samples_s"] = samples
        record["baseline"] = baselines(args.workload, jobs, passes)
    else:
        job_layers = diff_layers(setup_done, end)
        locality = sum(1 for j in jobs if j.kind == "locality")
        metrics = layer_metrics(
            tracer_mod, diff_layers(start, setup_done), job_layers, traced,
            summary["wall_s"], locality,
        )
        record["untraced_wall_s"] = summary["wall_s"]
        record["traced_wall_s"] = summarize(traced)["wall_s"]
        record["traced_pass_walls_s"] = [p[0] for p in traced]
        record["baseline"] = baselines(args.workload, jobs, passes, job_layers)
        record["baseline"]["gf2_share_of_wall"] = metrics["gf2.share"][0]

    record.update(
        passes=len(passes),
        pass_walls_s=[p[0] for p in passes],
        raw_pass_walls_s=[p[3] for p in passes],
        kernel_mean_s=sampler.kernel_s / sampler.samples,
        sampling_s=sampler.sampling_s,
        jobs_per_pass=len(jobs),
        job_tail_pct=round(100 * (len(jobs) - TAIL_BEYOND) / len(jobs), 2),
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        failures=failures,
        measured_wall_s=wall_total,
        measured_cpu_s=cpu_total,
        git_sha=git_sha(),
        src_sha256=source_digest(),
        python=platform.python_version(),
        numpy=importlib.import_module("numpy").__version__,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
