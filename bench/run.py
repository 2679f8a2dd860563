#!/usr/bin/env python3
"""Benchmark of the certified arrmono pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  Set-up imports ``arrmono`` from ``src/``,
generates the workload's inputs from the seed, validates them, writes them
under ``.bench_work/`` and runs one warm-up job; it is repeated
SETUP_REPEATS times and ``setup_s`` is the median.  The run then repeats
the workload's fixed job list (one pass) while another pass fits in S
seconds (at least MIN_PASSES untraced passes, or one of each kind with
--trace 1), each job through ``arrmono.cli.main`` in
this process, one after another, and checks every report with the
workload's oracle.  Times are calibrated against the machine's speed while
they are taken (see ``speed.py``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: ``wall_s`` is the time to complete the job list, the
sum over jobs of each job's median time over the passes, and ``job_p50_s``
the median of those per-job medians.  With ``--trace 1`` passes alternate
between untraced and traced; the JSON carries the per-layer self times
(median over traced passes), the counts of one traced pass, and the tracing
overhead, and the spans are written to
``.bench_work/trace-<workload>-<seed>.jsonl``.  The line before the JSON
holds a digest of every report of the first pass, so two commits can be
compared for identical output.  ``--workload all`` runs each workload in
its own process and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
# Untraced passes per run, at least: a job's median over three passes
# discards one pass that a burst of load slowed.
MIN_PASSES = 3

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


class SetupFailed(Exception):
    pass


def fresh_import():
    """Import arrmono anew, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "arrmono" or m.startswith("arrmono.")]:
        del sys.modules[name]
    am = importlib.import_module("arrmono")
    importlib.import_module("arrmono.cli")
    return am


@dataclass
class Outcome:
    raw: float  # seconds
    seconds: float  # calibrated seconds
    code: int | None  # exit code, None if the job raised
    text: str
    problems: list[str]


def execute(job, tracer=None, probe: SpeedProbe | None = None) -> Outcome:
    """Run one job and check its report.  A job fails if it raised, exited
    2 or fails its oracle."""
    main = sys.modules["arrmono.cli"].main
    argv = list(job.argv) + ["--format", "structured"]
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with redirect_stdout(out), redirect_stderr(err):
                return main(argv) if tracer is None else tracer.run("cli.job", main, argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the job failed; record why and go on with the run
            err.write(traceback.format_exc())
            return None

    if probe is None:
        start = time.perf_counter()
        code = call()
        raw = seconds = time.perf_counter() - start
    else:
        code, raw, seconds = probe.timed(call)
    text = out.getvalue()
    if code is None:
        problems = ["raised: " + err.getvalue().strip().splitlines()[-1]]
    elif code == 2:
        problems = ["exit 2: " + err.getvalue().strip()]
    else:
        problems = job.check(code, text)
    return Outcome(raw, seconds, code, text, problems)


def setup(name: str, seed: int, work: Path, probe: SpeedProbe):
    """One set-up; returns (workload, raw seconds, calibrated seconds)."""
    shutil.rmtree(work, ignore_errors=True)

    def build():
        wl = workloads.build(fresh_import(), name, seed, work)
        return wl, execute(wl.warmup)

    (wl, warm), raw, seconds = probe.timed(build)
    if warm.problems:
        raise SetupFailed(f"warm-up job {wl.warmup.name}: {warm.problems}")
    return wl, raw, seconds


@dataclass
class Pass:
    wall: float = 0.0  # uncalibrated seconds
    times: list[float] = field(default_factory=list)  # calibrated seconds per job
    raw: list[float] = field(default_factory=list)  # uncalibrated seconds per job
    layers: dict[str, float] = field(default_factory=dict)  # calibrated self seconds per span
    failures: list[str] = field(default_factory=list)
    reports: list[tuple] = field(default_factory=list)


def run_pass(wl, probe: SpeedProbe, tracer, reference, label: str) -> Pass:
    """One pass over the job list."""
    out = Pass()
    start = time.perf_counter()
    for i, job in enumerate(wl.jobs):
        first_span = 0
        if tracer is not None:
            tracer.job = f"{label}/{job.name}"
            first_span = len(tracer.spans)
        res = execute(job, tracer, probe)
        if reference is not None and (res.code, res.text) != reference[i] and not res.problems:
            res.problems = ["report differs from the first pass"]
        out.times.append(res.seconds)
        out.raw.append(res.raw)
        out.reports.append((res.code, res.text))
        out.failures.extend(f"{job.name}: {p}" for p in res.problems[:1])
        if tracer is not None:
            # The job's spans also cover the probe's samples; scaling their
            # self times to the job's calibrated time removes those too.
            layers = tracer.self_seconds(first_span)
            scale = res.seconds / sum(layers.values())
            for name, v in layers.items():
                out.layers[name] = out.layers.get(name, 0.0) + v * scale
    out.wall = time.perf_counter() - start
    return out


def digest(jobs, reports) -> str:
    h = hashlib.sha256()
    for job, (code, text) in zip(jobs, reports):
        h.update(f"{job.name}\0{code}\0{text}\0".encode())
    return h.hexdigest()


def measure(name: str, seed: int, seconds: int, trace: bool, probe: SpeedProbe) -> dict:
    work = WORK / f"{name}-{seed}"
    setups = [setup(name, seed, work, probe) for _ in range(SETUP_REPEATS)]
    wl = setups[-1][0]

    tracer = spans.Tracer() if trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    counts: dict[str, int] = {}
    start = time.perf_counter()
    while True:
        reference = untraced[0].reports if untraced else None
        label = f"pass{len(untraced) + len(traced)}"
        if trace and len(untraced) > len(traced):
            tracer.counts.clear()
            restore = spans.instrument(tracer)
            try:
                traced.append(run_pass(wl, probe, tracer, reference, label))
            finally:
                restore()
            counts = dict(tracer.counts)
        else:
            untraced.append(run_pass(wl, probe, None, reference, label))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        enough = (untraced and traced) if trace else len(untraced) >= MIN_PASSES
        if enough and elapsed + elapsed / done > seconds:
            break

    passes = untraced + traced
    median = statistics.median
    # A job's median over the passes discards a pass that a burst of load
    # slowed; the time to complete the job list is the sum of those medians.
    per_job = [median(p.times[j] for p in untraced) for j in range(len(wl.jobs))]
    raw_per_job = [median(p.raw[j] for p in untraced) for j in range(len(wl.jobs))]
    if trace:
        WORK.mkdir(exist_ok=True)
        tracer.write_jsonl(WORK / f"trace-{name}-{seed}.jsonl")
        metrics = {m: (median(p.layers.get(span, 0.0) for p in traced), "s")
                   for m, span in spans.SPAN_METRICS.items()}
        metrics.update({m: (counts.get(m, 0), "count") for m in spans.COUNT_METRICS})
        metrics["trace.overhead_s"] = (median(sum(p.times) for p in traced)
                                       - median(sum(p.times) for p in untraced), "s")
    else:
        metrics = {
            "wall_s": (sum(per_job), "s"),
            "job_p50_s": (median(per_job), "s"),
            "setup_s": (median(s[2] for s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "jobs": len(wl.jobs), "passes": len(passes), "digest": digest(wl.jobs, untraced[0].reports),
        "failures": [f for p in passes for f in p.failures],
        "attempted": len(wl.jobs) * len(passes), "metrics": metrics,
        "raw": {"wall_s": sum(raw_per_job), "job_p50_s": median(raw_per_job),
                "setup_s": median(s[1] for s in setups),
                "pass_wall_s": median(p.wall for p in untraced)},
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric."""
    total_attempted = total_failed = 0
    combined = {}
    for name in workloads.BUILDERS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        total_attempted += res["attempted"]
        total_failed += res["failed"]
        print(lines[0])
        for metric, m in res["metrics"].items():
            print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}")
            combined[f"{name}/{metric}"] = (m["value"], m["unit"])
    print(result_line(total_failed == 0, total_attempted, total_failed, combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arrmono" / "__init__.py").is_file():
        print(f"error: no arrmono sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        with SpeedProbe() as probe:
            res = measure(args.workload, args.seed, args.seconds, bool(args.trace), probe)
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: {res['jobs']} jobs per pass, "
          f"{res['passes']} passes, {res['attempted']} jobs attempted, "
          f"{len(res['failures'])} failed")
    for line in res["failures"]:
        print(f"  failed {line}")
    print("uncalibrated: " + ", ".join(f"{k} {v:.4f} s" for k, v in res["raw"].items()))
    print(f"digest sha256:{res['digest']}")
    failed = len(res["failures"])
    print(result_line(failed == 0, res["attempted"], failed, res["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
