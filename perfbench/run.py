#!/usr/bin/env python3
"""The repository's pinned benchmark: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload batch-j1 [--seed 42] [--seconds 12]
                             [--trace 0|1]

Workloads: ``batch-j1``, ``batch-j2``, ``service-stream``,
``corpus-durable`` (see ``perfbench/README.md`` for why each exists).

The run generates its corpus from ``--seed``, sets up several times and
keeps the median set-up time, drives the program for ``--seconds``
through its public surfaces, and checks every output byte-for-byte
against a reference computed outside the timed window.  Timings are
reported at a fixed reference host speed, measured by a probe between
operations (see ``hostspeed.py``), so the shared host's drift cancels
out of them.  It prints one
human-readable line per metric (name, value, unit, sample count), an
environment record, and as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
window twice, first untraced and then with the span tracer installed,
and reports the per-layer metrics plus ``trace.overhead_ratio``.  The
exit status is 1 when any output mismatches the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import REF_WALL_S, HostSpeed  # noqa: E402
from workloads import (  # noqa: E402
    ROOT, SCALE, SRC, WORKLOADS, References, adopt_orphans, check_outputs,
    generate_corpus, make_workload, stop_descendants,
)

#: The seed every published number uses unless it says otherwise.
DEFAULT_SEED = 42
#: Kept out of tuning: a later speed claim must also hold on this seed.
HELD_OUT_SEED = 1729
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Host-speed probes before each set-up and after the last.
SETUP_PROBES = 3

WORK_ROOT = ROOT / ".perfbench-work"


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile (the ``inclusive`` method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(workload, seconds: float, tracer=None):
    """Run one window and normalize it to the reference host speed;
    return it with its CPU seconds (reference) and peak RSS (KB)."""
    daemon = workload.daemon
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    daemon_before = daemon.cpu_seconds() if daemon else 0.0
    window = workload.window(seconds, tracer)
    daemon_after = daemon.cpu_seconds() if daemon else 0.0
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (
        (self_after.ru_utime - self_before.ru_utime)
        + (self_after.ru_stime - self_before.ru_stime)
        + (children_after.ru_utime - children_before.ru_utime)
        + (children_after.ru_stime - children_before.ru_stime)
        + (daemon_after - daemon_before)
        - window.probe_cpu
    )
    share = 1.0
    if workload.concurrency:
        share = min(1.0, cpu / (window.elapsed * workload.concurrency))
    window.normalize(share)
    # Peak memory: this process, plus each pool worker slot (bounded by
    # the largest reaped worker), plus each live daemon process.
    peak_kb = self_after.ru_maxrss
    peak_kb += workload.pool_jobs * children_after.ru_maxrss
    if daemon:
        peak_kb += daemon.peak_rss_kb()
    return window, cpu * window.cpu_factor, peak_kb


def setup_once(workload_name, seed, directory, trace_dir=None):
    """Generate, write and (for the service) start and freeze; timed."""
    started = perf_counter()
    workload = make_workload(workload_name, seed, generate_corpus(seed))
    try:
        workload.setup(directory, trace_dir)
    except BaseException:
        workload.teardown()
        raise
    return workload, perf_counter() - started


def end_to_end_metrics(window, cpu, peak_kb, setup_times):
    latencies_ms = [value * 1000.0 for value in window.ref_latencies]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "lines_per_s": (window.lines / window.ref_elapsed, "lines/s", 1),
        "cpu_ms_per_kline": (cpu * 1000.0 / (window.lines / 1000.0),
                             "ms/kline", 1),
        "latency_p50_ms": (_quantile(latencies_ms, 0.5), "ms",
                           len(latencies_ms)),
        "latency_p90_ms": (_quantile(latencies_ms, 0.9), "ms",
                           len(latencies_ms)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }


def environment(args, networks, work_dir):
    from repro.plugins.registry import resolve_active_plugins

    files = sum(len(network.configs) for network in networks)
    lines = sum(network.lines for network in networks)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "scale": SCALE,
        "corpus_networks": len(networks),
        "corpus_files": files,
        "corpus_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "active_plugins": [p.family for p in resolve_active_plugins(None)],
        "filesystem": filesystem_type(work_dir),
        "service_transport": "none (in-process CLI)"
        if args.workload.startswith("batch") else "loopback TCP 127.0.0.1",
    }


def filesystem_type(path: Path) -> str:
    """Type of the mount holding *path*, from ``/proc/mounts``."""
    path = str(path.resolve())
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and (path == parts[1] or path.startswith(
                parts[1].rstrip("/") + "/")) and len(parts[1]) >= len(best):
            best, kind = parts[1], parts[2]
    return kind


def run(args) -> int:
    from layers import per_layer_metrics
    from tracer import Tracer, load_traces

    work_dir = WORK_ROOT / "run-{}".format(os.getpid())
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    workload = None
    try:
        # Every set-up generates afresh; the window runs on the last one.
        # A set-up is a few seconds of mixed work, too long for the probes
        # at its two ends to stand for it, so the run's set-ups share one
        # factor: the median of probes taken before, between and after.
        setup_times = []
        speed = HostSpeed()
        for rep in range(SETUP_REPS):
            if workload is not None:
                workload.teardown()
            for _ in range(SETUP_PROBES):
                speed.probe()
            workload, took = setup_once(
                args.workload, args.seed, work_dir / "setup-{}".format(rep))
            setup_times.append(took)
        for _ in range(SETUP_PROBES):
            speed.probe()
        factor = REF_WALL_S / statistics.median(speed.walls)
        setup_times = [took * factor for took in setup_times]
        networks = workload.networks
        window, cpu, peak_kb = measure(workload, args.seconds)
        workload.teardown()
        windows = [(workload, window)]

        traced = None
        if args.trace:
            trace_dir = work_dir / "trace"
            trace_dir.mkdir()
            tracer = Tracer(flush_dir=trace_dir)
            tracer.install()
            try:
                workload, _ = setup_once(
                    args.workload, args.seed, work_dir / "traced",
                    trace_dir=trace_dir)
                before = workload.daemon.metrics_text() if workload.daemon \
                    else ""
                traced_window, _, _ = measure(workload, args.seconds, tracer)
                after = workload.daemon.metrics_text() if workload.daemon \
                    else ""
                workload.teardown()
            finally:
                tracer.uninstall()
            windows.append((workload, traced_window))
            documents = [tracer.snapshot()] + load_traces(trace_dir)
            traced = (documents, traced_window, before, after)

        # -- correctness gate (outside every timed window) ---------------
        references = References(args.seed)
        references.prefetch([(network, owner.two_pass)
                             for owner, checked in windows
                             for network, _, _ in checked.outputs])
        problems = []
        for owner, checked in windows:
            problems.extend(check_outputs(checked, references,
                                          owner.two_pass))
        correct = not problems
        for problem in problems[:20]:
            print("MISMATCH " + problem, file=sys.stderr)
        if len(problems) > 20:
            print("MISMATCH ... {} more".format(len(problems) - 20),
                  file=sys.stderr)

        env = environment(args, networks, work_dir)
        env["window"] = {"operations": window.attempted,
                         "lines": window.lines,
                         "seconds": window.elapsed,
                         "ref_seconds": window.ref_elapsed,
                         "cpu_share": window.cpu_share}
        print("perfbench-env " + json.dumps(env, sort_keys=True))

        e2e = end_to_end_metrics(window, cpu, peak_kb, setup_times)
        error_rate = window.failed / window.attempted if window.attempted \
            else 0.0
        for name, (value, unit, samples) in e2e.items():
            print("{:<22} {:>14.4f} {:<9} n={}".format(name, value, unit,
                                                      samples))
        print("{:<22} {:>14.4f} {:<9} n={}".format(
            "error_rate", error_rate, "ratio", window.attempted))

        if traced is not None:
            documents, traced_window, before, after = traced
            layers = per_layer_metrics(
                documents, traced_window, window, before, after)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
            for name, (value, unit) in layers.items():
                print("{:<34} {:>14.4f} {}".format(name, value, unit))
            path = WORK_ROOT / "trace-{}-seed{}.json".format(
                args.workload, args.seed)
            path.write_text(json.dumps(documents))
            print("trace written to {}".format(os.path.relpath(path, ROOT)))
            attempted = window.attempted + traced_window.attempted
            failed = window.failed + traced_window.failed
        else:
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit, _) in e2e.items()}
            attempted, failed = window.attempted, window.failed
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0 if correct else 1
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: program sources not found under {}".format(SRC),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    adopt_orphans()
    try:
        return run(args)
    finally:
        # No process of this run outlives it, on any way out.
        stop_descendants()


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the daemon is still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main())
