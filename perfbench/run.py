"""End-to-end benchmark of the PRIMACY data paths, with a per-layer split.

Run it from the root of a checkout; it imports the library from ``src/``::

    python3 perfbench/run.py --workload ingest-auto --seed 1 --seconds 30 --trace 0

Workloads: ``ingest-auto`` and ``serve`` (see
``perfbench/README.md``).  A run sets up several times and reports the
median set-up time, then measures for ``--seconds``.  With ``--trace 0``
the last line of standard output is a JSON object whose metrics are the
end-to-end metrics; with ``--trace 1`` the run measures an untraced and
then a traced pass over the same inputs, prints the two passes'
end-to-end values side by side, and its JSON metrics are the per-layer
metrics of the traced pass.  The lines before the JSON line are for
people; the full result (environment, sample counts, errors, both
passes) is also written to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("ingest-auto", "serve")
#: Set-ups per run; the median is reported as ``setup_s``.  The first
#: set-up of a process is slower (first-use costs), so the median needs
#: several more to sit among the steady ones.
SETUP_REPEATS = 7
#: ``prctl`` option that makes a process the parent of its orphaned
#: descendants (Linux).
PR_SET_CHILD_SUBREAPER = 36
#: How long the end of a run waits for its child processes to exit.
REAP_SECONDS = 30.0

#: End-to-end metric -> unit.  ``success_rate`` is 1 - error rate.
END_TO_END = {
    "setup_s": "s",
    "write_mbps": "MB/s",
    "read_mbps": "MB/s",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "compression_ratio": "ratio",
    "success_rate": "frac",
    "peak_rss_mb": "MiB",
}

# The per-layer metrics are ``workloads.PER_LAYER``: their names come
# from the library's planner candidates, so they are known only once the
# library is on the path.


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory for result and span files and scratch archives",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0 when there are no samples."""
    import numpy

    return float(numpy.percentile(samples, q)) if samples else 0.0


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    descendant (an engine worker or the daemon), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def adopt_orphans() -> None:
    """Become the parent of this process's orphaned descendants.

    The serve daemon's multiprocessing resource tracker outlives the
    daemon by a moment; adopted, it can be waited for by
    :func:`reap_children` instead of being left to the host's init.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # not Linux: nothing is adopted
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_children() -> list[str]:
    """Wait until every child process has exited; returns problems.

    The engine starts multiprocessing's resource tracker in this process,
    and the tracker otherwise outlives the run, so it is stopped first
    (``_stop`` closes its pipe and waits for it).  Then every remaining
    child, adopted orphans included, is waited for.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + REAP_SECONDS
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return []
        if pid == 0:
            if time.monotonic() > deadline:
                return [f"child processes still running {REAP_SECONDS:.0f} s after teardown"]
            time.sleep(0.01)


def end_to_end(p, setup_s: float, rss: float) -> dict[str, float]:
    """The end-to-end metrics of one pass."""
    return {
        "setup_s": setup_s,
        "write_mbps": p.write_bytes / 1e6 / p.write_time if p.write_time else 0.0,
        "read_mbps": p.read_bytes / 1e6 / p.read_time if p.read_time else 0.0,
        "write_p50_ms": percentile(p.write_lat, 50) * 1e3,
        "write_p90_ms": percentile(p.write_lat, 90) * 1e3,
        "read_p50_ms": percentile(p.read_lat, 50) * 1e3,
        "read_p90_ms": percentile(p.read_lat, 90) * 1e3,
        "compression_ratio": p.input_bytes / p.stored_bytes if p.stored_bytes else 0.0,
        "success_rate": (p.attempted - p.failed) / p.attempted if p.attempted else 0.0,
        "peak_rss_mb": rss,
    }


def environment(name: str, workload, seed: int, seconds: float, trace: int) -> dict:
    """What the result depends on besides the code."""
    import numpy

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "setup_repeats": SETUP_REPEATS,
        **workload.env,
    }


def measure(name: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    """Set up, measure and tear down one workload; returns the result."""
    import workloads
    from repro import obs

    adopt_orphans()
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"scratch-{name}-", dir=out))
    workload = workloads.make(name, seed, scratch)
    problems: list[str] = []
    setup_times: list[float] = []
    passes = {}
    pids: list[int] = []
    try:
        for rep in range(SETUP_REPEATS):
            if rep:
                problems += workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            pids += workload.pids()
        passes["untraced"] = workload.measure(seconds, traced=False)
        if trace:
            obs.reset()
            obs.enable()
            try:
                passes["traced"] = workload.measure(seconds, traced=True)
            finally:
                obs.disable()
                obs.reset()
    finally:
        try:
            problems += workload.teardown()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            problems += reap_children()
    pids = sorted(set(pids + workload.pids()))
    setup_s = statistics.median(setup_times)
    rss = peak_rss_mib()
    for p in passes.values():
        problems += p.problems
    return {
        "env": environment(name, workload, seed, seconds, trace),
        "setup_times_s": setup_times,
        "end_to_end": {
            label: end_to_end(p, setup_s, rss) for label, p in passes.items()
        },
        "layers": passes["traced"].layers if trace else {},
        "samples": {
            label: {"write": len(p.write_lat), "read": len(p.read_lat)}
            for label, p in passes.items()
        },
        "attempted": sum(p.attempted for p in passes.values()),
        "failed": sum(p.failed for p in passes.values()),
        "errors": {
            label: dict(p.errors) for label, p in passes.items() if p.errors
        },
        "problems": problems,
        "pids": pids,
        "_spans": {label: p.spans for label, p in passes.items()},
    }


def report(result: dict, trace: int, out: Path) -> dict:
    """Print the human-readable lines; returns the final JSON object."""
    from workloads import PER_LAYER

    env = result["env"]
    tag = f"{env['workload']}-seed{env['seed']}-trace{trace}"
    spans = result.pop("_spans")
    print(f"perfbench {env['workload']} seed={env['seed']} seconds={env['seconds']} trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(result["samples"], sort_keys=True))
    untraced = result["end_to_end"]["untraced"]
    if trace:
        traced = result["end_to_end"]["traced"]
        print(f"{'end-to-end':<20} {'untraced':>12} {'traced':>12}  unit")
        for name, unit in END_TO_END.items():
            print(f"{name:<20} {untraced[name]:>12.4f} {traced[name]:>12.4f}  {unit}")
        print("(setup_s and peak_rss_mb are per run; the set-ups run untraced)")
        print(f"{'per-layer (traced)':<32} {'value':>14}  {'unit':<9} should move")
        for name, (unit, moves) in PER_LAYER.items():
            value = result["layers"].get(name, 0.0)
            print(f"{name:<32} {value:>14.6g}  {unit:<9} {moves}")
        with open(out / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
            for label, recorded in spans.items():
                recorded.write(fh, label)
    else:
        for name, unit in END_TO_END.items():
            print(f"{name:<20} {untraced[name]:>12.4f}  {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate {failed / attempted if attempted else 0.0:.6f} ({failed} of {attempted} operations failed)")
    if result["errors"]:
        print("errors " + json.dumps(result["errors"], sort_keys=True))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print("pids " + json.dumps(result["pids"]))
    with open(out / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if trace:
        values = {name: result["layers"].get(name, 0.0) for name in PER_LAYER}
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values = untraced
        units = END_TO_END
    return {
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: {SRC / 'repro'} not found; run the benchmark from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # The program sees only generated inputs, and the untraced pass runs
    # with observability off whatever the caller's environment says.
    for var in ("REPRO_DATA_DIR", "REPRO_OBS", "REPRO_OBS_TRACE"):
        os.environ.pop(var, None)
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    out = args.out.resolve()
    result = measure(args.workload, args.seed, args.seconds, args.trace, out)
    line = report(result, args.trace, out)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
