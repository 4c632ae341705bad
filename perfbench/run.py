"""skewchain benchmark: one command, four workloads, checked results.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports ``skewchain`` from
``src/`` there and refuses to run without it.  One process, one thread, a
closed loop with one caller: each operation starts when the previous one
has returned.  The inputs are generated from the seed in a child process,
before anything is timed.  They come in parts, one per config document.
A run times the parts in turn, round-robin, until the next part would
take the run, input generation included, past ``--seconds`` (every part
runs at least once).  Every repetition of a part empties the program's
module-level memo and sets up from the JSON config documents again, so it
starts with cold caches, and decides the same inputs in the same order,
so each operation does the same work every time.  On a shared machine
the CPU's speed swings by up to 1.8x, in phases of a second to minutes,
so every repetition also times a fixed calibration ``kernel`` between
its operations, and its times are scaled to the speed at which the
kernel takes ``KERNEL_REF_S``.  Each operation's time is then its median
across its part's repetitions.  ``--trace 1`` instead makes one plain pass and one
traced pass (see ``tracer.py``) and reports the per-layer metrics.  The
last line of stdout is the result as one JSON object; the lines before it
repeat every metric by name with its unit, plus the run's environment.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per repetition of a part; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Seconds ``kernel`` takes at the reference speed: its fastest time on a
#: 2-CPU x86-64 machine with Python 3.11.  Timings are reported at this
#: speed (see ``Repetition.scales``).
KERNEL_REF_S = 6.2e-4
#: Kernel runs at the start and at the end of a repetition, and on each
#: side of an operation in its scale; and the operation time after which
#: the kernel runs again in between.  Runs on both sides weigh the speed
#: before and after a long operation alike.
KERNEL_ENDS = 5
KERNEL_EVERY_S = 0.05


def kernel():
    """Fixed work in the program's commonest idiom: tuple-keyed dicts.

    It calls nothing in ``skewchain``, so a change to the program cannot
    change its time; only the machine's speed can.  Of the kernels tried
    (this one, fraction sums, a sparse vector's ``add_term``), this one's
    time tracked the workloads' times most closely across the machine's
    speed phases.
    """
    for _ in range(3):
        d = {}
        for i in range(600):
            key = (i % 37, i % 11, (i * 7) % 5)
            d[key] = d.get(key, 0) + i
        swapped = {}
        for (a, b, c), v in d.items():
            swapped[(b, a, c)] = swapped.get((b, a, c), 0) ^ v
    return swapped


@dataclass
class Repetition:
    setups: list
    latencies: list
    failed: int
    records: list
    state: object
    #: Per operation, ``KERNEL_REF_S`` over the median time of the kernel
    #: runs around it: its time times its scale is its time at the
    #: reference speed.
    scales: list
    #: The same for the set-ups, from the kernel runs before them.
    setup_scale: float

    @property
    def wall(self) -> float:
        """Measured time from the end of set-up to the last verdict."""
        return sum(self.latencies)


def run_part(workload, part, expected=None,
             setup_repeats: int = SETUP_REPEATS, on_setup=None) -> Repetition:
    """Set up (several times, keeping the last), then decide every input.

    An operation fails when it raises, when its own check fails, or when
    ``expected`` (the pinned records) disagrees with its record.
    """
    from workloads import clear_module_memos

    gc.collect()
    clear_module_memos()
    kernels = []  # (end, seconds) of each kernel run

    def calibrate():
        t = time.perf_counter()
        kernel()
        end = time.perf_counter()
        kernels.append((end, end - t))

    for _ in range(KERNEL_ENDS):
        calibrate()
    setups = []
    for _ in range(setup_repeats):
        t = time.perf_counter()
        state = workload.setup(part)
        setups.append(time.perf_counter() - t)
    if on_setup is not None:
        on_setup(state)
    latencies = []
    spans = []
    records = []
    failed = 0
    since_kernel = 0.0
    for k, op in enumerate(workload.operations(state)):
        t = time.perf_counter()
        try:
            ok, record = op()
        except Exception:  # a failed operation is counted, never dropped
            traceback.print_exc(file=sys.stderr)
            ok, record = False, None
        end = time.perf_counter()
        latencies.append(end - t)
        spans.append((t, end))
        since_kernel += latencies[-1]
        if since_kernel >= KERNEL_EVERY_S:
            calibrate()
            since_kernel = 0.0
        records.append(record)
        if ok and expected is not None:
            ok = k < len(expected) and json.loads(
                json.dumps(record)) == expected[k]
        failed += not ok
    for _ in range(KERNEL_ENDS):
        calibrate()
    if expected is not None and len(records) != len(expected):
        failed += 1
    return Repetition(setups, latencies, failed, records, state,
                      nearby_scales(kernels, spans),
                      KERNEL_REF_S / statistics.median(
                          seconds for _end, seconds in kernels[:KERNEL_ENDS]))


def nearby_scales(kernels, spans) -> list:
    """Each span's scale, from the ``KERNEL_ENDS`` kernel runs that ended
    just before it began and as many that ended after it: the machine's
    speed where the span ran."""
    ends = [end for end, _seconds in kernels]
    scales = []
    for start, end in spans:
        i = bisect.bisect_right(ends, start)
        j = bisect.bisect_right(ends, end)
        near = kernels[max(0, i - KERNEL_ENDS):i] + kernels[j:j + KERNEL_ENDS]
        scales.append(KERNEL_REF_S / statistics.median(
            seconds for _end, seconds in near))
    return scales


def percentiles_ms(latencies) -> tuple:
    """(p50, p90) in milliseconds."""
    if len(latencies) == 1:
        return latencies[0] * 1e3, latencies[0] * 1e3
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return q[4] * 1e3, q[8] * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Python version, usable CPUs and the revision of the measured code."""
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            rev = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "skewchain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"python": platform.python_version(), "nproc": cpus,
            "git_rev": rev, "src_sha256": digest.hexdigest()}


def run_pass(workload, pins, on_setup=None, setup_repeats=SETUP_REPEATS):
    """One repetition of every part, in order."""
    return [run_part(workload, part, pins.get(label),
                     setup_repeats=setup_repeats, on_setup=on_setup)
            for label, part in workload.parts]


def measure(workload, pins, seconds: float) -> tuple:
    """Repetitions of the parts, in turn, while they fit; the metrics.

    The first round is one pass.  Then the parts repeat round-robin until
    the next one, at its longest time so far, would overrun ``seconds``;
    so a part may get one repetition more than a part after it, and the
    run's last seconds are not left idle when a whole pass no longer fits.
    Every time is first scaled to the reference speed.  Each operation's
    time is then its median across its part's repetitions: ``wall_s`` is
    the sum of those medians, and the percentiles are taken over them.
    ``setup_s`` sums the parts' median set-up times.
    """
    labels = [label for label, _part in workload.parts]
    by_part = [[] for _ in labels]
    longest = [0.0] * len(labels)
    start = time.perf_counter()
    for k in itertools.count():
        i = k % len(labels)
        t = time.perf_counter()
        if k >= len(labels) and t - start + longest[i] > seconds:
            break
        label, part = workload.parts[i]
        r = run_part(workload, part, pins.get(label))
        r.state = None
        by_part[i].append(r)
        longest[i] = max(longest[i], time.perf_counter() - t)
    per_op = [statistics.median(times)
              for reps in by_part
              for times in zip(*([t * s for t, s in zip(r.latencies, r.scales)]
                                 for r in reps))]
    p50, p90 = percentiles_ms(per_op)
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "setup_s": (sum(statistics.median(t * r.setup_scale for r in reps
                                          for t in r.setups)
                        for reps in by_part), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {"repetitions": dict(zip(labels, map(len, by_part))),
             "ops_in_percentiles": len(per_op),
             "part_walls_s": {label: [round(r.wall, 3) for r in reps]
                              for label, reps in zip(labels, by_part)},
             "median_scale": round(statistics.median(
                 s for reps in by_part for r in reps for s in r.scales), 3)}
    # Chronological, so the first len(labels) are the first pass.
    rounds = max(map(len, by_part))
    return ([reps[n] for n in range(rounds) for reps in by_part
             if n < len(reps)], metrics, notes)


def trace(workload, pins, label: str) -> tuple:
    """One plain pass, then one traced pass; the per-layer metrics."""
    from tracer import Tracer, cache_sizes

    plain = run_pass(workload, pins)
    for r in plain:
        r.state = None
    tracer = Tracer()
    before = dict.fromkeys(cache_sizes([]), 0)

    def on_setup(state):
        for name, size in cache_sizes(workload.algebras(state)).items():
            before[name] += size

    tracer.install()
    try:
        traced = run_pass(workload, pins, on_setup, setup_repeats=1)
    finally:
        tracer.uninstall()
    after = dict.fromkeys(before, 0)
    for r in traced:
        for name, size in cache_sizes(workload.algebras(r.state)).items():
            after[name] += size
        r.state = None
    traced_wall = sum(r.wall for r in traced)
    metrics = tracer.layer_metrics(before, after,
                                   traced_wall / sum(r.wall for r in plain))
    spans_path = OUT / f"trace-{label}.spans"
    tracer.write_spans(spans_path)
    shares = sorted(tracer.span_totals().items(), key=lambda kv: -kv[1][2])
    notes = {
        "spans": len(tracer.span_start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_share": {name: round(own / traced_wall, 4)
                       for name, (_calls, _total, own) in shares},
    }
    return plain + traced, metrics, notes


def _generate_into(conn, workload_cls, seed):
    try:
        conn.send((True, workload_cls.generate(seed)))
    except BaseException:  # the parent reports it and fails the run
        conn.send((False, traceback.format_exc()))
    finally:
        conn.close()


def generate(workload_cls, seed: int) -> list:
    """``workload_cls.generate(seed)``, run in a child process.

    Generation builds algebras and, for ``pbw-oracle``, decides every
    reference verdict; in a child, that memory stays out of this process's
    ``peak_rss_mb``.  The child is forked, so it sees the classes as this
    process has them.  Without ``fork`` it runs here.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return workload_cls.generate(seed)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_generate_into, args=(send, workload_cls, seed))
    child.start()
    send.close()
    try:
        ok, payload = recv.recv()
    finally:
        recv.close()
        child.join()
    if not ok:
        raise RuntimeError(f"input generation failed:\n{payload}")
    return payload


def load_pins(name: str, seed: int) -> dict:
    """The records pinned for this workload and seed, per part label."""
    pinned = json.loads((HERE / "pins.json").read_text()).get(name, {})
    return pinned.get("every_seed", pinned.get(f"seed{seed}", {}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "skewchain" / "__init__.py").is_file():
        print(f"perfbench: no skewchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    pins = load_pins(args.workload, args.seed)
    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(generate(workload_cls, args.seed))

    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}"
    if args.trace:
        reps, metrics, notes = trace(workload, pins, label)
    else:
        # Input generation counts against --seconds, so that a whole run
        # takes about --seconds.
        reps, metrics, notes = measure(
            workload, pins, args.seconds - (time.perf_counter() - started))
    notes["pinned"] = bool(pins)
    records_path = OUT / f"records-{label}.json"
    records_path.write_text(json.dumps(
        {part: r.records for (part, _), r in zip(workload.parts, reps)},
        sort_keys=True) + "\n")
    attempted = sum(len(r.latencies) for r in reps)
    failed = sum(r.failed for r in reps)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("notes " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    print(f"records {records_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
