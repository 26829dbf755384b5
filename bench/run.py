"""svlab benchmark: one workload, one process, one client in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; svlab is imported from `src/`.
The seed generates the workload's operation list (see workloads.py). The
measured phase lasts S seconds from the end of set-up. A warm-up pass runs
every operation once and checks its outputs. Timed rounds then go through
the list in order until the phase's end; the first round always completes.
An operation whose warm-up run took more than LONG_SHARE of S is left out
of the rounds, so one long operation does not crowd out the repetitions of
the others; the traced run repeats it like every operation, and its time is
the raw CPU seconds of its one run (below). A round runs a short operation
several times back to back (see Runner.burst). Each operation runs
`svlab.cli.main` at `--threads 1` or one public library function.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones:

* wall_s       seconds to run the whole list once: the sum over
               operations of each operation's time;
* op_p50_s     median over operations of each operation's time;
* op_tail_s    operation time at the highest percentile with at least 10
               operations beyond it (percentile and sample count are
               printed on the line before);
* setup_s      median over several fresh interpreters of their CPU
               seconds to start, `import svlab`, generate and write the
               seed's configs and exit: what comes before the first
               operation (against the yardstick, like operation times);
* peak_rss_mb  peak resident memory of this process;
* ok_frac      1 - failed/attempted operations.

Every time is CPU seconds of this process, measured against a yardstick:
fixed work of the benchmark's own, timed just before every visit to an
operation (see yardstick()). Each untraced run's CPU seconds, the warm-up
run's included, are divided by the yardstick's CPU seconds then
(Runner.seconds), an operation's time is the median of these ratios, and
it is reported as seconds at the speed where the yardstick takes
YARDSTICK_S. The operations run on one thread, so on an idle machine their
CPU time is their latency. On a shared host the hypervisor takes the CPU
away from time to time, which wall time counts and CPU time does not, and
the speed of the whole machine changes by 1.5-2x for minutes at a time,
which the yardstick shares and the ratio removes. The yardstick never
changes between two commits. A long operation that runs once is not
scaled: it runs for seconds, and a yardstick of a few milliseconds before
it says little about the machine during it. The raw CPU seconds are kept
in the result file.

An operation fails when it raises or exits non-zero, an output does not
parse, a verdict is outside the vocabulary or ruled out by a closed form, a
dual route checked beside it breaks, or its output digest differs from the
warm-up pass (in the traced run for an operation that is not repeated
otherwise). `attempted` on the result line is the number of distinct
operations run and `failed` the number of them that failed at least once,
however often they were repeated.

With `--trace 1` the run adds one traced pass and the threads probe after
the timed rounds and reports the per-layer metrics of tracing.py; the
traced pass's output digests must equal the untraced ones, and
trace.overhead_s is its CPU time minus the sum of the operations' median
untraced raw CPU times.

Seeds: claims are developed on DEV_SEED and confirmed on HOLDOUT_SEED,
which is kept back while a change is written.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so both sides of a comparison
# run with the same setting whatever the caller's environment says.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DEV_SEED = 1
HOLDOUT_SEED = 20240710
SETUP_REPEATS = 3
# an operation whose warm-up takes more than this share of --seconds is not
# repeated (the criterion 05 lattice check, 6-10 s at --seconds 30)
LONG_SHARE = 1 / 6
PROBE_REPEATS = 3
BURST_S, BURST_MAX = 0.05, 8
# quiet-machine seconds of one yardstick() on a 2-core Intel Xeon (Sapphire
# Rapids) VM, Python 3.11.7, numpy 2.4.6; it only sets the scale
YARDSTICK_S = 0.005
YARD_SPAN = 2
_YARD_W = np.linspace(0.5, 1.5, 48).reshape(16, 3)
_YARD_X = np.linspace(0.0, 1.0, 200_000)
_YARD_BUF = np.empty((2, _YARD_X.size))
TAIL_BEYOND = 10
END_TO_END = [("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: import svlab, write the configs into DIR and exit
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas": blas, "blas_threads": BLAS_THREADS,
            "threads": 1}


def yardstick() -> float:
    """Seconds of fixed work that mixes what svlab's operations do: a Python
    loop of small numpy operations, like a per-step quadrature over a short
    history, then one pass over a large array, into buffers allocated once
    so that page faults do not enter. Returns CPU seconds."""
    t0 = time.process_time()
    x = np.zeros((400, 3))
    for k in range(1, 400):
        lo = max(0, k - 16)
        c = np.einsum("kb,kb->b", _YARD_W[:k - lo], x[lo:k])
        x[k] = x[k - 1] * 0.99 + c * 0.01 + math.sin(k * 0.1)
    a, b = _YARD_BUF
    np.multiply(_YARD_X, -1.0, out=a)
    np.exp(a, out=a)
    np.multiply(_YARD_X, 7.0, out=b)
    np.sin(b, out=b)
    float(np.dot(a, b))
    return time.process_time() - t0


def digest_dir(path: str):
    """sha256 over the directory's files (name, size, bytes in name order),
    total bytes, and CSV data rows."""
    h = hashlib.sha256()
    nbytes = nrows = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
        nbytes += len(data)
        if name.endswith(".csv"):
            nrows += data.count(b"\n") - 1
    return h.hexdigest(), nbytes, nrows


class Runner:
    """Runs operations, keeps their warm-up digests and their untraced runs'
    seconds beside the yardstick timed before each visit, and records the
    first failure of each operation."""

    def __init__(self, ops, out_root: Path):
        self.ops = ops
        self.out_root = out_root
        self.ref = {}
        self.warm = {}         # op name -> seconds of its warm-up run
        self.yards = []        # yardstick seconds, one per visit, in order
        self.samples = {}      # op name -> [(seconds, index into yards)]
        self.attempted = set()
        self.failures = {}     # op name -> (round, message), first failure

    def out_dir(self, name: str) -> str:
        return str(self.out_root / name)

    def execute(self, op, label: str, threads: int = 1, tracer=None):
        """Run one operation; returns (wall seconds, CPU seconds of this
        process, digest or None)."""
        from svlab import cli
        out = self.out_dir(op.name)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        self.attempted.add(op.name)
        err = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            op.run(out, threads)
        except Exception as exc:  # a failing operation is counted; the run goes on
            err = f"{type(exc).__name__}: {exc}"
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        digest = None
        if err is None:
            digest, nbytes, nrows = digest_dir(out)
            if tracer is not None and op.kind in cli.SCHEMAS:
                tracer.counts["cli.output_bytes"] += nbytes
                tracer.counts["cli.output_rows"] += nrows
            if label != "warm-up" and digest != self.ref.get(op.name):
                err = "output digest differs from the warm-up pass"
        if err:
            self.failures.setdefault(op.name, (label, err))
        return dt, cpu, digest

    def warm_up(self):
        """Run the list once, then check every operation's outputs (checks
        of dual routes read the outputs of sibling operations)."""
        yardstick()
        for op in self.ops:
            self.yards.append(yardstick())
            self.warm[op.name], cpu, self.ref[op.name] = self.execute(
                op, "warm-up")
            self.samples[op.name] = [(cpu, len(self.yards) - 1)]
        for op in self.ops:
            if self.ref[op.name] is None:
                continue
            msgs = op.check(lambda name, own=op.name: self.out_dir(name or own))
            if msgs:
                self.failures.setdefault(op.name, ("warm-up", "; ".join(msgs)))

    def burst(self, op) -> int:
        """Back-to-back runs per visit, as many as the warm-up time fits
        into BURST_S (at most BURST_MAX): an operation under 25 ms gets two
        or more timed runs per round."""
        return max(1, min(BURST_MAX, int(BURST_S / self.warm[op.name])))

    def timed_round(self, label: str, ops, deadline=math.inf,
                    tracer=None) -> float:
        """Run `ops` in order until the deadline, each `burst` times in a
        row after one yardstick (once, untimed by it and unrecorded, when
        traced); returns the CPU seconds spent in operations."""
        spent = 0.0
        for i, op in enumerate(ops):
            if time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op = i
                tracer.open("op")
            try:
                if tracer is None:
                    self.yards.append(yardstick())
                for _ in range(1 if tracer is not None else self.burst(op)):
                    _, cpu, _ = self.execute(op, label, tracer=tracer)
                    if tracer is None:
                        self.samples[op.name].append((cpu, len(self.yards) - 1))
                    spent += cpu
            finally:
                if tracer is not None:
                    tracer.close()
        return spent

    def seconds(self, name: str) -> float:
        """The operation's time: the median over its untraced runs of their
        seconds over the machine's yardstick time then, scaled to
        YARDSTICK_S. The yardstick time for a visit is the median of the
        yardsticks of the visits YARD_SPAN before and after it, so one
        disturbed yardstick does not skew a run."""
        def yard(i):
            return statistics.median(
                self.yards[max(0, i - YARD_SPAN):i + YARD_SPAN + 1])
        return YARDSTICK_S * statistics.median(
            dt / yard(i) for dt, i in self.samples[name])

    def raw_seconds(self, name: str) -> float:
        return statistics.median(dt for dt, _ in self.samples[name])


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(args, work: Path):
    """CPU seconds of a fresh interpreter that starts, imports svlab, writes
    the seed's configs (all that comes before the first operation) and
    exits, over several interpreters. Returns their median over the median
    of the yardsticks timed before each spawn, scaled like operation times,
    and the raw seconds."""
    times, yards = [], []
    for k in range(SETUP_REPEATS):
        target = work / f"setup-{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only", str(target)]
        yards.append(yardstick())
        c0 = children_cpu()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        times.append(children_cpu() - c0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr[-500:]}")
        shutil.rmtree(target, ignore_errors=True)
    return (YARDSTICK_S * statistics.median(times) / statistics.median(yards),
            times)


def tail(values: list):
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    values beyond it."""
    srt = sorted(values)
    k = len(srt) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} operations")
    return srt[k], 100.0 * (k + 1) / len(srt)


def threads_probe(runner: Runner, config_dir: str) -> float:
    """Wall time of one fixed generic-kernel ensemble at --threads 2 over
    --threads 1; runs alternate, each side takes its median, and every run
    must reproduce the warm-up run's bytes."""
    import workloads
    probe = workloads.threads_probe_op(config_dir)
    _, _, runner.ref[probe.name] = runner.execute(probe, "warm-up")
    times = {1: [], 2: []}
    for _ in range(PROBE_REPEATS):
        for threads in (1, 2):
            dt, _, _ = runner.execute(probe, f"probe-threads-{threads}",
                                      threads)
            times[threads].append(dt)
    return statistics.median(times[2]) / statistics.median(times[1])


def run(args, work: Path) -> dict:
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    setup_s, setup_raw = (None, None) if args.trace else measure_setup(args, work)
    config_dir = str(work / "configs")
    ops = workloads.generate(args.workload, args.seed, config_dir)
    runner = Runner(ops, work / "out")
    end = time.perf_counter() + args.seconds
    runner.warm_up()

    short_ops = [op for op in ops
                 if runner.warm[op.name] <= LONG_SHARE * args.seconds]
    runner.timed_round("round-1", short_ops)
    rounds = 1
    while time.perf_counter() < end and runner.timed_round(
            f"round-{rounds + 1}", short_ops, end):
        rounds += 1
    per_op = [runner.seconds(op.name) if op in short_ops
              else runner.raw_seconds(op.name) for op in ops]
    raw_cpu = sum(runner.raw_seconds(op.name) for op in ops)
    wall_s = sum(per_op)
    tail_s, tail_pct = tail(per_op)

    info = {"workload": args.workload, "seed": args.seed,
            "environment": environment(), "rounds": rounds,
            "op_samples": len(per_op),
            "runs": sum(len(v) for v in runner.samples.values()),
            "op_tail_percentile": tail_pct,
            "workload_digest": hashlib.sha256(
                "".join(runner.ref[op.name] or "-" for op in ops).encode()
            ).hexdigest(),
            "op_digests": {op.name: runner.ref[op.name] for op in ops},
            "setup_raw_s": setup_raw,
            "raw_cpu_s": raw_cpu,
            "op_runs": runner.samples,
            "yardstick_s": runner.yards}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_cpu = runner.timed_round("traced", ops, tracer=tracer)
        finally:
            tracer.uninstall()
        ratio = threads_probe(runner, config_dir)
        metrics = tracer.metrics(ratio, traced_cpu - raw_cpu)
        info["traced_cpu_s"] = traced_cpu
        info["spans"] = len(tracer.spans)
        tracer.dump(str(work.parent / f"trace-{args.workload}.json"))
    else:
        values = {"wall_s": wall_s, "op_p50_s": statistics.median(per_op),
                  "op_tail_s": tail_s, "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "ok_frac": 1.0 - len(runner.failures)
                  / len(runner.attempted)}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    failed, attempted = len(runner.failures), len(runner.attempted)
    info["failed_frac"] = failed / attempted
    info["failures"] = [[label, name, msg] for name, (label, msg)
                        in runner.failures.items()]
    return {"info": info, "result": {
        "correct": not failed, "attempted": attempted,
        "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    try:
        import svlab
    except ImportError as exc:
        print(f"cannot import svlab from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(svlab.__file__).resolve().parent.parent != src:
        print(f"svlab was imported from {svlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads
    if args.setup_only:
        workloads.generate(args.workload, args.seed,
                           os.path.join(args.setup_only, "configs"))
        return 0
    out_root = ROOT / ".bench_out"
    work = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        out = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(out_root / f"result-{args.workload}-trace{args.trace}.json",
              "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for label, name, msg in out["info"]["failures"]:
        print(f"FAILED {label} {name}: {msg}", file=sys.stderr)
    info = {k: v for k, v in out["info"].items()
            if k not in ("op_digests", "op_runs", "yardstick_s")}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
