"""Self-tests of the benchmark itself (svlab's own tests live in tests/).

    python3 bench/selftest.py

* the same seed writes byte-identical configs and another seed different
  ones, for every workload;
* every workload and metric name matches [A-Za-z0-9_.-]+, and
  BENCHMARK.json lists exactly the workloads and metrics the benchmark
  reports;
* the hold-out seed differs from the development seed and generates other
  inputs;
* a traced and an untraced run of one workload give equal output digests,
  both pass their checks, and two traced runs give identical counts.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (pins BLAS threads and finds svlab)
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCRATCH = ROOT / ".bench_out" / "selftest"
TRACE_WORKLOAD = "discrete-resolvent"


def expect(cond: bool, msg: str):
    if not cond:
        raise AssertionError(msg)


def configs(workload: str, seed: int, where: Path) -> dict:
    workloads.generate(workload, seed, str(where))
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def test_configs_follow_the_seed():
    for w in workloads.WORKLOADS:
        a = configs(w, bench.DEV_SEED, SCRATCH / "a" / w)
        b = configs(w, bench.DEV_SEED, SCRATCH / "b" / w)
        c = configs(w, bench.DEV_SEED + 1, SCRATCH / "c" / w)
        expect(a == b, f"{w}: one seed wrote different configs")
        expect(a.keys() == c.keys() and a != c,
               f"{w}: another seed wrote the same configs")


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
        [w["name"] for w in spec["workloads"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    expect(not bad, f"bad names: {bad}")
    expect(len(set(names)) == len(names), "a name is used twice")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == bench.END_TO_END, "end_to_end differs from run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == tracing.LAYER_METRICS, "per_layer differs from tracing.py")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workloads differ from workloads.py")


def test_holdout_seed():
    expect(bench.HOLDOUT_SEED != bench.DEV_SEED,
           "hold-out seed equals the development seed")
    for w in workloads.WORKLOADS:
        dev = configs(w, bench.DEV_SEED, SCRATCH / "dev" / w)
        held = configs(w, bench.HOLDOUT_SEED, SCRATCH / "held" / w)
        expect(dev != held, f"{w}: hold-out seed gives the development inputs")


def _run(trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", TRACE_WORKLOAD,
         "--seed", str(bench.DEV_SEED), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    expect(proc.returncode == 0, f"run.py exited {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}")
    info, result = (json.loads(ln) for ln in proc.stdout.splitlines()[-2:])
    expect(result["correct"], f"trace={trace}: {info['failures']}")
    return info, result


def test_tracing_is_neutral_and_counts_repeat():
    plain, _ = _run(0)
    (info1, res1), (info2, res2) = _run(1), _run(1)
    for info in (info1, info2):
        expect(info["workload_digest"] == plain["workload_digest"],
               "traced and untraced runs wrote different outputs")
    c1, c2 = ({n: r["metrics"][n]["value"] for n in tracing.COUNT_METRICS}
              for r in (res1, res2))
    diff = {n: (c1[n], c2[n]) for n in c1 if c1[n] != c2[n]}
    expect(not diff, f"counts differ between traced runs: {diff}")
    expect(res1["attempted"] == res2["attempted"],
           "attempted operations differ between traced runs")


def main() -> int:
    failed = 0
    try:
        for name, fn in list(globals().items()):
            if name.startswith("test_") and callable(fn):
                try:
                    fn()
                    print(f"PASS {name}")
                except AssertionError as exc:
                    failed += 1
                    print(f"FAIL {name}: {exc}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
