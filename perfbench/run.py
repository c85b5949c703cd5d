"""qdesign benchmark: one workload (or all four) for a fixed number of seconds.

    python3 perfbench/run.py --workload trace-q32 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qdesign is imported from ./src.
Prints the machine record and each metric with its unit, then, as the last
line, {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
See README.md beside this file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import qdesign
from qdesign.fields import field_make, quadratic_extension
fields, extensions = json.loads(sys.argv[2])
for q in fields:
    field_make(q)
for q in extensions:
    quadratic_extension(q)
"""


def load_program():
    """Import qdesign from this checkout's src/; exit 2 when it is absent."""
    if not (SRC / "qdesign" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qdesign sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import qdesign
    if Path(qdesign.__file__).resolve().parent != SRC / "qdesign":
        sys.stderr.write(f"error: imported qdesign from {qdesign.__file__}, not {SRC}\n")
        sys.exit(2)


def machine() -> dict:
    import numpy
    rec = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": numpy.__version__, "cpu": platform.processor() or "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() != "Instruction":
                rec[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return rec


def fresh_fields():
    """Drop cached field tables, so each pass pays for them like a new process."""
    from qdesign import fields
    for fn in (fields.field_make, fields.quadratic_extension, fields.pinned_modulus):
        fn.cache_clear()


def setup_seconds(wl_cls) -> float:
    """Median wall time of a fresh interpreter importing qdesign and building
    the workload's field tables."""
    spec = json.dumps([wl_cls.setup_fields, wl_cls.setup_extensions])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), spec], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def one_pass(wl, checks, tracer=None):
    """Run one pass; returns (wall, cpu, extra, layer metrics or None)."""
    from spans import layer_metrics, root_leftover
    fresh_fields()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    extra, layers = {}, None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        extra = wl.run_pass(checks)
    except Exception as exc:  # a failing pass is counted, and the run goes on
        checks.error("pass", exc)
        traceback.print_exc(file=sys.stderr)
    t1, c1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans, tracer.codewords, t1 - t0)
        try:
            layers["trace.other_s"] = root_leftover(tracer.spans, t0, t1)
        except AssertionError as exc:
            checks.error("root spans", exc)
            layers["trace.other_s"] = 0.0
    return t1 - t0, c1 - c0, extra, layers


def run_workload(name, seed, seconds, trace, spec, workdir):
    from spans import Tracer
    from workloads import WORKLOADS, Checks, Enumerate
    wl_cls = WORKLOADS[name]
    setup_s = setup_seconds(wl_cls)
    wl = wl_cls(seed, workdir)
    checks = Checks()
    tracer = Tracer() if trace else None
    walls, cpus, extras, traced_walls, layer_runs = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and i % 2 == 1
        wall, cpu, extra, layers = one_pass(wl, checks, tracer if traced else None)
        if traced:
            traced_walls.append(wall)
            layer_runs.append(layers)
        else:
            walls.append(wall)
            cpus.append(cpu)
            extras.append(extra)
        i += 1
    med = statistics.median

    if trace:
        layers = {key: med([run[key] for run in layer_runs]) for key in layer_runs[0]}
        layers["trace.overhead_frac"] = med(traced_walls) / med(walls) - 1
        for key in ("mcw_per_s", "mcw_per_s_2w"):
            layers[key] = med([e.get(key, 0.0) for e in extras])
        if wl_cls is Enumerate:
            checks.expect("traced codewords", {r["linear.codewords"] for r in layer_runs},
                          {2 * wl.codewords})
        for key in wl_cls.required_layers:
            checks.expect(f"layer {key} recorded", layers[key] > 0, True)
        wanted = spec["per_layer"]
    else:
        layers = {"setup_s": setup_s, "wall_s": med(walls), "cpu_s": med(cpus),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        wanted = spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(layers)
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# {name} seed={seed} trace={trace}: {len(walls)} untraced passes"
          f" {json.dumps([round(w, 4) for w in walls])}, {len(traced_walls)} traced"
          f" {json.dumps([round(w, 4) for w in traced_walls])}")
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"{name} fail_frac = {checks.failed / max(checks.attempted, 1):.6g}"
              f" ({checks.failed} of {checks.attempted} checks)")
        if wl_cls is Enumerate:
            for key in ("mcw_per_s", "mcw_per_s_2w"):
                print(f"{name} {key} = {med([e.get(key, 0.0) for e in extras]):.6g} Mcw/s")
    for msg in checks.messages[:20]:
        print(f"FAILED {name}: {msg}", file=sys.stderr)
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    from workloads import WORKLOADS
    if args.workload not in [*WORKLOADS, "all"]:
        ap.error(f"--workload must be one of {[*WORKLOADS, 'all']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine " + json.dumps(machine(), sort_keys=True))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, spec, workdir)
                   for n in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{k}": v for n, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
