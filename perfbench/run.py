"""OCTOPUS benchmark runner.

    python3 perfbench/run.py --workload kwim --seed 1 --seconds 15 --trace 0

Runs one workload (``kwim``, ``explore``, ``offline``, or ``all`` in turn)
from the checkout's ``src/`` tree, checks every answer outside the timed
region, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs each request once untraced and once
under the span recorder and reports the per-layer metrics instead.
Everything it writes (temp files, Spark scratch, the run record with the
spans) goes under ``.bench_work/`` in the checkout.
"""
import argparse
import gc
import json
import os
import platform
import shlex
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def _prepare_env() -> None:
    """Keep every file the run (and the Spark JVM) writes inside WORK, and
    launch Spark as ``local[N]`` with the test suite's session settings."""
    tmp, local = WORK / "tmp", WORK / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # The JVMs' perf-data files would go to /tmp whatever java.io.tmpdir says.
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    # One client drives one core: BLAS helper threads only spin beside it
    # (no latency gain, a second core of system time), so pin them to one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if "SPARK_DRIVER_MEM" not in os.environ:
        # Same rule as the Tier-1 test command: half of RAM, 2g..8g.
        half = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**31
        os.environ["SPARK_DRIVER_MEM"] = f"{min(max(half, 2), 8)}g"
    cores = min(4, len(os.sched_getaffinity(0)))
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        f"--conf spark.local.dir={shlex.quote(str(local))}",
        f"--conf spark.sql.warehouse.dir={shlex.quote(str(WORK / 'warehouse'))}",
        f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + str(tmp))}",
        "pyspark-shell",
    ])


def machine() -> dict:
    import numpy
    import pyspark

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "spark_driver_mem": os.environ["SPARK_DRIVER_MEM"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl
    from spans import Recorder

    w = wl.WORKLOADS[name]()
    try:
        setup_s = []
        for _ in range(wl.SETUP_REPEATS):
            t0 = time.perf_counter()
            st = w.setup(seed)
            setup_s.append(time.perf_counter() - t0)
        rec = Recorder(wl.TRACE_TARGETS) if trace else None
        st["rec"] = rec
        gc.collect()  # start the window without the earlier set-ups' garbage
        done, wall, bad = wl.closed_loop(w, st, seed, seconds, rec)
        bad += w.final_check(st, done, seed)
        if trace:
            ok = [d for d in done if d.traced_out is not None]
            metrics = {k: 0.0 for k in wl.LAYER_UNITS}
            if ok:
                metrics.update(wl.span_layers(rec.spans, len(ok)))
                metrics.update(w.layers(st, ok, rec.spans))
            metrics["trace.overhead_frac"] = wl.overhead(done)
            units = wl.LAYER_UNITS
        else:
            metrics = {"setup_s": statistics.median(setup_s), **wl.end_to_end(done, wall)}
            units = wl.E2E_UNITS
    finally:
        w.close()
    ops = getattr(w, "ops_per_request", 1)
    runs = len(done) * (2 if trace else 1)
    errors = sum((d.error is not None) + (d.traced_error is not None) for d in done)
    attempted = max(1, runs * ops)
    failed = min(attempted, errors * ops + len(bad))
    result = {
        "correct": failed == 0 and bool(done),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    mix = {"workload": name, "seed": seed, **w.mix(done)}
    record = {
        "mix": mix, "setup_runs_s": setup_s, "wall_s": wall, "machine": machine(),
        "latencies_ms": [d.seconds * 1e3 for d in done],
        "failures": bad[:100], "result": result,
        "spans": rec.dump() if trace else None,
    }
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, default=str))
    for msg in bad[:20]:
        print(f"CHECK FAILED {name}: {msg}", file=sys.stderr)
    print("mix " + json.dumps(mix))
    for k, m in result["metrics"].items():
        print(f"{name:8s} {k:28s} {m['value']:14.6g} {m['unit']}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["kwim", "explore", "offline", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _prepare_env()
    names = ["kwim", "explore", "offline"] if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
