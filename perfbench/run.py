"""Benchmark of the flagship tile-assignment engine, end to end and per layer.

Usage, from any directory:

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 6 --trace 0

Workloads (see ``workloads.py``): ``flagship`` (read -> decode -> geocode ->
PIP -> fanout -> combiner -> tree merge over 60,000 image rows),
``registry_spatial`` (13 spatial registry queries, oracle-checked) and
``tiles_write`` (chunked ``run_flagship`` plus the per-tile GLB sink).

One run is one process, which is the Ray driver: inputs are generated or reused
(untimed), then Ray is started and warmed up ``SETUP_REPS`` times (the
median is ``setup_s``), then the workload runs in a closed loop for
``--seconds`` with tracing off. With ``--trace 1`` the same loop runs a
second time with spans on, followed by the per-layer probes and one traced
operation of each other workload, so every layer is timed in every traced
run; the spans go to ``.bench_build/perfbench/traces``.

The last stdout line is the result JSON; the line before it is the full
record (host, per-workload metric names, sample counts, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# each set-up is a Ray start plus a warm-up pass (8-13 s on 4 CPUs); two keep
# a run near 35 s, so ten seeds of all three workloads take under 20 minutes
SETUP_REPS = 2
# Ray's socket paths must fit in 107 bytes; the session directory adds ~62
RAY_TMP_MAX = 45
# Ray's default object store is 30% of memory, created as one file of that
# size: under a file-size limit (ulimit -f) smaller than that the raylet dies
# with SIGXFSZ and ray.init times out after 30 s. A fixed size also keeps
# runs comparable across hosts with more or less memory.
OBJECT_STORE_BYTES = 2 << 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rate_per_s": "1/s",
    "peak_rss_mb": "MB",
}


T_START = time.perf_counter()


def log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - T_START:7.2f}s] {msg}", file=sys.stderr, flush=True)


def object_store_bytes() -> int:
    """``OBJECT_STORE_BYTES``, or 3/4 of the file-size limit if that is lower."""
    import resource

    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    if limit == resource.RLIM_INFINITY:
        return OBJECT_STORE_BYTES
    return min(OBJECT_STORE_BYTES, limit * 3 // 4)


def start_ray(num_cpus: int, store_bytes: int) -> None:
    import ray
    from ray.data import DataContext

    pythonpath = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kwargs = {}
    ray_tmp = os.path.join(ROOT, ".bench_build", "ray")
    if len(ray_tmp) <= RAY_TMP_MAX:
        kwargs["_temp_dir"] = ray_tmp
    ray.init(
        address="local",
        num_cpus=num_cpus,
        object_store_memory=store_bytes,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        # workers import the package from the checkout, whatever the cwd
        runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
        **kwargs,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # as bench.py: per-operator reservation starves the fused flagship chain
    # at low CPU counts
    ctx.op_resource_reservation_enabled = False


def stop_ray() -> None:
    import ray

    from procs import descendants, reap

    t0 = time.perf_counter()
    pids = descendants(os.getpid())
    ray.shutdown()
    killed = reap(pids)
    log(f"ray stopped in {time.perf_counter() - t0:.2f}s, {len(pids)} processes,"
        f" {len(killed)} killed")


def traced_layers(wl, seconds: float, untraced_wall: float, make):
    """Per-layer metrics of a traced run.

    The named workload's loop runs again with spans on, then its probes;
    then one warmed-up operation of every other workload runs with spans,
    so that every layer is timed in every traced run. A metric both
    produce keeps the named workload's value.
    """
    from spans import Tracer
    from workloads import WORKLOADS

    tracers = {wl.name: Tracer(True)}
    traced_wall = wl.end_to_end(wl.measure(seconds, tracers[wl.name]))["wall_s"]
    layer = wl.probe(tracers[wl.name], untraced_wall)
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    for cls in WORKLOADS.values():
        if isinstance(wl, cls):
            continue
        other = make(cls)
        other.prepare()
        other.warm_up()
        tracer = tracers[other.name] = Tracer(True)
        wall = other.end_to_end(other.measure(0, tracer))["wall_s"]
        for k, v in other.probe(tracer, wall).items():
            layer.setdefault(k, v)
        wl.attempted += other.attempted
        wl.failed += other.failed
    return layer, traced_wall, tracers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [
        p for p in ("plateau_gis_converter_ray/__init__.py", "__ray_entry__.py",
                    "tools/check_queries.py")
        if not os.path.isfile(os.path.join(ROOT, p))
    ]
    if missing:
        print(f"not a checkout of the engine: missing {missing} under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)

    from procs import PeakRss
    from spans import Tracer
    from workloads import PER_LAYER_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    host_cpus = len(os.sched_getaffinity(0))
    num_cpus = host_cpus
    store_bytes = object_store_bytes()
    work = os.path.join(ROOT, ".bench_build", "perfbench")
    out_root = os.path.join(work, "out", str(os.getpid()))
    os.makedirs(out_root, exist_ok=True)

    def make(cls):
        return cls(ROOT, os.path.join(work, "cache"), out_root, args.seed, num_cpus)

    wl = make(WORKLOADS[args.workload])
    t0 = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - t0
    log(f"inputs ready in {prepare_s:.2f}s")

    setups = []
    try:
        for i in range(SETUP_REPS):
            if i:
                stop_ray()
            t0 = time.perf_counter()
            start_ray(num_cpus, store_bytes)
            wl.warm_up()
            setups.append(time.perf_counter() - t0)
            log(f"set-up {i} took {setups[-1]:.2f}s")

        t0 = time.perf_counter()
        with PeakRss() as rss:
            untraced = wl.measure(args.seconds, Tracer(False))
        measure_s = time.perf_counter() - t0
        log(f"measured for {measure_s:.2f}s")
        e2e = wl.end_to_end(untraced)
        record = {
            "workload": wl.name,
            "seed": args.seed,
            "host_cpus": host_cpus,
            "num_cpus": num_cpus,
            "object_store_bytes": store_bytes,
            "prepare_s": prepare_s,
            "setup_s_all": setups,
            "measure_s": measure_s,
            **e2e,
        }
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": e2e["wall_s"],
            "rate_per_s": e2e["rate_per_s"],
            "peak_rss_mb": rss.peak_mb,
        }
        result_units = END_TO_END_UNITS
        if args.trace:
            layer, traced_wall, tracers = traced_layers(wl, args.seconds, e2e["wall_s"], make)
            if set(layer) != set(PER_LAYER_UNITS):
                raise KeyError(f"per-layer metrics differ from the list: "
                               f"{sorted(set(layer) ^ set(PER_LAYER_UNITS))}")
            os.makedirs(os.path.join(work, "traces"), exist_ok=True)
            trace_path = os.path.join(
                work, "traces", f"{wl.name}_seed{args.seed}_{os.getpid()}.json"
            )
            with open(trace_path, "w") as f:
                json.dump({"workload": wl.name, "seed": args.seed,
                           "ops": {k: t.to_dict() for k, t in tracers.items()}}, f)
            record.update(
                traced_wall_s=traced_wall,
                trace_file=os.path.relpath(trace_path, ROOT),
                self_s={k: {n: v["self_s"] for n, v in t.by_name().items()}
                        for k, t in tracers.items()},
            )
            metrics, result_units = layer, PER_LAYER_UNITS
    finally:
        stop_ray()
        shutil.rmtree(out_root, ignore_errors=True)

    log("done")
    record.update(
        details=wl.details,
        attempted=wl.attempted,
        failed=wl.failed,
        failed_frac=wl.failed / max(wl.attempted, 1),
    )
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": wl.failed == 0,
                "attempted": wl.attempted,
                "failed": wl.failed,
                "metrics": {
                    k: {"value": v, "unit": result_units[k]} for k, v in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
