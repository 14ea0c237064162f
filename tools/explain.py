"""Per-query plan + execution-stats dump — the "measure, don't guess" tool.

Usage:
    python tools/explain.py QUERY_NAME [SF_DIR]

Runs one registry query and prints Ray Data's per-operator execution stats
(`Dataset.stats()`): wall time, CPU time, rows/bytes in/out per operator,
task counts — the evidence for which stage dominates a slow query. For a
pandas/pyarrow result (driver-finalized queries) the stats of the source
Dataset aren't retrievable post-hoc; the tool says so instead of guessing.
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    name = sys.argv[1]
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.01"

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(
                os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0)))
            ),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    if name not in qs:
        print(f"unknown query {name!r}; known: {', '.join(sorted(qs))}")
        return 2
    import time

    t0 = time.perf_counter()
    res = qs[name](sf_dir)
    if hasattr(res, "stats"):
        res = res.materialize()
        dt = time.perf_counter() - t0
        print(res.stats())
        print(f"\ntotal wall: {dt:.2f}s, rows: {res.count()}")
    else:
        dt = time.perf_counter() - t0
        print(
            f"{name} finalizes on the driver (returns {type(res).__name__}); "
            f"wall {dt:.2f}s, rows {len(res)}. Per-stage stats are only "
            "available for Dataset-returning queries."
        )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
