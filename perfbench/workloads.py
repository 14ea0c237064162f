"""The three workloads: inputs, warm-up, timed loop, correctness gates, probes.

Every workload runs its operation in a closed loop (the next operation starts
when the previous one has returned) until ``seconds`` have passed, and at
least once. Correctness is checked after each operation, outside its timed
region; a mismatch or an exception counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import statistics
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import inputs
import layers
from spans import Tracer

# registry queries checked against their DuckDB oracle
ORACLE_CHECKED = [
    "tile_wm_z12", "tile_3dt_z7", "pip_mesh", "pip_mesh_bbox",
    "implicit_quadtree", "tile_pyramid_rollup", "quadkey_encode",
    "hex_bin_counts", "tile_dissolve_regions", "tile_neighbor_smooth",
]
# pinned by row count and digest: they read only the municipality polygons,
# so their result does not depend on the seed
PINNED = {
    "slice_3dt_tiles": (781, "1bd40522ad5ae35169acd45001412094"),
    "slice_mvt_tiles": (363, "1fff492a7dfeab085427d7a91710ed8f"),
}
# pip_cell_join is checked against an in-process PIPAssign recompute
REGISTRY_QUERIES = [*ORACLE_CHECKED, "pip_cell_join", *PINNED]

STAGE_SPANS = {
    # span name of the serial chain -> metric name of its busy time
    "sources.read": "sources.read_s",
    "stages.decode": "stages.decode.busy_s",
    "stages.geocode": "stages.geocode.busy_s",
    "stages.spatial_join": "stages.spatial_join.pip_busy_s",
    "stages.tiles": "stages.tiles.fanout_busy_s",
    "pipelines.flagship.combiner": "pipelines.flagship.combiner_busy_s",
    "pipelines.flagship.merge": "pipelines.flagship.merge_busy_s",
}
N_CHUNKS = 4

# per-layer metrics of a traced run and their units
PER_LAYER_UNITS = {
    **{m: "s" for m in STAGE_SPANS.values()},
    "sources.rows_out": "count",
    "stages.decode.rows_out": "count",
    "stages.spatial_join.hit_ratio": "ratio",
    "stages.tiles.rows_out": "count",
    "stages.tiles.fanout_ratio": "ratio",
    "pipelines.flagship.combiner_rows_out": "count",
    "pipelines.flagship.combiner_reduction_ratio": "ratio",
    "pipelines.flagship.merge_rows_out": "count",
    "pipelines.flagship.busy_sum_s": "s",
    "pipelines.flagship.gap_s": "s",
    "pipelines.flagship.ray_tasks": "count",
    "pipelines.flagship.ray_blocks": "count",
    **{f"registry.{q}_s": "s" for q in REGISTRY_QUERIES},
    "registry.oracle_s": "s",
    "registry.ray_operators": "count",
    "registry.exchanges": "count",
    "registry.ray_tasks": "count",
    "pipelines.flagship.run_flagship_s": "s",
    **{f"state.manifest.chunk{i}_elapsed_s": "s" for i in range(N_CHUNKS)},
    "pipelines.flagship.result_read_s": "s",
    "sinks.glb_write_s": "s",
    "sinks.glb.tiles": "count",
    "sinks.glb.bytes": "bytes",
    "sinks.glb.skipped_tiles": "count",
    "sinks.glb.ray_tasks": "count",
    "sinks.glb.unstable_tiles": "count",
    "trace.overhead_s": "s",
}

_EXCHANGE = re.compile(r"Repartition|Sort|Aggregate|Join|Shuffle|Zip")


def plan_counts(ds) -> dict:
    """Operator, exchange, task and block counts of an executed Dataset."""
    text = ds.stats()
    ops = re.findall(r"^Operator \d+ (.+?):", text, flags=re.M)
    done = re.findall(r"(\d+) tasks executed, (\d+) blocks produced", text)
    return {
        "operators": len(ops),
        "exchanges": sum(bool(_EXCHANGE.search(o)) for o in ops),
        "tasks": sum(int(t) for t, _ in done),
        "blocks": sum(int(b) for _, b in done),
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Workload:
    name = ""

    def __init__(self, root: str, cache: str, out_root: str, seed: int, num_cpus: int):
        self.root, self.cache, self.out_root = root, cache, out_root
        self.seed, self.num_cpus = seed, num_cpus
        self.attempted = 0
        self.failed = 0
        # per-plan Ray counts and other facts for the run's record line
        self.details: dict = {}

    def _check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {self.name} {what}: " + "; ".join(problems), file=sys.stderr)

    def _loop(self, seconds: float, op) -> None:
        t0 = time.perf_counter()
        while True:
            try:
                op()
            except Exception as e:  # one failed operation must not end the run
                self.attempted += 1
                self.failed += 1
                print(f"FAIL {self.name}: {type(e).__name__}: {e}", file=sys.stderr)
            if time.perf_counter() - t0 >= seconds:
                return


class Flagship(Workload):
    """``tile_aggregate_ds`` over a 60,000-row, 15-file image window."""

    name = "flagship"

    def prepare(self) -> None:
        self.files, refs = inputs.flagship_input(self.cache, self.seed, self.num_cpus)
        ref = layers.merge([pq.read_table(r) for r in refs])
        self.ref_total = int(pa.compute.sum(ref.column("n_assignments")).as_py())
        self.ref_digest = layers.aggregate_digest(ref)

    def _pass(self, files, tracer: Tracer):
        from plateau_gis_converter_ray.pipelines.flagship import tile_aggregate_ds

        with tracer.span("pipelines.flagship.tile_aggregate_ds"):
            ds = tile_aggregate_ds(files, decode_concurrency=(1, self.num_cpus))
            with tracer.span("pipelines.flagship.materialize"):
                mat = ds.materialize()
                total = mat.sum("n_assignments")
        return mat, int(total)

    def warm_up(self) -> None:
        self._pass(self.files[: self.num_cpus], Tracer(False))

    def measure(self, seconds: float, tracer: Tracer) -> list[float]:
        import ray

        walls = []

        def op():
            t0 = time.perf_counter()
            mat, total = self._pass(self.files, tracer)
            walls.append(time.perf_counter() - t0)
            got = pa.concat_tables(ray.get(mat.to_arrow_refs()))
            problems = []
            if total != self.ref_total:
                problems.append(f"assignments {total} != {self.ref_total}")
            if layers.aggregate_digest(got) != self.ref_digest:
                problems.append("aggregate digest differs from the in-process recompute")
            self._check("pass", problems)
            self.details["plan"] = plan_counts(mat)

        self._loop(seconds, op)
        return walls

    def end_to_end(self, walls: list[float]) -> dict:
        wall = _median(walls)
        return {
            "wall_s": wall,
            "rate_per_s": self.ref_total / wall,
            "named": {
                "flagship.wall_s": wall,
                "flagship.assignments_per_s": self.ref_total / wall,
                "flagship.assignments": self.ref_total,
            },
            "samples": len(walls),
            "walls_s": walls,
        }

    def probe(self, tracer: Tracer, wall: float) -> dict:
        out = stage_probe(self.files, tracer, wall, self.num_cpus)
        out["pipelines.flagship.ray_tasks"] = self.details["plan"]["tasks"]
        out["pipelines.flagship.ray_blocks"] = self.details["plan"]["blocks"]
        return out


def stage_probe(files: list[str], tracer: Tracer, wall: float, num_cpus: int) -> dict:
    """Per-stage busy time and row counts from the serial in-process chain."""
    with tracer.span("flagship.serial_chain"):
        layers.serial_chain(files, tracer)
    named = tracer.by_name()
    out = {metric: named[span]["self_s"] for span, metric in STAGE_SPANS.items()}
    c = {span: named[span]["counts"] for span in STAGE_SPANS}
    busy = sum(out.values())
    out.update(
        {
            "sources.rows_out": c["sources.read"]["rows_out"],
            "stages.decode.rows_out": c["stages.decode"]["rows_out"],
            "stages.spatial_join.hit_ratio": c["stages.spatial_join"]["hits"]
            / c["stages.spatial_join"]["rows_in"],
            "stages.tiles.rows_out": c["stages.tiles"]["rows_out"],
            "stages.tiles.fanout_ratio": c["stages.tiles"]["rows_out"]
            / c["stages.tiles"]["rows_in"],
            "pipelines.flagship.combiner_rows_out": c["pipelines.flagship.combiner"]["rows_out"],
            "pipelines.flagship.combiner_reduction_ratio": c["pipelines.flagship.combiner"]["rows_out"]
            / c["pipelines.flagship.combiner"]["rows_in"],
            "pipelines.flagship.merge_rows_out": c["pipelines.flagship.merge"]["rows_out"],
            "pipelines.flagship.busy_sum_s": busy,
            "pipelines.flagship.gap_s": wall - busy / num_cpus,
        }
    )
    return out


class RegistrySpatial(Workload):
    """The spatial registry queries through ``__ray_entry__.queries()``."""

    name = "registry_spatial"

    def prepare(self) -> None:
        import duckdb

        sys.path.insert(0, os.path.join(self.root, "tools"))
        import __ray_entry__ as entry
        from check_queries import compare, to_pandas

        self.compare, self.to_pandas = compare, to_pandas
        self.sf_dir = inputs.events_input(self.cache, self.seed)
        self.order = list(np.random.default_rng(self.seed).permutation(REGISTRY_QUERIES))
        self.queries = entry.queries()
        sql = entry.oracle_sql()
        con = duckdb.connect()
        con.sql(f"SET threads TO {self.num_cpus}")
        events = os.path.join(self.sf_dir, "events.parquet")
        con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{events}')")
        self.expected = {}
        t0 = time.perf_counter()
        for q in ORACLE_CHECKED:
            self.expected[q] = con.sql(sql[q]).df()
        self.oracle_s = time.perf_counter() - t0
        con.close()
        self.expected["pip_cell_join"] = pip_cell_reference(events)

    def warm_up(self) -> None:
        self.to_pandas(self.queries["tile_wm_z12"](self.sf_dir))

    def _run(self, q: str, tracer: Tracer):
        with tracer.span(f"registry.{q}"):
            res = self.queries[q](self.sf_dir)
            with tracer.span(f"registry.{q}.to_pandas"):
                return res, self.to_pandas(res)

    def _problems(self, q: str, df) -> list[str]:
        if q in PINNED:
            rows, digest = PINNED[q]
            got = frame_digest(df)
            out = [] if len(df) == rows else [f"rows {len(df)} != {rows}"]
            return out + ([] if got == digest else [f"digest {got} != {digest}"])
        return self.compare(q, df, self.expected[q])

    def measure(self, seconds: float, tracer: Tracer) -> dict[str, list[float]]:
        import ray.data

        times = {q: [] for q in REGISTRY_QUERIES}
        plans = self.details["plans"] = {}

        def op():
            for q in self.order:
                try:
                    t0 = time.perf_counter()
                    res, df = self._run(q, tracer)
                    times[q].append(time.perf_counter() - t0)
                    self._check(q, self._problems(q, df))
                except Exception as e:
                    self._check(q, [f"{type(e).__name__}: {e}"])
                    continue
                # a query that finalizes on the driver has no Ray plan to count
                if isinstance(res, ray.data.Dataset):
                    plans[q] = plan_counts(res)

        self._loop(seconds, op)
        self.last_times = times
        return times

    def end_to_end(self, times: dict[str, list[float]]) -> dict:
        med = {q: _median(ts) for q, ts in times.items()}
        total = sum(med.values())
        p50 = statistics.median(med.values())
        return {
            "wall_s": total,
            "rate_per_s": len(med) / total,
            "named": {
                "registry_spatial.total_s": total,
                "registry_spatial.query_p50_s": p50,
                **{f"registry.{q}_s": v for q, v in med.items()},
            },
            "samples": min(len(ts) for ts in times.values()),
        }

    def probe(self, tracer: Tracer, wall: float) -> dict:
        plans = self.details["plans"]
        return {
            **{f"registry.{q}_s": _median(ts) for q, ts in self.last_times.items()},
            "registry.oracle_s": self.oracle_s,
            "registry.ray_operators": sum(p["operators"] for p in plans.values()),
            "registry.exchanges": sum(p["exchanges"] for p in plans.values()),
            "registry.ray_tasks": sum(p["tasks"] for p in plans.values()),
        }


def pip_cell_reference(events_path: str):
    """``pip_cell_join``'s result recomputed in-process with ``PIPAssign``."""
    from plateau_gis_converter_ray.sources.municipalities import municipality_polygons
    from plateau_gis_converter_ray.stages.geocode import add_lnglat_arith
    from plateau_gis_converter_ray.stages.spatial_join import PIPAssign

    t = add_lnglat_arith(pq.read_table(events_path, columns=["event_id", "value"]), "event_id")
    t = PIPAssign(municipality_polygons())(t).to_pandas()
    t["value_c"] = np.round(t["value"].to_numpy() * 100).astype(np.int64)
    return (
        t.dropna(subset=["muni_id"])
        .groupby("muni_id", as_index=False)
        .agg(n=("value_c", "size"), sum_value_c=("value_c", "sum"))
    )


def frame_digest(df) -> str:
    import pandas as pd
    from check_queries import normalize

    return hashlib.sha256(
        pd.util.hash_pandas_object(normalize(df), index=False).to_numpy().tobytes()
    ).hexdigest()[:32]


class TilesWrite(Workload):
    """``run_flagship(n_chunks=4)`` into a fresh directory, then the GLB sink."""

    name = "tiles_write"

    def prepare(self) -> None:
        from plateau_gis_converter_ray.pipelines import flagship

        self.table, self.files, refs = inputs.tiles_input(self.cache, self.seed, self.num_cpus)
        # run_flagship resolves its input through this module-level name;
        # pointing it at the seeded table is the only way to hand it one
        flagship.ensure_image_table = lambda sf, base=None: self.table
        ref_tables = [pq.read_table(r) for r in refs]
        ref = layers.merge(ref_tables)
        self.ref_total = int(pa.compute.sum(ref.column("n_assignments")).as_py())
        self.ref_tiles = len(
            set(zip(*(ref.column(c).to_pylist() for c in ("zoom", "tile_x", "tile_y"))))
        )
        sums = [int(pa.compute.sum(t.column("n_assignments")).as_py()) for t in ref_tables]
        # run_flagship's chunking: sorted files, chunk i takes files[i::n]
        self.ref_chunk_rows = [sum(sums[i::N_CHUNKS]) for i in range(N_CHUNKS)]
        self.first_tiles = None
        self.unstable_tiles = 0
        self.n_pass = 0

    def warm_up(self) -> None:
        # the whole write path: a lighter warm-up leaves the first timed
        # pass ~25% slower (GLB sink first run)
        out = os.path.join(self.out_root, "warm")
        self._op(out, Tracer(False))
        shutil.rmtree(out)

    def _op(self, out: str, tracer: Tracer):
        from plateau_gis_converter_ray.pipelines.flagship import (
            run_flagship,
            write_flagship_glb_tiles,
        )

        with tracer.span("tiles_write.pass"):
            with tracer.span("pipelines.flagship.run_flagship"):
                res = run_flagship(sf=0.001, out_dir=out, n_chunks=N_CHUNKS)
            with tracer.span("sinks.glb.write_flagship_glb_tiles"):
                ds = write_flagship_glb_tiles(out)
                with tracer.span("sinks.glb.to_pandas"):
                    df = ds.to_pandas()
        return res, ds, df

    def measure(self, seconds: float, tracer: Tracer) -> list[float]:
        walls = []

        def op():
            self.n_pass += 1
            out = os.path.join(self.out_root, f"pass{self.n_pass:03d}")
            t0 = time.perf_counter()
            res, ds, df = self._op(out, tracer)
            walls.append(time.perf_counter() - t0)
            self._check("pass", self._problems(out, res, df))
            self.last_df = df
            self.details.update(glb_plan=plan_counts(ds), manifest=_manifest(out))
            if tracer.enabled:
                from plateau_gis_converter_ray.pipelines.flagship import flagship_result_ds

                with tracer.span("pipelines.flagship.flagship_result_ds"):
                    flagship_result_ds(out).materialize()
            shutil.rmtree(out)

        self._loop(seconds, op)
        return walls

    def _problems(self, out: str, res: dict, df) -> list[str]:
        problems = []
        if res["assignments"] != self.ref_total:
            problems.append(f"assignments {res['assignments']} != {self.ref_total}")
        recs = sorted(_manifest(out), key=lambda r: r["key"])
        rows = [r["rows"] for r in recs]
        if rows != self.ref_chunk_rows:
            problems.append(f"manifest rows {rows} != {self.ref_chunk_rows}")
        for r in recs:
            if r["checksum"] != r["rows"] * 2654435761 % (1 << 63):
                problems.append(f"manifest checksum of {r['key']}")
        if len(df) != self.ref_tiles:
            problems.append(f"tiles {len(df)} != {self.ref_tiles}")
        if int((df["n_materials"] == -1).sum()):
            problems.append("tiles skipped in a fresh directory")
        tiles = _glb_files(os.path.join(out, "tiles"))
        n_bytes = sum(size for size, _ in tiles.values())
        if len(tiles) != self.ref_tiles or n_bytes != int(df["glb_bytes"].sum()):
            problems.append(
                f"{len(tiles)} glb files / {n_bytes} bytes on disk disagree with the sink"
            )
        if self.first_tiles is None:
            self.first_tiles = tiles
        else:
            sizes = {k: v[0] for k, v in tiles.items()}
            if sizes != {k: v[0] for k, v in self.first_tiles.items()}:
                problems.append("tile paths or sizes differ from the run's first pass")
            # a tile's feature and material order follows Ray's row order,
            # so equal-sized tiles may still differ in bytes: reported as
            # sinks.glb.unstable_tiles, not gated
            self.unstable_tiles = max(
                self.unstable_tiles,
                sum(v[1] != self.first_tiles.get(k, (0, None))[1] for k, v in tiles.items()),
            )
        return problems

    def end_to_end(self, walls: list[float]) -> dict:
        wall = _median(walls)
        return {
            "wall_s": wall,
            "rate_per_s": self.ref_tiles / wall,
            "named": {
                "tiles_write.wall_s": wall,
                "tiles_write.tiles_per_s": self.ref_tiles / wall,
                "tiles_write.tiles": self.ref_tiles,
                "tiles_write.unstable_tiles": self.unstable_tiles,
            },
            "samples": len(walls),
            "walls_s": walls,
        }

    def probe(self, tracer: Tracer, wall: float) -> dict:
        named = tracer.by_name()

        def mean_s(span: str) -> float:
            return named[span]["total_s"] / named[span]["calls"]

        df = self.last_df
        out = {
            "pipelines.flagship.run_flagship_s": mean_s("pipelines.flagship.run_flagship"),
            "pipelines.flagship.result_read_s": mean_s("pipelines.flagship.flagship_result_ds"),
            "sinks.glb_write_s": mean_s("sinks.glb.write_flagship_glb_tiles"),
            "sinks.glb.tiles": len(df),
            "sinks.glb.bytes": int(df["glb_bytes"].sum()),
            "sinks.glb.skipped_tiles": int((df["n_materials"] == -1).sum()),
            "sinks.glb.ray_tasks": self.details["glb_plan"]["tasks"],
            "sinks.glb.unstable_tiles": self.unstable_tiles,
        }
        for r in self.details["manifest"]:
            i = int(r["key"][len("chunk"):])
            out[f"state.manifest.chunk{i}_elapsed_s"] = r["metrics"]["elapsed_s"]
        run_s = out["pipelines.flagship.run_flagship_s"]
        out.update(stage_probe(self.files, tracer, run_s, self.num_cpus))
        return out


def _glb_files(tiles_dir: str) -> dict[str, tuple[int, str]]:
    """Relative path -> (size, sha256) of every tile the sink wrote."""
    out = {}
    for d, _, names in os.walk(tiles_dir):
        for f in names:
            if f.endswith(".glb"):
                with open(os.path.join(d, f), "rb") as fh:
                    blob = fh.read()
                out[os.path.relpath(os.path.join(d, f), tiles_dir)] = (
                    len(blob), hashlib.sha256(blob).hexdigest()
                )
    return out


def _manifest(out: str) -> list[dict]:
    with open(os.path.join(out, "manifest.jsonl")) as f:
        return [json.loads(line) for line in f if line.strip()]


WORKLOADS = {w.name: w for w in (Flagship, RegistrySpatial, TilesWrite)}
