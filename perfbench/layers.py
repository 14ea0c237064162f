"""The flagship row path run serially in-process, one layer call at a time.

Two uses: the correctness reference (the merged per-(tile, muni) aggregate
the Ray pipeline must reproduce, built from the same stage functions with no
Ray involved) and, under a live tracer, the per-layer busy times of the
traced run. Batch slicing mirrors ``tile_aggregate_ds``: every stage that
sets ``batch_size=2048`` there sees 2048-row slices here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BATCH = 2048
# final column names of the merged aggregate, in the order the rename step
# of ``tile_aggregate_ds`` gives the combiner output
PARTIAL_NAMES = [
    "tile_id", "zoom", "tile_x", "tile_y", "muni_id",
    "n_assignments", "lng_min", "lng_max", "lat_min", "lat_max",
]


def merge(tables: list[pa.Table]) -> pa.Table:
    """Associative merge of renamed partial aggregates (the tree-merge step)."""
    from plateau_gis_converter_ray.pipelines.flagship import _merge_partials

    return _merge_partials(pa.concat_tables(tables))


def serial_chain(paths: list[str], tracer) -> pa.Table:
    """read -> decode -> geocode -> PIP -> fanout -> combiner -> merge."""
    from plateau_gis_converter_ray.pipelines.flagship import (
        _fanout_stage,
        _partial_tile_agg,
    )
    from plateau_gis_converter_ray.sources.municipalities import (
        municipality_polygons,
    )
    from plateau_gis_converter_ray.stages.decode import ImageDecodeStats
    from plateau_gis_converter_ray.stages.geocode import add_lnglat_hash
    from plateau_gis_converter_ray.stages.spatial_join import PIPAssign

    decode = ImageDecodeStats()
    pip = PIPAssign(municipality_polygons())
    partials = []
    for path in paths:
        with tracer.span("sources.read") as c:
            table = pq.read_table(path)
            c["rows_out"] = table.num_rows
        for off in range(0, table.num_rows, BATCH):
            batch = table.slice(off, BATCH)
            with tracer.span("stages.decode") as c:
                batch = decode(batch)
                c["rows_in"] = c["rows_out"] = batch.num_rows
            with tracer.span("stages.geocode") as c:
                batch = add_lnglat_hash(batch)
                c["rows_in"] = c["rows_out"] = batch.num_rows
            with tracer.span("stages.spatial_join") as c:
                batch = pip(batch)
                c["rows_in"] = batch.num_rows
                c["hits"] = batch.num_rows - batch.column("muni_id").null_count
            with tracer.span("stages.tiles") as c:
                fan = _fanout_stage(batch)
                c["rows_in"], c["rows_out"] = batch.num_rows, fan.num_rows
            with tracer.span("pipelines.flagship.combiner") as c:
                parts = [
                    _partial_tile_agg(fan.slice(o, BATCH)).rename_columns(PARTIAL_NAMES)
                    for o in range(0, fan.num_rows, BATCH)
                ]
                partials.extend(parts)
                c["rows_in"] = fan.num_rows
                c["rows_out"] = sum(p.num_rows for p in parts)
    with tracer.span("pipelines.flagship.merge") as c:
        out = merge(partials)
        c["rows_in"], c["rows_out"] = sum(p.num_rows for p in partials), out.num_rows
    return out


def aggregate_digest(table: pa.Table) -> str:
    """Order-insensitive digest of a merged aggregate: rows sorted by key."""
    t = table.select(
        ["tile_id", "muni_id", "n_assignments", "zoom", "tile_x", "tile_y",
         "lng_min", "lng_max", "lat_min", "lat_max"]
    ).sort_by([("tile_id", "ascending"), ("muni_id", "ascending")])
    h = hashlib.sha256()
    for name in t.column_names:
        col = t.column(name).combine_chunks()
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            h.update("\x1f".join(col.to_pylist()).encode())
        else:
            kind = np.float64 if pa.types.is_floating(col.type) else np.int64
            h.update(np.ascontiguousarray(col.to_numpy().astype(kind)).tobytes())
    return h.hexdigest()[:32]
