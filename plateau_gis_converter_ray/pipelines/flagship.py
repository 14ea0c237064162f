"""Flagship pipeline: image table -> decode -> geocode -> PIP join -> tiling.

The Ray-Data-native re-expression of the reference's physical plan
(SURVEY.md §3.1): parse(file-parallel) -> transform(row-parallel) ->
slice(row-parallel) -> sort barrier -> grouped write, rebuilt as

    read_parquet (column-pruned, file-partitioned)
      -> decode -> geocode -> PIP join -> fanout -> combiner
         (ONE fused task chain: stateless fns + broadcast-ref worker caches;
          image bytes never hit the object store between stages)
      -> tree merge (log-depth, adaptive)               # THE one exchange
      -> per-chunk parquet + manifest commit            # resumable output
      -> tileset.json quadtree reduce (driver-side)
      -> GLB sink: grouped_apply(zoom, tile_x, tile_y)  # one writer per
         tile batch, on every CPU (write_flagship_glb_tiles)

Skew note: the Tokyo-bay hotspot (30% of rows in a handful of tiles) is
neutralized *before* the shuffle by the per-batch combiner — each tile
contributes at most one row per batch to the exchange, so the groupby moves
O(unique_tiles x batches) rows, not O(assignments). The salted-key path
(stages.tiles.salt_column) exists for payload shuffles where full rows must
co-locate (tile sink).

Resume: input files are processed in chunks; each chunk's aggregate is a
manifest-committed partition (state.manifest). A killed run reprocesses only
uncommitted chunks; the final reduce merges chunk partials (sums and
min/max merge associatively).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa

from ..sources.images import ensure_image_table, image_files
from ..sources.municipalities import municipality_polygons
from ..stages.decode import ImageDecodeStats
from ..stages.geocode import add_lnglat_hash, geocode_hash
from ..stages.spatial_join import PIPAssign
from ..stages.tiles import fanout_zooms
from ..stages.treeagg import _arrow_group_agg, tree_group_agg
from ..state.manifest import PartitionManifest, atomic_write_dir

MIN_ZOOM = 7
MAX_ZOOM = 12

# bump when the output schema/semantics change: keyed into the default
# out_dir so a stale /tmp cache from older code can never be "resumed" into
# a result with mismatched columns
PIPELINE_VERSION = "v3"


def _extent_m(row_idx: np.ndarray) -> np.ndarray:
    """Deterministic per-image ground extent in meters: 10 m .. ~327 km.

    Plays the role of the reference's per-feature approx extent that the
    geometric-error rule compares against (cesiumtiles/slice.rs:132-148);
    bigger "features" surface at lower zooms.
    """
    from ..kernels.imagecodec import splitmix64

    s = splitmix64(row_idx.astype(np.uint64) ^ np.uint64(0xE87))
    return 10.0 * np.power(2.0, (s % np.uint64(16)).astype(np.float64))


def _fanout_stage(batch: pa.Table) -> pa.Table:
    ext = _extent_m(batch.column("row_idx").to_numpy())
    return fanout_zooms(
        batch,
        MIN_ZOOM,
        MAX_ZOOM,
        keep=["image_id", "muni_id", "lng", "lat"],
        extent_m=ext,
    )


def _partial_tile_agg(batch: pa.Table) -> pa.Table:
    """Combiner: per-batch (tile, muni) counts + bbox partials (pre-shuffle)."""
    tid = batch.column("tile_id").to_numpy()
    zoom = batch.column("zoom").to_numpy()
    tx = batch.column("tile_x").to_numpy()
    ty = batch.column("tile_y").to_numpy()
    muni = batch.column("muni_id").to_numpy(zero_copy_only=False)
    muni = np.where(muni == None, "__none__", muni).astype(object)  # noqa: E711
    lng = batch.column("lng").to_numpy()
    lat = batch.column("lat").to_numpy()

    # group within batch by (tile_id, muni)
    dict_enc = pa.array(muni).dictionary_encode()
    muni_codes = dict_enc.indices.to_numpy(zero_copy_only=False)
    muni_uniq = dict_enc.dictionary.to_pylist()
    key = tid.astype(np.int64) * np.int64(len(muni_uniq) + 1) + muni_codes.astype(
        np.int64
    )
    order = np.argsort(key, kind="stable")
    sk = key[order]
    boundaries = np.concatenate([[0], np.nonzero(np.diff(sk))[0] + 1])
    first = order[boundaries]
    counts = np.diff(np.concatenate([boundaries, [len(sk)]]))

    lng_min = np.minimum.reduceat(lng[order], boundaries)
    lng_max = np.maximum.reduceat(lng[order], boundaries)
    lat_min = np.minimum.reduceat(lat[order], boundaries)
    lat_max = np.maximum.reduceat(lat[order], boundaries)

    return pa.table(
        {
            "tile_id": pa.array(tid[first], pa.int64()),
            "zoom": pa.array(zoom[first], pa.int32()),
            "tile_x": pa.array(tx[first], pa.int64()),
            "tile_y": pa.array(ty[first], pa.int64()),
            "muni_id": pa.array([muni[i] for i in first], pa.string()),
            "cnt": pa.array(counts, pa.int64()),
            "lng_min": pa.array(lng_min),
            "lng_max": pa.array(lng_max),
            "lat_min": pa.array(lat_min),
            "lat_max": pa.array(lat_max),
        }
    )


# merged column -> (column of the renamed partials, op): the spec of the
# flagship's tree_group_agg over the (tile_id, muni_id) keys
_MERGE_SPEC = {
    "n_assignments": ("n_assignments", "sum"), "zoom": ("zoom", "min"),
    "tile_x": ("tile_x", "min"), "tile_y": ("tile_y", "min"),
    "lng_min": ("lng_min", "min"), "lng_max": ("lng_max", "max"),
    "lat_min": ("lat_min", "min"), "lat_max": ("lat_max", "max"),
}
_MERGE_KEYS = ["tile_id", "muni_id"]


def _merge_partials(batch: pa.Table) -> pa.Table:
    """Associative merge of renamed partial tile aggregates in one table:
    the merge step of ``tile_aggregate_ds``'s tree, for callers that merge
    in-process (the serial reference chain in ``perfbench/layers.py``)."""
    aggs = [(col, op) for col, (_, op) in _MERGE_SPEC.items()]
    return _arrow_group_agg(batch, _MERGE_KEYS, aggs, list(_MERGE_SPEC))


_PIP_CACHE: dict = {}  # per-worker-process polygon index cache (actor-state role)


def _pip_assign_cached(batch: pa.Table, polys_ref) -> pa.Table:
    """PIP join as a stateless task with a once-per-worker cached index.

    Same amortization as the actor pool (the index is built once per worker
    process from the broadcast ``ray.put`` ref), but as a plain function it
    FUSES with the read and the rest of the chain — no intermediate
    object-store materialization of the decoded blocks.
    """
    import ray

    key = polys_ref.hex() if hasattr(polys_ref, "hex") else id(polys_ref)
    stage = _PIP_CACHE.get(key)
    if stage is None:
        polys = ray.get(polys_ref) if hasattr(polys_ref, "hex") else polys_ref
        stage = _PIP_CACHE[key] = PIPAssign(polys)
    return stage(batch)


def tile_aggregate_ds(files: list[str], decode_concurrency=(1, 8)):
    """Build the lazy Dataset of per-(tile, muni) aggregates for input files.

    The whole row path — read -> decode -> geocode -> PIP join -> zoom
    fan-out -> combiner — is ONE fused task chain (all stateless functions;
    per-worker state lives in module caches fed by broadcast refs), so image
    bytes never hit the object store between stages. The only exchanges
    are ``tree_group_agg``'s merge levels over the tiny combiner output:
    one level at the block counts a chunk reads (32 blocks for 15 files),
    and more levels as the read's block bound grows, so no single task
    ever merges the partials of a 100 TB input.

    Batch sizing: a fused chain's TASK bundle is sized by the LARGEST
    batch_size among its stages, so one oversized combiner batch silently
    serializes the whole chain (measured r2: 65536-row combiner batches ->
    4 tasks on 32 CPUs, 2x the wall time). One uniform 2048-row batch keeps
    ~rows/2048 parallel tasks while every kernel stays comfortably
    vectorized; the per-batch combiner still collapses the zoom fan-out
    before the exchange.
    """
    import functools

    import ray
    import ray.data

    max_pool = decode_concurrency[1] if isinstance(decode_concurrency, tuple) else decode_concurrency
    polys_ref = ray.put(municipality_polygons())

    ds = ray.data.read_parquet(
        files, override_num_blocks=max(4 * max_pool, len(files))
    )
    chain_batch = 2048
    decode = ImageDecodeStats()  # stateless apart from cached synth grids
    ds = ds.map_batches(decode, batch_format="pyarrow", batch_size=chain_batch)
    ds = ds.map_batches(add_lnglat_hash, batch_format="pyarrow")
    ds = ds.map_batches(
        functools.partial(_pip_assign_cached, polys_ref=polys_ref),
        batch_format="pyarrow",
        batch_size=chain_batch,
    )
    ds = ds.map_batches(_fanout_stage, batch_format="pyarrow", batch_size=chain_batch)
    ds = ds.map_batches(_partial_tile_agg, batch_format="pyarrow", batch_size=chain_batch)
    return tree_group_agg(
        ds, _MERGE_KEYS, {**_MERGE_SPEC, "n_assignments": ("cnt", "sum")}
    )


def _part_files(out_dir: str) -> list[str]:
    """The committed ``part=*/*.parquet`` files of a flagship output."""
    return [
        os.path.join(out_dir, d, f)
        for d in sorted(os.listdir(out_dir))
        if d.startswith("part=")
        for f in sorted(os.listdir(os.path.join(out_dir, d)))
        if f.endswith(".parquet")
    ]


def run_flagship(
    sf: float = 0.001,
    out_dir: str | None = None,
    n_chunks: int = 4,
    resume: bool = True,
) -> dict:
    """Run the flagship job chunk-resumably; returns metrics + result path."""
    table_dir = ensure_image_table(sf)
    files = image_files(table_dir)
    out_dir = out_dir or f"/tmp/plateau_ray_out/flagship_{PIPELINE_VERSION}_sf{sf:g}"
    manifest = PartitionManifest(out_dir, {"sf": sf, "zooms": [MIN_ZOOM, MAX_ZOOM]})
    done = manifest.completed_keys() if resume else set()

    chunks = [files[i::n_chunks] for i in range(n_chunks)]
    t0 = time.perf_counter()
    n_rows = 0
    for ci, chunk_files in enumerate(chunks):
        key = f"chunk{ci:04d}"
        if key in done or not chunk_files:
            continue
        t_chunk = time.perf_counter()
        agg = tile_aggregate_ds(chunk_files)

        part_dir = manifest.partition_dir(key)

        def write(tmp, agg=agg):
            agg.write_parquet(tmp)

        atomic_write_dir(part_dir, write)
        import pyarrow.dataset as pads

        part = pads.dataset(part_dir).to_table()
        rows = int(pa.compute.sum(part.column("n_assignments")).as_py() or 0)
        n_rows += rows
        chunk_s = time.perf_counter() - t_chunk
        manifest.commit_partition(
            key,
            rows,
            checksum=int(np.uint64(rows * 2654435761 % (1 << 63))),
            lineage={"files": [os.path.basename(f) for f in chunk_files]},
            metrics={
                "elapsed_s": round(chunk_s, 3),
                "assignments_per_s": round(rows / chunk_s, 1) if chunk_s else 0.0,
                "out_rows": int(part.num_rows),
            },
        )
    elapsed = time.perf_counter() - t0

    # final driver-side metadata reduce: fold the (small) per-tile aggregate
    # into tileset.json (tree.rs:70-208 role; cesiumtiles/mod.rs:429-452)
    tileset_path = os.path.join(out_dir, "tileset.json")
    if not os.path.exists(tileset_path):
        import pyarrow.dataset as pads

        from ..sinks.tileset import tileset_from_aggregate

        part_files = _part_files(out_dir)
        if part_files:
            rows = pads.dataset(part_files).to_table().to_pylist()
            tileset_from_aggregate(rows, tileset_path)

    return {
        "out_dir": out_dir,
        "elapsed_s": elapsed,
        "assignments": n_rows,
        "assignments_per_s": n_rows / elapsed if elapsed > 0 else 0.0,
        "chunks": n_chunks,
        "tileset": tileset_path,
    }


def flagship_result_ds(out_dir: str):
    """Read back the merged flagship aggregate (final associative reduce).
    One block per part file: each is one chunk's merged aggregate already,
    and split blocks would only add combiner and exchange tasks."""
    import ray.data

    files = _part_files(out_dir)
    ds = ray.data.read_parquet(files, override_num_blocks=max(len(files), 1))
    return tree_group_agg(ds, _MERGE_KEYS, _MERGE_SPEC)


def _muni_material(muni_id: str) -> dict:
    """Deterministic per-municipality material, the ApplyAppearance rule
    shape (stages/appearance.py): most municipalities carry a texture
    (theme present), every third falls back to a plain base color."""
    import zlib

    from ..kernels.imagecodec import splitmix64

    h = int(splitmix64(np.uint64(zlib.crc32(muni_id.encode()))))
    color = [
        0.25 + ((h >> 4) & 127) / 255.0,
        0.25 + ((h >> 12) & 127) / 255.0,
        0.25 + ((h >> 20) & 127) / 255.0,
        1.0,
    ]
    mat = {"base_color": color, "name": muni_id}
    if h % 3 != 0:
        mat["texture_uri"] = f"textures/{muni_id}.png"
    return mat


_TILE_KEYS = ["zoom", "tile_x", "tile_y"]


def _tile_frames(zoom, tx, ty):
    """Per-tile frame of a batch's tiles: (west, north, width, height,
    translation (n, 3)), angles in degrees. The translation is the
    tile-center geocentric point, z-up -> y-up, f32-rounded
    (mod.rs:275-283). Every step is elementwise, so a tile's frame does not
    depend on the tiles it shares the batch with."""
    from ..kernels import scheme3dt
    from ..kernels.projection import geodetic_to_geocentric, wgs84

    west, east, south, north = (np.empty(len(zoom)) for _ in range(4))
    for z in np.unique(zoom):
        m = zoom == z
        south[m], north[m] = scheme3dt.y_slice_range(int(z), ty[m])
        xs = scheme3dt.x_step(int(z), ty[m])
        west[m], east[m] = scheme3dt.x_slice_range(int(z), tx[m], xs)
    tcx, tcy, tcz = geodetic_to_geocentric(
        wgs84(), (west + east) / 2.0, (south + north) / 2.0, np.zeros(len(zoom))
    )
    translation = np.stack([tcx, tcz, -tcy], axis=1).astype(np.float32)
    return (west, north, np.maximum(east - west, 1e-12),
            np.maximum(north - south, 1e-12), translation.astype(np.float64))


def _write_glb_batch(t: pa.Table, tiles_dir: str) -> pa.Table:
    """Write every tile of one batch of the flagship aggregate as z/x/y.glb
    (see :func:`write_flagship_glb_tiles`) and return one summary row per
    tile: zoom, tile_x, tile_y, n_munis, n_materials (-1 = resume skip),
    glb_bytes, all int64.

    One lexsort on (zoom, tile_x, tile_y, muni_id) finds the tile runs.
    Ray hands rows over in no fixed order; numbering features, vertices and
    first-seen materials in muni_id order (unique within a tile) makes a
    tile's bytes a function of its own rows alone. The tile frames and the
    quad corners' geodetic -> geocentric transform run once per batch;
    both are elementwise, so the bytes match a tile written on its own.
    """
    from ..kernels.projection import geodetic_to_geocentric, wgs84
    from ..sinks.glb import MetadataEncoder, tile_glb_bytes
    from ..sinks.tiles3d import (
        commit_tile_lineage,
        dedup_vertex_table,
        tile_lineage_digest,
        tile_skip_ok,
    )

    munis = np.asarray(t.column("muni_id").to_pylist(), dtype=object)
    zoom, tx, ty = (t.column(c).to_numpy().astype(np.int64) for c in _TILE_KEYS)
    order = np.lexsort((munis, ty, tx, zoom))
    zoom, tx, ty, munis = zoom[order], tx[order], ty[order], munis[order]
    cols = {"muni_id": munis}
    for c in ["n_assignments", "lng_min", "lng_max", "lat_min", "lat_max"]:
        cols[c] = t.column(c).to_numpy()[order]
    starts = np.flatnonzero(
        np.r_[True, (zoom[1:] != zoom[:-1]) | (tx[1:] != tx[:-1]) | (ty[1:] != ty[:-1])]
    )
    ends = np.r_[starts[1:], len(zoom)]

    # batch geometry: each municipality's bbox quad (lng0,lat1)
    # (lng1,lat1) (lng1,lat0) (lng0,lat0) goes geocentric, minus its
    # tile's translation, z-up -> y-up
    west, north, w, h, translation = _tile_frames(zoom[starts], tx[starts], ty[starts])
    tile_of = np.repeat(np.arange(len(starts)), ends - starts)
    lng0, lng1, lat0, lat1 = (
        cols[c].astype(np.float64) for c in ["lng_min", "lng_max", "lat_min", "lat_max"]
    )
    lngs = np.stack([lng0, lng1, lng1, lng0], axis=1)  # (n, 4)
    lats = np.stack([lat1, lat1, lat0, lat0], axis=1)
    gx, gy, gz = geodetic_to_geocentric(
        wgs84(), lngs.ravel(), lats.ravel(), np.zeros(lngs.size)
    )
    tr = np.repeat(translation[tile_of], 4, axis=0)
    pos = np.stack(
        [gx - tr[:, 0], gz - tr[:, 1], -gy - tr[:, 2]], axis=1
    ).reshape(len(zoom), 4, 3)
    # per-face normal (utils::calculate_normal role)
    nrm = np.cross(pos[:, 1] - pos[:, 0], pos[:, 2] - pos[:, 0])
    nl = np.linalg.norm(nrm, axis=1)
    safe = np.where(nl > 0, nl, 1.0)[:, None]
    nrm = np.where((nl > 0)[:, None], nrm / safe, np.array([0.0, 1.0, 0.0]))
    v9 = np.zeros((len(zoom), 4, 9), dtype=np.float32)
    v9[..., :3] = pos
    v9[..., 3:6] = nrm[:, None, :]
    # tile-local uv with the v flip (mod.rs:347: [u, 1 - v])
    v9[..., 6] = (lngs - west[tile_of][:, None]) / w[tile_of][:, None]
    v9[..., 7] = 1.0 - (north[tile_of][:, None] - lats) / h[tile_of][:, None]

    tri = np.array([0, 1, 2, 0, 2, 3], dtype=np.uint32)
    material_of = {m: _muni_material(m) for m in set(munis)}
    rows = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        z, x, y = int(zoom[s]), int(tx[s]), int(ty[s])
        final = os.path.join(tiles_dir, str(z), str(x), f"{y}.glb")
        digest = tile_lineage_digest({c: a[s:e] for c, a in cols.items()}, list(cols))
        if tile_skip_ok(final, digest):
            # resume: a prior run wrote this tile atomically AND its input
            # content digest matches — a changed upstream aggregate
            # rewrites instead of serving stale bytes (ADVICE r3)
            rows.append((z, x, y, e - s, -1, os.path.getsize(final)))
            continue
        enc = MetadataEncoder(
            {"Municipality": {"muni_id": "string", "n_assignments": "uint64"}}
        )
        v9[s:e, :, 8] = np.array(
            [
                enc.add_feature("Municipality", {"muni_id": m, "n_assignments": int(a)})
                for m, a in zip(munis[s:e], cols["n_assignments"][s:e])
            ],
            dtype=np.float32,
        )[:, None]
        allv = v9[s:e].reshape(-1, 9)
        vtable, inverse = dedup_vertex_table(allv)
        # materials dedup in first-seen order, which for muni_id-sorted
        # features is np.unique's order; per-material triangle indices
        # keep feature order
        mat_uniq, mat_codes = np.unique(munis[s:e], return_inverse=True)
        materials = [material_of[m] for m in mat_uniq]
        feat_tri = (np.arange(e - s, dtype=np.uint32) * 4)[:, None] + tri[None, :]
        primitives = [
            {"indices": inverse[feat_tri[mat_codes == mi].ravel()], "material": mi}
            for mi in range(len(mat_uniq))
        ]
        glb = tile_glb_bytes(
            vtable, np.empty(0, np.uint32), translation=translation[i].tolist(),
            metadata=enc, num_features=e - s,
            primitives=primitives, materials=materials,
        )
        path_dir = os.path.join(tiles_dir, str(z), str(x))
        os.makedirs(path_dir, exist_ok=True)
        tmp = os.path.join(path_dir, f".tmp_{y}.glb")
        with open(tmp, "wb") as f:
            f.write(glb)
        os.replace(tmp, final)
        commit_tile_lineage(final, digest)
        rows.append((z, x, y, e - s, len(materials), len(glb)))
    names = [*_TILE_KEYS, "n_munis", "n_materials", "glb_bytes"]
    return pa.table(
        {c: pa.array([r[j] for r in rows], pa.int64()) for j, c in enumerate(names)}
    )


def write_flagship_glb_tiles(out_dir: str, tiles_dir: str | None = None):
    """Emit z/x/y.glb tile content for the flagship aggregate.

    The final step the reference's cesiumtiles sink performs after the
    external sort (mod.rs:262-340 -> gltf.rs): per tile, each
    municipality's assignment bbox becomes a quad whose vertices go
    geodetic -> GEOCENTRIC -> z-up-to-y-up minus the f32-rounded tile-center
    translation (mod.rs:270-283,330-347), with the texture v-coordinate
    flipped (``1 - v``, mod.rs:347); triangles group into one primitive per
    deduped material (material.rs IndexSet; texture when the municipality's
    appearance theme carries one) and the glb gets an
    EXT_structural_metadata property table carrying (muni_id,
    n_assignments). One file per tile, resumable by a lineage-checked skip.

    The write is a :func:`~plateau_gis_converter_ray.stages.treeagg.grouped_apply`
    on the tile key, each call writing a whole batch of tiles
    (:func:`_write_glb_batch`), the reference's one ``par_bridge`` task per
    tile group (mod.rs:262-265). The merged aggregate is one block, so
    ``grouped_apply`` splits it to the cluster's CPU count before its
    exchange and the tiles are written on every CPU, not in one task.
    """
    import functools

    from ..stages.treeagg import grouped_apply

    tiles_dir = tiles_dir or os.path.join(out_dir, "tiles")
    os.makedirs(tiles_dir, exist_ok=True)
    return grouped_apply(
        flagship_result_ds(out_dir), _TILE_KEYS,
        functools.partial(_write_glb_batch, tiles_dir=tiles_dir),
        batch_format="pyarrow",
    )


def run_flagship_incremental(sf: float = 0.001, out_dir: str | None = None,
                             n_chunks: int = 4):
    """Incremental flagship (IVM): each input chunk's ADDITIVE tile-
    assignment counts fold into a maintained keyed table via
    ``sinks/upsert.py`` mode='sum' — the Delta/Iceberg-style maintained
    aggregate, so newly ingested image files update the serving table in
    O(chunk + touched buckets) instead of a full recompute. Exactly-once
    per (chunk, bucket) comes from the parquet ``applied_chunks`` ledger
    (atomic with the data), so a killed or replayed run tops up only the
    unapplied buckets. Applying chunks one at a time equals the one-shot
    batch aggregate (pytest-pinned). Only the additive measure
    (n_assignments) is maintained — min/max extents are not sum-mergeable
    through this sink and stay with the batch path.

    Key packing: (tile_id, muni_id) -> tile_id * 64 + muni_id + 1
    (muni_id in [-1, 47], tile ids fit far below 2^57)."""
    import ray  # noqa: F401  (session owned by the caller)

    from ..sinks.upsert import read_keyed_table, upsert

    table_dir = ensure_image_table(sf)
    files = image_files(table_dir)
    out_dir = out_dir or (
        f"/tmp/plateau_ray_out/flagship_ivm_{PIPELINE_VERSION}_sf{sf:g}"
    )
    os.makedirs(out_dir, exist_ok=True)

    def pack(batch: pa.Table) -> pa.Table:
        tid = batch.column("tile_id").to_numpy()
        d = batch.column("muni_id").combine_chunks().dictionary_encode()
        uniq = d.dictionary.to_pylist()  # <= 49 distinct muni ids
        vals = np.array(
            [int(u[5:]) if u.startswith("muni_") else -1 for u in uniq],
            dtype=np.int64,
        )
        mid = vals[d.indices.to_numpy(zero_copy_only=False)]
        return pa.table(
            {
                "k": pa.array(tid * 64 + mid + 1),
                "n_assignments": batch.column("n_assignments"),
            }
        )

    # chunk-level completion manifest: a fully-applied chunk skips even
    # the partial-aggregate recompute on replay (the per-bucket
    # applied_chunks ledger remains the exactly-once authority — a crash
    # BETWEEN the upsert and this manifest append replays the chunk and
    # the ledger tops up only unapplied buckets)
    import json as _json

    manifest_path = os.path.join(out_dir, "chunks.json")
    chunks = [files[i::n_chunks] for i in range(n_chunks)]
    # chunk ids are only meaningful FOR THIS file set: fingerprint each
    # chunk's (basename, size) list so a regenerated/extended table at the
    # same sf invalidates stale "applied" entries instead of silently
    # covering a different file subset (r4 ADVICE; write_implicit_tileset
    # already fingerprints its input the same way)
    import hashlib as _hashlib

    def _chunk_fp(chunk_files: list) -> str:
        h = _hashlib.sha256()
        for f in chunk_files:
            h.update(os.path.basename(f).encode())
            h.update(str(os.path.getsize(f)).encode())
        return h.hexdigest()[:16]

    fps = {f"chunk{ci:04d}": _chunk_fp(cf) for ci, cf in enumerate(chunks)}
    done: set = set()
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            m = _json.load(f)
        if "fingerprints" not in m:
            # legacy (pre-fingerprint) manifest layout: the maintained
            # table is derived state and rebuilds deterministically —
            # wipe and start over rather than trusting unverifiable
            # chunk ids
            import shutil

            shutil.rmtree(out_dir)
            os.makedirs(out_dir, exist_ok=True)
        else:
            stale = [
                cid for cid in m["applied"]
                if m["fingerprints"].get(cid) != fps.get(cid)
            ]
            if stale:
                raise RuntimeError(
                    f"flagship_ivm: input file set changed under applied "
                    f"chunks {stale} in {out_dir} — the maintained table "
                    "no longer matches the batch aggregate; delete the "
                    "out_dir to rebuild from scratch."
                )
            done = set(m["applied"])

    touched = []
    for ci, chunk_files in enumerate(chunks):
        cid = f"chunk{ci:04d}"
        if not chunk_files or cid in done:
            continue
        upd = tile_aggregate_ds(chunk_files).map_batches(
            pack, batch_format="pyarrow"
        )
        touched.append(
            int(
                upsert(
                    out_dir, upd, key="k", n_buckets=32, mode="sum",
                    chunk_id=cid,
                )
            )
        )
        done.add(cid)
        tmp = manifest_path + ".tmp"
        with open(tmp, "w") as f:
            _json.dump(
                {
                    "applied": sorted(done),
                    "fingerprints": {c: fps[c] for c in sorted(done)},
                },
                f,
            )
        os.replace(tmp, manifest_path)  # atomic, AFTER the upsert
    return {"out_dir": out_dir, "touched_per_chunk": touched,
            "table": read_keyed_table(out_dir)}
