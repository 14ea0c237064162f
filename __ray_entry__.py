"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB
(row-count + schema + order-insensitive value-hash).

Registration is by name: a module-level ``q_<name>`` function here or in
``pipelines/queries.py`` is the registry query ``<name>``, and the string
``_SQL_<NAME>`` in ``pipelines/queries.py``, when defined, is its oracle.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def entry() -> Any:
    """Flagship pipeline (image table -> decode -> PIP join -> tiling) at
    sf0.001; returns the merged per-(tile, municipality) aggregate Dataset."""
    from plateau_gis_converter_ray.pipelines.flagship import (
        flagship_result_ds,
        run_flagship,
    )

    res = run_flagship(sf=0.001)
    return flagship_result_ds(res["out_dir"])


def _sf_of(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    return float(base.replace("sf", "")) if base.startswith("sf") else 0.01


def _images(sf_dir: str, columns: list[str] | None = None):
    """The image table at ``sf_dir``'s scale, generated on first use."""
    from plateau_gis_converter_ray.sources.images import ensure_image_table, read_images

    return read_images(ensure_image_table(_sf_of(sf_dir)), columns=columns)


# ---- rows-only pipelines (non-SQL-expressible; exact kernels pytest-pinned)


def q_flagship_tiles(sf_dir: str):
    from plateau_gis_converter_ray.pipelines.flagship import (
        flagship_result_ds,
        run_flagship,
    )

    res = run_flagship(sf=_sf_of(sf_dir))
    return flagship_result_ds(res["out_dir"])


def q_image_decode_stats(sf_dir: str):
    from plateau_gis_converter_ray.stages.decode import ImageDecodeStats
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir)
    ds = ds.map_batches(ImageDecodeStats(), batch_format="pyarrow", batch_size=1024)
    import numpy as np
    import pyarrow as pa

    def check(batch: pa.Table) -> pa.Table:
        phash_match = (
            batch.column("phash").to_numpy() == batch.column("phash_decoded").to_numpy()
        )
        lossless = np.array(
            [f in ("raw", "ppm", "rle") for f in batch.column("fmt").to_pylist()]
        )
        psnr_ok = batch.column("psnr_db").to_numpy() >= 40.0
        return pa.table(
            {
                "fmt": batch.column("fmt"),
                "phash_ok": pa.array((phash_match | ~lossless).astype(np.int64)),
                "psnr_ok": pa.array(psnr_ok.astype(np.int64)),
                "one": pa.array(np.ones(len(phash_match), dtype=np.int64)),
            }
        )

    return tree_group_agg(
        ds.map_batches(check, batch_format="pyarrow"),
        ["fmt"],
        {"n": (None, "count"), "n_phash_ok": ("phash_ok", "sum"),
         "n_psnr_ok": ("psnr_ok", "sum")},
    )


def q_phash_dedup(sf_dir: str):
    from plateau_gis_converter_ray.sources.images import ensure_image_table, image_files
    from plateau_gis_converter_ray.stages.dedup import phash_exact_dedup

    return phash_exact_dedup(image_files(ensure_image_table(_sf_of(sf_dir))))


def q_minhash_lsh_pairs(sf_dir: str):
    from plateau_gis_converter_ray.stages.dedup import minhash_lsh_candidates

    return minhash_lsh_candidates(sf_dir, jaccard_threshold=0.5)


def q_simhash_pairs(sf_dir: str):
    from plateau_gis_converter_ray.stages.dedup import simhash_near_dup

    return simhash_near_dup(sf_dir, max_hamming=8)


def q_doc_signatures(sf_dir: str):
    from plateau_gis_converter_ray.stages.text import Signatures

    from plateau_gis_converter_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        Signatures(), batch_format="pyarrow", batch_size=256
    ).select_columns(["doc_id", "simhash", "fingerprint"])


def q_slice_3dt_tiles(sf_dir: str):
    """Polygon slicing into 3DT tiles: municipality polygons -> per-tile
    fragment counts (the cesiumtiles slicing flat_map, slice.rs:216-391)."""
    import ray.data
    import numpy as np
    import pandas as pd

    from plateau_gis_converter_ray.kernels.clip import ring_area, slice_polygon_3dt
    from plateau_gis_converter_ray.sources.municipalities import municipality_polygons

    polys = municipality_polygons()
    ds = ray.data.from_items(
        [{"pid": p["id"], "ring": p["rings"][0].tolist()} for p in polys]
    )

    def slice_batch(batch) -> "object":
        import pyarrow as pa

        pid_c, z_c, x_c, y_c, nv_c, area_c = [], [], [], [], [], []
        for pid, ring in zip(
            batch.column("pid").to_pylist(), batch.column("ring").to_pylist()
        ):
            ring5 = np.array([[c[0], c[1], 0.0, 0.0, 0.0] for c in ring])
            for (z, x, y), rings in slice_polygon_3dt(9, [ring5]):
                if len(rings[0]):
                    pid_c.append(pid)
                    z_c.append(z)
                    x_c.append(int(x))
                    y_c.append(int(y))
                    nv_c.append(int(len(rings[0])))
                    area_c.append(int(round(ring_area(rings[0][:, :2]) * 1e9)))
        return pa.table(
            {
                "pid": pa.array(pid_c, pa.string()),
                "zoom": pa.array(z_c, pa.int64()),
                "tile_x": pa.array(x_c, pa.int64()),
                "tile_y": pa.array(y_c, pa.int64()),
                "n_vertices": pa.array(nv_c, pa.int64()),
                "area_e9": pa.array(area_c, pa.int64()),
            }
        )

    return ds.map_batches(slice_batch, batch_format="pyarrow")


def q_slice_mvt_tiles(sf_dir: str):
    """MVT polygon slicing: municipality polygons -> normalized-mercator ->
    buffered clip at z=8 -> per-tile ring stats (mvt/slice.rs:95-270)."""
    import ray.data
    import numpy as np
    import pandas as pd

    from plateau_gis_converter_ray.kernels.clip import slice_polygon_mvt
    from plateau_gis_converter_ray.kernels.webmercator import lnglat_to_web_mercator
    from plateau_gis_converter_ray.sources.municipalities import municipality_polygons

    polys = municipality_polygons()
    ds = ray.data.from_items(
        [{"pid": p["id"], "ring": p["rings"][0].tolist()} for p in polys]
    )
    extent = 1 << 12
    buffer = extent * 5 // 256  # buffer_pixels=5 (mvt/mod.rs:206-207)

    def slice_batch(batch) -> "object":
        import pyarrow as pa

        pid_c, z_c, x_c, y_c, nr_c, ne_c, np_c = [], [], [], [], [], [], []
        for pid, ring in zip(
            batch.column("pid").to_pylist(), batch.column("ring").to_pylist()
        ):
            arr = np.array([list(p) for p in ring], dtype=np.float64)
            mx, my = lnglat_to_web_mercator(arr[:, 0], arr[:, 1])
            # reference keeps CW (area>0 in y-down) exteriors (mvt/slice.rs:55)
            merc = np.stack([mx, my], axis=1)
            out = {}
            slice_polygon_mvt(8, extent, buffer, [merc], out)
            for (z, x, y), rings in out.items():
                if rings:
                    pid_c.append(pid)
                    z_c.append(z)
                    x_c.append(int(x))
                    y_c.append(int(y))
                    nr_c.append(len(rings))
                    ne_c.append(sum(1 for is_ext, _ in rings if is_ext))
                    np_c.append(sum(len(r) for _, r in rings))
        return pa.table(
            {
                "pid": pa.array(pid_c, pa.string()),
                "zoom": pa.array(z_c, pa.int64()),
                "tile_x": pa.array(x_c, pa.int64()),
                "tile_y": pa.array(y_c, pa.int64()),
                "n_rings": pa.array(nr_c, pa.int64()),
                "n_ext": pa.array(ne_c, pa.int64()),
                "n_points": pa.array(np_c, pa.int64()),
            }
        )

    return ds.map_batches(slice_batch, batch_format="pyarrow")


def q_project_jpr9(sf_dir: str):
    """CRS chain: geocode -> geoid shift -> JPR zone IX ETMerc (rows-only;
    the ETMerc math itself is pinned to PROJ fixtures in pytest)."""
    import numpy as np
    import pyarrow as pa

    from plateau_gis_converter_ray.stages.geocode import add_lnglat_arith
    from plateau_gis_converter_ray.stages.projection import ProjectionStage

    from plateau_gis_converter_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_id"])
    ds = ds.map_batches(lambda b: add_lnglat_arith(b, "event_id"), batch_format="pyarrow")
    ds = ds.map_batches(
        ProjectionStage(output="jpr", jpr_zone=9), batch_format="pyarrow"
    )

    def round_mm(batch: pa.Table) -> pa.Table:
        x = np.round(batch.column("jpr_x").to_numpy() * 1000).astype(np.int64)
        y = np.round(batch.column("jpr_y").to_numpy() * 1000).astype(np.int64)
        return pa.table(
            {"event_id": batch.column("event_id"),
             "jpr_x_mm": pa.array(x), "jpr_y_mm": pa.array(y)}
        )

    return ds.map_batches(round_mm, batch_format="pyarrow")


def q_ivf_self_knn(sf_dir: str):
    from plateau_gis_converter_ray.stages.knn import ivf_self_knn

    return ivf_self_knn(sf_dir)


def q_embed_lsh_near_dup(sf_dir: str):
    """Cosine-LSH near-dup (random-hyperplane buckets + exact in-bucket
    verify) over a planted-duplicate corpus — the hash-bucketed scale path
    beside the exact triangle self-join; recall >= 0.9 and soundness vs
    the exact operator pinned in pytest. (The driver's embeddings table
    has no angularly-close pairs — see the operator docstring.)"""
    from plateau_gis_converter_ray.stages.knn import (
        embedding_lsh_near_dup,
        planted_near_dup_vectors,
    )

    n = max(500, int(_sf_of(sf_dir) * 500000))
    ds = planted_near_dup_vectors(n)
    return embedding_lsh_near_dup(ds, dist2_threshold=2000)


def q_image_thumbs(sf_dir: str):
    """Multimodal resize stage: bytes -> t x t grayscale thumbs (actor pool);
    aggregate mean thumb intensity by (w, h) source size (rows-only)."""
    import numpy as np
    import pyarrow as pa

    from plateau_gis_converter_ray.stages.decode import ImageResize
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "w", "h", "fmt"])
    ds = ds.map_batches(ImageResize(), batch_format="pyarrow", batch_size=1024)

    def agg(batch: pa.Table) -> pa.Table:
        col = batch.column("thumb").combine_chunks()
        flat = col.flatten().to_numpy()  # zero-copy fixed-size-list values
        # float32 reduction then float64 scale: matches the old per-row path
        means = flat.reshape(len(batch), -1).mean(axis=1).astype(np.float64)
        return pa.table(
            {"w": batch.column("w").cast(pa.int64()),
             "h": batch.column("h").cast(pa.int64()),
             "thumb_mean_c": pa.array(np.round(means * 100).astype(np.int64))}
        )

    return tree_group_agg(
        ds.map_batches(agg, batch_format="pyarrow"),
        ["w", "h"],
        {"n": (None, "count"), "sum_thumb_mean_c": ("thumb_mean_c", "sum")},
    )


def q_image_feature_knn(sf_dir: str):
    """Multimodal retrieval chain (rows-only): image decode -> block-mean
    feature extract -> exact-integer cosine top-3 against a broadcast
    query matrix (stages/knn.py::image_feature_knn). Self-similarity
    (cos_key == |v|^2 * 1e4 at rank 1 for the query images) and
    determinism are pinned in pytest."""
    from plateau_gis_converter_ray.stages.knn import image_feature_knn

    return image_feature_knn(_sf_of(sf_dir))


def q_raster_vector_clip(sf_dir: str):
    """Raster<->vector: clip municipality polygons against each image's
    georeferenced footprint, rasterize onto its pixel grid, emit coverage +
    masked-pixel stats (rows-only; geometry kernels pytest-pinned)."""
    from plateau_gis_converter_ray.sources.municipalities import municipality_polygons
    from plateau_gis_converter_ray.stages.raster import RasterVectorClip

    ds = _images(sf_dir, ["image_id", "bytes", "w", "h", "fmt"])
    return ds.map_batches(
        RasterVectorClip(municipality_polygons()),
        batch_format="pyarrow",
        batch_size=512,
    )


def q_image_augment(sf_dir: str):
    """Deterministic image augmentation (hflip/vflip/center-crop/
    saturating brightness) as a stateless vectorized stage: one row per
    (image, augmentation) with augmented channel means + phash. Rows-only;
    pinned in pytest against a local per-image recompute and the analytic
    flip/brightness invariants."""
    from plateau_gis_converter_ray.stages.augment import ImageAugmentStats

    ds = _images(sf_dir, ["image_id", "bytes", "w", "h", "fmt"])
    return ds.map_batches(
        ImageAugmentStats(), batch_format="pyarrow", batch_size=1024
    )


def q_raster_hillshade(sf_dir: str):
    """Horn-method hillshade over the red plane as a DEM (gdaldem
    semantics: az 315 / alt 45 / z=1), per-image interior summary rows.
    Vectorized over (fmt,w,h) group stacks; bytes never shuffle.
    Rows-only; pinned in pytest against a local per-image recompute."""
    from plateau_gis_converter_ray.stages.raster_ops import HillshadeStats

    ds = _images(sf_dir, ["image_id", "bytes", "w", "h", "fmt"])
    return ds.map_batches(
        HillshadeStats(), batch_format="pyarrow", batch_size=1024
    )


def q_raster_pyramid(sf_dir: str):
    """GeoTIFF-overview pyramid: levels 0..3 of exact 2x truncating
    block-mean reductions, one row per (image, level) with integer pixel
    sum + position-weighted checksum. Rows-only; pinned in pytest (exact
    level arithmetic + the level-0 sum equals the decode stats sum)."""
    from plateau_gis_converter_ray.stages.raster_ops import PyramidLevels

    ds = _images(sf_dir, ["image_id", "bytes", "w", "h", "fmt"])
    return ds.map_batches(
        PyramidLevels(), batch_format="pyarrow", batch_size=1024
    )


def q_texture_atlas(sf_dir: str):
    """Texture-atlas packing (stages/atlas.py): histogram-prefix dense
    rank per size class -> fixed-capacity 8x8 mosaics -> ONE pixel
    exchange keyed by atlas. Returns the per-atlas audit rows (occupancy
    + exact mosaic checksum); the crop round-trip is pinned in pytest.
    Rows-only."""
    import ray.data

    from plateau_gis_converter_ray.sources.images import (
        ensure_image_table,
        image_files,
        rows_for_sf,
    )
    from plateau_gis_converter_ray.stages.atlas import (
        assemble_atlases,
        atlas_placements,
        atlas_summary,
    )

    files = image_files(ensure_image_table(_sf_of(sf_dir)))
    meta = ray.data.read_parquet(files, columns=["image_id", "w", "h"])
    placements = atlas_placements(
        meta, grid=8, n_rows_hint=rows_for_sf(_sf_of(sf_dir))
    )
    # block count ~ CPU count: the strips groupby is a sort shuffle whose
    # map x reduce object count is blocks^2 (210 read blocks -> 44k tiny
    # shuffle objects dominated wall time); decode stays fully parallel.
    # On a real cluster this tracks total cores, not a constant.
    ncpu = max(int(ray.cluster_resources().get("CPU", 32)), 8)
    images = ray.data.read_parquet(
        files,
        columns=["image_id", "bytes", "fmt"],
        override_num_blocks=min(64, ncpu),
    )
    return atlas_summary(assemble_atlases(images, placements, grid=8))


def q_raster_integral_blocks(sf_dir: str):
    """Summed-area-table quadrant sums per image
    (stages/decode.py::ImageIntegralBlocks): exact int64 SAT corner
    algebra, zero exchanges, then a per-fmt reduce of quadrant energies.
    Rows-only; the corner algebra is pinned against direct per-quadrant
    sums in tests/test_wave32.py."""
    from plateau_gis_converter_ray.stages.decode import ImageIntegralBlocks
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    ds = ds.map_batches(
        ImageIntegralBlocks(), batch_format="pyarrow", batch_size=1024
    )

    import pyarrow as pa

    def prep(batch: pa.Table) -> pa.Table:
        return batch.select(["fmt", "q00", "q01", "q10", "q11", "total"])

    return tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["fmt"],
        {
            "n": (None, "count"),
            "q00": ("q00", "sum"),
            "q01": ("q01", "sum"),
            "q10": ("q10", "sum"),
            "q11": ("q11", "sum"),
            "total": ("total", "sum"),
        },
    )


def q_image_sharpness(sf_dir: str):
    """Variance-of-Laplacian blur filter (stages/decode.py::ImageSharpness):
    per-image exact int64 Laplacian sums, zero exchanges (bytes never leave
    the decode task), then a tiny per-fmt reduce — n, blurry count, and the
    exact global Laplacian-energy total. Rows-only; the per-image stencil is
    pinned against a naive per-image recompute in pytest."""
    from plateau_gis_converter_ray.stages.decode import ImageSharpness
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    ds = ds.map_batches(ImageSharpness(), batch_format="pyarrow", batch_size=1024)

    import numpy as np
    import pyarrow as pa

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "fmt": batch.column("fmt"),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "blurry": batch.column("is_blurry").cast(pa.int64()),
                "lap_sq_sum": batch.column("lap_sq_sum"),
            }
        )

    return tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["fmt"],
        {"n": ("one", "sum"), "n_blurry": ("blurry", "sum"),
         "lap_energy": ("lap_sq_sum", "sum")},
    )


def q_image_patches(sf_dir: str):
    """ViT-style 4x4 patch statistics (stages/decode.py::ImagePatches):
    per-patch exact int64 gray sum/sq-sum via two np.add.reduceat passes
    over each decode stack, then the flat-patch curation filter
    (patch_var < 25) reduced per grid position — 16 output rows carrying
    exact counts and totals. Zero exchanges on the payload; only the
    16-row partials move. Rows-only; the patch sums are pinned against a
    per-image slicing recompute in pytest."""
    from plateau_gis_converter_ray.stages.decode import ImagePatches
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    patches = ds.map_batches(
        ImagePatches(grid=4), batch_format="pyarrow", batch_size=1024
    )

    import numpy as np
    import pyarrow as pa

    def prep(batch: pa.Table) -> pa.Table:
        var = batch.column("patch_var").to_numpy()
        return pa.table(
            {
                "patch_row": batch.column("patch_row"),
                "patch_col": batch.column("patch_col"),
                "flat": pa.array((var < 25.0).astype(np.int64)),
                "gray_sum": batch.column("gray_sum"),
                "n_px": batch.column("n_px"),
            }
        )

    return tree_group_agg(
        patches.map_batches(prep, batch_format="pyarrow"),
        ["patch_row", "patch_col"],
        {
            "n_patches": (None, "count"),
            "n_flat": ("flat", "sum"),
            "gray_total": ("gray_sum", "sum"),
            "px_total": ("n_px", "sum"),
        },
    )


def q_image_entropy(sf_dir: str):
    """Gray-histogram Shannon entropy per image
    (stages/decode.py::ImageEntropy) — the information-content curation
    filter. One np.add.at histogram scatter per decode stack, fixed
    bin-order entropy reduction (bit-deterministic), then a per-fmt
    reduce using only order-free aggregations (count, min, max, low-
    entropy flag sum). Rows-only; pinned against a per-image recompute."""
    from plateau_gis_converter_ray.stages.decode import ImageEntropy
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    ent = ds.map_batches(
        ImageEntropy(), batch_format="pyarrow", batch_size=1024
    )

    import numpy as np
    import pyarrow as pa

    def prep(batch: pa.Table) -> pa.Table:
        e = batch.column("entropy_nats").to_numpy()
        return pa.table(
            {
                "fmt": batch.column("fmt"),
                "low": pa.array((e < 4.0).astype(np.int64)),
                "ent_min": batch.column("entropy_nats"),
                "ent_max": batch.column("entropy_nats"),
                "levels": batch.column("n_levels"),
            }
        )

    return tree_group_agg(
        ent.map_batches(prep, batch_format="pyarrow"),
        ["fmt"],
        {
            "n": (None, "count"),
            "n_low": ("low", "sum"),
            "ent_min": ("ent_min", "min"),
            "ent_max": ("ent_max", "max"),
            "levels_total": ("levels", "sum"),
        },
    )


def q_flagship_incremental(sf_dir: str):
    """Incremental flagship (IVM): chunked tile-assignment counts fold
    into a maintained keyed parquet table via the exactly-once upsert
    ledger (pipelines/flagship.py::run_flagship_incremental); applying
    chunks one at a time == the one-shot batch aggregate (pytest-pinned
    in test_flagship_incremental.py). Returns the maintained table."""
    from plateau_gis_converter_ray.pipelines.flagship import (
        run_flagship_incremental,
    )

    return run_flagship_incremental(sf=_sf_of(sf_dir))["table"]


def q_contour_segments(sf_dir: str):
    """Marching-squares contour extraction over the red-plane DEM
    (stages/raster_ops.py::ContourSegments) — raster -> vector lines, the
    inverse pairing of polygon_rasterize. Integer 16-case segment counts
    reduce per fmt with order-free sums/max only. Rows-only; the case
    table is pinned against a scalar per-cell recompute in pytest."""
    from plateau_gis_converter_ray.stages.raster_ops import ContourSegments
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    seg = ds.map_batches(
        ContourSegments(), batch_format="pyarrow", batch_size=1024
    )
    return tree_group_agg(
        seg,
        ["fmt"],
        {
            "n": (None, "count"),
            "diag_total": ("n_diag", "sum"),
            "straight_total": ("n_straight", "sum"),
            "boundary_total": ("n_boundary", "sum"),
            "boundary_max": ("n_boundary", "max"),
        },
    )


def q_image_ssim(sf_dir: str):
    """Windowed SSIM of every decoded image vs its deterministic
    re-synthesis (stages/decode.py::ImageSSIM) — the perceptual quality
    score next to psnr_db: lossless fmts pin at exactly 1e6 ppm, the
    lossy stub lands high but below. Integer ppm output keeps every
    aggregate an order-free exact sum. Rows-only; pinned against a
    scalar per-window recompute in pytest."""
    from plateau_gis_converter_ray.stages.decode import ImageSSIM
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    ss = ds.map_batches(ImageSSIM(), batch_format="pyarrow", batch_size=1024)

    import numpy as np
    import pyarrow as pa

    def prep(batch: pa.Table) -> pa.Table:
        p = batch.column("ssim_ppm").to_numpy()
        return pa.table(
            {
                "fmt": batch.column("fmt"),
                "perfect": pa.array((p == 1_000_000).astype(np.int64)),
                "ppm": batch.column("ssim_ppm"),
                "ppm_min": batch.column("ssim_ppm"),
            }
        )

    return tree_group_agg(
        ss.map_batches(prep, batch_format="pyarrow"),
        ["fmt"],
        {
            "n": (None, "count"),
            "n_perfect": ("perfect", "sum"),
            "ppm_sum": ("ppm", "sum"),
            "ppm_min": ("ppm_min", "min"),
        },
    )


def q_raster_blob_count(sf_dir: str):
    """Connected-component blob labeling per image
    (stages/decode.py::RasterBlobCount): vectorized min-label propagation
    over the decode stack, zero exchanges. Rows-only; the labeling is
    pinned against a scalar BFS in pytest. Returns per-image rows
    (image_id, fmt, n_blobs, fg_px, max_blob) so every count is
    externally checkable."""
    from plateau_gis_converter_ray.stages.decode import RasterBlobCount

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    return ds.map_batches(
        RasterBlobCount(), batch_format="pyarrow", batch_size=1024
    )


def q_flow_accumulation(sf_dir: str):
    """D8 flow accumulation over the red-plane DEM
    (stages/raster_ops.py::FlowAccumulation): max-drop flow routing +
    elevation-banded topological accumulation sweep (<=256 vectorized
    scatter passes per stack — never per-image serial), zero exchanges.
    Rows-only (iterative algorithm, no SQL twin); pinned in pytest
    against a scalar per-cell recompute plus the mass-conservation
    invariant drained == w*h."""
    from plateau_gis_converter_ray.stages.raster_ops import FlowAccumulation

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    return ds.map_batches(
        FlowAccumulation(), batch_format="pyarrow", batch_size=1024
    )


def q_watershed_labels(sf_dir: str):
    """Watershed decomposition over the red-plane DEM
    (stages/raster_ops.py::WatershedStats): pointer doubling over the D8
    target graph labels every cell with its draining pit in
    log2(longest-flow-path) vectorized rounds; per-image basin stats,
    zero exchanges. Rows-only; pinned in pytest against scalar
    pointer-following and the n_basins == n_pits cross-invariant."""
    from plateau_gis_converter_ray.stages.raster_ops import WatershedStats

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    return ds.map_batches(
        WatershedStats(), batch_format="pyarrow", batch_size=1024
    )


def q_terrain_metrics(sf_dir: str):
    """gdaldem TRI/TPI/roughness terrain metrics
    (stages/raster_ops.py::TerrainMetrics): exact-integer 3x3 window
    statistics carried 8x/9x-scaled so no division ever happens, per-image
    summary rows, zero exchanges. Rows-only; pinned in pytest against a
    scalar window recompute."""
    from plateau_gis_converter_ray.stages.raster_ops import TerrainMetrics

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    return ds.map_batches(
        TerrainMetrics(), batch_format="pyarrow", batch_size=1024
    )


def q_viewshed(sf_dir: str):
    """R2 viewshed analysis from the center observer
    (stages/raster_ops.py::ViewshedStats): ring-by-ring running-max sight
    angles over the Franklin-Ray predecessor lines, vectorized across the
    decode stack, zero exchanges. Rows-only; pinned in pytest against a
    scalar per-cell line walk plus flat-terrain / wall-shadow analytic
    cases."""
    from plateau_gis_converter_ray.stages.raster_ops import ViewshedStats

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    return ds.map_batches(
        ViewshedStats(), batch_format="pyarrow", batch_size=1024
    )


def q_image_equalize(sf_dir: str):
    """Histogram equalization (stages/decode.py::ImageEqualize): per-image
    integer CDF remap, zero exchanges; tiny per-fmt reduce of the exact
    before/after sums + positional checksum. Rows-only; the remap is
    pinned against a naive per-image recompute in pytest."""
    from plateau_gis_converter_ray.stages.decode import ImageEqualize
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    ds = ds.map_batches(ImageEqualize(), batch_format="pyarrow", batch_size=1024)

    import numpy as np
    import pyarrow as pa

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "fmt": batch.column("fmt"),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "gray_sum": batch.column("gray_sum"),
                "eq_sum": batch.column("eq_sum"),
                "eq_checksum": batch.column("eq_checksum"),
            }
        )

    return tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["fmt"],
        {"n": ("one", "sum"), "gray_total": ("gray_sum", "sum"),
         "eq_total": ("eq_sum", "sum"),
         "eq_checksum_total": ("eq_checksum", "sum")},
    )


def q_image_letterbox(sf_dir: str):
    """Letterbox/pillarbox bar detection (stages/decode.py::ImageLetterbox):
    per-image exact uint8 border-run margins, zero exchanges (bytes never
    leave the decode task); tiny per-fmt reduce of counts + exact margin
    totals. Rows-only; the margin kernel is pinned against a naive
    per-image recompute AND synthetic known-bar images in pytest."""
    from plateau_gis_converter_ray.stages.decode import ImageLetterbox
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "fmt", "w", "h"])
    ds = ds.map_batches(ImageLetterbox(), batch_format="pyarrow", batch_size=1024)

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "fmt": batch.column("fmt"),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "boxed": batch.column("is_letterboxed").cast(pa.int64()),
                "margin_tb": pc.add(
                    batch.column("margin_top"), batch.column("margin_bottom")
                ),
                "margin_lr": pc.add(
                    batch.column("margin_left"), batch.column("margin_right")
                ),
            }
        )

    return tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["fmt"],
        {"n": ("one", "sum"), "n_letterboxed": ("boxed", "sum"),
         "margin_tb_total": ("margin_tb", "sum"),
         "margin_lr_total": ("margin_lr", "sum")},
    )


def q_zonal_stats(sf_dir: str):
    """Raster ZONAL STATISTICS: the raster<->vector clip stage's per-image
    rows aggregate per polygon (municipality) — image count, covered /
    total pixel sums, and the coverage-WEIGHTED masked mean intensity as
    an exact integer rational (num, den). One combiner-tree exchange over
    tiny per-image rows; image bytes never shuffle. Rows-only; pinned in
    pytest against a local pandas recompute of the same clip rows."""
    import numpy as np
    import pyarrow as pa

    from plateau_gis_converter_ray.sources.municipalities import (
        municipality_polygons,
    )
    from plateau_gis_converter_ray.stages.raster import RasterVectorClip
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir, ["image_id", "bytes", "w", "h", "fmt"])
    clip = ds.map_batches(
        RasterVectorClip(municipality_polygons()),
        batch_format="pyarrow",
        batch_size=512,
    )

    def prep(batch: pa.Table) -> pa.Table:
        muni = batch.column("muni_id").to_numpy(zero_copy_only=False)
        muni = np.where(muni == None, "__none__", muni).astype(object)  # noqa: E711
        cov = batch.column("covered_pixels").to_numpy()
        mmc = batch.column("masked_mean_c").to_numpy()
        wsum = np.where(mmc >= 0, mmc * cov, 0).astype(np.int64)
        wden = np.where(mmc >= 0, cov, 0).astype(np.int64)
        return pa.table(
            {
                "muni_id": pa.array(muni, pa.string()),
                "one": pa.array(np.ones(len(cov), dtype=np.int64)),
                "covered": pa.array(cov.astype(np.int64)),
                "total": pa.array(
                    batch.column("total_pixels").to_numpy().astype(np.int64)
                ),
                "wmean_num": pa.array(wsum),
                "wmean_den": pa.array(wden),
            }
        )

    return tree_group_agg(
        clip.map_batches(prep, batch_format="pyarrow"),
        ["muni_id"],
        {
            "n_images": ("one", "sum"),
            "covered_pixels": ("covered", "sum"),
            "total_pixels": ("total", "sum"),
            "wmean_num": ("wmean_num", "sum"),
            "wmean_den": ("wmean_den", "sum"),
        },
    )


def q_citygml_parse(sf_dir: str):
    """REAL per-file CityGML XML parse (source/citygml.rs:60-141 role):
    file-parallel read_binary_files -> ElementTree parse -> codelist-coded
    usage resolution, aggregated per usage (count, total height in cm).
    Rows-only (XML isn't SQL-twinnable); values pinned in pytest against
    the generator arithmetic."""
    import numpy as np
    import pyarrow as pa

    from plateau_gis_converter_ray.sources.citygml_xml import (
        ensure_citygml_corpus,
        read_citygml,
    )
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = read_citygml(ensure_citygml_corpus(_sf_of(sf_dir)))

    def scale(batch: pa.Table) -> pa.Table:
        h = np.round(batch.column("height").to_numpy() * 100).astype(np.int64)
        return pa.table({"usage": batch.column("usage"), "height_c": pa.array(h)})

    return tree_group_agg(
        ds.map_batches(scale, batch_format="pyarrow"),
        ["usage"],
        {"n_buildings": (None, "count"), "sum_height_c": ("height_c", "sum")},
    )


def q_earcut_triangulate(sf_dir: str):
    """Earcut over deterministic CONCAVE star footprints (radial polygons,
    radius varying per vertex): per footprint (pid, n_vertices,
    n_triangles, ring_area_e9, tri_area_e9) — the triangulation invariants
    (count == n-2, triangle area sum == ring area, no flipped triangles)
    are pinned in pytest; the emitted areas make the rows self-checking."""
    import ray.data
    import numpy as np
    import pyarrow as _pa

    from plateau_gis_converter_ray.kernels.clip import ring_area
    from plateau_gis_converter_ray.kernels.earcut import earcut
    from plateau_gis_converter_ray.kernels.imagecodec import splitmix64

    n_polys = max(64, int(_sf_of(sf_dir) * 64000))

    def triangulate(batch: _pa.Table) -> _pa.Table:
        # earcut is inherently per-polygon (rings are 8-16 vertices); the
        # batch I/O is zero-copy Arrow and the per-ring math stays numpy
        ids = batch.column("id").to_numpy()
        nv = np.empty(len(ids), np.int64)
        nt = np.empty(len(ids), np.int64)
        ra = np.empty(len(ids), np.int64)
        ta = np.empty(len(ids), np.int64)
        for j, pid in enumerate(ids):
            k = 8 + int(pid) % 9  # 8..16 vertices
            s = splitmix64(
                np.arange(k, dtype=np.uint64)
                ^ np.uint64(int(pid) * 0x9E37)
            )
            r = 0.4 + (s % np.uint64(1000)).astype(np.float64) / 1250.0
            ang = np.linspace(0, 2 * np.pi, k, endpoint=False)
            ring = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
            tris = earcut(ring).reshape(-1, 3)
            a = ring[tris[:, 0]]
            b = ring[tris[:, 1]]
            c = ring[tris[:, 2]]
            areas = 0.5 * (
                (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
            )
            nv[j] = k
            nt[j] = len(tris)
            ra[j] = int(round(abs(ring_area(ring)) * 1e9))
            ta[j] = int(round(areas.sum() * 1e9))
        return _pa.table(
            {
                "pid": _pa.array(ids.astype(np.int64)),
                "n_vertices": _pa.array(nv),
                "n_triangles": _pa.array(nt),
                "ring_area_e9": _pa.array(ra),
                "tri_area_e9": _pa.array(ta),
            }
        )

    return ray.data.range(n_polys).map_batches(
        triangulate, batch_format="pyarrow", batch_size=2048
    )


def q_image_dup_clusters(sf_dir: str):
    """Image near-dup clusters over the image table: multi-index-hashing
    phash Hamming pairs (exact for hamming<=3 by pigeonhole — see
    stages/dedup.py::phash_hamming_near_dup) -> distributed connected
    components -> (img, comp) cluster labels. Rows-only (the image table
    is synthesized outside the driver's DuckDB views); exactness is
    pinned by the brute-force union-find pytest."""
    from plateau_gis_converter_ray.sources.images import ensure_image_table, image_files
    from plateau_gis_converter_ray.stages.dedup import phash_hamming_near_dup
    from plateau_gis_converter_ray.stages.graph import connected_components

    pairs = phash_hamming_near_dup(image_files(ensure_image_table(_sf_of(sf_dir))))
    comp = connected_components(pairs, src="img_a", dst="img_b")
    return comp.rename_columns({"doc_id": "img"})


def q_caption_city_stats(sf_dir: str):
    """Multimodal text+pixels aggregate: decode every image, parse the
    city token out of its caption (vectorized Arrow split/list_element —
    captions follow '{adj} photo of a {noun} in {city} #{idx}'), and
    aggregate decoded channel means per city through the combiner tree.
    Means are integer-scaled (round(mean*1e6)) before the exchange so
    the distributed sum is order-free. Rows-only (image table lives
    outside the driver's DuckDB views); pinned equal to a local per-row
    decode loop by pytest."""
    import numpy as np
    import pyarrow as pa

    from plateau_gis_converter_ray.stages.decode import ImageDecodeStats
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    ds = _images(sf_dir)
    dec = ds.map_batches(
        ImageDecodeStats(verify_psnr=False),
        batch_format="pyarrow",
        batch_size=1024,
    )

    def city_and_scale(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(batch.column("caption"), " ")
        city = pc.list_element(toks, 6)
        return pa.table(
            {
                "city": city,
                "r_e6": pa.array(
                    np.round(batch.column("mean_r").to_numpy() * 1e6).astype(
                        np.int64
                    )
                ),
                "g_e6": pa.array(
                    np.round(batch.column("mean_g").to_numpy() * 1e6).astype(
                        np.int64
                    )
                ),
                "b_e6": pa.array(
                    np.round(batch.column("mean_b").to_numpy() * 1e6).astype(
                        np.int64
                    )
                ),
            }
        )

    agg = tree_group_agg(
        dec.map_batches(city_and_scale, batch_format="pyarrow"),
        ["city"],
        {
            "n": (None, "count"),
            "sr": ("r_e6", "sum"),
            "sg": ("g_e6", "sum"),
            "sb": ("b_e6", "sum"),
        },
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy()
        return pa.table(
            {
                "city": batch.column("city"),
                "n": batch.column("n"),
                "avg_r_e6": pa.array(batch.column("sr").to_numpy() // n),
                "avg_g_e6": pa.array(batch.column("sg").to_numpy() // n),
                "avg_b_e6": pa.array(batch.column("sb").to_numpy() // n),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_image_decode_quarantine(sf_dir: str):
    """Poison-row tolerant decode: deterministically corrupt ~1/8 of the
    image payloads (truncate / unknown fmt, keyed on splitmix64 of the
    stored phash), run the quarantining decode, and aggregate per-reason
    counts — the corrupt rows land in the dead-letter lane, the pipeline
    finishes, and the good rows keep the PSNR invariant. Rows-only;
    pytest pins exact counts and good-row stat equality."""
    from plateau_gis_converter_ray.kernels.imagecodec import splitmix64
    from plateau_gis_converter_ray.stages.decode import QuarantiningDecode
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    import numpy as np
    import pyarrow as pa

    def corrupt(batch: pa.Table) -> pa.Table:
        ph = batch.column("phash").to_numpy()
        with np.errstate(over="ignore"):
            h = splitmix64(ph.view(np.uint64)) % np.uint64(16)
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        for i in np.nonzero(h == 0)[0]:
            blobs[int(i)] = blobs[int(i)][: max(1, len(blobs[int(i)]) // 2)]
        for i in np.nonzero(h == 1)[0]:
            fmts[int(i)] = "jxl"  # not a codec this container has
        return (
            batch.drop_columns(["bytes", "fmt"])
            .append_column("bytes", pa.array(blobs, pa.binary()))
            .append_column("fmt", pa.array(fmts, pa.string()))
        )

    ds = (
        _images(sf_dir)
        .map_batches(corrupt, batch_format="pyarrow", batch_size=1024)
        .map_batches(QuarantiningDecode(), batch_format="pyarrow", batch_size=1024)
    )

    def flag(batch: pa.Table) -> pa.Table:
        r = batch.column("quarantine_reason").to_pylist()
        psnr = batch.column("psnr_db").to_numpy(zero_copy_only=False)
        ok = np.array([x == "" for x in r])
        return pa.table(
            {
                "reason": pa.array(["ok" if x == "" else x for x in r], pa.string()),
                "n": pa.array(np.ones(len(r), dtype=np.int64)),
                "psnr_ok": pa.array((ok & (psnr >= 40.0)).astype(np.int64)),
            }
        )

    return tree_group_agg(
        ds.map_batches(flag, batch_format="pyarrow"),
        ["reason"], {"n": ("n", "sum"), "psnr_ok": ("psnr_ok", "sum")},
    )


def q_pip_cell_join(sf_dir: str):
    """Cell-keyed hash-join spatial join (the polygon-side-at-scale plan:
    polygons replicated per overlapped mesh cell WITH their geometry in
    the row — no broadcast), exact ray-casting verify, first-match via
    min-pidx combiner. Rows-only (the municipality polygons are
    synthetic, outside DuckDB's views); pytest pins it equal to the
    broadcast-STRtree PIPAssign plan."""
    from plateau_gis_converter_ray.stages.spatial_join import pip_cell_join

    return pip_cell_join(sf_dir)


def q_clip_score_filter(sf_dir: str):
    """CLIP-style caption<->image alignment filter (encoder towers are
    deterministic fakes, decode + scoring plumbing real — zero exchanges;
    stages/clipscore.py). Rows-only; pytest pins determinism, local
    recompute equality and the tower separation property."""
    from plateau_gis_converter_ray.stages.clipscore import clip_score_filter

    return clip_score_filter(_sf_of(sf_dir))


def q_audio_features(sf_dir: str):
    """Multimodal audio stage (decode stubbed deterministically, Ray
    plumbing real — stages/av.py); clip count scales with sf."""
    from plateau_gis_converter_ray.stages.av import audio_features_ds

    return audio_features_ds(n_clips=max(32, int(_sf_of(sf_dir) * 6400)))


def q_video_frame_sample(sf_dir: str):
    from plateau_gis_converter_ray.stages.av import video_frame_sample_ds

    return video_frame_sample_ds(n_clips=max(16, int(_sf_of(sf_dir) * 3200)))


def q_audio_vad_segments(sf_dir: str):
    """Energy-threshold VAD segmentation (stages/av.py::AudioVadSegments):
    exact-integer window energies, vectorized gaps-and-islands run
    detection across the clip stack. Decoder stubbed deterministically,
    Ray plumbing real; scalar-pinned in pytest."""
    from plateau_gis_converter_ray.stages.av import audio_vad_ds

    return audio_vad_ds(n_clips=max(32, int(_sf_of(sf_dir) * 6400)))


def q_video_scene_cuts(sf_dir: str):
    """Shot-boundary detection (stages/av.py::VideoSceneCuts): per-frame
    exact integer luma sums, multiplication-only per-mille threshold on
    consecutive deltas. Stub decoder, real plumbing; scalar-pinned."""
    from plateau_gis_converter_ray.stages.av import video_scene_cuts_ds

    return video_scene_cuts_ds(n_clips=max(16, int(_sf_of(sf_dir) * 3200)))


def q_citygml_chain(sf_dir: str):
    """Transform chain off REAL parsed XML (v2 corpus: 3 feature types,
    2 LODs, nested generic-attribute trees, BuildingParts): parse ->
    flatten -> lod-filter(highest) -> dot-flatten -> golden-count
    aggregate. Rows-only; counts pinned vs generator arithmetic in
    pytest (tests/test_citygml_chain.py)."""
    from plateau_gis_converter_ray.pipelines.citygml_chain import (
        citygml_chain_counts,
    )
    from plateau_gis_converter_ray.sources.citygml_xml import (
        ensure_citygml_corpus_v2,
    )

    return citygml_chain_counts(ensure_citygml_corpus_v2(_sf_of(sf_dir)))


def q_appearance_xml_two_phase(sf_dir: str):
    """Two-phase appearance resolve off parsed XML theme stores
    (appearance.rs:17-21 theme selection + Theme map lookups) — the
    XML-driven sibling of the tabular appearance_two_phase. Rows-only;
    pinned vs generator arithmetic in pytest."""
    from plateau_gis_converter_ray.pipelines.citygml_chain import (
        appearance_resolve_xml_ds,
    )
    from plateau_gis_converter_ray.sources.citygml_xml import (
        ensure_citygml_corpus_v2,
    )

    return appearance_resolve_xml_ds(ensure_citygml_corpus_v2(_sf_of(sf_dir)))


def queries() -> dict[str, Callable[[str], Any]]:
    """Every module-level ``q_<name>`` function of the query registry
    module and of this module, keyed by ``<name>``."""
    import inspect

    from plateau_gis_converter_ray.pipelines import queries as registry

    out: dict[str, Callable[[str], Any]] = {}
    for scope in (vars(registry), globals()):
        for attr, fn in scope.items():
            # defined in that module, not imported into it
            if not (attr.startswith("q_") and inspect.isfunction(fn)
                    and fn.__module__ == scope["__name__"]):
                continue
            if attr[2:] in out:
                raise ValueError(f"query {attr[2:]!r} is defined in both modules")
            out[attr[2:]] = fn
    return out


def oracle_sql() -> dict[str, str]:
    """The module-level ``_SQL_<NAME>`` string of the query registry
    module for every query ``<name>`` that has one."""
    from plateau_gis_converter_ray.pipelines import queries as registry

    sql = {name: getattr(registry, f"_SQL_{name.upper()}", None) for name in queries()}
    return {name: s for name, s in sql.items() if isinstance(s, str)}
