"""Texture-atlas packing: fixed-capacity mosaic assembly per size class.

The GIS texture-packing analogue (3D-Tiles texture atlases / map-tile
mosaics): pack every (w, h) size class's images into grid x grid atlases
in a deterministic global order, emit one assembled RGB mosaic per atlas
plus a placement table mapping each image to (atlas_id, slot).

Distributed plan (no step holds more than one batch of pixels plus its
touched mosaics):

1. placements — a histogram-prefix DENSE RANK per size class (the
   global_shuffle_rank pattern). The placement table is METADATA-only
   (idx, w, h — image bytes never enter phase 1), so it carries the
   repo's size-gated driver fast path (the BPE-vocab precedent): under
   the gate the rank is one vectorized sort + segmented arange on the
   driver; above it, the distributed path runs per-(class, idx-bucket)
   counts through the combiner tree, broadcasts the tiny prefix table,
   and one bucket-keyed exchange assigns rank = prefix + position
   (buckets are ORDER-PRESERVING in the image index, so rank order ==
   id order). Both paths are pinned equal in pytest.
2. assembly — the placement map attaches to the bytes by BROADCAST
   (``ray.put`` of three sorted int64 arrays + a searchsorted lookup
   inside an Arrow-native map_batches, so the payload column passes
   through zero-copy; above the size gate it falls back to the
   partitioned ``auto_join``). Each batch then decodes its tiles in
   (fmt, w, h) stacks and emits per-atlas TILE-STRIP runs (decoded
   pixels, no zero padding), so the single pixel exchange — a hash
   groupby on the atlas-bucket key — moves exactly the mosaic bytes
   once, in ~#atlas rows rather than #image rows. The merge side
   concatenates each atlas's runs and paints with one fancy-index
   scatter per (w, h) class across the bucket's atlases.

Determinism: rank order is a pure function of the image index; the
mosaic buffer is zeroed so partially-filled tail atlases are stable and
the partial-merge is exact. Pinned in pytest by cropping every slot back
out of the mosaic and comparing to the independently-decoded source tile
(byte equality).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .decode import binary_views, decode_group_stack
from .treeagg import clean_arrow, tree_group_agg

# packed key layout: w and h are pixel sizes (< 2^20), atlas_id < 2^24
_KW, _KH = 44, 24

# placement fast-path gate: metadata rows only (~32 B each); above this
# the distributed histogram-rank path runs (force-tested equal in pytest)
PLACEMENT_DRIVER_LIMIT_BYTES = 256 << 20


def _pack_key(w, h, atlas_id):
    return (
        (np.asarray(w, dtype=np.int64) << _KW)
        | (np.asarray(h, dtype=np.int64) << _KH)
        | np.asarray(atlas_id, dtype=np.int64)
    )


def _rank_frame(df: pd.DataFrame, capacity: int, prefix_of) -> pd.DataFrame:
    """Vectorized rank within one idx-ordered frame: sort by (w, h, idx),
    then each (w, h) segment ranks with a segmented arange off its prefix
    (``prefix_of(w, h)`` — 0 on the driver fast path where the frame is
    global, the per-bucket histogram prefix on the distributed path)."""
    df = df.sort_values(["w", "h", "idx"], kind="mergesort")
    w = df["w"].to_numpy()
    h = df["h"].to_numpy()
    new = np.empty(len(df), dtype=bool)
    new[0] = True
    new[1:] = (w[1:] != w[:-1]) | (h[1:] != h[:-1])
    starts = np.nonzero(new)[0]
    counts = np.diff(np.append(starts, len(df)))
    base = np.array(
        [prefix_of(int(w[s]), int(h[s])) for s in starts], dtype=np.int64
    )
    rank = np.repeat(base - starts, counts) + np.arange(
        len(df), dtype=np.int64
    )
    return pd.DataFrame(
        {
            "idx": df["idx"].to_numpy(),
            "w": w,
            "h": h,
            "atlas_id": rank // capacity,
            "slot": rank % capacity,
        }
    )


def atlas_placements(
    meta_ds,
    grid: int = 8,
    n_buckets: int = 64,
    n_rows_hint: int | None = None,
    force_distributed: bool = False,
):
    """(idx, w, h, atlas_id, slot) for every image, dense-ranked per
    (w, h) size class. ``meta_ds`` is a Dataset with (image_id, w, h) —
    metadata columns only, never the payload. ``n_rows_hint`` sizes the
    order-preserving buckets (callers get it O(1) from parquet metadata);
    unset, the width covers the bench scales and the cap keeps any larger
    input correct (the last bucket just grows — the prefix table handles
    any occupancy shape, skew only costs balance, not correctness)."""
    capacity = grid * grid
    if n_buckets & (n_buckets - 1):
        raise ValueError("n_buckets must be a power of two")
    width = max(4096, -(-int(n_rows_hint) // n_buckets)) if n_rows_hint else 4096

    def keyed(batch: pa.Table) -> pa.Table:
        from .geocode import image_row_index

        idx = image_row_index(batch.column("image_id"))
        return pa.table(
            {
                "idx": pa.array(idx),
                "w": batch.column("w").cast(pa.int64()),
                "h": batch.column("h").cast(pa.int64()),
                "bucket": pa.array(np.minimum(idx // width, n_buckets - 1)),
            }
        )

    # materialized: size gate + (fast path: to_pandas | slow path: both
    # the histogram pass and the rank exchange) consume it
    meta = meta_ds.map_batches(keyed, batch_format="pyarrow").materialize()

    if (
        not force_distributed
        and (meta.size_bytes() or 0) <= PLACEMENT_DRIVER_LIMIT_BYTES
    ):
        import ray.data

        out = _rank_frame(meta.to_pandas(), capacity, lambda w, h: 0)
        return ray.data.from_arrow(clean_arrow(out.reset_index(drop=True)))

    hist = tree_group_agg(
        meta, ["w", "h", "bucket"], {"n": (None, "count")}
    ).to_pandas()
    hist = hist.sort_values(["w", "h", "bucket"])
    hist["prefix"] = (
        hist.groupby(["w", "h"])["n"].cumsum() - hist["n"]
    ).astype(np.int64)
    prefix = {
        (int(r.w), int(r.h), int(r.bucket)): int(r.prefix)
        for r in hist.itertuples()
    }

    def rank_bucket(g: pd.DataFrame) -> pa.Table:
        b = int(g["bucket"].iloc[0])
        return clean_arrow(
            _rank_frame(g, capacity, lambda w, h: prefix[(w, h, b)])
            .reset_index(drop=True)
        )

    return meta.groupby("bucket").map_groups(
        rank_bucket, batch_format="pandas"
    )


def _tile_runs(batch: pa.Table, n_buckets: int) -> pa.Table:
    """Map-side combiner: decode the batch's tiles in (fmt, w, h) stacks
    and emit one DECODED tile-strip row per contiguous atlas run — the
    exchange then carries exactly the mosaic pixels once, with no
    zero-padding and ~#atlas rows. Strips are (n, h, w, 3) uint8 in slot
    order; fmt heterogeneity inside a run is resolved here (the strip is
    format-free)."""
    akeys_u = batch.column("akey").to_numpy()
    slots_u = batch.column("slot").to_numpy().astype(np.int64)
    idx_u = batch.column("idx").to_numpy()
    ord_ = np.lexsort((slots_u, akeys_u))
    akeys = akeys_u[ord_]
    slots = slots_u[ord_]
    idxs = idx_u[ord_]
    fmts = np.asarray(batch.column("fmt").to_pylist(), dtype=object)[ord_]
    blobs_u = binary_views(batch.column("bytes"))
    n = len(akeys)

    ws = (akeys >> _KW).astype(np.int64)
    hs = ((akeys >> _KH) & ((1 << (_KW - _KH)) - 1)).astype(np.int64)
    class_key = (ws << 21) | hs

    # decode per (class, fmt) into the slot-ordered position of each tile
    strip_bytes: list[bytes] = []
    a_new = np.concatenate(([True], akeys[1:] != akeys[:-1]))
    starts = np.nonzero(a_new)[0]
    counts = np.diff(np.append(starts, n))
    tiles_of_class: dict[int, np.ndarray] = {}
    pos_of_row = np.empty(n, dtype=np.int64)
    for ck in np.unique(class_key):
        rows_c = np.nonzero(class_key == ck)[0]
        w = int(ck >> 21)
        h = int(ck & ((1 << 21) - 1))
        ordered = np.empty((len(rows_c), h, w, 3), dtype=np.uint8)
        pos_of_row[rows_c] = np.arange(len(rows_c))
        for f in np.unique(fmts[rows_c]):
            rows = rows_c[fmts[rows_c] == f]
            ordered[pos_of_row[rows]] = decode_group_stack(
                blobs_u, [int(ord_[r]) for r in rows], f, w, h
            )
        tiles_of_class[int(ck)] = ordered
    for s, c in zip(starts, counts):
        t = tiles_of_class[int(class_key[s])]
        strip_bytes.append(
            t[pos_of_row[s] : pos_of_row[s] + c].tobytes()
        )

    return clean_arrow(
        pd.DataFrame(
            {
                "akey": akeys[starts],
                "abucket": (akeys[starts] * 2654435761) % n_buckets,
                "n_tiles": counts.astype(np.int64),
                "strip": strip_bytes,
                "slots": [
                    slots[s : s + c].tolist() for s, c in zip(starts, counts)
                ],
                "image_idx": [
                    idxs[s : s + c].astype(np.int64).tolist()
                    for s, c in zip(starts, counts)
                ],
            }
        )
    )


# placement-map broadcast gate (≈24 B/image as three int64 arrays)
PLACEMENT_BROADCAST_LIMIT_BYTES = 256 << 20


def assemble_atlases(images, placements, grid: int = 8, force: str | None = None,
                     n_buckets: int = 64):
    """One mosaic row per atlas: (w, h, atlas_id, n_tiles, mosaic_w,
    mosaic_h, atlas_bytes, slots, image_ids). ``images`` must carry
    EXACTLY (image_id, bytes, fmt) — w/h ride on the placement side so the
    join has no overlapping non-key columns; ``placements`` is
    :func:`atlas_placements` output. ``force``: "broadcast" pins the
    ray.put + searchsorted attach, "shuffle" pins the partitioned
    auto_join (pytest pins both plans equal)."""
    import ray

    from .geocode import image_row_index

    pl = placements.materialize()
    use_broadcast = force != "shuffle" and (
        force == "broadcast"
        or (pl.size_bytes() or 0) <= PLACEMENT_BROADCAST_LIMIT_BYTES
    )

    if use_broadcast:
        pdf = pl.to_pandas()  # bounded by the gate
        o = np.argsort(pdf["idx"].to_numpy(), kind="mergesort")
        idx_s = pdf["idx"].to_numpy()[o]
        akey_s = _pack_key(
            pdf["w"].to_numpy()[o], pdf["h"].to_numpy()[o],
            pdf["atlas_id"].to_numpy()[o],
        )
        slot_s = pdf["slot"].to_numpy()[o].astype(np.int64)
        ref = ray.put((idx_s, akey_s, slot_s))

        def attach(batch: pa.Table) -> pa.Table:
            idx_sorted, akeys, slots = ray.get(ref)
            idx = image_row_index(batch.column("image_id"))
            p = np.searchsorted(idx_sorted, idx)  # bijection: always found
            return pa.table(
                {
                    "idx": pa.array(idx),
                    "bytes": batch.column("bytes"),  # zero-copy pass-through
                    "fmt": batch.column("fmt"),
                    "akey": pa.array(akeys[p]),
                    "slot": pa.array(slots[p]),
                }
            )

        joined = images.map_batches(attach, batch_format="pyarrow")
    else:
        from .joins import auto_join

        def add_idx(batch: pa.Table) -> pa.Table:
            idx = image_row_index(batch.column("image_id"))
            return pa.table(
                {
                    "idx": pa.array(idx),
                    "bytes": batch.column("bytes"),
                    "fmt": batch.column("fmt"),
                }
            )

        left = images.map_batches(add_idx, batch_format="pyarrow")
        j = auto_join(left, pl, on=("idx",), force="shuffle")

        def keyit(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "idx": batch.column("idx"),
                    "bytes": batch.column("bytes"),
                    "fmt": batch.column("fmt"),
                    "akey": pa.array(
                        _pack_key(
                            batch.column("w").to_numpy(),
                            batch.column("h").to_numpy(),
                            batch.column("atlas_id").to_numpy(),
                        )
                    ),
                    "slot": batch.column("slot").cast(pa.int64()),
                }
            )

        joined = j.map_batches(keyit, batch_format="pyarrow")

    runs = joined.map_batches(
        lambda b: _tile_runs(b, n_buckets), batch_format="pyarrow"
    )

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("akey", kind="mergesort").reset_index(drop=True)
        akeys = g["akey"].to_numpy()
        n_run_tiles = g["n_tiles"].to_numpy().astype(np.int64)
        a_new = np.concatenate(([True], akeys[1:] != akeys[:-1]))
        a_of_run = np.cumsum(a_new) - 1
        starts = np.nonzero(a_new)[0]
        n_atlas = len(starts)
        a_keys = akeys[starts]
        ws = (a_keys >> _KW).astype(np.int64)
        hs = ((a_keys >> _KH) & ((1 << (_KW - _KH)) - 1)).astype(np.int64)
        class_key = (ws << 21) | hs

        mosaics: list[np.ndarray] = [None] * n_atlas  # type: ignore[list-item]
        strips = g["strip"].tolist()
        slots_l = g["slots"].tolist()
        for ck in np.unique(class_key):
            a_sel = np.nonzero(class_key == ck)[0]
            w = int(ck >> 21)
            h = int(ck & ((1 << 21) - 1))
            local_of = np.full(n_atlas, -1, dtype=np.int64)
            local_of[a_sel] = np.arange(len(a_sel))
            runs_c = np.nonzero(np.isin(a_of_run, a_sel))[0]
            tiles = np.concatenate(
                [
                    np.frombuffer(strips[r], dtype=np.uint8).reshape(
                        -1, h, w, 3
                    )
                    for r in runs_c
                ]
            )
            sl = np.concatenate(
                [np.asarray(slots_l[r], dtype=np.int64) for r in runs_c]
            )
            at = local_of[
                np.repeat(a_of_run[runs_c], n_run_tiles[runs_c])
            ]
            A = np.zeros((len(a_sel), grid, h, grid, w, 3), dtype=np.uint8)
            A[at, sl // grid, :, sl % grid] = tiles
            flat = A.reshape(len(a_sel), grid * h, grid * w, 3)
            for j_, a_i in enumerate(a_sel):
                mosaics[a_i] = flat[j_]

        out = {"w": [], "h": [], "atlas_id": [], "n_tiles": [],
               "mosaic_w": [], "mosaic_h": [], "atlas_bytes": [],
               "slots": [], "image_ids": []}
        counts = np.diff(np.append(starts, len(g)))
        for a_i, (s, c) in enumerate(zip(starts, counts)):
            w, h = int(ws[a_i]), int(hs[a_i])
            slots = np.concatenate(
                [np.asarray(slots_l[r], dtype=np.int64)
                 for r in range(s, s + c)]
            )
            idxs = np.concatenate(
                [np.asarray(g["image_idx"].iloc[r], dtype=np.int64)
                 for r in range(s, s + c)]
            )
            o = np.argsort(slots, kind="mergesort")
            slots, idxs = slots[o], idxs[o]
            out["w"].append(w)
            out["h"].append(h)
            out["atlas_id"].append(int(a_keys[a_i] & ((1 << _KH) - 1)))
            out["n_tiles"].append(int(n_run_tiles[s : s + c].sum()))
            out["mosaic_w"].append(grid * w)
            out["mosaic_h"].append(grid * h)
            out["atlas_bytes"].append(mosaics[a_i].tobytes())
            out["slots"].append(slots.tolist())
            out["image_ids"].append(
                [f"img_{int(i):012d}" for i in idxs.tolist()]
            )
        return pd.DataFrame(out)

    return runs.groupby("abucket").map_groups(
        merge_bucket, batch_format="pandas"
    )


def atlas_summary(atlases) -> "pa.Table":
    """Cheap per-atlas audit rows (no pixel payload): occupancy + an exact
    integer checksum of the mosaic, so the registry query stays light
    while the round-trip pin in pytest exercises the full bytes."""

    def summarize(batch: pa.Table) -> pa.Table:
        blobs = binary_views(batch.column("atlas_bytes"))
        sums = np.array(
            [
                int(np.sum(np.frombuffer(b, dtype=np.uint8), dtype=np.int64))
                for b in blobs
            ],
            dtype=np.int64,
        )
        return pa.table(
            {
                "w": batch.column("w").cast(pa.int64()),
                "h": batch.column("h").cast(pa.int64()),
                "atlas_id": batch.column("atlas_id").cast(pa.int64()),
                "n_tiles": batch.column("n_tiles").cast(pa.int64()),
                "px_sum": pa.array(sums),
            }
        )

    return atlases.map_batches(summarize, batch_format="pyarrow")
