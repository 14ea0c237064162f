"""3D Tiles 1.1 implicit-quadtree subtree encoding (OGC 22-025r4 §8).

The explicit tile tree (`sinks/tileset.py`, the reference's
cesiumtiles/tileset.rs shape) lists every tile as JSON; at 10^12-row
scale the tile LIST is itself big data. The 1.1 spec's implicit tiling
replaces it with fixed-topology quadtree *subtrees*: the root
tileset.json carries one ``implicitTiling`` descriptor and availability
is packed bitstreams in binary ``.subtree`` files — constant-size
metadata per 4^S-tile block, written one file per subtree in parallel.

Layout implemented here (public spec, no reference counterpart — the
scale path the north star's "3D Tiles implicit-quadtree tile IDs" needs):

- Subtree root at level ``L = (z // S) * S``, local levels ``0..S-1``.
- Tile availability: ``(4^S - 1) / 3`` bits, level-major, Morton-ordered
  within a level; bit ``i`` lives in byte ``i // 8`` at bit ``i % 8``
  (spec §10.2 bitstream convention).
- Content availability: same indexing; set only where a real content
  tile (an input row) exists, while tile availability also covers every
  ancestor inside the subtree.
- Child-subtree availability: ``4^S`` bits for the subtrees rooted at
  ``L + S`` (Morton over the 2^S x 2^S local grid).
- Binary container: 24-byte header (magic ``subt``, version 1, JSON
  byte length, binary byte length, both u64) + padded JSON chunk +
  binary chunk holding the three bitstreams back to back, each 8-byte
  aligned — deterministic bytes, round-trip tested.

Distributed plan: content tiles scatter their in-subtree ancestor chain
(<= S entries per row, a bounded explode on already-REDUCED tile rows),
one distinct combiner per subtree key, then ``groupby(subtree)`` builds
each blob independently — embarrassingly parallel, no global state; a
child-subtree presence pass feeds parents their child mask via one more
(parent_key, child_bit) distinct.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pandas as pd
import pyarrow as pa

MAGIC = b"subt"


def morton2(x: np.ndarray, y: np.ndarray, bits: int) -> np.ndarray:
    """Interleave ``bits`` low bits of x (even positions) and y (odd)."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    for b in range(bits):
        out |= ((x >> b) & 1) << (2 * b)
        out |= ((y >> b) & 1) << (2 * b + 1)
    return out


def level_offset(level: int) -> int:
    """First bit index of ``level`` in the level-major availability
    bitstream: (4^level - 1) / 3."""
    return ((1 << (2 * level)) - 1) // 3


def avail_index(local_level, lx, ly) -> np.ndarray:
    """Bit index of a tile at subtree-local (level, x, y)."""
    local_level = np.asarray(local_level, dtype=np.int64)
    idx = np.empty(local_level.shape, dtype=np.int64)
    for lv in np.unique(local_level):
        m = local_level == lv
        idx[m] = level_offset(int(lv)) + morton2(
            np.asarray(lx)[m], np.asarray(ly)[m], int(lv)
        )
    return idx


def pack_bits(indices: np.ndarray, n_bits: int) -> bytes:
    """Spec bitstream: bit i -> byte i//8, bit position i%8."""
    buf = np.zeros((n_bits + 7) // 8, dtype=np.uint8)
    if len(indices):
        np.bitwise_or.at(buf, indices // 8, (1 << (indices % 8)).astype(np.uint8))
    return buf.tobytes()


def unpack_bits(buf: bytes, n_bits: int) -> np.ndarray:
    arr = np.frombuffer(buf, dtype=np.uint8)
    bits = np.unpackbits(arr, bitorder="little")[:n_bits]
    return np.nonzero(bits)[0].astype(np.int64)


def _align8(b: bytes) -> bytes:
    pad = (-len(b)) % 8
    return b + b"\x00" * pad


def encode_subtree(
    tile_bits: np.ndarray,
    content_bits: np.ndarray,
    child_bits: np.ndarray,
    subtree_levels: int,
) -> bytes:
    """One deterministic ``.subtree`` blob (header + JSON + bitstreams)."""
    n_tile = level_offset(subtree_levels)
    n_child = 1 << (2 * subtree_levels)
    streams = [
        _align8(pack_bits(np.asarray(tile_bits, np.int64), n_tile)),
        _align8(pack_bits(np.asarray(content_bits, np.int64), n_tile)),
        _align8(pack_bits(np.asarray(child_bits, np.int64), n_child)),
    ]
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in streams])])
    meta = {
        "buffers": [{"byteLength": int(offsets[-1])}],
        "bufferViews": [
            {"buffer": 0, "byteOffset": int(offsets[i]),
             "byteLength": len(streams[i])}
            for i in range(3)
        ],
        "tileAvailability": {"bitstream": 0, "availableCount":
                             int(len(np.unique(tile_bits)))},
        "contentAvailability": [{"bitstream": 1, "availableCount":
                                 int(len(np.unique(content_bits)))}],
        "childSubtreeAvailability": {"bitstream": 2, "availableCount":
                                     int(len(np.unique(child_bits)))},
    }
    js = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    js = js + b" " * ((-len(js)) % 8)  # spec: JSON chunk pads with spaces
    body = b"".join(streams)
    header = MAGIC + struct.pack("<IQQ", 1, len(js), len(body))
    return header + js + body


def decode_subtree(blob: bytes, subtree_levels: int):
    """Inverse of :func:`encode_subtree` (round-trip pin)."""
    assert blob[:4] == MAGIC
    _, jlen, blen = struct.unpack("<IQQ", blob[4:24])
    meta = json.loads(blob[24 : 24 + jlen])
    body = blob[24 + jlen : 24 + jlen + blen]
    n_tile = level_offset(subtree_levels)
    n_child = 1 << (2 * subtree_levels)
    out = []
    for view, n in zip(meta["bufferViews"], (n_tile, n_tile, n_child)):
        o = view["byteOffset"]
        out.append(unpack_bits(body[o : o + view["byteLength"]], n))
    return out[0], out[1], out[2], meta


def subtree_key(z, x, y, subtree_levels: int):
    """(root_level, root_x, root_y) of the subtree containing (z, x, y)."""
    z = np.asarray(z, dtype=np.int64)
    root = (z // subtree_levels) * subtree_levels
    sh = z - root
    return root, np.asarray(x, np.int64) >> sh, np.asarray(y, np.int64) >> sh


def implicit_subtrees(tiles_ds, subtree_levels: int = 4):
    """Encode occupied (z, x, y) square-scheme tiles into subtree blobs.

    ``tiles_ds``: Dataset of distinct occupied tiles (columns z, x, y).
    Returns a Dataset of (root_level, root_x, root_y, blob, n_tile_bits,
    n_content_bits, n_child_bits) — one row per subtree, built fully in
    parallel after one distinct exchange on (subtree, bit) pairs: the
    subtrees are spread over ``grouped_apply``'s groups, and each call
    builds every subtree of its batch.
    """
    from ..stages.treeagg import grouped_apply, key_runs, tree_group_agg

    S = int(subtree_levels)

    def scatter(batch: pa.Table) -> pa.Table:
        z = batch.column("z").to_numpy()
        x = batch.column("x").to_numpy()
        y = batch.column("y").to_numpy()
        roots, bits, kinds = [], [], []
        # full ancestor chain: availability must hold through EVERY
        # ancestor subtree (spec §8.4 — a tile is available if any
        # descendant is), so each content tile emits its ancestor at
        # every level up to the global root, routed to THAT level's
        # subtree; bounded explode (<= max z + 1 rows per reduced tile)
        for up in range(int(z.max()) + 1 if len(z) else 0):
            m = z >= up
            if not m.any():
                break
            za, xa, ya = z[m] - up, x[m] >> up, y[m] >> up
            rl, rx, ry = subtree_key(za, xa, ya, S)
            lz = za - rl
            idx = avail_index(lz, xa - (rx << lz), ya - (ry << lz))
            roots.append(np.stack([rl, rx, ry], axis=1))
            bits.append(idx)
            kinds.append(np.full(m.sum(), 1 if up == 0 else 0, np.int8))
            # a subtree-root ancestor is a child bit of its parent subtree
            pm = (lz == 0) & (rl > 0)
            if pm.any():
                prl = rl[pm] - S
                prx, pry = rx[pm] >> S, ry[pm] >> S
                cidx = morton2(rx[pm] - (prx << S), ry[pm] - (pry << S), S)
                roots.append(np.stack([prl, prx, pry], axis=1))
                bits.append(cidx)
                kinds.append(np.full(int(pm.sum()), 2, np.int8))
        if not roots:  # zero-row input batch (r4 ADVICE): typed empty out
            e = pa.array(np.empty(0, np.int64))
            return pa.table(
                {"rl": e, "rx": e, "ry": e, "bit": e, "kind": e}
            )
        r = np.concatenate(roots)
        return pa.table(
            {
                "rl": pa.array(r[:, 0]),
                "rx": pa.array(r[:, 1]),
                "ry": pa.array(r[:, 2]),
                "bit": pa.array(np.concatenate(bits)),
                "kind": pa.array(np.concatenate(kinds).astype(np.int64)),
            }
        )

    # distinct (subtree, bit, kind) — kind 0/1 collapse into tile bits,
    # kind 1 also content, kind 2 child mask; content implies tile, so
    # max(kind in {0,1}) disambiguates without a second pass
    pairs = tree_group_agg(
        tiles_ds.map_batches(scatter, batch_format="pyarrow"),
        ["rl", "rx", "ry", "bit", "kind"],
        {"n": (None, "count")},
    )

    keys = ["rl", "rx", "ry"]

    def build(g: pd.DataFrame) -> dict:
        kind = g["kind"].to_numpy()
        bit = g["bit"].to_numpy()
        tile = np.unique(bit[kind <= 1])
        content = np.unique(bit[kind == 1])
        child = np.unique(bit[kind == 2])
        rl, rx, ry = (int(v) for v in g[keys].iloc[0])
        return {
            "root_level": rl,
            "root_x": rx,
            "root_y": ry,
            "blob": encode_subtree(tile, content, child, S),
            "n_tile_bits": len(tile),
            "n_content_bits": len(content),
            "n_child_bits": len(child),
        }

    def build_batch(b: pd.DataFrame) -> pd.DataFrame:
        b, runs = key_runs(b, keys)
        return pd.DataFrame([build(b.iloc[s:e]) for s, e in runs])

    return grouped_apply(pairs, keys, build_batch)


def write_implicit_tileset(
    tiles_ds,
    out_dir: str,
    *,
    max_level: int,
    subtree_levels: int = 4,
    fingerprint=None,
    config: dict | None = None,
):
    """Write a complete implicit-tiling artifact: ``subtrees/*.subtree``
    blobs in parallel + the root ``tileset.json`` + a ``meta.json``
    completion marker written LAST (atomic via tmp + ``os.replace``).

    Resume contract (mirrors ``stages/ann_index.py``): a complete artifact
    whose ``meta.json`` carries the same ``fingerprint`` + config is
    skipped entirely — no file touched (mtime-pinned in pytest). Workers
    write blob payloads under DETERMINISTIC names (tmp + replace, so a
    replayed task is idempotent) and return commit records to the DRIVER;
    only the driver writes the manifest. NOTE: like ``sinks/compact.py``,
    payload writes from workers assume all nodes share ``out_dir``'s
    filesystem (object store / NFS on a real cluster).

    Returns ``{"out_dir", "built": bool, "subtrees": [(level,x,y,nbytes)]}``.
    """
    import os

    cfg = {"subtree_levels": int(subtree_levels), "max_level": int(max_level),
           "version": 1, **(config or {})}
    fp = fingerprint if fingerprint is not None else []
    meta_path = os.path.join(out_dir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        if meta["config"] == cfg and meta["fingerprint"] == fp:
            return {
                "out_dir": out_dir,
                "built": False,
                "subtrees": [tuple(s) for s in meta["subtrees"]],
            }

    sub_dir = os.path.join(out_dir, "subtrees")
    os.makedirs(sub_dir, exist_ok=True)
    subs = implicit_subtrees(tiles_ds, subtree_levels=subtree_levels)

    def write_blobs(batch: pd.DataFrame) -> pd.DataFrame:
        recs = []
        for _, row in batch.iterrows():
            rl, rx, ry = int(row.root_level), int(row.root_x), int(row.root_y)
            blob = row.blob
            final = os.path.join(sub_dir, f"{rl}.{rx}.{ry}.subtree")
            tmp = final + ".tmp"  # deterministic: replay overwrites itself
            with open(tmp, "wb") as f:
                f.write(blob)
            os.replace(tmp, final)
            recs.append((rl, rx, ry, len(blob)))
        return pd.DataFrame(recs, columns=["level", "x", "y", "nbytes"])

    # commit records come back to the driver through the Dataset —
    # one tiny row per subtree, never the payload
    committed = subs.map_batches(write_blobs, batch_format="pandas").to_pandas()
    records = sorted(map(tuple, committed.itertuples(index=False)))

    ts_path = os.path.join(out_dir, "tileset.json")
    tmp = ts_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(implicit_tileset_json(max_level, subtree_levels), f,
                  sort_keys=True, indent=1)
    os.replace(tmp, ts_path)

    meta = {"config": cfg, "fingerprint": fp,
            "subtrees": [list(r) for r in records]}
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f, sort_keys=True)
    os.replace(tmp, meta_path)  # atomic completion marker, written LAST
    return {"out_dir": out_dir, "built": True, "subtrees": records}


def implicit_tileset_json(max_level: int, subtree_levels: int = 4) -> dict:
    """Root tileset.json with the implicitTiling descriptor (spec §8.5)."""
    return {
        "asset": {"version": "1.1"},
        "geometricError": 1e8,
        "root": {
            "boundingVolume": {"region": [-3.142, -1.571, 3.142, 1.571, 0, 0]},
            "geometricError": 1e8,
            "refine": "REPLACE",
            "content": {"uri": "content/{level}/{x}/{y}.glb"},
            "implicitTiling": {
                "subdivisionScheme": "QUADTREE",
                "subtreeLevels": subtree_levels,
                "availableLevels": max_level + 1,
                "subtrees": {"uri": "subtrees/{level}.{x}.{y}.subtree"},
            },
        },
    }
