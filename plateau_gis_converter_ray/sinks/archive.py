"""Hilbert-ordered single-file tile archive (PMTiles-style).

The reference sorts every finished tile by its PMTiles Hilbert id before
writing (``nusamai/src/sink/mvt/mod.rs:237-271`` feeds the writer from the
id-sorted external sort; tileid/hilbert.rs supplies the key). The engine's
analogue: encode tile payloads in parallel ``map_batches``, ``ds.sort`` on
the Hilbert ``tile_id`` (THE global all-to-all this sink exists to
exercise), then stream the sorted blocks through one writer actor
(``concurrency=1`` == the serialization contract) that appends payloads and
emits (tile_id, offset, length) directory rows; the driver folds the small
directory into the archive head.

Archive layout (little-endian):
  header:  magic 'PRTA' | version u32 | n_entries u64 | dir_bytes u64
  directory: n_entries x (tile_id i64, offset u64, length u64)  -- sorted
  payloads: concatenated tile payloads in tile_id order
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pandas as pd

MAGIC = b"PRTA"
VERSION = 1
_HEADER_FMT = "<4sIQQ"


class _PayloadAppender:
    """Single writer actor: appends sorted payload blocks, returns the
    directory rows. concurrency=1 + sorted input == in-order append."""

    def __init__(self, data_path: str):
        os.makedirs(os.path.dirname(data_path) or ".", exist_ok=True)
        # truncate once; each batch then opens append-mode, fsyncs and
        # closes, so the spill is durable before the driver re-reads it and
        # no fd outlives the batch (ADVICE r2: close/fsync the appender)
        open(data_path, "wb").close()
        self.data_path = data_path
        self.offset = 0
        self.last_tile_id = None

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        tids, offs, lens = [], [], []
        with open(self.data_path, "ab") as fh:
            for tid, payload in zip(batch["tile_id"], batch["payload"]):
                if self.last_tile_id is not None and tid < self.last_tile_id:
                    raise RuntimeError(
                        f"archive writer received out-of-order tile {tid}"
                    )
                self.last_tile_id = tid
                b = bytes(payload)
                fh.write(b)
                tids.append(int(tid))
                offs.append(self.offset)
                lens.append(len(b))
                self.offset += len(b)
            fh.flush()
            os.fsync(fh.fileno())
        return pd.DataFrame(
            {"tile_id": tids, "offset": offs, "length": lens}
        ).astype({"tile_id": "int64", "offset": "int64", "length": "int64"})


def write_tile_archive(ds, archive_path: str) -> dict:
    """``ds``: rows with int64 ``tile_id`` + binary ``payload``. Returns
    {path, n_entries, payload_bytes}.

    The single appender depends on sorted blocks ARRIVING in order, which
    the streaming executor only guarantees under ``preserve_order`` — set
    on THIS dataset's own DataContext copy (Datasets capture their context
    at creation), so concurrent pipelines in the same session keep their
    execution semantics (ADVICE r2: don't flip the session-global option).
    """
    import ray.data

    data_path = archive_path + ".data"
    sorted_ds = ds.sort("tile_id")
    sorted_ds.context.execution_options.preserve_order = True
    directory = (
        sorted_ds
        .map_batches(
            _PayloadAppender,
            fn_constructor_args=(data_path,),
            batch_format="pandas",
            # one actor with one block in flight: the pool pipelines several
            # blocks per actor by default, and those can reach it out of
            # order even under preserve_order
            compute=ray.data.ActorPoolStrategy(
                size=1, max_tasks_in_flight_per_actor=1
            ),
        )
        .to_pandas()
        .sort_values("offset")
    )
    n = len(directory)
    dir_bytes = np.empty((n, 3), dtype="<i8")
    dir_bytes[:, 0] = directory["tile_id"].to_numpy()
    dir_bytes[:, 1] = directory["offset"].to_numpy()
    dir_bytes[:, 2] = directory["length"].to_numpy()
    dir_blob = dir_bytes.tobytes()
    tmp = archive_path + ".tmp"
    with open(tmp, "wb") as out:
        out.write(struct.pack(_HEADER_FMT, MAGIC, VERSION, n, len(dir_blob)))
        out.write(dir_blob)
        with open(data_path, "rb") as data:
            while True:
                chunk = data.read(1 << 20)
                if not chunk:
                    break
                out.write(chunk)
    os.replace(tmp, archive_path)
    os.unlink(data_path)
    return {
        "path": archive_path,
        "n_entries": int(n),
        "payload_bytes": int(directory["length"].sum()),
    }


class TileArchiveReader:
    """Random access by tile id: binary search over the sorted directory."""

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as f:
            magic, version, n, dir_len = struct.unpack(
                _HEADER_FMT, f.read(struct.calcsize(_HEADER_FMT))
            )
            if magic != MAGIC or version != VERSION:
                raise ValueError("bad archive header")
            dirs = np.frombuffer(f.read(dir_len), dtype="<i8").reshape(n, 3)
        self.tile_ids = dirs[:, 0]
        self.offsets = dirs[:, 1]
        self.lengths = dirs[:, 2]
        self.payload_base = struct.calcsize(_HEADER_FMT) + dir_len

    def get(self, tile_id: int) -> bytes | None:
        i = int(np.searchsorted(self.tile_ids, tile_id))
        if i >= len(self.tile_ids) or self.tile_ids[i] != tile_id:
            return None
        with open(self.path, "rb") as f:
            f.seek(self.payload_base + int(self.offsets[i]))
            return f.read(int(self.lengths[i]))


def hilbert_ranges_for_bbox(z: int, lng0: float, lat0: float,
                            lng1: float, lat1: float) -> list[tuple[int, int]]:
    """Contiguous [lo, hi] Hilbert-id ranges covering a lng/lat bbox at
    zoom ``z`` — the PMTiles read-path primitive: because the archive is
    Hilbert-sorted, each range is one contiguous byte run on disk, and the
    Hilbert curve's locality keeps the range count small for compact
    bboxes (vs row-major ids, where every tile row is its own range)."""
    from ..kernels.hilbert import zxy_to_id
    from ..kernels.webmercator import zxy_from_lnglat_webmercator

    x0, y0 = zxy_from_lnglat_webmercator(z, lng0, lat1)  # NW corner
    x1, y1 = zxy_from_lnglat_webmercator(z, lng1, lat0)  # SE corner
    xs = np.arange(int(x0), int(x1) + 1, dtype=np.int64)
    ys = np.arange(int(y0), int(y1) + 1, dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys)
    ids = np.sort(zxy_to_id(z, gx.ravel(), gy.ravel()))
    if not len(ids):
        return []
    breaks = np.nonzero(np.diff(ids) != 1)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(ids) - 1]])
    return [(int(ids[s]), int(ids[e])) for s, e in zip(starts, ends)]


class TileArchiveBboxReader(TileArchiveReader):
    """Bbox range query: each covering Hilbert range binary-searches the
    directory and reads its payloads with ONE contiguous disk read (the
    sorted-payload layout guarantees byte contiguity within a range)."""

    def query_bbox(self, z: int, lng0: float, lat0: float,
                   lng1: float, lat1: float):
        out = []
        self.last_read_count = 0
        with open(self.path, "rb") as f:
            for lo, hi in hilbert_ranges_for_bbox(z, lng0, lat0, lng1, lat1):
                i = int(np.searchsorted(self.tile_ids, lo, side="left"))
                j = int(np.searchsorted(self.tile_ids, hi, side="right"))
                if i >= j:
                    continue
                base = int(self.offsets[i])
                total = int(self.offsets[j - 1] + self.lengths[j - 1]) - base
                f.seek(self.payload_base + base)
                blob = f.read(total)
                self.last_read_count += 1
                for k in range(i, j):
                    off = int(self.offsets[k]) - base
                    out.append(
                        (int(self.tile_ids[k]),
                         blob[off : off + int(self.lengths[k])])
                    )
        return out
