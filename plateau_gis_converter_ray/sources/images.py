"""Deterministic synthetic image+caption table (the Lance-shaped input).

BASELINE.json ``input_hint`` mandates a table with columns
``(image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
caption:string, phash:int64)``. The ``lance`` package is not in this
container, so the table is materialized as *partitioned parquet* with exactly
that schema — the storage format is a stand-in; every pipeline reads it
through ``ray.data.read_parquet`` with column pruning, which is the same
zero-copy Arrow path ``read_lance`` would take.

Synthesis is fully deterministic in the row index (seeded splitmix64 — no RNG
state), so any scale can be regenerated bit-identically: tests verify
row N of a 600-row table equals row N of a 60 000-row table. Generation runs
through Ray Data itself (``ray.data.range(n) -> map_batches``) so it
parallelizes and streams at any scale.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..kernels.imagecodec import FORMATS, encode_image, phash64, synth_pixels

SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)

_SIZES = (32, 40, 48)  # all divisible by 8 for the 8x8 phash block means

_ADJ = ("aerial", "night", "rainy", "sunny", "crowded", "quiet", "historic", "modern")
_NOUN = ("street", "harbor", "temple", "station", "park", "bridge", "market", "tower")
_CITY = ("tokyo", "osaka", "kyoto", "nagoya", "sapporo", "fukuoka", "yokohama", "kobe")


def caption_for(idx: int) -> str:
    """Deterministic caption for row ``idx`` (pure function of the index)."""
    from ..kernels.imagecodec import splitmix64

    s = int(splitmix64(np.uint64(idx) ^ np.uint64(0xCAFE)))
    return (
        f"{_ADJ[s & 7]} photo of a {_NOUN[(s >> 3) & 7]} in "
        f"{_CITY[(s >> 6) & 7]} #{idx}"
    )


def make_rows(indices: np.ndarray) -> pa.Table:
    """Synthesize the image rows for the given row indices (vectorizable unit)."""
    from ..kernels.imagecodec import splitmix64

    ids = []
    blobs = []
    ws = []
    hs = []
    fmts = []
    caps = []
    hashes = []
    sources = source_index(indices)
    seeds = splitmix64(sources.astype(np.uint64))
    for i, src_i, s in zip(indices.tolist(), sources.tolist(), seeds.tolist()):
        # size/fmt/pixels derive from the SOURCE index so duplicate rows are
        # bit-exact copies of their source image
        w = _SIZES[s % 3]
        h = _SIZES[(s >> 2) % 3]
        fmt = FORMATS[(s >> 4) & 3]
        px = synth_pixels(src_i, w, h)
        ids.append(f"img_{i:012d}")
        blobs.append(encode_image(px, fmt))
        ws.append(w)
        hs.append(h)
        fmts.append(fmt)
        caps.append(caption_for(i))
        hashes.append(phash64(px))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(caps, pa.string()),
            "phash": pa.array(hashes, pa.int64()),
        }
    )


def rows_for_sf(sf: float) -> int:
    """Image-table scale mirroring the testdata scale factors (sf0.01 -> 6000)."""
    return max(1, int(round(600_000 * sf)))


GENERATOR_VERSION = "v6"  # bump when layout/content rules change
# (v4: phash block means switched to the exact integer-sum form;
#  v5: float32 synthesis plane — generator and decode-verifier share the
#  kernel, so the per-row equality/PSNR invariants hold unchanged;
#  v6: the bytes column is stored UNCOMPRESSED — encoded image payloads
#  snappy-compress ~4.5% yet cost a full decompress memcpy of every
#  payload byte at read time (the standard media-in-parquet layout);
#  row content is bit-identical to v5)


def source_index(idx):
    """Pixel-source row for ``idx``: every idx % 10 == 9 row duplicates the
    pixels (and phash) of idx-1 — the planted exact-duplicate fraction (~10%)
    the dedup operators are graded on (FIXTURES.md §1). Captions stay unique
    per row (duplicate images with distinct captions, like real crawls).
    Vectorized: accepts scalars or int arrays.
    """
    idx = np.asarray(idx)
    return np.where(idx % 10 == 9, idx - 1, idx)


def image_table_path(sf: float, base: str = "/tmp/plateau_ray_data") -> str:
    return os.path.join(base, f"images_{GENERATOR_VERSION}_sf{sf:g}")


def ensure_image_table(sf: float, base: str = "/tmp/plateau_ray_data") -> str:
    """Generate (once) and return the parquet directory for scale ``sf``.

    Generation is a Ray Data pipeline: ``range -> map_batches(make_rows) ->
    write_parquet`` — streamed, parallel, and deterministic per row index.
    A ``_SUCCESS`` marker makes the generation resumable/idempotent.
    """
    import ray.data

    path = image_table_path(sf, base)
    marker = os.path.join(path, "_SUCCESS")
    if os.path.exists(marker):
        return path
    n = rows_for_sf(sf)
    os.makedirs(path, exist_ok=True)

    def gen(batch: pa.Table) -> pa.Table:
        return make_rows(batch.column("id").to_numpy())

    # one ~2048-row file per block: enough files that downstream reads
    # parallelize across the whole CPU budget (a 3-file table caps the read
    # stage at 3 tasks)
    n_blocks = max(8, (n + 2047) // 2048)
    (
        ray.data.range(n, override_num_blocks=n_blocks)
        .map_batches(gen, batch_format="pyarrow", batch_size=2048)
        # bytes uncompressed (see GENERATOR_VERSION v6 note); the small
        # metadata columns keep snappy
        .write_parquet(path, compression={"bytes": "NONE"})
    )
    with open(marker, "w") as f:
        f.write(str(n))
    return path


def image_files(path: str) -> list[str]:
    """The image table's parquet files, in name order."""
    return [
        os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".parquet")
    ]


def read_images(path: str, columns: list[str] | None = None):
    """Read the image table as a Dataset, pruning columns at the read.

    Metadata-only projections (no ``bytes`` column) are tiny AT SMALL
    TABLE SIZES — Ray's 2x-CPU parallelism floor would split a 60k-row
    caption read into 200+ ~300-row blocks, and every downstream stage
    pays a task schedule per block for microseconds of compute. Cap
    those reads at 32 blocks, but ONLY when the table's measured bytes
    say the projection is actually small (<= 256 MiB of payload table
    ~= a few MiB of metadata columns): at large sf the caption
    projection is itself multi-GB and must keep Ray's sizing or the cap
    would bound cluster parallelism at 32 tasks and balloon per-block
    memory. Payload reads always keep Ray's own sizing so decode memory
    stays bounded per block."""
    import ray.data

    paths = image_files(path)
    kwargs = {}
    if columns and "bytes" not in columns:
        try:
            total = sum(os.path.getsize(p) for p in paths)
        except OSError:
            total = 1 << 62
        if total <= (256 << 20):
            kwargs["override_num_blocks"] = min(32, max(1, len(paths)))
    return ray.data.read_parquet(paths, columns=columns, **kwargs)
