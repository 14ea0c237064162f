"""Stanford PLY binary sink — the reference's two-pass centroid writer.

Mirrors ``nusamai/src/sink/ply/mod.rs``:

- pass 1: global centroid over every triangle vertex — here a distributed
  ``map_batches`` partial-sum (int-µm accumulators, order-free and
  bit-stable per the determinism contract) folded on the driver
  (mod.rs:166-186's serialized fold, parallelized);
- pass 2: recentre, then global vertex dedup on the f64 BIT PATTERN of the
  recentred coords (the ``IndexSet<[u64;3]>`` at mod.rs:192-202) with
  first-occurrence index assignment, faces as ``uchar 3 + u32 x 3``;
- header == PLY_HEADER_TEMPLATE (mod.rs:25-34): binary_little_endian,
  double x/y/z, uchar-list faces.

The assembly pass is one writer per output file (the format is one file —
the same serialization point as the reference's writer closure); at scale
one shards by key range into multiple .ply files, like every grouped sink
here. The index-assignment dict is the insertion-ordered IndexSet role.
"""

from __future__ import annotations

import os

import numpy as np

PLY_HEADER_TEMPLATE = (
    "ply\n"
    "format binary_little_endian 1.0\n"
    "element vertex {n_verts}\n"
    "property double x\n"
    "property double y\n"
    "property double z\n"
    "element face {n_faces}\n"
    "property list uchar uint vertex_indices\n"
    "end_header\n"
)


def triangulate_polygons_ds(poly_ds):
    """Polygon rows -> triangle rows, the reference's PLY geometry pass
    (``ply/mod.rs:111-150``: geodetic->geocentric 3D ring ->
    ``project3d_to_2d`` -> earcut -> triangle soup).

    Input rows: ``ring_xyz`` flat [x0,y0,z0,...] exterior ring, optional
    ``holes_xyz`` list of flat hole rings. Output rows: ``tri_xyz`` flat
    9-float triangles — the input ``write_ply_from_triangles`` expects.
    Runs as a vectorizable ``map_batches`` stage (earcut per footprint,
    tens of vertices each; the per-batch loop is over features, not
    vertices-of-the-whole-dataset).
    """
    import pandas as pd

    from ..kernels.earcut import earcut, project3d_to_2d

    def triangulate(batch: pd.DataFrame) -> pd.DataFrame:
        has_holes = "holes_xyz" in batch.columns
        out = []
        for row_i in range(len(batch)):
            ring = np.asarray(
                batch["ring_xyz"].iloc[row_i], dtype=np.float64
            ).reshape(-1, 3)
            raw_holes = batch["holes_xyz"].iloc[row_i] if has_holes else None
            if raw_holes is None:
                raw_holes = []
            holes = [
                np.asarray(h, dtype=np.float64).reshape(-1, 3)
                for h in raw_holes
                if len(h)
            ]
            coords3d = (
                np.concatenate([ring] + holes) if holes else ring
            )
            hole_indices = []
            pos = len(ring)
            for h in holes:
                hole_indices.append(pos)
                pos += len(h)
            flat = project3d_to_2d(coords3d, len(ring))
            if flat is None:
                continue  # degenerate footprint (reference skips too)
            tris = earcut(flat, hole_indices or None).reshape(-1, 3)
            for t in tris:
                out.append(coords3d[t].reshape(-1))
        return pd.DataFrame({"tri_xyz": out})

    return poly_ds.map_batches(triangulate, batch_format="pandas")


def _tri_matrix(block) -> np.ndarray:
    """Block (Arrow or pandas) -> (3*rows, 3) float64 corner matrix."""
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    tbl = BlockAccessor.for_block(block).to_arrow()
    col = tbl.column("tri_xyz").combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks else pa.array([], pa.list_(pa.float64()))
    if isinstance(col, (pa.ListArray, pa.LargeListArray, pa.FixedSizeListArray)):
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    else:  # Ray tensor extension array (fixed-shape ndarray column)
        flat = np.stack(col.to_numpy(zero_copy_only=False)).astype(np.float64).ravel()
    return flat.reshape(-1, 3)


def write_ply_from_triangles(tri_ds, path: str) -> dict:
    """``tri_ds``: rows with ``tri_xyz`` = flat [x0,y0,z0,x1,y1,z1,x2,y2,z2]
    (one triangle per row). Returns {path, n_verts, n_faces}.

    Distributed insertion-ordered vertex dedup (the IndexSet role of
    ``ply/mod.rs:192-202``) with NO driver-resident index:

    1. per-block ``np.unique`` over the 24-byte recentred bit patterns ->
       (key, first_global_pos) candidates + (pos, key) occurrences, global
       positions from block-metadata row offsets (metadata only on the
       driver — raw tasks here because map_batches cannot see block order);
    2. one hash-partitioned group exchange takes min(first_pos) per key —
       the global first-occurrence — then a range sort by first_pos makes
       the final index ORDER; dense indices are block base + arange;
    3. faces resolve occurrence->index through one hash join and a range
       sort by stream position.

    The single writer (the format is one file — the reference's exact
    serialization point) streams the two sorted datasets batch-by-batch:
    O(batch) memory, no dict, vertices arrive pre-deduped and pre-ordered.
    Bytes are identical to the sequential IndexSet pass (pytest-pinned):
    int64 views of the f8 bit patterns round-trip exactly.
    """
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data

    mat = tri_ds.materialize()

    # pass 1: exact integer-µm centroid partials, distributed
    def partial(batch) -> "pd.DataFrame":
        tri = _tri_matrix(batch)
        um = np.round(tri * 1e6).astype(np.int64)
        return pd.DataFrame(
            {
                "sx": [int(um[:, 0].sum())],
                "sy": [int(um[:, 1].sum())],
                "sz": [int(um[:, 2].sum())],
                "n": [len(um)],
            }
        )

    parts = mat.map_batches(partial, batch_format="pandas").to_pandas()
    n_total = int(parts["n"].sum())
    n_faces = n_total // 3
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    if n_total == 0:
        with open(tmp, "wb") as f:
            f.write(
                PLY_HEADER_TEMPLATE.format(n_verts=0, n_faces=0).encode("ascii")
            )
        os.replace(tmp, path)
        return {"path": path, "n_verts": 0, "n_faces": 0}
    mu = np.array(
        [parts["sx"].sum(), parts["sy"].sum(), parts["sz"].sum()],
        dtype=np.float64,
    ) / (1e6 * n_total)

    # block refs + global vertex-position offsets from metadata only
    refs, rows = [], []
    for bu in mat.iter_internal_ref_bundles():
        for ref, md in zip(bu.block_refs, bu.metadata):
            refs.append(ref)
            rows.append(md.num_rows)
    vbase = np.concatenate([[0], np.cumsum(rows)[:-1]]).astype(np.int64) * 3

    @ray.remote(num_returns=2)
    def block_keys(block, base: int, mu_arr: np.ndarray):
        rec = _tri_matrix(block) - mu_arr[None, :]
        ki = np.ascontiguousarray(rec, dtype="<f8").view("<i8")  # bit patterns
        s = ki.view([("k0", "<i8"), ("k1", "<i8"), ("k2", "<i8")]).ravel()
        uniq, first_idx = np.unique(s, return_index=True)
        distinct = pa.table(
            {
                "k0": pa.array(uniq["k0"]),
                "k1": pa.array(uniq["k1"]),
                "k2": pa.array(uniq["k2"]),
                "first_pos": pa.array(base + first_idx.astype(np.int64)),
            }
        )
        occ = pa.table(
            {
                "pos": pa.array(base + np.arange(len(s), dtype=np.int64)),
                "k0": pa.array(ki[:, 0].copy()),
                "k1": pa.array(ki[:, 1].copy()),
                "k2": pa.array(ki[:, 2].copy()),
            }
        )
        return distinct, occ

    out_refs = [
        block_keys.remote(ref, int(vbase[i]), mu) for i, ref in enumerate(refs)
    ]
    distinct_ds = ray.data.from_arrow_refs([r for r, _ in out_refs])
    occ_ds = ray.data.from_arrow_refs([o for _, o in out_refs])

    from ..stages.joins import auto_join
    from ..stages.treeagg import tree_group_agg

    g = tree_group_agg(
        distinct_ds, ["k0", "k1", "k2"], {"first_pos": ("first_pos", "min")}
    )
    gsort = g.sort("first_pos").materialize()
    grefs, grows = [], []
    for bu in gsort.iter_internal_ref_bundles():
        for ref, md in zip(bu.block_refs, bu.metadata):
            grefs.append(ref)
            grows.append(md.num_rows)
    n_verts = int(sum(grows))
    gbase = np.concatenate([[0], np.cumsum(grows)[:-1]]).astype(np.int64)

    @ray.remote
    def assign_idx(block, base: int):
        tbl = pa.table(block) if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        return pa.table(
            {
                "k0": tbl.column("k0"),
                "k1": tbl.column("k1"),
                "k2": tbl.column("k2"),
                "vidx": pa.array(base + np.arange(tbl.num_rows, dtype=np.int64)),
            }
        )

    mapping = ray.data.from_arrow_refs(
        [assign_idx.remote(ref, int(gbase[i])) for i, ref in enumerate(grefs)]
    )
    faces = auto_join(
        occ_ds, mapping, on=("k0", "k1", "k2")
    ).select_columns(["pos", "vidx"]).sort("pos")

    with open(tmp, "wb") as f:
        f.write(
            PLY_HEADER_TEMPLATE.format(
                n_verts=n_verts, n_faces=n_faces
            ).encode("ascii")
        )
        # vertex payload: first_pos order == insertion order; the int64
        # key columns ARE the little-endian f8 bytes
        for batch in gsort.iter_batches(batch_size=65536, batch_format="pandas"):
            ki = np.column_stack(
                [batch["k0"].to_numpy(), batch["k1"].to_numpy(),
                 batch["k2"].to_numpy()]
            ).astype("<i8")
            f.write(np.ascontiguousarray(ki).tobytes())
        # faces: (pos, vidx) in stream order; batches chunk at arbitrary
        # boundaries so carry the partial triangle across them
        carry = np.empty(0, dtype=np.uint32)
        for batch in faces.iter_batches(batch_size=65536, batch_format="pandas"):
            v = np.concatenate(
                [carry, batch["vidx"].to_numpy().astype(np.uint32)]
            )
            nfull = len(v) // 3
            tri_idx = v[: nfull * 3].reshape(-1, 3)
            carry = v[nfull * 3 :]
            rec = np.empty((nfull, 13), dtype=np.uint8)
            rec[:, 0] = 3
            rec[:, 1:] = tri_idx.astype("<u4").view(np.uint8).reshape(nfull, 12)
            f.write(rec.tobytes())
        assert len(carry) == 0, "face stream not a multiple of 3"
    os.replace(tmp, path)
    return {"path": path, "n_verts": n_verts, "n_faces": n_faces}


def read_ply(path: str) -> dict:
    """Minimal binary PLY reader for the round-trip tests."""
    with open(path, "rb") as f:
        data = f.read()
    head_end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:head_end].decode("ascii").splitlines()
    n_verts = n_faces = 0
    for line in header:
        if line.startswith("element vertex"):
            n_verts = int(line.split()[-1])
        elif line.startswith("element face"):
            n_faces = int(line.split()[-1])
    pos = head_end
    verts = np.frombuffer(data, "<f8", n_verts * 3, pos).reshape(-1, 3)
    pos += n_verts * 24
    faces = np.empty((n_faces, 3), dtype=np.uint32)
    for i in range(n_faces):
        assert data[pos] == 3
        faces[i] = np.frombuffer(data, "<u4", 3, pos + 1)
        pos += 13
    return {"header": header, "vertices": verts, "faces": faces}
