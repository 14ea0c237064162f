"""Spatial join stages: broadcast PIP join + cell-keyed partition join.

The small side (PLATEAU municipality polygons — thousands, not billions) is
broadcast once via ``ray.put`` and each actor builds its ``PolygonIndex``
once in ``__init__`` (the STRtree role, SURVEY.md §2.8), exactly like the
reference shares its geoid grid via ``Arc`` across workers
(transformer/builder.rs:103,112-115). No shuffle for the join itself.

For a *large* polygon side the same kernel runs as a cell-keyed partition
join: key both sides by ``kernels.cells.cell_id``, co-partition with
``groupby(cell)``, and PIP within groups — the reference's
feature-to-tile-assignment pattern (SURVEY.md §2.5) generalized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.pip import PolygonIndex


class PIPAssign:
    """Actor-pool stage: assign each row the containing polygon id (or null).

    ``polygons_ref`` may be a ``ray.ObjectRef`` (broadcast) or a plain list
    (tests). The index is built once per actor.
    """

    def __init__(self, polygons_ref, lng_col: str = "lng", lat_col: str = "lat",
                 out_col: str = "muni_id"):
        try:
            import ray

            if isinstance(polygons_ref, ray.ObjectRef):
                polygons_ref = ray.get(polygons_ref)
        except Exception:
            pass
        self.index = PolygonIndex(polygons_ref)
        self.ids = np.array([p["id"] for p in polygons_ref], dtype=object)
        self.lng_col = lng_col
        self.lat_col = lat_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lng = batch.column(self.lng_col).to_numpy()
        lat = batch.column(self.lat_col).to_numpy()
        hit = self.index.assign(lng, lat)
        vals = np.where(hit >= 0, self.ids[np.clip(hit, 0, None)], None)
        return batch.append_column(self.out_col, pa.array(vals, pa.string()))


def mesh_assign_arith(batch: pa.Table, nx: int = 24, ny: int = 22) -> pa.Table:
    """Mesh-cell assignment by pure arithmetic (the SQL-reproducible join).

    Identical result to a PIP join against ``sources.municipalities
    .mesh_polygons(nx, ny)`` for interior points (the mesh partitions the
    bbox); the DuckDB oracle reproduces it with floor arithmetic.
    """
    from ..sources.municipalities import EAST, NORTH, SOUTH, WEST

    lng = batch.column("lng").to_numpy()
    lat = batch.column("lat").to_numpy()
    ix = np.clip(np.floor((lng - WEST) / (EAST - WEST) * nx), 0, nx - 1).astype(np.int64)
    iy = np.clip(np.floor((lat - SOUTH) / (NORTH - SOUTH) * ny), 0, ny - 1).astype(
        np.int64
    )
    # vectorized id synthesis: arrow binary_join_element_wise over the
    # stringified cell coords (no per-row Python)
    import pyarrow.compute as pc

    mesh_id = pc.binary_join_element_wise(
        "mesh_", pc.cast(pa.array(ix), pa.string()),
        "_", pc.cast(pa.array(iy), pa.string()), "",
    )
    return batch.append_column("mesh_id", mesh_id)


def cell_ix_iy(lng, lat, nx: int = 24, ny: int = 22):
    """Shared mesh-cell arithmetic (floor-scale-clip over the Japan bbox).
    pip_cell_join's correctness depends on points and polygon bboxes using
    bit-identical bucketing — one definition, three call sites."""
    from ..sources.municipalities import EAST, NORTH, SOUTH, WEST

    ix = np.clip(
        np.floor((np.asarray(lng) - WEST) / (EAST - WEST) * nx), 0, nx - 1
    ).astype(np.int64)
    iy = np.clip(
        np.floor((np.asarray(lat) - SOUTH) / (NORTH - SOUTH) * ny), 0, ny - 1
    ).astype(np.int64)
    return ix, iy


def polygon_cell_index(polygons: list[dict], nx: int = 24, ny: int = 22):
    """(cell, pidx, geometry) rows: each polygon replicated into every mesh
    cell its bbox overlaps — the build side of the cell-keyed hash join.
    Geometry travels WITH the row (flattened ring coords + ring lengths),
    so the probe side never needs a broadcast polygon table: this is the
    plan for a polygon set too large to broadcast (the STRtree-broadcast
    ``PIPAssign`` is the small-side plan; both produce identical
    assignments — pytest-pinned)."""
    from ..sources.municipalities import EAST, NORTH, SOUTH, WEST

    cells, pidxs, xs, ys, lens = [], [], [], [], []
    for idx, p in enumerate(polygons):
        pts = np.concatenate(p["rings"], axis=0)
        x0, x1 = pts[:, 0].min(), pts[:, 0].max()
        y0, y1 = pts[:, 1].min(), pts[:, 1].max()
        (cx0, cx1), (cy0, cy1) = (
            c.astype(int) for c in cell_ix_iy([x0, x1], [y0, y1], nx, ny)
        )
        # pack geometry into ONE binary blob (Arrow hash joins reject
        # list-typed payload columns): [n_rings i64][ring_lens i64...]
        # [coords f64...]
        rl = np.array([len(r) for r in p["rings"]], dtype=np.int64)
        blob = (
            np.int64(len(rl)).tobytes()
            + rl.tobytes()
            + pts.astype(np.float64).ravel().tobytes()
        )
        for cy in range(cy0, cy1 + 1):
            for cx in range(cx0, cx1 + 1):
                cells.append(cy * nx + cx)
                pidxs.append(idx)
                xs.append(blob)
    return pa.table(
        {
            "cell": pa.array(cells, pa.int64()),
            "pidx": pa.array(pidxs, pa.int64()),
            "geom": pa.array(xs, pa.binary()),
        }
    )


def pip_cell_join(sf_dir: str, nx: int = 24, ny: int = 22):
    """Cell-keyed hash-join spatial join (the north-star's
    polygon-side-at-scale plan): points get a mesh cell key by arithmetic,
    polygons are replicated per overlapped cell with their geometry in the
    row, ONE hash join on the cell key produces candidates, an exact
    ray-casting PIP verifies each candidate against its own row's
    geometry, and the first-match rule (min polygon index — the reference's
    deterministic overlap resolution) collapses through the combiner tree.
    Returns (muni_id, n, sum_value_c) aggregates, bit-identical to running
    the broadcast-STRtree ``PIPAssign`` over the same points.

    The join goes through ``auto_join``: a small polygon side (the
    in-memory cell index, its size known from block metadata) is
    broadcast to the point batches, and a polygon side past the broadcast
    limit keeps the hash-shuffle plan on the cell key.
    """
    import ray.data

    from ..kernels.pip import points_in_polygon
    from ..sources.municipalities import municipality_polygons
    from ..sources.tables import read_table
    from .geocode import add_lnglat_arith
    from .joins import auto_join
    from .treeagg import tree_group_agg

    polys = municipality_polygons()
    ids = np.array([p["id"] for p in polys], dtype=object)
    poly_cells = ray.data.from_arrow(polygon_cell_index(polys, nx, ny))

    from ..sources.municipalities import EAST, NORTH, SOUTH, WEST

    pts = read_table(sf_dir, "events", ["event_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        batch = add_lnglat_arith(batch, "event_id")
        lng = batch.column("lng").to_numpy()
        lat = batch.column("lat").to_numpy()
        ix, iy = cell_ix_iy(lng, lat, nx, ny)
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "lng": batch.column("lng"),
                "lat": batch.column("lat"),
                "value_c": pa.array(v),
                "cell": pa.array(iy * nx + ix),
            }
        )

    cand = auto_join(
        pts.map_batches(prep, batch_format="pyarrow"), poly_cells, on=("cell",)
    )

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "value_c": pa.array([], pa.int64()),
                             "pidx": pa.array([], pa.int64())})
        lng = batch.column("lng").to_numpy()
        lat = batch.column("lat").to_numpy()
        pidx = batch.column("pidx").to_numpy()
        keep = np.zeros(len(pidx), dtype=bool)
        # one vectorized PIP per distinct polygon in the batch; geometry
        # reconstructed from the row's own packed blob (no broadcast state)
        geom = batch.column("geom")
        for p in np.unique(pidx):
            rows = np.nonzero(pidx == p)[0]
            buf = geom[int(rows[0])].as_py()
            n_rings = int(np.frombuffer(buf, dtype=np.int64, count=1)[0])
            lens = np.frombuffer(buf, dtype=np.int64, count=n_rings, offset=8)
            flat = np.frombuffer(
                buf, dtype=np.float64, offset=8 * (1 + n_rings)
            ).reshape(-1, 2)
            rings, off = [], 0
            for ln in lens:
                rings.append(flat[off : off + ln])
                off += int(ln)
            keep[rows] = points_in_polygon(lng[rows], lat[rows], rings)
        t = pa.table(
            {
                "event_id": batch.column("event_id"),
                "value_c": batch.column("value_c"),
                "pidx": batch.column("pidx"),
            }
        )
        return t.filter(pa.array(keep))

    hits = cand.map_batches(verify, batch_format="pyarrow")
    # first-match rule: min polygon index per point (value_c is constant
    # per point, min() carries it through the same combiner)
    best = tree_group_agg(
        hits, ["event_id"],
        {"pidx": ("pidx", "min"), "value_c": ("value_c", "min")},
    )
    agg = tree_group_agg(
        best, ["pidx"],
        {"n": (None, "count"), "sum_value_c": ("value_c", "sum")},
    )

    def name(batch: pa.Table) -> pa.Table:
        p = batch.column("pidx").to_numpy()
        return pa.table(
            {
                "muni_id": pa.array(ids[p], pa.string()),
                "n": batch.column("n"),
                "sum_value_c": batch.column("sum_value_c"),
            }
        )

    return agg.map_batches(name, batch_format="pyarrow")
