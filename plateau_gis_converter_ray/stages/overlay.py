"""Vector-overlay operators: line-segment intersection join and DBSCAN.

Reference semantics: the reference clips polygon rings against tile edges
with exact orientation arithmetic (`/root/reference/nusamai/src/sink/
cesiumtiles/slice.rs` segment/edge crossing tests); this module lifts the
same integer cross-product primitive into a *distributed pairwise* overlay:
given two sets of line segments (A and B), emit every properly-intersecting
(a, b) pair — the classic map-overlay join (roads x rivers).

Scale design (100 TB):
- Only SHORT segments join (bbox extent <= ``max_len``); that bound is what
  makes grid blocking exact — a segment's bbox covers at most
  ``(max_len/cell + 1)^2`` cells, so the fan-out per row is O(1).
- ONE exchange: segments replicate to the grid cells their bbox covers
  (<= 4 at cell == max_len) and pairs are enumerated per cell with a fully
  vectorized int64 straddle test (no floats, no Python pair loop).
- A pair sharing several cells is deduped by the parallel
  ``grouped_distinct`` exchange (pair keys only — endpoints never reship).
- ``cell`` is the skew lever: at real scale set it so the densest cell's
  A x B candidate matrix fits a worker heap; the enumeration is per-cell
  independent, so hot cells can also be split by salting the B side.

DBSCAN (``dbscan_points``) reuses the same grid: eps-cell replication to
the 3x3 ring co-locates every point with all its eps-neighbors, core flags
come from one vectorized distance matrix per cell, and cluster formation is
``stages/graph.py`` connected components over core-core edges. All label
plumbing (neighbor-flag attach, border resolve, final merge) is coarse-
hash bucketed exchanges with vectorized in-bucket merges — no per-key
group fan, no driver-side structure.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .treeagg import clean_arrow, grouped_apply, grouped_distinct

# integer micro-degree domain from kernels/geocode (events geocoding):
# x in [0, 240000), y in [0, 220000)
_DOM_X = 240000
_DOM_Y = 220000


def _segments_from_events(g: pd.DataFrame, max_len: int) -> pa.Table:
    """Per-user consecutive-event segments, short-filtered.

    g holds whole users (bucketed groupby); sort once, take adjacent rows
    of the same user as segments. seg_id = event_id of the start point.
    """
    g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
    u = g["user_id"].to_numpy()
    x = g["x"].to_numpy()
    y = g["y"].to_numpy()
    eid = g["event_id"].to_numpy()
    same = u[1:] == u[:-1]
    i = np.nonzero(same)[0]
    x1, y1, x2, y2 = x[i], y[i], x[i + 1], y[i + 1]
    keep = (np.abs(x2 - x1) <= max_len) & (np.abs(y2 - y1) <= max_len)
    i = i[keep]
    return pa.table(
        {
            "seg_id": pa.array(eid[i]),
            "side": pa.array((u[i] % 2).astype(np.int64)),
            "x1": pa.array(x[i]),
            "y1": pa.array(y[i]),
            "x2": pa.array(x[i + 1]),
            "y2": pa.array(y[i + 1]),
        }
    )


def _explode_to_cells(batch: pa.Table, cell: int) -> pa.Table:
    """Replicate each segment to every grid cell its bbox covers (<=4)."""
    x1 = batch.column("x1").to_numpy()
    y1 = batch.column("y1").to_numpy()
    x2 = batch.column("x2").to_numpy()
    y2 = batch.column("y2").to_numpy()
    cx0 = np.minimum(x1, x2) // cell
    cx1 = np.maximum(x1, x2) // cell
    cy0 = np.minimum(y1, y2) // cell
    cy1 = np.maximum(y1, y2) // cell
    nx = (cx1 - cx0 + 1).astype(np.int64)
    ny = (cy1 - cy0 + 1).astype(np.int64)
    n = nx * ny
    if not len(n) or int(n.sum()) == 0:
        t = pa.table({"cellk": pa.array([], pa.int64())})
        for c in batch.column_names:
            t = t.append_column(c, batch.column(c).slice(0, 0))
        return t
    from ..kernels.segments import segmented_arange

    rep = np.repeat(np.arange(len(n)), n)
    k = segmented_arange(n)  # 0..n_i-1 within each segment's cell list
    ny_r = ny[rep]
    dx = k // ny_r
    dy = k % ny_r
    cellk = (cx0[rep] + dx) * 4096 + (cy0[rep] + dy)
    t = pa.table({"cellk": pa.array(cellk)})
    for c in batch.column_names:
        t = t.append_column(c, batch.column(c).take(pa.array(rep)))
    return t


def _cell_pairs(g: pd.DataFrame) -> pa.Table:
    """All properly-intersecting A x B pairs within one grid cell.

    Vectorized (nA, nB) int64 cross products; strict straddle test both
    ways (touching / collinear contact excluded — deterministic and
    mirrored exactly by the SQL twin's sign conditions).
    """
    a = g[g["side"].to_numpy() == 0]
    b = g[g["side"].to_numpy() == 1]
    if not len(a) or not len(b):
        return pa.table(
            {"a_seg": pa.array([], pa.int64()), "b_seg": pa.array([], pa.int64())}
        )
    ax1 = a["x1"].to_numpy()[:, None]
    ay1 = a["y1"].to_numpy()[:, None]
    ax2 = a["x2"].to_numpy()[:, None]
    ay2 = a["y2"].to_numpy()[:, None]
    bx1 = b["x1"].to_numpy()[None, :]
    by1 = b["y1"].to_numpy()[None, :]
    bx2 = b["x2"].to_numpy()[None, :]
    by2 = b["y2"].to_numpy()[None, :]
    # bbox overlap prefilter
    ok = (
        (np.minimum(ax1, ax2) <= np.maximum(bx1, bx2))
        & (np.minimum(bx1, bx2) <= np.maximum(ax1, ax2))
        & (np.minimum(ay1, ay2) <= np.maximum(by1, by2))
        & (np.minimum(by1, by2) <= np.maximum(ay1, ay2))
    )
    bdx = bx2 - bx1
    bdy = by2 - by1
    adx = ax2 - ax1
    ady = ay2 - ay1
    d1 = bdx * (ay1 - by1) - bdy * (ax1 - bx1)
    d2 = bdx * (ay2 - by1) - bdy * (ax2 - bx1)
    d3 = adx * (by1 - ay1) - ady * (bx1 - ax1)
    d4 = adx * (by2 - ay1) - ady * (bx2 - ax1)
    hit = ok & (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0)))
    hit &= ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    ai, bi = np.nonzero(hit)
    return pa.table(
        {
            "a_seg": pa.array(a["seg_id"].to_numpy()[ai]),
            "b_seg": pa.array(b["seg_id"].to_numpy()[bi]),
        }
    )


def seg_intersect_join(sf_dir: str, max_len: int = 30000, cell: int = 30000):
    """Distributed segment-intersection join over per-user event tracks.

    A = segments of even users, B = odd users; output (a_seg, b_seg) for
    every properly-crossing pair. Exact — integer arithmetic end to end.
    """
    from ..sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy()
        ts = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table(
            {
                "event_id": pa.array(eid),
                "user_id": batch.column("user_id"),
                "ts_us": pa.array(ts),
                "x": pa.array((eid * 9973) % _DOM_X),
                "y": pa.array((eid * 7919) % _DOM_Y),
            }
        )

    segs = grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        lambda g: _segments_from_events(g, max_len),
    )
    exploded = segs.map_batches(
        lambda b: _explode_to_cells(b, cell), batch_format="pyarrow"
    )
    pairs = exploded.groupby("cellk").map_groups(
        _cell_pairs, batch_format="pandas"
    )
    return grouped_distinct(pairs, ["a_seg", "b_seg"])


# ---------------------------------------------------------------------------
# DBSCAN over the geocoded event points


def dbscan_points(sf_dir: str, eps: int | None = None, min_pts: int = 4,
                  limit_ids: int = 20000):
    """Distributed DBSCAN over the integer-geocoded event points.

    Grid blocking: every point lands in its eps-cell plus the 3x3 ring
    (9x replication of 24-byte rows), so each cell group holds all
    candidates for its OWN points; one vectorized distance matrix per cell
    yields exact neighbor counts (core flag, attached to every emitted
    pair for free) and the eps-pair list. Cluster formation is
    ``stages/graph.py`` connected components over core-core pairs; border
    points take the MINIMUM cluster id among their core neighbors
    (deterministic — the textbook algorithm is scan-order-dependent
    there). Noise = -1. No driver-side structure: the pair list, flag
    attach, CC and final label resolve are all grouped exchanges.

    ``limit_ids`` bounds the fixture (event_id < limit); eps is the cell
    size, so the 9x replication and per-cell matrices are the documented
    density levers at scale.
    """
    from ..sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_id"])
    if eps is None:
        # density-adaptive radius: ~5 expected neighbors per point, so the
        # fixture has a real core/border/noise mix at every sf (metadata
        # count only — no data pass)
        n_pts = min(ds.count(), limit_ids)
        eps = max(200, int(np.sqrt(5.0 * _DOM_X * _DOM_Y / (np.pi * n_pts))))

    def prep(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy()
        eid = eid[eid < limit_ids]
        x = (eid * 9973) % _DOM_X
        y = (eid * 7919) % _DOM_Y
        # replicate to 3x3 ring; owner flag marks the home cell copy
        cx = x // eps
        cy = y // eps
        n = len(eid)
        off = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
        rep = np.repeat(np.arange(n), 9)
        dx = np.tile(off[:, 0], n)
        dy = np.tile(off[:, 1], n)
        cellk = (cx[rep] + dx) * 4096 + (cy[rep] + dy)
        owner = (dx == 0) & (dy == 0)
        return pa.table(
            {
                "cellk": pa.array(cellk),
                "pid": pa.array(eid[rep]),
                "x": pa.array(x[rep]),
                "y": pa.array(y[rep]),
                "owner": pa.array(owner),
            }
        )

    def cell_bucket(g: pd.DataFrame) -> pa.Table:
        """Per-cell owner x candidate pairs for every cell in the bucket,
        via segmented enumeration — one 1-D vectorized pass, no per-cell
        Python and no (nA, nB) matrices."""
        from ..kernels.segments import segmented_arange

        order = np.argsort(g["cellk"].to_numpy(), kind="stable")
        ck = g["cellk"].to_numpy()[order]
        px = g["x"].to_numpy()[order]
        py = g["y"].to_numpy()[order]
        pid = g["pid"].to_numpy()[order]
        own = g["owner"].to_numpy()[order]
        # cell segment starts/sizes in the sorted order
        starts = np.nonzero(np.r_[True, ck[1:] != ck[:-1]])[0]
        sizes = np.diff(np.r_[starts, len(ck)])
        cell_of = np.repeat(np.arange(len(starts)), sizes)
        # each OWNER row pairs with every row of its cell
        oidx = np.nonzero(own)[0]
        m = sizes[cell_of[oidx]]
        rep = np.repeat(oidx, m)
        col = segmented_arange(m) + np.repeat(starts[cell_of[oidx]], m)
        dx = px[rep] - px[col]
        dy = py[rep] - py[col]
        near = dx * dx + dy * dy <= eps * eps  # includes self (d=0)
        rep = rep[near]
        col = col[near]
        # exact neighbor count per owner row (self included)
        owner_ord = np.searchsorted(oidx, rep)
        counts = np.bincount(owner_ord, minlength=len(oidx)).astype(np.int64)
        return pa.table(
            {
                "pid": pa.array(pid[rep]),
                "n_nbrs": pa.array(counts[owner_ord]),
                "nbr": pa.array(pid[col]),
            }
        )

    # pair rows (pid, n_nbrs, nbr): the ring replication makes every true
    # eps-neighbor visible in the home cell, counts are exact, and a point
    # is owner in exactly ONE cell so rows are already distinct.
    # keyed on cellk: whole cells co-locate, and one call handles many cells
    # vectorized (de-fanning rule — a per-cell map_groups fan was 6.0s at
    # 12.5k cells)
    pairs = grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["cellk"], cell_bucket
    ).materialize()

    # attach the NEIGHBOR's core flag: one coarse-hash exchange on nbr;
    # within a bucket the self-pair rows (pid == nbr carry the owner's
    # exact count) become a vectorized nbr -> core merge — no per-key fan.
    def attach_nbr_flag(g: pd.DataFrame) -> pa.Table:
        pid = g["pid"].to_numpy()
        nbr = g["nbr"].to_numpy()
        cnt = g["n_nbrs"].to_numpy()
        selfrow = pid == nbr
        core_ids = np.sort(pid[selfrow & (cnt >= min_pts)])
        keep = ~selfrow
        pidk, nbrk, cntk = pid[keep], nbr[keep], cnt[keep]
        pos = np.searchsorted(core_ids, nbrk)
        pos = np.clip(pos, 0, max(len(core_ids) - 1, 0))
        nbr_core = (
            core_ids[pos] == nbrk if len(core_ids)
            else np.zeros(len(nbrk), dtype=bool)
        )
        return pa.table(
            {
                "pid": pa.array(pidk),
                "own_core": pa.array(cntk >= min_pts),
                "nbr": pa.array(nbrk),
                "nbr_core": pa.array(nbr_core),
            }
        )

    flagged = grouped_apply(pairs, ["nbr"], attach_nbr_flag).materialize()

    from .graph import connected_components

    def to_edges(batch: pa.Table) -> pa.Table:
        m = (
            batch.column("own_core").to_numpy(zero_copy_only=False)
            & batch.column("nbr_core").to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "u": pa.array(batch.column("pid").to_numpy()[m]),
                "v": pa.array(batch.column("nbr").to_numpy()[m]),
            }
        )

    core_edges = flagged.map_batches(to_edges, batch_format="pyarrow")
    labels = connected_components(core_edges, src="u", dst="v")
    # labels: (doc_id, comp) one row per core node with >=1 core neighbor;
    # isolated cores (no core neighbor) are singleton clusters handled in
    # the final resolve (their own pid is the fallback label).

    # final labels in ONE coarse-hash exchange over three tagged row kinds:
    #   src=0 point rows (pid, v0 = pid if core else -1), one per point;
    #   src=1 CC core labels (pid, comp);
    #   src=2 border candidates (border pid, core neighbor id) — resolved
    #         to the neighbor's comp via a bucketed second exchange below.
    def point_rows(batch: pa.Table) -> pa.Table:
        pid = batch.column("pid").to_numpy()
        nbr = batch.column("nbr").to_numpy()
        cnt = batch.column("n_nbrs").to_numpy()
        m = pid == nbr
        return pa.table(
            {
                "pid": pa.array(pid[m]),
                "src": pa.array(np.zeros(int(m.sum()), dtype=np.int64)),
                "val": pa.array(
                    np.where(cnt[m] >= min_pts, pid[m], -1).astype(np.int64)
                ),
            }
        )

    # border -> its core neighbors' comp: bucket by the CORE id, merge the
    # label rows against the border rows vectorized, emit (bpid, comp).
    def border_rows(batch: pa.Table) -> pa.Table:
        own = batch.column("own_core").to_numpy(zero_copy_only=False)
        nbc = batch.column("nbr_core").to_numpy(zero_copy_only=False)
        m = (~own) & nbc
        return pa.table(
            {
                "k": pa.array(batch.column("nbr").to_numpy()[m]),
                "bpid": pa.array(batch.column("pid").to_numpy()[m]),
                "comp": pa.array(np.full(int(m.sum()), -1, dtype=np.int64)),
            }
        )

    def label_rows(batch: pa.Table) -> pa.Table:
        k = batch.column("doc_id").cast(pa.int64())
        return pa.table(
            {
                "k": k,
                "bpid": pa.array(np.full(batch.num_rows, -1, dtype=np.int64)),
                "comp": batch.column("comp").cast(pa.int64()),
            }
        )

    def resolve_border(g: pd.DataFrame) -> pa.Table:
        lab = g[g["bpid"].to_numpy() == -1][["k", "comp"]]
        b = g[g["bpid"].to_numpy() != -1][["k", "bpid"]]
        if not len(b):
            return pa.table(
                {"pid": pa.array([], pa.int64()),
                 "src": pa.array([], pa.int64()),
                 "val": pa.array([], pa.int64())}
            )
        m = b.merge(lab, on="k", how="left")
        # isolated core neighbor (no CC row): its comp is itself
        comp = m["comp"].fillna(m["k"]).astype(np.int64)
        return pa.table(
            {
                "pid": pa.array(m["bpid"].to_numpy()),
                "src": pa.array(np.full(len(m), 1, dtype=np.int64)),
                "val": pa.array(comp.to_numpy()),
            }
        )

    border_lab = grouped_apply(
        flagged.map_batches(border_rows, batch_format="pyarrow")
        .union(labels.map_batches(label_rows, batch_format="pyarrow")),
        ["k"], resolve_border,
    )

    def core_label_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pid": batch.column("doc_id").cast(pa.int64()),
                "src": pa.array(np.full(batch.num_rows, 1, dtype=np.int64)),
                "val": batch.column("comp").cast(pa.int64()),
            }
        )

    def final_bucket(g: pd.DataFrame) -> pa.Table:
        base = g[g["src"].to_numpy() == 0][["pid", "val"]]
        lab = g[g["src"].to_numpy() == 1][["pid", "val"]]
        lm = (
            lab.groupby("pid", as_index=False)["val"].min()
            .rename(columns={"val": "lv"})
        )
        m = base.merge(lm, on="pid", how="left")
        v = m["lv"].to_numpy()
        v0 = m["val"].to_numpy()
        out = np.where(~np.isnan(v), v, np.where(v0 >= 0, v0, -1)).astype(
            np.int64
        )
        return pa.table(
            {
                "event_id": pa.array(m["pid"].to_numpy()),
                "cluster_id": pa.array(out),
            }
        )

    return grouped_apply(
        pairs.map_batches(point_rows, batch_format="pyarrow")
        .union(labels.map_batches(core_label_rows, batch_format="pyarrow"))
        .union(border_lab),
        ["pid"], final_bucket,
    )


def dbscan_brute(points: np.ndarray, ids: np.ndarray, eps: float,
                 min_pts: int) -> dict[int, int]:
    """O(n^2) reference DBSCAN with the same deterministic tie rules
    (cluster id = min core id of the component; border -> min cluster)."""
    n = len(ids)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    near = d2 <= eps * eps
    counts = near.sum(axis=1)
    core = counts >= min_pts
    lab = {int(ids[i]): -1 for i in range(n)}
    parent = {int(ids[i]): int(ids[i]) for i in range(n) if core[i]}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        if not core[i]:
            continue
        for j in range(i + 1, n):
            if core[j] and near[i, j]:
                ri, rj = find(int(ids[i])), find(int(ids[j]))
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    for i in range(n):
        if core[i]:
            lab[int(ids[i])] = find(int(ids[i]))
    for i in range(n):
        if core[i]:
            continue
        cand = [find(int(ids[j])) for j in range(n) if core[j] and near[i, j]]
        if cand:
            lab[int(ids[i])] = min(cand)
    return lab
