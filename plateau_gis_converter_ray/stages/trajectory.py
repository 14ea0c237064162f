"""Trajectory operators: rectilinear map-matching and DTW similarity join.

Reference semantics: the reference's geometry pipeline snaps/clips vertex
streams against axis-aligned boundaries with exact integer arithmetic
(`/root/reference/nusamai/src/sink/cesiumtiles/slice.rs` — axis-parallel
edge clipping); this module applies the same exact-integer point-vs-
axis-aligned-segment primitive to the classic GIS *map-matching* problem
(snap GPS points to a road network), and adds a DTW (dynamic-time-warping)
track-similarity join — the trajectory-mining operator a movement-data
pipeline needs next to it.

Scale design (100 TB):
- ``snap_to_roads``: the road network is the SMALL side (derived here from
  a bounded set of "road" users) — broadcast once via ``ray.put``, probed
  per batch with one vectorized (batch x segments) int64 distance matrix.
  ZERO exchanges; points never move. At real scale the road set shards by
  region tile and each point batch probes only its tile's segments (the
  same broadcast-or-partition decision the join planner makes).
- ``track_dtw_pairs``: tracks are fixed-length (first L points), so a
  track is ONE fixed-width row; candidate pairs are blocked by the track's
  start cell (the quadratic-cost lever — shrink the cell to bound the
  per-cell pair count) and the 8x8 DP runs vectorized ACROSS all pairs of
  a cell (L^2 iterations of pair-wide numpy ops, no per-pair Python DP).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .treeagg import grouped_apply

# integer micro-degree geocode shared with stages/overlay.py and the SQL
# twins: x = (event_id * 9973) % 240000, y = (event_id * 7919) % 220000
_DOM_X = 240000
_DOM_Y = 220000
ROAD_USERS = 4  # user_id < ROAD_USERS form the road network (bounded)


def _xy(eid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (eid * 9973) % _DOM_X, (eid * 7919) % _DOM_Y


def build_road_segments(ev: pd.DataFrame) -> pd.DataFrame:
    """Rectilinear road segments from the road users' consecutive points.

    Each consecutive pair (p1, p2) decomposes L-shaped: a horizontal leg
    at y1 (sid = 2 * start event_id) when x1 != x2, then a vertical leg at
    x2 (sid = 2 * start event_id + 1) when y1 != y2 — the Manhattan
    polyline a grid-snapped road network is. Columns: sid, axis (0 = clamp
    on x / offset on y, 1 = the converse), lo, hi, c.
    """
    ev = ev.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
    u = ev["user_id"].to_numpy()
    eid = ev["event_id"].to_numpy()
    x, y = _xy(eid)
    same = u[1:] == u[:-1]
    i = np.nonzero(same)[0]
    x1, y1, x2, y2 = x[i], y[i], x[i + 1], y[i + 1]
    sid0 = eid[i] * 2
    h = x1 != x2
    v = y1 != y2
    parts = [
        pd.DataFrame(
            {
                "sid": sid0[h],
                "axis": np.zeros(int(h.sum()), dtype=np.int64),
                "lo": np.minimum(x1[h], x2[h]),
                "hi": np.maximum(x1[h], x2[h]),
                "c": y1[h],
            }
        ),
        pd.DataFrame(
            {
                "sid": sid0[v] + 1,
                "axis": np.ones(int(v.sum()), dtype=np.int64),
                "lo": np.minimum(y1[v], y2[v]),
                "hi": np.maximum(y1[v], y2[v]),
                "c": x2[v],
            }
        ),
    ]
    out = pd.concat(parts, ignore_index=True).sort_values("sid")
    return out.reset_index(drop=True)


def snap_points_block(batch: pa.Table, roads: dict) -> pa.Table:
    """Exact nearest road segment per point (one (n x S) int64 matrix).

    d2 to an axis-aligned segment is INTEGER: clamp overshoot along the
    segment axis squared plus the perpendicular offset squared. Argmin
    tie-breaks on sid ascending via a second masked pass (both passes
    vectorized; no composite-key packing, so no id-width assumption).
    """
    eid = batch.column("event_id").to_numpy()
    px, py = _xy(eid)
    main = np.where(roads["axis"] == 0, 0, 1)  # 0: clamp x, 1: clamp y
    lo = roads["lo"][None, :]
    hi = roads["hi"][None, :]
    c = roads["c"][None, :]
    sid = roads["sid"]
    pm = np.where(main[None, :] == 0, px[:, None], py[:, None])
    po = np.where(main[None, :] == 0, py[:, None], px[:, None])
    clamp = np.maximum(np.maximum(lo - pm, pm - hi), 0)
    off = po - c
    d2 = clamp * clamp + off * off
    best = d2.min(axis=1)
    sid_m = np.where(d2 == best[:, None], sid[None, :], np.iinfo(np.int64).max)
    return pa.table(
        {
            "event_id": pa.array(eid),
            "road_seg": pa.array(sid_m.min(axis=1)),
            "d2": pa.array(best),
        }
    )


def snap_to_roads(sf_dir: str, sample_mod: int = 4):
    """Map-matching: snap every sampled point (user >= ROAD_USERS,
    event_id % sample_mod == 0) to its exactly-nearest rectilinear road
    segment. Road side reads once, builds on the driver (bounded by
    construction), broadcasts via ``ray.put``; the point side streams."""
    import ray

    from ..sources.tables import read_table

    ev = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep_roads(batch: pa.Table) -> pa.Table:
        m = batch.column("user_id").to_numpy() < ROAD_USERS
        t = batch.filter(pa.array(m))
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
            }
        )

    road_ev = ev.map_batches(prep_roads, batch_format="pyarrow").to_pandas()
    seg = build_road_segments(road_ev)
    roads_ref = ray.put(
        {k: seg[k].to_numpy() for k in ("sid", "axis", "lo", "hi", "c")}
    )

    def snap(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy()
        eid = batch.column("event_id").to_numpy()
        m = (u >= ROAD_USERS) & (eid % sample_mod == 0)
        return snap_points_block(batch.filter(pa.array(m)), ray.get(roads_ref))

    return ev.map_batches(snap, batch_format="pyarrow")


def road_corridor_count(sf_dir: str, radius: int = 3000,
                        sample_mod: int = 4):
    """Buffer/corridor analysis: per road segment, the count of sampled
    points within ``radius`` (exact integer d2 <= radius^2 against the
    broadcast road set — the same zero-exchange probe as snap_to_roads,
    but many-to-many: a point can fall in several corridors). Output only
    segments with >= 1 point (inner-join semantics). One tiny combiner
    exchange over (road_seg, partial count) rows."""
    import ray

    from ..sources.tables import read_table
    from .treeagg import tree_group_agg

    ev = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep_roads(batch: pa.Table) -> pa.Table:
        m = batch.column("user_id").to_numpy() < ROAD_USERS
        t = batch.filter(pa.array(m))
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
            }
        )

    road_ev = ev.map_batches(prep_roads, batch_format="pyarrow").to_pandas()
    seg = build_road_segments(road_ev)
    roads_ref = ray.put(
        {k: seg[k].to_numpy() for k in ("sid", "axis", "lo", "hi", "c")}
    )
    r2 = radius * radius

    def probe(batch: pa.Table) -> pa.Table:
        roads = ray.get(roads_ref)
        u = batch.column("user_id").to_numpy()
        eid = batch.column("event_id").to_numpy()
        m = (u >= ROAD_USERS) & (eid % sample_mod == 0)
        eid = eid[m]
        px, py = _xy(eid)
        main = roads["axis"][None, :]
        lo = roads["lo"][None, :]
        hi = roads["hi"][None, :]
        c = roads["c"][None, :]
        pm = np.where(main == 0, px[:, None], py[:, None])
        po = np.where(main == 0, py[:, None], px[:, None])
        clamp = np.maximum(np.maximum(lo - pm, pm - hi), 0)
        off = po - c
        hit = clamp * clamp + off * off <= r2
        # partial per-segment counts: one row per segment with >=1 hit
        cnt = hit.sum(axis=0, dtype=np.int64)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {
                "road_seg": pa.array(roads["sid"][nz]),
                "n_pts": pa.array(cnt[nz]),
            }
        )

    return tree_group_agg(
        ev.map_batches(probe, batch_format="pyarrow"),
        ["road_seg"], {"n_pts": ("n_pts", "sum")},
    )


# ---------------------------------------------------------------------------
# DTW track-similarity join

DTW_L = 8  # fixed track length (first L points of users with >= L events)
DTW_CELL = 30000  # start-cell blocking size — the pair-count lever


def tracks_fixed(g: pd.DataFrame, L: int = DTW_L) -> pa.Table:
    """One fixed-width row per user with >= L events: the first L geocoded
    points (ts, event_id order) flattened to 2L int64 columns + the
    start-cell blocking key."""
    g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
    u = g["user_id"].to_numpy()
    eid = g["event_id"].to_numpy()
    starts = np.nonzero(np.r_[True, u[1:] != u[:-1]])[0]
    sizes = np.diff(np.r_[starts, len(u)])
    keep = sizes >= L
    starts = starts[keep]
    take = (starts[:, None] + np.arange(L)[None, :]).ravel()
    x, y = _xy(eid[take])
    x = x.reshape(-1, L)
    y = y.reshape(-1, L)
    cols = {"user_id": pa.array(u[starts])}
    cols["cell"] = pa.array((x[:, 0] // DTW_CELL) * 16 + y[:, 0] // DTW_CELL)
    for j in range(L):
        cols[f"x{j}"] = pa.array(x[:, j])
        cols[f"y{j}"] = pa.array(y[:, j])
    return pa.table(cols)


def dtw_pairs_cell(g: pd.DataFrame, L: int = DTW_L) -> pa.Table:
    """All (a < b) track pairs of one start cell with their exact DTW
    distance (squared-euclidean step cost, standard three-move recurrence).
    The DP runs over L x L iterations of PAIR-WIDE numpy ops."""
    n = len(g)
    if n < 2:
        return pa.table(
            {
                "user_a": pa.array([], pa.int64()),
                "user_b": pa.array([], pa.int64()),
                "dtw_d2": pa.array([], pa.int64()),
            }
        )
    g = g.sort_values("user_id", kind="stable")
    uid = g["user_id"].to_numpy()
    X = np.stack([g[f"x{j}"].to_numpy() for j in range(L)], axis=1)
    Y = np.stack([g[f"y{j}"].to_numpy() for j in range(L)], axis=1)
    ai, bi = np.triu_indices(n, k=1)
    # cost[p, i, j] = d2(track_a[i], track_b[j]) for every pair p
    dx = X[ai][:, :, None] - X[bi][:, None, :]
    dy = Y[ai][:, :, None] - Y[bi][:, None, :]
    cost = dx * dx + dy * dy
    P = len(ai)
    INF = np.int64(1) << 60
    dp = np.full((P, L + 1, L + 1), INF, dtype=np.int64)
    dp[:, 0, 0] = 0
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            prev = np.minimum(
                np.minimum(dp[:, i - 1, j], dp[:, i, j - 1]), dp[:, i - 1, j - 1]
            )
            dp[:, i, j] = cost[:, i - 1, j - 1] + prev
    return pa.table(
        {
            "user_a": pa.array(uid[ai]),
            "user_b": pa.array(uid[bi]),
            "dtw_d2": pa.array(dp[:, L, L]),
        }
    )


def dtw_brute(a: np.ndarray, b: np.ndarray) -> int:
    """O(L^2) scalar reference DTW (same recurrence) for the pytest pin."""
    L = len(a)
    INF = 1 << 60
    dp = [[INF] * (L + 1) for _ in range(L + 1)]
    dp[0][0] = 0
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            c = (int(a[i - 1][0]) - int(b[j - 1][0])) ** 2 + (
                int(a[i - 1][1]) - int(b[j - 1][1])
            ) ** 2
            dp[i][j] = c + min(dp[i - 1][j], dp[i][j - 1], dp[i - 1][j - 1])
    return dp[L][L]


def _fixed_tracks(sf_dir: str):
    """:func:`tracks_fixed` rows of every user, built in one keyed
    exchange on user_id."""
    from ..sources.tables import read_table

    ev = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
            }
        )

    return grouped_apply(
        ev.map_batches(prep, batch_format="pyarrow"), ["user_id"], tracks_fixed
    )


def track_dtw_pairs(sf_dir: str):
    """DTW similarity join over user tracks: fixed-length tracks in one
    bucketed exchange, start-cell blocking, vectorized pair DP per cell."""
    tracks = _fixed_tracks(sf_dir)
    return tracks.groupby("cell").map_groups(
        dtw_pairs_cell, batch_format="pandas"
    )


def frechet_pairs_cell(g: pd.DataFrame, L: int = DTW_L) -> pa.Table:
    """All (a < b) track pairs of one start cell with their exact discrete
    Fréchet distance (squared-euclidean point cost). Same pair-wide
    vectorized DP shape as :func:`dtw_pairs_cell`, different recurrence:
    dp[i,j] = max(cost[i,j], min(dp[i-1,j], dp[i,j-1], dp[i-1,j-1])) —
    the minimax "dog leash" coupling instead of DTW's additive warp."""
    n = len(g)
    if n < 2:
        return pa.table(
            {
                "user_a": pa.array([], pa.int64()),
                "user_b": pa.array([], pa.int64()),
                "frechet_d2": pa.array([], pa.int64()),
            }
        )
    g = g.sort_values("user_id", kind="stable")
    uid = g["user_id"].to_numpy()
    X = np.stack([g[f"x{j}"].to_numpy() for j in range(L)], axis=1)
    Y = np.stack([g[f"y{j}"].to_numpy() for j in range(L)], axis=1)
    ai, bi = np.triu_indices(n, k=1)
    dx = X[ai][:, :, None] - X[bi][:, None, :]
    dy = Y[ai][:, :, None] - Y[bi][:, None, :]
    cost = dx * dx + dy * dy
    P = len(ai)
    INF = np.int64(1) << 60
    dp = np.full((P, L + 1, L + 1), INF, dtype=np.int64)
    dp[:, 0, 0] = 0
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            prev = np.minimum(
                np.minimum(dp[:, i - 1, j], dp[:, i, j - 1]), dp[:, i - 1, j - 1]
            )
            dp[:, i, j] = np.maximum(cost[:, i - 1, j - 1], prev)
    return pa.table(
        {
            "user_a": pa.array(uid[ai]),
            "user_b": pa.array(uid[bi]),
            "frechet_d2": pa.array(dp[:, L, L]),
        }
    )


def hausdorff_pairs_cell(g: pd.DataFrame, L: int = DTW_L) -> pa.Table:
    """All (a < b) track pairs of one start cell with their exact SYMMETRIC
    Hausdorff distance (squared-euclidean): max over the two directed
    max-of-min point distances. No DP — one (pairs x L x L) cost tensor,
    min over each axis, max of the two directed terms. Unlike DTW/Fréchet
    this is order-free over the point sets, so it IS SQL-expressible and
    the query is oracle-gated."""
    n = len(g)
    if n < 2:
        return pa.table(
            {
                "user_a": pa.array([], pa.int64()),
                "user_b": pa.array([], pa.int64()),
                "hausdorff_d2": pa.array([], pa.int64()),
            }
        )
    g = g.sort_values("user_id", kind="stable")
    uid = g["user_id"].to_numpy()
    X = np.stack([g[f"x{j}"].to_numpy() for j in range(L)], axis=1)
    Y = np.stack([g[f"y{j}"].to_numpy() for j in range(L)], axis=1)
    ai, bi = np.triu_indices(n, k=1)
    dx = X[ai][:, :, None] - X[bi][:, None, :]
    dy = Y[ai][:, :, None] - Y[bi][:, None, :]
    cost = dx * dx + dy * dy
    h_ab = cost.min(axis=2).max(axis=1)
    h_ba = cost.min(axis=1).max(axis=1)
    return pa.table(
        {
            "user_a": pa.array(uid[ai]),
            "user_b": pa.array(uid[bi]),
            "hausdorff_d2": pa.array(np.maximum(h_ab, h_ba)),
        }
    )


def track_hausdorff_pairs(sf_dir: str):
    """Symmetric-Hausdorff track-similarity join: same plan shape as
    :func:`track_dtw_pairs` (fixed-width track rows, start-cell blocking),
    minimax point-set distance per pair. Oracle-gated — the SQL twin
    rebuilds the tracks with ROW_NUMBER and takes the same max-of-mins."""
    tracks = _fixed_tracks(sf_dir)
    return tracks.groupby("cell").map_groups(
        hausdorff_pairs_cell, batch_format="pandas"
    )


def frechet_brute(a: np.ndarray, b: np.ndarray) -> int:
    """O(L^2) scalar reference discrete Fréchet (same recurrence) for the
    pytest pin."""
    L = len(a)
    INF = 1 << 60
    dp = [[INF] * (L + 1) for _ in range(L + 1)]
    dp[0][0] = 0
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            c = (int(a[i - 1][0]) - int(b[j - 1][0])) ** 2 + (
                int(a[i - 1][1]) - int(b[j - 1][1])
            ) ** 2
            dp[i][j] = max(c, min(dp[i - 1][j], dp[i][j - 1], dp[i - 1][j - 1]))
    return dp[L][L]


def track_frechet_pairs(sf_dir: str):
    """Discrete-Fréchet similarity join over user tracks: identical plan
    shape to :func:`track_dtw_pairs` (one bucketed exchange to build
    fixed-width track rows, start-cell blocking, pair-wide vectorized DP
    per cell) with the minimax coupling recurrence. Scale lever is the
    same DTW_CELL blocking size; results are exact int64 (squared units)
    so the pytest brute pin is bit-identical."""
    tracks = _fixed_tracks(sf_dir)
    return tracks.groupby("cell").map_groups(
        frechet_pairs_cell, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Mobility wave: dwell detection, OD matrix, coverage gaps


def _prep_cells(batch: pa.Table, cell_w: int, cell_h: int) -> pa.Table:
    """Point rows with grid-cell assignment."""
    eid = batch.column("event_id").to_numpy()
    u = batch.column("user_id").to_numpy()
    x, y = _xy(eid)
    return pa.table(
        {
            "user_id": pa.array(u),
            "event_id": pa.array(eid),
            "us": batch.column("ts").cast(pa.int64()),
            "cx": pa.array(x // cell_w),
            "cy": pa.array(y // cell_h),
        }
    )


def dwell_segments(sf_dir: str, cell_w: int = 60000, cell_h: int = 55000,
                   min_pts: int = 2):
    """Stay-point (dwell) detection: maximal runs of consecutive points
    (per user, (ts, event_id) order) inside the SAME grid cell, kept when
    the run has >= ``min_pts`` points. The classic trajectory-mining
    gaps-and-islands: one keyed exchange on user_id, inside a group
    the run segmentation is a shifted compare + cumsum + bincount — no
    per-user Python. The group count follows the input's blocks, so
    per-group memory stays about one block."""
    from ..sources.tables import read_table

    ev = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def sweep(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "us", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        us = g["us"].to_numpy()
        cx = g["cx"].to_numpy()
        cy = g["cy"].to_numpy()
        new_user = np.r_[True, u[1:] != u[:-1]]
        brk = new_user | np.r_[
            True, (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
        ]
        run = np.cumsum(brk) - 1
        n_runs = int(run[-1]) + 1 if len(run) else 0
        n_pts = np.bincount(run, minlength=n_runs).astype(np.int64)
        starts = np.nonzero(brk)[0]
        ends = np.r_[starts[1:] - 1, len(u) - 1] if len(starts) else starts
        keep = n_pts >= min_pts
        return pa.table(
            {
                "user_id": pa.array(u[starts][keep]),
                "cell_x": pa.array(cx[starts][keep]),
                "cell_y": pa.array(cy[starts][keep]),
                "n_pts": pa.array(n_pts[keep]),
                "start_us": pa.array(us[starts][keep]),
                "end_us": pa.array(us[ends][keep]),
            }
        )

    return grouped_apply(
        ev.map_batches(
            lambda b: _prep_cells(b, cell_w, cell_h), batch_format="pyarrow"
        ),
        ["user_id"], sweep,
    )


def od_matrix(sf_dir: str, cell_w: int = 60000, cell_h: int = 55000,
              gap_us: int = 30 * 60 * 1_000_000):
    """Origin-destination matrix: sessionize each user's point stream with
    a 30-min inactivity gap, take the grid cell of the session's first and
    last point, count trips per (origin cell, destination cell). Session
    segmentation + endpoint gathers are one bucketed sweep; per-bucket
    partial counts feed one tiny (o, d) combiner exchange."""
    from ..sources.tables import read_table
    from .treeagg import tree_group_agg

    ev = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def sweep(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "us", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        us = g["us"].to_numpy()
        cx = g["cx"].to_numpy()
        cy = g["cy"].to_numpy()
        new_sess = np.r_[True, (u[1:] != u[:-1]) | (us[1:] - us[:-1] > gap_us)]
        starts = np.nonzero(new_sess)[0]
        ends = np.r_[starts[1:] - 1, len(u) - 1] if len(starts) else starts
        df = (
            pd.DataFrame(
                {
                    "o_x": cx[starts], "o_y": cy[starts],
                    "d_x": cx[ends], "d_y": cy[ends],
                }
            )
            .groupby(["o_x", "o_y", "d_x", "d_y"], as_index=False)
            .size()
            .rename(columns={"size": "n_trips"})
        )
        df["n_trips"] = df["n_trips"].astype(np.int64)
        # metadata-free: pandas schema blobs defeat Ray's block-schema dedup
        from .treeagg import clean_arrow

        return clean_arrow(df)

    partial = grouped_apply(
        ev.map_batches(
            lambda b: _prep_cells(b, cell_w, cell_h), batch_format="pyarrow"
        ),
        ["user_id"], sweep,
    )
    return tree_group_agg(
        partial, ["o_x", "o_y", "d_x", "d_y"], {"n_trips": ("n_trips", "sum")}
    )


def coverage_gap_points(sf_dir: str, radius: int = 3000,
                        sample_mod: int = 4, max_segments: int = 64):
    """Spatial anti-join / coverage-gap audit: sampled points whose exact
    integer distance to EVERY segment of a bounded road subnetwork (the
    ``max_segments`` lowest-sid segments — a fixed-size network, so gap
    density is scale-stable) exceeds ``radius``. Same broadcast probe as
    snap_to_roads with the aggregation inverted: keep min-d2 > r^2. ZERO
    exchanges; output is the gap rows only."""
    import ray

    from ..sources.tables import read_table

    ev = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep_roads(batch: pa.Table) -> pa.Table:
        m = batch.column("user_id").to_numpy() < ROAD_USERS
        t = batch.filter(pa.array(m))
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
            }
        )

    road_ev = ev.map_batches(prep_roads, batch_format="pyarrow").to_pandas()
    seg = build_road_segments(road_ev).head(max_segments)
    roads_ref = ray.put(
        {k: seg[k].to_numpy() for k in ("sid", "axis", "lo", "hi", "c")}
    )
    r2 = radius * radius

    def probe(batch: pa.Table) -> pa.Table:
        roads = ray.get(roads_ref)
        u = batch.column("user_id").to_numpy()
        eid = batch.column("event_id").to_numpy()
        m = (u >= ROAD_USERS) & (eid % sample_mod == 0)
        eid = eid[m]
        px, py = _xy(eid)
        main = roads["axis"][None, :]
        lo = roads["lo"][None, :]
        hi = roads["hi"][None, :]
        c = roads["c"][None, :]
        pm = np.where(main == 0, px[:, None], py[:, None])
        po = np.where(main == 0, py[:, None], px[:, None])
        clamp = np.maximum(np.maximum(lo - pm, pm - hi), 0)
        off = po - c
        d2 = (clamp * clamp + off * off).min(axis=1)
        gap = d2 > r2
        return pa.table(
            {"event_id": pa.array(eid[gap]), "d2": pa.array(d2[gap])}
        )

    return ev.map_batches(probe, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# HMM (Viterbi) map-matching — the probabilistic upgrade of snap_to_roads:
# per point the C nearest segments are candidate states, emission cost is
# the exact int64 snap distance, transition cost penalizes jumping between
# far-apart segments (squared midpoint distance // HMM_TRANS_DIV), and the
# per-track Viterbi picks the globally cheapest state sequence. Everything
# is integer, so the DP is deterministic and the scalar pin is exact.

HMM_L = 8        # fixed track length (same contract as DTW tracks)
HMM_C = 4        # candidate states per point
HMM_TRANS_DIV = 16  # transition weight: d2(midpoints) // 16


def _hmm_candidates(x: np.ndarray, y: np.ndarray, roads: dict):
    """Top-C nearest segments per point: (n, C) sid / d2 / midpoint arrays.
    Ties break on sid ascending via lexsort on (d2, sid)."""
    main = np.where(roads["axis"] == 0, 0, 1)
    lo = roads["lo"][None, :]
    hi = roads["hi"][None, :]
    c = roads["c"][None, :]
    pm = np.where(main[None, :] == 0, x[:, None], y[:, None])
    po = np.where(main[None, :] == 0, y[:, None], x[:, None])
    clamp = np.maximum(np.maximum(lo - pm, pm - hi), 0)
    off = po - c
    d2 = clamp * clamp + off * off
    order = np.lexsort((np.broadcast_to(roads["sid"], d2.shape), d2), axis=1)
    top = order[:, :HMM_C]
    mid_main = (roads["lo"] + roads["hi"]) // 2
    mx = np.where(roads["axis"] == 0, mid_main, roads["c"])
    my = np.where(roads["axis"] == 0, roads["c"], mid_main)
    return (
        roads["sid"][top],
        np.take_along_axis(d2, top, axis=1),
        mx[top],
        my[top],
    )


def viterbi_tracks(px: np.ndarray, py: np.ndarray, roads: dict):
    """Vectorized Viterbi across all tracks at once.

    ``px``/``py``: (T, L) int64 track points. Returns (total_cost (T,),
    end_seg (T,), n_distinct (T,)) — the optimal path cost, the matched
    segment of the LAST point, and how many distinct segments the optimal
    path visits. DP state is (T, C); each of the L-1 steps evaluates the
    full (T, C, C) transition tensor with integer numpy ops only.
    Tie-breaks: argmin over predecessor i and state j take the smallest
    index (np.argmin convention), matching the scalar pin."""
    T, L = px.shape
    sids = np.empty((T, L, HMM_C), np.int64)
    emis = np.empty((T, L, HMM_C), np.int64)
    mxs = np.empty((T, L, HMM_C), np.int64)
    mys = np.empty((T, L, HMM_C), np.int64)
    for t in range(L):  # L is a small constant; each call is batch-wide
        sids[:, t], emis[:, t], mxs[:, t], mys[:, t] = _hmm_candidates(
            px[:, t], py[:, t], roads
        )
    cost = emis[:, 0].copy()  # (T, C)
    back = np.zeros((T, L, HMM_C), np.int64)
    for t in range(1, L):
        dmx = mxs[:, t - 1][:, :, None] - mxs[:, t][:, None, :]
        dmy = mys[:, t - 1][:, :, None] - mys[:, t][:, None, :]
        trans = (dmx * dmx + dmy * dmy) // HMM_TRANS_DIV  # (T, C, C)
        tot = cost[:, :, None] + trans  # predecessor i -> state j
        back[:, t] = np.argmin(tot, axis=1)
        cost = np.min(tot, axis=1) + emis[:, t]
    end_state = np.argmin(cost, axis=1)  # (T,)
    total = cost[np.arange(T), end_state]
    # backtrack (L steps, vectorized across tracks)
    path = np.empty((T, L), np.int64)
    s = end_state
    for t in range(L - 1, -1, -1):
        path[:, t] = sids[np.arange(T), t, s]
        s = back[np.arange(T), t, s]
    end_seg = path[:, -1]
    srt = np.sort(path, axis=1)
    n_distinct = 1 + (srt[:, 1:] != srt[:, :-1]).sum(axis=1)
    return total, end_seg, n_distinct


def hmm_map_match(sf_dir: str):
    """HMM map-matching over fixed-length tracks: one bucketed exchange
    builds the (T, L) track rows (``tracks_fixed`` contract), the bounded
    road network broadcasts via ray.put, and the batch-wide integer
    Viterbi matches every track. Rows-only; pinned in pytest against a
    scalar per-track Viterbi."""
    import ray

    from ..sources.tables import read_table

    ev = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep_roads(batch: pa.Table) -> pa.Table:
        m = batch.column("user_id").to_numpy() < ROAD_USERS
        t = batch.filter(pa.array(m))
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
            }
        )

    road_ev = ev.map_batches(prep_roads, batch_format="pyarrow").to_pandas()
    seg = build_road_segments(road_ev)
    roads_ref = ray.put(
        {k: seg[k].to_numpy() for k in ("sid", "axis", "lo", "hi", "c")}
    )

    def prep(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy()
        t = batch.filter(pa.array(u >= ROAD_USERS))
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "event_id": t.column("event_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
            }
        )

    tracks = grouped_apply(
        ev.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        lambda g: tracks_fixed(g, HMM_L),
    )

    def match(batch: pa.Table) -> pa.Table:
        roads = ray.get(roads_ref)
        T = batch.num_rows
        px = np.stack(
            [batch.column(f"x{j}").to_numpy() for j in range(HMM_L)], axis=1
        )
        py = np.stack(
            [batch.column(f"y{j}").to_numpy() for j in range(HMM_L)], axis=1
        )
        total, end_seg, n_distinct = viterbi_tracks(px, py, roads)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "path_cost": pa.array(total),
                "end_seg": pa.array(end_seg),
                "n_distinct_segs": pa.array(n_distinct),
            }
        )

    return tracks.map_batches(match, batch_format="pyarrow")
