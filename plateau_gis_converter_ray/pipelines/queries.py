"""Query registry: every operator pipeline + its DuckDB oracle SQL.

Registration is by name alone: a module-level function ``q_<name>`` is the
registry query ``<name>``, a callable ``(sf_dir) -> Dataset | DataFrame |
pa.Table``; for SQL-expressible semantics the module-level string
``_SQL_<NAME>`` holds the ANSI-SQL equivalent the driver runs on the same
parquet (order-insensitive value-hash compare). ``__ray_entry__.queries()``
and ``oracle_sql()`` read the registry off these names.

Determinism contract with the oracle:
- integer-scaled aggregates (2-decimal money -> cents) so distributed float
  summation order can't flip bits;
- libm-free arithmetic where possible; where tan/ln appear (WebMercator) the
  values sit far from tile boundaries for the synthetic points;
- ties broken on integer ids in both implementations.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import scheme3dt
from ..kernels.hilbert import zxy_to_id
from ..kernels.webmercator import zxy_from_lnglat_webmercator
from ..stages.geocode import GEOCODE_SQL, add_lnglat_arith, geocode_arith
from ..stages.spatial_join import mesh_assign_arith
from ..stages.tiles import assign_webmercator

# ---------------------------------------------------------------------------
# helpers


def _read(sf_dir: str, table: str, columns=None, filter=None):
    from ..sources.tables import read_table

    return read_table(sf_dir, table, columns, filter=filter)


# hash-join exchange partition count: sized so the join aggregator actors
# coexist with the other stages on the 32-cpu single-node harness (8+ was
# measurably slower under actor-pool contention); on a real cluster this
# scales with node count, like every explicit partition count in the repo
JOIN_PARTS = 4

# One knob for every size-gated broadcast fast path (df tables, candidate
# key sets, dl lookups, vocab marginals): MEASURED bytes must fit
# comfortably in a worker heap next to its batch; past it, the query falls
# back to its shuffle/join plan. Shared with the join planner's broadcast
# limit so one setting governs every broadcast decision in the engine.
from ..stages.joins import DEFAULT_BROADCAST_LIMIT as BROADCAST_BUDGET  # noqa: E402


def _geo_sql(id_expr: str) -> str:
    lng = GEOCODE_SQL["lng"].format(id=id_expr)
    lat = GEOCODE_SQL["lat"].format(id=id_expr)
    return lng, lat



# shared combiner + log-depth tree-merge aggregate (stages/treeagg.py);
# re-exported here because the registry queries and external callers use it
from ..stages.treeagg import (  # noqa: E402
    combine_blocks,
    grouped_apply,
    tree_group_agg,
)


def _event_points(sf_dir: str, cols):
    """The ``events`` columns ``cols`` plus the arithmetic geocode's
    ``lng``/``lat`` (``GEOCODE_SQL`` is its SQL twin)."""
    return _read(sf_dir, "events", cols).map_batches(
        lambda b: add_lnglat_arith(b, "event_id"), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# The WebMercator tile lattice (webmercator.rs z/x/y): events reduce ONCE to
# per-tile counts, and every lattice statistic reads only that reduced table
# (the GeoBlocks shape: points -> cell lattice, then statistics per cell).


def _tile_key(x, y, z: int):
    """Packed lattice key k = x * 2^z + y of tile (x, y) at zoom ``z``."""
    return x * (1 << z) + y


def _tile_xy(k, z: int):
    """Inverse of :func:`_tile_key`: k -> (x, y)."""
    return np.divmod(k, 1 << z)


def _tile_counts(sf_dir: str, z: int):
    """Events -> per-tile counts ``(k, n)`` at WebMercator zoom ``z``, keyed
    by the int64 :func:`_tile_key`: one fused geocode + tile + pack map, then
    ONE fact-sized combiner exchange."""

    def key(batch: pa.Table) -> pa.Table:
        lng, lat = geocode_arith(batch.column("event_id").to_numpy())
        x, y = zxy_from_lnglat_webmercator(z, lng, lat)
        return pa.table({"k": pa.array(_tile_key(x, y, z))})

    ds = _read(sf_dir, "events", ["event_id"])
    return tree_group_agg(
        ds.map_batches(key, batch_format="pyarrow"), ["k"], {"n": (None, "count")}
    )


# queen neighbourhood: the 8 lattice offsets around a tile
_DX = np.array([-1, -1, -1, 0, 0, 1, 1, 1], np.int64)
_DY = np.array([-1, 0, 1, -1, 1, -1, 0, 1], np.int64)


def _queen_stencil(counts):
    """Queen-neighbour sums over the z10 ``_tile_counts`` table, as a
    scatter-to-neighbours stencil: each occupied tile sends its count to its
    8 neighbour positions plus one centre row, and ONE combiner sum per
    position gives every occupied tile its count ``c``, its neighbours'
    count sum ``s``, their sum of squares ``ss`` and its occupied-neighbour
    degree ``d``. No self-join, no range join: the stencil exchange is 9x
    the TILE table, never 9x the facts. One row per occupied tile:
    (tile_x, tile_y, c, s, ss, d), all int64."""

    def scatter(batch: pa.Table) -> pa.Table:
        x, y = _tile_xy(batch.column("k").to_numpy(), 10)
        n = batch.column("n").to_numpy()
        m = len(n)
        # the +1 shift keeps edge positions non-negative (an 11-bit
        # lattice); positions that get no centre row die at the c > 0 filter
        px = np.concatenate([np.tile(x, 8) + np.repeat(_DX, m), x]) + 1
        py = np.concatenate([np.tile(y, 8) + np.repeat(_DY, m), y]) + 1
        nb = np.tile(n, 8)
        zeros = np.zeros(m, np.int64)
        return pa.table(
            {
                "pk": pa.array(_tile_key(px, py, 11)),
                "c": pa.array(np.concatenate([np.zeros(8 * m, np.int64), n])),
                "s": pa.array(np.concatenate([nb, zeros])),
                "ss": pa.array(np.concatenate([nb * nb, zeros])),
                "d": pa.array(np.concatenate([np.ones(8 * m, np.int64), zeros])),
            }
        )

    def occupied(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy()
        occ = c > 0
        x, y = _tile_xy(batch.column("pk").to_numpy()[occ], 11)
        cols = {"tile_x": x - 1, "tile_y": y - 1, "c": c[occ]}
        for name in ("s", "ss", "d"):
            cols[name] = batch.column(name).to_numpy()[occ]
        return pa.table({k: pa.array(v) for k, v in cols.items()})

    sums = tree_group_agg(
        counts.map_batches(scatter, batch_format="pyarrow"),
        ["pk"], {v: (v, "sum") for v in ("c", "s", "ss", "d")},
    )
    return sums.map_batches(occupied, batch_format="pyarrow")


def _tile_moments(tiles, **sums) -> dict:
    """Global moments of a ``_queen_stencil`` table as exact Python ints:
    ``nt`` tiles, ``s1`` = sum c, ``s2`` = sum c^2, ``cmax`` = max c, plus
    one int64 sum per keyword, ``name=fn`` with ``fn(cols)`` mapping the
    batch's column arrays to per-tile terms."""

    def fold(batch: pa.Table) -> pa.Table:
        cols = {n: batch.column(n).to_numpy() for n in batch.column_names}
        c = cols["c"]
        out = {"g": 0, "nt": len(c), "s1": c.sum(), "s2": (c * c).sum(),
               "cmax": c.max(initial=0)}
        out.update({name: fn(cols).sum() for name, fn in sums.items()})
        return pa.table({k: pa.array([v], pa.int64()) for k, v in out.items()})

    aggs = {v: (v, "sum") for v in ("nt", "s1", "s2", *sums)}
    aggs["cmax"] = ("cmax", "max")
    mom = tree_group_agg(
        tiles.map_batches(fold, batch_format="pyarrow"), ["g"], aggs
    ).to_pandas()
    return {v: int(mom[v][0]) for v in aggs}


# The tile-lattice moments are int64 sums. Each is at most
# factor * max(n) * N for the largest tile count max(n), the point count N
# and a per-query factor, so past this limit they could wrap silently and
# the query raises instead.
_INT64_MOMENT_LIMIT = 1 << 63


def _guard_moments(query: str, n_max: int, n_total: int, factor: int) -> None:
    if factor * n_max * n_total >= _INT64_MOMENT_LIMIT:
        raise OverflowError(
            f"{query}: int64 moments may wrap (largest tile count {n_max}, "
            f"{n_total} points); split them into hi/lo words first"
        )


# ---------------------------------------------------------------------------
# 1. WebMercator square-scheme tiling (MVT path: mvt/slice.rs:48-52 + tile xy)


def q_tile_wm_z12(sf_dir: str):
    ds = _event_points(sf_dir, ["event_id"])
    ds = ds.map_batches(lambda b: assign_webmercator(b, 12), batch_format="pyarrow")
    ds = ds.select_columns(["tile_x", "tile_y"])
    return tree_group_agg(ds, ["tile_x", "tile_y"], {"n": (None, "count")})


def _sql_tile_wm_z12() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
)
SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 4096) AS BIGINT) AS tile_x,
       CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 4096) AS BIGINT) AS tile_y,
       COUNT(*) AS n
FROM pts GROUP BY 1, 2
"""


_SQL_TILE_WM_Z12 = _sql_tile_wm_z12()


# ---------------------------------------------------------------------------
# 2. Non-square 3D-Tiles scheme tiling (scheme.rs:32-38)


def q_tile_3dt_z7(sf_dir: str):
    ds = _event_points(sf_dir, ["event_id"])

    def assign(batch: pa.Table) -> pa.Table:
        lng = batch.column("lng").to_numpy()
        lat = batch.column("lat").to_numpy()
        x, y = scheme3dt.zxy_from_lng_lat(7, lng, lat)
        return pa.table(
            {"tile_x": pa.array(x, pa.int64()), "tile_y": pa.array(y, pa.int64())}
        )

    ds = ds.map_batches(assign, batch_format="pyarrow")
    return tree_group_agg(ds, ["tile_x", "tile_y"], {"n": (None, "count")})


def _sql_tile_3dt_z7() -> str:
    lng, lat = _geo_sql("event_id")
    # x_step CASE table generated from the fixture-pinned kernel (z=7)
    cases = " ".join(
        f"WHEN {y} THEN {int(scheme3dt.x_step(7, y))}" for y in range(64)
    )
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((90.0 - lat) / 180.0 * 64) AS BIGINT) AS y,
         CAST(FLOOR((180.0 + lng) / 360.0 * 128) AS BIGINT) AS x
  FROM pts
), s AS (
  SELECT x, y, (CASE y {cases} END) AS xs FROM t
)
SELECT (x - (x % xs)) AS tile_x, y AS tile_y, COUNT(*) AS n
FROM s GROUP BY 1, 2
"""


_SQL_TILE_3DT_Z7 = _sql_tile_3dt_z7()


# ---------------------------------------------------------------------------
# 3. Mesh PIP join (rectangular municipality mesh; SQL-exact)


def q_pip_mesh(sf_dir: str):
    ds = _event_points(sf_dir, ["event_id", "value"])
    ds = ds.map_batches(mesh_assign_arith, batch_format="pyarrow")

    def to_cents(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return batch.append_column("value_c", pa.array(v))

    ds = ds.map_batches(to_cents, batch_format="pyarrow")
    ds = ds.select_columns(["mesh_id", "value_c"])
    return tree_group_agg(
        ds, ["mesh_id"],
        {"n": (None, "count"), "sum_value_c": ("value_c", "sum")},
    )


def _sql_pip_mesh() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT value, {lng} AS lng, {lat} AS lat FROM events
)
SELECT 'mesh_' ||
       CAST(LEAST(CAST(FLOOR((lng - 122.0) / 24.0 * 24) AS BIGINT), 23) AS VARCHAR)
       || '_' ||
       CAST(LEAST(CAST(FLOOR((lat - 24.0) / 22.0 * 22) AS BIGINT), 21) AS VARCHAR)
       AS mesh_id,
       COUNT(*) AS n,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM pts GROUP BY 1
"""


_SQL_PIP_MESH = _sql_pip_mesh()


# ---------------------------------------------------------------------------
# 4. Point kNN: brute force + cell-ring variant (same oracle)


def q_knn_points(sf_dir: str):
    from ..stages.knn import knn_points_brute

    return knn_points_brute(sf_dir)


def q_knn_points_cellring(sf_dir: str):
    from ..stages.knn import knn_points_cellring

    return knn_points_cellring(sf_dir)


def _sql_knn_points() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH q AS (
  SELECT qid, 122.0 + (qid * 17) % 24 AS qx, 24.0 + (qid * 13) % 22 AS qy
  FROM (SELECT UNNEST(RANGE(0, 16)) AS qid)
), pts AS (
  SELECT event_id, {lng} AS lng, {lat} AS lat FROM events
), d AS (
  SELECT event_id, qid,
         (lng - qx) * (lng - qx) + (lat - qy) * (lat - qy) AS d2,
         ROW_NUMBER() OVER (PARTITION BY event_id
                            ORDER BY (lng - qx) * (lng - qx) + (lat - qy) * (lat - qy), qid) AS rn
  FROM pts, q
)
SELECT event_id, qid AS nearest_qid FROM d WHERE rn = 1
"""


_SQL_KNN_POINTS = _sql_knn_points()
_SQL_KNN_POINTS_CELLRING = _SQL_KNN_POINTS


# ---------------------------------------------------------------------------
# 4b. Radius join (ST_DWithin analogue), aggregated: events within radius
# r of each fixed query point, counted — the distance-threshold sibling
# of knn_points. The tiny query side ships with the task fn; each batch
# reduces to a (n_queries,)-int indicator partial through the combiner
# tree, so no point ever shuffles. The d2 <= r2 compare is the same IEEE
# expression on both sides. A corpus-sized query side switches this to
# the cell-bucket plan (knn_points_cellring's ring bound at fixed radius).


def q_radius_count_join(sf_dir: str, n_queries: int = 16, r2: float = 4.0):
    qids = np.arange(n_queries, dtype=np.int64)
    qx = 122.0 + (qids * 17) % 24
    qy = 24.0 + (qids * 13) % 22

    ds = _event_points(sf_dir, ["event_id"])

    def partial(batch: pa.Table) -> pa.Table:
        lng = batch.column("lng").to_numpy()
        lat = batch.column("lat").to_numpy()
        d2 = (lng[:, None] - qx[None, :]) ** 2 + (lat[:, None] - qy[None, :]) ** 2
        n = (d2 <= r2).sum(axis=0).astype(np.int64)
        return pa.table({"qid": pa.array(qids), "n_within": pa.array(n)})

    return tree_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["qid"], {"n_within": ("n_within", "sum")},
    )


def _sql_radius_count_join() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH q AS (
  SELECT qid, 122.0 + (qid * 17) % 24 AS qx, 24.0 + (qid * 13) % 22 AS qy
  FROM (SELECT UNNEST(RANGE(0, 16)) AS qid)
), pts AS (
  SELECT event_id, {lng} AS lng, {lat} AS lat FROM events
)
SELECT qid,
       CAST(SUM(CASE WHEN (lng - qx) * (lng - qx)
                       + (lat - qy) * (lat - qy) <= 4.0
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_within
FROM pts, q GROUP BY qid
"""


_SQL_RADIUS_COUNT_JOIN = _sql_radius_count_join()


# ---------------------------------------------------------------------------
# 5. Q1-style pricing summary (integer-scaled; the groupby-agg workhorse)


def q_pricing_summary(sf_dir: str):
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )

    def scale(batch: pa.Table) -> pa.Table:
        qty = batch.column("l_quantity").to_numpy()
        ep = batch.column("l_extendedprice").to_numpy()
        disc = batch.column("l_discount").to_numpy()
        tax = batch.column("l_tax").to_numpy()
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty_i": pa.array(np.round(qty).astype(np.int64)),
                "base_c": pa.array(np.round(ep * 100).astype(np.int64)),
                "disc_s": pa.array(np.round(ep * (1 - disc) * 10000).astype(np.int64)),
                "charge_s": pa.array(
                    np.round(ep * (1 - disc) * (1 + tax) * 1000000).astype(np.int64)
                ),
            }
        )

    ds = ds.map_batches(scale, batch_format="pyarrow")
    return tree_group_agg(
        ds, ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("qty_i", "sum"),
            "sum_base_price_c": ("base_c", "sum"),
            "sum_disc_price_s": ("disc_s", "sum"),
            "sum_charge_s": ("charge_s", "sum"),
            "count_order": (None, "count"),
        },
    )


_SQL_PRICING_SUMMARY = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_price_c,
       CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS sum_disc_price_s,
       CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 1000000) AS BIGINT)) AS BIGINT) AS sum_charge_s,
       COUNT(*) AS count_order
FROM lineitem GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 6. Q3-style: broadcast-join + groupby + top-k  (shuffle-free dim join)


def _rev_scaled(batch: pa.Table) -> pa.Table:
    """lineitem -> (l_orderkey, rev_s): integer-scaled discounted revenue."""
    ep = batch.column("l_extendedprice").to_numpy()
    d = batch.column("l_discount").to_numpy()
    rev = np.round(ep * (1 - d) * 10000).astype(np.int64)
    return pa.table({"l_orderkey": batch.column("l_orderkey"), "rev_s": pa.array(rev)})


def _rev_by_order(sf_dir: str, full: bool = True):
    """lineitem pre-aggregated per order key BEFORE any join, so the join
    exchange carries (l_orderkey, revenue_s) partials instead of every line
    item. ``full=True`` adds the tree merge down to one partition (complete
    per-key sums — required before a top-k); ``full=False`` keeps per-batch
    partials only (cheaper; valid when a downstream aggregate re-merges,
    since repartition is NOT key-partitioned and partials of one key may
    stay split across blocks)."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    li = li.map_batches(_rev_scaled, batch_format="pyarrow")
    agg = tree_group_agg if full else combine_blocks
    return agg(li, ["l_orderkey"], {"revenue_s": ("rev_s", "sum")})


def q_top_orders(sf_dir: str, force: str | None = None):
    """Distributed semi-join chain — no fact table ever touches the driver:
    lineitem pre-aggregates to per-order revenue (combiner pushdown), orders
    LEFT SEMI customer(BUILDING), then the per-order revenue LEFT SEMI the
    qualifying order set. Both semi joins are planner-routed (auto_join)
    with provable scan-metadata upper bounds: under the broadcast limit the
    build side reduces to a key set shipped once and the probe is a
    vectorized membership mask — zero fact shuffle; above it the SAME call
    plans the hash-partitioned left_semi exchange that only ever moves one
    row per order. Global top-k closes it."""
    from ..stages.joins import _scan_rooted_size, auto_join

    cust_scan = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    cust_bound = _scan_rooted_size(cust_scan)
    cust_b = (
        cust_scan
        .filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey"])
    )
    orders_scan = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    orders_bound = _scan_rooted_size(orders_scan)
    orders_b = auto_join(
        orders_scan, cust_b, how="left_semi", num_partitions=JOIN_PARTS,
        on=("o_custkey",), right_on=("c_custkey",),
        right_size_hint=cust_bound, force=force,
    ).select_columns(["o_orderkey"])

    agg = auto_join(
        _rev_by_order(sf_dir), orders_b, how="left_semi",
        num_partitions=JOIN_PARTS,
        on=("l_orderkey",), right_on=("o_orderkey",),
        right_size_hint=orders_bound, force=force,
    )
    agg = agg.rename_columns({"l_orderkey": "o_orderkey"})
    return agg.sort(["revenue_s", "o_orderkey"], descending=[True, False]).limit(10)


_SQL_TOP_ORDERS = """
SELECT o_orderkey,
       CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_s
FROM customer JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY 1
ORDER BY revenue_s DESC, o_orderkey ASC
LIMIT 10
"""


# ---------------------------------------------------------------------------
# 6b. top_orders through a bloom-filter semi-join pushdown: the per-order
# revenue probe side is pruned by a distributed bloom filter over the
# qualifying-order keys BEFORE the exact semi join. Same oracle as
# top_orders — the filter only prunes, so the result is bit-identical;
# what changes is the exchange volume (the 100 TB lever, stages/bloom.py).


def q_top_orders_bloom(sf_dir: str):
    import ray

    from ..stages.bloom import BloomPrune, bloom_build

    cust_b = (
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        .filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey"])
    )
    orders_b = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).join(
        cust_b, "left_semi", num_partitions=JOIN_PARTS,
        on=("o_custkey",), right_on=("c_custkey",),
    ).select_columns(["o_orderkey"]).materialize()
    # (materialized: both the bloom build and the exact semi join consume
    # it — without this the most expensive exchange would execute twice)

    # distributed OR-reduce build; the driver sees ONE row of packed words
    bits_ref = ray.put(bloom_build(orders_b, "o_orderkey"))

    rev = _rev_by_order(sf_dir).map_batches(
        BloomPrune(bits_ref, "l_orderkey"), batch_format="pyarrow"
    )
    agg = rev.join(
        orders_b, "left_semi", num_partitions=JOIN_PARTS,
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    agg = agg.rename_columns({"l_orderkey": "o_orderkey"})
    return agg.sort(["revenue_s", "o_orderkey"], descending=[True, False]).limit(10)


_SQL_TOP_ORDERS_BLOOM = _SQL_TOP_ORDERS


# ---------------------------------------------------------------------------
# 7. Q5-style star join: revenue per nation for ASIA customers


def q_nation_revenue(sf_dir: str, force: str | None = None):
    """Star join, planner-routed: nation x region (~25 rows) is a task-fn
    dict; the customer and orders sides go through ``auto_join`` with
    *provable upper-bound* size hints (a filter/projection only shrinks its
    scan-rooted input, so the scan's O(1) parquet-metadata size bounds the
    transformed side). At bench scale both bounds sit under the broadcast
    limit and the plan is two map-side joins with zero fact shuffle; at a
    scale where orders outgrow the limit the SAME code plans the
    partitioned hash joins (force='shuffle' pins that path in pytest).
    Revenue is pre-scaled per row BEFORE the join so either plan carries
    (key, n_name, rev_s) only."""
    from ..sources.tables import read_table
    from ..stages.joins import _scan_rooted_size, auto_join
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    asia = set(region.loc[region["r_name"] == "ASIA", "r_regionkey"].tolist())
    nation_asia = nation[nation["n_regionkey"].isin(asia)]

    class AttachNation:
        """Broadcast dim lookup: keep only ASIA customers, attach n_name.
        The dim is ~25 rows — shipped with the task fn, no actor pool;
        probe is one searchsorted + Arrow take (kernels/lookup.py)."""

        def __init__(self, lut):
            self.lut = lut

        def __call__(self, batch: pa.Table) -> pa.Table:
            nk = batch.column("c_nationkey").to_numpy()
            pos, mask = self.lut.probe(nk)
            return pa.table(
                {
                    "c_custkey": batch.column("c_custkey").filter(pa.array(mask)),
                    "n_name": self.lut.values.take(pa.array(pos[mask])),
                }
            )

    from ..kernels.lookup import IntLookup

    cust_scan = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust_bound = _scan_rooted_size(cust_scan)
    cust = cust_scan.map_batches(
        AttachNation(IntLookup(
            nation_asia["n_nationkey"].to_numpy(),
            nation_asia["n_name"].tolist(),
        )),
        batch_format="pyarrow",
    )
    orders_scan = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    orders_bound = _scan_rooted_size(orders_scan)
    orders = auto_join(
        orders_scan, cust,
        on=("o_custkey",), right_on=("c_custkey",),
        num_partitions=JOIN_PARTS, right_size_hint=cust_bound, force=force,
    ).select_columns(["o_orderkey", "n_name"])

    # combiner pushdown: per-order revenue partials BEFORE the fact join
    # (partials suffice — the final n_name tree merge re-sums split keys)
    joined = auto_join(
        _rev_by_order(sf_dir, full=False), orders,
        on=("l_orderkey",), right_on=("o_orderkey",),
        num_partitions=JOIN_PARTS, right_size_hint=orders_bound, force=force,
    ).select_columns(["n_name", "revenue_s"])
    return tree_group_agg(joined, ["n_name"], {"revenue_s": ("revenue_s", "sum")})


_SQL_NATION_REVENUE = """
SELECT n_name,
       CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_s
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# 8. Hash-join operator demo (Ray Dataset.join) — orders x customer


def q_join_orders_customers(sf_dir: str):
    from ..stages.joins import auto_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    # planner decision: customer is scan-rooted, so its parquet-metadata
    # size is free — under the broadcast limit it map-side joins (zero
    # shuffle of orders); at a scale where customer outgrows the limit the
    # same call plans the partitioned hash join
    joined = auto_join(
        orders, cust,
        on=("o_custkey",), right_on=("c_custkey",),
        how="inner", num_partitions=JOIN_PARTS,
    )
    return tree_group_agg(joined, ["c_mktsegment"], {"n_orders": (None, "count")})


_SQL_JOIN_ORDERS_CUSTOMERS = """
SELECT c_mktsegment, COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# 9. Tumbling-window aggregate over the events stream table


def q_events_window(sf_dir: str):
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def windowize(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()  # microseconds
        win = ts // (3600 * 1_000_000)
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "window_h": pa.array(win),
                "value_c": pa.array(v),
            }
        )

    ds = ds.map_batches(windowize, batch_format="pyarrow")
    return tree_group_agg(
        ds, ["user_id", "window_h"],
        {"n": (None, "count"), "sum_value_c": ("value_c", "sum")},
    )


_SQL_EVENTS_WINDOW = """
SELECT user_id,
       CAST(FLOOR(EPOCH(ts) / 3600) AS BIGINT) AS window_h,
       COUNT(*) AS n,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 9b. Hopping (overlapping) window aggregate: 1 h windows every 30 min.
# Unlike the tumbling q_events_window, each event belongs to size/hop = 2
# windows — a vectorized 1→N fanout inside map_batches, then the same
# combiner tree closes the aggregate. (The streaming-window operator the
# build brief lists; the fanout factor, not the window length, is the
# shuffle-volume multiplier at scale.)


def q_hopping_window(sf_dir: str):
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    hop_us = 1800 * 1_000_000

    def fanout(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()  # microseconds
        k = ts // hop_us
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        uid = batch.column("user_id").to_numpy()
        ks = np.concatenate([k, k - 1])
        return pa.table(
            {
                "user_id": pa.array(np.concatenate([uid, uid])),
                "win_start_s": pa.array(ks * 1800),
                "value_c": pa.array(np.concatenate([v, v])),
            }
        )

    ds = ds.map_batches(fanout, batch_format="pyarrow")
    return tree_group_agg(
        ds, ["user_id", "win_start_s"],
        {"n": (None, "count"), "sum_value_c": ("value_c", "sum")},
    )


_SQL_HOPPING_WINDOW = """
SELECT user_id,
       CAST((FLOOR(EPOCH(ts) / 1800) - i) * 1800 AS BIGINT) AS win_start_s,
       COUNT(*) AS n,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events, (SELECT UNNEST([0, 1]) AS i) off
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 10. Top-3 per user (sorted-group window function analogue)


def q_top3_per_user(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def top3(g: pd.DataFrame) -> pd.DataFrame:
        v = np.round(g["value"].to_numpy() * 100).astype(np.int64)
        g = g.assign(value_c=v)
        g = g.sort_values(["value_c", "event_id"], ascending=[False, True]).head(3)
        return g[["event_id", "user_id", "value_c"]]

    return ds.groupby("user_id").map_groups(top3, batch_format="pandas")


_SQL_TOP3_PER_USER = """
WITH r AS (
  SELECT event_id, user_id, CAST(ROUND(value * 100) AS BIGINT) AS value_c,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY CAST(ROUND(value * 100) AS BIGINT) DESC, event_id ASC) AS rn
  FROM events
)
SELECT event_id, user_id, value_c FROM r WHERE rn <= 3
"""


# ---------------------------------------------------------------------------
# 11. Per-group min/max (geomstats.rs:25-43 semantics on tabular data)


def q_order_minmax(sf_dir: str):
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_quantity"])
    return tree_group_agg(
        ds, ["l_orderkey"],
        {
            "min_price": ("l_extendedprice", "min"),
            "max_price": ("l_extendedprice", "max"),
            "min_qty": ("l_quantity", "min"),
            "max_qty": ("l_quantity", "max"),
            "n_lines": (None, "count"),
        },
    )


_SQL_ORDER_MINMAX = """
SELECT l_orderkey,
       MIN(l_extendedprice) AS min_price,
       MAX(l_extendedprice) AS max_price,
       MIN(l_quantity) AS min_qty,
       MAX(l_quantity) AS max_qty,
       COUNT(*) AS n_lines
FROM lineitem GROUP BY 1
"""


# ---------------------------------------------------------------------------
# 12. Exact dedup (hash-partition + per-group first; geometry.rs:105-122 role)


def q_dedup_exact(sf_dir: str):
    """Hash-first exact dedup (stages/dedup.py): the shuffle moves a 128-bit
    content hash, not the raw text. Oracle compares the collapsed groups —
    identical either way."""
    from ..stages.dedup import exact_dedup_docs

    return exact_dedup_docs(sf_dir)


_SQL_DEDUP_EXACT = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id_keep, COUNT(*) AS n_dups
FROM documents GROUP BY text
"""


# ---------------------------------------------------------------------------
# 13/14. Text stats (token counting / quality scoring, SQL-exact integers)


def q_text_stats_by_lang(sf_dir: str):
    from ..stages.text import TextStats

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    ds = ds.map_batches(TextStats(), batch_format="pandas")
    ds = ds.select_columns(["lang", "n_tokens", "n_chars_calc", "n_alpha"])
    return tree_group_agg(
        ds, ["lang"],
        {
            "n_docs": (None, "count"),
            "sum_tokens": ("n_tokens", "sum"),
            "sum_chars": ("n_chars_calc", "sum"),
            "sum_alpha": ("n_alpha", "sum"),
        },
    )


_SQL_TEXT_STATS_BY_LANG = """
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(LEN(REGEXP_EXTRACT_ALL(text, '\\S+'))) AS BIGINT) AS sum_tokens,
       CAST(SUM(LENGTH(text)) AS BIGINT) AS sum_chars,
       CAST(SUM(LENGTH(REGEXP_REPLACE(text, '[^A-Za-z]', '', 'g'))) AS BIGINT) AS sum_alpha
FROM documents GROUP BY 1
"""


def q_source_stats(sf_dir: str):
    from ..stages.text import TextStats

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    ds = ds.map_batches(TextStats(), batch_format="pandas")
    ds = ds.select_columns(["source", "n_digits", "n_tokens"])
    return tree_group_agg(
        ds, ["source"],
        {
            "n_docs": (None, "count"),
            "sum_digits": ("n_digits", "sum"),
            "sum_tokens": ("n_tokens", "sum"),
        },
    )


_SQL_SOURCE_STATS = """
SELECT source, COUNT(*) AS n_docs,
       CAST(SUM(LENGTH(REGEXP_REPLACE(text, '[^0-9]', '', 'g'))) AS BIGINT) AS sum_digits,
       CAST(SUM(LEN(REGEXP_EXTRACT_ALL(text, '\\S+'))) AS BIGINT) AS sum_tokens
FROM documents GROUP BY 1
"""


# ---------------------------------------------------------------------------
# 15. JSON property extraction (jsonify/dots family, transform/jsonify.rs)


def q_props_extract(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = pc.extract_regex(batch.column("props"), r"(?P<k>[0-9]+)")
        kv = pc.struct_field(k, "k").cast(pa.int64())
        return pa.table({"event_type": batch.column("event_type"), "k": kv})

    return tree_group_agg(
        ds.map_batches(extract, batch_format="pyarrow"),
        ["event_type"], {"n": (None, "count"), "sum_k": ("k", "sum")},
    )


_SQL_PROPS_EXTRACT = """
SELECT event_type, COUNT(*) AS n,
       CAST(SUM(CAST(REGEXP_EXTRACT(props, '([0-9]+)') AS BIGINT)) AS BIGINT) AS sum_k
FROM events GROUP BY 1
"""


# ---------------------------------------------------------------------------
# 16/17. Embedding kNN + near-dup pairs (integer-quantized => SQL-exact)


def q_embed_knn(sf_dir: str):
    from ..stages.knn import EmbedKNN

    head = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .sort("vec_id")
        .limit(8)
        .to_pandas()
    )
    # the broadcast side is 8 vectors: a pre-built instance shipped with the
    # task fn (Ray puts it once, workers cache the deserialized fn) beats an
    # actor pool whose spin-up/teardown dominates back-to-back sessions
    # (BENCH r2 regression cluster); truly large sides keep the ray.put +
    # per-worker-cache pattern (flagship _PIP_CACHE).
    knn = EmbedKNN(
        {"qid": head["vec_id"].to_numpy(), "vecs": np.stack(head["embedding"].to_numpy())}
    )
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ds.map_batches(knn, batch_format="pyarrow", batch_size=1024)


_SQL_EMBED_KNN = """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe FROM embeddings ORDER BY vec_id LIMIT 8
), qq AS (
  SELECT qid, i, CAST(ROUND(qe[i] * 100) AS BIGINT) AS qv
  FROM q, (SELECT UNNEST(RANGE(1, 65)) AS i)
), ee AS (
  SELECT vec_id, i, CAST(ROUND(embedding[i] * 100) AS BIGINT) AS ev
  FROM embeddings, (SELECT UNNEST(RANGE(1, 65)) AS i)
), d AS (
  SELECT ee.vec_id, qq.qid,
         SUM((ee.ev - qq.qv) * (ee.ev - qq.qv)) AS dist2
  FROM ee JOIN qq ON ee.i = qq.i
  GROUP BY 1, 2
), r AS (
  SELECT vec_id, qid, dist2,
         ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY dist2, qid) AS rn
  FROM d
)
SELECT vec_id, qid AS nearest_qid, CAST(dist2 AS BIGINT) AS dist2_q
FROM r WHERE rn = 1
"""

# quantized (x100) squared-distance radius: ~0.1% densest pairs of the
# synthetic embedding clusters qualify as near-dups
EMBED_NEAR_DUP_DIST2 = 12_600


def q_embed_near_dup(sf_dir: str):
    from ..stages.knn import embedding_near_dup_pairs

    return embedding_near_dup_pairs(sf_dir, EMBED_NEAR_DUP_DIST2)


_SQL_EMBED_NEAR_DUP = f"""
WITH ee AS (
  SELECT vec_id, i, CAST(ROUND(embedding[i] * 100) AS BIGINT) AS ev
  FROM embeddings, (SELECT UNNEST(RANGE(1, 65)) AS i)
), d AS (
  SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
         SUM((a.ev - b.ev) * (a.ev - b.ev)) AS dist2
  FROM ee a JOIN ee b ON a.i = b.i AND a.vec_id < b.vec_id
  GROUP BY 1, 2
)
SELECT vec_a, vec_b, CAST(dist2 AS BIGINT) AS dist2_q
FROM d WHERE dist2 < {EMBED_NEAR_DUP_DIST2}
"""



# ---------------------------------------------------------------------------
# 18. Session windows over the events log (streaming semantics, SURVEY §2.9)


def q_sessionize(sf_dir: str):
    """Per-user session windows with a 30-min inactivity gap: groupby(user)
    .map_groups over ts-sorted rows — the ordered-log pattern (ray guide)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts")
        us = g["ts"].astype("int64").to_numpy()  # microseconds
        gap = np.concatenate([[True], np.diff(us) > 30 * 60 * 1_000_000])
        sid = np.cumsum(gap)
        out = (
            pd.DataFrame({"user_id": g["user_id"].to_numpy(), "session_idx": sid, "us": us})
            .groupby(["user_id", "session_idx"], as_index=False)
            .agg(n_events=("us", "size"), start_us=("us", "min"), end_us=("us", "max"))
        )
        return out

    return ds.groupby("user_id").map_groups(sessions, batch_format="pandas")


_SQL_SESSIONIZE = """
WITH t AS (
  SELECT user_id, epoch_us(ts) AS us,
         CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER w > 30 * 60 * 1000000
              OR LAG(epoch_us(ts)) OVER w IS NULL THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts))
), s AS (
  SELECT user_id, us,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY us
                             ROWS UNBOUNDED PRECEDING) AS session_idx
  FROM t
)
SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
       COUNT(*) AS n_events,
       CAST(MIN(us) AS BIGINT) AS start_us, CAST(MAX(us) AS BIGINT) AS end_us
FROM s GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 19. Two-pass centroid recentre (the PLY global-centroid pattern, §2.4)


def q_centroid_recentre(sf_dir: str):
    """Pass 1: exact integer global centroid; pass 2: per-row recentre.
    Mirrors sink/ply/mod.rs:165-200's accumulate-then-transform shape."""
    ds = _read(sf_dir, "events", ["event_id"])

    def with_k(batch: pa.Table) -> pa.Table:
        ids = batch.column("event_id").to_numpy().astype(np.int64)
        return batch.append_column("k", pa.array((ids * 9973) % 240000))

    ks = ds.map_batches(with_k, batch_format="pyarrow")
    sum_k = ks.sum("k")
    n = ks.count()
    mean_lng = 122.0 + (sum_k / n) / 10000.0

    def recentre(batch: pa.Table) -> pa.Table:
        ids = batch.column("event_id").to_numpy().astype(np.int64)
        lng = 122.0 + ((ids * 9973) % 240000) / 10000.0
        return pa.table(
            {"event_id": batch.column("event_id"), "lng_centred": pa.array(lng - mean_lng)}
        )

    return ds.map_batches(recentre, batch_format="pyarrow")


_SQL_CENTROID_RECENTRE = """
WITH k AS (
  SELECT event_id, (event_id * 9973) % 240000 AS kk,
         (122.0 + (((event_id * 9973) % 240000) / 10000.0)) AS lng
  FROM events
), m AS (SELECT 122.0 + ((SUM(kk) / COUNT(*)) / 10000.0) AS mean_lng FROM k)
SELECT event_id, lng - (SELECT mean_lng FROM m) AS lng_centred FROM k
"""


# ---------------------------------------------------------------------------
# 20. Codelist resolution (SURVEY §2.1: broadcast dictionary lookup)


def q_codelist_resolve(sf_dir: str):
    """Codes resolve against a REAL gml:Dictionary XML file, parsed lazily
    once per actor (resolver.rs path-keyed cache; the file is synthesized
    deterministically from the lang dictionary)."""
    import os

    from ..stages.codelist import LANG_CODELIST, XmlCodeResolver, write_codelist_xml

    path = "/tmp/plateau_ray_data/codelists/lang.xml"
    if not os.path.exists(path):
        write_codelist_xml(path, LANG_CODELIST)
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    # pre-built instance as a task fn; the XML still parses lazily once per
    # worker on first use (the path-keyed cache ships empty)
    ds = ds.map_batches(XmlCodeResolver(path), batch_format="pandas")
    return tree_group_agg(ds, ["lang_label"], {"n_docs": (None, "count")})


_SQL_CODELIST_RESOLVE = """
SELECT CASE lang
         WHEN 'en' THEN 'English' WHEN 'de' THEN 'German'
         WHEN 'fr' THEN 'French' WHEN 'es' THEN 'Spanish'
         WHEN 'zh' THEN 'Chinese' WHEN 'ja' THEN 'Japanese'
         ELSE lang END AS lang_label,
       COUNT(*) AS n_docs
FROM documents GROUP BY 1
"""


# ---------------------------------------------------------------------------
# 21. Extended mesh PIP join with bbox aggregates (gpkg bbox pattern, §2.5)


def q_pip_mesh_bbox(sf_dir: str):
    ds = _event_points(sf_dir, ["event_id"])
    return tree_group_agg(
        ds.map_batches(mesh_assign_arith, batch_format="pyarrow"),
        ["mesh_id"],
        {"n": (None, "count"), "lng_min": ("lng", "min"),
         "lng_max": ("lng", "max"), "lat_min": ("lat", "min"),
         "lat_max": ("lat", "max")},
    )


def _sql_pip_mesh_bbox() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
)
SELECT 'mesh_' ||
       CAST(LEAST(CAST(FLOOR((lng - 122.0) / 24.0 * 24) AS BIGINT), 23) AS VARCHAR)
       || '_' ||
       CAST(LEAST(CAST(FLOOR((lat - 24.0) / 22.0 * 22) AS BIGINT), 21) AS VARCHAR)
       AS mesh_id,
       COUNT(*) AS n,
       MIN(lng) AS lng_min, MAX(lng) AS lng_max,
       MIN(lat) AS lat_min, MAX(lat) AS lat_max
FROM pts GROUP BY 1
"""


_SQL_PIP_MESH_BBOX = _sql_pip_mesh_bbox()



# ---------------------------------------------------------------------------
# 22. Distinct / unique operator (ds.unique — a shuffle)


def q_distinct_users(sf_dir: str):
    import pyarrow as pa

    ds = _read(sf_dir, "events", ["user_id"])
    vals = sorted(ds.unique("user_id"))
    return pa.table({"user_id": pa.array(vals, pa.int64())})


_SQL_DISTINCT_USERS = "SELECT DISTINCT user_id FROM events"



# ---------------------------------------------------------------------------
# 23. Top-k kNN (k=3) — generalizes the top-1 join


def q_knn_points_top3(sf_dir: str):
    ds = _event_points(sf_dir, ["event_id"])
    qids = np.arange(16, dtype=np.int64)
    qx = 122.0 + (qids * 17) % 24
    qy = 24.0 + (qids * 13) % 22

    def top3(batch: pa.Table) -> pa.Table:
        lng = batch.column("lng").to_numpy()
        lat = batch.column("lat").to_numpy()
        d2 = (lng[:, None] - qx[None, :]) ** 2 + (lat[:, None] - qy[None, :]) ** 2
        # stable rank by (distance, qid): qids are already ascending columns
        order = np.argsort(d2, axis=1, kind="stable")[:, :3]
        n = len(lng)
        eid = batch.column("event_id").to_numpy()
        return pa.table(
            {
                "event_id": pa.array(np.repeat(eid, 3)),
                "rank": pa.array(np.tile(np.arange(1, 4, dtype=np.int64), n)),
                "qid": pa.array(order.reshape(-1).astype(np.int64)),
            }
        )

    return ds.map_batches(top3, batch_format="pyarrow")


def _sql_knn_points_top3() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH q AS (
  SELECT qid, 122.0 + (qid * 17) % 24 AS qx, 24.0 + (qid * 13) % 22 AS qy
  FROM (SELECT UNNEST(RANGE(0, 16)) AS qid)
), pts AS (
  SELECT event_id, {lng} AS lng, {lat} AS lat FROM events
), d AS (
  SELECT event_id, qid,
         ROW_NUMBER() OVER (PARTITION BY event_id
                            ORDER BY (lng - qx) * (lng - qx) + (lat - qy) * (lat - qy), qid) AS rn
  FROM pts, q
)
SELECT event_id, rn AS rank, qid FROM d WHERE rn <= 3
"""


_SQL_KNN_POINTS_TOP3 = _sql_knn_points_top3()



# ---------------------------------------------------------------------------
# 24. Anti-join: customers with no orders (broadcast key-set filter)


def q_customers_without_orders(sf_dir: str, force: str | None = None):
    """Anti-join, planner-routed: customers with no URGENT-priority order.
    The orders side is filtered + key-projected before the planner sees it;
    its scan-metadata upper bound picks the broadcast key-set mask at bench
    scale and the hash-partitioned ``Dataset.join(left_anti)`` exchange at
    a scale where the bound exceeds the limit (force pins either path)."""
    from ..stages.joins import _scan_rooted_size, auto_join

    orders_scan = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    orders_bound = _scan_rooted_size(orders_scan)
    urgent = (
        orders_scan
        .filter(expr="o_orderpriority == '1-URGENT'")
        .select_columns(["o_custkey"])
    )
    return auto_join(
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]), urgent,
        how="left_anti", num_partitions=JOIN_PARTS,
        on=("c_custkey",), right_on=("o_custkey",),
        right_size_hint=orders_bound, force=force,
    )


_SQL_CUSTOMERS_WITHOUT_ORDERS = """
SELECT c_custkey, c_mktsegment FROM customer
WHERE c_custkey NOT IN (
  SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
)
"""


# ---------------------------------------------------------------------------
# 25. As-of join: each event matched to the user's latest prior order
#     (merge_asof per sorted group — the range-join pattern)

def q_asof_latest_order(sf_dir: str):
    """For each event, the most recent order of customer (user_id + 1) with
    o_orderdate <= ts; ties on date -> highest o_orderkey.

    Co-partitioned as-of join: both sides map to a shared (cust, ts_us)
    schema, union, and ONE hash shuffle on the customer key co-locates each
    customer's orders with their events; the per-group merge_asof is a
    vectorized searchsorted over the group's sorted orders. No side is ever
    materialized on the driver (VERDICT r1 item #1)."""

    def orders_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "cust": batch.column("o_custkey").cast(pa.int64()),
                "kind": pa.array(np.zeros(n, dtype=np.int8)),
                "event_id": pa.array(np.full(n, -1, dtype=np.int64)),
                "ts_us": batch.column("o_orderdate").cast(pa.int64()),
                "okey": batch.column("o_orderkey").cast(pa.int64()),
            }
        )

    def events_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        uid = batch.column("user_id").cast(pa.int64())
        return pa.table(
            {
                "cust": pa.compute.add(uid, 1),
                "kind": pa.array(np.ones(n, dtype=np.int8)),
                "event_id": batch.column("event_id").cast(pa.int64()),
                "ts_us": batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
                "okey": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.map_batches(orders_side, batch_format="pyarrow")
    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    events = events.map_batches(events_side, batch_format="pyarrow")

    def asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """Vectorized merged as-of over a whole customer bucket: one
        lexsort co-sorts every customer's orders and events, a running
        maximum carries 'index of the last order so far', and a customer
        mismatch at that index means 'no prior order' — no per-customer
        Python (one vectorized call per hash group replaces ~|customers|
        pandas group calls)."""
        n = len(g)
        cust = g["cust"].to_numpy()
        kind = g["kind"].to_numpy()
        ts = g["ts_us"].to_numpy()
        okey = g["okey"].to_numpy()
        eid = g["event_id"].to_numpy()
        # orders sort before events at equal ts (kind 0 < 1: date <= ts is
        # inclusive); among same-date orders ascending okey puts the max
        # last — "last at that date == max orderkey"
        order = np.lexsort((okey, kind, ts, cust))
        cust_s = cust[order]
        kind_s = kind[order]
        last_o = np.maximum.accumulate(
            np.where(kind_s == 0, np.arange(n), -1)
        )
        ev = kind_s == 1
        lo = last_o[ev]
        lo_c = np.clip(lo, 0, None)
        ok = (lo >= 0) & (cust_s[lo_c] == cust_s[ev])
        keys = np.where(ok, okey[order][lo_c], -1)
        return pd.DataFrame(
            {
                "event_id": eid[order][ev],
                "user_id": cust_s[ev] - 1,
                "o_orderkey_asof": keys,
            }
        )

    return grouped_apply(orders.union(events), ["cust"], asof_bucket)


_SQL_ASOF_LATEST_ORDER = """
WITH j AS (
  SELECT e.event_id, e.user_id, o.o_orderkey,
         ROW_NUMBER() OVER (
           PARTITION BY e.event_id
           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC
         ) AS rn
  FROM events e
  JOIN orders o
    ON o.o_custkey = e.user_id + 1 AND o.o_orderdate <= e.ts
)
SELECT e.event_id, e.user_id,
       COALESCE(j.o_orderkey, -1) AS o_orderkey_asof
FROM events e LEFT JOIN (SELECT * FROM j WHERE rn = 1) j USING (event_id)
"""



# ---------------------------------------------------------------------------
# 26. Running total per user (ordered-group running aggregate)


def q_running_total(sf_dir: str):
    """Cumulative per-user value over time — sorted-group iteration with
    carried state (the streaming running-aggregate shape)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        v = np.round(g["value"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "running_c": np.cumsum(v),
            }
        )

    return ds.groupby("user_id").map_groups(running, batch_format="pandas")


_SQL_RUNNING_TOTAL = """
SELECT event_id, user_id,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING
       ) AS BIGINT) AS running_c
FROM events
"""



# ---------------------------------------------------------------------------
# 27. Embedding-cosine near-dup (integer-exact cross-multiplication)


COSINE_NUM, COSINE_DEN = 2, 5  # threshold tau = 2/5 = 0.4


def q_embed_near_dup_cosine(sf_dir: str):
    """Pairs with cosine(a, b) > 0.4 over quantized embeddings, decided in
    pure integer arithmetic: dot > 0 and den^2*dot^2 > num^2*|a|^2*|b|^2 —
    no float accumulation anywhere, so Ray and DuckDB agree bit-for-bit.
    Pair generation is the distributed triangle block self-join
    (stages/knn.py:block_pair_join): exact, one shuffle, no driver-side
    table materialization."""
    from ..stages.knn import block_pair_join

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def cos_pairs(qa, ia, qb, ib):
        a_sq = (qa * qa).sum(axis=1)
        b_sq = (qb * qb).sum(axis=1)
        dot = qa @ qb.T  # int64, exact
        lhs = (COSINE_DEN * COSINE_DEN) * dot * dot
        rhs = (COSINE_NUM * COSINE_NUM) * a_sq[:, None] * b_sq[None, :]
        hit = (dot > 0) & (lhs > rhs) & (ia[:, None] != ib[None, :])
        sel_a, sel_b = np.nonzero(hit)
        return sel_a, sel_b, dot[sel_a, sel_b]

    return block_pair_join(ds, cos_pairs, "dot_q", n_blocks=8)


_SQL_EMBED_NEAR_DUP_COSINE = f"""
WITH ee AS (
  SELECT vec_id, i, CAST(ROUND(embedding[i] * 100) AS BIGINT) AS ev
  FROM embeddings, (SELECT UNNEST(RANGE(1, 65)) AS i)
), nrm AS (
  SELECT vec_id, SUM(ev * ev) AS sq FROM ee GROUP BY 1
), d AS (
  SELECT a.vec_id AS vec_a, b.vec_id AS vec_b, SUM(a.ev * b.ev) AS dot
  FROM ee a JOIN ee b ON a.i = b.i AND a.vec_id < b.vec_id
  GROUP BY 1, 2
)
SELECT vec_a, vec_b, CAST(dot AS BIGINT) AS dot_q
FROM d JOIN nrm na ON na.vec_id = vec_a JOIN nrm nb ON nb.vec_id = vec_b
WHERE dot > 0 AND {COSINE_DEN * COSINE_DEN} * dot * dot >
      {COSINE_NUM * COSINE_NUM} * na.sq * nb.sq
"""


# ---------------------------------------------------------------------------
# 28. BPE-ish token counting (letter runs / digit runs / single punct)


def q_token_bpeish(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def count(batch: pd.DataFrame) -> pd.DataFrame:
        batch["n_bpeish"] = (
            batch["text"].str.count(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]").astype("int64")
        )
        return batch[["source", "n_bpeish"]]

    ds = ds.map_batches(count, batch_format="pandas")
    return tree_group_agg(
        ds, ["source"],
        {"n_docs": (None, "count"), "sum_bpeish": ("n_bpeish", "sum")},
    )


_SQL_TOKEN_BPEISH = """
SELECT source, COUNT(*) AS n_docs,
       CAST(SUM(LEN(REGEXP_EXTRACT_ALL(text, '[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]'))) AS BIGINT) AS sum_bpeish
FROM documents GROUP BY 1
"""


# ---------------------------------------------------------------------------
# 29. Appearance theme join (ApplyAppearanceTransform, appearance.rs:13-122)


def q_appearance_theme(sf_dir: str):
    from ..stages.appearance import appearance_theme_join

    return appearance_theme_join(sf_dir)


_SQL_APPEARANCE_THEME = """
WITH n AS (SELECT COUNT(*) AS np FROM part),
e AS (
  SELECT event_id,
         CASE WHEN event_id % 3 <> 0 THEN 'rgbTexture' ELSE 'FMETheme' END AS theme,
         ((event_id * 7 + CASE WHEN event_id % 3 <> 0 THEN 0 ELSE 3 END)
           % (SELECT np FROM n)) AS tex_key,
         ((event_id * 13) % (SELECT np FROM n)) AS mat_key,
         (event_id % 4) + 3 AS uv_len,
         (event_id % 5) + 3 AS ring_len
  FROM events
)
SELECT e.event_id, e.theme,
       CASE WHEN e.tex_key % 5 <> 0 AND e.uv_len = e.ring_len
            THEN pt.p_name ELSE '__dummy__' END AS texture_name,
       CASE WHEN e.mat_key % 7 <> 0 THEN pm.p_type ELSE '__none__' END AS material_type
FROM e
JOIN part pt ON pt.p_partkey = e.tex_key
JOIN part pm ON pm.p_partkey = e.mat_key
"""


# ---------------------------------------------------------------------------
# 29b. Appearance two-phase per-file resolve (parse pass1/pass2 pattern)


def q_appearance_two_phase(sf_dir: str):
    from ..stages.appearance import appearance_two_phase

    return appearance_two_phase(sf_dir)


_SQL_APPEARANCE_TWO_PHASE = """
WITH f AS (
  SELECT event_id, event_id % 16 AS file_id,
         COUNT(*) FILTER (WHERE event_id % 3 <> 0)
           OVER (PARTITION BY event_id % 16) AS n_rgb,
         COUNT(*) OVER (PARTITION BY event_id % 16) AS n_file
  FROM events
)
SELECT event_id, file_id,
       CASE WHEN 2 * n_rgb > n_file THEN 'rgbTexture' ELSE 'FMETheme' END
         AS file_theme,
       ((event_id * 7 + CASE WHEN 2 * n_rgb > n_file THEN 0 ELSE 3 END)
         % 1000) AS tex_key
FROM f
"""


# ---------------------------------------------------------------------------
# 29c. PLY global vertex dedup (sink/ply global IndexSet role, SURVEY §2.6)


def q_vertex_dedup_global(sf_dir: str):
    """Global bit-exact vertex dedup: quantized-mm synthetic vertices from
    the events table collapse to one canonical id per distinct position
    (hash-partition + per-group min — the PLY writer's global vertex
    IndexSet expressed as the same combiner tree as exact doc dedup)."""
    ds = _read(sf_dir, "events", ["event_id"])

    def verts(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        return pa.table(
            {
                "vid": pa.array(eid),
                "x_mm": pa.array((eid * 37) % 5000),
                "y_mm": pa.array((eid * 91) % 4000),
                "z_mm": pa.array((eid * 13) % 300),
            }
        )

    ds = ds.map_batches(verts, batch_format="pyarrow")
    agg = tree_group_agg(
        ds, ["x_mm", "y_mm", "z_mm"],
        {"vid_keep": ("vid", "min"), "n_refs": (None, "count")},
    )
    return agg


_SQL_VERTEX_DEDUP_GLOBAL = """
SELECT (event_id * 37) % 5000 AS x_mm,
       (event_id * 91) % 4000 AS y_mm,
       (event_id * 13) % 300 AS z_mm,
       CAST(MIN(event_id) AS BIGINT) AS vid_keep,
       COUNT(*) AS n_refs
FROM events GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# 29d. Brute-force cosine top-k similarity search (the broadcast-query
#      matmul baseline from the build brief), integer-exact rank key


def q_embed_cosine_top3(sf_dir: str):
    """Top-3 queries per vector by cosine similarity. Ranking is exact in
    int64: key = sign(dot) * floor(dot^2 * 10^4 / |q|^2), computed with
    divmod so nothing overflows — the same expression the SQL oracle uses,
    so distributed ordering is bit-identical. Queries (first 8 vectors) are
    the broadcast side; each batch is one matmul."""
    from ..stages.knn import quantize

    head = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .sort("vec_id")
        .limit(8)
        .to_pandas()
    )
    qids = head["vec_id"].to_numpy().astype(np.int64)
    qv = quantize(np.stack(head["embedding"].to_numpy()))

    class CosTop3:
        def __init__(self, d):
            self.qids, self.qv, self.q_sq = d["qids"], d["qv"], d["q_sq"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            from ..stages.knn import quantize as _q

            emb = np.stack(batch.column("embedding").to_numpy(zero_copy_only=False))
            ids = batch.column("vec_id").to_numpy().astype(np.int64)
            v = _q(emb)
            dot = v @ self.qv.T  # (n, m) int64
            d2 = dot * dot
            qk, rk = np.divmod(d2, self.q_sq[None, :])
            key = np.where(dot >= 0, 1, -1) * (
                qk * 10_000 + rk * 10_000 // self.q_sq[None, :]
            )
            # rank by (-key, qid): argsort over qid-ordered columns is stable
            order = np.argsort(-key, axis=1, kind="stable")[:, :3]
            n = len(ids)
            return pa.table(
                {
                    "vec_id": pa.array(np.repeat(ids, 3)),
                    "rank": pa.array(np.tile(np.arange(1, 4, dtype=np.int64), n)),
                    "qid": pa.array(self.qids[order].reshape(-1)),
                    "cos_key": pa.array(key[np.arange(n)[:, None], order].reshape(-1)),
                }
            )

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ds.map_batches(
        CosTop3({"qids": qids, "qv": qv, "q_sq": (qv * qv).sum(axis=1)}),
        batch_format="pyarrow", batch_size=1024,
    )


_SQL_EMBED_COSINE_TOP3 = """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe FROM embeddings ORDER BY vec_id LIMIT 8
), qq AS (
  SELECT qid, i, CAST(ROUND(qe[i] * 100) AS BIGINT) AS qv
  FROM q, (SELECT UNNEST(RANGE(1, 65)) AS i)
), qn AS (
  SELECT qid, SUM(qv * qv) AS sq FROM qq GROUP BY 1
), ee AS (
  SELECT vec_id, i, CAST(ROUND(embedding[i] * 100) AS BIGINT) AS ev
  FROM embeddings, (SELECT UNNEST(RANGE(1, 65)) AS i)
), d AS (
  SELECT ee.vec_id, qq.qid, SUM(ee.ev * qq.qv) AS dot
  FROM ee JOIN qq ON ee.i = qq.i
  GROUP BY 1, 2
), k AS (
  SELECT d.vec_id, d.qid,
         (CASE WHEN d.dot >= 0 THEN 1 ELSE -1 END) *
         ((d.dot * d.dot) // qn.sq * 10000
          + ((d.dot * d.dot) % qn.sq) * 10000 // qn.sq) AS cos_key
  FROM d JOIN qn ON qn.qid = d.qid
), r AS (
  SELECT vec_id, qid, cos_key,
         ROW_NUMBER() OVER (PARTITION BY vec_id
                            ORDER BY cos_key DESC, qid ASC) AS rn
  FROM k
)
SELECT vec_id, rn AS rank, qid, CAST(cos_key AS BIGINT) AS cos_key
FROM r WHERE rn <= 3
"""


# ---------------------------------------------------------------------------
# 30. Language-ID confusion matrix — oracle-gated (the langid kernel's
#     distinct-stopword votes + CJK-ratio check, reproduced in SQL)


def q_lang_confusion(sf_dir: str):
    from ..stages.text import LangQuality

    ds = _read(sf_dir, "documents", ["text", "lang"])
    ds = ds.map_batches(LangQuality(), batch_format="pandas")
    ds = ds.select_columns(["lang", "lang_pred"])
    return tree_group_agg(ds, ["lang", "lang_pred"], {"n": (None, "count")})


def _sql_lang_confusion() -> str:
    from ..kernels.text import _STOPWORDS

    vote_exprs = []
    for lang in sorted(_STOPWORDS):
        terms = " + ".join(
            f"(CASE WHEN regexp_matches(lower(text), '\\b{w}\\b') THEN 1 ELSE 0 END)"
            for w in sorted(_STOPWORDS[lang])
        )
        vote_exprs.append(f"({terms}) AS v_{lang}")
    votes = ",\n         ".join(vote_exprs)
    return f"""
WITH v AS (
  SELECT lang, LENGTH(text) AS n,
         LENGTH(REGEXP_REPLACE(text, '[^぀-ヿ一-鿿]', '', 'g')) AS cjk,
         {votes}
  FROM documents
), p AS (
  SELECT lang, CASE
    WHEN n > 0 AND cjk > 0.1 * n THEN 'ja'
    WHEN v_de = 0 AND v_en = 0 AND v_es = 0 AND v_fr = 0 THEN 'unknown'
    WHEN v_de >= v_en AND v_de >= v_es AND v_de >= v_fr THEN 'de'
    WHEN v_en >= v_es AND v_en >= v_fr THEN 'en'
    WHEN v_es >= v_fr THEN 'es'
    ELSE 'fr' END AS lang_pred
  FROM v
)
SELECT lang, lang_pred, COUNT(*) AS n FROM p GROUP BY 1, 2
"""


_SQL_LANG_CONFUSION = _sql_lang_confusion()


# ---------------------------------------------------------------------------
# 30b. Quality filter (the training-data quality gate, integer thresholds)


def q_quality_filter(sf_dir: str):
    """Docs passing the quality gate (alpha-ratio >= 1/2 by integer
    cross-multiplication, >= 5 whitespace tokens), counted per (lang,
    source) — the corpus-filtering stage of a training-data pipeline,
    on TextStats' vectorized counters."""
    from ..stages.text import TextStats

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    ds = ds.map_batches(TextStats(), batch_format="pandas")

    def gate(batch: pd.DataFrame) -> pd.DataFrame:
        keep = (2 * batch["n_alpha"] >= batch["n_chars_calc"]) & (
            batch["n_tokens"] >= 5
        )
        return batch.loc[keep, ["lang", "source"]]

    ds = ds.map_batches(gate, batch_format="pandas")
    return tree_group_agg(ds, ["lang", "source"], {"n_pass": (None, "count")})


_SQL_QUALITY_FILTER = """
WITH t AS (
  SELECT lang, source,
         LENGTH(REGEXP_REPLACE(text, '[^A-Za-z]', '', 'g')) AS n_alpha,
         LENGTH(text) AS n_chars,
         LEN(REGEXP_EXTRACT_ALL(text, '\\S+')) AS n_tokens
  FROM documents
)
SELECT lang, source, COUNT(*) AS n_pass
FROM t WHERE 2 * n_alpha >= n_chars AND n_tokens >= 5
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 31. Range join: per event, count of that customer's orders in the
#     trailing 30-day window (co-partitioned union + searchsorted bounds —
#     the bucketed range-join pattern, same shuffle as the as-of join)


def q_range_join_recent(sf_dir: str):
    WINDOW_US = 30 * 86400 * 1_000_000

    def orders_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "cust": batch.column("o_custkey").cast(pa.int64()),
                "kind": pa.array(np.zeros(n, dtype=np.int8)),
                "event_id": pa.array(np.full(n, -1, dtype=np.int64)),
                "ts_us": batch.column("o_orderdate").cast(pa.int64()),
            }
        )

    def events_side(batch: pa.Table) -> pa.Table:
        """Two probe rows per event: kind 1 at ts (window top, inclusive)
        and kind 2 at ts - W (window bottom; orders AT ts - W count as
        outside, so the probe sorts after them)."""
        n = batch.num_rows
        uid = batch.column("user_id").cast(pa.int64()).to_numpy()
        eid = batch.column("event_id").cast(pa.int64()).to_numpy()
        ts = (
            batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy()
        )
        return pa.table(
            {
                "cust": pa.array(np.concatenate([uid + 1, uid + 1])),
                "kind": pa.array(
                    np.concatenate(
                        [np.ones(n, np.int8), np.full(n, 2, np.int8)]
                    )
                ),
                "event_id": pa.array(np.concatenate([eid, eid])),
                "ts_us": pa.array(np.concatenate([ts, ts - WINDOW_US])),
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.map_batches(orders_side, batch_format="pyarrow")
    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    events = events.map_batches(events_side, batch_format="pyarrow")

    def count_window_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """Vectorized windowed count over a whole customer bucket: one
        lexsort, one running order-count; per event the count is
        cum[top probe] - cum[bottom probe] — orders of other customers
        cancel because both probes sit inside the same customer segment."""
        n = len(g)
        cust = g["cust"].to_numpy()
        kind = g["kind"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        order = np.lexsort((kind, ts, cust))
        kind_s = kind[order]
        eid_s = eid[order]
        cum = np.cumsum(kind_s == 0)
        hi_m = kind_s == 1
        lo_m = kind_s == 2
        hi_eid = eid_s[hi_m]
        lo_eid = eid_s[lo_m]
        oh = np.argsort(hi_eid, kind="stable")
        ol = np.argsort(lo_eid, kind="stable")
        counts = cum[hi_m][oh] - cum[lo_m][ol]
        return pd.DataFrame(
            {
                "event_id": hi_eid[oh],
                "user_id": cust[order][hi_m][oh] - 1,
                "n_recent_orders": counts.astype(np.int64),
            }
        )

    return grouped_apply(orders.union(events), ["cust"], count_window_bucket)


_SQL_RANGE_JOIN_RECENT = """
SELECT e.event_id, e.user_id, COUNT(o.o_orderkey) AS n_recent_orders
FROM events e LEFT JOIN orders o
  ON o.o_custkey = e.user_id + 1
 AND o.o_orderdate <= e.ts
 AND o.o_orderdate > e.ts - INTERVAL 30 DAY
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 32-34. Ordered-group window operators: lag delta, median, mode


def q_lag_delta(sf_dir: str):
    """Per-user delta vs the previous event's value (LAG window analogue)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def delta(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        v = np.round(g["value"].to_numpy() * 100).astype(np.int64)
        d = np.diff(v, prepend=v[:1])  # first row: delta 0 (COALESCE)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "delta_c": d,
            }
        )

    return ds.groupby("user_id").map_groups(delta, batch_format="pandas")


_SQL_LAG_DELTA = """
SELECT event_id, user_id,
       CAST(COALESCE(
         CAST(ROUND(value * 100) AS BIGINT)
         - LAG(CAST(ROUND(value * 100) AS BIGINT)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id), 0) AS BIGINT)
       AS delta_c
FROM events
"""


def q_median_value_per_user(sf_dir: str):
    """Exact distributed median via a value histogram: the shuffle carries
    (user, value_cents, count) partials — bounded by the value domain, not
    the row count — and the final single block resolves each user's two
    middle ranks with vectorized searchsorted over cumulative counts
    (numpy/DuckDB interpolation: (lo + hi) / 2). No per-group Python
    (r2 verdict item #7)."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def to_cents(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {"user_id": batch.column("user_id"), "value_c": pa.array(v)}
        )

    hist = tree_group_agg(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        ["user_id", "value_c"], {"cnt": (None, "count")},
    )

    def median_from_hist(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "value_c"], kind="mergesort")
        uid = df["user_id"].to_numpy()
        vc = df["value_c"].to_numpy()
        cnt = df["cnt"].to_numpy()
        starts = np.concatenate([[0], np.nonzero(uid[1:] != uid[:-1])[0] + 1])
        totals = np.add.reduceat(cnt, starts)
        cum = np.cumsum(cnt)
        base = np.concatenate([[0], cum[starts[1:] - 1]])
        # 0-based middle ranks (n-1)//2 and n//2; the rank-k element is the
        # first histogram row whose global cumulative count reaches base+k+1
        lo = vc[np.searchsorted(cum, base + (totals - 1) // 2 + 1)]
        hi = vc[np.searchsorted(cum, base + totals // 2 + 1)]
        return pd.DataFrame(
            {
                "user_id": uid[starts],
                "median_c": (lo + hi) / 2.0,
                "n": totals,
            }
        )

    return hist.map_batches(median_from_hist, batch_format="pandas", batch_size=None)


_SQL_MEDIAN_VALUE_PER_USER = """
SELECT user_id,
       MEDIAN(CAST(ROUND(value * 100) AS BIGINT)) AS median_c,
       COUNT(*) AS n
FROM events GROUP BY 1
"""


def q_mode_event_type(sf_dir: str):
    """Most frequent event_type per user; ties -> lexicographically first.

    (user, type) counts through the combiner tree, then one vectorized
    sort + drop_duplicates picks each user's (max count, lexicographically
    first) row — no per-group Python (r2 verdict item #7)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    counts = tree_group_agg(ds, ["user_id", "event_type"], {"cnt": (None, "count")})

    def pick_mode(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["user_id", "cnt", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        ).drop_duplicates("user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(),
                "mode_type": df["event_type"].to_numpy(),
                "mode_n": df["cnt"].to_numpy(),
            }
        )

    return counts.map_batches(pick_mode, batch_format="pandas", batch_size=None)


_SQL_MODE_EVENT_TYPE = """
WITH c AS (
  SELECT user_id, event_type, COUNT(*) AS cnt FROM events GROUP BY 1, 2
), r AS (
  SELECT user_id, event_type, cnt,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY cnt DESC, event_type ASC) AS rn
  FROM c
)
SELECT user_id, event_type AS mode_type, cnt AS mode_n FROM r WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# 40. Blocked exact n-gram Jaccard near-dup (LSH-free member of the dedup
# family; SQL-twinnable because grams stay literal strings and the emitted
# values are integer-scaled)


def q_ngram_jaccard_pairs(sf_dir: str):
    from ..stages.dedup import ngram_jaccard_blocked

    return ngram_jaccard_blocked(sf_dir)


_SQL_NGRAM_JACCARD_PAIRS = """
WITH sh AS (
  SELECT doc_id, lang, source, n_chars // 32 AS lb,
         list_distinct(
           list_transform(range(1, length(text) - 1),
                          i -> substring(text, i, 3))) AS grams
  FROM documents
), p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.grams, b.grams)) AS inter,
         len(list_distinct(list_concat(a.grams, b.grams))) AS uni
  FROM sh a JOIN sh b
    ON a.lang = b.lang AND a.source = b.source AND a.lb = b.lb
   AND a.doc_id < b.doc_id
)
SELECT doc_a, doc_b, inter, uni, (inter * 1000000) // uni AS jac_e6
FROM p WHERE uni > 0 AND (inter * 1000000) // uni >= 300000
"""


# ---------------------------------------------------------------------------
# 40b. Duplicate clusters: distributed connected components (alternating
# large-star/small-star, stages/graph.py) over the n-gram-Jaccard pair
# graph — pairs -> clusters, the keep-one-per-cluster step every dedup
# pipeline ends with. Oracle: same pair SQL + recursive-CTE transitive
# closure, component id = min reachable node.


def q_dup_clusters(sf_dir: str):
    from ..stages.dedup import ngram_jaccard_blocked
    from ..stages.graph import connected_components

    pairs = ngram_jaccard_blocked(sf_dir).select_columns(["doc_a", "doc_b"])
    return connected_components(pairs)


# shared near-dup pair CTE: the SQL twin of stages/dedup.py::
# ngram_jaccard_blocked (blocked exact word-trigram Jaccard >= 0.3).
# Interpolated into every graph-oracle that builds on the pair set
# (dup_clusters, corpus_dedup, pagerank, triangle_count, bfs_hops) so the
# blocking rule / threshold lives in ONE place.
_SQL_DUP_PAIRS_CTE = """sh AS (
  SELECT doc_id, lang, source, n_chars // 32 AS lb,
         list_distinct(
           list_transform(range(1, length(text) - 1),
                          i -> substring(text, i, 3))) AS grams
  FROM documents
), p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM sh a JOIN sh b
    ON a.lang = b.lang AND a.source = b.source AND a.lb = b.lb
   AND a.doc_id < b.doc_id
  WHERE len(list_distinct(list_concat(a.grams, b.grams))) > 0
    AND (len(list_intersect(a.grams, b.grams)) * 1000000)
        // len(list_distinct(list_concat(a.grams, b.grams))) >= 300000
)"""


_SQL_DUP_CLUSTERS = f"""
WITH RECURSIVE {_SQL_DUP_PAIRS_CTE}, sym AS (
  SELECT doc_a AS u, doc_b AS v FROM p
  UNION ALL SELECT doc_b, doc_a FROM p
), reach AS (
  SELECT u, v FROM sym
  UNION
  SELECT r.u, s.v FROM reach r JOIN sym s ON r.v = s.u
)
SELECT u AS doc_id, LEAST(u, MIN(v)) AS comp FROM reach GROUP BY u
"""


# ---------------------------------------------------------------------------
# 41. Q18-style "large orders": aggregate -> HAVING filter -> two hash joins.
# New plan shape vs top_orders: the filter runs on the AGGREGATE (post-
# combiner, one row per order), so both joins only move qualifying keys.


def q_large_orders(sf_dir: str):
    """Orders whose total line quantity exceeds 150: per-order quantity via
    the combiner tree, filter ON the aggregate, then hash-join orders and
    customer. The quantity sum is integer-exact (quantities are integral);
    o_totalprice is emitted in cents."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def qty(batch: pa.Table) -> pa.Table:
        q = np.round(batch.column("l_quantity").to_numpy()).astype(np.int64)
        return pa.table(
            {"l_orderkey": batch.column("l_orderkey"), "qty": pa.array(q)}
        )

    agg = tree_group_agg(
        li.map_batches(qty, batch_format="pyarrow"),
        ["l_orderkey"], {"sum_qty": ("qty", "sum")},
    )
    big = agg.filter(expr="sum_qty > 150")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def scale_tp(batch: pa.Table) -> pa.Table:
        tp = np.round(batch.column("o_totalprice").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_custkey": batch.column("o_custkey"),
                "total_price_c": pa.array(tp),
            }
        )

    orders = orders.map_batches(scale_tp, batch_format="pyarrow")
    j = big.join(
        orders, "inner", num_partitions=JOIN_PARTS,
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    # the qualifying-order side has no provable scan bound (an aggregate's
    # output size isn't bounded by its input scan in any useful way), so
    # that join stays a shuffle; the customer attach IS scan-bounded and
    # planner-routes
    from ..stages.joins import _scan_rooted_size, auto_join
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    j = auto_join(
        j, cust, num_partitions=JOIN_PARTS,
        on=("o_custkey",), right_on=("c_custkey",),
        right_size_hint=_scan_rooted_size(cust),
    )
    j = j.rename_columns({"l_orderkey": "o_orderkey"})
    return j.select_columns(["o_orderkey", "c_name", "total_price_c", "sum_qty"])


_SQL_LARGE_ORDERS = """
WITH q AS (
  SELECT l_orderkey,
         CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty
  FROM lineitem GROUP BY 1 HAVING sum_qty > 150
)
SELECT o_orderkey, c_name,
       CAST(ROUND(o_totalprice * 100) AS BIGINT) AS total_price_c, sum_qty
FROM q JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
"""


# ---------------------------------------------------------------------------
# 42. Q14-style promo revenue: combiner per partkey -> hash join part ->
# conditional aggregate -> single-row tree reduce (integer-exact fraction).


def q_promo_revenue(sf_dir: str):
    """Share of discounted revenue from PROMO-type parts. lineitem is
    pre-aggregated per partkey (the join exchange carries one row per part,
    not one per line item); p_type arrives by hash join; the global
    promo/total sums reduce through a constant-key combiner tree, and the
    fraction is integer floor-scaled so the oracle matches bit-for-bit."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def rev(batch: pa.Table) -> pa.Table:
        ep = batch.column("l_extendedprice").to_numpy()
        d = batch.column("l_discount").to_numpy()
        r = np.round(ep * (1 - d) * 10000).astype(np.int64)
        return pa.table(
            {"l_partkey": batch.column("l_partkey"), "rev_s": pa.array(r)}
        )

    per_part = combine_blocks(
        li.map_batches(rev, batch_format="pyarrow"),
        ["l_partkey"], {"rev_s": ("rev_s", "sum")},
    )  # partials only: the post-join reduce re-sums, so split keys are fine

    from ..stages.joins import auto_join
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])
    j = auto_join(
        per_part, part, num_partitions=JOIN_PARTS,
        on=("l_partkey",), right_on=("p_partkey",),
    )

    def split(batch: pd.DataFrame) -> pd.DataFrame:
        promo = (batch["p_type"].to_numpy() == "PROMO").astype(np.int64)
        rev_s = batch["rev_s"].to_numpy()
        return pd.DataFrame(
            {
                "one": np.zeros(len(batch), dtype=np.int64),
                "promo_rev_s": promo * rev_s,
                "total_rev_s": rev_s,
            }
        )

    tot = tree_group_agg(
        j.map_batches(split, batch_format="pandas"),
        ["one"],
        {"promo_rev_s": ("promo_rev_s", "sum"), "total_rev_s": ("total_rev_s", "sum")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # the fraction multiply exceeds int64 at sf >= 0.1 (total_rev_s ~
        # 5e13 x 1e6): compute in Python big ints (one row), mirror with
        # HUGEINT in the oracle
        p = int(df["promo_rev_s"].iloc[0])
        t = int(df["total_rev_s"].iloc[0])
        return pd.DataFrame(
            {
                "promo_rev_s": np.array([p], dtype=np.int64),
                "total_rev_s": np.array([t], dtype=np.int64),
                "promo_frac_e6": np.array([p * 1_000_000 // t], dtype=np.int64),
            }
        )

    return tot.map_batches(finish, batch_format="pandas", batch_size=None)


_SQL_PROMO_REVENUE = """
WITH r AS (
  SELECT CAST(SUM(CASE WHEN p_type = 'PROMO'
                  THEN CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)
                  ELSE 0 END) AS BIGINT) AS promo_rev_s,
         CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS total_rev_s
  FROM lineitem JOIN part ON p_partkey = l_partkey
)
SELECT promo_rev_s, total_rev_s,
       CAST((CAST(promo_rev_s AS HUGEINT) * 1000000)
            // CAST(total_rev_s AS HUGEINT) AS BIGINT) AS promo_frac_e6
FROM r
"""


# ---------------------------------------------------------------------------
# 43. Q7-style volume shipping: revenue matrix by (supplier nation x
# customer nation). Supplier/nation dims attach by broadcast lookup (the
# documented small-side threshold); orders and customer by hash join.


def q_volume_shipping(sf_dir: str):
    """Revenue by (supp_nation, cust_nation). The supplier->nation and
    nation-name maps are broadcast dictionaries inside the task fn (dim
    sizes ~100/25 here; at TPC-H SF-scaled supplier counts flip the
    supplier attach to a hash join — the threshold is the block budget,
    see docs/SCALE.md); orders then customer arrive by hash-partitioned
    Dataset.join, each exchange carrying one pre-scaled revenue row per
    line item. Final (25 x 25)-key reduce via the combiner tree."""
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    n_name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    s_nation = dict(zip(supp["s_suppkey"], supp["s_nationkey"]))

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def attach_supp(batch: pd.DataFrame) -> pd.DataFrame:
        ep = batch["l_extendedprice"].to_numpy()
        d = batch["l_discount"].to_numpy()
        rev = np.round(ep * (1 - d) * 10000).astype(np.int64)
        sk = batch["l_suppkey"].map(s_nation).to_numpy()
        return pd.DataFrame(
            {
                "l_orderkey": batch["l_orderkey"].to_numpy(),
                "supp_nk": sk,
                "rev_s": rev,
            }
        )

    li = li.map_batches(attach_supp, batch_format="pandas")
    # both build sides are bare scans: the planner reads their O(1)
    # parquet-metadata size and broadcasts under the limit (zero fact
    # shuffle at bench scale), hash-joins above it
    from ..stages.joins import auto_join
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j = auto_join(
        li, orders, num_partitions=JOIN_PARTS,
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j = auto_join(
        j, cust, num_partitions=JOIN_PARTS,
        on=("o_custkey",), right_on=("c_custkey",),
    )

    def name_pair(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "supp_nation": batch["supp_nk"].map(n_name).to_numpy(),
                "cust_nation": batch["c_nationkey"].map(n_name).to_numpy(),
                "rev_s": batch["rev_s"].to_numpy(),
            }
        )

    j = j.map_batches(name_pair, batch_format="pandas")
    return tree_group_agg(
        j, ["supp_nation", "cust_nation"],
        {"revenue_s": ("rev_s", "sum"), "n_items": (None, "count")},
    )


_SQL_VOLUME_SHIPPING = """
SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
       CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_s,
       COUNT(*) AS n_items
FROM lineitem
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation sn ON sn.n_nationkey = s_nationkey
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation cn ON cn.n_nationkey = c_nationkey
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 44. Sketches (stages/sketch.py): HLL approx-distinct (rows-only; error
# pinned in pytest) and Count-Min threshold heavy hitters — oracle-gated
# EXACT because the sketch only generates a candidate SUPERSET (Count-Min
# never undercounts) and an exact recount of the candidates closes it.


def q_approx_distinct_events(sf_dir: str):
    """HLL(p=12) distinct event_id estimate: 4 KB of registers per block
    through the merge tree instead of an all-keys shuffle."""
    from ..stages.sketch import approx_distinct

    ds = _read(sf_dir, "events", ["event_id"])
    return approx_distinct(ds, "event_id", p=12)


def q_heavy_users(sf_dir: str):
    """Users with >= 0.75% of all events. Plan: distributed Count-Min build
    (one (4x2048) partial per block, sum tree merge) -> per-key prune at
    the map stage (estimate >= t keeps ALL of a key's rows or none, and
    never drops a true heavy hitter) -> exact recount of candidates via
    the combiner tree -> threshold filter. The sketch bounds every task's
    memory; the exact tail makes the answer oracle-exact."""
    import math

    from ..stages.sketch import cm_build, cm_query

    ds = _read(sf_dir, "events", ["user_id"])
    cm = cm_build(ds, "user_id", w=2048, d=4)
    # every row increments each of the d counter rows once, so a row-sum
    # of the merged sketch IS the exact total — no separate count() pass
    total = int(cm[0].sum())
    t = math.ceil(0.0075 * total)

    def prune(batch: pa.Table) -> pa.Table:
        est = cm_query(cm, batch.column("user_id").to_numpy())
        return batch.filter(pa.array(est >= t))

    cand = ds.map_batches(prune, batch_format="pyarrow")
    counts = tree_group_agg(cand, ["user_id"], {"n": (None, "count")})

    def threshold(batch: pd.DataFrame) -> pa.Table:
        out = batch[batch["n"] >= t]
        return pa.table(
            {
                "user_id": pa.array(out["user_id"].to_numpy(), pa.int64()),
                "n": pa.array(out["n"].to_numpy(), pa.int64()),
            }
        )

    import ray.data

    # Ray drops empty map-output blocks, so an sf where the prune removes
    # every row would yield a ZERO-block (schema-less) dataset; a typed
    # empty seed block keeps the schema contract for the empty result
    seed = ray.data.from_arrow(
        pa.table({"user_id": pa.array([], pa.int64()),
                  "n": pa.array([], pa.int64())})
    )
    return seed.union(counts.map_batches(threshold, batch_format="pandas"))


_SQL_HEAVY_USERS = """
SELECT user_id, COUNT(*) AS n FROM events GROUP BY 1
HAVING COUNT(*) >= CEIL(0.0075 * (SELECT COUNT(*) FROM events))
"""


# ---------------------------------------------------------------------------
# 45. Deterministic hash split (train/test) — the dataset-split op every
# training pipeline needs: the split is a pure function of the KEY (stable
# under re-runs, re-partitioning and resume), vectorized per batch, and
# exactly twinned in SQL via the same multiplicative-hash arithmetic
# (key * Knuth's 2654435761 mod 2^32; exact while key < ~3.47e9 — the
# documented id-domain bound shared by every multiplicative-hash use in
# this module; a wider id space switches the key to splitmix64/uint64).


def q_hash_split(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def split(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy()
        h = (uid * 2654435761) % (1 << 32)
        train = (h % 1000) < 800
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "split": pa.array(np.where(train, "train", "test")),
                "value_c": pa.array(v),
            }
        )

    ds = ds.map_batches(split, batch_format="pyarrow")
    return tree_group_agg(
        ds, ["split"],
        {"n": (None, "count"), "sum_value_c": ("value_c", "sum")},
    )


_SQL_HASH_SPLIT = """
SELECT CASE WHEN ((user_id * 2654435761) % 4294967296) % 1000 < 800
            THEN 'train' ELSE 'test' END AS split,
       COUNT(*) AS n,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events GROUP BY 1
"""


# ---------------------------------------------------------------------------
# 45a2. Top terms per document (inverted-index / TF-DF scoring): tokenize
# -> per-(doc, term) tf via the combiner tree -> per-term document
# frequency -> ONE hash-join exchange tf JOIN df on term -> per-doc top-3
# by the df-normalized score tf/df. The ranking ratio is an IEEE division
# of small ints (bit-identical across engines); emitted columns are ints
# only. The per-block prune keeps <= 3 rows per (doc, block) before the
# final doc shuffle, so the last exchange is rank-bounded, not
# corpus-bounded.


def _doc_tf(sf_dir: str):
    """(doc_id, term, tf) via whitespace tokenize + combiner tree; shared by
    the term-scoring and repetition-quality operators."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tokens(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(batch.column("text").cast(pa.string()), " ")
        lens = pc.list_value_length(toks).to_numpy()
        did = np.repeat(batch.column("doc_id").to_numpy(), lens)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "")
        return pa.table(
            {"doc_id": pa.array(did), "term": flat}
        ).filter(keep)

    tok = ds.map_batches(tokens, batch_format="pyarrow")
    # (doc, term) keys are FACT-SIZED, so the merge uses the parallel
    # coarse-hash groupby (grouped_group_agg) rather than the agg tree's
    # fan-1 final — the output also lands in parallel blocks, so
    # consumers' probe filters fan out without paying a re-split
    # exchange (a post-hoc repartition(32) cost more than it bought;
    # measured both ways).
    from ..stages.treeagg import grouped_group_agg

    return grouped_group_agg(
        tok, ["doc_id", "term"], {"tf": (None, "count")}
    )


def q_top_terms_per_doc(sf_dir: str, k: int = 3):
    # tf feeds BOTH the df aggregate and the join probe side; materialize
    # once so the tokenize + combiner tree doesn't execute twice (blocks
    # stay in the object store and spill — no driver copy)
    tf = _doc_tf(sf_dir).materialize()
    df = tree_group_agg(tf, ["term"], {"df": (None, "count")}).materialize()
    # df is vocabulary-bounded: broadcast it as a per-batch pandas hash
    # merge when its MEASURED size fits (tf already lands in parallel
    # blocks from the grouped agg); the shuffle join stays the fallback
    if df.size_bytes() <= BROADCAST_BUDGET:
        df_pd = df.to_pandas()
        from ..stages.treeagg import clean_arrow as _ca

        joined = tf.map_batches(
            lambda g: _ca(g.merge(df_pd, on="term")),
            batch_format="pandas", batch_size=None,
        )
    else:
        joined = tf.join(
            df, "inner", num_partitions=JOIN_PARTS, on=("term",)
        )

    def block_prune(g: pd.DataFrame) -> pa.Table:
        from ..stages.treeagg import clean_arrow

        g = g.assign(score=g["tf"].to_numpy() / g["df"].to_numpy())
        g = g.sort_values(["doc_id", "score", "term"],
                          ascending=[True, False, True])
        out = g.groupby("doc_id", as_index=False).head(k)
        return clean_arrow(out[["doc_id", "term", "tf", "df"]])

    # final per-doc top-k over the pruned candidates: each doc-keyed hash
    # group resolved by ONE vectorized sort + groupby-head (not one
    # pandas invocation per doc)
    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(score=g["tf"].to_numpy() / g["df"].to_numpy())
        g = g.sort_values(["doc_id", "score", "term"],
                          ascending=[True, False, True])
        out = g.groupby("doc_id", as_index=False).head(k)
        return out[["doc_id", "term", "tf", "df"]]

    pruned = joined.map_batches(
        block_prune, batch_format="pandas", batch_size=None
    )
    return grouped_apply(pruned, ["doc_id"], final_topk)


_SQL_TOP_TERMS_PER_DOC = """
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS term FROM documents
), tf AS (
  SELECT doc_id, term, COUNT(*) AS tf FROM tok WHERE term <> '' GROUP BY 1, 2
), df AS (
  SELECT term, COUNT(*) AS df FROM tf GROUP BY 1
), r AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                            ORDER BY CAST(tf.tf AS DOUBLE) / df.df DESC,
                                     tf.term ASC) AS rn
  FROM tf JOIN df USING (term)
)
SELECT doc_id, term, tf, df FROM r WHERE rn <= 3
"""


# ---------------------------------------------------------------------------
# 45a3. Repetition-based quality signals (the Gopher-style repetition
# filters): per doc, most-common-word fraction and duplicate-word
# fraction, integer-scaled. Reuses the (doc, term, tf) combiner tree; the
# second aggregate is one row per doc.


def q_doc_repetition(sf_dir: str):
    tf = _doc_tf(sf_dir)
    d = tree_group_agg(
        tf, ["doc_id"],
        {
            "n_tok": ("tf", "sum"),
            "max_tf": ("tf", "max"),
            "n_terms": (None, "count"),
        },
    )

    def ratios(batch: pa.Table) -> pa.Table:
        n_tok = batch.column("n_tok").to_numpy()
        max_tf = batch.column("max_tf").to_numpy()
        n_terms = batch.column("n_terms").to_numpy()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tok": batch.column("n_tok"),
                "max_tf": batch.column("max_tf"),
                "n_terms": batch.column("n_terms"),
                "rep_e6": pa.array(max_tf * 1_000_000 // n_tok),
                "dup_e6": pa.array((n_tok - n_terms) * 1_000_000 // n_tok),
            }
        )

    return d.map_batches(ratios, batch_format="pyarrow")


_SQL_DOC_REPETITION = """
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS term FROM documents
), tf AS (
  SELECT doc_id, term, COUNT(*) AS tf FROM tok WHERE term <> '' GROUP BY 1, 2
), d AS (
  SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS n_tok,
         CAST(MAX(tf) AS BIGINT) AS max_tf, COUNT(*) AS n_terms
  FROM tf GROUP BY 1
)
SELECT doc_id, n_tok, max_tf, n_terms,
       (max_tf * 1000000) // n_tok AS rep_e6,
       ((n_tok - n_terms) * 1000000) // n_tok AS dup_e6
FROM d
"""


# ---------------------------------------------------------------------------
# 45a4. Per-group outlier detection with EXACT integer algebra: flag events
# whose |z| > 3 within their user's distribution. z^2 > 9 is rewritten as
# (n*x - s)^2 > 9*(n*ss - s^2) — all int64, no float mean/std crosses an
# engine boundary, so the oracle matches bit-for-bit. Plan: per-user
# (n, sum, sumsq) via the combiner tree, ONE hash-join exchange back to
# the events, vectorized integer filter.


def q_outlier_events(sf_dir: str, force: str | None = None):
    from ..stages.joins import _scan_rooted_size, auto_join

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "value_c": pa.array(v),
                "sq": pa.array(v * v),
            }
        )

    e = ds.map_batches(prep, batch_format="pyarrow")
    stats = tree_group_agg(
        e, ["user_id"],
        {"n": (None, "count"), "s": ("value_c", "sum"), "ss": ("sq", "sum")},
    )
    # advisory bound for the planner: the per-user stats table has <= one
    # row per fact row at 4 int64 columns, estimated as 4x the O(1)
    # parquet-metadata key-column size (encoding can undercount — the
    # broadcast path's RUNTIME memory_usage fallback is the enforcement).
    # Under the limit -> broadcast (zero fact shuffle); at a scale where
    # the user population outgrows it the SAME code plans the partitioned
    # hash join (force='shuffle' pins that path).
    key_scan = _scan_rooted_size(_read(sf_dir, "events", ["user_id"]))
    stats_bound = 4 * key_scan if key_scan is not None else None
    joined = auto_join(
        e.select_columns(["event_id", "user_id", "value_c"]), stats,
        on=("user_id",), num_partitions=JOIN_PARTS,
        right_size_hint=stats_bound, force=force,
    )

    def flag(batch: pa.Table) -> pa.Table:
        x = batch.column("value_c").to_numpy()
        n = batch.column("n").to_numpy()
        s = batch.column("s").to_numpy()
        ss = batch.column("ss").to_numpy()
        dev = n * x - s
        keep = dev * dev > 9 * (n * ss - s * s)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "value_c": batch.column("value_c"),
            }
        ).filter(pa.array(keep))

    return joined.map_batches(flag, batch_format="pyarrow")


_SQL_OUTLIER_EVENTS = """
WITH e AS (
  SELECT event_id, user_id, CAST(ROUND(value * 100) AS BIGINT) AS value_c
  FROM events
), s AS (
  SELECT user_id, COUNT(*) AS n, CAST(SUM(value_c) AS BIGINT) AS s,
         CAST(SUM(value_c * value_c) AS BIGINT) AS ss
  FROM e GROUP BY 1
)
SELECT e.event_id, e.user_id, e.value_c
FROM e JOIN s USING (user_id)
WHERE (e.value_c * n - s) * (e.value_c * n - s) > 9 * (n * ss - s * s)
"""


# ---------------------------------------------------------------------------
# 45a5. Embedding centroids per label — the vector aggregate of a training
# pipeline (class means for probing/clustering). Each element is scaled to
# int64 BEFORE summing, so the reduction is order-free and exact; the
# per-batch combiner scatter-adds a (labels x dim) partial, so the shuffle
# carries labels x dim rows per block, never vectors.


def q_embed_centroids(sf_dir: str):
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding").combine_chunks()
        flat = emb.flatten().to_numpy().astype(np.float64)
        dim = len(flat) // len(batch)
        mat = np.round(flat * 1_000_000).astype(np.int64).reshape(-1, dim)
        labels = batch.column("label").to_numpy().astype(np.int64)
        uniq, inv, counts = np.unique(
            labels, return_inverse=True, return_counts=True
        )
        acc = np.zeros((len(uniq), dim), dtype=np.int64)
        np.add.at(acc, inv, mat)
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, dim)),
                "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                        len(uniq))),
                "sum_e6": pa.array(acc.reshape(-1)),
                "n": pa.array(np.repeat(counts.astype(np.int64), dim)),
            }
        )

    p = ds.map_batches(partial, batch_format="pyarrow")
    return tree_group_agg(
        p, ["label", "dim"], {"sum_e6": ("sum_e6", "sum"), "n": ("n", "sum")}
    )


_SQL_EMBED_CENTROIDS = """
SELECT CAST(label AS BIGINT) AS label,
       CAST(z[2] - 1 AS BIGINT) AS dim,
       CAST(SUM(CAST(ROUND(CAST(z[1] AS DOUBLE) * 1000000) AS BIGINT))
            AS BIGINT) AS sum_e6,
       COUNT(*) AS n
FROM (
  SELECT label, UNNEST(list_zip(embedding, range(1, len(embedding) + 1))) AS z
  FROM embeddings
)
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 45a6. Global decile bucketing (feature binning / NTILE): every event gets
# its decile in the GLOBAL (value, event_id) order — the quantile-bin step
# of feature engineering. Plan: the global sort is avoided — a combiner
# tree collapses the corpus to a distinct-value count table (bounded by
# the value domain, ~25k two-decimal values, not the row count), the
# driver turns it into cumulative base ranks, and one groupby(value)
# exchange assigns within-value ranks vectorized. Only the distinct-value
# table ever leaves the cluster.


def q_decile_bucket(sf_dir: str, buckets: int = 10):
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {"event_id": batch.column("event_id"), "value_c": pa.array(v)}
        )

    e = ds.map_batches(prep, batch_format="pyarrow")
    counts = (
        tree_group_agg(e, ["value_c"], {"n": (None, "count")})
        .to_pandas()
        .sort_values("value_c")
    )
    total = int(counts["n"].sum())
    vals_sorted = counts["value_c"].to_numpy()
    base_arr = np.concatenate([[0], counts["n"].cumsum().to_numpy()[:-1]])
    kk, m = divmod(total, buckets)
    thresh = m * (kk + 1)

    # one exchange keyed on the value (not one pandas invocation per
    # distinct value); within a group the per-value ranks come from a
    # vectorized run-length pass over the (value, event) sort, base ranks
    # from a searchsorted against the broadcast distinct table
    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value_c", "event_id"])
        vc = g["value_c"].to_numpy()
        new = np.empty(len(vc), dtype=bool)
        new[0] = True
        new[1:] = vc[1:] != vc[:-1]
        starts = np.flatnonzero(new)
        within = np.arange(len(vc)) - starts[np.cumsum(new) - 1] + 1
        r = base_arr[np.searchsorted(vals_sorted, vc)] + within
        bucket = np.where(
            r <= thresh,
            (r - 1) // (kk + 1) + 1,
            m + (r - thresh - 1) // max(kk, 1) + 1,
        )
        return pd.DataFrame(
            {"event_id": g["event_id"].to_numpy(),
             "value_c": vc,
             "bucket": bucket.astype(np.int64)}
        )

    return grouped_apply(e, ["value_c"], rank_bucket)


_SQL_DECILE_BUCKET = """
SELECT event_id, CAST(ROUND(value * 100) AS BIGINT) AS value_c,
       CAST(NTILE(10) OVER (
         ORDER BY CAST(ROUND(value * 100) AS BIGINT), event_id)
         AS BIGINT) AS bucket
FROM events
"""


# ---------------------------------------------------------------------------
# 45b. PII detection + redaction — the scrub step of a training-data
# pipeline. The synthetic corpus has no natural PII, so the operator spec
# includes a deterministic injection (email for doc_id%3==0, phone for
# doc_id%5==0) expressed identically on both sides; detection/redaction
# run vectorized RE2 (pyarrow.compute) and the oracle uses DuckDB's RE2
# regexp functions — same engine, bit-identical match semantics.

_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_PHONE = r"0\d{2}-\d{4}-\d{4}"


def q_pii_redact(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def redact(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        did = batch.column("doc_id").to_numpy()
        s = pd.Series(did)
        email = np.where(
            did % 3 == 0,
            " contact user" + s.astype(str) + "@mail"
            + (s % 7).astype(str) + ".example.com",
            "",
        )
        phone = np.where(
            did % 5 == 0,
            " call 090-" + (s % 10000).astype(str).str.zfill(4) + "-1234",
            "",
        )
        txt = pc.binary_join_element_wise(
            batch.column("text").cast(pa.string()),
            pa.array(email, type=pa.string()),
            pa.array(phone, type=pa.string()),
            "",
        )
        red = pc.replace_substring_regex(
            pc.replace_substring_regex(txt, _PII_EMAIL, "[EMAIL]"),
            _PII_PHONE,
            "[PHONE]",
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_emails": pc.count_substring_regex(txt, _PII_EMAIL).cast(
                    pa.int64()
                ),
                "n_phones": pc.count_substring_regex(txt, _PII_PHONE).cast(
                    pa.int64()
                ),
                "red_len": pc.utf8_length(red).cast(pa.int64()),
            }
        )

    return ds.map_batches(redact, batch_format="pyarrow")


_SQL_PII_REDACT = f"""
WITH t AS (
  SELECT doc_id,
         text
         || CASE WHEN doc_id % 3 = 0
                 THEN ' contact user' || CAST(doc_id AS VARCHAR)
                      || '@mail' || CAST(doc_id % 7 AS VARCHAR)
                      || '.example.com' ELSE '' END
         || CASE WHEN doc_id % 5 = 0
                 THEN ' call 090-'
                      || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                      || '-1234' ELSE '' END AS full_text
  FROM documents
)
SELECT doc_id,
       len(regexp_extract_all(full_text, '{_PII_EMAIL}')) AS n_emails,
       len(regexp_extract_all(full_text, '{_PII_PHONE}')) AS n_phones,
       length(regexp_replace(
         regexp_replace(full_text, '{_PII_EMAIL}', '[EMAIL]', 'g'),
         '{_PII_PHONE}', '[PHONE]', 'g')) AS red_len
FROM t
"""


# ---------------------------------------------------------------------------
# 45c. Deterministic stratified sampling — k docs per language by
# multiplicative-hash rank (pure function of the key: stable under
# re-runs, re-partitioning and resume, like hash_split). Scale plan: each
# block keeps at most k rows per stratum BEFORE the exchange, so the
# shuffle carries O(k x strata x blocks), never the corpus.


def q_stratified_sample(sf_dir: str, k: int = 20):
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def rank_key(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy()
        h = (did * 2654435761) % (1 << 32)
        return pa.table(
            {"lang": batch.column("lang"), "doc_id": batch.column("doc_id"),
             "h": pa.array(h.astype(np.int64))}
        )

    def block_prune(df: pd.DataFrame) -> pa.Table:
        from ..stages.treeagg import clean_arrow

        df = df.sort_values(["lang", "h", "doc_id"])
        return clean_arrow(df.groupby("lang", as_index=False).head(k))

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["h", "doc_id"]).head(k)[
            ["lang", "doc_id", "h"]
        ]

    ds = ds.map_batches(rank_key, batch_format="pyarrow")
    ds = ds.map_batches(block_prune, batch_format="pandas", batch_size=None)
    return ds.groupby("lang").map_groups(final_topk, batch_format="pandas")


_SQL_STRATIFIED_SAMPLE = """
WITH r AS (
  SELECT lang, doc_id, (doc_id * 2654435761) % 4294967296 AS h,
         ROW_NUMBER() OVER (
           PARTITION BY lang
           ORDER BY (doc_id * 2654435761) % 4294967296, doc_id) AS rn
  FROM documents
)
SELECT lang, doc_id, h FROM r WHERE rn <= 20
"""


# ---------------------------------------------------------------------------
# 46. Event-time tumbling windows over a late-arriving stream (watermark +
# allowed lateness, per-bucket actors — stages/streaming.py). Two registry
# views: with unbounded lateness every event lands in its window, so the
# bucket-merged totals equal the exact batch tumbling aggregate — SQL-
# twinnable; the tight-lateness variant (genuine drops, conservation
# accounting) is rows-only and pytest-pinned.


def q_stream_tumbling_windows(sf_dir: str) -> pd.DataFrame:
    from ..stages.streaming import stream_windowed_counts

    # infinite lateness => the result is independent of the micro-batch
    # watermark granularity, so run the coarse 8192-row micro-batches; the
    # tight-lateness variant below keeps the fine default where granularity
    # is the semantic knob
    df = stream_windowed_counts(sf_dir, lateness_s=10**9, batch_size=8192)
    win = df[df["win_start_us"] >= 0]
    out = (
        win.groupby("win_start_us", as_index=False)
        .agg(n=("n", "sum"), sum_value_c=("sum_value_c", "sum"))
        .sort_values("win_start_us")
        .reset_index(drop=True)
    )
    return out


_SQL_STREAM_TUMBLING_WINDOWS = """
SELECT CAST(FLOOR(EPOCH(ts) / 86400) * 86400 * 1000000 AS BIGINT)
         AS win_start_us,
       COUNT(*) AS n,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events GROUP BY 1
"""


def q_stream_windowed_late(sf_dir: str) -> pd.DataFrame:
    """Tight-lateness variant: per-(bucket, window) rows plus per-bucket
    late-drop accounting rows (win_start_us = -1); conservation
    (emitted + flushed + dropped == total events) is pytest-pinned."""
    from ..stages.streaming import stream_windowed_counts

    return stream_windowed_counts(sf_dir)


# ---------------------------------------------------------------------------
# 45c1. Benchmark-contamination detection: the decontamination step of a
# training-data pipeline — flag documents whose word-3-gram sets overlap a
# held-out evaluation set (here: docs with doc_id % 97 == 0, a
# deterministic stand-in for the benchmark corpus). Plan: the eval side is
# tiny by construction (real benchmarks are a few thousand docs no matter
# the corpus size), so its distinct grams are collected through the
# combiner tree and broadcast once with ray.put; the probe side builds
# each doc's distinct grams with a shift-concat vectorized pass (no
# per-doc loop) and counts membership with a single isin. String grams
# (not hashes) cross the probe so a hash collision can never disagree with
# the oracle.


def _word_trigrams(batch: pa.Table) -> pd.DataFrame:
    """(doc_id, gram) distinct word-3-grams per doc, fully vectorized:
    flatten tokens with repeated doc ids, form grams by shifted string
    concat, mask gram windows that straddle a doc boundary, dedup."""
    import pyarrow.compute as pc

    toks = pc.split_pattern(batch.column("text").cast(pa.string()), " ")
    lens = pc.list_value_length(toks).to_numpy()
    did = np.repeat(batch.column("doc_id").to_numpy(), lens)
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    did = did[keep]
    s = pd.Series(flat.to_numpy(zero_copy_only=False)[keep])
    if len(s) < 3:
        return pd.DataFrame({"doc_id": np.array([], np.int64),
                             "gram": pd.Series([], dtype=str)})
    gram = s + " " + s.shift(-1) + " " + s.shift(-2)
    ok = np.zeros(len(s), dtype=bool)
    ok[: len(s) - 2] = did[: len(did) - 2] == did[2:]
    out = pd.DataFrame({"doc_id": did, "gram": gram})[ok]
    return out.drop_duplicates()


def _trigram_rows(batch: pa.Table) -> pa.Table:
    """:func:`_word_trigrams` as a metadata-free Arrow block, typed even
    when empty."""
    from ..stages.treeagg import clean_arrow

    g = _word_trigrams(batch)
    if not len(g):
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "gram": pa.array([], pa.string())})
    return clean_arrow(g)


# per-worker deserialized eval-gram set — SINGLE slot (keyed by ref hex,
# replaced on mismatch): repeated invocations in one session would
# otherwise accumulate one multi-MB set per run in every worker
_EVAL_SET_CACHE: dict = {}


def q_contamination(sf_dir: str, eval_mod: int = 97):
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def ev_grams(batch: pa.Table) -> pa.Table:
        from ..stages.treeagg import clean_arrow

        did = batch.column("doc_id").to_numpy()
        g = _word_trigrams(batch.filter(pa.array(did % eval_mod == 0)))
        return pa.table(
            {"gram": pa.array(g["gram"].drop_duplicates().tolist(),
                              type=pa.string())}
        )

    eval_distinct = tree_group_agg(
        ds.map_batches(ev_grams, batch_format="pyarrow"),
        ["gram"], {"n": (None, "count")},
    ).materialize()  # count() probe + iter_batches share ONE execution
    eval_set = set(
        pd.concat(
            [b["gram"] for b in
             eval_distinct.iter_batches(batch_format="pandas",
                                        batch_size=None)],
            ignore_index=True,
        )
    ) if eval_distinct.count() else set()
    ref = ray.put(eval_set)

    def probe(batch: pa.Table) -> pa.Table:
        g = _word_trigrams(batch)
        es = _EVAL_SET_CACHE.get(ref.hex())
        if es is None:
            _EVAL_SET_CACHE.clear()
            es = _EVAL_SET_CACHE[ref.hex()] = ray.get(ref)
        if not len(g):
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_grams": pa.array([], pa.int64()),
                    "n_hit": pa.array([], pa.int64()),
                    "contam_e6": pa.array([], pa.int64()),
                    "is_eval": pa.array([], pa.int64()),
                }
            )
        hit = g["gram"].isin(es)
        per = g.groupby("doc_id").size()
        hits = g[hit].groupby("doc_id").size()
        out = pd.DataFrame(
            {"n_grams": per,
             "n_hit": hits.reindex(per.index, fill_value=0)}
        ).reset_index()
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"].to_numpy()),
                "n_grams": pa.array(out["n_grams"].to_numpy(np.int64)),
                "n_hit": pa.array(out["n_hit"].to_numpy(np.int64)),
                "contam_e6": pa.array(
                    out["n_hit"].to_numpy(np.int64) * 1_000_000
                    // out["n_grams"].to_numpy(np.int64)
                ),
                "is_eval": pa.array(
                    (out["doc_id"].to_numpy() % eval_mod == 0)
                    .astype(np.int64)
                ),
            }
        )

    return ds.map_batches(probe, batch_format="pyarrow")


_SQL_CONTAMINATION = """
WITH tok AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents
), g AS (
  SELECT doc_id,
         list_distinct(list_transform(
           range(1, len(w) - 1),
           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS grams
  FROM tok WHERE len(w) >= 3
), ev AS (
  SELECT list_distinct(flatten(list(grams))) AS eg
  FROM g WHERE doc_id % 97 = 0
)
SELECT g.doc_id, len(g.grams) AS n_grams,
       len(list_intersect(g.grams, ev.eg)) AS n_hit,
       (len(list_intersect(g.grams, ev.eg)) * 1000000)
         // len(g.grams) AS contam_e6,
       CASE WHEN g.doc_id % 97 = 0 THEN 1 ELSE 0 END AS is_eval
FROM g CROSS JOIN ev WHERE len(g.grams) > 0
"""


# ---------------------------------------------------------------------------
# 45c2. Sequence packing (concat-then-chunk): assign every document its
# token-offset span in the concatenated doc_id-ordered token stream and
# the fixed-size training sequences (budget B) it lands in — the packing
# step that turns a document corpus into training windows. The global
# prefix sum is computed WITHOUT a global sort: contiguous doc_id ranges
# (doc_id // 256) form ordered buckets; per-bucket token sums collapse
# through the combiner tree to a driver-side cumulative base table
# (corpus/256 rows, not corpus rows), and one groupby(bucket) exchange
# assigns within-bucket offsets by a vectorized cumsum.


def q_sequence_pack(sf_dir: str, budget: int = 256, bucket_docs: int = 256):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def ntok(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(batch.column("text").cast(pa.string()), " ")
        lens = pc.list_value_length(toks).to_numpy().astype(np.int64)
        did = batch.column("doc_id").to_numpy()
        flat = pc.list_flatten(toks)
        empty = pc.equal(flat, "").to_numpy(zero_copy_only=False)
        n_empty = np.zeros(len(did), dtype=np.int64)
        np.add.at(n_empty, np.repeat(np.arange(len(did)), lens), empty)
        n = lens - n_empty
        keep = n > 0
        return pa.table(
            {
                "doc_id": pa.array(did[keep]),
                "n_tok": pa.array(n[keep]),
                "bk": pa.array(did[keep] // bucket_docs),
            }
        )

    t = ds.map_batches(ntok, batch_format="pyarrow").materialize()
    per_bucket = (
        tree_group_agg(t, ["bk"], {"tok": ("n_tok", "sum")})
        .to_pandas()
        .sort_values("bk")
    )
    bk_sorted = per_bucket["bk"].to_numpy()
    base_arr = np.concatenate(
        [[0], per_bucket["tok"].cumsum().to_numpy()[:-1]]
    )

    def offsets(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        n = g["n_tok"].to_numpy()
        start = (
            base_arr[np.searchsorted(bk_sorted, int(g["bk"].iat[0]))]
            + np.concatenate([[0], n.cumsum()[:-1]])
        )
        first = start // budget
        last = (start + n - 1) // budget
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_tok": n,
                "start_off": start,
                "seq_first": first,
                "seq_last": last,
                "n_seqs": last - first + 1,
            }
        )

    return t.groupby("bk").map_groups(offsets, batch_format="pandas")


_SQL_SEQUENCE_PACK = """
WITH t AS (
  SELECT doc_id,
         len(list_filter(string_split(text, ' '), x -> x <> '')) AS n_tok
  FROM documents
), o AS (
  SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
         CAST(COALESCE(SUM(n_tok) OVER (
           ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS BIGINT) AS start_off
  FROM t WHERE n_tok > 0
)
SELECT doc_id, n_tok, start_off,
       start_off // 256 AS seq_first,
       (start_off + n_tok - 1) // 256 AS seq_last,
       (start_off + n_tok - 1) // 256 - start_off // 256 + 1 AS n_seqs
FROM o
"""


# ---------------------------------------------------------------------------
# 46. Corpus dedup, end-to-end (keep-canonical): near-dup pairs -> connected
# components -> cluster representative (min doc id) -> per-doc kept flag.
# The full "deduplicate the training corpus" pipeline in one query — the
# pair finder (blocked n-gram Jaccard), the O(log n) CC rounds, and ONE
# left-outer hash-join exchange attaching the cluster label back to every
# document; docs in no cluster are their own representative. At 10^12 docs
# the join moves (doc_id, comp) pairs only — never text.


def q_corpus_dedup(sf_dir: str):
    import pyarrow.compute as pc

    from ..stages.dedup import ngram_jaccard_blocked
    from ..stages.graph import connected_components

    pairs = ngram_jaccard_blocked(sf_dir).select_columns(["doc_a", "doc_b"])
    comp = connected_components(pairs)  # (doc_id, comp), dup docs only
    docs = _read(sf_dir, "documents", ["doc_id"])
    # the comp side holds one 16-byte row per DUP doc — usually tiny, so
    # materialize it (already the CC output, small by construction) and
    # let the planner broadcast on measured size; a pathological corpus
    # where half the docs are dups falls back to the shuffle join
    from ..stages.joins import auto_join

    comp = comp.materialize()
    j = auto_join(docs, comp, on=("doc_id",), how="left_outer",
                  num_partitions=JOIN_PARTS,
                  right_size_hint=comp.size_bytes())

    def finish(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")
        rep = pc.coalesce(batch.column("comp"), did)
        kept = pc.cast(pc.equal(rep, did), pa.int64())
        return pa.table({"doc_id": did, "rep": rep, "kept": kept})

    return j.map_batches(finish, batch_format="pyarrow")


_SQL_CORPUS_DEDUP = f"""
WITH RECURSIVE {_SQL_DUP_PAIRS_CTE}, sym AS (
  SELECT doc_a AS u, doc_b AS v FROM p
  UNION ALL SELECT doc_b, doc_a FROM p
), reach AS (
  SELECT u, v FROM sym
  UNION
  SELECT r.u, s.v FROM reach r JOIN sym s ON r.v = s.u
), comp AS (
  SELECT u AS doc_id, LEAST(u, MIN(v)) AS comp FROM reach GROUP BY u
)
SELECT d.doc_id,
       COALESCE(c.comp, d.doc_id) AS rep,
       CASE WHEN COALESCE(c.comp, d.doc_id) = d.doc_id
            THEN 1 ELSE 0 END AS kept
FROM documents d LEFT JOIN comp c ON d.doc_id = c.doc_id
"""


# ---------------------------------------------------------------------------
# 47. Cross-document duplicated-n-gram fraction (the dup-ngram-frac quality
# filter): per doc, the fraction of its distinct word-3-grams that appear
# in at least one OTHER document. Plan: distinct (doc, gram) pairs ->
# ONE groupby(gram-hash-bucket) exchange — inside a bucket every
# occurrence of a gram is present, so a vectorized transform("size")
# marks duplicated grams without a gram-level join — -> per-doc partials
# -> combiner tree. Gram strings cross the wire once; the second
# aggregate moves only (doc_id, int, int) rows.


def q_dup_ngram_frac(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ds.map_batches(_trigram_rows, batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        nd = g.groupby("gram")["doc_id"].transform("size")
        out = (
            g.assign(dup=(nd >= 2).astype(np.int64))
            .groupby("doc_id", as_index=False)
            .agg(n_grams=("gram", "size"), n_dup=("dup", "sum"))
        )
        return clean_arrow(out)

    partial = grouped_apply(pairs, ["gram"], per_bucket)
    tot = tree_group_agg(
        partial, ["doc_id"],
        {"n_grams": ("n_grams", "sum"), "n_dup": ("n_dup", "sum")},
    )

    def ratio(batch: pa.Table) -> pa.Table:
        ng = batch.column("n_grams").to_numpy()
        nd = batch.column("n_dup").to_numpy()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": batch.column("n_grams"),
                "n_dup": batch.column("n_dup"),
                "dup_e6": pa.array(nd * 1_000_000 // ng),
            }
        )

    return tot.map_batches(ratio, batch_format="pyarrow")


_SQL_DUP_NGRAM_FRAC = """
WITH tok AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents
), g AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(
           range(1, len(w) - 1),
           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))) AS gram
  FROM tok WHERE len(w) >= 3
), df AS (
  SELECT gram, COUNT(*) AS nd FROM g GROUP BY 1
)
SELECT g.doc_id, COUNT(*) AS n_grams,
       CAST(SUM(CASE WHEN df.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
       (CAST(SUM(CASE WHEN df.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
         * 1000000) // COUNT(*) AS dup_e6
FROM g JOIN df USING (gram)
GROUP BY g.doc_id
"""


# ---------------------------------------------------------------------------
# 48. BM25 retrieval: score every document against a broadcast query set
# and return the top-10 per query. Exactness across the engine/oracle
# boundary: the per-(term, doc) BM25 contribution is computed as ONE
# double expression with identical association on both sides
# (k1=1.2, b=0.75 folded into the integer-exact rational
# (44*tf*tot) / (20*tf*tot + 6*tot + 18*dl*N); idf = ln((N-df+.5)/(df+.5)+1)
# on small exact doubles), floored to int64 — and the per-query SUM runs
# over int64, so distributed addition order can't flip bits. Queries are
# the first-8-token term sets of four fixed documents, so the query side
# is data-derived yet tiny (broadcast as a closure; df for those terms is
# a <=32-row driver table).


def q_bm25_search(sf_dir: str, query_ids=(1, 2, 3, 5), k: int = 10,
                  tf=None):
    import math

    from ..stages.treeagg import clean_arrow, tree_group_agg

    if tf is None:
        tf = _doc_tf(sf_dir).materialize()
    dl = tree_group_agg(tf, ["doc_id"], {"dl": ("tf", "sum")}).materialize()

    # corpus scalars (N docs, total tokens): one row per block -> driver
    def fold(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "tot": pa.array(
                    [int(np.sum(t.column("dl").to_numpy()))], pa.int64()
                ),
            }
        )

    sums = dl.map_batches(fold, batch_format="pyarrow").to_pandas()
    n_docs = int(sums["n"].sum())
    tot = int(sums["tot"].sum())

    # query term sets: first 8 raw tokens of the query docs, '' dropped,
    # distinct — mirrors the oracle's slice-then-filter-then-distinct
    qdocs = {
        int(r["doc_id"]): str(r["text"])
        for r in _read(sf_dir, "documents", ["doc_id", "text"])
        .filter(expr=f"doc_id in {list(query_ids)}")
        .take_all()
    }
    qt = pd.DataFrame(
        [
            {"qid": qid, "term": t}
            for qid in sorted(qdocs)
            for t in sorted({w for w in qdocs[qid].split(" ")[:8] if w})
        ]
    )
    qset = sorted(set(qt["term"]))

    # df over the query terms only (tiny driver table)
    def probe_df(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t.column("term"), pa.array(qset)))

    # ONE scan of tf feeds both the df counts and the probe side (the
    # filtered slice is query-term-bounded, so materializing it is tiny)
    filt = tf.map_batches(probe_df, batch_format="pyarrow").materialize()

    dfq = tree_group_agg(
        filt, ["term"], {"df": (None, "count")},
    ).to_pandas()
    coef = {
        r["term"]: 1000000.0
        * math.log(
            (float(n_docs) - float(r["df"]) + 0.5) / (float(r["df"]) + 0.5)
            + 1.0
        )
        for _, r in dfq.iterrows()
    }
    qt = qt[qt["term"].isin(coef)].reset_index(drop=True)

    # dl attach: broadcast searchsorted gather when the doc-length table
    # fits the budget (measured on the materialized table); the shuffle
    # hash join stays the fallback at scale
    dl_lookup = None
    if dl.size_bytes() <= BROADCAST_BUDGET:
        from ..kernels.lookup import IntLookup

        dl_df = dl.to_pandas()
        dl_lookup = IntLookup(
            dl_df["doc_id"].to_numpy().astype(np.int64),
            dl_df["dl"].to_numpy().astype(np.int64),
        )
        probe = filt
    else:
        probe = filt.join(
            dl, "inner", num_partitions=JOIN_PARTS, on=("doc_id",)
        )
    tot_f, n_f = float(tot), float(n_docs)
    qt_small = qt.copy()

    def contrib(batch: pd.DataFrame) -> pa.Table:
        m = batch.merge(qt_small, on="term")  # fan out to queries
        if not len(m):
            return pa.table({"qid": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        tf_f = m["tf"].to_numpy().astype(np.float64)
        if dl_lookup is not None:
            dl_f = dl_lookup.gather(
                m["doc_id"].to_numpy(np.int64)
            ).astype(np.float64)
        else:
            dl_f = m["dl"].to_numpy().astype(np.float64)
        c_arr = m["term"].map(coef).to_numpy(np.float64)
        num = (44.0 * tf_f) * tot_f
        den = (20.0 * tf_f) * tot_f + 6.0 * tot_f + (18.0 * dl_f) * n_f
        c = np.floor((c_arr * num) / den).astype(np.int64)
        return clean_arrow(
            pd.DataFrame(
                {"qid": m["qid"].to_numpy(np.int64),
                 "doc_id": m["doc_id"].to_numpy(np.int64), "c": c}
            )
        )

    scores = tree_group_agg(
        probe.map_batches(contrib, batch_format="pandas"),
        ["qid", "doc_id"], {"score_e6": ("c", "sum")},
    )

    # block-level top-k prune, then one tiny per-qid final
    def prune(batch: pd.DataFrame) -> pa.Table:
        out = (
            batch.sort_values(["qid", "score_e6", "doc_id"],
                              ascending=[True, False, True])
            .groupby("qid", as_index=False)
            .head(k)
        )
        return clean_arrow(out)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score_e6", "doc_id"], ascending=[False, True])
        out = g.head(k).copy()
        out["rk"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return out[["qid", "doc_id", "score_e6", "rk"]]

    return (
        scores.map_batches(prune, batch_format="pandas", batch_size=None)
        .groupby("qid")
        .map_groups(final_topk, batch_format="pandas")
    )


_SQL_BM25_SEARCH = """
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS term FROM documents
), tf AS (
  SELECT doc_id, term, COUNT(*) AS tf FROM tok WHERE term <> '' GROUP BY 1, 2
), dl AS (
  SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS dl FROM tf GROUP BY 1
), stats AS (
  SELECT COUNT(*) AS n_docs, CAST(SUM(dl) AS BIGINT) AS tot FROM dl
), q AS (
  SELECT doc_id AS qid,
         UNNEST(list_distinct(list_filter(
           (string_split(text, ' '))[1:8], x -> x <> ''))) AS term
  FROM documents WHERE doc_id IN (1, 2, 3, 5)
), df AS (
  SELECT term, COUNT(*) AS df FROM tf
  WHERE term IN (SELECT term FROM q) GROUP BY 1
), contrib AS (
  SELECT q.qid, tf.doc_id,
         CAST(FLOOR(
           (1000000.0 * LN((CAST(s.n_docs AS DOUBLE) - df.df + 0.5)
                           / (df.df + 0.5) + 1.0))
           * (44.0 * tf.tf * s.tot)
           / (20.0 * tf.tf * s.tot + 6.0 * s.tot + 18.0 * dl.dl * s.n_docs)
         ) AS BIGINT) AS c
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
), score AS (
  SELECT qid, doc_id, CAST(SUM(c) AS BIGINT) AS score_e6
  FROM contrib GROUP BY 1, 2
), r AS (
  SELECT qid, doc_id, score_e6,
         ROW_NUMBER() OVER (PARTITION BY qid
                            ORDER BY score_e6 DESC, doc_id ASC) AS rk
  FROM score
)
SELECT qid, doc_id, score_e6, rk FROM r WHERE rk <= 10
"""


# ---------------------------------------------------------------------------
# Retrieval eval: NDCG@k of the BM25 ranking against graded term-overlap
# relevance. Discount weights are precomputed integer rationals
# w_i = round(1e9 / log2(i+1)) embedded verbatim in BOTH implementations,
# so DCG / IDCG / NDCG are exact integers — no libm in the compare.

_NDCG_K = 10
_NDCG_W = [round(1e9 / np.log2(i + 1)) for i in range(1, _NDCG_K + 1)]


def q_ndcg_at_k(sf_dir: str, query_ids=(1, 2, 3, 5), k: int = _NDCG_K):
    """NDCG@k retrieval eval. Graded relevance rel(q, d) = number of the
    query's distinct terms present in d (token-exact, off the shared
    (doc, term, tf) dataset: one probe filter + a (qid, doc) combiner
    count — the fact-sized work stays distributed). The IDEAL gain is the
    global per-query top-k of rel (block prune + tiny per-qid final, the
    bm25 pattern); the retrieved side joins rel onto the k-row ranked
    lists on the driver (k x Q rows — inherently tiny)."""
    from ..stages.treeagg import clean_arrow

    tf = _doc_tf(sf_dir).materialize()

    qdocs = {
        int(r["doc_id"]): str(r["text"])
        for r in _read(sf_dir, "documents", ["doc_id", "text"])
        .filter(expr=f"doc_id in {list(query_ids)}")
        .take_all()
    }
    qt = pd.DataFrame(
        [
            {"qid": qid, "term": t}
            for qid in sorted(qdocs)
            for t in sorted({w for w in qdocs[qid].split(" ")[:8] if w})
        ]
    )
    qset = sorted(set(qt["term"]))

    def probe(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t.column("term"), pa.array(qset)))

    def fanout(batch: pd.DataFrame) -> pa.Table:
        m = batch.merge(qt, on="term")
        if not len(m):
            return pa.table({"qid": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        return clean_arrow(m[["qid", "doc_id"]].astype(np.int64))

    rel = tree_group_agg(
        tf.map_batches(probe, batch_format="pyarrow")
        .map_batches(fanout, batch_format="pandas"),
        ["qid", "doc_id"], {"rel": (None, "count")},
    ).materialize()

    # ideal gain: global per-query top-k of rel (block prune -> tiny final)
    def prune(batch: pd.DataFrame) -> pa.Table:
        out = (
            batch.sort_values(["qid", "rel", "doc_id"],
                              ascending=[True, False, True])
            .groupby("qid", as_index=False)
            .head(k)
        )
        return clean_arrow(out)

    ideal = (
        rel.map_batches(prune, batch_format="pandas", batch_size=None)
        .map_batches(prune, batch_format="pandas", batch_size=None)
        .to_pandas()
        .sort_values(["qid", "rel", "doc_id"], ascending=[True, False, True])
        .groupby("qid", as_index=False)
        .head(k)
    )

    ranked = q_bm25_search(sf_dir, query_ids, k, tf=tf).to_pandas()
    # rel lookup for the k x Q retrieved pairs (driver-side by design)
    rel_small = rel.filter(
        expr=f"doc_id in {sorted(set(ranked['doc_id'].astype(int)))}"
    ).to_pandas()
    got = ranked.merge(rel_small, on=["qid", "doc_id"], how="left")
    got["rel"] = got["rel"].fillna(0).astype(np.int64)

    w = np.array(_NDCG_W, np.int64)
    rows = []
    for qid in sorted(qdocs):
        g = got[got["qid"] == qid].sort_values("rk")
        dcg = int(np.sum(g["rel"].to_numpy() * w[g["rk"].to_numpy() - 1]))
        ig = ideal[ideal["qid"] == qid]["rel"].to_numpy()[:k]
        idcg = int(np.sum(ig * w[: len(ig)]))
        ndcg = 0 if idcg == 0 else dcg * 1_000_000 // idcg
        rows.append((qid, dcg, idcg, ndcg))
    return pa.table(
        {
            "qid": pa.array([r[0] for r in rows], pa.int64()),
            "dcg_e9": pa.array([r[1] for r in rows], pa.int64()),
            "idcg_e9": pa.array([r[2] for r in rows], pa.int64()),
            "ndcg_e6": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def _sql_ndcg_at_k() -> str:
    values = ", ".join(
        f"({i + 1}, {w})" for i, w in enumerate(_NDCG_W)
    )
    return f"""
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS term FROM documents
), tf AS (
  SELECT doc_id, term, COUNT(*) AS tf FROM tok WHERE term <> '' GROUP BY 1, 2
), dl AS (
  SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS dl FROM tf GROUP BY 1
), stats AS (
  SELECT COUNT(*) AS n_docs, CAST(SUM(dl) AS BIGINT) AS tot FROM dl
), q AS (
  SELECT doc_id AS qid,
         UNNEST(list_distinct(list_filter(
           (string_split(text, ' '))[1:8], x -> x <> ''))) AS term
  FROM documents WHERE doc_id IN (1, 2, 3, 5)
), df AS (
  SELECT term, COUNT(*) AS df FROM tf
  WHERE term IN (SELECT term FROM q) GROUP BY 1
), contrib AS (
  SELECT q.qid, tf.doc_id,
         CAST(FLOOR(
           (1000000.0 * LN((CAST(s.n_docs AS DOUBLE) - df.df + 0.5)
                           / (df.df + 0.5) + 1.0))
           * (44.0 * tf.tf * s.tot)
           / (20.0 * tf.tf * s.tot + 6.0 * s.tot + 18.0 * dl.dl * s.n_docs)
         ) AS BIGINT) AS c
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
), score AS (
  SELECT qid, doc_id, CAST(SUM(c) AS BIGINT) AS score_e6
  FROM contrib GROUP BY 1, 2
), r AS (
  SELECT qid, doc_id, score_e6,
         ROW_NUMBER() OVER (PARTITION BY qid
                            ORDER BY score_e6 DESC, doc_id ASC) AS rk
  FROM score
), rel AS (
  SELECT q.qid, tf.doc_id, CAST(COUNT(*) AS BIGINT) AS rel
  FROM q JOIN tf ON tf.term = q.term GROUP BY 1, 2
), w(i, w) AS (
  VALUES {values}
), dcg AS (
  SELECT r.qid, SUM(COALESCE(rel.rel, 0) * w.w) AS dcg_e9
  FROM r JOIN w ON w.i = r.rk
  LEFT JOIN rel ON rel.qid = r.qid AND rel.doc_id = r.doc_id
  WHERE r.rk <= {_NDCG_K} GROUP BY 1
), ideal AS (
  SELECT qid, rel,
         ROW_NUMBER() OVER (PARTITION BY qid
                            ORDER BY rel DESC, doc_id ASC) AS irk
  FROM rel
), idcg AS (
  SELECT qid, SUM(rel * w.w) AS idcg_e9
  FROM ideal JOIN w ON w.i = ideal.irk
  WHERE irk <= {_NDCG_K} GROUP BY 1
)
SELECT d.qid, CAST(d.dcg_e9 AS BIGINT) AS dcg_e9,
       CAST(i.idcg_e9 AS BIGINT) AS idcg_e9,
       CAST(CASE WHEN i.idcg_e9 = 0 THEN 0
                 ELSE (d.dcg_e9 * 1000000) // i.idcg_e9 END AS BIGINT)
           AS ndcg_e6
FROM dcg d JOIN idcg i USING (qid)
"""


_SQL_NDCG_AT_K = _sql_ndcg_at_k()


# ---------------------------------------------------------------------------
# 49. PageRank over the near-dup pair graph — the repo's iterative
# bulk-synchronous dataflow: 5 power-iteration rounds, each ONE hash-join
# exchange (rank -> out-edges) + ONE combiner-tree aggregate (sum of
# neighbor contributions). The edge list is materialized once WITH the
# source out-degree attached, so iterations never recompute degrees.
# Exactness: the recurrence is all-int64 — r0 = 1e6; S_k(i) =
# sum_j(r_k(j) // deg(j)); r_{k+1} = 150000 + (850000 * S_k) // 1e6 —
# floor division + integer sums, so 5 unrolled CTE iterations in DuckDB
# match bit-for-bit regardless of distributed addition order. (At 10^12
# edges the per-iteration exchange is (int64, int64) pairs only; a
# pathological star with ~1e13 leaves would need the 850000*S product
# widened past int64 — documented bound, not a code path here.)


def q_pagerank_dupgraph(sf_dir: str, iters: int = 5,
                        local_max_edges: int = 2_000_000,
                        checkpoint_dir: str | None = None):
    """``checkpoint_dir``: when set, the distributed loop persists each
    round's rank vector to ``round=K/`` parquet (sentinel ``_OK`` published
    after the write — the flagship manifest pattern) and a restart resumes
    from the highest complete round instead of recomputing: the
    resumable-iterative analogue of the flagship's chunk manifest. Round K
    ranks are independent of the total iteration count, so resuming with a
    larger ``iters`` extends the same trajectory (pytest-pinned)."""
    import ray.data

    from ..stages.dedup import ngram_jaccard_blocked
    from ..stages.treeagg import tree_group_agg

    pairs = ngram_jaccard_blocked(sf_dir).select_columns(["doc_a", "doc_b"])

    def sym(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
            }
        )

    pairs = pairs.materialize()
    if pairs.count() * 2 <= local_max_edges:
        # size-gated driver fast path (the dup_clusters hybrid pattern):
        # the SAME integer recurrence, vectorized with bincount — a small
        # deduped pair list doesn't warrant 6 hash-join exchanges. The
        # distributed rounds below stay the scale path and are force-
        # tested with local_max_edges=0.
        pt = pairs.to_pandas()
        a = pt["doc_a"].to_numpy()
        b = pt["doc_b"].to_numpy()
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        nodes, src_ix = np.unique(src, return_inverse=True)
        dst_ix = np.searchsorted(nodes, dst)
        deg_of = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(deg_of, src_ix, 1)
        r = np.full(len(nodes), 1_000_000, dtype=np.int64)
        for _ in range(iters):
            c = r[src_ix] // deg_of[src_ix]
            s = np.zeros(len(nodes), dtype=np.int64)
            np.add.at(s, dst_ix, c)
            r = 150_000 + (850_000 * s) // 1_000_000
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(nodes),
                    "deg": pa.array(deg_of),
                    "pr_e6": pa.array(r),
                }
            )
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow")
    deg = tree_group_agg(edges, ["src"], {"deg": (None, "count")}).materialize()
    ej = edges.join(
        deg, "inner", num_partitions=JOIN_PARTS, on=("src",)
    ).materialize()

    def init_r(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t.column("src"),
                "r": pa.array(
                    np.full(t.num_rows, 1_000_000, dtype=np.int64)
                ),
            }
        )

    r = deg.map_batches(init_r, batch_format="pyarrow").materialize()

    def contrib(batch: pa.Table) -> pa.Table:
        rv = batch.column("r").to_numpy()
        dv = batch.column("deg").to_numpy()
        return pa.table(
            {"dst": batch.column("dst"), "c": pa.array(rv // dv)}
        )

    def damp(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy()
        return pa.table(
            {
                "node": batch.column("dst"),
                "r": pa.array(150_000 + (850_000 * s) // 1_000_000),
            }
        )

    import os as _os

    start_round = 0
    if checkpoint_dir:
        for k in range(iters, 0, -1):
            if _os.path.exists(_os.path.join(checkpoint_dir, f"round={k}", "_OK")):
                r = ray.data.read_parquet(
                    _os.path.join(checkpoint_dir, f"round={k}")
                ).materialize()
                start_round = k
                break

    for rnd in range(start_round, iters):
        j = ej.join(
            r, "inner", num_partitions=JOIN_PARTS,
            on=("src",), right_on=("node",),
        )
        s = tree_group_agg(
            j.map_batches(contrib, batch_format="pyarrow"),
            ["dst"], {"s": ("c", "sum")},
        )
        r = s.map_batches(damp, batch_format="pyarrow").materialize()
        if checkpoint_dir:
            d = _os.path.join(checkpoint_dir, f"round={rnd + 1}")
            if not _os.path.exists(_os.path.join(d, "_OK")):
                # atomic publish (the upsert-sink pattern): write into a tmp
                # dir, rename into place, THEN the sentinel — a crash can
                # never leave data files inside a dir a rerun appends to
                import shutil as _shutil

                tmp = d + ".tmp"
                _shutil.rmtree(tmp, ignore_errors=True)
                _shutil.rmtree(d, ignore_errors=True)
                r.write_parquet(tmp)
                _os.rename(tmp, d)
                with open(_os.path.join(d, "_OK"), "w") as fh:
                    fh.write("ok")

    out = deg.join(
        r, "inner", num_partitions=JOIN_PARTS, on=("src",), right_on=("node",)
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("src"),
                "deg": batch.column("deg"),
                "pr_e6": batch.column("r"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _sql_pagerank(iters: int = 5) -> str:
    pair_cte = f"""
WITH {_SQL_DUP_PAIRS_CTE}, e AS (
  SELECT doc_a AS src, doc_b AS dst FROM p
  UNION ALL SELECT doc_b, doc_a FROM p
), deg AS (
  SELECT src AS node, COUNT(*) AS deg FROM e GROUP BY 1
), r0 AS (
  SELECT node, CAST(1000000 AS BIGINT) AS r FROM deg
)"""
    steps = []
    for k in range(iters):
        steps.append(f""", r{k + 1} AS (
  SELECT s.node,
         CAST(150000 + (850000 * s.s) // 1000000 AS BIGINT) AS r
  FROM (
    SELECT e.dst AS node, CAST(SUM(r{k}.r // deg.deg) AS BIGINT) AS s
    FROM e
    JOIN r{k} ON r{k}.node = e.src
    JOIN deg ON deg.node = e.src
    GROUP BY e.dst
  ) s
)""")
    return (
        pair_cte
        + "".join(steps)
        + f"""
SELECT deg.node AS doc_id, deg.deg, r{iters}.r AS pr_e6
FROM deg JOIN r{iters} ON r{iters}.node = deg.node
"""
    )


_SQL_PAGERANK_DUPGRAPH = _sql_pagerank()


# ---------------------------------------------------------------------------
# 49b. Multi-source BFS hop distance over the near-dup pair graph (the
# iterative frontier-expansion sibling of pagerank_dupgraph, twinned by a
# DuckDB RECURSIVE CTE): distance to the nearest seed (deterministic seed
# set: node id % 50 == 0 — multi-source because the dup graph is a sea of
# small components, so single-source BFS would touch one island), capped
# at MAX_HOPS rounds; unreached nodes report -1. Each distributed round is
# ONE hash-join exchange (frontier -> out-edges) plus one min combiner
# tree; the frontier filter is a vectorized mask. Size-gated driver fast
# path below local_max_edges (dup_clusters hybrid pattern); the
# distributed rounds are force-tested equal via local_max_edges=0.

_BFS_MAX_HOPS = 6
_BFS_INF = np.int64(1 << 40)


def q_bfs_hops(sf_dir: str, local_max_edges: int = 2_000_000):
    import ray.data

    from ..stages.dedup import ngram_jaccard_blocked
    from ..stages.treeagg import tree_group_agg

    pairs = ngram_jaccard_blocked(sf_dir).select_columns(
        ["doc_a", "doc_b"]
    ).materialize()

    if pairs.count() * 2 <= local_max_edges:
        pt = pairs.to_pandas()
        a = pt["doc_a"].to_numpy()
        b = pt["doc_b"].to_numpy()
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        nodes, src_ix = np.unique(src, return_inverse=True)
        dst_ix = np.searchsorted(nodes, dst)
        dist = np.full(len(nodes), -1, dtype=np.int64)
        dist[nodes % 50 == 0] = 0
        for k in range(_BFS_MAX_HOPS):
            mask = dist[src_ix] == k
            nd = np.unique(dst_ix[mask])
            nd = nd[dist[nd] == -1]
            dist[nd] = k + 1
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array(nodes), "dist": pa.array(dist)})
        )

    def sym(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
            }
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    def init_dist(t: pa.Table) -> pa.Table:
        n = t.column("src").to_numpy()
        d = np.where(n % 50 == 0, np.int64(0), _BFS_INF)
        return pa.table({"node": t.column("src"), "dist": pa.array(d)})

    # one row per node with current best dist (INF = unreached)
    dist = tree_group_agg(
        edges.map_batches(init_dist, batch_format="pyarrow"),
        ["node"], {"dist": ("dist", "min")},
    ).materialize()

    for k in range(_BFS_MAX_HOPS):
        # join the full dist vector to the out-edges (the pagerank round
        # shape — a filtered frontier right side would hand the hash-join
        # schema-less empty blocks); the frontier mask applies inside the
        # step map, vectorized
        cand = edges.join(
            dist, "inner", num_partitions=JOIN_PARTS,
            on=("src",), right_on=("node",),
        )

        def step(batch: pa.Table, k=k) -> pa.Table:
            d = batch.column("dist").to_numpy()
            m = d == k
            n = int(m.sum())
            return pa.table(
                {
                    "node": batch.column("dst").filter(pa.array(m)),
                    "dist": pa.array(np.full(n, k + 1, dtype=np.int64)),
                }
            )

        dist = tree_group_agg(
            dist.union(cand.map_batches(step, batch_format="pyarrow")),
            ["node"], {"dist": ("dist", "min")},
        ).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        d = batch.column("dist").to_numpy()
        return pa.table(
            {
                "doc_id": batch.column("node"),
                "dist": pa.array(np.where(d >= _BFS_INF, -1, d)),
            }
        )

    return dist.map_batches(finish, batch_format="pyarrow")


def _sql_bfs_hops() -> str:
    return f"""
WITH RECURSIVE {_SQL_DUP_PAIRS_CTE}, e AS (
  SELECT doc_a AS src, doc_b AS dst FROM p
  UNION ALL SELECT doc_b, doc_a FROM p
), bfs AS (
  SELECT DISTINCT src AS node, 0 AS dist FROM e WHERE src % 50 = 0
  UNION
  SELECT e.dst, b.dist + 1 FROM bfs b JOIN e ON e.src = b.node
  WHERE b.dist < {_BFS_MAX_HOPS}
)
SELECT n.node AS doc_id, CAST(COALESCE(m.dist, -1) AS BIGINT) AS dist
FROM (SELECT DISTINCT src AS node FROM e) n
LEFT JOIN (SELECT node, MIN(dist) AS dist FROM bfs GROUP BY 1) m
  USING (node)
"""


_SQL_BFS_HOPS = _sql_bfs_hops()


# ---------------------------------------------------------------------------
# 50. Per-group linear trend (grouped OLS): the slope of event value over
# time per user, as the EXACT integer rational num/den with
# num = n*Sxy - Sx*Sy, den = n*Sxx - Sx^2 — one combiner-tree exchange
# carrying five int64 partial sums per (user, block), no float crosses
# the engine/oracle boundary. x = hours since 2024-01-01 (>= 0 for this
# dataset, so no negative floor-vs-trunc division divergence between
# numpy and DuckDB); y = cents. den = 0 marks a user whose events all
# share one hour bucket (slope undefined), kept as a row.


_TREND_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z


def q_user_value_trend(sf_dir: str):
    from ..stages.treeagg import tree_group_agg

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        x = (ts - _TREND_EPOCH_US) // 3_600_000_000
        y = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "x": pa.array(x),
                "y": pa.array(y),
                "xy": pa.array(x * y),
                "xx": pa.array(x * x),
            }
        )

    agg = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        {
            "n": (None, "count"),
            "sx": ("x", "sum"),
            "sy": ("y", "sum"),
            "sxy": ("xy", "sum"),
            "sxx": ("xx", "sum"),
        },
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy()
        sx = batch.column("sx").to_numpy()
        sy = batch.column("sy").to_numpy()
        sxy = batch.column("sxy").to_numpy()
        sxx = batch.column("sxx").to_numpy()
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "n": batch.column("n"),
                "num": pa.array(n * sxy - sx * sy),
                "den": pa.array(n * sxx - sx * sx),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_SQL_USER_VALUE_TREND = """
WITH e AS (
  SELECT user_id,
         (epoch_us(ts) - 1704067200000000) // 3600000000 AS x,
         CAST(ROUND(value * 100) AS BIGINT) AS y
  FROM events
), s AS (
  SELECT user_id, COUNT(*) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx
  FROM e GROUP BY 1
)
SELECT user_id, n, n * sxy - sx * sy AS num, n * sxx - sx * sx AS den
FROM s
"""


# ---------------------------------------------------------------------------
# 51. Triangle count on the near-dup graph: wedges by one self-join on the
# lower endpoint (id-orientation a<b<c keeps every triangle exactly once),
# closed by one two-key hash join back to the edge list; wedge and
# triangle totals reduce to one row. At web scale the skew lever is the
# orientation: replacing the id order with (degree, id) order caps the
# wedge fanout of hub nodes at O(sqrt(m)) — same plan, different sort key
# (documented, not needed at these densities).


def q_triangle_count(sf_dir: str, local_max_edges: int = 2_000_000):
    import ray.data

    from ..stages.dedup import ngram_jaccard_blocked

    pairs = (
        ngram_jaccard_blocked(sf_dir)
        .select_columns(["doc_a", "doc_b"])
        .materialize()
    )

    if pairs.count() <= local_max_edges:
        # size-gated driver fast path (the dup_clusters/pagerank hybrid
        # pattern): a small deduped edge list doesn't warrant two
        # hash-join exchanges' fixed cost. Same segmented wedge
        # enumeration, vectorized; distributed plan force-tested with
        # local_max_edges=0.
        pt = pairs.to_pandas().sort_values(["doc_a", "doc_b"], kind="stable")
        a = pt["doc_a"].to_numpy()
        b = pt["doc_b"].to_numpy()
        if len(a) == 0:
            n_wedges = n_tri = 0
        else:
            brk = np.empty(len(a), dtype=bool)
            brk[0] = True
            brk[1:] = a[1:] != a[:-1]
            starts = np.maximum.accumulate(
                np.where(brk, np.arange(len(a)), 0)
            )
            w = np.arange(len(a)) - starts
            total = int(w.sum())
            n_wedges = total
            if total == 0:
                n_tri = 0
            else:
                from ..kernels.segments import segmented_arange

                c_idx = np.repeat(np.arange(len(a)), w)
                off = np.repeat(starts, w)
                b_idx = off + segmented_arange(w)
                # wedge (b[b_idx] < b[c_idx]) both attached to a; closed
                # iff (b[b_idx], b[c_idx]) is an edge. Relabel node ids to
                # dense ints first so the packed key can't overflow int64
                # for arbitrary 64-bit ids.
                nodes = np.unique(np.concatenate([a, b]))
                ai = np.searchsorted(nodes, a).astype(np.int64)
                bi = np.searchsorted(nodes, b).astype(np.int64)
                m = np.int64(len(nodes))
                edge_keys = ai * m + bi
                wedge_keys = bi[b_idx] * m + bi[c_idx]
                n_tri = int(
                    np.isin(wedge_keys, edge_keys, assume_unique=False).sum()
                )
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_triangles": pa.array([n_tri], pa.int64()),
                    "n_wedges": pa.array([n_wedges], pa.int64()),
                }
            )
        )

    def _ren(names):
        def f(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(names)

        return f

    # rename via an Arrow map (the pair blocks are pandas-born; Ray's
    # Project-based rename_columns chokes on them)
    w1 = pairs.map_batches(_ren(["a", "b"]), batch_format="pyarrow")
    w2 = pairs.map_batches(_ren(["a2", "c"]), batch_format="pyarrow")
    wedges = w1.join(
        w2, "inner", num_partitions=JOIN_PARTS, on=("a",), right_on=("a2",)
    )

    def order(batch: pa.Table) -> pa.Table:
        b = batch.column("b").to_numpy()
        c = batch.column("c").to_numpy()
        keep = b < c
        return pa.table({"b": b[keep], "c": c[keep]})

    wedges = wedges.map_batches(order, batch_format="pyarrow").materialize()
    n_wedges = wedges.count()
    closed = wedges.join(
        pairs, "inner", num_partitions=JOIN_PARTS,
        on=("b", "c"), right_on=("doc_a", "doc_b"),
    )
    n_tri = closed.count()
    return ray.data.from_arrow(
        pa.table(
            {
                "n_triangles": pa.array([n_tri], pa.int64()),
                "n_wedges": pa.array([n_wedges], pa.int64()),
            }
        )
    )


_SQL_TRIANGLE_COUNT = f"""
WITH {_SQL_DUP_PAIRS_CTE}, w AS (
  SELECT e1.doc_b AS b, e2.doc_b AS c
  FROM p e1 JOIN p e2
    ON e1.doc_a = e2.doc_a AND e1.doc_b < e2.doc_b
)
SELECT (SELECT COUNT(*) FROM w JOIN p
         ON p.doc_a = w.b AND p.doc_b = w.c) AS n_triangles,
       (SELECT COUNT(*) FROM w) AS n_wedges
"""


# ---------------------------------------------------------------------------
# 52. Ordered per-key sequence aggregation (collect_list/string_agg with
# ORDER BY): each user's event-type journey as a '>'-joined string in
# (ts, event_id) order — the sequence-mining precursor (funnels, next-
# event prediction corpora). Per-user groups are bounded (documented);
# each user-keyed hash group resolves all its users in one vectorized
# sort + per-user join.


def q_user_event_sequence(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def seqs(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        out = g.groupby("user_id", as_index=False).agg(
            n_events=("event_type", "size"),
            seq=("event_type", ">".join),
        )
        return clean_arrow(out)

    return grouped_apply(ds, ["user_id"], seqs)


_SQL_USER_EVENT_SEQUENCE = """
SELECT user_id, COUNT(*) AS n_events,
       STRING_AGG(event_type, '>' ORDER BY ts, event_id) AS seq
FROM events GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# 53. Maximal cross-document duplicated spans (the exact-substring-dedup
# primitive): positions whose word-3-gram occurs in >= 2 DISTINCT docs,
# merged into maximal runs (gaps-and-islands) per doc. Two exchanges:
# a gram-hash-bucket groupby marks duplicated positions (distinct-doc
# count per gram resolved inside the bucket — no gram join), then a
# doc-bucket groupby merges consecutive positions into spans with one
# vectorized diff/cumsum pass per bucket. Output spans cover tokens
# [start_pos, end_pos+2]; only (doc_id, int) pairs cross the second
# exchange.


def q_dup_spans(sf_dir: str):
    import pyarrow.compute as pc

    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def grams_pos(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text").cast(pa.string()), " ")
        lens = pc.list_value_length(toks).to_numpy()
        did = np.repeat(batch.column("doc_id").to_numpy(), lens)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        did = did[keep]
        s = pd.Series(flat.to_numpy(zero_copy_only=False)[keep])
        if len(s) < 3:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "gram": pa.array([], pa.string())})
        gram = s + " " + s.shift(-1) + " " + s.shift(-2)
        # 1-based within-doc gram position (the oracle's range(1, len-1))
        new_doc = np.empty(len(did), dtype=bool)
        new_doc[0] = True
        new_doc[1:] = did[1:] != did[:-1]
        starts = np.maximum.accumulate(
            np.where(new_doc, np.arange(len(did)), 0)
        )
        pos = np.arange(len(did)) - starts + 1
        ok = np.zeros(len(s), dtype=bool)
        ok[: len(s) - 2] = did[: len(did) - 2] == did[2:]
        return clean_arrow(
            pd.DataFrame({"doc_id": did, "pos": pos, "gram": gram})[ok]
        )

    pos_rows = ds.map_batches(grams_pos, batch_format="pyarrow")

    def mark_dup(g: pd.DataFrame) -> pa.Table:
        nd = g.groupby("gram")["doc_id"].transform("nunique")
        return clean_arrow(g.loc[(nd >= 2).to_numpy(), ["doc_id", "pos"]])

    dup_pos = grouped_apply(pos_rows, ["gram"], mark_dup)

    def islands(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["doc_id", "pos"], kind="stable")
        did = g["doc_id"].to_numpy()
        pos = g["pos"].to_numpy()
        brk = np.empty(len(g), dtype=bool)
        brk[0] = True
        brk[1:] = (did[1:] != did[:-1]) | (pos[1:] != pos[:-1] + 1)
        isl = np.cumsum(brk)
        out = (
            pd.DataFrame({"doc_id": did, "pos": pos, "isl": isl})
            .groupby("isl", as_index=False)
            .agg(
                doc_id=("doc_id", "first"),
                start_pos=("pos", "min"),
                end_pos=("pos", "max"),
                n_pos=("pos", "size"),
            )
            .drop(columns=["isl"])
        )
        out["span_tokens"] = out["end_pos"] - out["start_pos"] + 3
        return clean_arrow(out)

    return grouped_apply(dup_pos, ["doc_id"], islands)


_SQL_DUP_SPANS = """
WITH tok AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents
), g AS (
  SELECT doc_id,
         unnest(list_transform(
           range(1, len(w) - 1),
           i -> {'pos': i, 'gram': w[i] || ' ' || w[i+1] || ' ' || w[i+2]}
         )) AS s
  FROM tok WHERE len(w) >= 3
), gp AS (
  SELECT doc_id, s.pos AS pos, s.gram AS gram FROM g
), df AS (
  SELECT gram, COUNT(DISTINCT doc_id) AS nd FROM gp GROUP BY 1
), dup AS (
  SELECT gp.doc_id, gp.pos FROM gp JOIN df USING (gram) WHERE df.nd >= 2
), isl AS (
  SELECT doc_id, pos,
         pos - ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY pos) AS grp
  FROM dup
)
SELECT doc_id, MIN(pos) AS start_pos, MAX(pos) AS end_pos,
       COUNT(*) AS n_pos, MAX(pos) - MIN(pos) + 3 AS span_tokens
FROM isl GROUP BY doc_id, grp
"""


# ---------------------------------------------------------------------------
# 54. Distributed covariance sufficient statistics over the embedding
# table (the PCA / whitening precursor): per dimension pair (i <= j),
# exact int64 (n, si, sj, sij) with elements quantized
# q = trunc(x * 2^20) — multiplication by a power of two is EXACT in
# float64 and trunc matches DuckDB's TRUNC, so no rounding-mode
# divergence can flip a bit. Each block emits ONE 2080-row upper-triangle
# partial (int64 einsum outer product), collapsed by the combiner tree:
# the exchange carries dim^2 rows per block, never the vectors.


_COV_SCALE = 1048576.0  # 2^20


def q_embed_covariance(sf_dir: str):
    from ..stages.treeagg import tree_group_agg

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        emb = np.stack(
            batch.column("embedding").to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        q = np.trunc(emb * _COV_SCALE).astype(np.int64)
        d = q.shape[1]
        sij = np.einsum("ni,nj->ij", q, q, dtype=np.int64, casting="unsafe")
        si = q.sum(axis=0)
        iu, ju = np.triu_indices(d)
        return pa.table(
            {
                "i": pa.array(iu + 1),
                "j": pa.array(ju + 1),
                "n": pa.array(
                    np.full(len(iu), q.shape[0], dtype=np.int64)
                ),
                "si": pa.array(si[iu]),
                "sj": pa.array(si[ju]),
                "sij": pa.array(sij[iu, ju]),
            }
        )

    return tree_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["i", "j"],
        {
            "n": ("n", "sum"),
            "si": ("si", "sum"),
            "sj": ("sj", "sum"),
            "sij": ("sij", "sum"),
        },
    )


_SQL_EMBED_COVARIANCE = """
WITH u AS (
  SELECT vec_id, unnest(embedding) AS e,
         generate_subscripts(embedding, 1) AS i
  FROM embeddings
), q AS (
  SELECT vec_id, i,
         CAST(TRUNC(CAST(e AS DOUBLE) * 1048576.0) AS BIGINT) AS v
  FROM u
)
SELECT a.i AS i, b.i AS j, COUNT(*) AS n,
       CAST(SUM(a.v) AS BIGINT) AS si,
       CAST(SUM(b.v) AS BIGINT) AS sj,
       CAST(SUM(a.v * b.v) AS BIGINT) AS sij
FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.i <= b.i
GROUP BY a.i, b.i
"""


def q_embed_pca_project(sf_dir: str):
    """Project every embedding onto the top principal component. The
    covariance statistics come from the oracle-gated distributed pass
    above (driver sees dim^2 rows, never vectors); the 64-dim
    eigenproblem is driver-side numpy; the projection is one stateless
    vectorized map over the table with the component broadcast in the
    task closure. Rows-only (eigenvectors aren't SQL); pinned equal to a
    local single-process numpy recompute by pytest. Sign convention:
    the component's largest-|.| coordinate is positive."""
    stats = q_embed_covariance(sf_dir).to_pandas()
    d = int(stats["i"].max())
    n = int(stats.loc[(stats["i"] == 1) & (stats["j"] == 1), "n"].iloc[0])
    cov = np.zeros((d, d), dtype=np.float64)
    si = np.zeros(d, dtype=np.float64)
    for _, r in stats.iterrows():
        i, j = int(r["i"]) - 1, int(r["j"]) - 1
        cov[i, j] = cov[j, i] = r["sij"] / n - (r["si"] / n) * (r["sj"] / n)
        si[i] = r["si"] / n
    w, v = np.linalg.eigh(cov)
    comp = v[:, -1]
    if comp[np.argmax(np.abs(comp))] < 0:
        comp = -comp
    # cov(q) = S^2 * cov(x): eigenvectors are scale-invariant, so comp is
    # already the unit component of the UNQUANTIZED data
    mean = si / _COV_SCALE

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def project(batch: pa.Table) -> pa.Table:
        emb = np.stack(
            batch.column("embedding").to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        q = np.trunc(emb * _COV_SCALE)
        proj = (q / _COV_SCALE - mean) @ comp
        return pa.table(
            {"vec_id": batch.column("vec_id"), "proj": pa.array(proj)}
        )

    return ds.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# 55. Funnel analysis: how far each user progresses through the ordered
# view -> click -> purchase funnel (events between steps allowed).
# Built on the ordered-sequence machinery (one bucket exchange, one
# vectorized sort per bucket); the step test is three vectorized regex
# containment checks over the '>'-joined journey, matching the oracle's
# nested-CASE regexp exactly (event-type names are prefix-free here, so
# substring matching is unambiguous).


def q_funnel_steps(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def steps(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        seq = g.groupby("user_id")["event_type"].agg(">".join)
        s3 = seq.str.contains("view.*click.*purchase", regex=True)
        s2 = seq.str.contains("view.*click", regex=True)
        s1 = seq.str.contains("view", regex=False)
        step = np.where(s3, 3, np.where(s2, 2, np.where(s1, 1, 0)))
        return clean_arrow(
            pd.DataFrame(
                {"user_id": seq.index.to_numpy(), "step": step.astype(np.int64)}
            )
        )

    return grouped_apply(ds, ["user_id"], steps)


_SQL_FUNNEL_STEPS = """
WITH s AS (
  SELECT user_id,
         STRING_AGG(event_type, '>' ORDER BY ts, event_id) AS seq
  FROM events GROUP BY user_id
)
SELECT user_id,
       CASE WHEN regexp_matches(seq, 'view.*click.*purchase') THEN 3
            WHEN regexp_matches(seq, 'view.*click') THEN 2
            WHEN seq LIKE '%view%' THEN 1
            ELSE 0 END AS step
FROM s
"""


# ---------------------------------------------------------------------------
# 56. Cohort retention: users grouped by first-seen day (cohort), counted
# as distinct actives per (cohort_day, week_offset). The cohort day is a
# WITHIN-USER property, so no join is needed: ONE groupby(user) exchange,
# and inside each bounded group the cohort day (min), week offsets, and
# per-(cohort, offset) distinct-user/event partials all fall out of one
# vectorized pass; the per-cell partials then fold through the combiner
# tree. (Rewrote the r3 join plan — join + two tree aggs — saving the
# hash-join exchange; same oracle, ~1 s less fixed cost.) Day/week
# arithmetic is integer floor on epoch-us (all values positive — no
# floor/trunc divergence).


def q_cohort_retention(sf_dir: str):
    from ..stages.treeagg import clean_arrow, tree_group_agg

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def days(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "day": pa.array(ts // 86_400_000_000),
            }
        )

    def per_user_cells(g: pd.DataFrame) -> pd.DataFrame:
        day = g["day"].to_numpy()
        cohort = int(day.min())
        off = (day - cohort) // 7
        cells, counts = np.unique(off, return_counts=True)
        return clean_arrow(
            pd.DataFrame(
                {
                    "cohort_day": np.full(len(cells), cohort, dtype=np.int64),
                    "week_offset": cells.astype(np.int64),
                    "n_users": np.ones(len(cells), dtype=np.int64),
                    "n_events": counts.astype(np.int64),
                }
            )
        )

    per_user = (
        ds.map_batches(days, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(per_user_cells, batch_format="pandas")
    )
    return tree_group_agg(
        per_user, ["cohort_day", "week_offset"],
        {"n_users": ("n_users", "sum"), "n_events": ("n_events", "sum")},
    )


_SQL_COHORT_RETENTION = """
WITH d AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events
), f AS (
  SELECT user_id, MIN(day) AS cohort_day FROM d GROUP BY 1
)
SELECT f.cohort_day, (d.day - f.cohort_day) // 7 AS week_offset,
       COUNT(DISTINCT d.user_id) AS n_users, COUNT(*) AS n_events
FROM d JOIN f USING (user_id)
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# ROLLUP aggregate: partial-agg reuse — the finest grain reduces through the
# combiner tree ONCE; the coarser grains (per-status subtotal, grand total)
# are derived from that small finest-grain result, never from a second scan.
# At 10^12 rows the finest grain is bounded by |status| x |years| (~tens of
# rows), so the rollup tail is a single-block map.


def q_rollup_revenue(sf_dir: str):
    """GROUP BY ROLLUP(o_orderstatus, year): one combiner-tree pass at the
    finest grain + derived subtotal/grand-total rows (rollup sentinel values
    'ALL'/-1 so the oracle compare never hashes NULLs)."""
    import pyarrow.compute as pc

    orders = _read(
        sf_dir, "orders", ["o_orderstatus", "o_orderdate", "o_totalprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        price_c = np.round(
            batch.column("o_totalprice").to_numpy() * 100
        ).astype(np.int64)
        return pa.table(
            {
                "status": batch.column("o_orderstatus"),
                "yr": pc.cast(pc.year(batch.column("o_orderdate")), pa.int64()),
                "price_c": pa.array(price_c),
            }
        )

    finest = tree_group_agg(
        orders.map_batches(prep, batch_format="pyarrow"),
        ["status", "yr"],
        {"n": (None, "count"), "sum_price_c": ("price_c", "sum")},
    )

    def add_rollup(df: pd.DataFrame) -> pd.DataFrame:
        sub = df.groupby("status", as_index=False).agg(
            n=("n", "sum"), sum_price_c=("sum_price_c", "sum")
        )
        sub["yr"] = np.int64(-1)
        grand = pd.DataFrame(
            {
                "status": ["ALL"],
                "yr": np.array([-1], dtype=np.int64),
                "n": [df["n"].sum()],
                "sum_price_c": [df["sum_price_c"].sum()],
            }
        )
        out = pd.concat(
            [df, sub[["status", "yr", "n", "sum_price_c"]], grand],
            ignore_index=True,
        )
        return out

    return finest.map_batches(add_rollup, batch_format="pandas", batch_size=None)


_SQL_ROLLUP_REVENUE = """
SELECT COALESCE(o_orderstatus, 'ALL') AS status,
       COALESCE(EXTRACT(year FROM o_orderdate), -1) AS yr,
       COUNT(*) AS n,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS sum_price_c
FROM orders
GROUP BY ROLLUP(o_orderstatus, EXTRACT(year FROM o_orderdate))
"""


# ---------------------------------------------------------------------------
# Salted hash join under deliberate key skew: 20% of the fact rows share ONE
# join key (the Tokyo-bay-hotspot shape). The dimension side is replicated
# x SALTS with a salt column; each fact row picks a deterministic salt, so
# the hot key's rows spread over SALTS join partitions instead of landing in
# one. Aggregation after the join reduces through the combiner tree, which
# is salt-oblivious. This is the generic two-sided salting plan for a
# dimension too large to broadcast; pip_cell_join is its spatial twin.


def q_salted_join_skew(sf_dir: str, salts: int = 8):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def rep_dim(batch: pa.Table) -> pa.Table:
        ck = np.repeat(batch.column("c_custkey").to_numpy(), salts)
        nk = np.repeat(batch.column("c_nationkey").to_numpy(), salts)
        salt = np.tile(
            np.arange(salts, dtype=np.int64), batch.num_rows
        )
        return pa.table(
            {"c_custkey": pa.array(ck), "d_salt": pa.array(salt),
             "c_nationkey": pa.array(nk)}
        )

    dim = cust.map_batches(rep_dim, batch_format="pyarrow")

    def prep(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy()
        ck = np.where(u % 5 == 0, 0, u % 100).astype(np.int64)
        salt = (batch.column("event_id").to_numpy() % salts).astype(np.int64)
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {"ck": pa.array(ck), "salt": pa.array(salt),
             "value_c": pa.array(v)}
        )

    j = ev.map_batches(prep, batch_format="pyarrow").join(
        dim, "inner", num_partitions=JOIN_PARTS,
        on=("ck", "salt"), right_on=("c_custkey", "d_salt"),
    )
    return tree_group_agg(
        j, ["c_nationkey"],
        {"n": (None, "count"), "sum_value_c": ("value_c", "sum")},
    )


_SQL_SALTED_JOIN_SKEW = """
SELECT c_nationkey, COUNT(*) AS n,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) AS sum_value_c
FROM events
JOIN customer
  ON c_custkey = CASE WHEN user_id % 5 = 0 THEN 0 ELSE user_id % 100 END
GROUP BY c_nationkey
"""


# ---------------------------------------------------------------------------
# Pivot (long -> wide): per-user event-type counts as columns via
# indicator-column partials + the combiner tree (the distributed form of
# SUM(CASE WHEN ...) conditional aggregation; no shuffle beyond the one
# bounded-cardinality group exchange).

_PIVOT_TYPES = ["click", "view", "purchase", "signup", "error"]


def q_pivot_events(sf_dir: str):
    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def ind(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        cols = {"user_id": batch.column("user_id")}
        for t in _PIVOT_TYPES:
            cols[f"n_{t}"] = pa.array((et == t).astype(np.int64))
        cols["value_c"] = pa.array(
            np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        )
        return pa.table(cols)

    spec = {f"n_{t}": (f"n_{t}", "sum") for t in _PIVOT_TYPES}
    spec["sum_value_c"] = ("value_c", "sum")
    return tree_group_agg(
        ev.map_batches(ind, batch_format="pyarrow"), ["user_id"], spec
    )


_SQL_PIVOT_EVENTS = """
SELECT user_id,
       SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS n_click,
       SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS n_view,
       SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS n_purchase,
       SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS n_signup,
       SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS n_error,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) AS sum_value_c
FROM events
GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Exact distributed quantiles WITHOUT a global sort: two passes over the
# value column. Pass 1 histograms the monotone bit-pattern key's top 16 bits
# (<= 65 536 groups, bounded regardless of n) through the combiner tree; the
# driver locates the bucket holding each target rank from the <=65k-row
# cumulative table. Pass 2 re-reads ONLY rows in those buckets (a vectorized
# mask) and reduces them to distinct (value, count) pairs — 1/65536 of the
# value space per target — from which the exact kth element is picked. The
# same prefix refinement recurses if a bucket's distinct set were ever too
# large to collect (not needed at any tested scale; documented assumption).
# Rank convention k = ceil(p*n), 1-based — DuckDB's quantile_disc.


def _f64_sortkey(v: np.ndarray) -> np.ndarray:
    """Monotone uint64 key: ascending key order == ascending float order
    (total order incl. negatives; NaNs absent in the input contract)."""
    bits = v.view(np.int64)
    return np.where(
        bits >= 0,
        bits.view(np.uint64) + np.uint64(1 << 63),
        (~bits).view(np.uint64),
    )


def _order_stats_at_ranks(sf_dir: str, ranks_of_n) -> tuple[dict, int]:
    """value of events.value at each requested 1-based rank, via the
    two-pass bit-prefix histogram (the shared machinery of
    exact_quantiles and quantiles_cont). ``ranks_of_n(n) -> iterable of
    1-based ranks`` runs after pass 1 (ranks usually depend on n).
    Returns ({rank: value}, n)."""
    ev = _read(sf_dir, "events", ["value"])

    def p1(batch: pa.Table) -> pa.Table:
        key = _f64_sortkey(batch.column("value").to_numpy()) >> np.uint64(48)
        pref, cnt = np.unique(key.astype(np.int64), return_counts=True)
        return pa.table({"prefix": pa.array(pref), "cnt": pa.array(cnt)})

    hist = (
        tree_group_agg(
            ev.map_batches(p1, batch_format="pyarrow"),
            ["prefix"], {"cnt": ("cnt", "sum")},
        )
        .to_pandas()
        .sort_values("prefix")
        .reset_index(drop=True)
    )
    cum = hist["cnt"].cumsum().to_numpy()
    n = int(cum[-1])
    ranks = sorted(set(int(k) for k in ranks_of_n(n)))
    # bucket index + ranks-below for each target rank
    bidx = np.searchsorted(cum, ranks, side="left")
    below = {int(b): (0 if b == 0 else int(cum[b - 1])) for b in bidx}
    need = {int(hist["prefix"][int(b)]): int(b) for b in bidx}

    def p2(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        key = (_f64_sortkey(v) >> np.uint64(48)).astype(np.int64)
        mask = np.isin(key, np.fromiter(need, dtype=np.int64))
        return pa.table(
            {"prefix": pa.array(key[mask]), "value": pa.array(v[mask])}
        )

    vals = (
        tree_group_agg(
            ev.map_batches(p2, batch_format="pyarrow"),
            ["prefix", "value"], {"cnt": (None, "count")},
        )
        .to_pandas()
        .sort_values(["prefix", "value"])
    )
    at_rank = {}
    for k, b in zip(ranks, bidx):
        pref = int(hist["prefix"][int(b)])
        sub = vals[vals["prefix"] == pref]
        c = sub["cnt"].cumsum().to_numpy()
        j = int(np.searchsorted(c, k - below[int(b)], side="left"))
        at_rank[k] = float(sub["value"].to_numpy()[j])
    return at_rank, n


def q_exact_quantiles(sf_dir: str):
    _PS = [(1, 4), (1, 2), (3, 4), (19, 20)]  # p25 p50 p75 p95

    def ranks_of_n(n):
        return [(num * n + den - 1) // den for num, den in _PS]

    at_rank, n = _order_stats_at_ranks(sf_dir, ranks_of_n)
    names = ["p25", "p50", "p75", "p95"]
    ranks = ranks_of_n(n)
    return pd.DataFrame([{nm: at_rank[k] for nm, k in zip(names, ranks)}])


_SQL_EXACT_QUANTILES = """
SELECT quantile_disc(value, 0.25) AS p25,
       quantile_disc(value, 0.50) AS p50,
       quantile_disc(value, 0.75) AS p75,
       quantile_disc(value, 0.95) AS p95
FROM events
"""


# ---------------------------------------------------------------------------
# Interpolated (continuous) quantiles — the PERCENTILE_CONT sibling of
# exact_quantiles, same two-pass bit-prefix histogram, but each quantile
# needs the order statistics at 0-based positions floor(h) and floor(h)+1
# for h = p*(n-1), blended as lo*(1-frac) + hi*frac — DuckDB's own
# association, verified bit-equal across n in {1..1000} x p probes (the
# naive lo + frac*(hi-lo) differs in the last ulp).


def q_quantiles_cont(sf_dir: str):
    _PS = [0.25, 0.50, 0.75, 0.95, 0.99]

    def spec_of_n(n):
        spec = []
        for p in _PS:
            h = p * (n - 1)
            lo = int(np.floor(h))
            hi = min(lo + 1, n - 1)
            spec.append((p, lo + 1, hi + 1, h - lo))
        return spec

    def ranks_of_n(n):
        return [k for (_, k_lo, k_hi, _) in spec_of_n(n)
                for k in (k_lo, k_hi)]

    at_rank, n = _order_stats_at_ranks(sf_dir, ranks_of_n)
    out = {}
    for p, k_lo, k_hi, frac in spec_of_n(n):
        vl, vh = at_rank[k_lo], at_rank[k_hi]
        out[f"p{int(round(p * 100))}"] = vl * (1 - frac) + vh * frac
    return pd.DataFrame([out])


_SQL_QUANTILES_CONT = """
SELECT quantile_cont(value, 0.25) AS p25,
       quantile_cont(value, 0.50) AS p50,
       quantile_cont(value, 0.75) AS p75,
       quantile_cont(value, 0.95) AS p95,
       quantile_cont(value, 0.99) AS p99
FROM events
"""


# ---------------------------------------------------------------------------
# Per-group exact quantiles (the p50/p95/p99-per-service aggregate) in ONE
# pass: values are 2-decimal money, so the (group, cents) histogram is
# DOMAIN-bounded — types x distinct cent values, independent of row count —
# and folds through the combiner tree; each group's quantiles then come
# from one vectorized cumsum + searchsorted rank pick. Contrast with
# exact_quantiles, whose bit-prefix refinement handles UNBOUNDED float
# domains in two passes. Rank k = ceil(p*n), 1-based (quantile_disc).


def q_grouped_quantiles(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    _PS = [(1, 2), (19, 20), (99, 100)]  # p50 p95 p99
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {"event_type": batch.column("event_type"), "value_c": pa.array(v)}
        )

    histo = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "value_c"], {"cnt": (None, "count")},
    )

    def pick(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("value_c")
        c = g["cnt"].cumsum().to_numpy()
        v = g["value_c"].to_numpy()
        n = int(c[-1])
        ranks = np.array([(num * n + den - 1) // den for num, den in _PS])
        j = np.searchsorted(c, ranks, side="left")
        return clean_arrow(
            pd.DataFrame(
                {
                    "event_type": [g["event_type"].iloc[0]],
                    "p50_c": np.int64(v[j[0]]),
                    "p95_c": np.int64(v[j[1]]),
                    "p99_c": np.int64(v[j[2]]),
                    "n": np.int64(n),
                }
            )
        )

    return histo.groupby("event_type").map_groups(
        pick, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Grouped Median Absolute Deviation — the robust-statistics outlier scale
# (MAD = median(|v - median|)), a TWO-LEVEL dependent aggregate: the inner
# median must complete before the outer one can start. Both levels reuse
# the domain-bounded (group, cents) histogram: pass 1's per-group medians
# are a <= |groups|-row driver table shipped with pass 2's task fn, and
# pass 2 histograms the absolute residuals. Rank k = ceil(p*n) both
# levels (quantile_disc semantics).


def q_grouped_mad(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {"event_type": batch.column("event_type"), "value_c": pa.array(v)}
        )

    prepped = ev.map_batches(prep, batch_format="pyarrow").materialize()
    histo = tree_group_agg(
        prepped, ["event_type", "value_c"], {"cnt": (None, "count")},
    ).to_pandas()

    def median_of(h: pd.DataFrame) -> dict:
        med = {}
        for et, g in h.groupby("event_type"):
            g = g.sort_values("value_c")
            c = g["cnt"].cumsum().to_numpy()
            n = int(c[-1])
            k = (n + 1) // 2
            med[et] = int(
                g["value_c"].to_numpy()[np.searchsorted(c, k, side="left")]
            )
        return med

    med = median_of(histo)  # <= |event types| entries — the broadcast side

    def resid(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        v = batch.column("value_c").to_numpy()
        codes, uniq = pd.factorize(et)  # loop only over the <=8 types
        m = np.array([med[u] for u in uniq], dtype=np.int64)[codes]
        return pa.table(
            {"event_type": batch.column("event_type"),
             "value_c": pa.array(np.abs(v - m))}
        )

    histo2 = tree_group_agg(
        prepped.map_batches(resid, batch_format="pyarrow"),
        ["event_type", "value_c"], {"cnt": (None, "count")},
    ).to_pandas()
    mad = median_of(histo2)
    out = pd.DataFrame(
        sorted(
            ({"event_type": et, "median_c": med[et], "mad_c": mad[et]}
             for et in med),
            key=lambda r: r["event_type"],
        )
    )
    out["median_c"] = out["median_c"].astype(np.int64)
    out["mad_c"] = out["mad_c"].astype(np.int64)
    return out


_SQL_GROUPED_MAD = """
WITH v AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS value_c
  FROM events
), m AS (
  SELECT event_type, quantile_disc(value_c, 0.5) AS median_c
  FROM v GROUP BY 1
)
SELECT v.event_type, MAX(m.median_c) AS median_c,
       quantile_disc(ABS(v.value_c - m.median_c), 0.5) AS mad_c
FROM v JOIN m USING (event_type)
GROUP BY 1
"""


_SQL_GROUPED_QUANTILES = """
WITH v AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS value_c
  FROM events
)
SELECT event_type,
       quantile_disc(value_c, 0.50) AS p50_c,
       quantile_disc(value_c, 0.95) AS p95_c,
       quantile_disc(value_c, 0.99) AS p99_c,
       COUNT(*) AS n
FROM v GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Declarative data-quality audit (the expectations gate a production
# pipeline runs before publishing a table): per-rule violation counts in
# ONE pass — set-membership / range / date-window / regex rules as
# vectorized indicator partials through the combiner tree, plus a
# referential-integrity rule (orders.o_custkey must exist in customer)
# probed against a broadcast sorted key array (dimension side; at fact-
# sized key sets this becomes the bloom-prune semi plan, stages/bloom.py).


def q_data_quality_audit(sf_dir: str):
    import pyarrow.compute as pc

    cust_keys = np.sort(
        _read(sf_dir, "customer", ["c_custkey"])
        .to_pandas()["c_custkey"]
        .to_numpy()
    )
    lo = np.datetime64("1992-01-01", "us").astype(np.int64)
    hi = np.datetime64("1998-08-02", "us").astype(np.int64)

    def audit(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        status = batch.column("o_orderstatus")
        in_set = pc.is_in(
            status, value_set=pa.array(["O", "F", "P"])
        ).to_numpy(zero_copy_only=False)
        price = batch.column("o_totalprice").to_numpy()
        d = (
            batch.column("o_orderdate")
            .to_numpy()
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        prio_ok = pc.match_substring_regex(
            batch.column("o_orderpriority"), "^[1-5]-"
        ).to_numpy(zero_copy_only=False)
        ck = batch.column("o_custkey").to_numpy()
        pos = np.searchsorted(cust_keys, ck)
        fk_ok = (pos < len(cust_keys)) & (
            cust_keys[np.minimum(pos, len(cust_keys) - 1)] == ck
        )
        viol = np.array(
            [
                int((~in_set).sum()),
                int(((price <= 0) | (price >= 600_000)).sum()),
                int(((d < lo) | (d > hi)).sum()),
                int((~prio_ok).sum()),
                int((~fk_ok).sum()),
            ],
            dtype=np.int64,
        )
        return pa.table(
            {
                "rule": pa.array(
                    ["status_in_set", "price_range", "date_range",
                     "priority_pattern", "fk_customer"]
                ),
                "n_violations": pa.array(viol),
                "n_checked": pa.array(np.full(5, n, dtype=np.int64)),
            }
        )

    orders = _read(
        sf_dir, "orders",
        ["o_orderstatus", "o_totalprice", "o_orderdate",
         "o_orderpriority", "o_custkey"],
    )
    return tree_group_agg(
        orders.map_batches(audit, batch_format="pyarrow"),
        ["rule"],
        {"n_violations": ("n_violations", "sum"),
         "n_checked": ("n_checked", "sum")},
    )


_SQL_DATA_QUALITY_AUDIT = """
WITH v AS (
  SELECT o_orderstatus AS s, o_totalprice AS p, o_orderdate AS d,
         o_orderpriority AS pr, o_custkey AS ck
  FROM orders
)
SELECT 'status_in_set' AS rule,
       CAST(SUM(CASE WHEN s NOT IN ('O','F','P') THEN 1 ELSE 0 END)
            AS BIGINT) AS n_violations,
       COUNT(*) AS n_checked FROM v
UNION ALL
SELECT 'price_range',
       CAST(SUM(CASE WHEN p <= 0 OR p >= 600000 THEN 1 ELSE 0 END)
            AS BIGINT), COUNT(*) FROM v
UNION ALL
SELECT 'date_range',
       CAST(SUM(CASE WHEN d < TIMESTAMP '1992-01-01'
                       OR d > TIMESTAMP '1998-08-02'
                     THEN 1 ELSE 0 END) AS BIGINT), COUNT(*) FROM v
UNION ALL
SELECT 'priority_pattern',
       CAST(SUM(CASE WHEN NOT regexp_matches(pr, '^[1-5]-')
                     THEN 1 ELSE 0 END) AS BIGINT), COUNT(*) FROM v
UNION ALL
SELECT 'fk_customer',
       CAST(SUM(CASE WHEN ck NOT IN (SELECT c_custkey FROM customer)
                     THEN 1 ELSE 0 END) AS BIGINT), COUNT(*) FROM v
"""


# ---------------------------------------------------------------------------
# Predicate pushdown at the read: the date-range filter is a pyarrow.dataset
# expression handed to the parquet scan, so row groups whose min/max
# statistics exclude 1997 are never deserialized (and with a date-sorted
# layout, never read off storage). The rest of the plan is the standard
# indicator-partial combiner tree. This is the "prune at the read" plan
# shape — at 10^12 rows a one-year slice touches ~1/7 of the row groups.


def q_pruned_daterange(sf_dir: str):
    import pyarrow.dataset as pads

    lo = pd.Timestamp("1997-01-01")
    hi = pd.Timestamp("1998-01-01")
    orders = _read(
        sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    )

    def prep(batch: pa.Table) -> pa.Table:
        price_c = np.round(
            batch.column("o_totalprice").to_numpy() * 100
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "price_c": pa.array(price_c),
            }
        )

    return tree_group_agg(
        orders.map_batches(prep, batch_format="pyarrow"),
        ["o_orderpriority"],
        {"n": (None, "count"), "sum_price_c": ("price_c", "sum")},
    )


_SQL_PRUNED_DATERANGE = """
SELECT o_orderpriority, COUNT(*) AS n,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS sum_price_c
FROM orders
WHERE o_orderdate >= TIMESTAMP '1997-01-01'
  AND o_orderdate <  TIMESTAMP '1998-01-01'
GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# N-gram LM familiarity: the distributed analogue of a KenLM-style quality
# signal — score each document by the mean corpus document-frequency of its
# word trigrams. ONE exchange total: grams hash-bucket by gram, so a gram's
# corpus df is a group-local size() inside the bucket and each doc's
# sum-of-df partials fold through the combiner tree; no gram->df join and
# no broadcast df table (which is corpus-sized and could never broadcast).


def q_ngram_lm_score(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ds.map_batches(_trigram_rows, batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        df = g.groupby("gram")["doc_id"].transform("size").to_numpy()
        out = (
            g.assign(df=df.astype(np.int64))
            .groupby("doc_id", as_index=False)
            .agg(n_grams=("gram", "size"), sum_df=("df", "sum"))
        )
        return clean_arrow(out)

    tot = tree_group_agg(
        grouped_apply(pairs, ["gram"], per_bucket),
        ["doc_id"],
        {"n_grams": ("n_grams", "sum"), "sum_df": ("sum_df", "sum")},
    )

    def score(batch: pa.Table) -> pa.Table:
        ng = batch.column("n_grams").to_numpy()
        sd = batch.column("sum_df").to_numpy()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": batch.column("n_grams"),
                "sum_df": batch.column("sum_df"),
                # sd*1e6 is exact while sum_df < 9.2e12 (int64 bound;
                # per-doc sum_df is n_grams x max df — document-scale safe)
                "fam_e6": pa.array(sd * 1_000_000 // ng),
            }
        )

    return tot.map_batches(score, batch_format="pyarrow")


_SQL_NGRAM_LM_SCORE = """
WITH tok AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents
), g AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(
           range(1, len(w) - 1),
           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))) AS gram
  FROM tok WHERE len(w) >= 3
), df AS (
  SELECT gram, COUNT(*) AS df FROM g GROUP BY gram
)
SELECT g.doc_id, COUNT(*) AS n_grams, SUM(df.df) AS sum_df,
       SUM(df.df) * 1000000 // COUNT(*) AS fam_e6
FROM g JOIN df USING (gram) GROUP BY g.doc_id
"""


# ---------------------------------------------------------------------------
# Product-quantization ANN search (stages/pq.py): codebooks trained on a
# deterministic bounded sample (n // sample_mod ~ 4k vectors regardless of
# corpus size — the scan-rooted metadata count is O(1)), corpus encoded to
# M=16 bytes/vector (16x compression of the 64-dim f32 column), ADC top-10
# per query via broadcast int64 LUTs with block-level top-k pruning.
# Rows-only (ADC is approximate by design); pytest pins recall@10 >= 0.5
# vs the exact brute force and run-to-run determinism.


def q_pq_ann_search(sf_dir: str):
    from ..stages.pq import pq_adc_search, pq_encode, pq_train

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    n = ds.count()  # scan-rooted: O(1) parquet metadata
    books = pq_train(ds, dim=64, sample_mod=max(1, n // 4096))
    codes = pq_encode(ds, books)
    head = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .sort("vec_id").limit(8).to_pandas()
    )
    return pq_adc_search(
        codes, books,
        {"qid": head["vec_id"].to_numpy(),
         "vecs": np.stack(head["embedding"].to_numpy())},
        topk=10,
    )


# ---------------------------------------------------------------------------
# Full-outer join: per-synthetic-custkey event totals FULL OUTER the
# customer table — unmatched fact keys (no such customer) and unmatched
# customers (no events) both survive, sentinel-coalesced so the compare
# never hashes NULLs. The fact side pre-aggregates through the combiner
# tree, so the full-outer exchange carries one row per key per side.


def q_events_cust_full_outer(sf_dir: str):
    ev = _read(sf_dir, "events", ["user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy()
        # key shape: 3/4 of keys land in customer range scaled, 1/4 miss
        ck = (u % 200).astype(np.int64)
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table({"ck": pa.array(ck), "value_c": pa.array(v)})

    agg = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["ck"], {"n_events": (None, "count"), "sum_value_c": ("value_c", "sum")},
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j = agg.join(
        cust, "full_outer", num_partitions=JOIN_PARTS,
        on=("ck",), right_on=("c_custkey",),
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        # Ray's full_outer emits left+matched blocks WITHOUT the right key
        # column and right-unmatched blocks WITH it — the guard is
        # load-bearing, and in a guard-taken block ck is never null
        ck = batch["ck"].astype("Int64")
        if "c_custkey" in batch:
            key = ck.fillna(batch["c_custkey"].astype("Int64"))
        else:
            assert not ck.isna().any(), "left block with null left key"
            key = ck
        out = pd.DataFrame(
            {
                "k": key.astype(np.int64),
                "n_events": batch["n_events"].fillna(0).astype(np.int64),
                "sum_value_c": batch["sum_value_c"].fillna(0).astype(np.int64),
                "c_nationkey": batch["c_nationkey"].fillna(-1).astype(np.int64),
                "matched": (
                    batch["n_events"].notna() & batch["c_nationkey"].notna()
                ).astype(np.int64),
            }
        )
        return out

    return j.map_batches(finish, batch_format="pandas")


_SQL_EVENTS_CUST_FULL_OUTER = """
WITH agg AS (
  SELECT user_id % 200 AS ck, COUNT(*) AS n_events,
         SUM(CAST(ROUND(value * 100) AS BIGINT)) AS sum_value_c
  FROM events GROUP BY 1
)
SELECT COALESCE(ck, c_custkey) AS k,
       COALESCE(n_events, 0) AS n_events,
       COALESCE(sum_value_c, 0) AS sum_value_c,
       COALESCE(c_nationkey, -1) AS c_nationkey,
       CASE WHEN ck IS NOT NULL AND c_nationkey IS NOT NULL
            THEN 1 ELSE 0 END AS matched
FROM agg FULL OUTER JOIN customer ON ck = c_custkey
"""


# ---------------------------------------------------------------------------
# Frame-based rolling window (ROWS BETWEEN 3 PRECEDING AND CURRENT ROW):
# per-user ordered rolling sum/count/avg via one group exchange and a
# vectorized cumsum-shift inside each bounded group — the frame-window
# sibling of the cumulative running_total and the offset lag_delta.


def q_rolling_window_avg(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "value_c": pa.array(v),
            }
        )

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        from ..stages.treeagg import clean_arrow

        g = g.sort_values(["ts_us", "event_id"], kind="stable").reset_index(drop=True)
        cs = g["value_c"].cumsum().to_numpy()
        shifted = np.concatenate([np.zeros(4, dtype=np.int64), cs[:-4]])[: len(cs)]
        roll_sum = cs - shifted
        roll_n = np.minimum(np.arange(len(cs), dtype=np.int64) + 1, 4)
        return clean_arrow(
            pd.DataFrame(
                {
                    "event_id": g["event_id"],
                    "user_id": g["user_id"],
                    "roll_sum_c": roll_sum,
                    "roll_n": roll_n,
                    "roll_avg_c": roll_sum // roll_n,
                }
            )
        )

    return (
        ev.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(roll, batch_format="pandas")
    )


_SQL_ROLLING_WINDOW_AVG = """
SELECT event_id, user_id,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w AS roll_sum_c,
       COUNT(*) OVER w AS roll_n,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w
         // COUNT(*) OVER w AS roll_avg_c
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
"""


# ---------------------------------------------------------------------------
# Set operations (INTERSECT / EXCEPT / UNION counts) between the event key
# set and the customer key set: per-side distinct collapses through keyed
# indicator partials (max), one exchange; the four counts fold through a
# constant-key combiner — no side is ever driver-materialized.


def q_key_set_ops(sf_dir: str):
    ev = _read(sf_dir, "events", ["user_id"])
    cu = _read(sf_dir, "customer", ["c_custkey"])

    def ev_keys(batch: pa.Table) -> pa.Table:
        k = (batch.column("user_id").to_numpy() % 200).astype(np.int64)
        k = np.unique(k)
        return pa.table(
            {"k": pa.array(k),
             "in_ev": pa.array(np.ones(len(k), dtype=np.int64)),
             "in_cu": pa.array(np.zeros(len(k), dtype=np.int64))}
        )

    def cu_keys(batch: pa.Table) -> pa.Table:
        k = np.unique(batch.column("c_custkey").to_numpy().astype(np.int64))
        return pa.table(
            {"k": pa.array(k),
             "in_ev": pa.array(np.zeros(len(k), dtype=np.int64)),
             "in_cu": pa.array(np.ones(len(k), dtype=np.int64))}
        )

    both = ev.map_batches(ev_keys, batch_format="pyarrow").union(
        cu.map_batches(cu_keys, batch_format="pyarrow")
    )
    flags = tree_group_agg(
        both, ["k"], {"in_ev": ("in_ev", "max"), "in_cu": ("in_cu", "max")}
    )

    def classify(batch: pa.Table) -> pa.Table:
        e = batch.column("in_ev").to_numpy()
        c = batch.column("in_cu").to_numpy()
        return pa.table(
            {
                "one": pa.array(np.zeros(batch.num_rows, dtype=np.int64)),
                "n_both": pa.array((e * c).astype(np.int64)),
                "n_only_events": pa.array((e * (1 - c)).astype(np.int64)),
                "n_only_cust": pa.array(((1 - e) * c).astype(np.int64)),
                "n_union": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )

    tot = tree_group_agg(
        flags.map_batches(classify, batch_format="pyarrow"),
        ["one"],
        {
            "n_both": ("n_both", "sum"),
            "n_only_events": ("n_only_events", "sum"),
            "n_only_cust": ("n_only_cust", "sum"),
            "n_union": ("n_union", "sum"),
        },
    )
    return tot.map_batches(
        lambda t: t.drop(["one"]), batch_format="pyarrow"
    )


_SQL_KEY_SET_OPS = """
WITH e AS (SELECT DISTINCT user_id % 200 AS k FROM events),
     c AS (SELECT DISTINCT c_custkey AS k FROM customer)
SELECT
  (SELECT COUNT(*) FROM (SELECT k FROM e INTERSECT SELECT k FROM c)) AS n_both,
  (SELECT COUNT(*) FROM (SELECT k FROM e EXCEPT SELECT k FROM c)) AS n_only_events,
  (SELECT COUNT(*) FROM (SELECT k FROM c EXCEPT SELECT k FROM e)) AS n_only_cust,
  (SELECT COUNT(*) FROM (SELECT k FROM e UNION SELECT k FROM c)) AS n_union
"""


# ---------------------------------------------------------------------------
# Distributed BPE tokenizer training (stages/bpe.py): the corpus reduces to
# the word vocabulary in ONE exchange; each merge round is a vectorized
# pair-count over the bounded vocab through the combiner tree + a driver
# argmax + a vectorized regex merge. Rows-only (iterative, not
# SQL-expressible); pytest pins the merge table bit-for-bit against a
# pure-Python reference BPE on the same corpus.


def q_bpe_merges(sf_dir: str, n_merges: int = 8):
    from ..stages.bpe import bpe_train_ds

    ds = _read(sf_dir, "documents", ["text"])
    return bpe_train_ds(ds, n_merges=n_merges)


# ---------------------------------------------------------------------------
# Per-group HLL: distinct users per source-like group via mergeable
# register-max sketches keyed by group — each block contributes one 4 KB
# register row PER GROUP it saw, the tree merge is an elementwise max
# inside the combiner, and no key set ever shuffles. The grouped sibling
# of approx_distinct_events; error pinned in pytest vs exact.


def q_approx_distinct_by_type(sf_dir: str, p: int = 12):
    from ..stages.sketch import hll_estimate, hll_partial
    from ..stages.treeagg import clean_arrow, tree_custom_agg

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type"):
            regs = hll_partial(g["user_id"].to_numpy(), p).astype(np.uint8)
            rows.append({"event_type": et, "regs": regs.tobytes()})
        return clean_arrow(pd.DataFrame(rows))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type"):
            stack = np.stack(
                [np.frombuffer(b, dtype=np.uint8) for b in g["regs"]]
            )
            rows.append({"event_type": et, "regs": stack.max(axis=0).tobytes()})
        return clean_arrow(pd.DataFrame(rows))

    merged = tree_custom_agg(ds, partial, merge)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        est = [
            int(round(hll_estimate(np.frombuffer(b, dtype=np.uint8).astype(np.int64))))
            for b in df["regs"]
        ]
        return clean_arrow(
            pd.DataFrame({"event_type": df["event_type"], "approx_users": est})
        )

    return merged.map_batches(finish, batch_format="pandas", batch_size=None)


# ---------------------------------------------------------------------------
# Distribution-shift detection: KL(source || corpus) over word unigrams —
# the data-curation signal for "which source's language drifted". Plan:
# per-(source, word) counts via the combiner tree; corpus word totals by
# re-aggregating THAT output (never a second corpus pass); one hash join
# delivers corpus counts back to the (source, word) rows; per-source token
# totals are a bounded dict. Each (source, word) KL contribution is
# floor-scaled to int64 with an expression written identically here and in
# the oracle (the bm25 determinism pattern: both sides run the same IEEE
# double ops in the same order, then floor once), so the distributed sum
# is bit-exact.


def q_source_kl_divergence(sf_dir: str):
    ds = _read(sf_dir, "documents", ["source", "text"])

    def words(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(batch.column("text").cast(pa.string()), " ")
        lens = pc.list_value_length(toks).to_numpy()
        src = np.repeat(
            np.asarray(batch.column("source").to_pylist(), dtype=object), lens
        )
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        keep = flat != ""
        df = pd.DataFrame({"source": src[keep], "word": flat[keep]})
        out = df.groupby(["source", "word"], as_index=False).size()
        out.columns = ["source", "word", "c"]
        from ..stages.treeagg import clean_arrow

        return clean_arrow(out)

    sw = tree_group_agg(
        ds.map_batches(words, batch_format="pyarrow"),
        ["source", "word"], {"c": ("c", "sum")},
    ).materialize()

    # per-word totals are vocabulary-sized (the documented Zipf bound —
    # same contract as the BPE vocab), so the word-marginal side is a
    # broadcast lookup, not a shuffle join of the (source, word) table.
    # Size-gated on MEASURED bytes (materialize -> O(1) size_bytes): a
    # corpus whose vocab outgrows a broadcast falls back to the join plan.
    import ray

    wtot_ds = tree_group_agg(sw, ["word"], {"cw": ("c", "sum")}).materialize()
    stot = tree_group_agg(sw, ["source"], {"ns": ("c", "sum")}).to_pandas()
    ns_of = dict(zip(stot["source"], stot["ns"]))
    n_total = int(stot["ns"].sum())
    broadcast_vocab = (wtot_ds.size_bytes() or 0) <= BROADCAST_BUDGET

    if broadcast_vocab:
        wtot = wtot_ds.to_pandas()
        cw_ref = ray.put(pd.Series(
            wtot["cw"].to_numpy(), index=wtot["word"].to_numpy()
        ))
        contrib_in = sw
    else:
        cw_ref = None
        contrib_in = sw.join(
            wtot_ds, "inner", num_partitions=JOIN_PARTS, on=("word",)
        )

    def contrib(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.treeagg import clean_arrow

        csw = df["c"].to_numpy().astype(np.float64)
        if cw_ref is not None:
            cw = df["word"].map(ray.get(cw_ref)).to_numpy().astype(np.float64)
        else:
            cw = df["cw"].to_numpy().astype(np.float64)
        ns = df["source"].map(ns_of).to_numpy().astype(np.float64)
        # EXPRESSION MIRRORED IN THE ORACLE — do not reorder
        term = np.floor(
            1e9 * (csw / ns) * np.log((csw * np.float64(n_total)) / (ns * cw))
        ).astype(np.int64)
        return clean_arrow(
            pd.DataFrame({"source": df["source"], "kl_e9": term})
        )

    out = tree_group_agg(
        contrib_in.map_batches(contrib, batch_format="pandas"),
        ["source"], {"kl_e9": ("kl_e9", "sum")},
    )

    def attach_n(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_pylist()
        return batch.append_column(
            "n_tokens", pa.array([int(ns_of[s]) for s in src], pa.int64())
        )

    return out.map_batches(attach_n, batch_format="pyarrow")


_SQL_SOURCE_KL_DIVERGENCE = """
WITH tok AS (
  SELECT source,
         unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS word
  FROM documents
), sw AS (
  SELECT source, word, COUNT(*) AS c FROM tok GROUP BY 1, 2
), wt AS (
  SELECT word, SUM(c) AS cw FROM sw GROUP BY 1
), st AS (
  SELECT source, SUM(c) AS ns FROM sw GROUP BY 1
), tot AS (
  SELECT SUM(ns) AS n FROM st
)
SELECT sw.source,
       CAST(SUM(CAST(FLOOR(
         1e9 * (CAST(sw.c AS DOUBLE) / CAST(st.ns AS DOUBLE))
             * LN((CAST(sw.c AS DOUBLE) * CAST(tot.n AS DOUBLE))
                  / (CAST(st.ns AS DOUBLE) * CAST(wt.cw AS DOUBLE)))
       ) AS BIGINT)) AS BIGINT) AS kl_e9,
       CAST(MAX(st.ns) AS BIGINT) AS n_tokens
FROM sw
JOIN wt USING (word)
JOIN st USING (source)
CROSS JOIN tot
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Dataset mixing to a token budget (the Dolma/RedPajama mixing step): each
# source contributes documents in deterministic hash order until its token
# budget (1/4 of its own token mass, exact integer (sum+3)//4) is reached.
# The global per-source running token sum is computed WITHOUT per-source
# global groups (a source can be corpus-sized): hash order is split into
# 256 contiguous h-buckets, per-(source, bucket) token sums collapse
# through the combiner tree to a bounded driver table (sources x 256) that
# yields exclusive base offsets, and each (source, bucket) group only
# cumsum's its own bounded slice — the sequence_pack prefix-sum pattern.


def q_source_mixture(sf_dir: str):
    import pyarrow.compute as pc

    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        t = pc.split_pattern(batch.column("text").cast(pa.string()), " ")
        lens = pc.list_value_length(t).to_numpy().astype(np.int64)
        flat = pc.list_flatten(t).to_numpy(zero_copy_only=False)
        empty_per_doc = np.zeros(len(lens), dtype=np.int64)
        did_rep = np.repeat(np.arange(len(lens)), lens)
        np.add.at(empty_per_doc, did_rep[flat == ""], 1)
        tok = lens - empty_per_doc
        did = batch.column("doc_id").to_numpy()
        h = (did * 2654435761) % (1 << 32)
        return pa.table(
            {
                "source": batch.column("source"),
                "doc_id": batch.column("doc_id"),
                "tok": pa.array(tok),
                "h": pa.array(h.astype(np.int64)),
                "hb": pa.array((h >> 24).astype(np.int64)),
            }
        )

    # (doc_id * 2654435761 stays inside int64 for doc_id < ~3.47e9 — the
    # same documented no-overflow bound as the stratified-sample hash; at a
    # larger id space switch the key to splitmix64 on uint64.)
    t = ds.map_batches(toks, batch_format="pyarrow").materialize()

    per_bucket = tree_group_agg(
        t, ["source", "hb"], {"btok": ("tok", "sum")}
    ).to_pandas().sort_values(["source", "hb"])
    per_bucket["base"] = (
        per_bucket.groupby("source")["btok"].cumsum() - per_bucket["btok"]
    )
    base_of = {
        (r.source, int(r.hb)): int(r.base) for r in per_bucket.itertuples()
    }
    tot = per_bucket.groupby("source")["btok"].sum()
    budget_of = {s: (int(v) + 3) // 4 for s, v in tot.items()}

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"], kind="stable").reset_index(drop=True)
        src = g["source"].iloc[0]
        base = base_of[(src, int(g["hb"].iloc[0]))]
        cum_before = base + g["tok"].cumsum().to_numpy() - g["tok"].to_numpy()
        keep = cum_before < budget_of[src]
        out = g.loc[keep, ["source", "doc_id", "tok"]].copy()
        out["cum_before"] = cum_before[keep]
        return clean_arrow(out)

    return t.groupby(["source", "hb"]).map_groups(pick, batch_format="pandas")


_SQL_SOURCE_MIXTURE = """
WITH t AS (
  SELECT source, doc_id,
         len(list_filter(string_split(text, ' '), x -> x <> '')) AS tok,
         (doc_id * 2654435761) % 4294967296 AS h
  FROM documents
), b AS (
  SELECT source, (SUM(tok) + 3) // 4 AS budget FROM t GROUP BY 1
), c AS (
  SELECT t.*, COALESCE(SUM(tok) OVER (
           PARTITION BY source ORDER BY h, doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum_before
  FROM t
)
SELECT c.source, c.doc_id, c.tok, c.cum_before
FROM c JOIN b USING (source)
WHERE c.cum_before < b.budget
"""


# ---------------------------------------------------------------------------
# IVF-PQ ANN (stages/pq.py): coarse inverted index (distributed Lloyd) +
# residual product quantization + nprobe-bucket ADC search — the composed
# FAISS recipe whose per-query bytes scale with nprobe/n_coarse of the
# corpus. Rows-only; pytest pins recall vs exact, the probe-all ==
# "rows only from probed buckets" containment, and determinism.


def q_ivfpq_ann_search(sf_dir: str, nprobe: int = 4):
    from ..stages.pq import ivfpq_adc_search, ivfpq_build, ivfpq_encode

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    n = ds.count()  # scan-rooted: O(1) metadata
    coarse, books = ivfpq_build(ds, dim=64, sample_mod=max(1, n // 4096))
    codes = ivfpq_encode(ds, coarse, books)
    head = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .sort("vec_id").limit(8).to_pandas()
    )
    return ivfpq_adc_search(
        codes, coarse, books,
        {"qid": head["vec_id"].to_numpy(),
         "vecs": np.stack(head["embedding"].to_numpy())},
        topk=10, nprobe=nprobe,
    )


# ---------------------------------------------------------------------------
# Persistent IVF-PQ index (stages/ann_index.py): the build/search split of
# the FAISS workflow. `ivfpq_index_build` writes a bucket-partitioned
# parquet index (atomic per-bucket dirs, driver-side manifest, meta.json
# completion marker keyed by input fingerprint) and resume-SKIPS a complete
# index; `ivfpq_search_cached` loads the tiny meta and reads only the
# probed bucket partitions — scan-level pruning, bit-identical results to
# the composed ivfpq_ann_search (pytest-pinned). Rows-only.


def q_ivfpq_index_build(sf_dir: str):
    from ..stages.ann_index import ivfpq_index_build

    res = ivfpq_index_build(sf_dir)
    return pd.DataFrame(
        {
            "bucket": [b for b, _ in res["buckets"]],
            "rows": [r for _, r in res["buckets"]],
            "built": [bool(res["built"])] * len(res["buckets"]),
        }
    )



def _ann_query_head(sf_dir: str, n: int = 8) -> dict:
    """Shared deterministic query batch for the ANN family: the n
    lowest-id vectors (qid + float vecs)."""
    head = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .sort("vec_id").limit(n).to_pandas()
    )
    return {
        "qid": head["vec_id"].to_numpy(),
        "vecs": np.stack(head["embedding"].to_numpy()),
    }


def q_ivfpq_search_cached(sf_dir: str, nprobe: int = 4):
    from ..stages.ann_index import ivfpq_index_build, ivfpq_search_cached

    res = ivfpq_index_build(sf_dir)  # no-op when the index is complete
    return ivfpq_search_cached(
        res["index_dir"], _ann_query_head(sf_dir), topk=10, nprobe=nprobe
    )


def q_ivfpq_index_append(sf_dir: str, nprobe: int = 4):
    """Incremental index maintenance (FAISS index.add): append a delta
    slice (vec_id % 7 == 3, re-identified at +10^7) to a PRIVATE copy of
    the index — existing codebooks, no retraining, exactly-once by
    append-id ledger — then search the grown index. The shared cached
    index used by ann_rerank/mmr_rerank is never mutated. Rows-only; the
    appended==in-memory-ADC equality and the no-op replay are
    pytest-pinned (tests/test_ann_index_append.py)."""
    import hashlib as _hl
    import json as _json
    import os

    from ..stages.ann_index import (
        INDEX_ROOT,
        _input_fingerprint,
        ivfpq_index_build,
        ivfpq_index_append,
        ivfpq_search_cached,
    )

    emb_path = f"{sf_dir}/embeddings.parquet"
    fp = _input_fingerprint(emb_path)
    tag = _hl.sha256(
        _json.dumps({"fp": fp, "role": "append_demo"}, sort_keys=True).encode()
    ).hexdigest()[:16]
    root = os.path.join(INDEX_ROOT, f"append_demo_{tag}")
    res = ivfpq_index_build(sf_dir, index_dir=root)

    delta = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def shift(batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy()
        keep = vid % 7 == 3
        t = batch.filter(pa.array(keep))
        return pa.table(
            {
                "vec_id": pa.array(
                    t.column("vec_id").to_numpy() + 10_000_000
                ),
                "embedding": t.column("embedding"),
            }
        )

    ivfpq_index_append(
        res["index_dir"],
        delta.map_batches(shift, batch_format="pyarrow"),
        tag="demo-delta-mod7",
        delta_fingerprint=fp,
    )
    return ivfpq_search_cached(
        res["index_dir"], _ann_query_head(sf_dir), topk=10, nprobe=nprobe
    )


# ---------------------------------------------------------------------------
# Trajectory length: per-user sum of consecutive-event step distances in
# ts order — the movement-analytics op over the deterministic geocode. One
# group exchange; steps computed by a vectorized shift inside each bounded
# group. Per-step distance is floor-scaled AFTER sqrt (IEEE-754 sqrt is
# correctly rounded, so numpy and DuckDB produce the identical double) and
# the int64 step values sum exactly — oracle bit-equal.


def q_user_travel_distance(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    ev = _event_points(sf_dir, ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
                "lng": batch.column("lng"),
                "lat": batch.column("lat"),
            }
        )

    def steps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts_us", "event_id"], kind="stable")
        lng = g["lng"].to_numpy()
        lat = g["lat"].to_numpy()
        dx = lng[1:] - lng[:-1]
        dy = lat[1:] - lat[:-1]
        # EXPRESSION MIRRORED IN THE ORACLE — floor once, after sqrt
        step = np.floor(1e6 * np.sqrt(dx * dx + dy * dy)).astype(np.int64)
        return clean_arrow(
            pd.DataFrame(
                {
                    "user_id": [g["user_id"].iloc[0]],
                    "n_steps": np.int64(len(step)),
                    "dist_e6": step.sum() if len(step) else np.int64(0),
                }
            )
        )

    return (
        ev.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(steps, batch_format="pandas")
    )


def _sql_user_travel_distance() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pt AS (
  SELECT user_id, ts, event_id, {lng} AS lng, {lat} AS lat FROM events
), st AS (
  SELECT user_id,
         lng - LAG(lng) OVER w AS dx,
         lat - LAG(lat) OVER w AS dy
  FROM pt
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id,
       COUNT(dx) AS n_steps,
       COALESCE(CAST(SUM(CAST(FLOOR(
         1e6 * SQRT(dx * dx + dy * dy)) AS BIGINT)) AS BIGINT), 0) AS dist_e6
FROM st GROUP BY 1
"""


_SQL_USER_TRAVEL_DISTANCE = _sql_user_travel_distance()


# ---------------------------------------------------------------------------
# Time-RANGE sliding window: per event, the sum/count of the user's events
# in the trailing hour INCLUDING ts-peers (SQL RANGE-frame semantics, the
# sibling of the ROWS frame in rolling_window_avg). One group exchange;
# inside each bounded group the window is two vectorized searchsorted
# bounds over the ts-sorted cumulative sum — no per-row loop, and the
# result is order-independent (peers included by value, not position).


def q_range_window_sum(sf_dir: str, window_us: int = 3_600_000_000):
    from ..stages.treeagg import clean_arrow

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "value_c": pa.array(v),
            }
        )

    def windows(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts_us", "event_id"], kind="stable").reset_index(drop=True)
        ts = g["ts_us"].to_numpy()
        v = g["value_c"].to_numpy()
        cs = np.concatenate([[0], v.cumsum()])
        lo = np.searchsorted(ts, ts - window_us, side="left")
        hi = np.searchsorted(ts, ts, side="right")  # include ts-peers
        return clean_arrow(
            pd.DataFrame(
                {
                    "event_id": g["event_id"],
                    "user_id": g["user_id"],
                    "win_sum_c": cs[hi] - cs[lo],
                    "win_n": (hi - lo).astype(np.int64),
                }
            )
        )

    return (
        ev.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(windows, batch_format="pandas")
    )


_SQL_RANGE_WINDOW_SUM = """
SELECT event_id, user_id,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w AS win_sum_c,
       COUNT(*) OVER w AS win_n
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


# ---------------------------------------------------------------------------
# Exactly-once streaming dedup: the events log is replayed with
# deterministic duplicates (~1/3 of events arrive twice, delayed), and
# per-bucket stateful actors admit each event id once (C-vectorized
# membership against the actor's admitted-set). Deduped per-user totals
# must equal the clean batch aggregate — which IS the oracle: if any
# replay leaked or any original was dropped, the totals diverge.


def q_stream_dedup_totals(sf_dir: str) -> pd.DataFrame:
    from ..stages.streaming import stream_dedup_totals

    return stream_dedup_totals(sf_dir)


_SQL_STREAM_DEDUP_TOTALS = """
SELECT user_id, COUNT(*) AS n,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) AS sum_value_c
FROM events GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Douglas-Peucker generalization over the municipality rings
# (kernels/simplify.py): tolerance-based low-zoom simplification, emitted
# with self-checking columns (max deviation of dropped vertices <= eps by
# construction — the column proves it per row). Rows-only.


def q_dp_simplify_rings(sf_dir: str, eps: float = 0.05):
    import ray.data

    from ..kernels.simplify import dp_simplify_ring, max_deviation
    from ..sources.municipalities import municipality_polygons

    polys = municipality_polygons()
    ds = ray.data.from_items(
        [{"pid": p["id"], "ring": p["rings"][0].tolist()} for p in polys]
    )

    def simp(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for pid, ring in zip(batch["pid"], batch["ring"]):
            # ring arrives as a ragged object array of per-point arrays
            r = np.stack([np.asarray(p, dtype=np.float64) for p in ring])
            kept = dp_simplify_ring(r, eps)
            dev = max_deviation(
                np.concatenate([r, r[:1]]),
                np.concatenate([kept, [len(r)]]),
            )
            rows.append(
                {
                    "pid": pid,
                    "n_before": np.int64(len(r)),
                    "n_after": np.int64(len(kept)),
                    "max_dev_e9": np.int64(round(dev * 1e9)),
                    "within_eps": np.int64(dev <= eps + 1e-12),
                }
            )
        return pd.DataFrame(rows)

    return ds.map_batches(simp, batch_format="pandas")


# ---------------------------------------------------------------------------
# Interval (stream-stream) join: for each user, count click->purchase
# pairs with the purchase inside [click_ts, click_ts + 1h] (inclusive —
# SQL BETWEEN). ONE group exchange; inside each bounded user group both
# event streams sort once and the pair count is two vectorized
# searchsorted bounds per click — no pair materialization, so a user with
# C clicks and P purchases costs O((C+P) log P), not O(C*P).


def q_click_purchase_join(sf_dir: str, window_us: int = 3_600_000_000):
    from ..stages.treeagg import clean_arrow

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        et = batch.column("event_type")
        keep = pc.or_(pc.equal(et, "click"), pc.equal(et, "purchase"))
        b = batch.filter(keep)
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": b.column("ts").cast(pa.int64()),
                "is_click": pc.cast(pc.equal(b.column("event_type"), "click"),
                                    pa.int64()),
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        c = np.sort(g.loc[g["is_click"] == 1, "ts_us"].to_numpy())
        p = np.sort(g.loc[g["is_click"] == 0, "ts_us"].to_numpy())
        if not len(c) or not len(p):
            n = 0
        else:
            lo = np.searchsorted(p, c, side="left")
            hi = np.searchsorted(p, c + window_us, side="right")
            n = int((hi - lo).sum())
        return clean_arrow(
            pd.DataFrame(
                {"user_id": [g["user_id"].iloc[0]], "n_pairs": np.int64(n)}
            )
        )

    per_user = (
        ev.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(pairs, batch_format="pandas")
    )
    return per_user.filter(expr="n_pairs > 0")


_SQL_CLICK_PURCHASE_JOIN = """
SELECT a.user_id, COUNT(*) AS n_pairs
FROM events a
JOIN events b
  ON a.user_id = b.user_id
 AND a.event_type = 'click' AND b.event_type = 'purchase'
 AND b.ts BETWEEN a.ts AND a.ts + INTERVAL 1 HOUR
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# CUBE aggregate: all four grains of (status, year) from ONE finest-grain
# combiner pass — the rollup's sibling with the cross-grain (year-only)
# subtotal added; every coarser grain derives from the small finest table.


def q_cube_revenue(sf_dir: str):
    import pyarrow.compute as pc

    orders = _read(
        sf_dir, "orders", ["o_orderstatus", "o_orderdate", "o_totalprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        price_c = np.round(
            batch.column("o_totalprice").to_numpy() * 100
        ).astype(np.int64)
        return pa.table(
            {
                "status": batch.column("o_orderstatus"),
                "yr": pc.cast(pc.year(batch.column("o_orderdate")), pa.int64()),
                "price_c": pa.array(price_c),
            }
        )

    finest = tree_group_agg(
        orders.map_batches(prep, batch_format="pyarrow"),
        ["status", "yr"],
        {"n": (None, "count"), "sum_price_c": ("price_c", "sum")},
    )

    def add_cube(df: pd.DataFrame) -> pd.DataFrame:
        by_status = df.groupby("status", as_index=False).agg(
            n=("n", "sum"), sum_price_c=("sum_price_c", "sum")
        )
        by_status["yr"] = np.int64(-1)
        by_yr = df.groupby("yr", as_index=False).agg(
            n=("n", "sum"), sum_price_c=("sum_price_c", "sum")
        )
        by_yr["status"] = "ALL"
        grand = pd.DataFrame(
            {
                "status": ["ALL"], "yr": np.array([-1], dtype=np.int64),
                "n": [df["n"].sum()], "sum_price_c": [df["sum_price_c"].sum()],
            }
        )
        cols = ["status", "yr", "n", "sum_price_c"]
        return pd.concat(
            [df[cols], by_status[cols], by_yr[cols], grand[cols]],
            ignore_index=True,
        )

    return finest.map_batches(add_cube, batch_format="pandas", batch_size=None)


_SQL_CUBE_REVENUE = """
SELECT COALESCE(o_orderstatus, 'ALL') AS status,
       COALESCE(EXTRACT(year FROM o_orderdate), -1) AS yr,
       COUNT(*) AS n,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS sum_price_c
FROM orders
GROUP BY CUBE(o_orderstatus, EXTRACT(year FROM o_orderdate))
"""


# ---------------------------------------------------------------------------
# Correlated-subquery pattern: events strictly above their OWN user's mean
# value. One group exchange; the mean comparison is exact rational
# arithmetic (value_c * n > sum_c, both int64) so no float mean can
# disagree with the oracle's division.


def q_above_user_avg(sf_dir: str):
    from ..stages.treeagg import clean_arrow, tree_group_agg

    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "value_c": pa.array(v),
            }
        )

    def count_above(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value_c"].to_numpy()
        n = len(v)
        s = int(v.sum())
        # v > s/n  <=>  v*n > s  (exact int compare; v*n < 2^63 at any
        # realistic per-user count x cents value)
        above = int((v.astype(object) * n > s).sum()) if n else 0
        return clean_arrow(
            pd.DataFrame(
                {
                    "user_id": [g["user_id"].iloc[0]],
                    "n_events": np.int64(n),
                    "n_above_avg": np.int64(above),
                }
            )
        )

    return (
        ev.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(count_above, batch_format="pandas")
    )


_SQL_ABOVE_USER_AVG = """
WITH v AS (
  SELECT user_id, CAST(ROUND(value * 100) AS BIGINT) AS value_c FROM events
), s AS (
  SELECT user_id, COUNT(*) AS n, SUM(value_c) AS tot FROM v GROUP BY 1
)
SELECT v.user_id, MAX(s.n) AS n_events,
       CAST(SUM(CASE WHEN v.value_c * s.n > s.tot THEN 1 ELSE 0 END)
            AS BIGINT) AS n_above_avg
FROM v JOIN s USING (user_id)
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Skyline / Pareto frontier: orders undominated on (price max, date min).
# The distributed plan is a local-skyline COMBINER (sound because dominance
# is transitive: a point dominated inside any block is dominated globally,
# so every local prune preserves the global skyline) followed by a
# log-depth repartition tree applying the same prune, exactly like
# tree_group_agg but for a set-valued, non-decomposable operator. The
# per-block prune is one sort + two vectorized prefix scans — no pairwise
# O(n^2) work anywhere.


def _skyline_prune(df: pd.DataFrame) -> pd.DataFrame:
    """Rows NOT dominated inside ``df``: keep x unless some y has
    (price >= x.price, date <= x.date) with one strict."""
    if not len(df):
        return df  # empty blocks pass through with their dtypes intact
    df = df.sort_values(
        ["price_c", "date_us"], ascending=[False, True], kind="stable"
    )
    p = df["price_c"].to_numpy()
    d = df["date_us"].to_numpy()
    cm = np.minimum.accumulate(d)
    grp_start = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
    starts = np.repeat(grp_start, np.diff(np.r_[grp_start, len(p)]))
    prev = starts - 1
    inf = np.iinfo(np.int64).max
    # min date among STRICTLY higher prices (dominates when <= d) ...
    min_gt = np.where(prev >= 0, cm[np.maximum(prev, 0)], inf)
    # ... or a same-price row with STRICTLY smaller date (group min is at
    # the group start because dates ascend within a price group)
    dominated = (min_gt <= d) | (d[starts] < d)
    return df[~dominated]


def q_skyline_orders(sf_dir: str):
    from ..stages.treeagg import clean_arrow, tree_custom_agg

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def prep(batch: pa.Table) -> pa.Table:
        price_c = np.round(
            batch.column("o_totalprice").to_numpy() * 100
        ).astype(np.int64)
        date_us = (
            batch.column("o_orderdate")
            .to_numpy()
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "price_c": pa.array(price_c),
                "date_us": pa.array(date_us),
            }
        )

    def sky(df: pd.DataFrame) -> pa.Table:
        return clean_arrow(_skyline_prune(df))

    return tree_custom_agg(ds.map_batches(prep, batch_format="pyarrow"), sky, sky)


# DuckDB twin: O(n log n) window form of NOT EXISTS dominance — min date
# over strictly-higher prices via a RANGE frame (integer cents ORDER BY
# DESC, so "1 PRECEDING" = price_c + 1 and above = price > current), plus
# the same-price partition min for the strict-date arm.
_SQL_SKYLINE_ORDERS = """
WITH o AS (
  SELECT o_orderkey, CAST(ROUND(o_totalprice * 100) AS BIGINT) AS price_c,
         epoch_us(o_orderdate) AS date_us
  FROM orders
), w AS (
  SELECT o_orderkey, price_c, date_us,
         MIN(date_us) OVER (ORDER BY price_c DESC
             RANGE BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS min_dt_gt,
         MIN(date_us) OVER (PARTITION BY price_c) AS min_dt_eq
  FROM o
)
SELECT o_orderkey, price_c, date_us FROM w
WHERE (min_dt_gt IS NULL OR min_dt_gt > date_us) AND date_us = min_dt_eq
"""


# ---------------------------------------------------------------------------
# Inverted index build (the retrieval-side sibling of bm25_search): term ->
# document frequency + the sorted posting list, materialized as a string so
# the driver's value-hash can gate it. One term-hash bucket exchange
# carrying (term, doc_id) pairs; each term-keyed hash group resolves all
# its terms with one vectorized sort + a C-level join per posting (the same
# STRING_AGG-shape used by user_event_sequence). min_df prunes the long
# tail so the output is the useful index, not the hapax list.


def q_inverted_index(sf_dir: str, min_df: int = 5):
    from ..stages.treeagg import clean_arrow

    tf = _doc_tf(sf_dir)  # (doc_id, term, tf): distinct per doc already

    def postings(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["term", "doc_id"], kind="stable")
        g = g.assign(doc_str=g["doc_id"].astype(str))
        out = g.groupby("term", as_index=False).agg(
            df=("doc_id", "size"), postings=("doc_str", ",".join)
        )
        out = out[out["df"] >= min_df]
        return clean_arrow(out[["term", "df", "postings"]])

    return grouped_apply(tf, ["term"], postings)


_SQL_INVERTED_INDEX = """
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS term FROM documents
), tf AS (
  SELECT doc_id, term FROM tok WHERE term <> '' GROUP BY 1, 2
)
SELECT term, COUNT(*) AS df,
       STRING_AGG(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM tf GROUP BY term HAVING COUNT(*) >= 5
"""


# ---------------------------------------------------------------------------
# Keep-newest-version-per-key (DISTINCT ON / arg_max): the recency dedup
# every changelog / CDC ingest needs. argmax is associative, so the plan is
# a pure combiner tree — each block keeps its per-user newest row (whole
# payload travels WITH the winner, never joined back), then two repartition
# levels reduce the partials. Ties broken (ts DESC, event_id DESC) on both
# sides.


def q_latest_event_per_user(sf_dir: str):
    from ..stages.treeagg import clean_arrow, tree_custom_agg

    ds = _read(
        sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        ts = (
            batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        )
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts_us": pa.array(ts),
                "event_type": batch.column("event_type"),
                "value_c": pa.array(v),
            }
        )

    def keep_latest(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(
            ["user_id", "ts_us", "event_id"],
            ascending=[True, False, False],
            kind="stable",
        )
        return clean_arrow(df.drop_duplicates("user_id", keep="first"))

    return tree_custom_agg(
        ds.map_batches(prep, batch_format="pyarrow"), keep_latest, keep_latest
    )


_SQL_LATEST_EVENT_PER_USER = """
SELECT user_id, event_id, epoch_us(ts) AS ts_us, event_type,
       CAST(ROUND(value * 100) AS BIGINT) AS value_c
FROM events
QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) = 1
"""


# ---------------------------------------------------------------------------
# SCD Type-2 history build: compress each user's event_type stream into
# validity intervals [valid_from, valid_to) opened at every change point
# (change-data-capture -> slowly-changing-dimension, the standard warehouse
# op). One user-keyed exchange; inside each hash group the
# change mask, interval close and version number are three vectorized
# passes (shift compare, next-change shift, cumcount via repeated starts).
# valid_to = -1 marks the open (current) interval, matching the oracle's
# COALESCE.


def q_scd2_intervals(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def intervals(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy(dtype=object)
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        first = np.r_[True, uid[1:] != uid[:-1]]
        prev_et = np.r_[et[:1], et[:-1]]
        change = first | (et != prev_et)
        uid_c = uid[change]
        et_c = et[change]
        ts_c = ts[change]
        ustart = np.r_[True, uid_c[1:] != uid_c[:-1]]
        su = np.flatnonzero(ustart)
        starts = np.repeat(su, np.diff(np.r_[su, len(uid_c)]))
        version = np.arange(len(uid_c), dtype=np.int64) - starts + 1
        valid_to = np.r_[ts_c[1:], np.int64(-1)]
        last_of_user = np.r_[ustart[1:], True]
        valid_to[last_of_user] = -1
        return clean_arrow(
            pd.DataFrame(
                {
                    "user_id": uid_c,
                    "event_type": et_c,
                    "valid_from_us": ts_c,
                    "valid_to_us": valid_to,
                    "version": version,
                }
            )
        )

    return grouped_apply(ds, ["user_id"], intervals)


_SQL_SCD2_INTERVALS = """
WITH e AS (
  SELECT user_id, event_type, ts, event_id,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events
), c AS (
  SELECT user_id, event_type, ts, event_id FROM e
  WHERE prev IS NULL OR prev <> event_type
)
SELECT user_id, event_type, epoch_us(ts) AS valid_from_us,
       COALESCE(epoch_us(LEAD(ts) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id)), -1)
         AS valid_to_us,
       ROW_NUMBER() OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS version
FROM c
"""


# ---------------------------------------------------------------------------
# TPC-H Q21 plan shape ("suppliers who kept orders waiting"): the
# EXISTS + NOT-EXISTS pair over one fact table, correlated per order. Here:
# per multi-supplier order, the supplier who was the ONLY one to ship
# > 45 days after the order's first shipment. One order-bucket exchange;
# inside each bucket the per-order min-ship, late mask, distinct-supplier
# and lone-late-supplier resolution are four C-level groupby passes (no
# self-join materialization — the reference formulation's l1/l2/l3 triple
# scan collapses into the co-grouped pass). Then a suppkey combiner tree.


def q_late_supplier_blame(sf_dir: str, late_us: int = 45 * 86_400_000_000):
    from ..stages.treeagg import clean_arrow, tree_group_agg

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])

    def prep(batch: pa.Table) -> pa.Table:
        ship = (
            batch.column("l_shipdate")
            .to_numpy()
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "l_suppkey": batch.column("l_suppkey"),
                "ship_us": pa.array(ship),
            }
        )

    def blame(g: pd.DataFrame) -> pa.Table:
        min_ship = g.groupby("l_orderkey")["ship_us"].transform("min")
        late = g["ship_us"].to_numpy() > min_ship.to_numpy() + late_us
        per_order = g.groupby("l_orderkey").agg(
            n_supp=("l_suppkey", "nunique")
        )
        # distinct LATE suppliers per order, vectorized: dedup (order, supp)
        # pairs on the late subset, then count + max per order
        ls = g.loc[late, ["l_orderkey", "l_suppkey"]].drop_duplicates()
        late_stats = ls.groupby("l_orderkey")["l_suppkey"].agg(
            n_late="size", late_supp="max"
        )
        per_order = per_order.join(late_stats)
        hit = per_order[(per_order["n_supp"] > 1) & (per_order["n_late"] == 1)]
        out = (
            hit.groupby("late_supp").size().rename("numwait").reset_index()
        )
        out.columns = ["l_suppkey", "numwait"]
        out["l_suppkey"] = out["l_suppkey"].astype(np.int64)
        out["numwait"] = out["numwait"].astype(np.int64)
        return clean_arrow(out)

    partial = grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["l_orderkey"], blame
    )
    return tree_group_agg(
        partial, ["l_suppkey"], {"numwait": ("numwait", "sum")}
    )


_SQL_LATE_SUPPLIER_BLAME = """
WITH x AS (
  SELECT l_orderkey, l_suppkey, l_shipdate,
         MIN(l_shipdate) OVER (PARTITION BY l_orderkey) AS min_ship
  FROM lineitem
), o AS (
  SELECT l_orderkey,
         COUNT(DISTINCT l_suppkey) AS n_supp,
         COUNT(DISTINCT CASE WHEN l_shipdate > min_ship + INTERVAL 45 DAY
                             THEN l_suppkey END) AS n_late,
         MAX(CASE WHEN l_shipdate > min_ship + INTERVAL 45 DAY
                  THEN l_suppkey END) AS late_supp
  FROM x GROUP BY 1
)
SELECT late_supp AS l_suppkey, COUNT(*) AS numwait
FROM o WHERE n_supp > 1 AND n_late = 1
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Deterministic global shuffle with MATERIALIZED position (the
# training-data shuffle: every row gets its dense 0-based position in the
# seeded pseudo-random order — resumable because the order is a pure
# function of the key). The classic distributed pain here is global
# ORDER BY + ROW_NUMBER; the plan avoids any global sort: pass 1 builds a
# 256-bucket histogram of the hash's top bits (one 256-int row per block,
# combiner tree — bytes exchanged are O(buckets), not O(rows)); its
# prefix-sum broadcasts as the per-bucket base offset; pass 2 is one
# bucket exchange where each group sorts locally and adds its base.
# Multiplicative hashing makes the buckets uniform, so the groups are
# balanced by construction (no skew salt needed).


def q_global_shuffle_rank(sf_dir: str, n_buckets: int = 256):
    from ..stages.treeagg import clean_arrow, tree_group_agg

    if n_buckets & (n_buckets - 1):
        raise ValueError("n_buckets must be a power of two")
    shift = 32 - int(n_buckets).bit_length() + 1  # h >> shift in [0, n_buckets)

    ds = _read(sf_dir, "events", ["event_id"]).materialize()

    def hashed(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy()
        h = (eid * 2654435761) % (1 << 32)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "h": pa.array(h.astype(np.int64)),
                "bucket": pa.array((h >> shift).astype(np.int64)),
            }
        )

    hds = ds.map_batches(hashed, batch_format="pyarrow")
    hist = tree_group_agg(
        hds, ["bucket"], {"n": (None, "count")}
    ).to_pandas()  # <= 256 rows on the driver — the broadcast side
    hist = hist.sort_values("bucket")
    base = np.zeros(n_buckets, dtype=np.int64)
    np.add.at(base, hist["bucket"].to_numpy(), hist["n"].to_numpy())
    base = np.concatenate([[0], np.cumsum(base)[:-1]])

    def rank_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["h", "event_id"], kind="stable")
        b = int(g["bucket"].iloc[0])
        pos = base[b] + np.arange(len(g), dtype=np.int64)
        return clean_arrow(
            pd.DataFrame(
                {"event_id": g["event_id"].to_numpy(), "shuffle_pos": pos}
            )
        )

    return hds.groupby("bucket").map_groups(
        rank_bucket, batch_format="pandas"
    )


_SQL_GLOBAL_SHUFFLE_RANK = """
SELECT event_id,
       ROW_NUMBER() OVER (ORDER BY (event_id * 2654435761) % 4294967296,
                          event_id) - 1 AS shuffle_pos
FROM events
"""


# ---------------------------------------------------------------------------
# Sequence pattern matching (MATCH_RECOGNIZE-lite): per user, count the
# CONSECUTIVE view -> click -> purchase triples in event-time order — the
# strict-adjacency sibling of funnel_steps' ordered-containment. One user
# bucket exchange; inside each bucket the triple mask is one vectorized
# double-shift compare (no per-user Python, no window join).


def q_pattern_triples(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def triples(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy(dtype=object)
        n = len(g)
        hit = np.zeros(n, dtype=bool)
        if n >= 3:
            same3 = (uid[:-2] == uid[1:-1]) & (uid[1:-1] == uid[2:])
            hit[:-2] = (
                same3
                & (et[:-2] == "view")
                & (et[1:-1] == "click")
                & (et[2:] == "purchase")
            )
        out = (
            pd.DataFrame({"user_id": uid, "hit": hit.astype(np.int64)})
            .groupby("user_id", as_index=False)
            .agg(n_triples=("hit", "sum"))
        )
        return clean_arrow(out)

    return grouped_apply(ds, ["user_id"], triples)


_SQL_PATTERN_TRIPLES = """
WITH w AS (
  SELECT user_id, event_type,
         LEAD(event_type, 1) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS e1,
         LEAD(event_type, 2) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS e2
  FROM events
)
SELECT user_id,
       CAST(SUM(CASE WHEN event_type = 'view' AND e1 = 'click'
                      AND e2 = 'purchase' THEN 1 ELSE 0 END) AS BIGINT)
         AS n_triples
FROM w GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# SemDeDup: see stages/knn.py::semdedup. Rows-only (the k-means assignment
# isn't SQL-expressible); pytest pins the distributed plan equal to the
# O(n^2) driver brute and the planted structure.


def q_semdedup(sf_dir: str):
    from ..stages.knn import semdedup

    return semdedup(sf_dir)


def q_bpe_encode_stats(sf_dir: str, n_merges: int = 8):
    """The tokenizer's inference side: train the merge table once
    (bpe_merges' distributed loop), then a ZERO-exchange encode pass maps
    per-doc word/symbol/BPE-token counts (stages/bpe.py). Rows-only
    (merge application isn't SQL); pytest pins == the pure-Python
    reference tokenizer per doc."""
    from ..stages.bpe import bpe_encode_stats_ds, bpe_train_ds

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = bpe_train_ds(docs, n_merges=n_merges)
    return bpe_encode_stats_ds(docs, merges)


def q_fuzzy_token_join(sf_dir: str):
    """FastSS edit-distance<=1 similarity join over caption tokens
    (stages/fuzzy.py). Rows-only (image table is outside the SQL views);
    pytest pins the pair set == O(V^2) DP brute force."""
    import os

    from ..stages.fuzzy import fuzzy_token_join

    base = os.path.basename(sf_dir.rstrip("/"))
    if not base.startswith("sf"):
        # the vocabulary comes from the sf-scaled image table; silently
        # defaulting would run against a DIFFERENT dataset than asked
        raise ValueError(
            f"fuzzy_token_join needs an sf-named dir (got {sf_dir!r})"
        )
    return fuzzy_token_join(float(base.replace("sf", "")))


# ---------------------------------------------------------------------------
# registry


# ---------------------------------------------------------------------------
# TPC-H Q2 shape: argmin join-back — for every part, the cheapest lineitem
# offer and the supplier that made it (ties: smallest suppkey). ONE
# combiner-tree exchange via a composite minimization key: suppkey fits in
# 20 bits (asserted), so min(price_c * 2^20 + suppkey) decomposes into
# (min price, min suppkey among min-price rows) exactly — the two-level
# argmin without a join-back exchange. Supplier attach is a broadcast dim.


def q_cheapest_supplier_per_part(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_suppkey"])

    def prep(batch: pa.Table) -> pa.Table:
        price_c = np.round(
            batch.column("l_extendedprice").to_numpy() * 100
        ).astype(np.int64)
        sk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        assert sk.max(initial=0) < (1 << 20), "composite argmin key overflow"
        return pa.table(
            {
                "p_partkey": batch.column("l_partkey"),
                "ck": pa.array(price_c * (1 << 20) + sk),
            }
        )

    agg = tree_group_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        ["p_partkey"], {"ck": ("ck", "min")},
    )

    def decompose(batch: pa.Table) -> pa.Table:
        ck = batch.column("ck").to_numpy()
        return pa.table(
            {
                "p_partkey": batch.column("p_partkey"),
                "min_price_c": pa.array(ck >> 20),
                "s_suppkey": pa.array(ck & ((1 << 20) - 1)),
            }
        )

    from ..stages.joins import _scan_rooted_size, auto_join

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return auto_join(
        agg.map_batches(decompose, batch_format="pyarrow"), sup,
        on=("s_suppkey",), how="inner", num_partitions=JOIN_PARTS,
        right_size_hint=_scan_rooted_size(sup),
    )


_SQL_CHEAPEST_SUPPLIER_PER_PART = """
WITH px AS (
  SELECT l_partkey, CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS price_c,
         l_suppkey
  FROM lineitem
), m AS (
  SELECT l_partkey, MIN(price_c) AS min_price_c FROM px GROUP BY l_partkey
), w AS (
  SELECT px.l_partkey, m.min_price_c, MIN(px.l_suppkey) AS s_suppkey
  FROM px JOIN m ON px.l_partkey = m.l_partkey AND px.price_c = m.min_price_c
  GROUP BY px.l_partkey, m.min_price_c
)
SELECT w.l_partkey AS p_partkey, w.min_price_c, w.s_suppkey, s.s_name
FROM w JOIN supplier s ON w.s_suppkey = s.s_suppkey
"""


# ---------------------------------------------------------------------------
# TPC-H Q22 shape: scalar-subquery threshold + anti join — customers whose
# balance beats the positive-balance average AND who never ordered, counted
# per nation. The global average is a 2-int driver scalar (sum, count) from
# the combiner tree, compared EXACTLY as bal_c * n > sum_c (no division);
# the "no orders" probe is the planner-routed left_anti against the orders
# key set.


def q_rich_idle_customers(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def prep(batch: pa.Table) -> pa.Table:
        bal_c = np.round(batch.column("c_acctbal").to_numpy() * 100).astype(
            np.int64
        )
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "c_nationkey": batch.column("c_nationkey"),
                "bal_c": pa.array(bal_c),
            }
        )

    # materialized: the threshold scalar and the filter both consume it —
    # without this the customer scan + prep would execute twice
    pos = cust.map_batches(prep, batch_format="pyarrow").materialize()
    thr = (
        pos.filter(expr="bal_c > 0")
        .map_batches(
            lambda b: pa.table(
                {
                    "s": pa.array([int(b.column("bal_c").to_numpy().sum())]),
                    "n": pa.array([b.num_rows]),
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    s_tot, n_tot = int(thr["s"].sum()), int(thr["n"].sum())

    def above(batch: pa.Table, s=s_tot, n=n_tot) -> pa.Table:
        bal = batch.column("bal_c").to_numpy()
        return batch.filter(pa.array(bal * n > s))

    rich = pos.map_batches(above, batch_format="pyarrow")
    from ..stages.joins import _scan_rooted_size, auto_join

    orders = _read(sf_dir, "orders", ["o_custkey"])
    idle = auto_join(
        rich, orders, on=("c_custkey",), right_on=("o_custkey",),
        how="left_anti", num_partitions=JOIN_PARTS,
        right_size_hint=_scan_rooted_size(orders),
    )
    agg = tree_group_agg(
        idle, ["c_nationkey"],
        {"n_cust": (None, "count"), "total_bal_c": ("bal_c", "sum")},
    )
    import ray.data

    # an sf where every rich customer has ordered yields zero rows; the
    # typed seed keeps the schema contract (heavy_users pattern)
    seed = ray.data.from_arrow(
        pa.table(
            {
                "c_nationkey": pa.array([], pa.int64()),
                "n_cust": pa.array([], pa.int64()),
                "total_bal_c": pa.array([], pa.int64()),
            }
        )
    )
    return seed.union(agg)


_SQL_RICH_IDLE_CUSTOMERS = """
WITH pos AS (
  SELECT c_custkey, c_nationkey,
         CAST(ROUND(c_acctbal * 100) AS BIGINT) AS bal_c
  FROM customer
), thr AS (
  SELECT SUM(bal_c) AS s, COUNT(*) AS n FROM pos WHERE bal_c > 0
)
SELECT p.c_nationkey, COUNT(*) AS n_cust, SUM(p.bal_c) AS total_bal_c
FROM pos p, thr
WHERE p.bal_c * thr.n > thr.s
  AND NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = p.c_custkey)
GROUP BY p.c_nationkey
"""


# ---------------------------------------------------------------------------
# DENSE_RANK per group without a per-group sort of the DATA: the rank of a
# row is the position of its value among the group's DISTINCT values, and
# the distinct (event_type, value_c) table is domain-bounded (cents of a
# bounded value domain) — so one combiner-tree distinct pass builds a small
# driver-side rank map, broadcast back for a vectorized searchsorted
# lookup. No shuffle of the fact rows at all (the exact_quantiles /
# grouped_mad histogram pattern applied to ranking).


def q_dense_rank_events(sf_dir: str):
    import ray

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "value_c": pa.array(v),
            }
        )

    # materialized: the rank-map build and the attach pass both consume it
    fact = ev.map_batches(prep, batch_format="pyarrow").materialize()
    distinct = tree_group_agg(
        fact, ["event_type", "value_c"], {"n": (None, "count")}
    ).to_pandas()  # domain-bounded: |types| x |distinct cents|
    distinct = distinct.sort_values(["event_type", "value_c"])
    rank_map = {
        t: g["value_c"].to_numpy()
        for t, g in distinct.groupby("event_type", sort=True)
    }
    ref = ray.put(rank_map)

    def attach(batch: pd.DataFrame) -> pd.DataFrame:
        from ..stages.treeagg import clean_arrow

        rm = ray.get(ref)
        out = np.empty(len(batch), dtype=np.int64)
        et = batch["event_type"].to_numpy()
        vc = batch["value_c"].to_numpy()
        for t in np.unique(et):
            m = et == t
            out[m] = np.searchsorted(rm[t], vc[m]) + 1
        return clean_arrow(
            pd.DataFrame(
                {
                    "event_id": batch["event_id"].to_numpy(),
                    "event_type": et,
                    "value_c": vc,
                    "dense_rank": out,
                }
            )
        )

    return fact.map_batches(attach, batch_format="pandas")


_SQL_DENSE_RANK_EVENTS = """
WITH f AS (
  SELECT event_id, event_type,
         CAST(ROUND(value * 100) AS BIGINT) AS value_c
  FROM events
)
SELECT event_id, event_type, value_c,
       DENSE_RANK() OVER (
         PARTITION BY event_type ORDER BY value_c
       ) AS dense_rank
FROM f
"""



# ---------------------------------------------------------------------------
# RAG chunking: split every document into fixed-window overlapping chunks
# (C=256 chars, stride S=192 -> 64-char overlap) — the retrieval-indexing
# primitive. Fully vectorized 1->N explode (segmented arange over per-doc
# chunk counts; one utf-32 decode per DOC gives vectorized first-char
# gathers); zero exchanges — chunking is embarrassingly row-parallel and
# the chunk id is (doc_id, chunk_idx), no global sequence needed at any
# scale.


def q_chunk_documents(sf_dir: str, size: int = 256, stride: int = 192):
    from ..kernels.segments import segmented_arange

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def explode(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy()
        n = batch.column("n_chars").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        counts = np.maximum((n + stride - 1) // stride, 1)
        idx = segmented_arange(counts)
        doc_rep = np.repeat(np.arange(len(did)), counts)
        start = idx * stride
        chunk_len = np.minimum(size, n[doc_rep] - start)
        chunk_len = np.maximum(chunk_len, 0)  # n == 0 -> one empty chunk
        # one utf-32 decode per DOC, then first chars gather vectorized
        offsets = np.concatenate([[0], np.cumsum(n)])
        flat = np.frombuffer(
            "".join(texts).encode("utf-32-le"), dtype=np.uint32
        )
        pos = offsets[doc_rep] + start
        first = np.where(
            chunk_len > 0,
            pos.astype(np.int64),
            -1,
        )
        if len(flat):  # guard on FLAT: an all-empty-doc batch has chunks
            chars = np.array(  # (one empty chunk each) but zero codepoints
                [chr(c) for c in flat[np.maximum(first, 0)]], dtype=object
            )
            chars = np.where(first >= 0, chars, "")
        else:
            chars = np.full(len(first), "", dtype=object)
        return pa.table(
            {
                "doc_id": pa.array(did[doc_rep]),
                "chunk_idx": pa.array(idx),
                "start": pa.array(start),
                "chunk_len": pa.array(chunk_len),
                "first_char": pa.array(chars.tolist(), pa.string()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


_SQL_CHUNK_DOCUMENTS = """
WITH c AS (
  SELECT doc_id, text, n_chars,
         UNNEST(range(0, GREATEST((n_chars + 191) // 192, 1))) AS chunk_idx
  FROM documents
)
SELECT doc_id, chunk_idx, chunk_idx * 192 AS start,
       GREATEST(LEAST(256, n_chars - chunk_idx * 192), 0) AS chunk_len,
       CASE WHEN n_chars - chunk_idx * 192 > 0
            THEN substr(text, CAST(chunk_idx * 192 + 1 AS BIGINT), 1)
            ELSE '' END AS first_char
FROM c
"""



# ---------------------------------------------------------------------------
# Retrieve-then-rerank: the two-stage retrieval pattern every production
# vector search runs — the compressed index prunes 10^12 vectors to a
# per-query shortlist (bytes ~ codes of the probed buckets), then the
# EXACT metric reranks only the shortlist, whose full vectors are fetched
# with a filter-pushdown scan (row groups outside the candidate id set
# are never read). Driver holds only Q x shortlist rows (bounded by the
# query batch, not the corpus). Rows-only; pytest pins rerank == exact
# integer L2 over the same shortlist and determinism.


def q_ann_rerank(sf_dir: str, topk: int = 10, nprobe: int = 4,
                 shortlist: int = 30):
    import pyarrow.dataset as pads

    from ..stages.ann_index import ivfpq_index_build, ivfpq_search_cached
    from ..stages.knn import quantize

    res = ivfpq_index_build(sf_dir)  # no-op on a complete index
    queries = _ann_query_head(sf_dir)
    short = ivfpq_search_cached(
        res["index_dir"], queries, topk=shortlist, nprobe=nprobe
    ).to_pandas()  # <= Q x shortlist rows
    cand_ids = np.unique(short["ann_id"].to_numpy())
    cand = (
        _read(
            sf_dir, "embeddings", ["vec_id", "embedding"],
            filter=pads.field("vec_id").isin(cand_ids.tolist()),
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    cv = quantize(np.stack(cand["embedding"].to_numpy()))
    cid = cand["vec_id"].to_numpy()
    qv = quantize(queries["vecs"])
    out = []
    for qi, qid in enumerate(queries["qid"]):
        ids = short.loc[short["qid"] == qid, "ann_id"].to_numpy()
        rows = np.searchsorted(cid, ids)
        x = cv[rows]
        d2 = ((x - qv[qi][None, :]) ** 2).sum(axis=1).astype(np.int64)
        order = np.lexsort((ids, d2))[:topk]
        for r, o in enumerate(order):
            out.append((int(qid), int(ids[o]), int(d2[o]), r))
    return pd.DataFrame(
        out, columns=["qid", "ann_id", "exact_d2", "rank"]
    )


def q_mmr_rerank(sf_dir: str, topk: int = 10, nprobe: int = 4,
                 shortlist: int = 30):
    """Maximal-marginal-relevance diverse reranking: the cached-index
    shortlist is greedily re-ordered balancing query relevance against
    redundancy with already-selected items — the diversity stage every
    retrieval-augmented pipeline puts after ANN. Exact integer objective
    (equal-weight MMR over quantized L2): at each step pick the candidate
    maximizing ``-d2(query, c) + min_{s in S} d2(c, s)``, ties by
    ann_id asc; step 0 is pure relevance. Output: every shortlist member
    with its exact_d2 and mmr_rank (0..topk-1 selected, -1 otherwise), so
    the greedy trace is externally checkable (tests/test_ops_wave10.py
    re-derives each step). Driver holds Q x shortlist rows only; the
    distributed work (index probe, shortlist vector fetch) is shared with
    q_ann_rerank."""
    import pyarrow.dataset as pads

    from ..stages.ann_index import ivfpq_index_build, ivfpq_search_cached
    from ..stages.knn import quantize

    res = ivfpq_index_build(sf_dir)  # no-op on a complete index
    queries = _ann_query_head(sf_dir)
    short = ivfpq_search_cached(
        res["index_dir"], queries, topk=shortlist, nprobe=nprobe
    ).to_pandas()  # <= Q x shortlist rows
    cand_ids = np.unique(short["ann_id"].to_numpy())
    cand = (
        _read(
            sf_dir, "embeddings", ["vec_id", "embedding"],
            filter=pads.field("vec_id").isin(cand_ids.tolist()),
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    cv = quantize(np.stack(cand["embedding"].to_numpy()))
    cid = cand["vec_id"].to_numpy()
    qv = quantize(queries["vecs"])
    out = []
    for qi, qid in enumerate(queries["qid"]):
        ids = np.sort(short.loc[short["qid"] == qid, "ann_id"].to_numpy())
        rows = np.searchsorted(cid, ids)
        x = cv[rows]
        d2q = ((x - qv[qi][None, :]) ** 2).sum(axis=1).astype(np.int64)
        # pairwise candidate distances (shortlist x shortlist, tiny)
        dcc = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2).astype(
            np.int64
        )
        n = len(ids)
        rank = np.full(n, -1, dtype=np.int64)
        remaining = np.ones(n, dtype=bool)
        min_d = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        for r in range(min(topk, n)):
            if r == 0:
                score = -d2q  # min_d is the MAX sentinel: pure relevance
            else:
                score = -d2q + min_d
            score = np.where(remaining, score, np.iinfo(np.int64).min)
            best = int(np.flatnonzero(score == score.max())[0])
            rank[best] = r
            remaining[best] = False
            min_d = np.minimum(min_d, dcc[:, best])
        for i in range(n):
            out.append((int(qid), int(ids[i]), int(d2q[i]), int(rank[i])))
    return pd.DataFrame(out, columns=["qid", "ann_id", "exact_d2", "mmr_rank"])



# ---------------------------------------------------------------------------
# STREAMING session windows (oracle-gated): the MERGING window type — a
# late event can bridge two open sessions, so per-key state is a set of
# open intervals (stages/streaming.py::make_session_actor). With lateness
# >= the deterministic max arrival delay no event drops, so the final
# snapshot provably equals BATCH sessionization — the same
# gaps-and-islands SQL gates a genuinely streaming operator (watermarks,
# finalization, interval merging all exercised on the way there; the
# zero-drop assert is load-bearing).


def q_stream_session_windows(sf_dir: str):
    from ..stages.streaming import stream_session_windows

    return stream_session_windows(sf_dir)


_SQL_STREAM_SESSION_WINDOWS = _SQL_SESSIONIZE


# ---------------------------------------------------------------------------
# Model-score calibration bins (reliability diagram): decile-bin a
# deterministic score derived from the embedding's first component
# (power-of-two quantization — trunc(x * 2^20) is exact in float64 and
# matches DuckDB TRUNC, the embed_covariance precedent), count positives
# (label < 5) per bin. One combiner-tree exchange; the classifier-eval
# aggregate every training pipeline runs.


def q_calibration_bins(sf_dir: str):
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.stack(
            batch.column("embedding").to_numpy(zero_copy_only=False)
        )
        sq = np.trunc(v[:, 0].astype(np.float64) * (1 << 20)).astype(np.int64)
        bin_ = np.clip((sq + (1 << 20)) * 10 // (1 << 21), 0, 9)
        lab = batch.column("label").to_numpy().astype(np.int64)
        return pa.table(
            {
                "bin": pa.array(bin_),
                "one": pa.array(np.ones(len(sq), dtype=np.int64)),
                "pos": pa.array((lab < 5).astype(np.int64)),
                "score_q": pa.array(sq),
            }
        )

    return tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["bin"],
        {
            "n": ("one", "sum"),
            "n_pos": ("pos", "sum"),
            "sum_score_q": ("score_q", "sum"),
        },
    )


_SQL_CALIBRATION_BINS = """
WITH f AS (
  SELECT CAST(TRUNC(embedding[1] * 1048576) AS BIGINT) AS sq,
         CASE WHEN label < 5 THEN 1 ELSE 0 END AS pos
  FROM embeddings
)
SELECT LEAST(GREATEST((sq + 1048576) * 10 // 2097152, 0), 9) AS bin,
       COUNT(*) AS n, SUM(pos) AS n_pos, SUM(sq) AS sum_score_q
FROM f GROUP BY 1
"""



# ---------------------------------------------------------------------------
# Hashed tf-idf document similarity (the text sibling of embed_knn): the
# feature-HASHING trick folds the unbounded vocabulary into a fixed
# 256-dim space, so the idf table is 256 rows (per hashed DIMENSION, not
# per word) — bounded at any corpus size, no vocab shuffle at all. One
# tiny df exchange + one streaming scoring pass against the broadcast
# query matrix with block top-k pruning. Rows-only (float cosine);
# pinned == a local numpy recompute and run-to-run determinism.


def _hashed_tf(texts: list, dim: int) -> np.ndarray:
    """(n_docs, dim) float64 hashed term counts — shared by the scoring
    stage and the driver-side query/verification paths. Tokenization is
    the Arrow split kernel (no per-token Python); empty tokens drop out
    through the keep mask."""
    import pyarrow.compute as pc

    out = np.zeros((len(texts), dim), dtype=np.float64)
    if not len(texts):
        return out
    toks = pc.split_pattern(pa.array(texts, pa.string()), " ")
    lens = pc.list_value_length(toks).fill_null(0).to_numpy()
    flat = toks.combine_chunks().flatten() if isinstance(
        toks, pa.ChunkedArray
    ) else toks.flatten()
    s = flat.to_pandas()
    if not len(s):
        return out
    keep = (s != "").to_numpy()
    h = pd.util.hash_pandas_object(
        s, index=False, hash_key="plateau-tfidf-h1"
    ).to_numpy() % dim
    doc = np.repeat(np.arange(len(texts)), lens)
    np.add.at(out, (doc[keep], h[keep].astype(np.int64)), 1.0)
    return out


def q_tfidf_doc_similarity(sf_dir: str, dim: int = 256, topk: int = 3,
                           n_queries: int = 8):
    import ray

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = docs.count()  # scan-rooted: O(1) metadata

    def df_partial(batch: pa.Table) -> pa.Table:
        tf = _hashed_tf(batch.column("text").to_pylist(), dim)
        nz = (tf > 0).sum(axis=0).astype(np.int64)
        return pa.table(
            {"d": pa.array(np.arange(dim, dtype=np.int64)),
             "df": pa.array(nz)}
        )

    df_tbl = tree_group_agg(
        docs.map_batches(df_partial, batch_format="pyarrow"),
        ["d"], {"df": ("df", "sum")},
    ).to_pandas().sort_values("d")  # 256 rows
    idf = np.log(float(n_docs) / np.maximum(df_tbl["df"].to_numpy(), 1))

    qhead = docs.sort("doc_id").limit(n_queries).to_pandas()
    qv = _hashed_tf(list(qhead["text"]), dim) * idf[None, :]
    qn = qv / np.maximum(np.linalg.norm(qv, axis=1), 1e-300)[:, None]
    ref = ray.put((qhead["doc_id"].to_numpy(), qn, idf))

    def block_topk(batch: pd.DataFrame) -> pd.DataFrame:
        from ..stages.treeagg import clean_arrow

        qids_, qn_, idf_ = ray.get(ref)
        did = batch["doc_id"].to_numpy()
        v = _hashed_tf(batch["text"].tolist(), dim) * idf_[None, :]
        vn = v / np.maximum(np.linalg.norm(v, axis=1), 1e-300)[:, None]
        sim = qn_ @ vn.T  # (Q, n)
        sim_e9 = np.floor(sim * 1e9).astype(np.int64)
        t = min(topk, len(did))
        ordv = np.argsort(did, kind="stable")
        did_s, sim_s = did[ordv], sim_e9[:, ordv]
        part = np.argsort(-sim_s, axis=1, kind="stable")[:, :t]
        return clean_arrow(
            pd.DataFrame(
                {
                    "qid": np.repeat(qids_, t),
                    "doc_id": did_s[part].ravel(),
                    "sim_e9": np.take_along_axis(sim_s, part, axis=1).ravel(),
                }
            )
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        """Order-free (full (qid, -sim_e9, doc_id) sort) and idempotent on
        its own output (``rank`` is recomputed): the combiner tree's merge."""
        from ..stages.treeagg import clean_arrow

        df = df.sort_values(
            ["qid", "sim_e9", "doc_id"], ascending=[True, False, True],
            kind="stable",
        )
        out = df.groupby("qid", as_index=False, sort=True).head(topk).copy()
        out["rank"] = out.groupby("qid").cumcount().astype(np.int64)
        return clean_arrow(out.reset_index(drop=True))

    from ..stages.treeagg import tree_custom_agg

    return tree_custom_agg(docs, block_topk, merge)


# ---------------------------------------------------------------------------
# OHLC bars (time-series downsampling): per (event_type, hour) open/high/
# low/close over the value stream — open/close are LEXICOGRAPHIC
# arg-min/arg-max by (ts, event_id), carried through the combiner tree as
# (key-columns, value) triples and re-resolved at every merge by a
# mergesort + groupby first/last (order-free: the minimum of minima is the
# global minimum under a total order). No shuffle of the fact table — one
# combiner exchange of <= |groups| rows per block. Values power-of-two
# quantized (trunc(v * 2^20), exact in float64) so the DuckDB ordered
# aggregate FIRST(vq ORDER BY tu, event_id) is bit-comparable.


def q_ohlc_bars(sf_dir: str):
    from ..stages.treeagg import clean_arrow, tree_custom_agg

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])
    keys = ["event_type", "hour_id"]

    def partial(df: pd.DataFrame) -> pa.Table:
        tu = df["ts"].astype("int64").to_numpy()
        g = pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy(),
                "hour_id": tu // 3_600_000_000,
                "otu": tu,
                "oeid": df["event_id"].to_numpy(),
                "vq": np.trunc(df["value"].to_numpy() * (1 << 20)).astype(
                    np.int64
                ),
            }
        )
        g["ctu"] = g["otu"]
        g["ceid"] = g["oeid"]
        a = g.sort_values(keys + ["otu", "oeid"], kind="mergesort")
        out = a.groupby(keys, as_index=False, sort=False).agg(
            open_q=("vq", "first"),
            otu=("otu", "first"),
            oeid=("oeid", "first"),
            close_q=("vq", "last"),
            ctu=("ctu", "last"),
            ceid=("ceid", "last"),
            high_q=("vq", "max"),
            low_q=("vq", "min"),
            n=("vq", "size"),
        )
        out["n"] = out["n"].astype(np.int64)
        return clean_arrow(out)

    def merge(df: pd.DataFrame) -> pa.Table:
        a = df.sort_values(keys + ["otu", "oeid"], kind="mergesort")
        first = a.groupby(keys, as_index=False, sort=False).agg(
            open_q=("open_q", "first"),
            otu=("otu", "first"),
            oeid=("oeid", "first"),
            high_q=("high_q", "max"),
            low_q=("low_q", "min"),
            n=("n", "sum"),
        )
        b = df.sort_values(keys + ["ctu", "ceid"], kind="mergesort")
        last = b.groupby(keys, as_index=False, sort=False).agg(
            close_q=("close_q", "last"),
            ctu=("ctu", "last"),
            ceid=("ceid", "last"),
        )
        return clean_arrow(first.merge(last, on=keys))

    agg = tree_custom_agg(ds, partial, merge)
    return agg.select_columns(
        ["event_type", "hour_id", "open_q", "high_q", "low_q", "close_q", "n"]
    )


_SQL_OHLC_BARS = """
WITH f AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hour_id,
         epoch_us(ts) AS tu, event_id,
         CAST(TRUNC(value * 1048576) AS BIGINT) AS vq
  FROM events
)
SELECT event_type, hour_id,
       FIRST(vq ORDER BY tu, event_id) AS open_q,
       MAX(vq) AS high_q, MIN(vq) AS low_q,
       LAST(vq ORDER BY tu, event_id) AS close_q,
       COUNT(*) AS n
FROM f GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Event-type co-occurrence (market-basket pairs): for every unordered pair
# of event types, how many users did BOTH. The taxonomy is the bounded
# domain (reference's feature-type registry analogue): types get dense
# codes from a tiny distinct pass, each user folds to ONE int64 bitmask,
# and pair counts are k*(k-1)/2 vectorized mask probes per batch — the
# fact table never shuffles; the only exchanges carry (user, code)
# distinct rows and then (user, mask) rows. A pair-EXPLODE plan would
# ship n_users * k^2 rows; the mask fold ships n_users.


def q_cooccur_event_pairs(sf_dir: str):
    from ..stages.treeagg import clean_arrow, tree_custom_agg

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    types_tbl = tree_group_agg(
        ds, ["event_type"], {"n": ("user_id", "count")}
    ).to_pandas()
    types = sorted(types_tbl["event_type"].tolist())
    if len(types) > 48:
        raise NotImplementedError(
            "bitmask fold assumes a bounded event taxonomy (<=48 types); "
            "wider domains need the pair-explode plan"
        )
    code = {t: i for i, t in enumerate(types)}

    def to_code(batch: pa.Table) -> pa.Table:
        et = pd.Series(batch.column("event_type").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "bit": pa.array(
                    np.left_shift(
                        np.int64(1), et.map(code).to_numpy().astype(np.int64)
                    )
                ),
            }
        )

    coded = ds.map_batches(to_code, batch_format="pyarrow")
    # distinct (user, bit) -> sum of DISTINCT single bits == bitwise OR
    distinct = tree_group_agg(coded, ["user_id", "bit"], {"n": (None, "count")})
    masks = tree_group_agg(distinct, ["user_id"], {"mask": ("bit", "sum")})

    k = len(types)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]

    def pair_counts(df: pd.DataFrame) -> pa.Table:
        m = df["mask"].to_numpy()
        rows = [
            (i, j, int(np.count_nonzero((m >> i) & (m >> j) & 1)))
            for i, j in pairs
        ]
        out = pd.DataFrame(rows, columns=["ca", "cb", "n_users"])
        return clean_arrow(out[out["n_users"] >= 0])

    def merge(df: pd.DataFrame) -> pa.Table:
        return clean_arrow(
            df.groupby(["ca", "cb"], as_index=False).agg(
                n_users=("n_users", "sum")
            )
        )

    counts = tree_custom_agg(masks, pair_counts, merge).to_pandas()
    counts = counts[counts["n_users"] > 0]
    inv = np.array(types, dtype=object)
    return pa.table(
        {
            "type_a": pa.array(inv[counts["ca"].to_numpy()].tolist(), pa.string()),
            "type_b": pa.array(inv[counts["cb"].to_numpy()].tolist(), pa.string()),
            "n_users": pa.array(counts["n_users"].to_numpy().astype(np.int64)),
        }
    )


_SQL_COOCCUR_EVENT_PAIRS = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       COUNT(*) AS n_users
FROM ut a JOIN ut b USING (user_id)
WHERE a.event_type < b.event_type
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# UNPIVOT / melt (wide -> long schema transform): aggregate lineitem per
# returnflag, then melt the metric columns into (metric, val) rows — a
# vectorized 1->K explode on the already-tiny aggregate (pd.melt), zero
# extra exchanges. The inverse of pivot_events.


def q_unpivot_metrics(sf_dir: str):
    from ..stages.treeagg import clean_arrow

    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "qty": pa.array(
                    np.round(batch.column("l_quantity").to_numpy()).astype(
                        np.int64
                    )
                ),
                "price_c": pa.array(
                    np.round(
                        batch.column("l_extendedprice").to_numpy() * 100
                    ).astype(np.int64)
                ),
                "one": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64)
                ),
            }
        )

    agg = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag"],
        {
            "qty": ("qty", "sum"),
            "price_c": ("price_c", "sum"),
            "n": ("one", "sum"),
        },
    )

    def melt(df: pd.DataFrame) -> pa.Table:
        out = df.melt(
            id_vars=["l_returnflag"],
            value_vars=["qty", "price_c", "n"],
            var_name="metric",
            value_name="val",
        )
        return clean_arrow(out)

    return agg.map_batches(melt, batch_format="pandas", batch_size=None)


_SQL_UNPIVOT_METRICS = """
WITH a AS (
  SELECT l_returnflag,
         SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS qty,
         SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS price_c,
         COUNT(*) AS n
  FROM lineitem GROUP BY 1
)
SELECT l_returnflag, metric, val
FROM a UNPIVOT (val FOR metric IN (qty, price_c, n))
"""


# ---------------------------------------------------------------------------
# Equi-width histogram with DATA-DEPENDENT edges: pass 1 finds the global
# quantized min/max (one-row combiner tree), pass 2 bins with pure int64
# arithmetic — (vq - lo) * nbins // span is exact and identical in numpy
# and DuckDB (non-negative operands, floor division). The single-column
# quantized projection is materialized ONCE and feeds both passes, so the
# parquet scan doesn't run twice.


def q_value_histogram(sf_dir: str, nbins: int = 20):
    ds = _read(sf_dir, "events", ["value"])

    def quant(batch: pa.Table) -> pa.Table:
        vq = np.trunc(batch.column("value").to_numpy() * (1 << 20)).astype(
            np.int64
        )
        return pa.table({"vq": pa.array(vq), "k": pa.array(np.zeros(len(vq), dtype=np.int64))})

    dsq = ds.map_batches(quant, batch_format="pyarrow").materialize()
    mm = tree_group_agg(
        dsq, ["k"], {"lo": ("vq", "min"), "hi": ("vq", "max")}
    ).to_pandas()
    lo = int(mm["lo"].iloc[0])
    span = int(mm["hi"].iloc[0]) - lo + 1

    def binit(batch: pa.Table) -> pa.Table:
        vq = batch.column("vq").to_numpy()
        return pa.table(
            {
                "bin": pa.array((vq - lo) * nbins // span),
                "one": pa.array(np.ones(len(vq), dtype=np.int64)),
                "vq": batch.column("vq"),
            }
        )

    return tree_group_agg(
        dsq.map_batches(binit, batch_format="pyarrow"),
        ["bin"],
        {"n": ("one", "sum"), "sum_vq": ("vq", "sum")},
    )


_SQL_VALUE_HISTOGRAM = """
WITH f AS (
  SELECT CAST(TRUNC(value * 1048576) AS BIGINT) AS vq FROM events
), m AS (
  SELECT MIN(vq) AS lo, MAX(vq) - MIN(vq) + 1 AS span FROM f
)
SELECT (vq - lo) * 20 // span AS bin, COUNT(*) AS n, SUM(vq) AS sum_vq
FROM f CROSS JOIN m GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Exponentially-decayed recency score (feature engineering): per user, the
# 16 most-recent events by (ts, event_id) weighted 2^15, 2^14, ... — a
# BOUNDED top-k combiner (every partial holds <= 16 rows per user seen in
# it, so partial size is O(users-in-block * 16) regardless of fact size),
# then one exchange and an exact integer weighted sum. The power-of-two
# weights keep the score an exact int64 so the SQL window twin
# hash-matches bit-for-bit.


def q_decayed_user_score(sf_dir: str, k: int = 16):
    from ..stages.treeagg import clean_arrow, tree_custom_agg

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(
            ["user_id", "tu", "eid"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        return g.groupby("user_id", sort=False).head(k).reset_index(drop=True)

    def partial(df: pd.DataFrame) -> pa.Table:
        g = pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(),
                "tu": df["ts"].astype("int64").to_numpy(),
                "eid": df["event_id"].to_numpy(),
                "vq": np.trunc(df["value"].to_numpy() * (1 << 20)).astype(
                    np.int64
                ),
            }
        )
        return clean_arrow(topk(g))

    def merge(df: pd.DataFrame) -> pa.Table:
        return clean_arrow(topk(df))

    agg = tree_custom_agg(ds, partial, merge)

    def score(df: pd.DataFrame) -> pa.Table:
        g = df.sort_values(
            ["user_id", "tu", "eid"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        rn = g.groupby("user_id", sort=False).cumcount().to_numpy() + 1
        g["w"] = g["vq"].to_numpy() * np.left_shift(np.int64(1), k - rn)
        out = g.groupby("user_id", as_index=False, sort=False).agg(
            decay_q=("w", "sum"), n_recent=("w", "size")
        )
        out["n_recent"] = out["n_recent"].astype(np.int64)
        return clean_arrow(out)

    return agg.map_batches(score, batch_format="pandas", batch_size=None)


_SQL_DECAYED_USER_SCORE = """
WITH r AS (
  SELECT user_id, CAST(TRUNC(value * 1048576) AS BIGINT) AS vq,
         ROW_NUMBER() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id DESC
         ) AS rn
  FROM events
)
SELECT user_id, SUM(vq * (1::BIGINT << (16 - rn))) AS decay_q,
       COUNT(*) AS n_recent
FROM r WHERE rn <= 16 GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Mergeable quantile sketch (per-group p50/p90/p99): a fixed-grid
# histogram sketch — 4096 equi-width buckets between the global quantized
# min/max, counts merged by the standard combiner tree (order-free, unlike
# t-digest whose centroids depend on merge order — determinism is a repo
# contract). The reported quantile is the LOWER EDGE of the bucket holding
# the target rank, so the absolute error is bounded by span/4096; the
# pytest twin pins that bound against exact per-group quantiles. Rows-only
# (approximate by construction — the exact siblings are grouped_quantiles
# / quantiles_cont).


def q_sketch_quantiles(sf_dir: str, nbins: int = 4096):
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def quant(batch: pa.Table) -> pa.Table:
        vq = np.trunc(batch.column("value").to_numpy() * (1 << 20)).astype(
            np.int64
        )
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "vq": pa.array(vq),
                "k": pa.array(np.zeros(len(vq), dtype=np.int64)),
            }
        )

    dsq = ds.map_batches(quant, batch_format="pyarrow").materialize()
    mm = tree_group_agg(
        dsq, ["k"], {"lo": ("vq", "min"), "hi": ("vq", "max")}
    ).to_pandas()
    lo = int(mm["lo"].iloc[0])
    span = int(mm["hi"].iloc[0]) - lo + 1

    def binit(batch: pa.Table) -> pa.Table:
        vq = batch.column("vq").to_numpy()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "bin": pa.array((vq - lo) * nbins // span),
                "one": pa.array(np.ones(len(vq), dtype=np.int64)),
            }
        )

    hist = tree_group_agg(
        dsq.map_batches(binit, batch_format="pyarrow"),
        ["event_type", "bin"],
        {"n": ("one", "sum")},
    ).to_pandas()

    # <= n_types * 4096 rows: quantile resolve is a driver-side finisher
    out = []
    for et, g in hist.sort_values(["event_type", "bin"]).groupby(
        "event_type", sort=True
    ):
        bins = g["bin"].to_numpy()
        cum = np.cumsum(g["n"].to_numpy())
        total = int(cum[-1])
        row = {"event_type": et, "n": total}
        for name, q in (("p50_q", 0.50), ("p90_q", 0.90), ("p99_q", 0.99)):
            rank = int(np.ceil(q * total))
            b = bins[np.searchsorted(cum, rank)]
            row[name] = lo + int(b) * span // nbins
        out.append(row)
    return pd.DataFrame(out, columns=["event_type", "n", "p50_q", "p90_q", "p99_q"])


# ---------------------------------------------------------------------------
# Convex hull per group (geometric combiner): points are the deterministic
# integer LATTICE geocode of event ids (geocode_arith numerators — exact
# int64 cross products, no float orientation hazard). The combiner is the
# per-x extreme-point reduction — a hull vertex must be its column's min
# or max y, so each block collapses to <= 2 rows per distinct x per group
# BEFORE the exchange — then one merge re-reduces and a vectorized
# quickhull (recursion count = hull vertex count, each level one numpy
# cross-product sweep) resolves the final polygon. Pinned against an
# O(n log n) monotone-chain brute force in pytest.


def _quickhull_int(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of convex-hull vertices (CCW order), exact int64 math."""
    n = len(x)
    if n <= 2:
        return np.arange(n)
    order = np.lexsort((y, x))
    lo_i, hi_i = order[0], order[-1]

    def side(a_i, b_i, idx):
        ax, ay, bx, by = x[a_i], y[a_i], x[b_i], y[b_i]
        return (bx - ax) * (y[idx] - ay) - (by - ay) * (x[idx] - ax)

    def rec(a_i, b_i, idx):
        if len(idx) == 0:
            return [a_i]
        d = side(a_i, b_i, idx)
        keep = idx[d > 0]
        if len(keep) == 0:
            return [a_i]
        # deterministic far-point choice: break distance ties on (x, y) so
        # collinear extreme candidates resolve identically whatever block
        # order the tree merge delivered
        dk = side(a_i, b_i, keep)
        far = keep[np.lexsort((y[keep], x[keep], dk))[-1]]
        return rec(a_i, far, keep) + rec(far, b_i, keep)

    idx = np.arange(n)
    upper = idx[side(lo_i, hi_i, idx) > 0]
    lower = idx[side(hi_i, lo_i, idx) > 0]
    hull = rec(lo_i, hi_i, upper) + rec(hi_i, lo_i, lower)
    return np.array(hull, dtype=np.int64)


def q_convex_hull_types(sf_dir: str):
    from ..stages.treeagg import clean_arrow, tree_custom_agg

    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def reduce_extremes(df: pd.DataFrame) -> pa.Table:
        if "xi" not in df.columns:
            ids = df["event_id"].to_numpy().astype(np.int64)
            df = pd.DataFrame(
                {
                    "event_type": df["event_type"].to_numpy(),
                    "xi": (ids * 9973) % 240000,
                    "yi": (ids * 7919) % 220000,
                }
            )
        g = df.groupby(["event_type", "xi"], as_index=False).agg(
            y_min=("yi", "min"), y_max=("yi", "max")
        )
        out = pd.concat(
            [
                g[["event_type", "xi", "y_min"]].rename(columns={"y_min": "yi"}),
                g[["event_type", "xi", "y_max"]].rename(columns={"y_max": "yi"}),
            ]
        ).drop_duplicates()
        return clean_arrow(out.reset_index(drop=True))

    cands = tree_custom_agg(ds, reduce_extremes, reduce_extremes)

    def resolve(df: pd.DataFrame) -> pa.Table:
        rows = []
        df = df.drop_duplicates().sort_values(
            ["event_type", "xi", "yi"], kind="mergesort"
        )
        for et, g in df.groupby("event_type", sort=True):
            x = g["xi"].to_numpy()
            y = g["yi"].to_numpy()
            hull = _quickhull_int(x, y)
            for r, hidx in enumerate(hull):
                rows.append((et, r, int(x[hidx]), int(y[hidx])))
        out = pd.DataFrame(rows, columns=["event_type", "vertex_no", "xi", "yi"])
        return clean_arrow(out)

    return cands.map_batches(resolve, batch_format="pandas", batch_size=None)


# ---------------------------------------------------------------------------
# TPC-H Q11 shape: group sum vs a scaled GLOBAL total — "important parts"
# hold more than 2x the average part's share of total lineitem value. The
# per-part aggregate is one combiner-tree exchange; the global total and
# part count come from a second combiner pass over the (bounded-by-#parts)
# aggregate, reduced to a 2-int driver scalar; the filter compares exactly
# as 10 * part_sum * n_parts > 11 * total (strictly above 1.1x the average
# share — no division, no fraction constant to re-tune per scale factor:
# the threshold is self-normalizing in sf).


def q_important_parts(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        value_c = np.round(
            batch.column("l_extendedprice").to_numpy() * 100
        ).astype(np.int64)
        return pa.table(
            {"p_partkey": batch.column("l_partkey"), "value_c": pa.array(value_c)}
        )

    # materialized: the scalar pass and the filter both consume the agg
    agg = tree_group_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        ["p_partkey"], {"value_c": ("value_c", "sum")},
    ).materialize()
    tot = agg.map_batches(
        lambda b: pa.table(
            {
                "s": pa.array([int(b.column("value_c").to_numpy().sum())]),
                "n": pa.array([b.num_rows]),
            }
        ),
        batch_format="pyarrow",
    ).to_pandas()
    total_c, n_parts = int(tot["s"].sum()), int(tot["n"].sum())

    def above(batch: pa.Table, t=total_c, n=n_parts) -> pa.Table:
        v = batch.column("value_c").to_numpy()
        return batch.filter(pa.array(10 * v * n > 11 * t))

    return agg.map_batches(above, batch_format="pyarrow")


_SQL_IMPORTANT_PARTS = """
WITH v AS (
  SELECT l_partkey AS p_partkey,
         SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS value_c
  FROM lineitem GROUP BY 1
), t AS (SELECT SUM(value_c) AS s, COUNT(*) AS n FROM v)
SELECT v.p_partkey, v.value_c FROM v, t WHERE 10 * v.value_c * t.n > 11 * t.s
"""


# ---------------------------------------------------------------------------
# TPC-H Q15 shape: argmax join-back — the supplier(s) with the maximum
# total revenue. Revenue is integer-exact (cents x (1 - discount) scaled
# to 1e4, the volume_shipping idiom); the per-supplier aggregate is one
# combiner exchange, the global max a driver scalar over the
# bounded-by-#suppliers aggregate, ties all kept (deterministic), and the
# name attach is a broadcast of the tiny supplier dim.


def q_top_supplier(sf_dir: str):
    li = _read(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        ep = batch.column("l_extendedprice").to_numpy()
        d = batch.column("l_discount").to_numpy()
        rev = np.round(ep * (1 - d) * 10000).astype(np.int64)
        return pa.table(
            {"s_suppkey": batch.column("l_suppkey"), "rev_s": pa.array(rev)}
        )

    agg = tree_group_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        ["s_suppkey"], {"total_rev_s": ("rev_s", "sum")},
    ).materialize()
    mx = agg.map_batches(
        lambda b: pa.table(
            {"m": pa.array([int(b.column("total_rev_s").to_numpy().max())])}
        ),
        batch_format="pyarrow",
    ).to_pandas()
    best = int(mx["m"].max())

    top = agg.map_batches(
        lambda b, m=best: b.filter(
            pa.array(b.column("total_rev_s").to_numpy() == m)
        ),
        batch_format="pyarrow",
    )
    from ..stages.joins import _scan_rooted_size, auto_join

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return auto_join(
        top, sup, on=("s_suppkey",), how="inner",
        num_partitions=JOIN_PARTS, right_size_hint=_scan_rooted_size(sup),
    )


_SQL_TOP_SUPPLIER = """
WITH r AS (
  SELECT l_suppkey AS s_suppkey,
         SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT))
           AS total_rev_s
  FROM lineitem GROUP BY 1
)
SELECT r.s_suppkey, r.total_rev_s, s.s_name
FROM r JOIN supplier s USING (s_suppkey)
WHERE r.total_rev_s = (SELECT MAX(total_rev_s) FROM r)
"""


# ---------------------------------------------------------------------------
# TPC-H Q16 shape: COUNT(DISTINCT supplier) per part class with a NOT-IN
# blacklist — suppliers with negative balance are excluded ("complaints"
# analogue). The blacklist is a tiny broadcast set; the distinct
# (partkey, suppkey) pass is one combiner exchange over 16-byte rows; the
# part dims attach via the planner (broadcast at bench scale); the final
# distinct-count is a second combiner pass keyed by the bounded class
# tuple. Image bytes-class shuffles: none — everything that moves is keys.


def q_parts_supplier_counts(sf_dir: str):
    import ray

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"]).to_pandas()
    bad = np.sort(
        sup.loc[sup["s_acctbal"] < 0, "s_suppkey"].to_numpy().astype(np.int64)
    )

    # the part DIM broadcasts as a dense partkey -> class-ordinal lookup
    # array (8 B/part; partkeys are dense 0..n-1 — the codelist-cache
    # contract). The class table (|brand| x |type| x |size| <= 7500 rows)
    # stays on the driver and re-attaches after the count. A part dim too
    # big to broadcast flips this to the auto_join plan (joins.py gate).
    part = _read(
        sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"]
    ).to_pandas()
    cls, class_id = np.unique(
        part[["p_brand", "p_type", "p_size"]].astype(str).agg("|".join, axis=1),
        return_inverse=True,
    )
    lut = np.full(int(part["p_partkey"].max()) + 1, -1, dtype=np.int64)
    lut[part["p_partkey"].to_numpy()] = class_id
    lut_ref = ray.put(lut)
    class_rows = (
        part.assign(class_id=class_id)
        .drop_duplicates("class_id")
        .sort_values("class_id")
    )

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def prep(batch: pa.Table, bad=bad) -> pa.Table:
        sk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        if len(bad):
            pos = np.searchsorted(bad, sk)
            ok = (pos >= len(bad)) | (bad[np.minimum(pos, len(bad) - 1)] != sk)
        else:
            ok = np.ones(len(sk), dtype=bool)
        pk = batch.column("l_partkey").to_numpy()[ok]
        return pa.table(
            {
                "class_id": pa.array(ray.get(lut_ref)[pk]),
                "l_suppkey": pa.array(sk[ok]),
            }
        )

    distinct = tree_group_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        ["class_id", "l_suppkey"], {"n": (None, "count")},
    )
    counts = tree_group_agg(
        distinct, ["class_id"], {"supplier_cnt": (None, "count")}
    )

    cb = class_rows["p_brand"].to_numpy()
    ct = class_rows["p_type"].to_numpy()
    cs = class_rows["p_size"].to_numpy().astype(np.int64)

    def attach(batch: pa.Table) -> pa.Table:
        ci = batch.column("class_id").to_numpy()
        return pa.table(
            {
                "p_brand": pa.array(cb[ci]),
                "p_type": pa.array(ct[ci]),
                "p_size": pa.array(cs[ci]),
                "supplier_cnt": batch.column("supplier_cnt"),
            }
        )

    return counts.map_batches(attach, batch_format="pyarrow")


_SQL_PARTS_SUPPLIER_COUNTS = """
SELECT p_brand, p_type, p_size,
       COUNT(DISTINCT l_suppkey) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# TPC-H Q8 shape: market share per order year — the fraction of revenue
# supplied by one nation, emitted as EXACT integer (numerator, denominator)
# columns so the oracle compare never divides. The supplier->nation map is
# a broadcast dict (tiny dim); lineitem joins orders for the year through
# the planner-routed hash join (the one genuine fact-fact exchange); the
# final reduce is a 7-key combiner tree.


def q_market_share(sf_dir: str, target_nation: int = 3):
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    s_nation = dict(
        zip(supp["s_suppkey"].astype(np.int64), supp["s_nationkey"].astype(np.int64))
    )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    )

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        ep = batch["l_extendedprice"].to_numpy()
        d = batch["l_discount"].to_numpy()
        rev = np.round(ep * (1 - d) * 10000).astype(np.int64)
        nk = batch["l_suppkey"].map(s_nation).to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "l_orderkey": batch["l_orderkey"].to_numpy(),
                "rev_s": rev,
                "tgt_rev_s": np.where(nk == target_nation, rev, 0),
            }
        )

    from ..stages.joins import auto_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    j = auto_join(
        li.map_batches(prep, batch_format="pandas"), orders,
        on=("l_orderkey",), right_on=("o_orderkey",),
        num_partitions=JOIN_PARTS,
    )

    def add_year(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        yr = pc.year(batch.column("o_orderdate")).cast(pa.int64())
        return pa.table(
            {
                "o_year": yr,
                "tgt_rev_s": batch.column("tgt_rev_s"),
                "rev_s": batch.column("rev_s"),
            }
        )

    return tree_group_agg(
        j.map_batches(add_year, batch_format="pyarrow"),
        ["o_year"],
        {"target_rev_s": ("tgt_rev_s", "sum"), "total_rev_s": ("rev_s", "sum")},
    )


_SQL_MARKET_SHARE = """
SELECT CAST(date_part('year', o_orderdate) AS BIGINT) AS o_year,
       SUM(CASE WHEN s_nationkey = 3
           THEN CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)
           ELSE 0 END) AS target_rev_s,
       SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT))
         AS total_rev_s
FROM lineitem
JOIN supplier ON s_suppkey = l_suppkey
JOIN orders ON o_orderkey = l_orderkey
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Grouped Pearson correlation from EXACT integer sums: per l_returnflag,
# corr(quantity, price-in-dollars). The six sufficient statistics are
# int64-exact through the combiner tree (dollars via integer floor-division
# of the cent scale — no float rounding ties); the corr column is computed
# from them with the IDENTICAL double expression on both sides (each
# IEEE op correctly rounded on exactly-converted ints => bit-equal).


def q_grouped_corr(sf_dir: str):
    li = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        q = np.round(batch.column("l_quantity").to_numpy()).astype(np.int64)
        p = (
            np.round(batch.column("l_extendedprice").to_numpy() * 100).astype(
                np.int64
            )
            // 100
        )
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "x": pa.array(q),
                "y": pa.array(p),
                "xx": pa.array(q * q),
                "yy": pa.array(p * p),
                "xy": pa.array(q * p),
            }
        )

    agg = tree_group_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag"],
        {
            "n": (None, "count"),
            "sx": ("x", "sum"),
            "sy": ("y", "sum"),
            "sxx": ("xx", "sum"),
            "syy": ("yy", "sum"),
            "sxy": ("xy", "sum"),
        },
    )

    def corr(batch: pa.Table) -> pa.Table:
        f = {
            c: batch.column(c).to_numpy().astype(np.float64)
            for c in ("n", "sx", "sy", "sxx", "syy", "sxy")
        }
        num = f["n"] * f["sxy"] - f["sx"] * f["sy"]
        den = np.sqrt(f["n"] * f["sxx"] - f["sx"] * f["sx"]) * np.sqrt(
            f["n"] * f["syy"] - f["sy"] * f["sy"]
        )
        return batch.append_column("corr_qp", pa.array(num / den))

    return agg.map_batches(corr, batch_format="pyarrow")


_SQL_GROUPED_CORR = """
WITH b AS (
  SELECT l_returnflag,
         CAST(ROUND(l_quantity) AS BIGINT) AS x,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) // 100 AS y
  FROM lineitem
), s AS (
  SELECT l_returnflag, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
         SUM(x * x) AS sxx, SUM(y * y) AS syy, SUM(x * y) AS sxy
  FROM b GROUP BY 1
)
SELECT l_returnflag, n, sx, sy, sxx, syy, sxy,
       (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
          - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
       / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                 - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
          * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                 - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))) AS corr_qp
FROM s
"""


# ---------------------------------------------------------------------------
# Token PMI: pointwise mutual information between co-occurring vocabulary
# terms (the classic collocation / phrase-mining signal). The vocabulary is
# the global top-32 terms by document frequency (deterministic (df desc,
# term asc) tie-break; per-block top-k prune is EXACT because the df
# aggregate co-locates each term in one block). Per-doc presence over a
# 32-term vocab is a single int64 BITMASK (sum of distinct bit values ==
# OR), so pair counting is one 32x32 Gram matmul per batch and the pair
# exchange carries <= 496 rows per block — document text never moves after
# tokenize. PMI is floor(1e6 * ln(...)) with the expression mirrored in
# the oracle (the source_kl idiom).


def q_token_pmi(sf_dir: str, k: int = 32):
    tok = _doc_tf(sf_dir).materialize()  # distinct (doc_id, term) rows
    df = tree_group_agg(tok, ["term"], {"df": (None, "count")})

    def block_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["df", "term"], ascending=[False, True], kind="mergesort")
        return g.head(k)[["term", "df"]]

    cand = df.map_batches(
        block_topk, batch_format="pandas", batch_size=None
    ).to_pandas()
    cand = cand.sort_values(["df", "term"], ascending=[False, True],
                            kind="mergesort").head(k).reset_index(drop=True)
    rank = {t: i for i, t in enumerate(cand["term"])}
    dfs = cand["df"].to_numpy().astype(np.int64)
    terms = cand["term"].tolist()
    # O(1) from parquet footer metadata — no dataset execution
    import os as _os

    import pyarrow.parquet as _pq

    n_docs = int(
        _pq.read_metadata(_os.path.join(sf_dir, "documents.parquet")).num_rows
    )

    def to_bits(batch: pd.DataFrame) -> pd.DataFrame:
        r = batch["term"].map(rank)
        keep = r.notna()
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy()[keep.to_numpy()],
                "bit": (
                    np.int64(1) << r.to_numpy()[keep.to_numpy()].astype(np.int64)
                ),
            }
        )

    masks = tree_group_agg(
        tok.map_batches(to_bits, batch_format="pandas"),
        ["doc_id"], {"mask": ("bit", "sum")},
    )

    def pair_counts(batch: pa.Table, nb=k) -> pa.Table:
        m = batch.column("mask").to_numpy()
        bits = ((m[:, None] >> np.arange(nb, dtype=np.int64)) & 1).astype(
            np.int64
        )
        c = bits.T @ bits  # (k, k) co-presence counts for this block
        iu, ju = np.triu_indices(nb, 1)
        cv = c[iu, ju]
        nz = cv > 0
        return pa.table(
            {
                "ia": pa.array(iu[nz].astype(np.int64)),
                "ib": pa.array(ju[nz].astype(np.int64)),
                "c_ab": pa.array(cv[nz]),
            }
        )

    pairs = tree_group_agg(
        masks.map_batches(pair_counts, batch_format="pyarrow"),
        ["ia", "ib"], {"c_ab": ("c_ab", "sum")},
    )

    def finish(batch: pa.Table) -> pa.Table:
        ia = batch.column("ia").to_numpy()
        ib = batch.column("ib").to_numpy()
        # pairs travel in RANK order (ia < ib); the output contract is
        # lexicographic (term_a < term_b) — swap where they disagree
        ta = np.array([terms[i] for i in ia], dtype=object)
        tb = np.array([terms[i] for i in ib], dtype=object)
        swap = ta > tb
        ia, ib = np.where(swap, ib, ia), np.where(swap, ia, ib)
        c = batch.column("c_ab").to_numpy().astype(np.float64)
        dfa = dfs[ia].astype(np.float64)
        dfb = dfs[ib].astype(np.float64)
        # EXPRESSION MIRRORED IN THE ORACLE — do not reorder
        pmi = np.floor(
            1e6 * np.log((c * np.float64(n_docs)) / (dfa * dfb))
        ).astype(np.int64)
        return pa.table(
            {
                "term_a": pa.array([terms[i] for i in ia]),
                "term_b": pa.array([terms[i] for i in ib]),
                "c_ab": batch.column("c_ab"),
                "df_a": pa.array(dfs[ia]),
                "df_b": pa.array(dfs[ib]),
                "pmi_e6": pa.array(pmi),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


_SQL_TOKEN_PMI = """
WITH tok AS (
  SELECT DISTINCT doc_id,
         unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
  FROM documents
), df AS (
  SELECT term, COUNT(*) AS df FROM tok GROUP BY 1
), v AS (
  SELECT term, df FROM df ORDER BY df DESC, term ASC LIMIT 32
), n AS (
  SELECT COUNT(*) AS n_docs FROM documents
), p AS (
  SELECT a.term AS term_a, b.term AS term_b, COUNT(*) AS c_ab
  FROM tok a
  JOIN tok b ON a.doc_id = b.doc_id AND a.term < b.term
  WHERE a.term IN (SELECT term FROM v) AND b.term IN (SELECT term FROM v)
  GROUP BY 1, 2
)
SELECT p.term_a, p.term_b, p.c_ab, va.df AS df_a, vb.df AS df_b,
       CAST(FLOOR(1e6 * LN((CAST(p.c_ab AS DOUBLE) * CAST(n.n_docs AS DOUBLE))
              / (CAST(va.df AS DOUBLE) * CAST(vb.df AS DOUBLE)))) AS BIGINT)
         AS pmi_e6
FROM p
JOIN v va ON va.term = p.term_a
JOIN v vb ON vb.term = p.term_b
CROSS JOIN n
"""


# ---------------------------------------------------------------------------
# TPC-H Q4 shape: EXISTS semi-join + aggregate — orders with at least one
# returned line item, counted per order priority. The probe side reduces
# to DISTINCT order keys through the combiner tree (16-byte rows) before
# the planner-routed left_semi join; the final reduce is a 5-key combiner.


def q_priority_semijoin_counts(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def returned(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.equal(batch.column("l_returnflag"), "R")
        ).select(["l_orderkey"])

    # materialized: the distinct key set is ~8 bytes/qualifying order, so
    # the planner sees its MEASURED size and broadcasts at bench scale
    # (hash join above the limit — the corpus_dedup idiom)
    keys = tree_group_agg(
        li.map_batches(returned, batch_format="pyarrow"),
        ["l_orderkey"], {"n": (None, "count")},
    ).drop_columns(["n"]).materialize()
    from ..stages.joins import auto_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    semi = auto_join(
        orders, keys,
        on=("o_orderkey",), right_on=("l_orderkey",),
        how="left_semi", num_partitions=JOIN_PARTS,
        right_size_hint=keys.size_bytes(),
    )
    return tree_group_agg(
        semi, ["o_orderpriority"], {"order_count": (None, "count")}
    )


_SQL_PRIORITY_SEMIJOIN_COUNTS = """
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Mutual kNN pairs: (a, b) where each is in the other's exact top-k by
# quantized squared L2 (ties on vec_id) — the mutual-neighbor criterion
# used for dedup-safe pairing and graph building. The quantized matrix is
# a broadcast (the embed_knn brute contract; ivf_self_knn is the
# corpus-scale path) and each block computes its rows' top-k with one
# int64 matmul; mutuality is ONE combiner exchange on canonical edge keys
# (count == 2 <=> both directions emitted).


def q_mutual_knn_pairs(sf_dir: str, k: int = 5):
    import ray

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    emb = ds.to_pandas()
    ids_all = emb["vec_id"].to_numpy().astype(np.int64)
    order = np.argsort(ids_all, kind="mergesort")
    ids_all = ids_all[order]
    Q = np.round(
        np.stack(emb["embedding"].to_numpy()[order]).astype(np.float64) * 100
    ).astype(np.int64)
    ref = ray.put((ids_all, Q, (Q * Q).sum(axis=1)))

    def knn_edges(batch: pd.DataFrame, k=k) -> pd.DataFrame:
        ids_r, Qr, nr = ray.get(ref)
        x = np.round(
            np.stack(batch["embedding"].to_numpy()).astype(np.float64) * 100
        ).astype(np.int64)
        sid = batch["vec_id"].to_numpy().astype(np.int64)
        d2 = (x * x).sum(axis=1)[:, None] + nr[None, :] - 2 * (x @ Qr.T)
        # exclude self by id (robust to duplicate vectors)
        d2[sid[:, None] == ids_r[None, :]] = np.iinfo(np.int64).max
        # exact top-k with (dist2, vec_id) tie-break: lexsort columns
        ordk = np.lexsort((np.broadcast_to(ids_r, d2.shape), d2), axis=1)[:, :k]
        src = np.repeat(sid, k)
        dst = ids_r[ordk].ravel()
        dd = np.take_along_axis(d2, ordk, axis=1).ravel()
        return pd.DataFrame({"src": src, "dst": dst, "d2": dd})

    edges = ds.map_batches(knn_edges, batch_format="pandas")

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy()
        d = batch.column("dst").to_numpy()
        return pa.table(
            {
                "vec_a": pa.array(np.minimum(s, d)),
                "vec_b": pa.array(np.maximum(s, d)),
                "d2": batch.column("d2"),
            }
        )

    agg = tree_group_agg(
        edges.map_batches(canon, batch_format="pyarrow"),
        ["vec_a", "vec_b"], {"n_dir": (None, "count"), "dist2_q": ("d2", "min")},
    )

    def mutual(batch: pa.Table) -> pa.Table:
        keep = batch.column("n_dir").to_numpy() == 2
        return batch.filter(pa.array(keep)).drop_columns(["n_dir"])

    return agg.map_batches(mutual, batch_format="pyarrow")


_SQL_MUTUAL_KNN_PAIRS = """
WITH e AS (
  SELECT vec_id, i, CAST(ROUND(embedding[i] * 100) AS BIGINT) AS v
  FROM embeddings, (SELECT UNNEST(RANGE(1, 65)) AS i)
), d AS (
  SELECT a.vec_id AS src, b.vec_id AS dst,
         SUM((a.v - b.v) * (a.v - b.v)) AS d2
  FROM e a JOIN e b ON a.i = b.i AND a.vec_id <> b.vec_id
  GROUP BY 1, 2
), r AS (
  SELECT src, dst, d2,
         ROW_NUMBER() OVER (PARTITION BY src ORDER BY d2, dst) AS rn
  FROM d
), knn AS (
  SELECT src, dst, d2 FROM r WHERE rn <= 5
)
SELECT a.src AS vec_a, a.dst AS vec_b, CAST(a.d2 AS BIGINT) AS dist2_q
FROM knn a JOIN knn b ON a.src = b.dst AND a.dst = b.src
WHERE a.src < a.dst
"""


# ---------------------------------------------------------------------------
# Weighted median per group: the quantity-weighted median price per return
# flag. The distinct (flag, price_c) weight table is domain-bounded (the
# dense_rank_events contract: discrete money domain), built by ONE
# combiner exchange; the median itself is a per-group cumsum scan over the
# sorted weight table — smallest price with 2 * cumweight >= total
# (integer-exact, no interpolation).


def q_weighted_median(sf_dir: str):
    """Per-group weighted median as a two-pass bounded-bucket plan.

    The r3 plan (exact groupby on (flag, price_c) then a per-group sort)
    paid a row-count-sized exchange whose combiner never reduced — 594k
    of 600k keys were unique at sf0.1. Here pass 1 reduces facts to a
    (flag, price_c >> 12) weight histogram: the exchange is bounded by
    the price DOMAIN (~2.6k buckets x |flags|), never the row count.
    The driver locates each flag's median bucket and the cumulative
    weight below it. Pass 2 re-scans the materialized projection and
    aggregates (flag, price_c, w) ONLY inside each flag's median bucket
    (<= 4096 distinct cent values per flag), and the exact median is
    read off with the carried offset. Integer arithmetic end to end —
    bit-identical to the one-pass SQL twin.
    """
    li = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"]
    )
    shift = 12

    def prep(batch: pa.Table) -> pa.Table:
        p = np.round(
            batch.column("l_extendedprice").to_numpy() * 100
        ).astype(np.int64)
        q = np.round(batch.column("l_quantity").to_numpy()).astype(np.int64)
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "price_c": pa.array(p),
                "w": pa.array(q),
            }
        )

    ds = li.map_batches(prep, batch_format="pyarrow").materialize()

    def bucket_partial(batch: pa.Table) -> pa.Table:
        b = batch.column("price_c").to_numpy() >> shift
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "bucket": pa.array(b),
                "w": batch.column("w"),
            }
        )

    hist = tree_group_agg(
        ds.map_batches(bucket_partial, batch_format="pyarrow"),
        ["l_returnflag", "bucket"],
        {"w": ("w", "sum")},
    ).to_pandas()

    # driver: locate the median bucket + weight-below-it per flag
    sel: dict[str, int] = {}
    before: dict[str, int] = {}
    totals: dict[str, int] = {}
    for flag, g in hist.groupby("l_returnflag"):
        g = g.sort_values("bucket", kind="mergesort")
        cw = g["w"].to_numpy().cumsum()
        total = int(cw[-1])
        pos = int(np.searchsorted(2 * cw, total))
        sel[str(flag)] = int(g["bucket"].to_numpy()[pos])
        before[str(flag)] = int(cw[pos - 1]) if pos else 0
        totals[str(flag)] = total

    def in_bucket(batch: pa.Table) -> pa.Table:
        flags = batch.column("l_returnflag").to_numpy(zero_copy_only=False)
        b = batch.column("price_c").to_numpy() >> shift
        mask = np.zeros(len(b), dtype=bool)
        for f, tb in sel.items():
            mask |= (flags == f) & (b == tb)
        return batch.filter(pa.array(mask))

    fine = tree_group_agg(
        ds.map_batches(in_bucket, batch_format="pyarrow"),
        ["l_returnflag", "price_c"],
        {"w": ("w", "sum")},
    ).to_pandas()

    out = []
    for flag, g in fine.groupby("l_returnflag"):
        g = g.sort_values("price_c", kind="mergesort")
        cw = before[str(flag)] + g["w"].to_numpy().cumsum()
        pos = int(np.searchsorted(2 * cw, totals[str(flag)]))
        out.append((str(flag), int(g["price_c"].to_numpy()[pos])))
    out.sort()
    return pd.DataFrame(
        {
            "l_returnflag": [f for f, _ in out],
            "w_median_c": pd.array(
                [m for _, m in out], dtype="int64"
            ),
            "total_w": pd.array(
                [totals[f] for f, _ in out], dtype="int64"
            ),
        }
    )


_SQL_WEIGHTED_MEDIAN = """
WITH b AS (
  SELECT l_returnflag,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS price_c,
         CAST(ROUND(l_quantity) AS BIGINT) AS w
  FROM lineitem
), wt AS (
  SELECT l_returnflag, price_c, SUM(w) AS w FROM b GROUP BY 1, 2
), c AS (
  SELECT l_returnflag, price_c, w,
         SUM(w) OVER (PARTITION BY l_returnflag ORDER BY price_c) AS cw,
         SUM(w) OVER (PARTITION BY l_returnflag) AS total
  FROM wt
)
SELECT l_returnflag,
       MIN(price_c) AS w_median_c,
       CAST(MAX(total) AS BIGINT) AS total_w
FROM c WHERE 2 * cw >= total
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Gini coefficient per group WITHOUT a global sort: with the ascending-rank
# formula G = (2*SUM(rank_i * x_i) - (n+1)*SUM(x)) / (n*SUM(x)), the
# rank-weighted sum over a tie block of equal values is invariant to tie
# order, so it computes EXACTLY from the domain-bounded (group, value)
# weight table (the dense_rank_events contract): one combiner exchange to
# (group, value_c, m), then a per-group sorted scan turns each distinct
# value's count m and prefix p into x * (m*p + m*(m+1)/2). The double
# division is the one mirrored expression.


def q_gini_order_values(sf_dir: str):
    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("o_totalprice").to_numpy() * 100).astype(
            np.int64
        )
        return pa.table(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "value_c": pa.array(v),
            }
        )

    wt = tree_group_agg(
        orders.map_batches(prep, batch_format="pyarrow"),
        ["o_orderpriority", "value_c"], {"m": (None, "count")},
    )

    def gini_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("value_c", kind="mergesort")
        m = g["m"].to_numpy().astype(np.int64)
        x = g["value_c"].to_numpy().astype(np.int64)
        p = np.concatenate(([0], m.cumsum()[:-1]))
        n = int(m.sum())
        s = int((m * x).sum())
        rws = int((x * (m * p + m * (m + 1) // 2)).sum())
        # EXPRESSION MIRRORED IN THE ORACLE — do not reorder
        gini = (
            2.0 * np.float64(rws) - (np.float64(n) + 1.0) * np.float64(s)
        ) / (np.float64(n) * np.float64(s))
        return pd.DataFrame(
            {
                "o_orderpriority": [g["o_orderpriority"].iloc[0]],
                "n": [n],
                "total_c": [s],
                "rank_weighted_c": [rws],
                "gini": [gini],
            }
        )

    return wt.groupby("o_orderpriority").map_groups(
        gini_group, batch_format="pandas"
    )


_SQL_GINI_ORDER_VALUES = """
WITH b AS (
  SELECT o_orderpriority,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS x,
         ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                            ORDER BY o_totalprice) AS rn
  FROM orders
), s AS (
  SELECT o_orderpriority, COUNT(*) AS n,
         CAST(SUM(x) AS BIGINT) AS total_c,
         CAST(SUM(rn * x) AS BIGINT) AS rank_weighted_c
  FROM b GROUP BY 1
)
SELECT o_orderpriority, n, total_c, rank_weighted_c,
       (2.0 * CAST(rank_weighted_c AS DOUBLE)
          - (CAST(n AS DOUBLE) + 1.0) * CAST(total_c AS DOUBLE))
       / (CAST(n AS DOUBLE) * CAST(total_c AS DOUBLE)) AS gini
FROM s
"""


# ---------------------------------------------------------------------------
# Deterministic negative sampling — the retrieval-training data op: for
# every user, K candidate parts drawn by a fixed multiplicative-hash
# formula (mirrored verbatim in SQL — no RNG), each flagged against the
# user's true purchase set. Positives are the distinct (user, part) pairs
# from the lineitem->orders fact join; the flag attach is a planner-routed
# left_outer on the MEASURED positive-set size (broadcast at bench scale,
# partitioned hash join when the pair set outgrows the limit).


def q_negative_sampling(sf_dir: str, k: int = 4, fast: bool | None = None):
    """Deterministic negative sampling with a size-gated SEMI-JOIN
    PUSHDOWN: the candidate (user, part) pk set is a pure function of the
    distinct user set (k x |users| int64s), so when its MEASURED size
    fits the broadcast budget the positives resolve by filtering the
    purchase pairs against the broadcast sorted candidate array BEFORE
    any distinct — the pos exchange then carries only actual candidate
    hits (tiny) and the left join disappears entirely (the flag attaches
    by searchsorted inside the explode map). The distinct-pos + shuffle
    left-join plan remains the fallback at scale (``fast=False`` pins
    it; ``fast=True`` pins the pushdown — pytest compares both)."""
    import os as _os

    import pyarrow.parquet as _pq

    n_parts = int(
        _pq.read_metadata(_os.path.join(sf_dir, "part.parquet")).num_rows
    )
    from ..stages.joins import auto_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    pairs = auto_join(
        li, orders, on=("l_orderkey",), right_on=("o_orderkey",),
        num_partitions=JOIN_PARTS,
    )

    # the (user, part) pair packs into ONE int64 (part < n_parts by
    # construction), so every exchange/probe below carries 8 bytes/row
    def pack(batch: pa.Table, n=n_parts) -> pa.Table:
        u = batch.column("o_custkey").to_numpy().astype(np.int64)
        p = batch.column("l_partkey").to_numpy().astype(np.int64)
        return pa.table({"pk": pa.array(u * n + p)})

    users = tree_group_agg(
        _read(sf_dir, "orders", ["o_custkey"]), ["o_custkey"],
        {"nu": (None, "count")},
    ).materialize()

    if fast is None:
        fast = users.count() * k * 8 <= BROADCAST_BUDGET

    if fast:
        u_arr = (
            users.to_pandas()["o_custkey"].to_numpy().astype(np.int64)
        )
        # slot-wise fill + in-place sort: driver peak stays ~1x the gated
        # candidate-set size (no repeat/tile/unique/argsort temporaries)
        cand_pk = np.empty(len(u_arr) * k, dtype=np.int64)
        for s_ in range(k):
            cand_pk[s_ * len(u_arr):(s_ + 1) * len(u_arr)] = (
                u_arr * n_parts + (u_arr * 9973 + s_ * 7919) % n_parts
            )
        cand_pk.sort()  # duplicates are harmless to a membership probe

        def _member(sorted_keys: np.ndarray, probe: np.ndarray):
            if not len(sorted_keys):
                return np.zeros(len(probe), dtype=bool)
            pos = np.minimum(
                np.searchsorted(sorted_keys, probe), len(sorted_keys) - 1
            )
            return sorted_keys[pos] == probe

        def hit_filter(batch: pa.Table, ck=cand_pk) -> pa.Table:
            pk = batch.column("pk").to_numpy()
            return batch.filter(pa.array(_member(ck, pk)))

        hits = tree_group_agg(
            pairs.map_batches(pack, batch_format="pyarrow").map_batches(
                hit_filter, batch_format="pyarrow"
            ),
            ["pk"], {"np": (None, "count")},
        ).to_pandas()
        hit_pk = (
            hits["pk"].to_numpy().astype(np.int64)
            if "pk" in hits.columns
            else np.zeros(0, dtype=np.int64)
        )
        hit_pk.sort()

        def explode_flag(batch: pa.Table, k=k, n=n_parts,
                         hk=hit_pk) -> pa.Table:
            u = np.repeat(
                batch.column("o_custkey").to_numpy().astype(np.int64), k
            )
            slot = np.tile(np.arange(k, dtype=np.int64), batch.num_rows)
            cand = (u * 9973 + slot * 7919) % n
            hit = _member(hk, u * n + cand)
            return pa.table(
                {"user_id": pa.array(u), "slot": pa.array(slot),
                 "cand_part": pa.array(cand),
                 "is_positive": pa.array(hit.astype(np.int64))}
            )

        return users.map_batches(explode_flag, batch_format="pyarrow")

    pos = tree_group_agg(
        pairs.map_batches(pack, batch_format="pyarrow"),
        ["pk"], {"np": (None, "count")},
    ).materialize()

    def explode(batch: pa.Table, k=k, n=n_parts) -> pa.Table:
        u = np.repeat(batch.column("o_custkey").to_numpy().astype(np.int64), k)
        slot = np.tile(np.arange(k, dtype=np.int64), batch.num_rows)
        cand = (u * 9973 + slot * 7919) % n
        return pa.table(
            {"user_id": pa.array(u), "slot": pa.array(slot),
             "cand_part": pa.array(cand), "pk": pa.array(u * n + cand)}
        )

    cand = users.map_batches(explode, batch_format="pyarrow")
    j = auto_join(
        cand, pos, on=("pk",), how="left_outer",
        num_partitions=JOIN_PARTS, right_size_hint=pos.size_bytes(),
    )

    def flag(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        hit = pc.is_valid(batch.column("np")).cast(pa.int64())
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "slot": batch.column("slot"),
                "cand_part": batch.column("cand_part"),
                "is_positive": hit,
            }
        )

    return j.map_batches(flag, batch_format="pyarrow")


_SQL_NEGATIVE_SAMPLING = """
WITH pos AS (
  SELECT DISTINCT o_custkey AS user_id, l_partkey AS part
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
), u AS (
  SELECT DISTINCT o_custkey AS user_id FROM orders
), np AS (SELECT COUNT(*) AS n FROM part),
cand AS (
  SELECT u.user_id, s.slot,
         (u.user_id * 9973 + s.slot * 7919) % np.n AS cand_part
  FROM u, (SELECT UNNEST(RANGE(0, 4)) AS slot) s, np
)
SELECT c.user_id, c.slot, c.cand_part,
       CASE WHEN p.part IS NULL THEN 0 ELSE 1 END AS is_positive
FROM cand c
LEFT JOIN pos p ON p.user_id = c.user_id AND p.part = c.cand_part
"""


# ---------------------------------------------------------------------------
# Exact-k deterministic priority sample per group (the distributed
# reservoir replacement): the k rows with the smallest multiplicative
# hash of their id per event type — a uniform-without-replacement sample
# that is a pure function of the ids, so any node set produces the same
# sample. Per-block top-k prune (exact: the global smallest k live in
# some block's top k) bounds the exchange to k rows per (block, group).


def q_priority_sample(sf_dir: str, k: int = 5):
    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def pri(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "event_id": batch.column("event_id"),
                "pri": pa.array((eid * 2654435761) % 2147483647),
            }
        )

    def block_topk(g: pd.DataFrame, k=k) -> pd.DataFrame:
        g = g.sort_values(["event_type", "pri", "event_id"], kind="mergesort")
        return g.groupby("event_type", as_index=False).head(k)

    pruned = ds.map_batches(pri, batch_format="pyarrow").map_batches(
        block_topk, batch_format="pandas", batch_size=None
    )
    return pruned.groupby("event_type").map_groups(
        lambda g: block_topk(g), batch_format="pandas"
    )


_SQL_PRIORITY_SAMPLE = """
WITH p AS (
  SELECT event_type, event_id,
         (event_id * 2654435761) % 2147483647 AS pri,
         ROW_NUMBER() OVER (PARTITION BY event_type
                            ORDER BY (event_id * 2654435761) % 2147483647,
                                     event_id) AS rn
  FROM events
)
SELECT event_type, event_id, pri FROM p WHERE rn <= 5
"""


# ---------------------------------------------------------------------------
# Exact ROC-AUC (Mann-Whitney U with midrank ties) — "does value predict
# purchase" — computed WITHOUT a global sort: the (score, count,
# pos_count) histogram is domain-bounded (cents), so one combiner
# exchange + a driver cumsum gives doubled midranks 2r = 2*prefix + m + 1
# exactly; 2U = sum(pos*2r) - n_pos*(n_pos+1) stays integer. The AUC
# double is the one mirrored expression.


def q_auc_exact(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        y = pc.equal(batch.column("event_type"), "purchase").cast(pa.int64())
        return pa.table({"s": pa.array(s), "y": y})

    hist = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["s"], {"m": (None, "count"), "mp": ("y", "sum")},
    ).to_pandas()  # domain-bounded distinct score table
    hist = hist.sort_values("s")
    m = hist["m"].to_numpy().astype(np.int64)
    mp = hist["mp"].to_numpy().astype(np.int64)
    prefix = np.concatenate(([0], m.cumsum()[:-1]))
    r2 = 2 * prefix + m + 1
    n = int(m.sum())
    n_pos = int(mp.sum())
    n_neg = n - n_pos
    u2 = int((mp * r2).sum()) - n_pos * (n_pos + 1)
    # EXPRESSION MIRRORED IN THE ORACLE — do not reorder
    auc = np.float64(u2) / (2.0 * np.float64(n_pos) * np.float64(n_neg))
    return pa.table(
        {
            "u2": pa.array([u2], pa.int64()),
            "n_pos": pa.array([n_pos], pa.int64()),
            "n_neg": pa.array([n_neg], pa.int64()),
            "auc": pa.array([float(auc)], pa.float64()),
        }
    )


_SQL_AUC_EXACT = """
WITH b AS (
  SELECT CAST(ROUND(value * 100) AS BIGINT) AS s,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y
  FROM events
), h AS (
  SELECT s, COUNT(*) AS m, SUM(y) AS mp FROM b GROUP BY 1
), r AS (
  SELECT s, m, mp,
         2 * (SUM(m) OVER (ORDER BY s) - m) + m + 1 AS r2
  FROM h
), t AS (
  SELECT CAST(SUM(mp * r2) AS BIGINT) AS sr2,
         CAST(SUM(mp) AS BIGINT) AS n_pos,
         CAST(SUM(m) AS BIGINT) AS n
  FROM r
)
SELECT sr2 - n_pos * (n_pos + 1) AS u2, n_pos, n - n_pos AS n_neg,
       CAST(sr2 - n_pos * (n_pos + 1) AS DOUBLE)
         / (2.0 * CAST(n_pos AS DOUBLE) * CAST(n - n_pos AS DOUBLE)) AS auc
FROM t
"""


# ---------------------------------------------------------------------------
# PSI drift (population stability index) between the first and second
# time half of the event stream — the standard production drift monitor.
# Pass 1 reduces (ts, value) extremes to driver scalars via the combiner
# tree; pass 2 is ONE exchange of <= 2x10 (half, bin) count rows per
# block. Bin edges are integer arithmetic mirrored in SQL; the per-bin
# contribution uses the floor(1e9 * ...) mirrored-ln idiom, and bins
# empty on either side are skipped identically on both sides.


def q_psi_drift(sf_dir: str, n_bins: int = 10):
    ev = _read(sf_dir, "events", ["ts", "value"])

    def extremes(df: pd.DataFrame) -> pa.Table:
        from ..stages.treeagg import clean_arrow

        if "tmin" in df.columns:
            return clean_arrow(
                pd.DataFrame(
                    {
                        "tmin": [int(df["tmin"].min())],
                        "tmax": [int(df["tmax"].max())],
                        "vmin": [int(df["vmin"].min())],
                        "vmax": [int(df["vmax"].max())],
                    }
                )
            )
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        v = np.round(df["value"].to_numpy() * 100).astype(np.int64)
        return clean_arrow(
            pd.DataFrame(
                {
                    "tmin": [int(ts.min())],
                    "tmax": [int(ts.max())],
                    "vmin": [int(v.min())],
                    "vmax": [int(v.max())],
                }
            )
        )

    from ..stages.treeagg import tree_custom_agg

    def merge_ext(df: pd.DataFrame) -> pa.Table:
        return extremes(df)

    ext = tree_custom_agg(ev, extremes, merge_ext).to_pandas()
    tmin, tmax = int(ext["tmin"].min()), int(ext["tmax"].max())
    vmin, vmax = int(ext["vmin"].min()), int(ext["vmax"].max())
    mid = (tmin + tmax) // 2
    den = vmax - vmin + 1

    def binned(batch: pa.Table, k=n_bins) -> pa.Table:
        ts = batch.column("ts").to_numpy().astype("datetime64[us]").astype(
            np.int64
        )
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "half": pa.array((ts > mid).astype(np.int64)),
                "bin": pa.array(((v - vmin) * k) // den),
            }
        )

    counts = tree_group_agg(
        ev.map_batches(binned, batch_format="pyarrow"),
        ["half", "bin"], {"m": (None, "count")},
    ).to_pandas()  # <= 2 x n_bins rows
    ref = np.zeros(n_bins, dtype=np.int64)
    cur = np.zeros(n_bins, dtype=np.int64)
    for r in counts.itertuples():
        (ref if r.half == 0 else cur)[int(r.bin)] = int(r.m)
    n_ref, n_cur = int(ref.sum()), int(cur.sum())
    bins = np.arange(n_bins, dtype=np.int64)
    ok = (ref > 0) & (cur > 0)
    contrib = np.zeros(n_bins, dtype=np.int64)
    # EXPRESSION MIRRORED IN THE ORACLE — do not reorder
    fr = ref[ok].astype(np.float64)
    fc = cur[ok].astype(np.float64)
    contrib[ok] = np.floor(
        1e9
        * (fc / np.float64(n_cur) - fr / np.float64(n_ref))
        * np.log(
            (fc * np.float64(n_ref)) / (fr * np.float64(n_cur))
        )
    ).astype(np.int64)
    return pa.table(
        {
            "bin": pa.array(bins),
            "n_ref": pa.array(ref),
            "n_cur": pa.array(cur),
            "psi_contrib_e9": pa.array(contrib),
        }
    )


_SQL_PSI_DRIFT = """
WITH s AS (
  SELECT CAST(epoch_us(MIN(ts)) AS BIGINT) AS tmin,
         CAST(epoch_us(MAX(ts)) AS BIGINT) AS tmax,
         MIN(CAST(ROUND(value * 100) AS BIGINT)) AS vmin,
         MAX(CAST(ROUND(value * 100) AS BIGINT)) AS vmax
  FROM events
), b AS (
  SELECT CASE WHEN CAST(epoch_us(ts) AS BIGINT)
                   > (s.tmin + s.tmax) // 2 THEN 1 ELSE 0 END AS half,
         ((CAST(ROUND(value * 100) AS BIGINT) - s.vmin) * 10)
           // (s.vmax - s.vmin + 1) AS bin
  FROM events, s
), h AS (
  SELECT bin,
         CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_ref,
         CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_cur
  FROM b GROUP BY 1
), t AS (
  SELECT SUM(n_ref) AS tr, SUM(n_cur) AS tc FROM h
), grid AS (
  SELECT UNNEST(RANGE(0, 10)) AS bin
)
SELECT g.bin,
       COALESCE(h.n_ref, 0) AS n_ref,
       COALESCE(h.n_cur, 0) AS n_cur,
       CASE WHEN COALESCE(h.n_ref, 0) > 0 AND COALESCE(h.n_cur, 0) > 0
            THEN CAST(FLOOR(1e9
                 * (CAST(h.n_cur AS DOUBLE) / CAST(t.tc AS DOUBLE)
                    - CAST(h.n_ref AS DOUBLE) / CAST(t.tr AS DOUBLE))
                 * LN((CAST(h.n_cur AS DOUBLE) * CAST(t.tr AS DOUBLE))
                      / (CAST(h.n_ref AS DOUBLE) * CAST(t.tc AS DOUBLE))))
               AS BIGINT)
            ELSE 0 END AS psi_contrib_e9
FROM grid g LEFT JOIN h ON h.bin = g.bin CROSS JOIN t
"""


# ---------------------------------------------------------------------------
# kNN classifier evaluation: leave-one-out majority vote over the exact
# top-k neighbours (quantized L2, (dist, vec_id) ties), prediction ties
# broken on (count desc, label asc) — accuracy counted per true label.
# Same broadcast-matrix block plan as mutual_knn_pairs (ivf_self_knn is
# the corpus-scale path); the vote and the accuracy reduce happen in the
# block, so the only exchange is the tiny per-label count combiner.


def q_knn_label_accuracy(sf_dir: str, k: int = 5):
    import ray

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    emb = ds.to_pandas()
    ids_all = emb["vec_id"].to_numpy().astype(np.int64)
    order = np.argsort(ids_all, kind="mergesort")
    ids_all = ids_all[order]
    labels_all = emb["label"].to_numpy().astype(np.int64)[order]
    Q = np.round(
        np.stack(emb["embedding"].to_numpy()[order]).astype(np.float64) * 100
    ).astype(np.int64)
    ref = ray.put((ids_all, Q, (Q * Q).sum(axis=1), labels_all))

    def vote(batch: pd.DataFrame, k=k) -> pd.DataFrame:
        ids_r, Qr, nr, lab_r = ray.get(ref)
        x = np.round(
            np.stack(batch["embedding"].to_numpy()).astype(np.float64) * 100
        ).astype(np.int64)
        sid = batch["vec_id"].to_numpy().astype(np.int64)
        y = batch["label"].to_numpy().astype(np.int64)
        d2 = (x * x).sum(axis=1)[:, None] + nr[None, :] - 2 * (x @ Qr.T)
        d2[sid[:, None] == ids_r[None, :]] = np.iinfo(np.int64).max
        ordk = np.lexsort((np.broadcast_to(ids_r, d2.shape), d2), axis=1)[:, :k]
        nl = lab_r[ordk]  # (n, k) neighbour labels
        n_lab = int(lab_r.max()) + 1
        cnt = np.zeros((len(sid), n_lab), dtype=np.int64)
        np.add.at(cnt, (np.repeat(np.arange(len(sid)), k), nl.ravel()), 1)
        # argmax with (count desc, label asc): argmax takes the FIRST max
        pred = cnt.argmax(axis=1)
        return pd.DataFrame(
            {
                "label": y,
                "n": np.ones(len(sid), dtype=np.int64),
                "n_correct": (pred == y).astype(np.int64),
            }
        )

    votes = ds.map_batches(vote, batch_format="pandas")
    return tree_group_agg(
        votes, ["label"], {"n": ("n", "sum"), "n_correct": ("n_correct", "sum")}
    )


_SQL_KNN_LABEL_ACCURACY = """
WITH e AS (
  SELECT vec_id, i, CAST(ROUND(embedding[i] * 100) AS BIGINT) AS v
  FROM embeddings, (SELECT UNNEST(RANGE(1, 65)) AS i)
), d AS (
  SELECT a.vec_id AS src, b.vec_id AS dst,
         SUM((a.v - b.v) * (a.v - b.v)) AS d2
  FROM e a JOIN e b ON a.i = b.i AND a.vec_id <> b.vec_id
  GROUP BY 1, 2
), r AS (
  SELECT src, dst,
         ROW_NUMBER() OVER (PARTITION BY src ORDER BY d2, dst) AS rn
  FROM d
), nb AS (
  SELECT r.src, emb.label AS nlabel
  FROM r JOIN embeddings emb ON emb.vec_id = r.dst
  WHERE r.rn <= 5
), votes AS (
  SELECT src, nlabel, COUNT(*) AS c FROM nb GROUP BY 1, 2
), pred AS (
  SELECT src, nlabel AS pred_label,
         ROW_NUMBER() OVER (PARTITION BY src
                            ORDER BY c DESC, nlabel ASC) AS pr
  FROM votes
)
SELECT emb.label, COUNT(*) AS n,
       CAST(SUM(CASE WHEN p.pred_label = emb.label THEN 1 ELSE 0 END)
            AS BIGINT) AS n_correct
FROM pred p JOIN embeddings emb ON emb.vec_id = p.src
WHERE p.pr = 1
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# TPC-H completion wave: the remaining reference-query shapes expressible on
# this column subset — Q6 (predicate-pushdown filtered aggregate), Q10
# (returned-item revenue report with a global top-k), Q13 (distribution of
# counts via a left-outer join that must keep zero-order customers), Q17
# (correlated per-part average subquery, integer-exact compare), Q19
# (disjunction-of-conjunctions predicate over a dimension attach).


def q_revenue_forecast(sf_dir: str):
    """Q6 shape: a pure filtered aggregate. The shipdate predicate pushes
    into the parquet scan (row-group pruning — at 100 TB the year filter is
    the difference between scanning 1/7th and all of lineitem); discount is
    compared in integer percent (round(d*100)) so no float threshold can
    flip a row; revenue = round(ep*d*10000) is integer-exact. One map, one
    constant-key combiner tree, a single output row — zero joins, zero wide
    exchanges."""
    import pyarrow.dataset as pads

    lo = pd.Timestamp("1997-01-01")
    hi = pd.Timestamp("1998-01-01")
    li = _read(
        sf_dir, "lineitem",
        ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def prep(batch: pa.Table) -> pa.Table:
        qty = np.round(batch.column("l_quantity").to_numpy()).astype(np.int64)
        d = batch.column("l_discount").to_numpy()
        d_pct = np.round(d * 100).astype(np.int64)
        ep = batch.column("l_extendedprice").to_numpy()
        mask = (d_pct >= 5) & (d_pct <= 7) & (qty < 24)
        rev = np.round(ep[mask] * d[mask] * 10000).astype(np.int64)
        one = np.zeros(int(mask.sum()), dtype=np.int64)
        return pa.table({"one": pa.array(one), "rev_s": pa.array(rev)})

    return tree_group_agg(
        li.map_batches(prep, batch_format="pyarrow"),
        ["one"], {"n": (None, "count"), "revenue_s": ("rev_s", "sum")},
    ).select_columns(["n", "revenue_s"])


_SQL_REVENUE_FORECAST = """
SELECT COUNT(*) AS n,
       CAST(SUM(CAST(ROUND(l_extendedprice * l_discount * 10000) AS BIGINT))
            AS BIGINT) AS revenue_s
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
  AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
  AND CAST(ROUND(l_quantity) AS BIGINT) < 24
"""


def q_returned_items(sf_dir: str, force: str | None = None):
    """Q10 shape: revenue lost to returns, per customer, top 20. The
    returnflag filter pushes into the scan; lineitem pre-aggregates to
    per-order revenue PARTIALS before any join (the exchange carries one
    row per order, re-summed after the custkey regroup so split partials
    are safe); orders and customer attach through the planner-routed
    auto_join with provable scan bounds; nation (~25 rows) is a task-fn
    broadcast dict. The top-20 closes with a (revenue desc, custkey asc)
    sort-limit — deterministic under ties."""
    import pyarrow.dataset as pads

    from ..stages.joins import _scan_rooted_size, auto_join

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
        filter=pads.field("l_returnflag") == "R",
    ).select_columns(["l_orderkey", "l_extendedprice", "l_discount"])
    per_order = combine_blocks(
        li.map_batches(_rev_scaled, batch_format="pyarrow"),
        ["l_orderkey"], {"revenue_s": ("rev_s", "sum")},
    )

    orders_scan = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    orders_bound = _scan_rooted_size(orders_scan)
    j = auto_join(
        per_order, orders_scan, num_partitions=JOIN_PARTS,
        on=("l_orderkey",), right_on=("o_orderkey",),
        right_size_hint=orders_bound, force=force,
    )
    per_cust = tree_group_agg(
        j.select_columns(["o_custkey", "revenue_s"]),
        ["o_custkey"], {"revenue_s": ("revenue_s", "sum")},
    )

    cust_scan = _read(
        sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]
    )
    cust_bound = _scan_rooted_size(cust_scan)
    j = auto_join(
        per_cust, cust_scan, num_partitions=JOIN_PARTS,
        on=("o_custkey",), right_on=("c_custkey",),
        right_size_hint=cust_bound, force=force,
    )

    from ..kernels.lookup import IntLookup

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nat_lut = IntLookup(
        nation["n_nationkey"].to_numpy(), nation["n_name"].tolist()
    )

    class Finish:
        def __init__(self, nat_lut):
            self.nat_lut = nat_lut

        def __call__(self, batch: pa.Table) -> pa.Table:
            nk = batch.column("c_nationkey").to_numpy()
            bal_c = np.round(
                batch.column("c_acctbal").to_numpy() * 100
            ).astype(np.int64)
            return pa.table(
                {
                    "c_custkey": batch.column("o_custkey"),
                    "c_name": batch.column("c_name"),
                    "n_name": self.nat_lut.gather(nk),
                    "acctbal_c": pa.array(bal_c),
                    "revenue_s": batch.column("revenue_s"),
                }
            )

    out = j.map_batches(Finish(nat_lut), batch_format="pyarrow")
    return out.sort(
        ["revenue_s", "c_custkey"], descending=[True, False]
    ).limit(20)


_SQL_RETURNED_ITEMS = """
SELECT c_custkey, ANY_VALUE(c_name) AS c_name,
       ANY_VALUE(n_name) AS n_name,
       ANY_VALUE(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS acctbal_c,
       CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT))
            AS BIGINT) AS revenue_s
FROM customer
JOIN nation ON n_nationkey = c_nationkey
JOIN orders ON o_custkey = c_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE l_returnflag = 'R'
GROUP BY c_custkey
ORDER BY revenue_s DESC, c_custkey ASC
LIMIT 20
"""


def q_order_count_distribution(sf_dir: str, force: str | None = None):
    """Q13 shape: how many customers placed exactly k orders — including
    k=0, which forces a LEFT OUTER join (an inner join silently drops the
    zero-order tail that Q13 exists to surface). orders pre-aggregates to
    (custkey, count) partials; customer LEFT OUTER joins that small side
    (planner-routed: the per-customer count table is bounded by the orders
    scan only through the aggregate, so the customer side — provably
    scan-bounded — is the probe). Null counts become 0, then a second tiny
    groupby yields the distribution."""
    from ..stages.joins import _scan_rooted_size, auto_join

    per_cust = tree_group_agg(
        _read(sf_dir, "orders", ["o_custkey"]),
        ["o_custkey"], {"c_count": (None, "count")},
    )
    cust_scan = _read(sf_dir, "customer", ["c_custkey"])
    j = auto_join(
        cust_scan, per_cust, how="left_outer", num_partitions=JOIN_PARTS,
        on=("c_custkey",), right_on=("o_custkey",), force=force,
    )

    def fill(batch: pd.DataFrame) -> pd.DataFrame:
        c = batch["c_count"].fillna(0).astype(np.int64)
        return pd.DataFrame({"c_count": c})

    return tree_group_agg(
        j.map_batches(fill, batch_format="pandas"),
        ["c_count"], {"custdist": (None, "count")},
    )


_SQL_ORDER_COUNT_DISTRIBUTION = """
WITH co AS (
  SELECT c_custkey, COUNT(o_orderkey) AS c_count
  FROM customer LEFT OUTER JOIN orders ON o_custkey = c_custkey
  GROUP BY c_custkey
)
SELECT c_count, COUNT(*) AS custdist
FROM co GROUP BY c_count
"""


def q_small_qty_revenue(sf_dir: str, force: str | None = None):
    """Q17 shape: revenue from orders whose quantity sits below 20% of the
    part's average — the correlated scalar-subquery pattern. Pass 1 builds
    per-part (sum_qty, cnt) for the brand's parts only (semi-joined through
    the planner); the stats table is MATERIALIZED so the planner broadcasts
    on measured size (it is one row per brand part — tiny at any scale).
    Pass 2 re-reads the MATERIALIZED brand slice (3-4% of lineitem — one
    brand out of 25 — so lineitem is scanned exactly ONCE) and evaluates
    the correlated predicate in integers: qty < 0.2 * (sum/cnt)  <=>
    10*qty*cnt < 2*sum_qty — no float division anywhere, so the oracle
    matches bit-for-bit."""
    from ..stages.joins import _scan_rooted_size, auto_join

    part_scan = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    part_bound = _scan_rooted_size(part_scan)
    brand_parts = part_scan.filter(expr="p_brand == 'Brand#12'").select_columns(
        ["p_partkey"]
    )

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    )
    li_brand = auto_join(
        li, brand_parts, how="left_semi", num_partitions=JOIN_PARTS,
        on=("l_partkey",), right_on=("p_partkey",),
        right_size_hint=part_bound, force=force,
    )

    def qprep(batch: pa.Table) -> pa.Table:
        q = np.round(batch.column("l_quantity").to_numpy()).astype(np.int64)
        ep_c = np.round(
            batch.column("l_extendedprice").to_numpy() * 100
        ).astype(np.int64)
        return pa.table(
            {
                "l_partkey": batch.column("l_partkey"),
                "qty": pa.array(q),
                "ep_c": pa.array(ep_c),
            }
        )

    # Both passes run over this small slice; the full fact table is
    # scanned once. At any scale the slice is |brands|^-1 of lineitem.
    small = li_brand.map_batches(qprep, batch_format="pyarrow").materialize()

    stats = tree_group_agg(
        small.select_columns(["l_partkey", "qty"]),
        ["l_partkey"], {"sum_qty": ("qty", "sum"), "cnt": (None, "count")},
    ).materialize()  # one row per brand part: measured-size broadcast

    j = auto_join(
        small, stats, num_partitions=JOIN_PARTS,
        on=("l_partkey",), right_on=("l_partkey",),
        right_size_hint=stats.size_bytes(), force=force,
    )

    def corr(batch: pa.Table) -> pa.Table:
        q = batch.column("qty").to_numpy()
        s = batch.column("sum_qty").to_numpy()
        c = batch.column("cnt").to_numpy()
        mask = 10 * q * c < 2 * s
        ep_c = batch.column("ep_c").to_numpy()[mask]
        one = np.zeros(int(mask.sum()), dtype=np.int64)
        return pa.table({"one": pa.array(one), "ep_c": pa.array(ep_c)})

    return tree_group_agg(
        j.map_batches(corr, batch_format="pyarrow"),
        ["one"], {"n": (None, "count"), "sum_ep_c": ("ep_c", "sum")},
    ).select_columns(["n", "sum_ep_c"])


_SQL_SMALL_QTY_REVENUE = """
WITH s AS (
  SELECT l_partkey,
         CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
         COUNT(*) AS cnt
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_brand = 'Brand#12'
  GROUP BY l_partkey
)
SELECT COUNT(*) AS n,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_ep_c
FROM lineitem JOIN s USING (l_partkey)
WHERE 10 * CAST(ROUND(l_quantity) AS BIGINT) * cnt < 2 * sum_qty
"""


def q_disjunctive_revenue(sf_dir: str, force: str | None = None):
    """Q19 shape: revenue under a disjunction of (brand, size-range,
    quantity-range) conjunctions — the predicate no single-column pushdown
    can serve. The part attributes attach through the planner-routed join
    (scan-bounded dimension); the three-arm mask evaluates vectorized over
    the joined batch; the global sum folds through a constant-key combiner
    tree. Per (brand, arm) subtotals are emitted so the result exposes
    which arm contributed what."""
    from ..stages.joins import _scan_rooted_size, auto_join

    part_scan = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    part_bound = _scan_rooted_size(part_scan)
    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    j = auto_join(
        li, part_scan, num_partitions=JOIN_PARTS,
        on=("l_partkey",), right_on=("p_partkey",),
        right_size_hint=part_bound, force=force,
    )

    ARMS = [
        ("Brand#12", 1, 11, 1, 5),
        ("Brand#23", 10, 20, 1, 10),
        ("Brand#5", 20, 30, 1, 15),
    ]

    def arms(batch: pa.Table) -> pa.Table:
        brand = np.asarray(batch.column("p_brand").to_pylist(), dtype=object)
        size = batch.column("p_size").to_numpy().astype(np.int64)
        qty = np.round(batch.column("l_quantity").to_numpy()).astype(np.int64)
        ep = batch.column("l_extendedprice").to_numpy()
        d = batch.column("l_discount").to_numpy()
        rev = np.round(ep * (1 - d) * 10000).astype(np.int64)
        outs = {"arm": [], "n": [], "rev": []}
        rows_brand, rows_arm, rows_rev = [], [], []
        for ai, (b, qlo, qhi, slo, shi) in enumerate(ARMS):
            mask = (
                (brand == b)
                & (qty >= qlo) & (qty <= qhi)
                & (size >= slo) & (size <= shi)
            )
            k = int(mask.sum())
            rows_brand.append(np.full(k, b, dtype=object))
            rows_arm.append(np.full(k, ai, dtype=np.int64))
            rows_rev.append(rev[mask])
        return pa.table(
            {
                "arm": pa.array(np.concatenate(rows_arm)),
                "p_brand": pa.array(
                    np.concatenate(rows_brand).tolist(), pa.string()
                ),
                "rev_s": pa.array(np.concatenate(rows_rev)),
            }
        )

    return tree_group_agg(
        j.map_batches(arms, batch_format="pyarrow"),
        ["arm", "p_brand"],
        {"n": (None, "count"), "revenue_s": ("rev_s", "sum")},
    )


_SQL_DISJUNCTIVE_REVENUE = """
WITH arms(arm, brand, qlo, qhi, slo, shi) AS (
  VALUES (0, 'Brand#12', 1, 11, 1, 5),
         (1, 'Brand#23', 10, 20, 1, 10),
         (2, 'Brand#5', 20, 30, 1, 15)
)
SELECT arm, p_brand, COUNT(*) AS n,
       CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT))
            AS BIGINT) AS revenue_s
FROM lineitem
JOIN part ON p_partkey = l_partkey
JOIN arms ON p_brand = brand
WHERE CAST(ROUND(l_quantity) AS BIGINT) BETWEEN qlo AND qhi
  AND p_size BETWEEN slo AND shi
GROUP BY arm, p_brand
"""


# ---------------------------------------------------------------------------
# TPC-H Q9 shape: product-type profit per (supplier nation, order year).
# The testdata has no partsupp, so supply cost proxies as
# p_retailprice * quantity (exact: 1-decimal retail price -> cents int).
# Profit stays a single int64 in the 1e4 money scale end to end.


def q_product_profit(sf_dir: str, force: str | None = None):
    """Q9 shape (profit by nation x year for 'red%' parts). Both dims
    (part attrs, supplier->nation->name) ship as broadcast lookups built
    from scan-bounded dimension tables; the only exchange the FACT pays is
    the planner-routed attach of o_orderdate (orders scan-bounded: map-side
    at bench scale, partitioned hash join beyond the broadcast limit — same
    code). Profit is pre-scaled per row BEFORE the join, so either plan
    carries (l_orderkey, n_name, profit_s) only; the (nation, year) regroup
    is a tiny combiner-tree exchange."""
    from ..kernels.lookup import IntLookup
    from ..stages.joins import _scan_rooted_size, auto_join

    part = _read(
        sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"]
    ).to_pandas()
    red = part[part["p_name"].str.startswith("red")]
    cost_c = IntLookup(
        red["p_partkey"].to_numpy(),
        np.round(red["p_retailprice"].to_numpy() * 100).astype(np.int64),
    )
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nat_of = IntLookup(
        nation["n_nationkey"].to_numpy(), nation["n_name"].tolist()
    )
    supp_nation = IntLookup(
        supp["s_suppkey"].to_numpy(),
        nat_of.gather(supp["s_nationkey"].to_numpy()),
    )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
         "l_extendedprice", "l_discount"],
    )

    class Profit:
        def __init__(self, cost_c, supp_nation):
            self.cost_c = cost_c
            self.supp_nation = supp_nation

        def __call__(self, batch: pa.Table) -> pa.Table:
            pk = batch.column("l_partkey").to_numpy()
            pos, mask = self.cost_c.probe(pk)
            cost = self.cost_c.values[pos[mask]]
            q = np.round(
                batch.column("l_quantity").to_numpy()[mask]
            ).astype(np.int64)
            ep = batch.column("l_extendedprice").to_numpy()[mask]
            d = batch.column("l_discount").to_numpy()[mask]
            rev_s = np.round(ep * (1 - d) * 10000).astype(np.int64)
            profit_s = rev_s - cost * q * 100  # cents -> 1e4 scale
            sk = batch.column("l_suppkey").to_numpy()[mask]
            return pa.table(
                {
                    "l_orderkey": batch.column("l_orderkey").filter(
                        pa.array(mask)
                    ),
                    "n_name": self.supp_nation.gather(sk),
                    "profit_s": pa.array(profit_s),
                }
            )

    orders_scan = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    orders_bound = _scan_rooted_size(orders_scan)
    j = auto_join(
        li.map_batches(Profit(cost_c, supp_nation), batch_format="pyarrow"),
        orders_scan,
        on=("l_orderkey",), right_on=("o_orderkey",),
        num_partitions=JOIN_PARTS, right_size_hint=orders_bound, force=force,
    )

    def add_year(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "n_name": batch.column("n_name"),
                "o_year": pc.year(batch.column("o_orderdate")).cast(pa.int64()),
                "profit_s": batch.column("profit_s"),
            }
        )

    return tree_group_agg(
        j.map_batches(add_year, batch_format="pyarrow"),
        ["n_name", "o_year"], {"profit_s": ("profit_s", "sum")},
    )


_SQL_PRODUCT_PROFIT = """
SELECT n_name,
       CAST(date_part('year', o_orderdate) AS BIGINT) AS o_year,
       CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)
                - CAST(ROUND(p_retailprice * 100) AS BIGINT)
                  * CAST(ROUND(l_quantity) AS BIGINT) * 100) AS BIGINT)
           AS profit_s
FROM lineitem
JOIN part ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
JOIN orders ON o_orderkey = l_orderkey
WHERE p_name LIKE 'red%'
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# TPC-H Q12 shape: line-status priority split for one ship year (the
# testdata carries no l_shipmode/commitdate, so l_linestatus plays the
# category and the receipt-lag predicate becomes the ship-year window).


def q_shipmode_priority(sf_dir: str, force: str | None = None):
    """Q12 shape: per l_linestatus, how many year-2000 shipments belong to
    critical orders (1-URGENT / 2-HIGH) vs the rest. The ship-year filter
    prunes at the scan (row-group stats); the orders priority column
    attaches through the planner-routed join (orders scan-bounded); the
    high/low split is a vectorized CASE mask and the final regroup is a
    2-row combiner tree."""
    import pyarrow.dataset as pads

    from ..stages.joins import _scan_rooted_size, auto_join

    lo = pd.Timestamp("2000-01-01")
    hi = pd.Timestamp("2001-01-01")
    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linestatus", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    ).select_columns(["l_orderkey", "l_linestatus"])

    orders_scan = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    orders_bound = _scan_rooted_size(orders_scan)
    j = auto_join(
        li, orders_scan,
        on=("l_orderkey",), right_on=("o_orderkey",),
        num_partitions=JOIN_PARTS, right_size_hint=orders_bound, force=force,
    )

    def split(batch: pa.Table) -> pa.Table:
        pr = np.asarray(batch.column("o_orderpriority").to_pylist(), dtype=object)
        high = np.isin(pr, ("1-URGENT", "2-HIGH")).astype(np.int64)
        return pa.table(
            {
                "l_linestatus": batch.column("l_linestatus"),
                "high": pa.array(high),
                "low": pa.array(1 - high),
            }
        )

    return tree_group_agg(
        j.map_batches(split, batch_format="pyarrow"),
        ["l_linestatus"],
        {"high_line_count": ("high", "sum"), "low_line_count": ("low", "sum")},
    )


_SQL_SHIPMODE_PRIORITY = """
SELECT l_linestatus,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
           THEN 1 ELSE 0 END) AS high_line_count,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
           THEN 0 ELSE 1 END) AS low_line_count
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '2000-01-01'
  AND l_shipdate <  TIMESTAMP '2001-01-01'
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# TPC-H Q20 shape: suppliers over-supplying promo parts. No partsupp in the
# testdata, so the "more than half the part's stock" predicate becomes
# "shipped more than 1.5x the part's fair per-supplier share" — the same
# nested aggregate-derived-filter + join-back chain, kept in exact integers
# (2*q*ns > 3*tq <=> q > 1.5 * tq/ns, no division).


def q_promo_part_suppliers(sf_dir: str, force: str | None = None):
    """Q20 shape. Stage 1 semi-filters lineitem to 'hot%' parts through the
    planner (part scan-bounded) and combiner-aggregates per (supp, part);
    the per-pair table MATERIALIZES (it is |supp x hot parts| at most —
    tiny relative to the fact) so both derived sides reuse it: the per-part
    totals regroup is a second combiner pass over it, and the totals attach
    back by MEASURED-size broadcast. Stage 2 filters the over-share pairs
    vectorized and regroups per supplier; supplier name + nation attach as
    a task-fn dict. lineitem is scanned exactly once."""
    from ..stages.joins import _scan_rooted_size, auto_join

    part_scan = _read(sf_dir, "part", ["p_partkey", "p_name"])
    part_bound = _scan_rooted_size(part_scan)
    import pyarrow.compute as pc

    def hot_only(batch: pa.Table) -> pa.Table:
        m = pc.starts_with(batch.column("p_name"), "hot")
        return batch.filter(m).select(["p_partkey"])

    hot = part_scan.map_batches(hot_only, batch_format="pyarrow")

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity"])
    li_hot = auto_join(
        li, hot, how="left_semi", num_partitions=JOIN_PARTS,
        on=("l_partkey",), right_on=("p_partkey",),
        right_size_hint=part_bound, force=force,
    )

    def qprep(batch: pa.Table) -> pa.Table:
        q = np.round(batch.column("l_quantity").to_numpy()).astype(np.int64)
        return pa.table(
            {
                "l_suppkey": batch.column("l_suppkey"),
                "l_partkey": batch.column("l_partkey"),
                "qty": pa.array(q),
            }
        )

    sp = tree_group_agg(
        li_hot.map_batches(qprep, batch_format="pyarrow"),
        ["l_suppkey", "l_partkey"], {"q": ("qty", "sum")},
    ).materialize()

    pt = tree_group_agg(
        sp.select_columns(["l_partkey", "q"]),
        ["l_partkey"], {"tq": ("q", "sum"), "ns": (None, "count")},
    ).materialize()

    j = auto_join(
        sp, pt, num_partitions=JOIN_PARTS,
        on=("l_partkey",), right_on=("l_partkey",),
        right_size_hint=pt.size_bytes(), force=force,
    )

    def over_share(batch: pa.Table) -> pa.Table:
        q = batch.column("q").to_numpy()
        tq = batch.column("tq").to_numpy()
        ns = batch.column("ns").to_numpy()
        m = 2 * q * ns > 3 * tq
        return pa.table(
            {
                "l_suppkey": batch.column("l_suppkey").filter(pa.array(m)),
                "q": pa.array(q[m]),
            }
        )

    per_supp = tree_group_agg(
        j.map_batches(over_share, batch_format="pyarrow"),
        ["l_suppkey"],
        {"n_over_parts": (None, "count"), "over_qty": ("q", "sum")},
    )

    from ..kernels.lookup import IntLookup

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nat_of = IntLookup(
        nation["n_nationkey"].to_numpy(), nation["n_name"].tolist()
    )
    sk_np = supp["s_suppkey"].to_numpy()
    s_name = IntLookup(sk_np, supp["s_name"].tolist())
    s_nat = IntLookup(sk_np, nat_of.gather(supp["s_nationkey"].to_numpy()))

    class Attach:
        def __init__(self, s_name, s_nat):
            self.s_name = s_name
            self.s_nat = s_nat

        def __call__(self, batch: pa.Table) -> pa.Table:
            sk = batch.column("l_suppkey").to_numpy()
            return pa.table(
                {
                    "s_suppkey": batch.column("l_suppkey"),
                    "s_name": self.s_name.gather(sk),
                    "n_name": self.s_nat.gather(sk),
                    "n_over_parts": batch.column("n_over_parts"),
                    "over_qty": batch.column("over_qty"),
                }
            )

    return per_supp.map_batches(Attach(s_name, s_nat), batch_format="pyarrow")


_SQL_PROMO_PART_SUPPLIERS = """
WITH sp AS (
  SELECT l_suppkey, l_partkey,
         SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS q
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE 'hot%'
  GROUP BY 1, 2
),
pt AS (
  SELECT l_partkey, SUM(q) AS tq, COUNT(*) AS ns FROM sp GROUP BY 1
)
SELECT s_suppkey, ANY_VALUE(s_name) AS s_name, ANY_VALUE(n_name) AS n_name,
       COUNT(*) AS n_over_parts, CAST(SUM(q) AS BIGINT) AS over_qty
FROM sp
JOIN pt USING (l_partkey)
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
WHERE 2 * q * ns > 3 * tq
GROUP BY s_suppkey
"""


# ---------------------------------------------------------------------------
# Sequence packing: documents are concatenated in doc_id order into one
# token stream and split into fixed CTX-token context windows (the standard
# concat-and-split packing used to build training batches); each doc reports
# the window span it lands in. Global prefix-sum WITHOUT a global sort: docs
# range-bucket by doc_id (order-preserving), per-bucket token sums reduce
# through the combiner tree to a <=64-row driver table whose exclusive prefix
# broadcasts as each bucket's base offset; the intra-bucket cumsum runs
# vectorized inside groupby(bucket).map_groups. One bucket exchange total —
# at 10^12 rows the driver table stays n_buckets rows and the fact token
# counts never move twice. Token count is the deterministic ceil(n_chars/4)
# proxy (>=1 so empty docs still occupy a slot), shared with the oracle.


def q_pack_sequences(sf_dir: str, ctx: int = 512, n_buckets: int = 64):
    import os as _os

    import pyarrow.parquet as _pq

    from ..stages.treeagg import clean_arrow, tree_group_agg

    # O(1) from the parquet footer — doc_id is dense [0, n_docs)
    n_docs = max(
        _pq.read_metadata(_os.path.join(sf_dir, "documents.parquet")).num_rows, 1
    )

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def tok(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy().astype(np.int64)
        n = batch.column("n_chars").to_numpy().astype(np.int64)
        n_tok = np.maximum((n + 3) // 4, 1)
        return pa.table(
            {
                "doc_id": pa.array(did),
                "n_tok": pa.array(n_tok),
                "b": pa.array(did * n_buckets // n_docs),
            }
        )

    tds = ds.map_batches(tok, batch_format="pyarrow").materialize()
    hist = tree_group_agg(tds, ["b"], {"s": ("n_tok", "sum")}).to_pandas()
    base = np.zeros(n_buckets, dtype=np.int64)
    np.add.at(
        base,
        hist["b"].to_numpy().astype(np.int64),
        hist["s"].to_numpy().astype(np.int64),
    )
    base = np.concatenate([[0], np.cumsum(base)[:-1]])  # exclusive prefix

    def pack_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("doc_id", kind="stable")
        nt = g["n_tok"].to_numpy()
        cum_before = base[int(g["b"].iloc[0])] + np.concatenate(
            [[0], np.cumsum(nt)[:-1]]
        )
        first = cum_before // ctx
        last = (cum_before + nt - 1) // ctx
        return clean_arrow(
            pd.DataFrame(
                {
                    "doc_id": g["doc_id"].to_numpy(),
                    "n_tok": nt,
                    "first_window": first,
                    "last_window": last,
                    "n_windows": last - first + 1,
                    "win_offset": cum_before % ctx,
                }
            )
        )

    return tds.groupby("b").map_groups(pack_bucket, batch_format="pandas")


_SQL_PACK_SEQUENCES = """
WITH t AS (
  SELECT doc_id, GREATEST((n_chars + 3) // 4, 1) AS n_tok FROM documents
), c AS (
  SELECT doc_id, n_tok,
         COALESCE(SUM(n_tok) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum
  FROM t
)
SELECT doc_id, n_tok,
       CAST(cum // 512 AS BIGINT) AS first_window,
       CAST((cum + n_tok - 1) // 512 AS BIGINT) AS last_window,
       CAST((cum + n_tok - 1) // 512 - cum // 512 + 1 AS BIGINT) AS n_windows,
       CAST(cum % 512 AS BIGINT) AS win_offset
FROM c
"""


# ---------------------------------------------------------------------------
# k-anonymity risk audit (data governance over a quasi-identifier tuple):
# group customers by (nation, market segment, account-balance band) and
# report, per nation, how many QI groups and rows fall below the k=5
# anonymity threshold. Shape: two combiner trees back to back — the QI
# domain is bounded (nations x segments x bands), so the exact group counts
# reduce through per-batch partials and the per-nation risk rollup is a
# second tiny tree over the FINAL group rows; zero fact shuffles.


def q_k_anonymity(sf_dir: str, k: int = 5):
    from ..stages.treeagg import tree_group_agg

    ds = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment", "c_acctbal"])

    def band(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy()
        return pa.table(
            {
                "c_nationkey": batch.column("c_nationkey").cast(pa.int64()),
                "c_mktsegment": batch.column("c_mktsegment"),
                "bal_band": pa.array(np.floor(bal / 1000.0).astype(np.int64)),
            }
        )

    groups = tree_group_agg(
        ds.map_batches(band, batch_format="pyarrow"),
        ["c_nationkey", "c_mktsegment", "bal_band"],
        {"n": (None, "count")},
    )

    def risk(batch: pa.Table) -> pa.Table:  # consumes FINAL group rows
        n = batch.column("n").to_numpy().astype(np.int64)
        at = (n < k).astype(np.int64)
        return pa.table(
            {
                "c_nationkey": batch.column("c_nationkey"),
                "gar": pa.array(at),
                "rar": pa.array(at * n),
                "ng": pa.array(np.ones(len(n), dtype=np.int64)),
                "nr": pa.array(n),
            }
        )

    return tree_group_agg(
        groups.map_batches(risk, batch_format="pyarrow"),
        ["c_nationkey"],
        {
            "groups_at_risk": ("gar", "sum"),
            "rows_at_risk": ("rar", "sum"),
            "n_groups": ("ng", "sum"),
            "n_rows": ("nr", "sum"),
        },
    )


_SQL_K_ANONYMITY = """
WITH g AS (
  SELECT c_nationkey, c_mktsegment,
         CAST(FLOOR(c_acctbal / 1000) AS BIGINT) AS bal_band, COUNT(*) AS n
  FROM customer GROUP BY 1, 2, 3
)
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       COUNT(*) FILTER (WHERE n < 5) AS groups_at_risk,
       CAST(COALESCE(SUM(n) FILTER (WHERE n < 5), 0) AS BIGINT) AS rows_at_risk,
       COUNT(*) AS n_groups, CAST(SUM(n) AS BIGINT) AS n_rows
FROM g GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Hard-negative mining for contrastive training: for each of the first 256
# anchor embeddings, the nearest candidate with a DIFFERENT label over the
# whole corpus (exact integer-quantized L2, stages/knn.py QUANT contract).
# Anchors broadcast (bounded — the training batch); candidates stream: each
# batch computes a (256 x batch) int64 distance matrix and collapses to one
# composite-key (dist2 << 40 | vec_id) min PER ANCHOR, so the only exchange
# is 256 packed int64 rows per block through the combiner tree — candidate
# vectors never shuffle. The composite min decomposes exactly because
# quantized dist2 < 2^22 (asserted) and vec_id < 2^40.


def q_hard_negatives(sf_dir: str, n_anchors: int = 256):
    from ..stages.knn import quantize
    from ..stages.treeagg import tree_group_agg

    head = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
        .sort("vec_id")
        .limit(n_anchors)
        .to_pandas()
    )
    A = quantize(np.stack(head["embedding"].to_numpy()))  # (m, d)
    a_sq = (A * A).sum(axis=1)
    a_lab = head["label"].to_numpy().astype(np.int64)
    a_ids = head["vec_id"].to_numpy().astype(np.int64)
    NID_BITS = 40
    SENTINEL = np.int64(1) << 62

    def best_in_batch(batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        lab = batch.column("label").to_numpy().astype(np.int64)
        V = quantize(
            np.stack(batch.column("embedding").to_numpy(zero_copy_only=False))
        )
        d = a_sq[:, None] + (V * V).sum(axis=1)[None, :] - 2 * (A @ V.T)
        assert int(d.max()) < (1 << 22) and int(vid.max()) < (1 << NID_BITS)
        packed = np.where(
            a_lab[:, None] == lab[None, :], SENTINEL, (d << NID_BITS) | vid
        )
        return pa.table(
            {
                "a": pa.array(np.arange(len(a_ids), dtype=np.int64)),
                "p": pa.array(packed.min(axis=1)),
            }
        )

    agg = tree_group_agg(
        _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"]).map_batches(
            best_in_batch, batch_format="pyarrow", batch_size=1024
        ),
        ["a"],
        {"p": ("p", "min")},
    )

    def decode(batch: pa.Table) -> pa.Table:  # final merged rows (<= m)
        a = batch.column("a").to_numpy().astype(np.int64)
        p = batch.column("p").to_numpy().astype(np.int64)
        keep = p < SENTINEL  # anchors with no different-label candidate drop
        a, p = a[keep], p[keep]
        return pa.table(
            {
                "vec_id": pa.array(a_ids[a]),
                "hard_negative": pa.array(p & ((1 << NID_BITS) - 1)),
                "dist2_q": pa.array(p >> NID_BITS),
            }
        )

    return agg.map_batches(decode, batch_format="pyarrow")


_SQL_HARD_NEGATIVES = """
WITH q AS (
  SELECT vec_id, label, embedding FROM embeddings ORDER BY vec_id LIMIT 256
), qq AS (
  SELECT vec_id, label, i, CAST(ROUND(embedding[i] * 100) AS BIGINT) AS ev
  FROM q, (SELECT UNNEST(RANGE(1, 65)) AS i)
), ee AS (
  SELECT vec_id, label, i, CAST(ROUND(embedding[i] * 100) AS BIGINT) AS ev
  FROM embeddings, (SELECT UNNEST(RANGE(1, 65)) AS i)
), d AS (
  SELECT a.vec_id, b.vec_id AS nid,
         SUM((a.ev - b.ev) * (a.ev - b.ev)) AS dist2
  FROM qq a JOIN ee b ON a.i = b.i AND a.label <> b.label
  GROUP BY 1, 2
), r AS (
  SELECT vec_id, nid, dist2,
         ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY dist2, nid) AS rn
  FROM d
)
SELECT vec_id, nid AS hard_negative, CAST(dist2 AS BIGINT) AS dist2_q
FROM r WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Tile-grid neighbor smoothing: 3x3 stencil over z10 WebMercator tile counts
# (the tile-seam blending shape: a raster stencil over a SHUFFLED grid).


def q_tile_neighbor_smooth(sf_dir: str):
    """Per-tile event density smoothed over the 3x3 tile neighborhood:
    the tile's own count plus its 8 neighbours' (``_queen_stencil``).
    Neighbour positions that are not themselves occupied tiles drop out,
    matching the SQL inner self-join semantics."""

    def smooth(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy()
        return pa.table(
            {
                "tile_x": batch.column("tile_x"),
                "tile_y": batch.column("tile_y"),
                "n": pa.array(c),
                "smooth_n": pa.array(c + batch.column("s").to_numpy()),
            }
        )

    return _queen_stencil(_tile_counts(sf_dir, 10)).map_batches(
        smooth, batch_format="pyarrow"
    )


def q_compression_ratio(sf_dir: str):
    """Per-doc zlib compressibility quality signal
    (stages/text.py::CompressionRatio, the RefinedWeb-family heuristic) —
    zero exchanges, the deflate call is the stage. Rows-only (SQL has no
    zlib); pinned against a direct zlib recompute in pytest."""
    from ..stages.text import CompressionRatio

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        CompressionRatio(), batch_format="pyarrow"
    )


def _sql_tile_neighbor_smooth() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 1024) AS BIGINT) AS x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 1024) AS BIGINT) AS y,
         COUNT(*) AS n
  FROM pts GROUP BY 1, 2
)
SELECT a.x AS tile_x, a.y AS tile_y, a.n AS n,
       CAST(SUM(b.n) AS BIGINT) AS smooth_n
FROM t a JOIN t b ON b.x BETWEEN a.x - 1 AND a.x + 1
                 AND b.y BETWEEN a.y - 1 AND a.y + 1
GROUP BY 1, 2, 3
"""


_SQL_TILE_NEIGHBOR_SMOOTH = _sql_tile_neighbor_smooth()


# ---------------------------------------------------------------------------
# Wave 10: vector overlay (segment-intersection join), DBSCAN, per-group OLS
# regression, snapshot CDC diff, time-series gap-fill resample, JSONL source.


def q_seg_intersect_join(sf_dir: str):
    """Line-segment intersection join (map overlay, roads x rivers class):
    per-user event tracks become short segments (bbox <= 30000 micro-deg),
    set A = even users, set B = odd users; output every properly-crossing
    (a_seg, b_seg) pair. Exact int64 orientation tests; one grid-cell
    exchange + the parallel pair-dedup exchange (stages/overlay.py).
    Reference semantics: the slice.rs edge-crossing primitive
    (nusamai/src/sink/cesiumtiles/slice.rs) lifted to a pairwise join."""
    from ..stages.overlay import seg_intersect_join

    return seg_intersect_join(sf_dir)


_SQL_SEG_INTERSECT_JOIN = """
WITH ev AS (
  SELECT user_id, event_id, ts,
         (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM events
), seg AS (
  SELECT user_id, event_id AS seg_id, x AS x1, y AS y1,
         LEAD(x) OVER w AS x2, LEAD(y) OVER w AS y2
  FROM ev WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS MATERIALIZED (
  SELECT * FROM seg
  WHERE x2 IS NOT NULL AND ABS(x2 - x1) <= 30000 AND ABS(y2 - y1) <= 30000
), a AS (SELECT * FROM s WHERE user_id % 2 = 0),
  b AS (SELECT * FROM s WHERE user_id % 2 = 1),
cand AS (
  SELECT a.seg_id AS a_seg, b.seg_id AS b_seg,
         (b.x2-b.x1)*(a.y1-b.y1) - (b.y2-b.y1)*(a.x1-b.x1) AS d1,
         (b.x2-b.x1)*(a.y2-b.y1) - (b.y2-b.y1)*(a.x2-b.x1) AS d2,
         (a.x2-a.x1)*(b.y1-a.y1) - (a.y2-a.y1)*(b.x1-a.x1) AS d3,
         (a.x2-a.x1)*(b.y2-a.y1) - (a.y2-a.y1)*(b.x2-a.x1) AS d4
  FROM a, b
  WHERE LEAST(a.x1,a.x2) <= GREATEST(b.x1,b.x2)
    AND LEAST(b.x1,b.x2) <= GREATEST(a.x1,a.x2)
    AND LEAST(a.y1,a.y2) <= GREATEST(b.y1,b.y2)
    AND LEAST(b.y1,b.y2) <= GREATEST(a.y1,a.y2)
)
SELECT a_seg, b_seg FROM cand
WHERE ((d1 > 0 AND d2 < 0) OR (d1 < 0 AND d2 > 0))
  AND ((d3 > 0 AND d4 < 0) OR (d3 < 0 AND d4 > 0))
"""


def q_dbscan_clusters(sf_dir: str):
    """Distributed DBSCAN (eps=1500, min_pts=4) over the geocoded event
    points; cluster_id = min core id of the component, border -> min
    neighbor cluster, noise = -1. Rows-only (no SQL twin); pinned against
    the O(n^2) brute reference in tests/test_overlay.py."""
    from ..stages.overlay import dbscan_points

    return dbscan_points(sf_dir)


def q_grouped_regression(sf_dir: str):
    """Per-priority OLS regression of order value (cents) on order date
    (epoch days): slope + intercept from five int64 sums (one combiner
    tree exchange, same shape as grouped_corr). The float expressions are
    mirrored verbatim in the SQL twin."""
    orders = _read(
        sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        x = batch.column("o_orderdate").cast(pa.int64()).to_numpy() // (
            86400 * 1_000_000
        )
        y = np.round(batch.column("o_totalprice").to_numpy() * 100).astype(
            np.int64
        )
        return pa.table(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "x": pa.array(x),
                "y": pa.array(y),
                "xx": pa.array(x * x),
                "xy": pa.array(x * y),
            }
        )

    agg = tree_group_agg(
        orders.map_batches(prep, batch_format="pyarrow"),
        ["o_orderpriority"],
        {
            "n": (None, "count"),
            "sx": ("x", "sum"),
            "sy": ("y", "sum"),
            "sxx": ("xx", "sum"),
            "sxy": ("xy", "sum"),
        },
    )

    def fit(batch: pa.Table) -> pa.Table:
        f = {
            c: batch.column(c).to_numpy().astype(np.float64)
            for c in ("n", "sx", "sy", "sxx", "sxy")
        }
        # EXPRESSION MIRRORED IN THE ORACLE — do not reorder
        slope = (f["n"] * f["sxy"] - f["sx"] * f["sy"]) / (
            f["n"] * f["sxx"] - f["sx"] * f["sx"]
        )
        intercept = (f["sy"] - slope * f["sx"]) / f["n"]
        return pa.table(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "n": batch.column("n"),
                "slope": pa.array(slope),
                "intercept": pa.array(intercept),
            }
        )

    return agg.map_batches(fit, batch_format="pyarrow")


_SQL_GROUPED_REGRESSION = """
WITH b AS (
  SELECT o_orderpriority,
         DATEDIFF('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS x,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS y
  FROM orders
), s AS (
  SELECT o_orderpriority, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
         SUM(x * x) AS sxx, SUM(x * y) AS sxy
  FROM b GROUP BY 1
)
SELECT o_orderpriority, n,
       (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
          - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
         / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) AS slope,
       (CAST(sy AS DOUBLE)
          - ((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
             / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)))
            * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE) AS intercept
FROM s
"""


def q_snapshot_cdc_diff(sf_dir: str):
    """Change-data-capture diff between two snapshots of per-user state
    (latest event value as of T1 = 2024-01-15 vs T2 = end of data):
    change_type = insert (no state at T1) / update / same. One bucketed
    exchange; both snapshot argmaxes resolve in the same vectorized pass
    (sort + keep-last per masked frame). v1_c is NULL for inserts."""
    from ..stages.treeagg import clean_arrow

    t1_us = int(pd.Timestamp("2024-01-15").value // 1000)
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts_us": pa.array(ts),
                "value_c": pa.array(v),
            }
        )

    def diff(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        last2 = g.drop_duplicates("user_id", keep="last")[
            ["user_id", "value_c"]
        ].rename(columns={"value_c": "v2_c"})
        g1 = g[g["ts_us"].to_numpy() <= t1_us]
        last1 = g1.drop_duplicates("user_id", keep="last")[
            ["user_id", "value_c"]
        ].rename(columns={"value_c": "v1_c"})
        m = last2.merge(last1, on="user_id", how="left")
        v1 = m["v1_c"].to_numpy()
        v2 = m["v2_c"].to_numpy()
        ct = np.where(
            np.isnan(v1), "insert", np.where(v1 == v2, "same", "update")
        )
        out = pd.DataFrame(
            {
                "user_id": m["user_id"].to_numpy(),
                "change_type": ct,
                "v1_c": m["v1_c"].astype("Int64"),
                "v2_c": m["v2_c"].to_numpy(),
            }
        )
        return clean_arrow(out)

    return grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"], diff
    )


_SQL_SNAPSHOT_CDC_DIFF = """
WITH ev AS (
  SELECT user_id, event_id, ts,
         CAST(ROUND(value * 100) AS BIGINT) AS value_c
  FROM events
), s2 AS (
  SELECT user_id, value_c AS v2_c,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM ev
), s1 AS (
  SELECT user_id, value_c AS v1_c,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM ev WHERE ts <= TIMESTAMP '2024-01-15 00:00:00'
)
SELECT s2.user_id,
       CASE WHEN s1.v1_c IS NULL THEN 'insert'
            WHEN s1.v1_c = s2.v2_c THEN 'same'
            ELSE 'update' END AS change_type,
       s1.v1_c, s2.v2_c
FROM (SELECT user_id, v2_c FROM s2 WHERE rn = 1) s2
LEFT JOIN (SELECT user_id, v1_c FROM s1 WHERE rn = 1) s1
  ON s1.user_id = s2.user_id
"""


def q_ts_ffill_resample(sf_dir: str):
    """Time-series gap-fill: resample each user's event values to a fixed
    daily grid (2024-01-01..30) with last-observation-carried-forward.
    One bucketed exchange; the per-bucket resolve is a vectorized
    per-(user, day) keep-last + grid merge + pandas groupby ffill (C
    kernels, no per-user Python). value_ffill is NULL before a user's
    first event."""
    from ..stages.treeagg import clean_arrow

    day0 = int(np.datetime64("2024-01-01").astype("datetime64[D]").astype(int))
    n_days = 30
    us_per_day = 86400 * 1_000_000
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts_us": pa.array(ts),
                "day": pa.array(ts // us_per_day),
                "value_c": pa.array(v),
            }
        )

    def resample(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        lastd = g.drop_duplicates(["user_id", "day"], keep="last")[
            ["user_id", "day", "value_c"]
        ]
        uu = np.sort(g["user_id"].unique())
        grid = pd.DataFrame(
            {
                "user_id": np.repeat(uu, n_days),
                "day": np.tile(np.arange(day0, day0 + n_days), len(uu)),
            }
        )
        m = grid.merge(lastd, on=["user_id", "day"], how="left")
        m["value_c"] = m.groupby("user_id")["value_c"].ffill()
        # timestamp[us] (midnight), matching the oracle DATE's pandas dtype
        day_ts = (m["day"].to_numpy() * us_per_day).astype("datetime64[us]")
        return pa.table(
            {
                "user_id": pa.array(m["user_id"].to_numpy()),
                "day": pa.array(day_ts),
                "value_ffill": pa.Array.from_pandas(
                    m["value_c"].astype("Int64"), type=pa.int64()
                ),
            }
        )

    return grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"], resample
    )


_SQL_TS_FFILL_RESAMPLE = """
WITH days AS (
  SELECT CAST(UNNEST(generate_series(DATE '2024-01-01', DATE '2024-01-30',
                                     INTERVAL 1 DAY)) AS DATE) AS day
), u AS (SELECT DISTINCT user_id FROM events),
grid AS (SELECT user_id, day FROM u CROSS JOIN days),
ev AS (
  SELECT user_id, CAST(date_trunc('day', ts) AS DATE) AS day,
         CAST(ROUND(value * 100) AS BIGINT) AS value_c,
         ROW_NUMBER() OVER (PARTITION BY user_id,
                                         CAST(date_trunc('day', ts) AS DATE)
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
), lastd AS (SELECT user_id, day, value_c FROM ev WHERE rn = 1)
SELECT g.user_id, g.day,
       LAST_VALUE(l.value_c IGNORE NULLS) OVER (
         PARTITION BY g.user_id ORDER BY g.day
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS value_ffill
FROM grid g LEFT JOIN lastd l ON g.user_id = l.user_id AND g.day = l.day
"""


def q_jsonl_source_stats(sf_dir: str):
    """JSONL source path: the documents table round-trips through newline-
    delimited JSON shards (written once to /tmp, resumable via _SUCCESS
    marker) and is read back with ``ray.data.read_json`` — proving the
    non-parquet source lane — then aggregated per (source, lang). The
    oracle aggregates the parquet view directly: identical rows iff the
    JSONL round-trip is lossless."""
    import json
    import os

    import pyarrow.parquet as pq

    sf_tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = f"/tmp/plateau_ray_data/jsonl_{sf_tag}"
    marker = os.path.join(out_dir, "_SUCCESS")
    if not os.path.exists(marker):
        os.makedirs(out_dir, exist_ok=True)
        t = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "source", "lang", "n_chars"],
        )
        df = t.to_pandas()
        shards = max(1, min(8, len(df) // 2000))
        for i, part in enumerate(np.array_split(df, shards)):
            tmp = os.path.join(out_dir, f".part-{i:04d}.jsonl.tmp")
            with open(tmp, "w") as f:
                for rec in part.to_dict("records"):
                    f.write(json.dumps(rec) + "\n")
            os.replace(tmp, os.path.join(out_dir, f"part-{i:04d}.jsonl"))
        with open(marker, "w") as f:
            f.write("ok")
    import ray.data

    files = sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.endswith(".jsonl")
    )
    ds = ray.data.read_json(files)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": batch.column("source"),
                "lang": batch.column("lang"),
                "n_chars": batch.column("n_chars").cast(pa.int64()),
            }
        )

    return tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["source", "lang"],
        {"n_docs": (None, "count"), "sum_chars": ("n_chars", "sum")},
    )


_SQL_JSONL_SOURCE_STATS = """
SELECT source, lang, COUNT(*) AS n_docs, SUM(n_chars) AS sum_chars
FROM documents GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Wave 11: interval-union coverage, multi-zoom tile pyramid, rectilinear
# map-matching (snap-to-roads), weighted SSSP, DTW track-similarity join.


def q_interval_coverage(sf_dir: str):
    """Per-user interval-union coverage: each event opens the interval
    [ts, ts + round(value*100) seconds); output the user's merged-island
    count and total covered microseconds. ONE bucketed exchange; inside a
    bucket the sweep is fully vectorized — segmented running-max via the
    per-user-offset cummax trick (user codes are bucket-local and interval
    ends are normalized to the bucket minimum, so code * span stays far
    inside int64), island starts as a shifted compare, per-island coverage
    from the cummax at island ends. At 10^12 rows the bucket count is the
    parallelism lever; per-bucket memory is O(bucket rows)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        s = batch.column("ts").cast(pa.int64()).to_numpy()
        dur = np.round(batch.column("value").to_numpy() * 100).astype(
            np.int64
        ) * 1_000_000
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "s": pa.array(s),
                "e": pa.array(s + dur),
            }
        )

    def sweep(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "s", "e"], kind="stable")
        u = g["user_id"].to_numpy()
        s = g["s"].to_numpy()
        e = g["e"].to_numpy()
        base = s.min()
        s0 = s - base
        e0 = e - base
        # bucket-local dense user codes in sorted order
        new_user = np.r_[True, u[1:] != u[:-1]]
        code = np.cumsum(new_user) - 1
        span = int(e0.max()) + 1
        cm = np.maximum.accumulate(e0 + code * span) - code * span
        prev_cm = np.r_[np.int64(-1), cm[:-1]]
        start = new_user | (s0 > prev_cm)
        isl = np.cumsum(start) - 1
        # island last index: next island starts - 1, plus the final row
        starts_ix = np.nonzero(start)[0]
        ends_ix = np.r_[starts_ix[1:] - 1, len(s0) - 1]
        covered = cm[ends_ix] - s0[starts_ix]
        isl_user = code[starts_ix]
        n_users = int(code[-1]) + 1
        return pa.table(
            {
                "user_id": pa.array(u[new_user]),
                "n_islands": pa.array(
                    np.bincount(isl_user, minlength=n_users).astype(np.int64)
                ),
                "covered_us": pa.array(
                    np.bincount(isl_user, weights=covered, minlength=n_users)
                    .astype(np.int64)
                ),
            }
        )

    return grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"], sweep
    )


_SQL_INTERVAL_COVERAGE = """
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s,
         epoch_us(ts) + CAST(ROUND(value * 100) AS BIGINT) * 1000000 AS e
  FROM events
), m AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max
  FROM iv
), g AS (
  SELECT user_id, s, e,
         SUM(CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY s, e
                 ROWS UNBOUNDED PRECEDING) AS isl
  FROM m
), islands AS (
  SELECT user_id, isl, MAX(e) - MIN(s) AS covered
  FROM g GROUP BY 1, 2
)
SELECT user_id, COUNT(*) AS n_islands,
       SUM(covered) AS covered_us
FROM islands GROUP BY 1
"""


def q_tile_pyramid_rollup(sf_dir: str):
    """Multi-zoom tile pyramid (z8..z12) from ONE finest-grain pass: the
    z12 counts reduce through the combiner tree once, then the small z12
    table explodes 5x (bit-shift parent ids) and re-reduces — the coarser
    zooms never rescan the facts. The raster-pyramid / tileset-LOD rollup
    every map pipeline runs (tileset.json geometric-error levels,
    sinks/tileset.py)."""

    def explode(batch: pa.Table) -> pa.Table:
        x, y = _tile_xy(batch.column("k").to_numpy(), 12)
        n = batch.column("n").to_numpy()
        ks = np.arange(5, dtype=np.int64)
        rep = np.repeat(np.arange(len(x)), 5)
        k = np.tile(ks, len(x))
        return pa.table(
            {
                "z": pa.array(12 - k),
                "x": pa.array(x[rep] >> k),
                "y": pa.array(y[rep] >> k),
                "n": pa.array(n[rep]),
            }
        )

    return tree_group_agg(
        _tile_counts(sf_dir, 12).map_batches(explode, batch_format="pyarrow"),
        ["z", "x", "y"], {"n": ("n", "sum")},
    )


def _sql_tile_pyramid_rollup() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 4096) AS BIGINT) AS tile_x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0)
                     / 360.0) * 4096) AS BIGINT) AS tile_y
  FROM pts
), lv AS (SELECT UNNEST(range(0, 5)) AS k)
SELECT 12 - lv.k AS z, t.tile_x >> lv.k AS x, t.tile_y >> lv.k AS y,
       COUNT(*) AS n
FROM t CROSS JOIN lv
GROUP BY 1, 2, 3
"""


_SQL_TILE_PYRAMID_ROLLUP = _sql_tile_pyramid_rollup()


def q_snap_to_roads(sf_dir: str):
    """Rectilinear map-matching (stages/trajectory.py): every sampled
    point snaps to its exactly-nearest road segment (integer d2,
    (d2, sid) tie-break). Road network = L-decomposed consecutive-point
    segments of the bounded road-user set, broadcast once; zero
    exchanges."""
    from ..stages.trajectory import snap_to_roads

    return snap_to_roads(sf_dir)


def _sql_snap_to_roads() -> str:
    return """
WITH ev AS (
  SELECT user_id, event_id, ts,
         (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM events
), pairs AS (
  SELECT event_id AS sid0, x AS x1, y AS y1,
         LEAD(x) OVER w AS x2, LEAD(y) OVER w AS y2
  FROM ev WHERE user_id < 4
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), roads AS (
  SELECT sid0 * 2 AS sid, 0 AS axis,
         LEAST(x1, x2) AS lo, GREATEST(x1, x2) AS hi, y1 AS c
  FROM pairs WHERE x2 IS NOT NULL AND x1 <> x2
  UNION ALL
  SELECT sid0 * 2 + 1, 1, LEAST(y1, y2), GREATEST(y1, y2), x2
  FROM pairs WHERE x2 IS NOT NULL AND y1 <> y2
), pts AS (
  SELECT event_id, x, y FROM ev
  WHERE user_id >= 4 AND event_id % 4 = 0
), cand AS (
  SELECT p.event_id, r.sid,
         POWER(GREATEST(r.lo - (CASE WHEN r.axis = 0 THEN p.x ELSE p.y END),
                        (CASE WHEN r.axis = 0 THEN p.x ELSE p.y END) - r.hi,
                        0), 2)
         + POWER((CASE WHEN r.axis = 0 THEN p.y ELSE p.x END) - r.c, 2)
           AS d2f
  FROM pts p CROSS JOIN roads r
)
SELECT event_id, sid AS road_seg, CAST(d2f AS BIGINT) AS d2
FROM (
  SELECT event_id, sid, d2f,
         ROW_NUMBER() OVER (PARTITION BY event_id ORDER BY d2f, sid) AS rn
  FROM cand
) WHERE rn = 1
"""


_SQL_SNAP_TO_ROADS = _sql_snap_to_roads()


def q_road_corridor_count(sf_dir: str):
    """Corridor/buffer analysis (stages/trajectory.py): per road segment,
    the number of sampled points within radius 3000 — exact integer
    d2 <= r^2 probes against the broadcast road set, zero point
    exchanges, one tiny (road_seg, count) combiner."""
    from ..stages.trajectory import road_corridor_count

    return road_corridor_count(sf_dir)


_SQL_ROAD_CORRIDOR_COUNT = """
WITH ev AS (
  SELECT user_id, event_id, ts,
         (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM events
), pairs AS (
  SELECT event_id AS sid0, x AS x1, y AS y1,
         LEAD(x) OVER w AS x2, LEAD(y) OVER w AS y2
  FROM ev WHERE user_id < 4
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), roads AS (
  SELECT sid0 * 2 AS sid, 0 AS axis,
         LEAST(x1, x2) AS lo, GREATEST(x1, x2) AS hi, y1 AS c
  FROM pairs WHERE x2 IS NOT NULL AND x1 <> x2
  UNION ALL
  SELECT sid0 * 2 + 1, 1, LEAST(y1, y2), GREATEST(y1, y2), x2
  FROM pairs WHERE x2 IS NOT NULL AND y1 <> y2
), pts AS (
  SELECT event_id, x, y FROM ev
  WHERE user_id >= 4 AND event_id % 4 = 0
)
SELECT r.sid AS road_seg, COUNT(*) AS n_pts
FROM pts p CROSS JOIN roads r
WHERE POWER(GREATEST(r.lo - (CASE WHEN r.axis = 0 THEN p.x ELSE p.y END),
                     (CASE WHEN r.axis = 0 THEN p.x ELSE p.y END) - r.hi,
                     0), 2)
      + POWER((CASE WHEN r.axis = 0 THEN p.y ELSE p.x END) - r.c, 2)
      <= 9000000
GROUP BY 1
"""


def q_dwell_segments(sf_dir: str):
    """Stay-point (dwell) detection (stages/trajectory.py): maximal
    consecutive same-cell runs per user, kept at >= 2 points — the
    gaps-and-islands trajectory-mining primitive. One bucketed exchange;
    in-bucket segmentation is shifted-compare + cumsum + bincount."""
    from ..stages.trajectory import dwell_segments

    return dwell_segments(sf_dir)


_SQL_DWELL_SEGMENTS = """
WITH ev AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         ((event_id * 9973) % 240000) // 60000 AS cx,
         ((event_id * 7919) % 220000) // 55000 AS cy
  FROM events
), t AS (
  SELECT *, CASE WHEN LAG(cx) OVER w IS NULL
                 OR LAG(cx) OVER w <> cx OR LAG(cy) OVER w <> cy
            THEN 1 ELSE 0 END AS brk
  FROM ev
  WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
), r AS (
  SELECT *, SUM(brk) OVER (PARTITION BY user_id ORDER BY us, event_id
                           ROWS UNBOUNDED PRECEDING) AS run
  FROM t
)
SELECT user_id, cx AS cell_x, cy AS cell_y,
       COUNT(*) AS n_pts, MIN(us) AS start_us, MAX(us) AS end_us
FROM r GROUP BY user_id, cx, cy, run
HAVING COUNT(*) >= 2
"""


def q_od_matrix(sf_dir: str):
    """Origin-destination trip matrix (stages/trajectory.py): 30-min-gap
    sessions, first/last grid cell per session, trip counts per (o, d)
    cell pair. Bucketed session sweep + one tiny combiner exchange."""
    from ..stages.trajectory import od_matrix

    return od_matrix(sf_dir)


_SQL_OD_MATRIX = """
WITH ev AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         ((event_id * 9973) % 240000) // 60000 AS cx,
         ((event_id * 7919) % 220000) // 55000 AS cy
  FROM events
), t AS (
  SELECT *, CASE WHEN LAG(us) OVER w IS NULL
                 OR us - LAG(us) OVER w > 30 * 60 * 1000000
            THEN 1 ELSE 0 END AS new_sess
  FROM ev
  WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
), s AS (
  SELECT *, SUM(new_sess) OVER (PARTITION BY user_id ORDER BY us, event_id
                                ROWS UNBOUNDED PRECEDING) AS sid
  FROM t
), r AS (
  SELECT *,
         ROW_NUMBER() OVER (PARTITION BY user_id, sid
                            ORDER BY us, event_id) AS rn_a,
         ROW_NUMBER() OVER (PARTITION BY user_id, sid
                            ORDER BY us DESC, event_id DESC) AS rn_d
  FROM s
)
SELECT o.cx AS o_x, o.cy AS o_y, d.cx AS d_x, d.cy AS d_y,
       COUNT(*) AS n_trips
FROM (SELECT user_id, sid, cx, cy FROM r WHERE rn_a = 1) o
JOIN (SELECT user_id, sid, cx, cy FROM r WHERE rn_d = 1) d
  USING (user_id, sid)
GROUP BY 1, 2, 3, 4
"""


def q_coverage_gap_points(sf_dir: str):
    """Spatial anti-join coverage audit (stages/trajectory.py): sampled
    points farther than 3000 from every segment of the fixed 64-segment
    subnetwork (bounded, so gap density is scale-stable). Broadcast probe,
    zero exchanges, inverted keep condition vs road_corridor_count."""
    from ..stages.trajectory import coverage_gap_points

    return coverage_gap_points(sf_dir)


_SQL_COVERAGE_GAP_POINTS = """
WITH ev AS (
  SELECT user_id, event_id, ts,
         (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM events
), pairs AS (
  SELECT event_id AS sid0, x AS x1, y AS y1,
         LEAD(x) OVER w AS x2, LEAD(y) OVER w AS y2
  FROM ev WHERE user_id < 4
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), roads_all AS (
  SELECT sid0 * 2 AS sid, 0 AS axis,
         LEAST(x1, x2) AS lo, GREATEST(x1, x2) AS hi, y1 AS c
  FROM pairs WHERE x2 IS NOT NULL AND x1 <> x2
  UNION ALL
  SELECT sid0 * 2 + 1, 1, LEAST(y1, y2), GREATEST(y1, y2), x2
  FROM pairs WHERE x2 IS NOT NULL AND y1 <> y2
), roads AS (
  SELECT * FROM roads_all ORDER BY sid LIMIT 64
), pts AS (
  SELECT event_id, x, y FROM ev
  WHERE user_id >= 4 AND event_id % 4 = 0
), cand AS (
  SELECT p.event_id,
         POWER(GREATEST(r.lo - (CASE WHEN r.axis = 0 THEN p.x ELSE p.y END),
                        (CASE WHEN r.axis = 0 THEN p.x ELSE p.y END) - r.hi,
                        0), 2)
         + POWER((CASE WHEN r.axis = 0 THEN p.y ELSE p.x END) - r.c, 2)
           AS d2f
  FROM pts p CROSS JOIN roads r
)
SELECT event_id, CAST(MIN(d2f) AS BIGINT) AS d2
FROM cand GROUP BY 1
HAVING MIN(d2f) > 9000000
"""


def q_hex_bin_counts(sf_dir: str):
    """Hexagonal binning: every point snaps to the nearer of two staggered
    rectangular-lattice centers (exact int64 d2 compare, tie -> primary
    lattice) — the integer-exact hex tessellation aggregate map dashboards
    run. Per-batch assignment is pure vectorized arithmetic; one tiny
    (hx, hy) combiner exchange."""
    ds = _read(sf_dir, "events", ["event_id"])

    def assign(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy()
        x = (eid * 9973) % 240000
        y = (eid * 7919) % 220000
        cxa = ((x + 20000) // 40000) * 40000
        cya = ((y + 18000) // 36000) * 36000
        cxb = (x // 40000) * 40000 + 20000
        cyb = (y // 36000) * 36000 + 18000
        d2a = (x - cxa) ** 2 + (y - cya) ** 2
        d2b = (x - cxb) ** 2 + (y - cyb) ** 2
        a = d2a <= d2b
        return pa.table(
            {
                "hx": pa.array(np.where(a, cxa, cxb)),
                "hy": pa.array(np.where(a, cya, cyb)),
            }
        )

    return tree_group_agg(
        ds.map_batches(assign, batch_format="pyarrow"),
        ["hx", "hy"], {"n": (None, "count")},
    )


_SQL_HEX_BIN_COUNTS = """
WITH p AS (
  SELECT (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM events
), c AS (
  SELECT x, y,
         ((x + 20000) // 40000) * 40000 AS cxa,
         ((y + 18000) // 36000) * 36000 AS cya,
         (x // 40000) * 40000 + 20000 AS cxb,
         (y // 36000) * 36000 + 18000 AS cyb
  FROM p
), d AS (
  SELECT *,
         (x - cxa) * (x - cxa) + (y - cya) * (y - cya) AS d2a,
         (x - cxb) * (x - cxb) + (y - cyb) * (y - cyb) AS d2b
  FROM c
)
SELECT CASE WHEN d2a <= d2b THEN cxa ELSE cxb END AS hx,
       CASE WHEN d2a <= d2b THEN cya ELSE cyb END AS hy,
       COUNT(*) AS n
FROM d GROUP BY 1, 2
"""


def q_idw_interpolation(sf_dir: str):
    """Regularized inverse-distance-weighted surface interpolation onto
    an 8x8 grid of cell centers: every point contributes value * w and w
    with the INTEGER-quantized weight w = 2^40 // (d2 + 10^6) — exact,
    order-independent sums, so the distributed combiner is bit-identical
    to any execution order (plain float IDW would be batch-order
    dependent). Per-batch partials are one (n x 64) vectorized weight
    matrix + a 64-row reduction; one tiny combiner exchange. int64 bound:
    w <= 2^40/10^6 ~ 1.1e6, |v_c| <= ~1e4, safe to ~1e8 points per cell
    (sf ~ 10^2); beyond that drop the scale to 2^36."""
    ds = _read(sf_dir, "events", ["event_id", "value"])

    cx = (np.arange(8, dtype=np.int64) * 30000 + 15000)
    cy = (np.arange(8, dtype=np.int64) * 27500 + 13750)
    gx = np.repeat(cx, 8)
    gy = np.tile(cy, 8)

    def partial(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy()
        v_c = np.round(batch.column("value").to_numpy() * 100).astype(
            np.int64
        )
        x = (eid * 9973) % 240000
        y = (eid * 7919) % 220000
        d2 = (x[:, None] - gx[None, :]) ** 2 + (y[:, None] - gy[None, :]) ** 2
        wq = (np.int64(1) << 40) // (d2 + 1_000_000)
        return pa.table(
            {
                "gx": pa.array(gx),
                "gy": pa.array(gy),
                "num": pa.array((v_c[:, None] * wq).sum(axis=0)),
                "den": pa.array(wq.sum(axis=0)),
            }
        )

    agg = tree_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["gx", "gy"], {"num": ("num", "sum"), "den": ("den", "sum")},
    )

    def finish(batch: pa.Table) -> pa.Table:
        num = batch.column("num").to_numpy()
        den = batch.column("den").to_numpy()
        # truncating integer centi-value; den > 0 always (weights are
        # positive for every point against every cell)
        return batch.append_column("idw_c", pa.array(num // den))

    return agg.map_batches(finish, batch_format="pyarrow")


_SQL_IDW_INTERPOLATION = """
WITH grid AS (
  SELECT gi * 30000 + 15000 AS gx, gj * 27500 + 13750 AS gy
  FROM range(8) r1(gi) CROSS JOIN range(8) r2(gj)
), p AS (
  SELECT (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y,
         CAST(ROUND(value * 100) AS BIGINT) AS v_c
  FROM events
), c AS (
  SELECT gx, gy, v_c,
         (x - gx) * (x - gx) + (y - gy) * (y - gy) AS d2
  FROM p CROSS JOIN grid
), s AS (
  SELECT gx, gy,
         SUM(v_c * (1099511627776 // (d2 + 1000000))) AS num,
         SUM(1099511627776 // (d2 + 1000000)) AS den
  FROM c GROUP BY 1, 2
)
SELECT gx, gy, num, den, num // den AS idw_c FROM s
"""


def q_basket_pairs(sf_dir: str, min_support: int = 2):
    """Market-basket co-occurrence mining: distinct part pairs inside each
    order basket, counted across baskets, pruned at ``min_support``. One
    bucketed exchange keyed by orderkey (a pair must see its whole
    basket); in-bucket enumeration is a vectorized self-merge (baskets
    are bounded at 7 lines in TPC-H, so the merge blowup is ~k^2 <= 49
    per order); per-bucket partial counts feed one tiny combiner. The
    Apriori-style first pass every recsys/assortment pipeline runs."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"ok": batch.column("l_orderkey"), "pk": batch.column("l_partkey")}
        )

    def pairs(g: pd.DataFrame) -> pa.Table:
        b = g[["ok", "pk"]].drop_duplicates()
        m = b.merge(b, on="ok")
        m = m[m["pk_x"] < m["pk_y"]]
        out = (
            m.groupby(["pk_x", "pk_y"], as_index=False)
            .size()
            .rename(
                columns={"pk_x": "part_a", "pk_y": "part_b", "size": "support"}
            )
        )
        out["support"] = out["support"].astype(np.int64)
        # metadata-free: the pandas schema blob is unhashable and defeats
        # Ray's block-schema dedup (the r2 regression root cause)
        from ..stages.treeagg import clean_arrow

        return clean_arrow(out)

    agg = tree_group_agg(
        grouped_apply(
            ds.map_batches(prep, batch_format="pyarrow"), ["ok"], pairs
        ),
        ["part_a", "part_b"], {"support": ("support", "sum")},
    )

    def prune(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pa.compute.greater_equal(batch.column("support"), min_support)
        )

    return agg.map_batches(prune, batch_format="pyarrow")


_SQL_BASKET_PAIRS = """
WITH b AS (
  SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk FROM lineitem
)
SELECT a.pk AS part_a, c.pk AS part_b, COUNT(*) AS support
FROM b a JOIN b c ON a.ok = c.ok AND a.pk < c.pk
GROUP BY 1, 2
HAVING COUNT(*) >= 2
"""


def q_seasonal_profile(sf_dir: str):
    """Hour-of-day seasonal profile per event type: exact int64
    (n, sum_vc, sum_vc2) so any consumer derives mean/variance without
    float re-aggregation; hour from pure epoch arithmetic shared verbatim
    with the SQL twin (no EXTRACT timezone semantics in the compare).
    Pure combiner — zero wide exchanges."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        v_c = np.round(batch.column("value").to_numpy() * 100).astype(
            np.int64
        )
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hod": pa.array((us // 3_600_000_000) % 24),
                "vc": pa.array(v_c),
                "vc2": pa.array(v_c * v_c),
            }
        )

    return tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hod"],
        {"n": (None, "count"), "sum_vc": ("vc", "sum"),
         "sum_vc2": ("vc2", "sum")},
    )


_SQL_SEASONAL_PROFILE = """
WITH p AS (
  SELECT event_type,
         (epoch_us(ts) // 3600000000) % 24 AS hod,
         CAST(ROUND(value * 100) AS BIGINT) AS vc
  FROM events
)
SELECT event_type, hod, COUNT(*) AS n,
       SUM(vc) AS sum_vc, SUM(vc * vc) AS sum_vc2
FROM p GROUP BY 1, 2
"""


_SSSP_ROUNDS = 6
_SSSP_INF = np.int64(1) << 40


def q_sssp_weighted(sf_dir: str, local_max_edges: int = 2_000_000):
    """Weighted single-source-set shortest path over the near-dup pair
    graph (the Bellman-Ford sibling of bfs_hops): edge weight
    (doc_a + doc_b) % 7 + 1, seeds doc_id % 50 == 0 at distance 0,
    _SSSP_ROUNDS relaxation rounds, unreached -1. Each distributed round
    is ONE hash-join exchange + a min combiner tree; below
    ``local_max_edges`` the rounds run on driver arrays (vectorized
    np.minimum.at), force-tested equal to the distributed path."""
    import ray.data

    from ..stages.dedup import ngram_jaccard_blocked
    from ..stages.treeagg import tree_group_agg

    pairs = ngram_jaccard_blocked(sf_dir).select_columns(
        ["doc_a", "doc_b"]
    ).materialize()

    if pairs.count() * 2 <= local_max_edges:
        pt = pairs.to_pandas()
        a = pt["doc_a"].to_numpy()
        b = pt["doc_b"].to_numpy()
        w1 = (a + b) % 7 + 1
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        w = np.concatenate([w1, w1])
        nodes, src_ix = np.unique(src, return_inverse=True)
        dst_ix = np.searchsorted(nodes, dst)
        dist = np.where(nodes % 50 == 0, np.int64(0), _SSSP_INF)
        for _ in range(_SSSP_ROUNDS):
            np.minimum.at(dist, dst_ix, dist[src_ix] + w)
        out = np.where(dist >= _SSSP_INF, np.int64(-1), dist)
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array(nodes), "dist": pa.array(out)})
        )

    def sym(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        w1 = (a + b) % 7 + 1
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
                "w": pa.array(np.concatenate([w1, w1])),
            }
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    def init_dist(t: pa.Table) -> pa.Table:
        n = t.column("src").to_numpy()
        d = np.where(n % 50 == 0, np.int64(0), _SSSP_INF)
        return pa.table({"node": t.column("src"), "dist": pa.array(d)})

    dist = tree_group_agg(
        edges.map_batches(init_dist, batch_format="pyarrow"),
        ["node"], {"dist": ("dist", "min")},
    ).materialize()

    for _ in range(_SSSP_ROUNDS):
        cand = edges.join(
            dist, "inner", num_partitions=JOIN_PARTS,
            on=("src",), right_on=("node",),
        )

        def step(batch: pa.Table) -> pa.Table:
            d = batch.column("dist").to_numpy()
            w = batch.column("w").to_numpy()
            return pa.table(
                {"node": batch.column("dst"), "dist": pa.array(d + w)}
            )

        dist = tree_group_agg(
            dist.union(cand.map_batches(step, batch_format="pyarrow")),
            ["node"], {"dist": ("dist", "min")},
        ).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        d = batch.column("dist").to_numpy()
        return pa.table(
            {
                "doc_id": batch.column("node"),
                "dist": pa.array(np.where(d >= _SSSP_INF, np.int64(-1), d)),
            }
        )

    return dist.map_batches(finish, batch_format="pyarrow")


def _sql_sssp_weighted() -> str:
    inf = int(_SSSP_INF)
    steps = []
    for k in range(_SSSP_ROUNDS):
        steps.append(f""", d{k + 1} AS (
  SELECT node, MIN(d) AS d FROM (
    SELECT node, d FROM d{k}
    UNION ALL
    SELECT e.dst, d{k}.d + e.w FROM e JOIN d{k} ON d{k}.node = e.src
  ) GROUP BY 1
)""")
    return (
        f"""WITH {_SQL_DUP_PAIRS_CTE}, e AS (
  SELECT doc_a AS src, doc_b AS dst, (doc_a + doc_b) % 7 + 1 AS w FROM p
  UNION ALL
  SELECT doc_b, doc_a, (doc_a + doc_b) % 7 + 1 FROM p
), n AS (SELECT DISTINCT src AS node FROM e),
d0 AS (
  SELECT node, CASE WHEN node % 50 = 0 THEN 0
                    ELSE CAST({inf} AS BIGINT) END AS d
  FROM n
)"""
        + "".join(steps)
        + f"""
SELECT node AS doc_id,
       CASE WHEN d >= {inf} THEN -1 ELSE d END AS dist
FROM d{_SSSP_ROUNDS}
"""
    )


_SQL_SSSP_WEIGHTED = _sql_sssp_weighted()


def q_track_dtw_pairs(sf_dir: str):
    """DTW track-similarity join (stages/trajectory.py): fixed-length
    user tracks, start-cell blocking, exact integer DTW vectorized across
    each cell's pairs. Rows-only (DTW's DP recurrence is not
    SQL-expressible); pinned against a scalar DP in pytest."""
    from ..stages.trajectory import track_dtw_pairs

    return track_dtw_pairs(sf_dir)


# ---------------------------------------------------------------------------
# Wave 12: A/B test stats (Welch t), CSV source lane, polygon-dissolve
# analogue (connected regions of occupied grid cells).


def q_ab_test_stats(sf_dir: str):
    """A/B experiment readout per event_type: variant = user_id % 2, metric
    = value cents. ONE combiner-tree exchange carries six exact int64 sums
    (n/s/ss per variant as conditional columns — no pivot exchange); the
    Welch t statistic and mean difference are single mirrored float
    expressions over them. The eval-metrics sibling of auc_exact /
    psi_drift."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        a = (batch.column("user_id").to_numpy() % 2 == 0).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n_a": pa.array(a),
                "s_a": pa.array(a * v),
                "ss_a": pa.array(a * v * v),
                "n_b": pa.array(1 - a),
                "s_b": pa.array((1 - a) * v),
                "ss_b": pa.array((1 - a) * v * v),
            }
        )

    agg = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type"],
        {k: (k, "sum") for k in ("n_a", "s_a", "ss_a", "n_b", "s_b", "ss_b")},
    )

    def fit(batch: pa.Table) -> pa.Table:
        f = {
            c: batch.column(c).to_numpy().astype(np.float64)
            for c in ("n_a", "s_a", "ss_a", "n_b", "s_b", "ss_b")
        }
        # EXPRESSIONS MIRRORED IN THE ORACLE — do not reorder
        mean_a = f["s_a"] / f["n_a"]
        mean_b = f["s_b"] / f["n_b"]
        var_a = (f["ss_a"] - f["s_a"] * f["s_a"] / f["n_a"]) / (f["n_a"] - 1)
        var_b = (f["ss_b"] - f["s_b"] * f["s_b"] / f["n_b"]) / (f["n_b"] - 1)
        t = (mean_a - mean_b) / np.sqrt(var_a / f["n_a"] + var_b / f["n_b"])
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n_a": batch.column("n_a"),
                "n_b": batch.column("n_b"),
                "mean_diff": pa.array(mean_a - mean_b),
                "t_stat": pa.array(t),
            }
        )

    return agg.map_batches(fit, batch_format="pyarrow")


_SQL_AB_TEST_STATS = """
WITH b AS (
  SELECT event_type,
         CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END AS a,
         CAST(ROUND(value * 100) AS BIGINT) AS v
  FROM events
), s AS (
  SELECT event_type,
         SUM(a) AS n_a, SUM(a * v) AS s_a, SUM(a * v * v) AS ss_a,
         SUM(1 - a) AS n_b, SUM((1 - a) * v) AS s_b,
         SUM((1 - a) * v * v) AS ss_b
  FROM b GROUP BY 1
)
SELECT event_type, n_a, n_b,
       CAST(s_a AS DOUBLE) / CAST(n_a AS DOUBLE)
         - CAST(s_b AS DOUBLE) / CAST(n_b AS DOUBLE) AS mean_diff,
       (CAST(s_a AS DOUBLE) / CAST(n_a AS DOUBLE)
         - CAST(s_b AS DOUBLE) / CAST(n_b AS DOUBLE))
       / SQRT(
           ((CAST(ss_a AS DOUBLE)
             - CAST(s_a AS DOUBLE) * CAST(s_a AS DOUBLE)
               / CAST(n_a AS DOUBLE)) / (CAST(n_a AS DOUBLE) - 1))
             / CAST(n_a AS DOUBLE)
         + ((CAST(ss_b AS DOUBLE)
             - CAST(s_b AS DOUBLE) * CAST(s_b AS DOUBLE)
               / CAST(n_b AS DOUBLE)) / (CAST(n_b AS DOUBLE) - 1))
             / CAST(n_b AS DOUBLE)
         ) AS t_stat
FROM s
"""


def q_csv_source_stats(sf_dir: str):
    """CSV source lane: the documents metadata columns round-trip through
    CSV shards (written once to /tmp, resumable via _SUCCESS) and read
    back with ``ray.data.read_csv`` — the second non-parquet source proof
    next to jsonl_source_stats — then aggregate per lang. Oracle reads the
    parquet view directly: identical iff the CSV round-trip is
    lossless."""
    import os

    import pyarrow.parquet as pq

    sf_tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = f"/tmp/plateau_ray_data/csv_{sf_tag}"
    marker = os.path.join(out_dir, "_SUCCESS")
    if not os.path.exists(marker):
        os.makedirs(out_dir, exist_ok=True)
        t = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "lang", "n_chars"],
        )
        df = t.to_pandas()
        shards = max(1, min(8, len(df) // 2000))
        for i, part in enumerate(np.array_split(df, shards)):
            tmp = os.path.join(out_dir, f".part-{i:04d}.csv.tmp")
            part.to_csv(tmp, index=False)
            os.replace(tmp, os.path.join(out_dir, f"part-{i:04d}.csv"))
        with open(marker, "w") as f:
            f.write("ok")
    import ray.data

    files = sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.endswith(".csv")
    )
    ds = ray.data.read_csv(files)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_chars": batch.column("n_chars").cast(pa.int64()),
                "doc_id": batch.column("doc_id").cast(pa.int64()),
            }
        )

    return tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["lang"],
        {
            "n_docs": (None, "count"),
            "sum_chars": ("n_chars", "sum"),
            "min_doc": ("doc_id", "min"),
            "max_doc": ("doc_id", "max"),
        },
    )


_SQL_CSV_SOURCE_STATS = """
SELECT lang, COUNT(*) AS n_docs, SUM(n_chars) AS sum_chars,
       MIN(doc_id) AS min_doc, MAX(doc_id) AS max_doc
FROM documents GROUP BY 1
"""


def q_tile_dissolve_regions(sf_dir: str, local_max_edges: int = 20_000_000):
    """Polygon dissolve, raster flavor: occupied grid cells merge into
    4-connected REGIONS (the GIS dissolve/union-by-touch operation; region
    id = min cell id, singletons keep their own id). The cell size is
    density-adaptive — floor(sqrt(0.15 * domain_area / n)) targets ~15%
    site occupancy at every scale, the sub-critical percolation regime
    where regions stay small (metadata count only, no data pass; the
    identical expression computes in the oracle). Plan: parallel
    grouped-distinct on the packed cell id, ONE scatter-claim exchange
    builds adjacency edges (each cell emits itself + claims on its right
    and lower neighbors — edges appear exactly once, no self-join), CC via
    stages/graph.py, and one final bucketed label-attach exchange with
    own-id fallback for singleton cells."""
    from ..stages.graph import connected_components
    from ..stages.treeagg import grouped_distinct

    _W = 8192  # packed-grid row stride (> 240000 / smallest cell size)
    ds = _read(sf_dir, "events", ["event_id"])
    n = ds.count()
    cell = int(np.floor(np.sqrt(0.15 * 240000.0 * 220000.0 / n)))

    def prep(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy()
        x = (eid * 9973) % 240000
        y = (eid * 7919) % 220000
        return pa.table({"tid": pa.array((x // cell) * _W + y // cell)})

    tiles = grouped_distinct(
        ds.map_batches(prep, batch_format="pyarrow"), ["tid"]
    ).materialize()

    def scatter(batch: pa.Table) -> pa.Table:
        tid = batch.column("tid").to_numpy()
        own = pa.table(
            {
                "pk": pa.array(tid),
                "claim": pa.array(np.full(len(tid), -1, dtype=np.int64)),
            }
        )
        right = pa.table(
            {"pk": pa.array(tid + _W), "claim": pa.array(tid)}
        )
        nw = tid[tid % _W != _W - 1]
        down = pa.table({"pk": pa.array(nw + 1), "claim": pa.array(nw)})
        return pa.concat_tables([own, right, down])

    def to_edges(g: pd.DataFrame) -> pa.Table:
        pk = g["pk"].to_numpy()
        cl = g["claim"].to_numpy()
        own_pk = np.sort(pk[cl == -1])
        m = cl != -1
        pkm, clm = pk[m], cl[m]
        pos = np.searchsorted(own_pk, pkm)
        pos = np.clip(pos, 0, max(len(own_pk) - 1, 0))
        hit = (own_pk[pos] == pkm) if len(own_pk) else np.zeros(
            len(pkm), dtype=bool
        )
        return pa.table(
            {"u": pa.array(clm[hit]), "v": pa.array(pkm[hit])}
        )

    edges = grouped_apply(
        tiles.map_batches(scatter, batch_format="pyarrow"), ["pk"], to_edges
    )
    labels = connected_components(
        edges, src="u", dst="v", local_max_edges=local_max_edges
    )

    def lab_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": batch.column("doc_id").cast(pa.int64()),
                "region": batch.column("comp").cast(pa.int64()),
            }
        )

    def tile_rows(batch: pa.Table) -> pa.Table:
        t = batch.column("tid").to_numpy()
        return pa.table(
            {
                "k": pa.array(t),
                "region": pa.array(np.full(len(t), -1, dtype=np.int64)),
            }
        )

    def resolve(g: pd.DataFrame) -> pa.Table:
        t = g[g["region"].to_numpy() == -1][["k"]]
        lab = g[g["region"].to_numpy() != -1]
        m = t.merge(lab, on="k", how="left")
        region = m["region"].fillna(m["k"]).astype(np.int64)
        return pa.table(
            {"tid": pa.array(m["k"].to_numpy()), "region": pa.array(region)}
        )

    return grouped_apply(
        tiles.map_batches(tile_rows, batch_format="pyarrow")
        .union(labels.map_batches(lab_rows, batch_format="pyarrow")),
        ["k"], resolve,
    )


_SQL_TILE_DISSOLVE_REGIONS = """
WITH RECURSIVE nn AS (SELECT COUNT(*) AS n FROM events),
s AS (
  SELECT CAST(FLOOR(SQRT(0.15 * 240000.0 * 220000.0 / n)) AS BIGINT) AS cell
  FROM nn
),
t AS (
  SELECT DISTINCT ((event_id * 9973) % 240000) // s.cell * 8192
         + ((event_id * 7919) % 220000) // s.cell AS tid
  FROM events, s
),
e AS (
  SELECT a.tid AS u, b.tid AS v FROM t a JOIN t b ON b.tid = a.tid + 8192
  UNION ALL
  SELECT a.tid, b.tid FROM t a JOIN t b ON b.tid = a.tid + 1
  WHERE a.tid % 8192 <> 8191
),
sym AS (SELECT u, v FROM e UNION ALL SELECT v, u FROM e),
reach AS (
  SELECT u, v FROM sym
  UNION
  SELECT r.u, s2.v FROM reach r JOIN sym s2 ON r.v = s2.u
),
lab AS (SELECT u AS tid, LEAST(u, MIN(v)) AS region FROM reach GROUP BY u)
SELECT t.tid, COALESCE(lab.region, t.tid) AS region
FROM t LEFT JOIN lab ON lab.tid = t.tid
"""


# ---------------------------------------------------------------------------
# Wave 15: sequence analytics, sketch-pruned heavy hitters, recursive closure


def q_transition_matrix(sf_dir: str):
    """Markov transition counts over per-user event sequences: one
    keyed exchange on user_id, in-group (user, ts, event_id) sort +
    shifted compare yields adjacent (from, to) pairs, per-group partial
    counts feed a tiny (from, to) combiner. The 5x5 output is the
    next-event transition matrix a sequence-model curriculum needs."""
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def pairs(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy(dtype=object)
        same = u[1:] == u[:-1]
        out = (
            pd.DataFrame({"from_type": et[:-1][same], "to_type": et[1:][same]})
            .groupby(["from_type", "to_type"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        out["n"] = out["n"].astype(np.int64)
        return clean_arrow(out)

    parts = grouped_apply(ds, ["user_id"], pairs)
    return tree_group_agg(parts, ["from_type", "to_type"], {"n": ("n", "sum")})


_SQL_TRANSITION_MATRIX = """
WITH w AS (
  SELECT user_id, event_type AS from_type,
         LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS to_type
  FROM events
)
SELECT from_type, to_type, CAST(COUNT(*) AS BIGINT) AS n
FROM w WHERE to_type IS NOT NULL GROUP BY 1, 2
"""


def q_attribution_credit(sf_dir: str):
    """Last-touch marketing attribution: each 'purchase' is credited to
    the same user's most recent PRIOR 'click'/'view' (strict (ts,
    event_id) order; none -> 'direct'). One bucketed exchange; in-bucket
    the last-touch pointer is a segmented running max (np.maximum
    .accumulate over touch indices, reset at user boundaries via the
    segment-start compare), so no per-purchase scan. Output: per-channel
    purchase count + attributed revenue (cents, exact)."""
    from ..stages.treeagg import clean_arrow

    ds = _read(
        sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "vc": pa.array(vc),
            }
        )

    def sweep(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "us", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy(dtype=object)
        vc = g["vc"].to_numpy()
        n = len(g)
        touch = (et == "click") | (et == "view")
        idx = np.where(touch, np.arange(n), -1)
        cm = np.maximum.accumulate(idx)
        new_user = np.r_[True, u[1:] != u[:-1]]
        seg_start = np.nonzero(new_user)[0][np.cumsum(new_user) - 1]
        valid = cm >= seg_start  # a carried index from a previous user
        pi = np.nonzero(et == "purchase")[0]  # sorts below its seg start
        chan = np.where(valid[pi], et[np.maximum(cm[pi], 0)], "direct")
        out = (
            pd.DataFrame({"channel": chan, "vc": vc[pi]})
            .groupby("channel", as_index=False)
            .agg(n=("vc", "size"), sum_value_c=("vc", "sum"))
        )
        out["n"] = out["n"].astype(np.int64)
        out["sum_value_c"] = out["sum_value_c"].astype(np.int64)
        return clean_arrow(out)

    parts = grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"], sweep
    )
    return tree_group_agg(
        parts, ["channel"],
        {"n": ("n", "sum"), "sum_value_c": ("sum_value_c", "sum")},
    )


_SQL_ATTRIBUTION_CREDIT = """
WITH p AS (
  SELECT user_id, ts, event_id, value FROM events
  WHERE event_type = 'purchase'
),
t AS (
  SELECT user_id, ts, event_id, event_type FROM events
  WHERE event_type IN ('click', 'view')
),
j AS (
  SELECT p.event_id AS pe, p.value AS pv,
         t.event_type AS tt, t.ts AS tts, t.event_id AS te
  FROM p LEFT JOIN t
    ON t.user_id = p.user_id
   AND (t.ts < p.ts OR (t.ts = p.ts AND t.event_id < p.event_id))
),
best AS (
  SELECT pe, pv, COALESCE(tt, 'direct') AS channel,
         ROW_NUMBER() OVER (
           PARTITION BY pe ORDER BY tts DESC NULLS LAST, te DESC
         ) AS rn
  FROM j
)
SELECT channel, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(pv * 100) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM best WHERE rn = 1 GROUP BY 1
"""


def q_sliding_distinct_users(sf_dir: str):
    """Trailing 3-hour distinct active users per hour — the sliding
    count-distinct window SQL cannot express with a plain window frame.
    Plan: distinct (user, hour) with a combiner (the only exchange that
    sees full cardinality), fan each out to the 3 windows it feeds,
    distinct again, count per window. Every stage after the first
    distinct is per-user-hour rows, far smaller than the event stream."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "h": pa.array(us // 3_600_000_000),
            }
        )

    uh = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id", "h"], {"n": (None, "count")},
    )

    def fanout(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy()
        h = batch.column("h").to_numpy()
        return pa.table(
            {
                "user_id": pa.array(np.tile(u, 3)),
                "wh": pa.array(np.concatenate([h, h + 1, h + 2])),
            }
        )

    uw = tree_group_agg(
        uh.map_batches(fanout, batch_format="pyarrow"),
        ["user_id", "wh"], {"n": (None, "count")},
    )

    def lab(batch: pa.Table) -> pa.Table:
        wh = batch.column("wh").to_numpy()
        return pa.table({"win_end_s": pa.array(wh * 3600)})

    return tree_group_agg(
        uw.map_batches(lab, batch_format="pyarrow"),
        ["win_end_s"], {"n_users": (None, "count")},
    )


_SQL_SLIDING_DISTINCT_USERS = """
WITH uh AS (
  SELECT DISTINCT user_id,
         CAST(FLOOR(EPOCH(ts) / 3600) AS BIGINT) AS h
  FROM events
),
f AS (
  SELECT DISTINCT user_id, h + i AS wh
  FROM uh, (SELECT UNNEST([0, 1, 2]) AS i) off
)
SELECT wh * 3600 AS win_end_s, CAST(COUNT(*) AS BIGINT) AS n_users
FROM f GROUP BY 1
"""


def q_target_encoding(sf_dir: str, m: int = 100):
    """Smoothed target-mean encoding of p_brand against line revenue —
    the category-feature encoder of a tabular-ML feature pipeline.
    enc = (sum_b*N + m*SUM_g) / ((n_b+m)*N): all-integer numerator and
    denominator (cents), ONE final double division, so distributed ==
    SQL bit-for-bit. Brand attach is a broadcast-dim IntLookup (map-side,
    no exchange); the per-brand (n, sum) is a pure combiner. At 10^12
    rows the int64 products need the 128-bit split (sum is bounded by
    rows * max_cents); DuckDB's HUGEINT side already is."""
    from ..kernels.lookup import IntLookup

    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]).to_pandas()
    lk = IntLookup(
        part["p_partkey"].to_numpy(), part["p_brand"].astype(str).tolist()
    )
    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy()
        vc = np.round(
            batch.column("l_extendedprice").to_numpy() * 100
        ).astype(np.int64)
        return pa.table({"p_brand": lk.gather(pk), "vc": pa.array(vc)})

    agg = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["p_brand"], {"n": (None, "count"), "s": ("vc", "sum")},
    ).to_pandas()
    gn = int(agg["n"].sum())
    gs = int(agg["s"].sum())
    num = agg["s"].to_numpy() * gn + m * gs
    den = (agg["n"].to_numpy() + m) * gn
    return pd.DataFrame(
        {
            "p_brand": agg["p_brand"],
            "n": agg["n"].astype(np.int64),
            "enc": num.astype(np.float64) / den.astype(np.float64),
        }
    )


_SQL_TARGET_ENCODING = """
WITH b AS (
  SELECT p_brand, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS s
  FROM lineitem JOIN part ON l_partkey = p_partkey
  GROUP BY 1
),
g AS (SELECT CAST(SUM(n) AS BIGINT) AS gn, CAST(SUM(s) AS BIGINT) AS gs
      FROM b)
SELECT p_brand, n,
       CAST(s * gn + 100 * gs AS DOUBLE)
         / CAST((n + 100) * gn AS DOUBLE) AS enc
FROM b, g
"""


def q_heavy_hitters_cms(sf_dir: str, threshold: int = 80):
    """Heavy hitters (count >= 80) over event users via count-min sketch
    pruning: sketch pass (linear d x w partials, nothing wide moves) ->
    candidate pass (CMS overestimates, so est >= T is a guaranteed
    superset) -> exact recount of the tiny candidate set. Output counts
    are EXACT — the sketch only prunes (stages/cms.py)."""
    from ..stages.cms import heavy_hitters

    ds = _read(sf_dir, "events", ["user_id"])
    return heavy_hitters(ds, "user_id", threshold)


_SQL_HEAVY_HITTERS_CMS = """
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1 HAVING COUNT(*) >= 80
"""


def q_bom_explode(sf_dir: str):
    """Recursive bill-of-materials closure — depth of every part in the
    derived assembly forest parent(k) = lehmer(k) % k (root: part 0) —
    by POINTER DOUBLING: log2(max_depth) self-join rounds, each a
    size-gated auto_join (broadcast at test scale, hash-shuffle at
    10^12-part scale) over the materialized jump table J[k] = (anc, dep)
    where anc is reached from k in dep edges. Root rows are natural
    fixpoints (J[0] = (0, 0)), so no done/pending split is needed; the
    loop stops when max(anc) == 0. The oracle walks the same recurrence
    one edge per row as a DuckDB WITH RECURSIVE twin."""
    from ..stages.joins import auto_join

    parts = _read(sf_dir, "part", ["p_partkey"])

    def init(batch: pa.Table) -> pa.Table:
        k = batch.column("p_partkey").to_numpy()
        h = (k % 2147483648) * 48271 % 2147483647
        anc = np.where(k > 0, h % np.maximum(k, 1), 0)
        dep = (k > 0).astype(np.int64)
        return pa.table(
            {"k": pa.array(k), "anc": pa.array(anc), "dep": pa.array(dep)}
        )

    J = parts.map_batches(init, batch_format="pyarrow").materialize()

    def step(batch: pa.Table) -> pa.Table:
        dep = batch.column("dep").to_numpy() + batch.column("jdep").to_numpy()
        return pa.table(
            {
                "k": batch.column("k"),
                "anc": batch.column("janc"),
                "dep": pa.array(dep),
            }
        )

    for _ in range(64):
        if int(J.max("anc")) == 0:
            break
        jump = J.rename_columns({"k": "jk", "anc": "janc", "dep": "jdep"})
        J = (
            auto_join(J, jump, on=("anc",), right_on=("jk",),
                      num_partitions=JOIN_PARTS)
            .map_batches(step, batch_format="pyarrow")
            .materialize()
        )

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"p_partkey": batch.column("k"), "depth": batch.column("dep")}
        )

    return J.map_batches(fin, batch_format="pyarrow")


_SQL_BOM_EXPLODE = """
WITH RECURSIVE walk(k, anc, dep) AS (
  SELECT p_partkey,
         CASE WHEN p_partkey = 0 THEN 0
              ELSE ((p_partkey % 2147483648) * 48271 % 2147483647)
                   % p_partkey END,
         CASE WHEN p_partkey = 0 THEN 0 ELSE 1 END
  FROM part
  UNION ALL
  SELECT k, ((anc % 2147483648) * 48271 % 2147483647) % anc, dep + 1
  FROM walk WHERE anc <> 0
)
SELECT k AS p_partkey, CAST(MAX(dep) AS BIGINT) AS depth
FROM walk GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Wave 16: spatial autocorrelation, ViT patching, embedding quantization


def q_morans_i(sf_dir: str):
    """Global Moran's I spatial autocorrelation of z10 tile event counts
    (8-neighbor queen weights, w_ij = 1) — the hotspot diagnostic a
    geospatial curation pipeline runs before density-balanced sampling.

    Plan: the facts reduce once to per-tile counts, then the
    ``_queen_stencil`` gives every occupied tile p its count x_p, its
    neighbor-count sum s_p and its occupied-neighbor degree d_p. Every
    Moran moment is then an exact integer sum (N, S1 = sum x, S2 = sum x^2,
    A = sum x_p*s_p, B = 2*sum d_p*x_p, W = sum d_p), assembled on the
    driver with arbitrary-precision Python ints, so the single final double
    division

        I = (A*N^2 - S1*N*B + S1^2*W) / (W * (S2*N - S1^2))

    is the one mirrored expression and distributed == SQL bit-for-bit
    (the DuckDB side keeps the sums HUGEINT). The int64 per-batch partials
    raise past the ``_guard_moments`` bound."""
    mom = _tile_moments(
        _queen_stencil(_tile_counts(sf_dir, 10)),
        a=lambda t: t["c"] * t["s"],
        dx2=lambda t: 2 * t["d"] * t["c"],
        w=lambda t: t["d"],
    )
    # sum c·s <= 8·max(n)·N and 2·sum d·c <= 16·N: both under 16·max(n)·N
    _guard_moments("morans_i", mom["cmax"], mom["s1"], 16)
    nt, s1, s2 = mom["nt"], mom["s1"], mom["s2"]
    a, b, w = mom["a"], mom["dx2"], mom["w"]
    num = a * nt * nt - s1 * nt * b + s1 * s1 * w
    den = w * (s2 * nt - s1 * s1)
    return pd.DataFrame(
        {
            "n_tiles": np.array([nt], np.int64),
            "w_pairs": np.array([w], np.int64),
            "morans_i": np.array([float(num) / float(den)], np.float64),
        }
    )


# pytest flips this to force the distributed peel path (fast-path parity)
_KCORE_FORCE_DISTRIBUTED = False


def q_k_core(sf_dir: str, k: int = 3, rounds: int = 16):
    """k-core decomposition of the co-purchase graph (parts co-occurring
    in >= 2 order baskets, the ``basket_pairs`` edge set) — the dense-
    community extraction a recsys curation pipeline runs to separate
    catalogue staples from long-tail noise.

    Operator contract: exactly ``rounds`` peel applications (each drops
    every node whose degree < k, then re-filters edges) — peeling is
    idempotent at fixpoint, so once converged the remaining rounds are
    no-ops and the result IS the true k-core; pytest asserts fixpoint is
    reached within the budget at the tested scales (max observed: 10
    rounds at sf0.01). Distributed plan: per-round degree = one combiner
    tree over the symmetric edge list; survivors are a node-bounded
    driver array (dim-table-sized, like every broadcast lookup in the
    repo) shipped once per round into a vectorized searchsorted edge
    filter. The SQL twin unrolls the same ``rounds`` as MATERIALIZED
    CTEs (materialization forced — each round references its
    predecessor three times and inlining would blow up 3^rounds)."""
    import ray.data

    pairs = q_basket_pairs(sf_dir, min_support=2)

    def sym(batch: pa.Table) -> pa.Table:
        a = batch.column("part_a").to_numpy()
        b = batch.column("part_b").to_numpy()
        return pa.table(
            {
                "u": pa.array(np.concatenate([a, b])),
                "v": pa.array(np.concatenate([b, a])),
            }
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    # size-gated driver fast path (sssp_weighted precedent): peel rounds
    # over a sub-2M-edge graph are pure fixed cost as Dataset ops; the
    # distributed path below is force-tested equal in pytest
    if not _KCORE_FORCE_DISTRIBUTED and edges.count() <= 2_000_000:
        et = edges.to_pandas()
        s = et["u"].to_numpy()
        d = et["v"].to_numpy()
        for _ in range(rounds):
            if len(s) == 0:
                break
            nodes, cnt = np.unique(s, return_counts=True)
            surv = nodes[cnt >= k]
            if len(surv) == len(nodes):
                break

            def memb(x):
                if len(surv) == 0:
                    return np.zeros(len(x), bool)
                p = np.minimum(np.searchsorted(surv, x), len(surv) - 1)
                return surv[p] == x

            m = memb(s) & memb(d)
            s, d = s[m], d[m]
        if len(s) == 0:
            return pd.DataFrame(
                {"part_id": np.array([], np.int64),
                 "core_deg": np.array([], np.int64)}
            )
        nodes, cnt = np.unique(s, return_counts=True)
        return pd.DataFrame(
            {"part_id": nodes.astype(np.int64),
             "core_deg": cnt.astype(np.int64)}
        )

    empty = None
    for _ in range(rounds):
        deg = tree_group_agg(
            edges, ["u"], {"deg": (None, "count")}
        ).to_pandas()
        surv = np.sort(deg.loc[deg["deg"] >= k, "u"].to_numpy())
        if len(surv) == len(deg):
            break  # fixpoint: every remaining node already has deg >= k
        if len(surv) == 0:
            empty = True
            break

        def filt(batch: pa.Table, surv=surv) -> pa.Table:
            def memb(x):
                p = np.minimum(np.searchsorted(surv, x), len(surv) - 1)
                return surv[p] == x

            u = batch.column("u").to_numpy()
            v = batch.column("v").to_numpy()
            return batch.filter(pa.array(memb(u) & memb(v)))

        edges = edges.map_batches(filt, batch_format="pyarrow").materialize()

    # typed seed keeps the schema contract when the core is empty
    seed = ray.data.from_arrow(
        pa.table(
            {"part_id": pa.array([], pa.int64()),
             "core_deg": pa.array([], pa.int64())}
        )
    )
    if empty:
        return seed

    final = tree_group_agg(edges, ["u"], {"core_deg": (None, "count")})

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part_id": batch.column("u").cast(pa.int64()),
                "core_deg": batch.column("core_deg").cast(pa.int64()),
            }
        )

    return seed.union(final.map_batches(fin, batch_format="pyarrow"))


def _sql_k_core(k: int = 3, rounds: int = 16) -> str:
    parts = [
        "WITH b AS MATERIALIZED ("
        "SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk FROM lineitem),",
        "p AS MATERIALIZED (SELECT a.pk AS u, c.pk AS v FROM b a JOIN b c"
        " ON a.ok = c.ok AND a.pk < c.pk GROUP BY 1, 2"
        " HAVING COUNT(*) >= 2),",
        "e0 AS MATERIALIZED ("
        "SELECT u, v FROM p UNION ALL SELECT v AS u, u AS v FROM p)",
    ]
    for i in range(1, rounds + 1):
        parts.append(
            f", e{i} AS MATERIALIZED (SELECT e.u, e.v FROM e{i-1} e"
            f" JOIN (SELECT u FROM e{i-1} GROUP BY u"
            f" HAVING COUNT(*) >= {k}) su ON e.u = su.u"
            f" JOIN (SELECT u AS v FROM e{i-1} GROUP BY u"
            f" HAVING COUNT(*) >= {k}) sv ON e.v = sv.v)"
        )
    parts.append(
        f"\nSELECT u AS part_id, CAST(COUNT(*) AS BIGINT) AS core_deg"
        f" FROM e{rounds} GROUP BY 1"
    )
    return "\n".join(parts)


_SQL_K_CORE = _sql_k_core()


def q_getis_ord_hotspots(sf_dir: str):
    """Getis-Ord Gi* hotspot z-scores per occupied z10 tile — the LOCAL
    sibling of ``morans_i``: which tiles sit in statistically hot (or
    cold) 3x3 neighborhoods. Gi* INCLUDES the center, so from the
    ``_queen_stencil`` row each occupied tile's 9-cell sum is s9 = c + s and
    its occupied-cell count is m = d + 1; the global moments (n, S1, S2)
    come from the same reduced table. All inputs to the z-score are exact
    integers; the z expression is evaluated in ONE mirrored float order on
    both sides (IEEE division and sqrt are correctly rounded, so
    distributed == SQL bit-for-bit, the grouped_corr precedent)."""
    tiles = _queen_stencil(_tile_counts(sf_dir, 10)).materialize()
    mom = _tile_moments(tiles)
    # the largest int64 moment is S2 = sum n^2 <= max(n)·N
    _guard_moments("getis_ord_hotspots", mom["cmax"], mom["s1"], 1)
    nn, s1, s2 = float(mom["nt"]), float(mom["s1"]), float(mom["s2"])

    def zscore(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy()
        s9 = (c + batch.column("s").to_numpy()).astype(np.float64)
        m = (batch.column("d").to_numpy() + 1).astype(np.float64)
        # EXACT expression mirror of the SQL twin — one op order
        xb = s1 / nn
        gi = (s9 - xb * m) / (
            np.sqrt(s2 / nn - xb * xb)
            * np.sqrt((nn * m - m * m) / (nn - 1.0))
        )
        return pa.table(
            {
                "tile_x": batch.column("tile_x"),
                "tile_y": batch.column("tile_y"),
                "n": pa.array(c),
                "gi_z": pa.array(gi),
            }
        )

    return tiles.map_batches(zscore, batch_format="pyarrow")


def _sql_getis_ord() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 1024) AS BIGINT) AS x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 1024) AS BIGINT) AS y,
         COUNT(*) AS n
  FROM pts GROUP BY 1, 2
), nb AS (
  SELECT a.x, a.y, a.n,
         CAST(SUM(b.n) AS DOUBLE) AS s9, CAST(COUNT(*) AS DOUBLE) AS m
  FROM t a JOIN t b ON b.x BETWEEN a.x - 1 AND a.x + 1
                   AND b.y BETWEEN a.y - 1 AND a.y + 1
  GROUP BY 1, 2, 3
), g AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS nn, CAST(SUM(n) AS DOUBLE) AS s1,
         CAST(SUM(n * n) AS DOUBLE) AS s2
  FROM t
)
SELECT x AS tile_x, y AS tile_y, CAST(n AS BIGINT) AS n,
       (s9 - (s1 / nn) * m)
         / (SQRT(s2 / nn - (s1 / nn) * (s1 / nn))
            * SQRT((nn * m - m * m) / (nn - 1.0))) AS gi_z
FROM nb, g
"""


_SQL_GETIS_ORD_HOTSPOTS = _sql_getis_ord()


def q_implicit_quadtree(sf_dir: str):
    """3D Tiles 1.1 implicit-quadtree subtree encoding over the z11
    WebMercator event tiles (`sinks/implicit.py`): each occupied tile
    scatters its bounded ancestor chain to the owning subtrees, ONE
    distinct combiner on (subtree, bit, kind) pairs, then every
    ``.subtree`` availability blob (tile/content/child bitstreams,
    spec-layout binary container) builds independently per group —
    embarrassingly parallel, the explicit-tileset scale path the north
    star's "implicit-quadtree tile IDs" needs. Oracle: the per-subtree
    bit counts are pure distinct-ancestor arithmetic, mirrored in SQL
    with UNNEST + shifts; blob byte layout is round-trip pinned in
    pytest (SQL can't see bytes)."""
    from ..sinks.implicit import implicit_subtrees

    def unpack(batch: pa.Table) -> pa.Table:
        x, y = _tile_xy(batch.column("k").to_numpy(), 11)
        return pa.table(
            {
                "z": pa.array(np.full(len(x), 11, np.int64)),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    subs = implicit_subtrees(
        _tile_counts(sf_dir, 11).map_batches(unpack, batch_format="pyarrow"),
        subtree_levels=4,
    )

    def stats(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "root_level": batch.column("root_level").cast(pa.int64()),
                "root_x": batch.column("root_x").cast(pa.int64()),
                "root_y": batch.column("root_y").cast(pa.int64()),
                "n_tile_bits": batch.column("n_tile_bits").cast(pa.int64()),
                "n_content_bits":
                    batch.column("n_content_bits").cast(pa.int64()),
                "n_child_bits":
                    batch.column("n_child_bits").cast(pa.int64()),
            }
        )

    return subs.map_batches(stats, batch_format="pyarrow")


def _sql_implicit_quadtree() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT DISTINCT
         CAST(FLOOR((lng + 180.0) / 360.0 * 2048) AS BIGINT) AS x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 2048) AS BIGINT) AS y
  FROM pts
), anc AS (
  SELECT DISTINCT 11 - i AS z, x >> i AS xa, y >> i AS ya
  FROM t, (SELECT UNNEST(range(12)) AS i) lv
), sub AS (
  SELECT z, xa, ya, (z // 4) * 4 AS rl,
         xa >> (z % 4) AS rx, ya >> (z % 4) AS ry
  FROM anc
), tiles AS (
  SELECT rl, rx, ry, CAST(COUNT(*) AS BIGINT) AS n_tile_bits,
         CAST(SUM(CASE WHEN z = 11 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_content_bits
  FROM sub GROUP BY 1, 2, 3
), childs AS (
  SELECT rl - 4 AS rl, rx >> 4 AS rx, ry >> 4 AS ry,
         CAST(COUNT(*) AS BIGINT) AS n_child_bits
  FROM sub WHERE z = rl AND rl > 0 GROUP BY 1, 2, 3
)
SELECT t.rl AS root_level, t.rx AS root_x, t.ry AS root_y,
       t.n_tile_bits, t.n_content_bits,
       COALESCE(c.n_child_bits, 0) AS n_child_bits
FROM tiles t LEFT JOIN childs c
  ON c.rl = t.rl AND c.rx = t.rx AND c.ry = t.ry
"""


_SQL_IMPLICIT_QUADTREE = _sql_implicit_quadtree()


def q_geofence_transitions(sf_dir: str):
    """Geofence entry/exit detection — the spatial × sequence composite a
    fleet/mobility pipeline runs constantly: geocode each event, assign it
    to one of three non-overlapping fences (Tokyo-bay hotspot + two
    offshore boxes; 0 = outside), then detect per-user region CHANGES in
    strict (ts, event_id) order. One keyed exchange on user_id; the
    region test and the shifted compare are pure vectorized arithmetic;
    a tiny (from_region, to_region) combiner finishes. The SQL twin
    shares the geocode + box constants verbatim, so the doubles agree
    bit-for-bit."""
    from ..stages.treeagg import clean_arrow

    ds = _event_points(sf_dir, ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        lng = batch.column("lng").to_numpy()
        lat = batch.column("lat").to_numpy()
        r = np.zeros(len(lng), np.int64)
        for rid, (g0, g1, t0, t1) in _GEOFENCES.items():
            r[(lng >= g0) & (lng < g1) & (lat >= t0) & (lat < t1)] = rid
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
                "region": pa.array(r),
            }
        )

    def sweep(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "us", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        r = g["region"].to_numpy()
        ch = (u[1:] == u[:-1]) & (r[1:] != r[:-1])
        out = (
            pd.DataFrame({"from_region": r[:-1][ch], "to_region": r[1:][ch]})
            .groupby(["from_region", "to_region"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        out["n"] = out["n"].astype(np.int64)
        return clean_arrow(out)

    parts = grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"], sweep
    )
    return tree_group_agg(
        parts, ["from_region", "to_region"], {"n": ("n", "sum")}
    )


# non-overlapping axis-aligned fences (region id -> lng0, lng1, lat0, lat1);
# region 1 is the Tokyo-bay hotspot box (stages/geocode.py TOKYO_BAY)
_GEOFENCES = {
    1: (139.5, 140.1, 35.3, 35.8),
    2: (125.0, 130.0, 30.0, 34.0),
    3: (135.0, 139.0, 38.0, 42.0),
}


def _sql_geofence_transitions() -> str:
    lng, lat = _geo_sql("event_id")
    cases = " ".join(
        f"WHEN lng >= {g0} AND lng < {g1} AND lat >= {t0} AND lat < {t1} "
        f"THEN {rid}"
        for rid, (g0, g1, t0, t1) in _GEOFENCES.items()
    )
    return f"""
WITH e AS (
  SELECT user_id, ts, event_id, {lng} AS lng, {lat} AS lat FROM events
), r AS (
  SELECT user_id, ts, event_id,
         CAST(CASE {cases} ELSE 0 END AS BIGINT) AS region
  FROM e
), w AS (
  SELECT user_id, region AS from_region,
         LEAD(region) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS to_region
  FROM r
)
SELECT from_region, to_region, CAST(COUNT(*) AS BIGINT) AS n
FROM w WHERE to_region IS NOT NULL AND to_region <> from_region
GROUP BY 1, 2
"""


_SQL_GEOFENCE_TRANSITIONS = _sql_geofence_transitions()


def q_cusum_changepoint(sf_dir: str):
    """Per-event-type CUSUM changepoint: the global position k maximizing
    |n·cumsum_k − k·total| (the integer-scaled deviation of the running
    sum from the fitted mean line — the classic single-changepoint
    statistic), tie-broken to the EARLIEST k. Exact and scale-safe with
    NO global sort: phase 1 reduces to per-(type, hour) partial
    (count, sum) — a tiny combiner table whose prefix offsets the driver
    computes and broadcasts; phase 2 buckets rows by hour, sorts only
    inside the bucket, adds the offsets for global (k, cumsum), and emits
    one candidate argmax per (type, bucket); a driver-side reduce over
    the ≤ types×hours candidates picks the global winner. All moments are
    exact int64 (cents); the SQL twin mirrors the arithmetic in HUGEINT.
    Overflow contract (r4 ADVICE): dev = |n·cum − k·tot| ≤ 2·n·Σ|vc|, and
    the DECLARED output type is BIGINT — so exactness past int64 is
    unrepresentable by contract, not just by implementation. The driver
    checks the bound against wrap-proof float64 per-type abs-sums (an
    int64 Σ|vc| could itself overflow before the guard reads it; the
    float's ~1e-16 relative error is dwarfed by the bound's factor-2
    slack and a 0.999 margin) and raises OverflowError with the measured
    bound; below it the int64 numpy arithmetic is provably exact."""
    import ray

    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts", "value"])
    HOUR = 3_600_000_000

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "us": pa.array(us),
                "event_id": batch.column("event_id"),
                "vc": pa.array(vc),
                # float64 abs-values: the GUARD's sum must itself be
                # wrap-proof (an int64 Σ|vc| can overflow before the
                # guard reads it); float relative error ~1e-16 is dwarfed
                # by the bound's factor-2 slack
                "avf": pa.array(np.abs(vc).astype(np.float64)),
                "hb": pa.array(us // HOUR),
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    partial = tree_group_agg(
        prepped, ["event_type", "hb"],
        {"cnt": (None, "count"), "s": ("vc", "sum"), "sa": ("avf", "sum")},
    ).to_pandas()  # types × hours — driver-small by construction
    partial = partial.sort_values(["event_type", "hb"], kind="stable")
    g = partial.groupby("event_type", sort=False)
    partial["cnt_before"] = g["cnt"].cumsum() - partial["cnt"]
    partial["sum_before"] = g["s"].cumsum() - partial["s"]
    totals = partial.groupby("event_type", as_index=False).agg(
        n=("cnt", "sum"), tot=("s", "sum"), sa=("sa", "sum")
    )
    offsets = {
        (r.event_type, int(r.hb)): (int(r.cnt_before), int(r.sum_before))
        for r in partial.itertuples()
    }
    tot_by_type = {r.event_type: (int(r.n), int(r.tot))
                   for r in totals.itertuples()}
    # exact Python-int overflow guard: dev = |n·cum − k·tot| with
    # |cum| ≤ Σ|vc| and k·|tot| ≤ n·Σ|vc|, so dev ≤ 2·n·Σ|vc| — if that
    # bound reaches 2^63 the int64 products below (and the BIGINT output
    # column) can wrap: fail loudly with the measured bound instead
    for r in totals.itertuples():
        bound = 2.0 * float(r.n) * float(r.sa)
        if bound >= 0.999 * 2**63:
            raise OverflowError(
                f"cusum_changepoint: event_type={r.event_type!r} has "
                f"2*n*sum(|vc|)~{bound:.3e} >= ~2^63; the dev statistic "
                "no longer fits the declared BIGINT output (nor int64 "
                "intermediates). Re-scale `value` or shard the type."
            )
    side = ray.put((offsets, tot_by_type))

    def bucket_argmax(grp: pd.DataFrame) -> pd.DataFrame:
        offs, tots = ray.get(side)
        grp = grp.sort_values(["event_type", "us", "event_id"], kind="stable")
        et = grp["event_type"].to_numpy(dtype=object)
        vc = grp["vc"].to_numpy()
        hb = int(grp["hb"].iloc[0])
        rows = []
        seg = np.r_[0, np.nonzero(et[1:] != et[:-1])[0] + 1, len(et)]
        for a, b in zip(seg[:-1], seg[1:]):
            t = et[a]
            cb, sb = offs[(t, hb)]
            n, tot = tots[t]
            k = cb + np.arange(1, b - a + 1, dtype=np.int64)
            cum = sb + np.cumsum(vc[a:b])
            dev = np.abs(n * cum - k * tot)
            i = np.lexsort((k, -dev))[0]  # max dev, earliest k
            rows.append((t, int(k[i]), int(dev[i])))
        return pd.DataFrame(rows, columns=["event_type", "k", "dev_n"])

    cand = (
        prepped.groupby("hb")
        .map_groups(bucket_argmax, batch_format="pandas")
        .to_pandas()  # ≤ types × hours candidate rows
    )
    cand = cand.sort_values(
        ["event_type", "dev_n", "k"], ascending=[True, False, True],
        kind="stable",
    )
    out = cand.groupby("event_type", as_index=False).first()
    out["k"] = out["k"].astype(np.int64)
    out["dev_n"] = out["dev_n"].astype(np.int64)
    return clean_arrow(out[["event_type", "k", "dev_n"]])


_SQL_CUSUM_CHANGEPOINT = """
WITH e AS (
  SELECT event_type, ts, event_id,
         CAST(ROUND(value * 100) AS BIGINT) AS vc
  FROM events
), w AS (
  SELECT event_type,
         ROW_NUMBER() OVER
           (PARTITION BY event_type ORDER BY ts, event_id) AS k,
         SUM(vc) OVER (PARTITION BY event_type ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS cum
  FROM e
), t AS (
  SELECT event_type, COUNT(*) AS n, SUM(vc) AS tot FROM e GROUP BY 1
), d AS (
  SELECT w.event_type, w.k,
         ABS(CAST(t.n AS HUGEINT) * w.cum
             - CAST(w.k AS HUGEINT) * t.tot) AS dev
  FROM w JOIN t ON t.event_type = w.event_type
), r AS (
  SELECT event_type, k, dev,
         ROW_NUMBER() OVER (PARTITION BY event_type
                            ORDER BY dev DESC, k ASC) AS rn
  FROM d
)
SELECT event_type, CAST(k AS BIGINT) AS k, CAST(dev AS BIGINT) AS dev_n
FROM r WHERE rn = 1
"""


def q_polygon_rasterize(sf_dir: str):
    """Vector→raster burn-in — the inverse of raster_vector_clip: every
    municipality polygon (holes included) is scan-filled onto the 0.05°
    lat/lng grid by a vectorized cell-center PIP over only its own bbox
    window (never the global grid), one task batch per polygon shard with
    the tiny polygon table broadcast via ray.put. Output per polygon:
    burned-cell count + the burned raster's integer bbox, from one tiny
    (pid)-keyed combiner over the emitted cell rows. Rows-only (the
    jittered-octagon vertices aren't SQL-reproducible); pinned in pytest
    against a dense-global-grid brute recompute."""
    import ray
    import ray.data

    from ..kernels.pip import points_in_polygon
    from ..sources.municipalities import WEST, SOUTH, municipality_polygons

    CELL = 0.05
    polys = municipality_polygons()
    pref = ray.put(polys)

    ds = ray.data.from_arrow(
        pa.table({"pid": pa.array(np.arange(len(polys), dtype=np.int64))})
    ).repartition(16)

    def raster(batch: pa.Table) -> pa.Table:
        ps = ray.get(pref)
        pid_out, n_out, bb = [], [], []
        for pid in batch.column("pid").to_numpy():
            rings = ps[pid]["rings"]
            outer = rings[0]
            ix0 = int(np.floor((outer[:, 0].min() - WEST) / CELL))
            ix1 = int(np.ceil((outer[:, 0].max() - WEST) / CELL))
            iy0 = int(np.floor((outer[:, 1].min() - SOUTH) / CELL))
            iy1 = int(np.ceil((outer[:, 1].max() - SOUTH) / CELL))
            ix = np.arange(ix0, ix1 + 1, dtype=np.int64)
            iy = np.arange(iy0, iy1 + 1, dtype=np.int64)
            gx, gy = np.meshgrid(ix, iy, indexing="ij")
            cx = WEST + (gx.ravel() + 0.5) * CELL
            cy = SOUTH + (gy.ravel() + 0.5) * CELL
            inside = points_in_polygon(cx, cy, rings)
            bix, biy = gx.ravel()[inside], gy.ravel()[inside]
            pid_out.append(np.full(int(inside.sum()), pid, np.int64))
            n_out.append(np.stack([bix, biy], axis=1))
        p = np.concatenate(pid_out) if pid_out else np.empty(0, np.int64)
        c = (
            np.concatenate(n_out)
            if n_out
            else np.empty((0, 2), np.int64)
        )
        return pa.table(
            {
                "pid": pa.array(p),
                "cix": pa.array(c[:, 0]),
                "ciy": pa.array(c[:, 1]),
            }
        )

    burned = ds.map_batches(raster, batch_format="pyarrow")
    per_poly = tree_group_agg(
        burned,
        ["pid"],
        {
            "n_cells": (None, "count"),
            "ix_min": ("cix", "min"),
            "ix_max": ("cix", "max"),
            "iy_min": ("ciy", "min"),
            "iy_max": ("ciy", "max"),
        },
    )
    return per_poly


def q_hmm_map_match(sf_dir: str):
    """HMM (Viterbi) map-matching (stages/trajectory.py::hmm_map_match):
    the probabilistic upgrade of snap_to_roads — per point the 4 nearest
    road segments are candidate states, integer emission (snap d2) +
    transition (midpoint d2 // 16) costs, batch-wide vectorized Viterbi.
    One bucketed exchange builds fixed-length tracks; the bounded road
    network broadcasts. Rows-only; scalar-Viterbi pinned in pytest."""
    from ..stages.trajectory import hmm_map_match

    return hmm_map_match(sf_dir)


def q_quadkey_encode(sf_dir: str):
    """Bing-maps quadkey addressing of the z12 WebMercator event tiles:
    the interleaved base-4 digit string (msb first) every tile-serving
    stack uses as the storage key. Digits come from pure bit arithmetic
    (mirrored verbatim in the SQL twin); the string materializes via one
    contiguous (n, 12) byte-matrix view — no per-row Python. One tiny
    (quadkey) combiner finishes."""

    def render(batch: pa.Table) -> pa.Table:
        from ..kernels.webmercator import quadkey_strings

        x, y = _tile_xy(batch.column("k").to_numpy(), 12)
        s = quadkey_strings(x, y, 12)
        return pa.table({"quadkey": pa.array(s), "n": batch.column("n")})

    # combine on the packed int64 tile key (strings would widen every
    # exchange 12x); render the quadkey once per DISTINCT tile after
    return _tile_counts(sf_dir, 12).map_batches(render, batch_format="pyarrow")


def _sql_quadkey_encode() -> str:
    lng, lat = _geo_sql("event_id")
    digit = " || ".join(
        f"CAST(((y >> {11 - i}) & 1) * 2 + ((x >> {11 - i}) & 1) AS VARCHAR)"
        for i in range(12)
    )
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 4096) AS BIGINT) AS x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 4096) AS BIGINT) AS y
  FROM pts
)
SELECT {digit} AS quadkey, CAST(COUNT(*) AS BIGINT) AS n
FROM t GROUP BY 1
"""


_SQL_QUADKEY_ENCODE = _sql_quadkey_encode()


def q_split_candidates(sf_dir: str):
    """Decision-stump split-candidate sweep — the inner loop of
    GBDT/feature-selection training: for each of 9 fixed value-cent
    thresholds, the exact left/right (count, positive-label count) the
    Gini/entropy gain formula consumes (label = event is a 'purchase').
    Pure combiner plan: per batch each row scatters into its threshold
    bucket ONCE (searchsorted), the per-bucket partials tree-merge, and
    the <=10-row suffix-sum finish happens on the driver — no per-
    threshold rescan, no wide exchange. All outputs are exact int64 (the
    gain pick stays exact off them); the SQL twin mirrors the bucket +
    suffix-sum arithmetic."""
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["event_type", "value"])
    TH = np.array([1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000],
                  dtype=np.int64)

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        pos = pc.cast(
            pc.equal(batch.column("event_type"), "purchase"), pa.int64()
        )
        # bucket b: rows with TH[b-1] <= vc < TH[b] (b in 0..9)
        b = np.searchsorted(TH, vc, side="right")
        return pa.table({"bucket": pa.array(b), "pos": pos})

    part = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["bucket"], {"n": (None, "count"), "n_pos": ("pos", "sum")},
    ).to_pandas()  # <= 10 rows
    part = part.sort_values("bucket")
    full = np.zeros(10, np.int64)
    fpos = np.zeros(10, np.int64)
    full[part["bucket"].to_numpy()] = part["n"].to_numpy()
    fpos[part["bucket"].to_numpy()] = part["n_pos"].to_numpy()
    cn, cp = np.cumsum(full), np.cumsum(fpos)
    out = pd.DataFrame(
        {
            "threshold_c": TH,
            "n_left": cn[:9],
            "pos_left": cp[:9],
            "n_right": cn[9] - cn[:9],
            "pos_right": cp[9] - cp[:9],
        }
    ).astype(np.int64)
    return clean_arrow(out)


_SQL_SPLIT_CANDIDATES = """
WITH e AS (
  SELECT CAST(ROUND(value * 100) AS BIGINT) AS vc,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS pos
  FROM events
), th AS (
  SELECT UNNEST([1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000])
    AS threshold_c
)
SELECT th.threshold_c,
       CAST(SUM(CASE WHEN e.vc < th.threshold_c THEN 1 ELSE 0 END)
         AS BIGINT) AS n_left,
       CAST(SUM(CASE WHEN e.vc < th.threshold_c THEN e.pos ELSE 0 END)
         AS BIGINT) AS pos_left,
       CAST(SUM(CASE WHEN e.vc >= th.threshold_c THEN 1 ELSE 0 END)
         AS BIGINT) AS n_right,
       CAST(SUM(CASE WHEN e.vc >= th.threshold_c THEN e.pos ELSE 0 END)
         AS BIGINT) AS pos_right
FROM e, th GROUP BY 1
"""


def q_l_diversity(sf_dir: str):
    """l-diversity governance audit — the sibling of k_anonymity: for
    each quasi-identifier group (nation, value decile-of-cents bucket)
    over customers joined to their orders, the number of DISTINCT
    sensitive values (order priority bucket = o_orderkey % 5) present;
    groups with fewer than l = 3 distinct sensitive values are flagged.
    Plan: one distinct combiner on (qid, sensitive) — the classic
    two-level distinct-then-count without ever shipping row payloads —
    then a tiny (qid) count. Oracle mirrors both levels."""
    from ..stages.joins import auto_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def prep_c(batch: pa.Table) -> pa.Table:
        bal = np.round(batch.column("c_acctbal").to_numpy() * 100).astype(
            np.int64
        )
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "nat": batch.column("c_nationkey").cast(pa.int64()),
                # +100000 keeps the operand positive (acctbal >= -999.99)
                # so numpy floor-div == DuckDB truncating int division
                "balb": pa.array((bal + 100000) // 100000),
            }
        )

    joined = auto_join(
        orders,
        cust.map_batches(prep_c, batch_format="pyarrow"),
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def prep(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_numpy()
        return pa.table(
            {
                "nat": batch.column("nat"),
                "balb": batch.column("balb"),
                "sens": pa.array(ok % 5),
            }
        )

    pairs = tree_group_agg(
        joined.map_batches(prep, batch_format="pyarrow"),
        ["nat", "balb", "sens"], {"m": (None, "count")},
    )

    def drop_m(batch: pa.Table) -> pa.Table:
        return batch.select(["nat", "balb"])

    counted = tree_group_agg(
        pairs.map_batches(drop_m, batch_format="pyarrow"),
        ["nat", "balb"], {"n_sensitive": (None, "count")},
    )

    def flag(batch: pa.Table) -> pa.Table:
        ns = batch.column("n_sensitive").to_numpy()
        return batch.append_column(
            "violates_l3", pa.array((ns < 3).astype(np.int64))
        )

    return counted.map_batches(flag, batch_format="pyarrow")


_SQL_L_DIVERSITY = """
WITH j AS (
  SELECT CAST(c.c_nationkey AS BIGINT) AS nat,
         (CAST(ROUND(c.c_acctbal * 100) AS BIGINT) + 100000) // 100000
           AS balb,
         o.o_orderkey % 5 AS sens
  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
), d AS (
  SELECT DISTINCT nat, balb, sens FROM j
)
SELECT nat, balb, CAST(COUNT(*) AS BIGINT) AS n_sensitive,
       CAST(CASE WHEN COUNT(*) < 3 THEN 1 ELSE 0 END AS BIGINT)
         AS violates_l3
FROM d GROUP BY 1, 2
"""


def q_poly_overlap_area(sf_dir: str):
    """Polygon-overlay intersection AREA join — the map-overlay operator
    areal interpolation and boundary reconciliation need: for every
    bbox-overlapping municipality pair, the exact intersection area via
    the signed fan-triangle general-polygon overlay
    (kernels/clip.py::clip_intersection_area — exact for CONCAVE
    municipality rings, which ~10/48 jittered octagons are; r4 ADVICE)
    with hole inclusion–exclusion (A(o∩o) − A(h_a∩o_b) − A(o_a∩h_b) +
    A(h_a∩h_b)). Candidate pairs come from the tiny polygon table's bbox
    self-join on the driver; the clip work shards across tasks (at scale
    pairs block by grid cell exactly like seg_intersect_join). Rows-only;
    pinned in pytest against a Fraction-exact clip recompute and a
    PIP-grid area estimate."""
    import ray
    import ray.data

    from ..kernels.clip import clip_intersection_area
    from ..sources.municipalities import municipality_polygons

    polys = municipality_polygons()
    boxes = np.array(
        [
            [
                p["rings"][0][:, 0].min(), p["rings"][0][:, 0].max(),
                p["rings"][0][:, 1].min(), p["rings"][0][:, 1].max(),
            ]
            for p in polys
        ]
    )
    n = len(polys)
    ia, ib = np.triu_indices(n, k=1)
    ok = (
        (boxes[ia, 0] <= boxes[ib, 1]) & (boxes[ib, 0] <= boxes[ia, 1])
        & (boxes[ia, 2] <= boxes[ib, 3]) & (boxes[ib, 2] <= boxes[ia, 3])
    )
    ia, ib = ia[ok], ib[ok]
    pref = ray.put(polys)

    pairs = ray.data.from_arrow(
        pa.table({"pa_": pa.array(ia.astype(np.int64)),
                  "pb_": pa.array(ib.astype(np.int64))})
    ).repartition(8)

    def clip_area(batch: pa.Table) -> pa.Table:
        ps = ray.get(pref)
        a_ = batch.column("pa_").to_numpy()
        b_ = batch.column("pb_").to_numpy()
        areas = np.empty(len(a_), np.float64)
        for j in range(len(a_)):
            ra, rb = ps[a_[j]]["rings"], ps[b_[j]]["rings"]
            area = clip_intersection_area(ra[0], rb[0])
            if len(ra) > 1:
                area -= clip_intersection_area(ra[1], rb[0])
            if len(rb) > 1:
                area -= clip_intersection_area(ra[0], rb[1])
            if len(ra) > 1 and len(rb) > 1:
                area += clip_intersection_area(ra[1], rb[1])
            areas[j] = area
        t = pa.table(
            {
                "pid_a": batch.column("pa_"),
                "pid_b": batch.column("pb_"),
                "area": pa.array(areas),
            }
        )
        return t.filter(pa.array(areas > 1e-12))

    return pairs.map_batches(clip_area, batch_format="pyarrow")


def q_percent_rank_orders(sf_dir: str):
    """PERCENT_RANK / CUME_DIST of each order's total within its
    priority class WITHOUT a global sort — the two-phase range-bucket
    prefix (same scheme as cusum_changepoint): phase 1 reduces to
    per-(prio, range-bucket) counts (tc >> 16 — a BOUNDED ~800-bucket
    table regardless of row count, never the distinct-value histogram);
    the driver computes per-bucket below-offsets + class totals and
    broadcasts them; phase 2 buckets rows by range and ranks INSIDE the
    bucket with a local sort (equal totals can't straddle buckets).
    Output avoids float division the way every exact query here does —
    (rank_below, n_peers, n_class) int64 triplets, from which
    PERCENT_RANK = rank_below/(n_class-1) and CUME_DIST =
    (rank_below+n_peers)/n_class derive exactly."""
    import ray

    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority",
                                  "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        tc = np.round(batch.column("o_totalprice").to_numpy() * 100).astype(
            np.int64
        )
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "prio": batch.column("o_orderpriority"),
                "tc": pa.array(tc),
                "rb": pa.array(tc >> 16),
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow")

    def drop_keys(batch: pa.Table) -> pa.Table:
        return batch.select(["prio", "rb"])

    hist = tree_group_agg(
        prepped.map_batches(drop_keys, batch_format="pyarrow"),
        ["prio", "rb"], {"m": (None, "count")},
    ).to_pandas()  # bounded: priorities x (price range / 2^16) buckets
    hist = hist.sort_values(["prio", "rb"], kind="stable")
    g = hist.groupby("prio", sort=False)
    hist["below"] = g["m"].cumsum() - hist["m"]
    totals = {p: int(s) for p, s in g["m"].sum().items()}
    offsets = {
        (r.prio, int(r.rb)): int(r.below) for r in hist.itertuples()
    }
    side = ray.put((offsets, totals))

    def rank_bucket(grp: pd.DataFrame) -> pa.Table:
        offs, tots = ray.get(side)
        grp = grp.sort_values(["prio", "tc"], kind="stable")
        prio = grp["prio"].to_numpy()
        tc = grp["tc"].to_numpy()
        rb = int(grp["rb"].iloc[0])
        below = np.empty(len(grp), np.int64)
        peers = np.empty(len(grp), np.int64)
        ncls = np.empty(len(grp), np.int64)
        seg = np.r_[0, np.nonzero(prio[1:] != prio[:-1])[0] + 1, len(prio)]
        for a, b in zip(seg[:-1], seg[1:]):
            t = tc[a:b]
            lo = np.searchsorted(t, t, side="left")
            hi = np.searchsorted(t, t, side="right")
            below[a:b] = offs[(prio[a], rb)] + lo
            peers[a:b] = hi - lo
            ncls[a:b] = tots[prio[a]]
        return clean_arrow(
            pd.DataFrame(
                {
                    "o_orderkey": grp["o_orderkey"].to_numpy(),
                    "rank_below": below,
                    "n_peers": peers,
                    "n_class": ncls,
                }
            )
        )

    return prepped.groupby("rb").map_groups(
        rank_bucket, batch_format="pandas"
    )


_SQL_PERCENT_RANK_ORDERS = """
WITH o AS (
  SELECT o_orderkey, o_orderpriority,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS tc
  FROM orders
)
SELECT o_orderkey,
       CAST(RANK() OVER (PARTITION BY o_orderpriority ORDER BY tc) - 1
         AS BIGINT) AS rank_below,
       CAST(COUNT(*) OVER (PARTITION BY o_orderpriority, tc) AS BIGINT)
         AS n_peers,
       CAST(COUNT(*) OVER (PARTITION BY o_orderpriority) AS BIGINT)
         AS n_class
FROM o
"""


def q_bounce_rate(sf_dir: str):
    """Sessionized bounce rate per event type of the session's FIRST
    event: sessions (30-min gaps) with exactly one event are bounces.
    One bucketed exchange; the session segmentation is the shared
    gaps-and-islands shifted-compare; the per-first-type combiner ships
    (n_sessions, n_bounces) only."""
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    GAP = 1_800_000_000

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
            }
        )

    def sweep(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "us", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        us = g["us"].to_numpy()
        et = g["event_type"].to_numpy()
        new = np.r_[True, (u[1:] != u[:-1]) | (us[1:] - us[:-1] > GAP)]
        sid = np.cumsum(new) - 1
        sizes = np.bincount(sid)
        first_idx = np.nonzero(new)[0]
        out = (
            pd.DataFrame(
                {
                    "first_type": et[first_idx],
                    "bounce": (sizes == 1).astype(np.int64),
                }
            )
            .groupby("first_type", as_index=False)
            .agg(n_sessions=("bounce", "size"), n_bounces=("bounce", "sum"))
        )
        out["n_sessions"] = out["n_sessions"].astype(np.int64)
        out["n_bounces"] = out["n_bounces"].astype(np.int64)
        return clean_arrow(out)

    parts = grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"], sweep
    )
    return tree_group_agg(
        parts, ["first_type"],
        {"n_sessions": ("n_sessions", "sum"),
         "n_bounces": ("n_bounces", "sum")},
    )


_SQL_BOUNCE_RATE = """
WITH e AS (
  SELECT user_id, epoch_us(ts) AS us, event_id, event_type FROM events
), m AS (
  SELECT *,
         CASE WHEN us - LAG(us) OVER w > 1800000000
                OR LAG(us) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
), s AS (
  SELECT *, SUM(new_s) OVER (PARTITION BY user_id
                             ORDER BY us, event_id
                             ROWS UNBOUNDED PRECEDING) AS sid
  FROM m
), agg AS (
  SELECT event_type AS first_type,
         COUNT(*) OVER (PARTITION BY user_id, sid) AS sz,
         ROW_NUMBER() OVER (PARTITION BY user_id, sid
                            ORDER BY us, event_id) AS rn
  FROM s
)
SELECT first_type, CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(SUM(CASE WHEN sz = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounces
FROM agg WHERE rn = 1 GROUP BY 1
"""


def q_areal_interpolation(sf_dir: str):
    """Areal (dasymetric) interpolation — the spatial-statistics operator
    that re-aggregates counts from one zone system to another: event
    counts per rectangular mesh cell redistribute to each municipality
    proportionally to area(mesh ∩ muni) / area(mesh), the intersection
    areas coming from the signed-fan-triangle overlay kernel (exact for
    concave municipality rings; holes subtracted).
    Plan: the big side (events -> per-mesh counts) is the existing
    arithmetic mesh combiner; the weight table (48 polys × bbox-touched
    cells, computed in parallel tasks) is driver-small by construction
    and joins the counts by broadcast — one combiner, zero wide
    exchanges. Rows-only (float areas); pinned in pytest against a
    scalar per-municipality recompute + weight-range invariants."""
    import ray
    import ray.data

    from ..kernels.clip import clip_intersection_area
    from ..sources.municipalities import (
        EAST,
        NORTH,
        SOUTH,
        WEST,
        mesh_polygons,
        municipality_polygons,
    )
    from ..stages.spatial_join import mesh_assign_arith
    from ..stages.treeagg import clean_arrow

    NX, NY = 24, 22
    polys = municipality_polygons()
    pref = ray.put(polys)
    dx = (EAST - WEST) / NX
    dy = (NORTH - SOUTH) / NY

    pids = ray.data.from_arrow(
        pa.table({"pid": pa.array(np.arange(len(polys), dtype=np.int64))})
    ).repartition(8)

    def weights(batch: pa.Table) -> pa.Table:
        ps = ray.get(pref)
        out_pid, out_mid, out_w = [], [], []
        for pid in batch.column("pid").to_numpy():
            rings = ps[pid]["rings"]
            outer = rings[0]
            ix0 = max(0, int(np.floor((outer[:, 0].min() - WEST) / dx)))
            ix1 = min(NX - 1, int(np.floor((outer[:, 0].max() - WEST) / dx)))
            iy0 = max(0, int(np.floor((outer[:, 1].min() - SOUTH) / dy)))
            iy1 = min(NY - 1, int(np.floor((outer[:, 1].max() - SOUTH) / dy)))
            for ix in range(ix0, ix1 + 1):
                for iy in range(iy0, iy1 + 1):
                    w0, s0 = WEST + ix * dx, SOUTH + iy * dy
                    rect = np.array(
                        [[w0, s0], [w0 + dx, s0], [w0 + dx, s0 + dy],
                         [w0, s0 + dy]]
                    )
                    a = clip_intersection_area(rect, outer)
                    if len(rings) > 1:
                        a -= clip_intersection_area(rect, rings[1])
                    if a > 1e-12:
                        out_pid.append(pid)
                        out_mid.append(f"mesh_{ix}_{iy}")
                        out_w.append(a / (dx * dy))
        return pa.table(
            {
                "pid": pa.array(np.array(out_pid, np.int64)),
                "mesh_id": pa.array(out_mid, pa.string()),
                "w": pa.array(np.array(out_w, np.float64)),
            }
        )

    wtab = pids.map_batches(weights, batch_format="pyarrow").to_pandas()

    ev = _event_points(sf_dir, ["event_id"])
    ev = ev.map_batches(mesh_assign_arith, batch_format="pyarrow")
    counts = tree_group_agg(
        ev.select_columns(["mesh_id"]), ["mesh_id"], {"n": (None, "count")}
    ).to_pandas()  # <= 528 rows

    m = wtab.merge(counts, on="mesh_id", how="inner")
    m["part"] = m["n"] * m["w"]
    out = m.groupby("pid", as_index=False).agg(
        interp_count=("part", "sum"), n_cells=("mesh_id", "size")
    )
    out["n_cells"] = out["n_cells"].astype(np.int64)
    return clean_arrow(out.sort_values("pid").reset_index(drop=True))


def q_bearing_sectors(sf_dir: str):
    """Wind-rose bearing histogram of per-user movement: consecutive
    points (strict (ts, event_id) order, integer micro-degree geocode)
    classify into 8 compass sectors by pure integer comparisons (E/NE/N/
    NW/W/SW/S/SE — diagonal when |dx| and |dy| are within 2x of each
    other, ties resolved by the fixed comparison order) plus sector 8
    for zero moves. One bucketed exchange; the SQL twin repeats the CASE
    ladder verbatim on LEAD() deltas."""
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
            }
        )

    def sweep(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "us", "event_id"], kind="stable")
        u = g["user_id"].to_numpy()
        eid = g["event_id"].to_numpy()
        x = (eid * 9973) % 240000
        y = (eid * 7919) % 220000
        same = u[1:] == u[:-1]
        dx = (x[1:] - x[:-1])[same]
        dy = (y[1:] - y[:-1])[same]
        ax, ay = np.abs(dx), np.abs(dy)
        diag = (2 * ax >= ay) & (2 * ay >= ax) & ((ax > 0) | (ay > 0))
        sector = np.full(len(dx), 8, np.int64)  # zero move
        horiz = (~diag) & (ax >= ay) & (ax > 0)
        vert = (~diag) & (ay > ax)
        sector[horiz & (dx > 0)] = 0   # E
        sector[horiz & (dx < 0)] = 4   # W
        sector[vert & (dy > 0)] = 2    # N
        sector[vert & (dy < 0)] = 6    # S
        sector[diag & (dx > 0) & (dy > 0)] = 1   # NE
        sector[diag & (dx < 0) & (dy > 0)] = 3   # NW
        sector[diag & (dx < 0) & (dy < 0)] = 5   # SW
        sector[diag & (dx > 0) & (dy < 0)] = 7   # SE
        # diagonal with one zero component can't happen (diag needs both
        # within 2x), except exact zero handled above
        out = (
            pd.DataFrame({"sector": sector})
            .groupby("sector", as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        out["n"] = out["n"].astype(np.int64)
        return clean_arrow(out)

    parts = grouped_apply(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"], sweep
    )
    return tree_group_agg(parts, ["sector"], {"n": ("n", "sum")})


_SQL_BEARING_SECTORS = """
WITH e AS (
  SELECT user_id, epoch_us(ts) AS us, event_id,
         (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM events
), w AS (
  SELECT user_id,
         LEAD(x) OVER win - x AS dx,
         LEAD(y) OVER win - y AS dy,
         LEAD(user_id) OVER win AS nu
  FROM e WINDOW win AS (ORDER BY user_id, us, event_id)
), m AS (
  SELECT dx, dy, ABS(dx) AS ax, ABS(dy) AS ay,
         (2 * ABS(dx) >= ABS(dy) AND 2 * ABS(dy) >= ABS(dx)
          AND (ABS(dx) > 0 OR ABS(dy) > 0)) AS diag
  FROM w WHERE nu = user_id
), s AS (
  SELECT CASE
    WHEN diag AND dx > 0 AND dy > 0 THEN 1
    WHEN diag AND dx < 0 AND dy > 0 THEN 3
    WHEN diag AND dx < 0 AND dy < 0 THEN 5
    WHEN diag AND dx > 0 AND dy < 0 THEN 7
    WHEN NOT diag AND ax >= ay AND dx > 0 THEN 0
    WHEN NOT diag AND ax >= ay AND dx < 0 THEN 4
    WHEN NOT diag AND ay > ax AND dy > 0 THEN 2
    WHEN NOT diag AND ay > ax AND dy < 0 THEN 6
    ELSE 8 END AS sector
  FROM m
)
SELECT CAST(sector AS BIGINT) AS sector, CAST(COUNT(*) AS BIGINT) AS n
FROM s GROUP BY 1
"""


def q_polygon_compactness(sf_dir: str):
    """Polygon morphometry audit over the municipality table: shoelace
    area (holes subtracted), perimeter (holes added), vertex count and
    the Polsby–Popper compactness 4πA/P² — the shape-quality metrics a
    boundary-QA pipeline reports. The polygon table is tiny; the metric
    kernel still runs sharded (same task layout as polygon_rasterize).
    Rows-only; pinned against a scalar recompute."""
    import ray
    import ray.data

    from ..kernels.clip import ring_area
    from ..sources.municipalities import municipality_polygons

    polys = municipality_polygons()
    pref = ray.put(polys)
    ds = ray.data.from_arrow(
        pa.table({"pid": pa.array(np.arange(len(polys), dtype=np.int64))})
    ).repartition(8)

    def metrics(batch: pa.Table) -> pa.Table:
        ps = ray.get(pref)
        pid = batch.column("pid").to_numpy()
        area = np.empty(len(pid), np.float64)
        perim = np.empty(len(pid), np.float64)
        nv = np.empty(len(pid), np.int64)
        for j, p in enumerate(pid):
            rings = ps[p]["rings"]
            a = ring_area(rings[0])
            pe = float(
                np.sqrt(
                    ((rings[0] - np.roll(rings[0], -1, axis=0)) ** 2).sum(
                        axis=1
                    )
                ).sum()
            )
            v = len(rings[0])
            for h in rings[1:]:
                a -= ring_area(h)
                pe += float(
                    np.sqrt(((h - np.roll(h, -1, axis=0)) ** 2).sum(axis=1))
                    .sum()
                )
                v += len(h)
            area[j], perim[j], nv[j] = a, pe, v
        pp = 4.0 * np.pi * area / (perim * perim)
        return pa.table(
            {
                "pid": batch.column("pid"),
                "area": pa.array(area),
                "perimeter": pa.array(perim),
                "n_vertices": pa.array(nv),
                "polsby_popper": pa.array(pp),
            }
        )

    return ds.map_batches(metrics, batch_format="pyarrow")


def q_seasonal_naive_mase(sf_dir: str):
    """Forecast-skill evaluation (MASE components) for the hourly
    per-type value series: the seasonal-naive (t−24h) absolute error sum
    vs the one-step-naive (t−1h) denominator, over the DENSIFIED hour
    grid (missing hours are exact zeros, identical in the SQL twin).
    The hourly series comes from one combiner — types × hours rows,
    driver-small at any input size — so the lag arithmetic is exact
    int64 on the reduced table; nothing row-scale ever leaves the
    combiner."""
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    HOUR = 3_600_000_000

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hb": pa.array(us // HOUR),
                "vc": pa.array(vc),
            }
        )

    hourly = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hb"], {"s": ("vc", "sum")},
    ).to_pandas()  # types x hours

    rows = []
    for t, g in hourly.groupby("event_type"):
        g = g.sort_values("hb")
        lo, hi = int(g["hb"].min()), int(g["hb"].max())
        dense = np.zeros(hi - lo + 1, np.int64)
        dense[g["hb"].to_numpy() - lo] = g["s"].to_numpy()
        sn = np.abs(dense[24:] - dense[:-24]).sum() if len(dense) > 24 else 0
        nv = np.abs(dense[1:] - dense[:-1]).sum() if len(dense) > 1 else 0
        rows.append((t, np.int64(len(dense)), np.int64(sn), np.int64(nv)))
    out = pd.DataFrame(
        rows, columns=["event_type", "n_hours", "sn_abs_err", "naive_abs_err"]
    )
    return clean_arrow(out)


_SQL_SEASONAL_NAIVE_MASE = """
WITH e AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hb,
         CAST(ROUND(value * 100) AS BIGINT) AS vc
  FROM events
), h AS (
  SELECT event_type, hb, SUM(vc) AS s FROM e GROUP BY 1, 2
), b AS (
  SELECT event_type, MIN(hb) AS lo, MAX(hb) AS hi FROM h GROUP BY 1
), grid AS (
  SELECT b.event_type, g.hb
  FROM b, UNNEST(range(b.lo, b.hi + 1)) AS g(hb)
), d AS (
  SELECT grid.event_type, grid.hb, COALESCE(h.s, 0) AS s
  FROM grid LEFT JOIN h
    ON h.event_type = grid.event_type AND h.hb = grid.hb
), w AS (
  SELECT event_type, s,
         LAG(s, 1) OVER win AS p1,
         LAG(s, 24) OVER win AS p24
  FROM d WINDOW win AS (PARTITION BY event_type ORDER BY hb)
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_hours,
       CAST(COALESCE(SUM(ABS(s - p24)), 0) AS BIGINT) AS sn_abs_err,
       CAST(COALESCE(SUM(ABS(s - p1)), 0) AS BIGINT) AS naive_abs_err
FROM w GROUP BY 1
"""


def q_ann_recall_eval(sf_dir: str):
    """Index-quality monitoring as a first-class operator: recall@10 of
    the cached IVF-PQ index vs the EXACT integer-quantized L2 top-10,
    per query. The exact side is a distributed block top-k (broadcast
    query matrix, per-block prune to 10 rows — only blocks × 80 candidate
    rows ever reach the driver merge); the ANN side reads only the probed
    bucket partitions. Output: qid, n_hit, recall_pct (exact ints).
    Rows-only; the exact side doubles as the recall pin's ground truth
    (tests pin recall bounds)."""
    import ray

    from ..stages.ann_index import ivfpq_index_build, ivfpq_search_cached
    from ..stages.knn import quantize
    from ..stages.treeagg import clean_arrow

    q = _ann_query_head(sf_dir)
    res = ivfpq_index_build(sf_dir)
    ann = ivfpq_search_cached(res["index_dir"], q, topk=10, nprobe=4)
    ann_df = ann.to_pandas() if hasattr(ann, "to_pandas") else ann

    qv = quantize(np.asarray(q["vecs"]))
    qref = ray.put((np.asarray(q["qid"], np.int64), qv))

    def block_topk(batch: pa.Table) -> pa.Table:
        qid, qm = ray.get(qref)
        vid = batch.column("vec_id").to_numpy()
        v = quantize(
            np.stack(batch.column("embedding").to_numpy(zero_copy_only=False))
        )
        d2 = (
            (v * v).sum(1)[None, :]
            - 2 * (qm @ v.T)
            + (qm * qm).sum(1)[:, None]
        )  # (m, n) exact int64
        rows = []
        for i in range(len(qid)):
            order = np.lexsort((vid, d2[i]))[: min(10, len(vid))]
            rows.append(
                np.stack(
                    [np.full(len(order), qid[i]), vid[order], d2[i][order]],
                    axis=1,
                )
            )
        r = np.concatenate(rows)
        return pa.table(
            {
                "qid": pa.array(r[:, 0]),
                "vec_id": pa.array(r[:, 1]),
                "d2": pa.array(r[:, 2]),
            }
        )

    cand = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(block_topk, batch_format="pyarrow")
        .to_pandas()  # blocks x queries x 10 — driver-small by the prune
    )
    cand = cand.sort_values(["qid", "d2", "vec_id"], kind="stable")
    exact = cand.groupby("qid").head(10)

    rows = []
    for qid, g in exact.groupby("qid"):
        truth = set(g["vec_id"].tolist())
        got = set(ann_df.loc[ann_df["qid"] == qid, "ann_id"].tolist())
        hit = len(truth & got)
        rows.append((int(qid), np.int64(hit), np.int64(hit * 10)))
    out = pd.DataFrame(rows, columns=["qid", "n_hit", "recall_pct"])
    return clean_arrow(out)


def q_nearest_neighbor_dist(sf_dir: str):
    """Large-sample exact spatial self-NN (stages/knn.py::
    nearest_neighbor_dist) — the north star's cell-ring kNN at
    population scale: ONE 3x3-ring candidate exchange with a
    density-adaptive cell size, Chebyshev-1 exactness bound, broadcast
    brute tail only for the rare boundary points. The SQL twin is the
    sampled cross join (exact integer distances, (d2, nn_id) ties)."""
    from ..stages.knn import nearest_neighbor_dist

    return nearest_neighbor_dist(sf_dir)


_SQL_NEAREST_NEIGHBOR_DIST = """
WITH p AS (
  SELECT event_id,
         (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM events
), s AS (
  SELECT * FROM p WHERE event_id % 97 = 0
), d AS (
  SELECT s.event_id, q.event_id AS nn,
         (s.x - q.x) * (s.x - q.x) + (s.y - q.y) * (s.y - q.y) AS d2,
         ROW_NUMBER() OVER (
           PARTITION BY s.event_id
           ORDER BY (s.x - q.x) * (s.x - q.x)
                    + (s.y - q.y) * (s.y - q.y), q.event_id) AS rn
  FROM s JOIN p q ON q.event_id <> s.event_id
)
SELECT event_id, CAST(nn AS BIGINT) AS nn_id, CAST(d2 AS BIGINT) AS d2
FROM d WHERE rn = 1
"""


def q_knn_dist_k4(sf_dir: str):
    """Exact top-4 spatial kNN for the population sample (stages/knn.py::
    knn_dist_topk) — the k-distance primitive LOF-style density scoring
    needs, via the same density-adaptive cell-ring exchange with the
    Chebyshev-1 bound on the K-TH distance and a broadcast brute tail.
    The SQL twin keeps rn <= 4 of the sampled cross join."""
    from ..stages.knn import knn_dist_topk

    return knn_dist_topk(sf_dir, k=4)


_SQL_KNN_DIST_K4 = """
WITH p AS (
  SELECT event_id,
         (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM events
), s AS (
  SELECT * FROM p WHERE event_id % 97 = 0
), d AS (
  SELECT s.event_id, q.event_id AS nn,
         (s.x - q.x) * (s.x - q.x) + (s.y - q.y) * (s.y - q.y) AS d2,
         ROW_NUMBER() OVER (
           PARTITION BY s.event_id
           ORDER BY (s.x - q.x) * (s.x - q.x)
                    + (s.y - q.y) * (s.y - q.y), q.event_id) AS rn
  FROM s JOIN p q ON q.event_id <> s.event_id
)
SELECT event_id, CAST(rn AS BIGINT) AS rank, CAST(nn AS BIGINT) AS nn_id,
       CAST(d2 AS BIGINT) AS d2
FROM d WHERE rn <= 4
"""


def q_lof_outliers(sf_dir: str):
    """LOF density-based anomaly scores for the population sample
    (stages/knn.py::lof_scores) — built ON the k-distance primitive:
    three bounded targeted passes of the cell-ring kNN (sample, 1-hop
    neighbors, 2-hop kdist-only), exact integer reachability sums,
    mirrored final divisions. Rows-only (float LOF ratios); pinned in
    pytest against a brute full-matrix recompute with the same
    squared-distance variant."""
    from ..stages.knn import lof_scores

    return lof_scores(sf_dir)


def q_kmv_source_overlap(sf_dir: str):
    """Cross-source content-overlap monitoring via KMV (k-minimum-values)
    sketches (stages/sketch.py) — the SET-OPERATION sketch next to HLL
    (union-only) and CMS (frequency): per source, the 256 smallest
    distinct 8-gram hashes are a pure (k × blocks)-bounded combiner; the
    driver merges the tiny per-source sketches and reports pairwise
    Jaccard / intersection / distinct estimates — the dataset-mixing
    dedup-pressure dashboard. Rows-only (estimates by design, like
    approx_distinct_events); the estimator error bound and the exact-
    below-k property are pytest-pinned against exact n-gram sets."""
    from ..stages.sketch import (
        KMV_K,
        kmv_distinct_estimate,
        kmv_jaccard_estimate,
        kmv_merge,
        kmv_partial_batch,
    )
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_numpy(zero_copy_only=False)
        txt = batch.column("text").to_pylist()
        outs, outv = [], []
        for s in np.unique(src):
            vals = kmv_partial_batch(
                [txt[i] for i in np.nonzero(src == s)[0]]
            )
            outs.append(np.full(len(vals), s, object))
            outv.append(vals)
        if not outs:  # zero-row input batch (r4 ADVICE): typed empty out
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "v": pa.array(np.empty(0, np.int64)),
                }
            )
        return pa.table(
            {
                "source": pa.array(np.concatenate(outs)),
                "v": pa.array(np.concatenate(outv)),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        sk = kmv_merge(g["v"].to_numpy())
        return pd.DataFrame({"source": g["source"].iloc[:1].repeat(len(sk)),
                             "v": sk})

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()  # sources x k rows — driver-small
    )
    sketches = {
        s: np.sort(g["v"].to_numpy()) for s, g in merged.groupby("source")
    }
    names = sorted(sketches)
    rows = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            j, inter = kmv_jaccard_estimate(sketches[a], sketches[b])
            rows.append(
                (
                    a, b,
                    kmv_distinct_estimate(sketches[a]),
                    kmv_distinct_estimate(sketches[b]),
                    j, inter,
                )
            )
    out = pd.DataFrame(
        rows,
        columns=["source_a", "source_b", "d_est_a", "d_est_b",
                 "jaccard_est", "intersect_est"],
    )
    return clean_arrow(out)


def q_embed_int8_quantize(sf_dir: str):
    """Calibrated symmetric int8 quantization of the embedding corpus —
    the compression step before an ANN index or a feature-store export
    ships 10^12 vectors. Pass 1 calibrates: per-dimension max|x| via a
    max-combiner tree (order-independent, so distributed == serial
    bit-for-bit). Pass 2 broadcasts the tiny (dim,) scale vector inside
    the task closure and encodes codes = clip(round(x / scale), -127, 127)
    per batch, emitting only per-dim audit sums: saturated-code count,
    exact int64 code sum (reproducible checksum), and max absolute
    reconstruction error |x - code*scale| (again a max — order-free).
    Rows-only: np.round is half-to-even, SQL ROUND is half-away, so an
    oracle twin would gate the wrong thing; pinned in pytest against a
    single-process numpy recompute."""
    ds = _read(sf_dir, "embeddings", ["embedding"])

    def _mat(batch: pa.Table) -> np.ndarray:
        emb = batch.column("embedding").combine_chunks()
        flat = emb.flatten().to_numpy().astype(np.float64)
        return flat.reshape(len(batch), -1)

    def calib(batch: pa.Table) -> pa.Table:
        mat = _mat(batch)
        dim = mat.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(dim, dtype=np.int64)),
                "max_abs": pa.array(np.abs(mat).max(axis=0)),
            }
        )

    cal = tree_group_agg(
        ds.map_batches(calib, batch_format="pyarrow"),
        ["dim"], {"max_abs": ("max_abs", "max")},
    ).to_pandas().sort_values("dim")
    max_abs = cal["max_abs"].to_numpy()
    scale = np.where(max_abs > 0, max_abs / 127.0, 1.0)

    def encode(batch: pa.Table) -> pa.Table:
        mat = _mat(batch)
        codes = np.clip(np.round(mat / scale), -127, 127).astype(np.int64)
        err = np.abs(mat - codes * scale)
        dim = mat.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(dim, dtype=np.int64)),
                "n": pa.array(
                    np.full(dim, mat.shape[0], dtype=np.int64)
                ),
                "n_sat": pa.array(
                    (np.abs(codes) == 127).sum(axis=0).astype(np.int64)
                ),
                "code_sum": pa.array(codes.sum(axis=0)),
                "max_abs_err": pa.array(err.max(axis=0)),
            }
        )

    out = tree_group_agg(
        ds.map_batches(encode, batch_format="pyarrow"),
        ["dim"],
        {
            "n": ("n", "sum"),
            "n_sat": ("n_sat", "sum"),
            "code_sum": ("code_sum", "sum"),
            "max_abs_err": ("max_abs_err", "max"),
        },
    ).to_pandas().sort_values("dim")
    out["scale"] = scale[out["dim"].to_numpy()]
    return out.reset_index(drop=True)


def _sql_morans_i() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 1024) AS BIGINT) AS x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 1024) AS BIGINT) AS y,
         COUNT(*) AS n
  FROM pts GROUP BY 1, 2
), e AS (
  SELECT a.n AS xi, b.n AS xj
  FROM t a JOIN t b ON b.x BETWEEN a.x - 1 AND a.x + 1
                   AND b.y BETWEEN a.y - 1 AND a.y + 1
                   AND NOT (b.x = a.x AND b.y = a.y)
), s AS (
  SELECT COUNT(*) AS nt, SUM(n) AS s1, SUM(n * n) AS s2 FROM t
), p AS (
  SELECT COUNT(*) AS w, SUM(xi * xj) AS a_sum, SUM(xi + xj) AS b_sum FROM e
)
SELECT CAST(nt AS BIGINT) AS n_tiles, CAST(w AS BIGINT) AS w_pairs,
       CAST(a_sum * nt * nt - s1 * nt * b_sum + s1 * s1 * w AS DOUBLE)
         / CAST(w * (s2 * nt - s1 * s1) AS DOUBLE) AS morans_i
FROM s, p
"""


_SQL_MORANS_I = _sql_morans_i()


# ---------------------------------------------------------------------------
# Wave 32: chi-square independence cells, user set-similarity (Jaccard over
# event-type bitmasks), discrete-Fréchet track join


def q_chi_square_cells(sf_dir: str):
    """Chi-square independence analysis of event_type x hour-of-day: for
    every OBSERVED (type, hour) cell, its chi-square contribution
    (O - E)^2 / E computed bit-exactly from integer marginals as
    (n*O - R*C)^2 / (n*R*C) — one partial-count exchange; the marginal
    table is <= |types| * 24 rows, bounded by the generator's type domain
    (guarded) and the 24-hour domain, so the final fold is driver-side by
    construction. The float expression is a single fixed-order IEEE chain
    mirrored verbatim in the SQL twin, so values hash-match."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hr": pa.array((us // 3_600_000_000) % 24),
            }
        )

    cells = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hr"],
        {"obs": (None, "count")},
    ).to_pandas()
    n_types = cells["event_type"].nunique()
    if n_types > 64:
        raise ValueError(
            f"chi_square_cells: {n_types} event types exceeds the bounded "
            "type-domain contract (<=64); shard the contingency fold"
        )
    obs = cells["obs"].to_numpy().astype(np.int64)
    n = int(obs.sum())
    rt = cells.groupby("event_type")["obs"].transform("sum").to_numpy()
    ct = cells.groupby("hr")["obs"].transform("sum").to_numpy()
    # wrap-proof: the exact integer d = n*obs - rt*ct must fit int64
    if n * int(obs.max()) >= (1 << 62) or int(rt.max()) * int(ct.max()) >= (
        1 << 62
    ):
        raise OverflowError("chi_square_cells: marginal product would wrap")
    d = n * obs - rt * ct
    df = d.astype(np.float64)
    chi2 = (df * df) / (
        (np.float64(n) * rt.astype(np.float64)) * ct.astype(np.float64)
    )
    out = pd.DataFrame(
        {
            "event_type": cells["event_type"],
            "hr": cells["hr"].astype(np.int64),
            "obs": obs,
            "chi2_cell": chi2,
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_CHI_SQUARE_CELLS = """
WITH c AS (
  SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hr,
         CAST(COUNT(*) AS BIGINT) AS obs
  FROM events GROUP BY 1, 2
), r AS (
  SELECT event_type, CAST(SUM(obs) AS BIGINT) AS rt FROM c GROUP BY 1
), h AS (
  SELECT hr, CAST(SUM(obs) AS BIGINT) AS ct FROM c GROUP BY 1
), n AS (
  SELECT CAST(SUM(obs) AS BIGINT) AS nt FROM c
)
SELECT c.event_type, c.hr, c.obs,
       (CAST(nt * obs - rt * ct AS DOUBLE) * CAST(nt * obs - rt * ct AS DOUBLE))
         / ((CAST(nt AS DOUBLE) * CAST(rt AS DOUBLE)) * CAST(ct AS DOUBLE))
         AS chi2_cell
FROM c JOIN r USING (event_type) JOIN h USING (hr), n
"""

_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1
)


def _popcount64(v: np.ndarray) -> np.ndarray:
    """Vectorized popcount of an int64 array (byte-table lookup)."""
    b = np.ascontiguousarray(v.astype(np.int64)).view(np.uint8)
    return _POP8[b].reshape(len(v), 8).sum(axis=1).astype(np.int64)


def q_user_set_jaccard(sf_dir: str):
    """Exact set-similarity self-join over user event-type SETS at
    Jaccard >= 0.5, counted in bulk: each user's set is a bitmask over the
    (bounded, guarded <= 62) global type domain, users collapse BY MASK,
    and the pair enumeration runs over distinct-mask groups — so the
    quadratic step is O(#masks^2) <= 2^T, never O(#users^2). Integer-only
    output (the Jaccard test 2*|A&B| >= |A|B| avoids floats entirely).
    Exchanges: one distinct-(user,type) combiner, one per-user mask sum,
    one per-mask count — all key-hashed, no all-pairs over rows."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def high(batch: pa.Table) -> pa.Table:
        # the HIGH-VALUE type set (integer-cent threshold keeps the
        # predicate exact); unfiltered sets saturate to the full domain
        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        keep = vc >= 15000
        return pa.table(
            {
                "user_id": batch.column("user_id").filter(pa.array(keep)),
                "event_type": batch.column("event_type").filter(pa.array(keep)),
            }
        )

    distinct_ut = tree_group_agg(
        ev.map_batches(high, batch_format="pyarrow"),
        ["user_id", "event_type"],
        {"n": (None, "count")},
    )
    types = tree_group_agg(
        distinct_ut, ["event_type"], {"n": (None, "count")}
    ).to_pandas()
    names = sorted(types["event_type"].tolist())
    if len(names) > 62:
        raise ValueError(
            f"user_set_jaccard: {len(names)} event types exceeds the "
            "bitmask domain contract (<=62)"
        )
    code = {t: i for i, t in enumerate(names)}

    def to_pow(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_pandas()
        pw = np.int64(1) << et.map(code).to_numpy().astype(np.int64)
        return pa.table({"user_id": batch.column("user_id"), "pw": pa.array(pw)})

    masks = tree_group_agg(
        distinct_ut.map_batches(to_pow, batch_format="pyarrow"),
        ["user_id"],
        {"mask": ("pw", "sum")},  # distinct powers: sum == bitwise OR
    )
    groups = tree_group_agg(
        masks, ["mask"], {"cnt": (None, "count")}
    ).to_pandas()
    if len(groups) > 4096:
        raise ValueError(
            f"user_set_jaccard: {len(groups)} distinct masks exceeds the "
            "driver fold bound (4096); shard the mask-pair enumeration"
        )
    mv = groups["mask"].to_numpy().astype(np.int64)
    cnt = groups["cnt"].to_numpy().astype(np.int64)
    ai, bi = np.triu_indices(len(mv), k=0)
    inter = _popcount64(mv[ai] & mv[bi])
    uni = _popcount64(mv[ai] | mv[bi])
    pairs = np.where(
        ai == bi, cnt[ai] * (cnt[ai] - 1) // 2, cnt[ai] * cnt[bi]
    )
    lo = np.minimum(mv[ai], mv[bi])
    hi = np.maximum(mv[ai], mv[bi])
    keep = (2 * inter >= uni) & (uni > 0) & (pairs >= 1)
    return pa.table(
        {
            "mask_a": pa.array(lo[keep]),
            "mask_b": pa.array(hi[keep]),
            "inter": pa.array(inter[keep]),
            "uni": pa.array(uni[keep]),
            "user_pairs": pa.array(pairs[keep]),
        }
    )


_SQL_USER_SET_JACCARD = """
WITH hv AS (
  SELECT user_id, event_type FROM events
  WHERE CAST(ROUND(value * 100) AS BIGINT) >= 15000
), codes AS (
  SELECT event_type,
         CAST(ROW_NUMBER() OVER (ORDER BY event_type) - 1 AS BIGINT) AS code
  FROM (SELECT DISTINCT event_type FROM hv)
), m AS (
  SELECT user_id,
         CAST(SUM(DISTINCT (CAST(1 AS BIGINT) << code)) AS BIGINT) AS mask
  FROM hv JOIN codes USING (event_type) GROUP BY user_id
), g AS (
  SELECT mask, CAST(COUNT(*) AS BIGINT) AS cnt FROM m GROUP BY 1
)
SELECT CAST(LEAST(a.mask, b.mask) AS BIGINT) AS mask_a,
       CAST(GREATEST(a.mask, b.mask) AS BIGINT) AS mask_b,
       CAST(bit_count(a.mask & b.mask) AS BIGINT) AS inter,
       CAST(bit_count(a.mask | b.mask) AS BIGINT) AS uni,
       CAST(CASE WHEN a.mask = b.mask THEN a.cnt * (a.cnt - 1) // 2
                 ELSE a.cnt * b.cnt END AS BIGINT) AS user_pairs
FROM g a JOIN g b ON a.mask <= b.mask
WHERE 2 * bit_count(a.mask & b.mask) >= bit_count(a.mask | b.mask)
  AND bit_count(a.mask | b.mask) > 0
  AND (CASE WHEN a.mask = b.mask THEN a.cnt * (a.cnt - 1) // 2
            ELSE a.cnt * b.cnt END) >= 1
"""


# ---------------------------------------------------------------------------
# Wave 33: distributed statistics — exact Mann-Whitney rank-sum, Theil-Sen
# robust trend, integer-exact autocorrelation


def q_mann_whitney_u(sf_dir: str):
    """Exact Mann-Whitney U (rank-sum with average-rank tie handling) for
    EVERY unordered event-type pair, from per-(type, value-cent) histograms
    — the value axis is winsorized at 50000 cents so the histogram is
    bounded BY CONSTRUCTION (<= |types| * 50001 rows) regardless of row
    count. Average ranks are carried 2x-scaled so everything stays integer:
    2*R_a = sum_v ca(v) * (2*cum_before(v) + ca(v) + cb(v) + 1) and
    2*U_a = 2*R_a - n_a*(n_a+1). One partial-count exchange; the pair fold
    runs on the bounded driver histogram."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "vb": pa.array(np.minimum(vc, 50000)),
            }
        )

    hist = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "vb"],
        {"c": (None, "count")},
    ).to_pandas()
    types = sorted(hist["event_type"].unique().tolist())
    if len(types) > 64:
        raise ValueError(
            f"mann_whitney_u: {len(types)} event types exceeds the bounded "
            "pair-fold contract (<=64)"
        )
    n_tot = int(hist["c"].sum())
    if n_tot >= (1 << 31):
        raise OverflowError(
            "mann_whitney_u: rank sums would exceed int64; shard the fold"
        )
    by_type = {
        t: g.sort_values("vb")[["vb", "c"]].to_numpy(dtype=np.int64)
        for t, g in hist.groupby("event_type")
    }
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1 :]:
            a, b = by_type[ta], by_type[tb]
            vals = np.union1d(a[:, 0], b[:, 0])
            ca = np.zeros(len(vals), np.int64)
            cb = np.zeros(len(vals), np.int64)
            ca[np.searchsorted(vals, a[:, 0])] = a[:, 1]
            cb[np.searchsorted(vals, b[:, 0])] = b[:, 1]
            tot = ca + cb
            cum = np.concatenate([[0], np.cumsum(tot)[:-1]])
            r2a = int((ca * (2 * cum + tot + 1)).sum())
            na, nb = int(ca.sum()), int(cb.sum())
            rows.append((ta, tb, na, nb, r2a - na * (na + 1)))
    out = pd.DataFrame(
        rows, columns=["type_a", "type_b", "n_a", "n_b", "u2_a"]
    )
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_MANN_WHITNEY_U = """
WITH h AS (
  SELECT event_type AS t,
         LEAST(CAST(ROUND(value * 100) AS BIGINT), 50000) AS vb,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), tp AS (
  SELECT a.t AS ta, b.t AS tb
  FROM (SELECT DISTINCT t FROM h) a JOIN (SELECT DISTINCT t FROM h) b
    ON a.t < b.t
), j AS (
  SELECT ta, tb, vb,
         SUM(CASE WHEN h.t = ta THEN c ELSE 0 END) AS ca,
         SUM(CASE WHEN h.t = tb THEN c ELSE 0 END) AS cb
  FROM tp JOIN h ON h.t = ta OR h.t = tb
  GROUP BY 1, 2, 3
), w AS (
  SELECT ta, tb, ca, cb,
         COALESCE(SUM(ca + cb) OVER (
           PARTITION BY ta, tb ORDER BY vb
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum
  FROM j
), r AS (
  SELECT ta, tb, SUM(ca) AS na, SUM(cb) AS nb,
         SUM(ca * (2 * cum + ca + cb + 1)) AS r2a
  FROM w GROUP BY 1, 2
)
SELECT ta AS type_a, tb AS type_b,
       CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
       CAST(r2a - na * (na + 1) AS BIGINT) AS u2_a
FROM r
"""


def q_theil_sen_trend(sf_dir: str):
    """Theil-Sen robust trend of the hourly event count per type: the
    median over all pairwise slopes (cnt_b - cnt_a) / (hr_b - hr_a) of the
    OBSERVED hourly buckets. The hourly series is bounded BY CONSTRUCTION
    (the generator's fixed 30-day window -> <= ~720 observed hours per
    type), so the O(H^2) pair fold is a constant-size driver step after
    one partial-count exchange. To avoid any float-interpolation
    divergence the output is the SELECTED order statistics around the
    median — slope_lo (element (m-1)//2) and slope_hi (element m//2) of
    the double-sorted slope list — pure selection, bit-exact vs SQL."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hr": pa.array(us // 3_600_000_000),
            }
        )

    hourly = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hr"],
        {"cnt": (None, "count")},
    ).to_pandas()
    rows = []
    for t, g in hourly.groupby("event_type"):
        g = g.sort_values("hr")
        h = g["hr"].to_numpy().astype(np.int64)
        c = g["cnt"].to_numpy().astype(np.int64)
        if len(h) > 5000:
            raise ValueError(
                f"theil_sen_trend: {len(h)} hourly buckets exceeds the "
                "bounded-window contract (<=5000); shard the pair fold"
            )
        ai, bi = np.triu_indices(len(h), k=1)
        slopes = (c[bi] - c[ai]).astype(np.float64) / (
            h[bi] - h[ai]
        ).astype(np.float64)
        slopes.sort()
        m = len(slopes)
        rows.append(
            (t, m, float(slopes[(m - 1) // 2]), float(slopes[m // 2]))
        )
    out = pd.DataFrame(
        rows, columns=["event_type", "n_pairs", "slope_lo", "slope_hi"]
    )
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_THEIL_SEN_TREND = """
WITH e AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hr FROM events
), c AS (
  SELECT event_type, hr, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM e GROUP BY 1, 2
), s AS (
  SELECT a.event_type,
         CAST(b.cnt - a.cnt AS DOUBLE) / CAST(b.hr - a.hr AS DOUBLE)
           AS slope
  FROM c a JOIN c b
    ON a.event_type = b.event_type AND a.hr < b.hr
), r AS (
  SELECT event_type, slope,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY slope) AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS m
  FROM s
)
SELECT event_type, CAST(MAX(m) AS BIGINT) AS n_pairs,
       MAX(CASE WHEN rn = (m - 1) // 2 + 1 THEN slope END) AS slope_lo,
       MAX(CASE WHEN rn = m // 2 + 1 THEN slope END) AS slope_hi
FROM r GROUP BY event_type
"""


def q_acf_hourly(sf_dir: str):
    """Autocorrelation (lags 1..3) of the zero-densified hourly event-count
    series per type, integer-exact: with H grid hours, S = sum(x) and
    centered terms n*x_t - S carried as PYTHON ints (arbitrary precision —
    wrap-proof at any scale), acf_k = num_k / den with exactly one double
    division at the end, mirrored by the SQL twin's HUGEINT arithmetic.
    The grid is the generator's fixed 30-day window (bounded by
    construction); one partial-count exchange feeds the driver fold."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hr": pa.array(us // 3_600_000_000),
            }
        )

    hourly = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hr"],
        {"cnt": (None, "count")},
    ).to_pandas()
    h0 = int(hourly["hr"].min())
    h1 = int(hourly["hr"].max())
    H = h1 - h0 + 1
    if H > 100_000:
        raise ValueError(
            f"acf_hourly: {H} grid hours exceeds the bounded-window "
            "contract (<=100000); shard the series fold"
        )
    rows = []
    for t, g in hourly.groupby("event_type"):
        x = np.zeros(H, dtype=np.int64)
        x[g["hr"].to_numpy().astype(np.int64) - h0] = g["cnt"].to_numpy()
        xs = [int(v) for v in x]
        S = sum(xs)
        cent = [H * v - S for v in xs]
        den = sum(c * c for c in cent)
        for k in (1, 2, 3):
            num = sum(cent[i] * cent[i + k] for i in range(H - k))
            acf = float(num) / float(den) if den else 0.0
            rows.append((t, k, H, acf))
    out = pd.DataFrame(rows, columns=["event_type", "lag", "n_hours", "acf"])
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_ACF_HOURLY = """
WITH e AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hr FROM events
), b AS (
  SELECT MIN(hr) AS h0, MAX(hr) AS h1 FROM e
), grid AS (
  SELECT t.event_type, g.h
  FROM (SELECT DISTINCT event_type FROM e) t,
       b, (SELECT UNNEST(generate_series((SELECT h0 FROM b),
                                         (SELECT h1 FROM b))) AS h) g
), cnts AS (
  SELECT event_type, hr, COUNT(*) AS c FROM e GROUP BY 1, 2
), x AS (
  SELECT grid.event_type, grid.h, COALESCE(cnts.c, 0) AS c
  FROM grid LEFT JOIN cnts
    ON cnts.event_type = grid.event_type AND cnts.hr = grid.h
), m AS (
  SELECT event_type, COUNT(*) AS hh, SUM(c) AS s FROM x GROUP BY 1
), cent AS (
  SELECT x.event_type, x.h, m.hh * x.c - m.s AS d, m.hh
  FROM x JOIN m USING (event_type)
), lagd AS (
  SELECT event_type, h, d, hh,
         LEAD(d, 1) OVER win AS d1,
         LEAD(d, 2) OVER win AS d2,
         LEAD(d, 3) OVER win AS d3
  FROM cent WINDOW win AS (PARTITION BY event_type ORDER BY h)
), agg AS (
  SELECT event_type, MAX(hh) AS hh, SUM(d * d) AS den,
         SUM(CASE WHEN d1 IS NOT NULL THEN d * d1 ELSE 0 END) AS n1,
         SUM(CASE WHEN d2 IS NOT NULL THEN d * d2 ELSE 0 END) AS n2,
         SUM(CASE WHEN d3 IS NOT NULL THEN d * d3 ELSE 0 END) AS n3
  FROM lagd GROUP BY 1
)
SELECT event_type, CAST(lag AS BIGINT) AS lag, CAST(hh AS BIGINT) AS n_hours,
       CASE WHEN den = 0 THEN 0.0
            ELSE CAST(CASE lag WHEN 1 THEN n1 WHEN 2 THEN n2 ELSE n3 END
                      AS DOUBLE) / CAST(den AS DOUBLE) END AS acf
FROM agg, (SELECT UNNEST([1, 2, 3]) AS lag)
"""


# ---------------------------------------------------------------------------
# Wave 34: oracle-gated Hausdorff track join + exact Kolmogorov-Smirnov


def q_hausdorff_pairs(sf_dir: str):
    """Symmetric-Hausdorff track-similarity join (ORACLE — unlike
    DTW/Fréchet the max-of-min point-set distance is order-free, so the
    SQL twin rebuilds the fixed-length tracks with ROW_NUMBER and takes
    the same GREATEST of directed max-of-mins). Start-cell blocking keeps
    the quadratic step per-cell; int64-exact squared distances."""
    from ..stages.trajectory import track_hausdorff_pairs

    return track_hausdorff_pairs(sf_dir)


_SQL_HAUSDORFF_PAIRS = """
WITH e AS (
  SELECT user_id, event_id,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS n
  FROM events
), p AS (
  SELECT user_id, rn,
         (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM e WHERE rn <= 8 AND n >= 8
), c AS (
  SELECT user_id,
         MAX(CASE WHEN rn = 1 THEN (x // 30000) * 16 + y // 30000 END)
           AS cell
  FROM p GROUP BY 1
), d AS (
  SELECT ca.user_id AS ua, cb.user_id AS ub, pa.rn AS ra, pb.rn AS rb,
         (pa.x - pb.x) * (pa.x - pb.x) + (pa.y - pb.y) * (pa.y - pb.y)
           AS d2
  FROM c ca
  JOIN c cb ON ca.cell = cb.cell AND ca.user_id < cb.user_id
  JOIN p pa ON pa.user_id = ca.user_id
  JOIN p pb ON pb.user_id = cb.user_id
)
SELECT ua AS user_a, ub AS user_b, CAST(MAX(m) AS BIGINT) AS hausdorff_d2
FROM (
  SELECT ua, ub, MIN(d2) AS m FROM d GROUP BY ua, ub, ra
  UNION ALL
  SELECT ua, ub, MIN(d2) AS m FROM d GROUP BY ua, ub, rb
) GROUP BY 1, 2
"""


def q_ks_statistic(sf_dir: str):
    """Exact two-sample Kolmogorov-Smirnov for every unordered event-type
    pair, as the INTEGER rational D = ks_num / (n_a * n_b) with
    ks_num = max_v |n_b * cumA(v) - n_a * cumB(v)| over the winsorized
    cent histogram (same bounded-by-construction value axis as
    mann_whitney_u). Zero float arithmetic anywhere."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "vb": pa.array(np.minimum(vc, 50000)),
            }
        )

    hist = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "vb"],
        {"c": (None, "count")},
    ).to_pandas()
    types = sorted(hist["event_type"].unique().tolist())
    if len(types) > 64:
        raise ValueError(
            f"ks_statistic: {len(types)} event types exceeds the bounded "
            "pair-fold contract (<=64)"
        )
    if int(hist["c"].sum()) >= (1 << 31):
        raise OverflowError(
            "ks_statistic: cum products would exceed int64; shard the fold"
        )
    by_type = {
        t: g.sort_values("vb")[["vb", "c"]].to_numpy(dtype=np.int64)
        for t, g in hist.groupby("event_type")
    }
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1 :]:
            a, b = by_type[ta], by_type[tb]
            vals = np.union1d(a[:, 0], b[:, 0])
            ca = np.zeros(len(vals), np.int64)
            cb = np.zeros(len(vals), np.int64)
            ca[np.searchsorted(vals, a[:, 0])] = a[:, 1]
            cb[np.searchsorted(vals, b[:, 0])] = b[:, 1]
            na, nb = int(ca.sum()), int(cb.sum())
            cca = np.cumsum(ca)
            ccb = np.cumsum(cb)
            ks = int(np.abs(nb * cca - na * ccb).max())
            rows.append((ta, tb, na, nb, ks))
    out = pd.DataFrame(
        rows, columns=["type_a", "type_b", "n_a", "n_b", "ks_num"]
    )
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_KS_STATISTIC = """
WITH h AS (
  SELECT event_type AS t,
         LEAST(CAST(ROUND(value * 100) AS BIGINT), 50000) AS vb,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), tp AS (
  SELECT a.t AS ta, b.t AS tb
  FROM (SELECT DISTINCT t FROM h) a JOIN (SELECT DISTINCT t FROM h) b
    ON a.t < b.t
), j AS (
  SELECT ta, tb, vb,
         SUM(CASE WHEN h.t = ta THEN c ELSE 0 END) AS ca,
         SUM(CASE WHEN h.t = tb THEN c ELSE 0 END) AS cb
  FROM tp JOIN h ON h.t = ta OR h.t = tb
  GROUP BY 1, 2, 3
), w AS (
  SELECT ta, tb,
         SUM(ca) OVER (PARTITION BY ta, tb ORDER BY vb) AS cca,
         SUM(cb) OVER (PARTITION BY ta, tb ORDER BY vb) AS ccb,
         SUM(ca) OVER (PARTITION BY ta, tb) AS na,
         SUM(cb) OVER (PARTITION BY ta, tb) AS nb
  FROM j
)
SELECT ta AS type_a, tb AS type_b,
       CAST(MAX(na) AS BIGINT) AS n_a, CAST(MAX(nb) AS BIGINT) AS n_b,
       CAST(MAX(ABS(nb * cca - na * ccb)) AS BIGINT) AS ks_num
FROM w GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Wave 35: 1-D Wasserstein distance, Wald-Wolfowitz runs test, STL-lite
# seasonal decomposition — all integer-exact, all oracle-gated


def q_wasserstein_1d(sf_dir: str):
    """Exact 1-D Wasserstein (earth-mover) distance between every
    unordered pair of event-type value distributions, as the integer
    numerator W1_num = sum_v |n_b*cumA(v) - n_a*cumB(v)| * gap(v) over the
    winsorized-cent histogram (denominator n_a*n_b implied). The fold runs
    in PYTHON ints (wrap-proof); the SQL twin's HUGEINT sums mirror it.
    Same bounded-by-construction value axis as mann_whitney_u."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "vb": pa.array(np.minimum(vc, 50000)),
            }
        )

    hist = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "vb"],
        {"c": (None, "count")},
    ).to_pandas()
    types = sorted(hist["event_type"].unique().tolist())
    if len(types) > 64:
        raise ValueError(
            f"wasserstein_1d: {len(types)} event types exceeds the bounded "
            "pair-fold contract (<=64)"
        )
    by_type = {
        t: g.sort_values("vb")[["vb", "c"]].to_numpy(dtype=np.int64)
        for t, g in hist.groupby("event_type")
    }
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1 :]:
            a, b = by_type[ta], by_type[tb]
            vals = np.union1d(a[:, 0], b[:, 0])
            ca = np.zeros(len(vals), np.int64)
            cb = np.zeros(len(vals), np.int64)
            ca[np.searchsorted(vals, a[:, 0])] = a[:, 1]
            cb[np.searchsorted(vals, b[:, 0])] = b[:, 1]
            na, nb = int(ca.sum()), int(cb.sum())
            cca = np.cumsum(ca)
            ccb = np.cumsum(cb)
            w1 = 0
            for k in range(len(vals) - 1):
                w1 += abs(
                    nb * int(cca[k]) - na * int(ccb[k])
                ) * int(vals[k + 1] - vals[k])
            if w1 >= (1 << 63):
                raise OverflowError(
                    "wasserstein_1d: W1 numerator exceeds BIGINT"
                )
            rows.append((ta, tb, na, nb, w1))
    out = pd.DataFrame(
        rows, columns=["type_a", "type_b", "n_a", "n_b", "w1_num"]
    )
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_WASSERSTEIN_1D = """
WITH h AS (
  SELECT event_type AS t,
         LEAST(CAST(ROUND(value * 100) AS BIGINT), 50000) AS vb,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), tp AS (
  SELECT a.t AS ta, b.t AS tb
  FROM (SELECT DISTINCT t FROM h) a JOIN (SELECT DISTINCT t FROM h) b
    ON a.t < b.t
), j AS (
  SELECT ta, tb, vb,
         SUM(CASE WHEN h.t = ta THEN c ELSE 0 END) AS ca,
         SUM(CASE WHEN h.t = tb THEN c ELSE 0 END) AS cb
  FROM tp JOIN h ON h.t = ta OR h.t = tb
  GROUP BY 1, 2, 3
), w AS (
  SELECT ta, tb, vb,
         SUM(ca) OVER (PARTITION BY ta, tb ORDER BY vb) AS cca,
         SUM(cb) OVER (PARTITION BY ta, tb ORDER BY vb) AS ccb,
         SUM(ca) OVER (PARTITION BY ta, tb) AS na,
         SUM(cb) OVER (PARTITION BY ta, tb) AS nb,
         LEAD(vb) OVER (PARTITION BY ta, tb ORDER BY vb) AS vn
  FROM j
)
SELECT ta AS type_a, tb AS type_b,
       CAST(MAX(na) AS BIGINT) AS n_a, CAST(MAX(nb) AS BIGINT) AS n_b,
       CAST(SUM(CASE WHEN vn IS NULL THEN 0
                     ELSE ABS(nb * cca - na * ccb) * (vn - vb) END)
            AS BIGINT) AS w1_num
FROM w GROUP BY 1, 2
"""


def q_runs_test(sf_dir: str):
    """Wald-Wolfowitz runs test per event type over the (ts, event_id)
    time-ordered sign sequence vs the type's LOWER MEDIAN (order statistic
    (n+1)//2 of the winsorized cents, from the bounded histogram —
    median-tie rows drop, the classic convention). Adjacency across the
    distributed order is stitched from per-(type, hour-bucket) partials
    (in-bucket sign-change count + boundary signs), so no global sort:
    one exchange, then a <= |types| * 720 driver stitch bounded by the
    generator's fixed window. runs = 1 + sign changes; n_pos/n_neg
    alongside for the z-score."""
    from ..stages.treeagg import clean_arrow

    ev = _read(sf_dir, "events", ["event_type", "event_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "vb": pa.array(np.minimum(vc, 50000)),
                "us": pa.array(us),
                "event_id": batch.column("event_id"),
                "hr": pa.array(us // 3_600_000_000),
            }
        )

    pts = ev.map_batches(prep, batch_format="pyarrow")
    hist = tree_group_agg(
        pts, ["event_type", "vb"], {"c": (None, "count")}
    ).to_pandas()
    med = {}
    for t, g in hist.groupby("event_type"):
        g = g.sort_values("vb")
        cum = g["c"].cumsum().to_numpy()
        n = int(cum[-1])
        k = (n + 1) // 2
        med[t] = int(g["vb"].to_numpy()[np.searchsorted(cum, k)])

    def bucket_partial(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["us", "event_id"], kind="stable")
        t = g["event_type"].iloc[0]
        sg = np.sign(g["vb"].to_numpy() - med[t]).astype(np.int64)
        sg = sg[sg != 0]
        if not len(sg):
            return clean_arrow(
                pd.DataFrame(
                    columns=[
                        "event_type", "hr", "changes", "first_sg",
                        "last_sg", "n_pos", "n_neg",
                    ]
                ).astype(
                    {
                        "event_type": str, "hr": np.int64,
                        "changes": np.int64, "first_sg": np.int64,
                        "last_sg": np.int64, "n_pos": np.int64,
                        "n_neg": np.int64,
                    }
                )
            )
        return clean_arrow(
            pd.DataFrame(
                {
                    "event_type": [t],
                    "hr": [np.int64(g["hr"].iloc[0])],
                    "changes": [np.int64((sg[1:] != sg[:-1]).sum())],
                    "first_sg": [sg[0]],
                    "last_sg": [sg[-1]],
                    "n_pos": [np.int64((sg > 0).sum())],
                    "n_neg": [np.int64((sg < 0).sum())],
                }
            )
        )

    parts = (
        pts.groupby(["event_type", "hr"])
        .map_groups(bucket_partial, batch_format="pandas")
        .to_pandas()
    )
    rows = []
    for t, g in parts.groupby("event_type"):
        g = g.sort_values("hr")
        changes = int(g["changes"].sum())
        last = g["last_sg"].to_numpy()[:-1]
        first = g["first_sg"].to_numpy()[1:]
        changes += int((last != first).sum())
        rows.append(
            (
                t,
                changes + 1,
                int(g["n_pos"].sum()),
                int(g["n_neg"].sum()),
            )
        )
    out = pd.DataFrame(rows, columns=["event_type", "runs", "n_pos", "n_neg"])
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_RUNS_TEST = """
WITH v AS (
  SELECT event_type, epoch_us(ts) AS us, event_id,
         LEAST(CAST(ROUND(value * 100) AS BIGINT), 50000) AS vc
  FROM events
), med AS (
  SELECT event_type, vc AS m FROM (
    SELECT event_type, vc,
           ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY vc) AS rn,
           COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM v
  ) WHERE rn = (n + 1) // 2
), s AS (
  SELECT v.event_type, us, event_id,
         CASE WHEN vc > m THEN 1 WHEN vc < m THEN -1 ELSE 0 END AS sg
  FROM v JOIN med USING (event_type)
), nz AS (
  SELECT event_type, sg,
         LAG(sg) OVER (PARTITION BY event_type
                       ORDER BY us, event_id) AS pg
  FROM s WHERE sg != 0
)
SELECT event_type,
       CAST(SUM(CASE WHEN pg IS NULL OR sg != pg THEN 1 ELSE 0 END)
            AS BIGINT) AS runs,
       CAST(SUM(CASE WHEN sg = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
       CAST(SUM(CASE WHEN sg = -1 THEN 1 ELSE 0 END) AS BIGINT) AS n_neg
FROM nz GROUP BY 1
"""


def q_stl_seasonal(sf_dir: str):
    """STL-lite seasonal component of the hourly event-count series per
    type: detrend with a centered 25-hour moving SUM (detr = 25*x_t -
    window_sum, 25x-scaled so everything stays integer), then the seasonal
    estimate per hour-of-day is the exact rational mean of detrended
    values — emitted as (seas_num, n_obs) integer pairs. Zero-densified
    grid bounded by the generator's fixed 30-day window; one
    partial-count exchange feeds the driver fold."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hr": pa.array(us // 3_600_000_000),
            }
        )

    hourly = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hr"],
        {"cnt": (None, "count")},
    ).to_pandas()
    h0 = int(hourly["hr"].min())
    h1 = int(hourly["hr"].max())
    H = h1 - h0 + 1
    if H > 100_000:
        raise ValueError(
            f"stl_seasonal: {H} grid hours exceeds the bounded-window "
            "contract (<=100000); shard the series fold"
        )
    rows = []
    for t, g in hourly.groupby("event_type"):
        x = np.zeros(H, dtype=np.int64)
        x[g["hr"].to_numpy().astype(np.int64) - h0] = g["cnt"].to_numpy()
        cs = np.concatenate([[0], np.cumsum(x)])
        # centered window sum over [t-12, t+12] for t in [12, H-13]
        t_idx = np.arange(12, H - 12)
        wsum = cs[t_idx + 13] - cs[t_idx - 12]
        detr = 25 * x[t_idx] - wsum
        hh = (t_idx + h0) % 24
        for h in range(24):
            m = hh == h
            if m.any():
                rows.append(
                    (t, h, int(detr[m].sum()), int(m.sum()))
                )
    out = pd.DataFrame(
        rows, columns=["event_type", "hh", "seas_num", "n_obs"]
    )
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_STL_SEASONAL = """
WITH e AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hr FROM events
), b AS (
  SELECT MIN(hr) AS h0, MAX(hr) AS h1 FROM e
), grid AS (
  SELECT t.event_type, g.h
  FROM (SELECT DISTINCT event_type FROM e) t,
       (SELECT UNNEST(generate_series((SELECT h0 FROM b),
                                      (SELECT h1 FROM b))) AS h) g
), cnts AS (
  SELECT event_type, hr, COUNT(*) AS c FROM e GROUP BY 1, 2
), x AS (
  SELECT grid.event_type, grid.h, COALESCE(cnts.c, 0) AS c
  FROM grid LEFT JOIN cnts
    ON cnts.event_type = grid.event_type AND cnts.hr = grid.h
), w AS (
  SELECT event_type, h, c,
         SUM(c) OVER win AS wsum, COUNT(*) OVER win AS wn
  FROM x WINDOW win AS (PARTITION BY event_type ORDER BY h
                        ROWS BETWEEN 12 PRECEDING AND 12 FOLLOWING)
), d AS (
  SELECT event_type, h % 24 AS hh, 25 * c - wsum AS detr
  FROM w WHERE wn = 25
)
SELECT event_type, CAST(hh AS BIGINT) AS hh,
       CAST(SUM(detr) AS BIGINT) AS seas_num,
       CAST(COUNT(*) AS BIGINT) AS n_obs
FROM d GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Wave 36: local Moran's I (LISA) per tile, cross-correlation of type pairs


def q_local_morans_i(sf_dir: str):
    """LOCAL Moran's I (LISA) for every occupied z10 tile — the per-tile
    hotspot/coldspot classification that complements the global
    ``morans_i``. Same two-stage plan: per-tile counts (one fact-sized
    combiner exchange), then the ``_queen_stencil`` (9x the TILE table,
    never the facts) yields each tile's count c, occupied-neighbor sum s
    and degree d. With exact integers z_p = nt*c_p - s1 and
    lag_p = nt*s_p - d_p*s1, the output per tile is the integer numerator
    li_num = z_p * lag_p plus li = (li_num * nt) / den as the ONE
    fixed-order float expression (den = nt^2*s2 - nt*s1^2, global).
    Globals fold via a second tiny tree agg; per-tile emission is a
    streaming map with broadcast scalars — nothing driver-sized but the
    moment row."""
    tiles = _queen_stencil(_tile_counts(sf_dir, 10)).materialize()
    mom = _tile_moments(tiles)
    # the largest int64 moment is S2 = sum n^2 <= max(n)·N
    _guard_moments("local_morans_i", mom["cmax"], mom["s1"], 1)
    nt, s1, s2 = mom["nt"], mom["s1"], mom["s2"]
    den = nt * nt * s2 - nt * s1 * s1
    # wrap-proofing: the largest |li_num| is bounded by (nt*cmax + s1) *
    # (8*(nt*cmax + s1)); assert with Python ints before the int64 map
    if den >= (1 << 63) or (nt * s2 + s1 * s1) * 9 * nt >= (1 << 62):
        raise OverflowError("local_morans_i: moments would wrap int64")

    def emit(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy()
        s = batch.column("s").to_numpy()
        d = batch.column("d").to_numpy()
        z = nt * c - s1
        lag = nt * s - d * s1
        num = z * lag
        li = (num.astype(np.float64) * np.float64(nt)) / np.float64(den)
        return pa.table(
            {
                "tile_x": batch.column("tile_x"),
                "tile_y": batch.column("tile_y"),
                "n": pa.array(c),
                "deg": pa.array(d),
                "li_num": pa.array(num),
                "li": pa.array(li),
            }
        )

    return tiles.map_batches(emit, batch_format="pyarrow")


def _sql_local_morans_i() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 1024) AS BIGINT) AS x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 1024) AS BIGINT) AS y,
         COUNT(*) AS n
  FROM pts GROUP BY 1, 2
), e AS (
  SELECT a.x, a.y, SUM(b.n) AS s, COUNT(*) AS d
  FROM t a JOIN t b ON b.x BETWEEN a.x - 1 AND a.x + 1
                   AND b.y BETWEEN a.y - 1 AND a.y + 1
                   AND NOT (b.x = a.x AND b.y = a.y)
  GROUP BY 1, 2
), g AS (
  SELECT COUNT(*) AS nt, SUM(n) AS s1, SUM(n * n) AS s2 FROM t
)
SELECT t.x AS tile_x, t.y AS tile_y,
       CAST(t.n AS BIGINT) AS n,
       CAST(COALESCE(e.d, 0) AS BIGINT) AS deg,
       CAST((nt * t.n - s1) * (nt * COALESCE(e.s, 0) - COALESCE(e.d, 0) * s1)
            AS BIGINT) AS li_num,
       (CAST((nt * t.n - s1)
             * (nt * COALESCE(e.s, 0) - COALESCE(e.d, 0) * s1) AS DOUBLE)
        * CAST(nt AS DOUBLE))
         / CAST(nt * nt * s2 - nt * s1 * s1 AS DOUBLE) AS li
FROM t LEFT JOIN e ON e.x = t.x AND e.y = t.y, g
"""


_SQL_LOCAL_MORANS_I = _sql_local_morans_i()


def q_xcf_hourly(sf_dir: str):
    """Cross-correlation (lags 0..3) between the zero-densified hourly
    count series of every unordered event-type pair: with H grid hours,
    zA_t = H*a_t - SA carried as Python ints, xcf_k = num_k /
    sqrt(denA * denB) with the product exact and exactly one double
    division + one correctly-rounded SQRT — bit-identical to the SQL
    twin's HUGEINT arithmetic. Bounded by the generator's fixed window;
    one partial-count exchange."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hr": pa.array(us // 3_600_000_000),
            }
        )

    hourly = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hr"],
        {"cnt": (None, "count")},
    ).to_pandas()
    h0 = int(hourly["hr"].min())
    h1 = int(hourly["hr"].max())
    H = h1 - h0 + 1
    if H > 100_000:
        raise ValueError(
            f"xcf_hourly: {H} grid hours exceeds the bounded-window "
            "contract (<=100000); shard the series fold"
        )
    cent = {}
    dens = {}
    for t, g in hourly.groupby("event_type"):
        x = np.zeros(H, dtype=np.int64)
        x[g["hr"].to_numpy().astype(np.int64) - h0] = g["cnt"].to_numpy()
        xs = [int(v) for v in x]
        S = sum(xs)
        z = [H * v - S for v in xs]
        cent[t] = z
        dens[t] = sum(v * v for v in z)
    types = sorted(cent)
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1 :]:
            za, zb = cent[ta], cent[tb]
            dd = dens[ta] * dens[tb]
            for k in (0, 1, 2, 3):
                num = sum(za[t] * zb[t + k] for t in range(H - k))
                # math.sqrt is the IEEE correctly-rounded sqrt, identical
                # to DuckDB's SQRT (Python's ** 0.5 goes through pow and
                # is NOT guaranteed bit-identical)
                import math

                xcf = float(num) / math.sqrt(float(dd)) if dd else 0.0
                rows.append((ta, tb, k, H, xcf))
    out = pd.DataFrame(
        rows, columns=["type_a", "type_b", "lag", "n_hours", "xcf"]
    )
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_XCF_HOURLY = """
WITH e AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hr FROM events
), b AS (
  SELECT MIN(hr) AS h0, MAX(hr) AS h1 FROM e
), grid AS (
  SELECT t.event_type, g.h
  FROM (SELECT DISTINCT event_type FROM e) t,
       (SELECT UNNEST(generate_series((SELECT h0 FROM b),
                                      (SELECT h1 FROM b))) AS h) g
), cnts AS (
  SELECT event_type, hr, COUNT(*) AS c FROM e GROUP BY 1, 2
), x AS (
  SELECT grid.event_type, grid.h, COALESCE(cnts.c, 0) AS c
  FROM grid LEFT JOIN cnts
    ON cnts.event_type = grid.event_type AND cnts.hr = grid.h
), m AS (
  SELECT event_type, COUNT(*) AS hh, SUM(c) AS s FROM x GROUP BY 1
), cent AS (
  SELECT x.event_type, x.h, m.hh * x.c - m.s AS d, m.hh
  FROM x JOIN m USING (event_type)
), dens AS (
  SELECT event_type, SUM(d * d) AS den, MAX(hh) AS hh
  FROM cent GROUP BY 1
), tp AS (
  SELECT a.event_type AS ta, b.event_type AS tb,
         a.den AS da, b.den AS db, a.hh AS hh
  FROM dens a JOIN dens b ON a.event_type < b.event_type
), num AS (
  SELECT tp.ta, tp.tb, lg.lag, tp.hh, tp.da, tp.db,
         SUM(ca.d * cb.d) AS num
  FROM tp
  CROSS JOIN (SELECT UNNEST([0, 1, 2, 3]) AS lag) lg
  JOIN cent ca ON ca.event_type = tp.ta
  JOIN cent cb ON cb.event_type = tp.tb AND cb.h = ca.h + lg.lag
  GROUP BY 1, 2, 3, 4, 5, 6
)
SELECT ta AS type_a, tb AS type_b, CAST(lag AS BIGINT) AS lag,
       CAST(hh AS BIGINT) AS n_hours,
       CASE WHEN da * db = 0 THEN 0.0
            ELSE CAST(num AS DOUBLE) / SQRT(CAST(da * db AS DOUBLE)) END
         AS xcf
FROM num
"""


# ---------------------------------------------------------------------------
# Wave 37: location quotient per mesh cell, Ripley's K pair counts


def q_location_quotient(sf_dir: str):
    """Location quotient per (mesh cell, event type): the classic
    concentration index LQ = (n_mt/n_m) / (n_t/n), emitted as the exact
    integer rational (lq_num = n_mt*n, lq_den = n_m*n_t) plus one
    fixed-order double division. One partial-count exchange; the join of
    marginals folds on the driver over a table bounded BY CONSTRUCTION
    (24x22 mesh domain x guarded type domain)."""
    ds = _event_points(sf_dir, ["event_id", "event_type"])
    ds = ds.map_batches(mesh_assign_arith, batch_format="pyarrow")
    ds = ds.select_columns(["mesh_id", "event_type"])
    cells = tree_group_agg(
        ds, ["mesh_id", "event_type"], {"n_mt": (None, "count")}
    ).to_pandas()
    if cells["event_type"].nunique() > 64:
        raise ValueError(
            "location_quotient: type domain exceeds the bounded fold (<=64)"
        )
    n = int(cells["n_mt"].sum())
    nm = cells.groupby("mesh_id")["n_mt"].transform("sum").to_numpy()
    ntp = cells.groupby("event_type")["n_mt"].transform("sum").to_numpy()
    nmt = cells["n_mt"].to_numpy().astype(np.int64)
    if n * int(nmt.max()) >= (1 << 62):
        raise OverflowError("location_quotient: lq_num would wrap int64")
    lq_num = nmt * n
    lq_den = nm * ntp
    out = pd.DataFrame(
        {
            "mesh_id": cells["mesh_id"],
            "event_type": cells["event_type"],
            "n_mt": nmt,
            "lq_num": lq_num,
            "lq_den": lq_den,
            "lq": lq_num.astype(np.float64) / lq_den.astype(np.float64),
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def _sql_location_quotient() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT event_type, {lng} AS lng, {lat} AS lat FROM events
), c AS (
  SELECT 'mesh_' ||
         CAST(LEAST(CAST(FLOOR((lng - 122.0) / 24.0 * 24) AS BIGINT), 23)
              AS VARCHAR)
         || '_' ||
         CAST(LEAST(CAST(FLOOR((lat - 24.0) / 22.0 * 22) AS BIGINT), 21)
              AS VARCHAR) AS mesh_id,
         event_type, CAST(COUNT(*) AS BIGINT) AS n_mt
  FROM pts GROUP BY 1, 2
), m AS (
  SELECT mesh_id, SUM(n_mt) AS n_m FROM c GROUP BY 1
), t AS (
  SELECT event_type, SUM(n_mt) AS n_t FROM c GROUP BY 1
), g AS (
  SELECT SUM(n_mt) AS n FROM c
)
SELECT c.mesh_id, c.event_type, c.n_mt,
       CAST(c.n_mt * n AS BIGINT) AS lq_num,
       CAST(n_m * n_t AS BIGINT) AS lq_den,
       CAST(c.n_mt * n AS DOUBLE) / CAST(n_m * n_t AS DOUBLE) AS lq
FROM c JOIN m USING (mesh_id) JOIN t USING (event_type), g
"""


_SQL_LOCATION_QUOTIENT = _sql_location_quotient()


_RIPLEY_RADII = (2000, 5000, 10000)
_RIPLEY_CELL = 10000


def q_ripley_k_pairs(sf_dir: str):
    """Ripley's K pair counts: the exact number of unordered point pairs
    within squared distance r^2 for r in {2000, 5000, 10000} over the
    integer synthetic geocode (plus n for the K normalization). Cell-ring
    blocking at the max radius: every point scatters once as CENTER to
    its home cell and as GHOST to the 8 neighbors; per cell the count is
    #(center a, member b) with a.id < b.id and d2 <= r^2, which counts
    each qualifying pair exactly once globally (in the smaller id's home
    cell). One 9x exchange of the point table, vectorized per-cell
    distance matrices, no all-pairs."""
    from ..stages.treeagg import clean_arrow

    ev = _read(sf_dir, "events", ["event_id"])

    def scatter(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy()
        x = (eid * 9973) % 240000
        y = (eid * 7919) % 220000
        cx, cy = x // _RIPLEY_CELL, y // _RIPLEY_CELL
        outs = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                outs.append(
                    {
                        "ck": (cx + dx) * 64 + (cy + dy),
                        "eid": eid,
                        "x": x,
                        "y": y,
                        "ctr": np.full(
                            len(eid), 1 if dx == dy == 0 else 0, np.int64
                        ),
                    }
                )
        return pa.table(
            {
                k: pa.array(np.concatenate([o[k] for o in outs]))
                for k in ("ck", "eid", "x", "y", "ctr")
            }
        )

    def cell_pairs(g: pd.DataFrame) -> pa.Table:
        ctr = g["ctr"].to_numpy() == 1
        if not ctr.any() or len(g) < 2:
            return clean_arrow(
                pd.DataFrame(
                    {"r": pd.Series(dtype=np.int64),
                     "pairs": pd.Series(dtype=np.int64)}
                )
            )
        ax = g["x"].to_numpy()[ctr]
        ay = g["y"].to_numpy()[ctr]
        aid = g["eid"].to_numpy()[ctr]
        bx, by, bid = g["x"].to_numpy(), g["y"].to_numpy(), g["eid"].to_numpy()
        dx = ax[:, None] - bx[None, :]
        dy = ay[:, None] - by[None, :]
        d2 = dx * dx + dy * dy
        lt = aid[:, None] < bid[None, :]
        rows = {
            "r": np.array(_RIPLEY_RADII, np.int64),
            "pairs": np.array(
                [
                    int((lt & (d2 <= r * r)).sum())
                    for r in _RIPLEY_RADII
                ],
                np.int64,
            ),
        }
        return clean_arrow(pd.DataFrame(rows))

    parts = (
        ev.map_batches(scatter, batch_format="pyarrow")
        .groupby("ck")
        .map_groups(cell_pairs, batch_format="pandas")
    )
    tot = tree_group_agg(parts, ["r"], {"pairs": ("pairs", "sum")}).to_pandas()
    n = ev.count()
    tot["n"] = np.int64(n)
    tot = tot.sort_values("r").reset_index(drop=True)
    return pa.Table.from_pandas(tot, preserve_index=False)


_SQL_RIPLEY_K_PAIRS = """
WITH p AS (
  SELECT event_id,
         (event_id * 9973) % 240000 AS x,
         (event_id * 7919) % 220000 AS y
  FROM events
), c AS (
  SELECT event_id, x, y, x // 10000 AS cx, y // 10000 AS cy FROM p
), d AS (
  SELECT (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) AS d2
  FROM c a JOIN c b
    ON b.cx BETWEEN a.cx - 1 AND a.cx + 1
   AND b.cy BETWEEN a.cy - 1 AND a.cy + 1
   AND a.event_id < b.event_id
), agg AS (
  SELECT
    SUM(CASE WHEN d2 <= 2000 * 2000 THEN 1 ELSE 0 END) AS p1,
    SUM(CASE WHEN d2 <= 5000 * 5000 THEN 1 ELSE 0 END) AS p2,
    SUM(CASE WHEN d2 <= 10000 * 10000 THEN 1 ELSE 0 END) AS p3
  FROM d
), nn AS (
  SELECT COUNT(*) AS n FROM p
)
SELECT CAST(2000 AS BIGINT) AS r, CAST(COALESCE(p1, 0) AS BIGINT) AS pairs,
       CAST(n AS BIGINT) AS n FROM agg, nn
UNION ALL
SELECT CAST(5000 AS BIGINT), CAST(COALESCE(p2, 0) AS BIGINT),
       CAST(n AS BIGINT) FROM agg, nn
UNION ALL
SELECT CAST(10000 AS BIGINT), CAST(COALESCE(p3, 0) AS BIGINT),
       CAST(n AS BIGINT) FROM agg, nn
"""


# ---------------------------------------------------------------------------
# Wave 38: Tukey-fence outlier counts from the bounded histogram


def q_tukey_outliers(sf_dir: str):
    """Tukey-fence outlier counts per event type: quartiles are SELECTED
    order statistics from the winsorized-cent histogram (q1 at position
    max(1, (n+1)//4), q3 at min(n, 3*(n+1)//4) — pure selection, no
    interpolation), fences carried 4x-scaled so the whole test stays
    integer: outlier iff 4*v < 4*q1 - 6*iqr or 4*v > 4*q3 + 6*iqr
    (i.e. the classic 1.5*IQR fences). One partial-count exchange; the
    histogram fold is bounded BY CONSTRUCTION by the 50000-cent clamp."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        vc = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "vb": pa.array(np.minimum(vc, 50000)),
            }
        )

    hist = tree_group_agg(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "vb"],
        {"c": (None, "count")},
    ).to_pandas()
    rows = []
    for t, g in hist.groupby("event_type"):
        g = g.sort_values("vb")
        vb = g["vb"].to_numpy().astype(np.int64)
        c = g["c"].to_numpy().astype(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        k1 = max(1, (n + 1) // 4)
        k3 = min(n, (3 * (n + 1)) // 4)
        q1 = int(vb[np.searchsorted(cum, k1)])
        q3 = int(vb[np.searchsorted(cum, k3)])
        iqr = q3 - q1
        lo4 = 4 * q1 - 6 * iqr
        hi4 = 4 * q3 + 6 * iqr
        n_low = int(c[4 * vb < lo4].sum())
        n_high = int(c[4 * vb > hi4].sum())
        rows.append((t, n, q1, q3, n_low, n_high))
    out = pd.DataFrame(
        rows, columns=["event_type", "n", "q1", "q3", "n_low", "n_high"]
    )
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_TUKEY_OUTLIERS = """
WITH v AS (
  SELECT event_type,
         LEAST(CAST(ROUND(value * 100) AS BIGINT), 50000) AS vb
  FROM events
), h AS (
  SELECT event_type, vb, CAST(COUNT(*) AS BIGINT) AS c
  FROM v GROUP BY 1, 2
), o AS (
  SELECT event_type, vb, c,
         SUM(c) OVER (PARTITION BY event_type ORDER BY vb) AS cum,
         SUM(c) OVER (PARTITION BY event_type) AS n
  FROM h
), q AS (
  SELECT event_type, MAX(n) AS n,
         MIN(CASE WHEN cum >= GREATEST(1, (n + 1) // 4) THEN vb END) AS q1,
         MIN(CASE WHEN cum >= LEAST(n, (3 * (n + 1)) // 4) THEN vb END)
           AS q3
  FROM o GROUP BY 1
)
SELECT q.event_type, CAST(q.n AS BIGINT) AS n,
       CAST(q1 AS BIGINT) AS q1, CAST(q3 AS BIGINT) AS q3,
       CAST(SUM(CASE WHEN 4 * h.vb < 4 * q1 - 6 * (q3 - q1)
                     THEN h.c ELSE 0 END) AS BIGINT) AS n_low,
       CAST(SUM(CASE WHEN 4 * h.vb > 4 * q3 + 6 * (q3 - q1)
                     THEN h.c ELSE 0 END) AS BIGINT) AS n_high
FROM q JOIN h ON h.event_type = q.event_type
GROUP BY 1, 2, 3, 4
"""


# ---------------------------------------------------------------------------
# Wave 39: lexical diversity estimators over the documents corpus


def _lang_term_counts(sf_dir: str):
    """(lang, term, n) token counts — whitespace tokenize inside
    map_batches (vectorized split + repeat), one combiner-tree exchange.
    The per-term table stays DISTRIBUTED: downstream reducers aggregate
    it to per-lang scalars with a second tree agg, so no vocabulary-sized
    driver fold exists at any corpus size."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = pc.split_pattern(batch.column("text").cast(pa.string()), " ")
        lens = pc.list_value_length(t).to_numpy()
        langs = batch.column("lang").to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(t)
        keep = pc.not_equal(flat, "")
        return pa.table(
            {"lang": pa.array(np.repeat(langs, lens)), "term": flat}
        ).filter(keep)

    from ..stages.treeagg import grouped_group_agg

    return grouped_group_agg(
        ds.map_batches(toks, batch_format="pyarrow"),
        ["lang", "term"],
        {"n": (None, "count")},
    )


def q_simpson_diversity(sf_dir: str):
    """Simpson lexical diversity per language: the exact probability that
    two tokens drawn without replacement are the same word, as the integer
    rational (sum_w n_w*(n_w-1)) / (N*(N-1)) plus one fixed-order double.
    Two combiner-tree exchanges ((lang, term) counts, then per-lang
    moments); nothing vocabulary-sized ever reaches the driver."""
    counts = _lang_term_counts(sf_dir)

    def mom(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy()
        return pa.table(
            {
                "lang": batch.column("lang"),
                "rep": pa.array(n * (n - 1)),
                "n_tok": pa.array(n),
                "n_terms": pa.array(np.ones(len(n), np.int64)),
            }
        )

    agg = tree_group_agg(
        counts.map_batches(mom, batch_format="pyarrow"),
        ["lang"],
        {
            "rep_num": ("rep", "sum"),
            "n_tok": ("n_tok", "sum"),
            "n_terms": ("n_terms", "sum"),
        },
    ).to_pandas()
    nt = agg["n_tok"].to_numpy().astype(np.int64)
    rep = agg["rep_num"].to_numpy().astype(np.int64)
    den = nt * (nt - 1)
    out = pd.DataFrame(
        {
            "lang": agg["lang"],
            "n_tok": nt,
            "n_terms": agg["n_terms"].astype(np.int64),
            "rep_num": rep,
            "simpson": rep.astype(np.float64) / den.astype(np.float64),
        }
    ).sort_values("lang")
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_SIMPSON_DIVERSITY = """
WITH tok AS (
  SELECT lang, UNNEST(string_split(text, ' ')) AS term FROM documents
), c AS (
  SELECT lang, term, CAST(COUNT(*) AS BIGINT) AS n
  FROM tok GROUP BY 1, 2
)
SELECT lang,
       CAST(SUM(n) AS BIGINT) AS n_tok,
       CAST(COUNT(*) AS BIGINT) AS n_terms,
       CAST(SUM(n * (n - 1)) AS BIGINT) AS rep_num,
       CAST(SUM(n * (n - 1)) AS DOUBLE)
         / CAST(SUM(n) * (SUM(n) - 1) AS DOUBLE) AS simpson
FROM c GROUP BY 1
"""


def q_chao1_richness(sf_dir: str):
    """Bias-corrected Chao1 species-richness estimator per language —
    the standard how-much-vocabulary-is-unseen diagnostic:
    chao1 = S + f1*(f1-1)/(2*(f2+1)) with S = observed terms, f1/f2 =
    singleton/doubleton counts (the bias-corrected form is defined even
    when f2 = 0, which the bounded synthetic vocabulary hits). Emitted as
    one fixed-order double from the exact integer moments. Same
    two-exchange plan as simpson_diversity."""
    counts = _lang_term_counts(sf_dir)

    def fk(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy()
        return pa.table(
            {
                "lang": batch.column("lang"),
                "s_obs": pa.array(np.ones(len(n), np.int64)),
                "f1": pa.array((n == 1).astype(np.int64)),
                "f2": pa.array((n == 2).astype(np.int64)),
            }
        )

    agg = tree_group_agg(
        counts.map_batches(fk, batch_format="pyarrow"),
        ["lang"],
        {"s_obs": ("s_obs", "sum"), "f1": ("f1", "sum"), "f2": ("f2", "sum")},
    ).to_pandas()
    s = agg["s_obs"].to_numpy().astype(np.int64)
    f1 = agg["f1"].to_numpy().astype(np.int64)
    f2 = agg["f2"].to_numpy().astype(np.int64)
    num = 2 * s * (f2 + 1) + f1 * (f1 - 1)
    den = 2 * (f2 + 1)
    out = pd.DataFrame(
        {
            "lang": agg["lang"],
            "s_obs": s,
            "f1": f1,
            "f2": f2,
            "chao1": num.astype(np.float64) / den.astype(np.float64),
        }
    ).sort_values("lang")
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_CHAO1_RICHNESS = """
WITH tok AS (
  SELECT lang, UNNEST(string_split(text, ' ')) AS term FROM documents
), c AS (
  SELECT lang, term, CAST(COUNT(*) AS BIGINT) AS n
  FROM tok GROUP BY 1, 2
)
SELECT lang,
       CAST(COUNT(*) AS BIGINT) AS s_obs,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS f1,
       CAST(SUM(CASE WHEN n = 2 THEN 1 ELSE 0 END) AS BIGINT) AS f2,
       CAST(2 * COUNT(*) * (SUM(CASE WHEN n = 2 THEN 1 ELSE 0 END) + 1)
            + SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END)
              * (SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) - 1) AS DOUBLE)
         / CAST(2 * (SUM(CASE WHEN n = 2 THEN 1 ELSE 0 END) + 1) AS DOUBLE)
         AS chao1
FROM c GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Wave 40: Herfindahl concentration per mesh, Benford first-digit audit


def q_hhi_concentration(sf_dir: str):
    """Herfindahl-Hirschman concentration of event types per mesh cell:
    HHI = sum_t (n_mt/n_m)^2 as the exact integer rational
    (sum_t n_mt^2) / n_m^2 plus one fixed-order double. Same bounded
    (mesh x type) fold as location_quotient."""
    ds = _event_points(sf_dir, ["event_id", "event_type"])
    ds = ds.map_batches(mesh_assign_arith, batch_format="pyarrow")
    ds = ds.select_columns(["mesh_id", "event_type"])
    cells = tree_group_agg(
        ds, ["mesh_id", "event_type"], {"n_mt": (None, "count")}
    ).to_pandas()
    nmt = cells["n_mt"].to_numpy().astype(np.int64)
    sq = cells.assign(sq=nmt * nmt).groupby("mesh_id", as_index=False).agg(
        hhi_num=("sq", "sum"), n_m=("n_mt", "sum"), n_types=("n_mt", "size")
    )
    num = sq["hhi_num"].to_numpy().astype(np.int64)
    nm = sq["n_m"].to_numpy().astype(np.int64)
    out = pd.DataFrame(
        {
            "mesh_id": sq["mesh_id"],
            "n_m": nm,
            "n_types": sq["n_types"].astype(np.int64),
            "hhi_num": num,
            "hhi": num.astype(np.float64) / (nm * nm).astype(np.float64),
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def _sql_hhi_concentration() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT event_type, {lng} AS lng, {lat} AS lat FROM events
), c AS (
  SELECT 'mesh_' ||
         CAST(LEAST(CAST(FLOOR((lng - 122.0) / 24.0 * 24) AS BIGINT), 23)
              AS VARCHAR)
         || '_' ||
         CAST(LEAST(CAST(FLOOR((lat - 24.0) / 22.0 * 22) AS BIGINT), 21)
              AS VARCHAR) AS mesh_id,
         event_type, CAST(COUNT(*) AS BIGINT) AS n_mt
  FROM pts GROUP BY 1, 2
)
SELECT mesh_id,
       CAST(SUM(n_mt) AS BIGINT) AS n_m,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(SUM(n_mt * n_mt) AS BIGINT) AS hhi_num,
       CAST(SUM(n_mt * n_mt) AS DOUBLE)
         / CAST(SUM(n_mt) * SUM(n_mt) AS DOUBLE) AS hhi
FROM c GROUP BY 1
"""


_SQL_HHI_CONCENTRATION = _sql_hhi_concentration()


def q_benford_digits(sf_dir: str):
    """Benford first-digit audit of order totals (cents): exact counts per
    leading digit 1..9 — the classic fabricated-data screen. The leading
    digit extracts with a pure integer magnitude-division loop (<= 19
    vectorized passes; float log10 would misclassify exact powers of 10).
    One partial-count exchange over a 9-row key domain."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        vc = np.round(batch.column("o_totalprice").to_numpy() * 100).astype(
            np.int64
        )
        vc = np.abs(vc)
        d = vc.copy()
        for _ in range(19):
            big = d >= 10
            if not big.any():
                break
            d[big] //= 10
        keep = d > 0
        return pa.table({"digit": pa.array(d[keep])})

    out = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["digit"],
        {"n": (None, "count")},
    ).to_pandas()
    out = out.sort_values("digit").reset_index(drop=True)
    out["n_total"] = np.int64(out["n"].sum())
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_BENFORD_DIGITS = """
WITH v AS (
  SELECT ABS(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS vc FROM orders
), d AS (
  SELECT CAST(SUBSTR(CAST(vc AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM v WHERE vc > 0
), c AS (
  SELECT digit, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY 1
)
SELECT digit, n, CAST((SELECT SUM(n) FROM c) AS BIGINT) AS n_total FROM c
"""


def q_frechet_pairs(sf_dir: str):
    """Discrete-Fréchet track-similarity join (rows-only: minimax DP over
    int64 squared distances, pytest-pinned bit-identical to the scalar
    brute recurrence — tests/test_wave32.py)."""
    from ..stages.trajectory import track_frechet_pairs

    return track_frechet_pairs(sf_dir)


# ---------------------------------------------------------------------------
# Wave 41: Geary's C global spatial autocorrelation + quadrat variance/mean
# ratio — the two classical point-pattern diagnostics missing next to
# morans_i / local_morans_i / ripley_k_pairs / getis_ord_hotspots.


def q_geary_c(sf_dir: str):
    """Global Geary's C of z10 tile event counts (8-neighbor queen
    weights) — the local-variance complement to ``morans_i``: C < 1 is
    positive autocorrelation, C > 1 negative. Same two-stage plan as
    Moran: the facts reduce once to the tile table, then the
    ``_queen_stencil`` gives every occupied tile p its count c_p,
    occupied-neighbor sum s_p, neighbor sum-of-squares ss_p and degree
    d_p, so the directed pair sum
    Σ_p Σ_{q∈N(p)} (c_p − n_q)² = Σ_p (d_p·c_p² − 2·c_p·s_p + ss_p) is an
    exact integer without any pair join. With nt tiles, W directed
    pairs and SS·nt = nt·s2 − s1², the single mirrored double division is

        C = (nt−1)·nt·num / (2·W·(nt·s2 − s1²)).

    Driver assembly is arbitrary-precision Python ints (the per-batch
    int64 partials need the 128-bit split at 10^12 rows, exactly like
    morans_i)."""
    mom = _tile_moments(
        _queen_stencil(_tile_counts(sf_dir, 10)),
        num=lambda t: t["d"] * t["c"] * t["c"] - 2 * t["c"] * t["s"] + t["ss"],
        w=lambda t: t["d"],
    )
    # 2·c·s, the largest term: each tile's 8 neighbors sum to <= 8·max(n)
    _guard_moments("geary_c", mom["cmax"], mom["s1"], 16)
    nt, s1, s2, num, w = (mom[v] for v in ("nt", "s1", "s2", "num", "w"))
    return pd.DataFrame(
        {
            "n_tiles": np.array([nt], np.int64),
            "w_pairs": np.array([w], np.int64),
            "num_sq": np.array([num], np.int64),
            "geary_c": np.array(
                [float((nt - 1) * nt * num) / float(2 * w * (nt * s2 - s1 * s1))],
                np.float64,
            ),
        }
    )


def _sql_geary_c() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 1024) AS BIGINT) AS x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 1024) AS BIGINT) AS y,
         COUNT(*) AS n
  FROM pts GROUP BY 1, 2
), e AS (
  SELECT a.n AS xi, b.n AS xj
  FROM t a JOIN t b ON b.x BETWEEN a.x - 1 AND a.x + 1
                   AND b.y BETWEEN a.y - 1 AND a.y + 1
                   AND NOT (b.x = a.x AND b.y = a.y)
), s AS (
  SELECT COUNT(*) AS nt, SUM(n) AS s1, SUM(n * n) AS s2 FROM t
), p AS (
  SELECT COUNT(*) AS w, SUM((xi - xj) * (xi - xj)) AS num FROM e
)
SELECT CAST(nt AS BIGINT) AS n_tiles, CAST(w AS BIGINT) AS w_pairs,
       CAST(num AS BIGINT) AS num_sq,
       CAST((nt - 1) * nt * num AS DOUBLE)
         / CAST(2 * w * (nt * s2 - s1 * s1) AS DOUBLE) AS geary_c
FROM s, p
"""


_SQL_GEARY_C = _sql_geary_c()


def q_quadrat_vmr(sf_dir: str):
    """Quadrat-count variance/mean ratio over the z10 tile lattice — the
    textbook complete-spatial-randomness screen (VMR ≈ 1 Poisson, > 1
    clustered, < 1 dispersed). Quadrats are ALL lattice cells inside the
    occupied-tile bounding box, so empty quadrats count: with Q cells, N
    points and Σn² over occupied tiles, population variance/mean folds to
    the exact integer ratio (Q·Σn² − N²) / (Q·N) — one fact-sized
    combiner exchange, then a 5-integer driver fold (Python ints, so the
    N² term can't wrap) and a single mirrored double division."""
    counts = _tile_counts(sf_dir, 10)

    def fold(batch: pa.Table) -> pa.Table:
        k = batch.column("k").to_numpy()
        n = batch.column("n").to_numpy()
        x, y = _tile_xy(k, 10)
        return pa.table(
            {
                "g": pa.array([0]),
                "occ": pa.array([np.int64(len(k))]),
                "np_": pa.array([n.sum()]),
                "ssq": pa.array([(n * n).sum()]),
                "nmax": pa.array([n.max(initial=0)]),
                "x0": pa.array([x.min() if len(x) else np.int64(1 << 40)]),
                "x1": pa.array([x.max() if len(x) else np.int64(-1)]),
                "y0": pa.array([y.min() if len(y) else np.int64(1 << 40)]),
                "y1": pa.array([y.max() if len(y) else np.int64(-1)]),
            }
        )

    mom = tree_group_agg(
        counts.map_batches(fold, batch_format="pyarrow"),
        ["g"],
        {"occ": ("occ", "sum"), "np_": ("np_", "sum"), "ssq": ("ssq", "sum"),
         "nmax": ("nmax", "max"), "x0": ("x0", "min"), "x1": ("x1", "max"),
         "y0": ("y0", "min"), "y1": ("y1", "max")},
    ).to_pandas()
    occ, n_pts, ssq = int(mom["occ"][0]), int(mom["np_"][0]), int(mom["ssq"][0])
    _guard_moments("quadrat_vmr", int(mom["nmax"][0]), n_pts, 1)
    q = (int(mom["x1"][0]) - int(mom["x0"][0]) + 1) * (
        int(mom["y1"][0]) - int(mom["y0"][0]) + 1
    )
    return pd.DataFrame(
        {
            "n_points": np.array([n_pts], np.int64),
            "n_quadrats": np.array([q], np.int64),
            "occupied": np.array([occ], np.int64),
            "sum_sq": np.array([ssq], np.int64),
            "vmr": np.array(
                [float(q * ssq - n_pts * n_pts) / float(q * n_pts)], np.float64
            ),
        }
    )


def _sql_quadrat_vmr() -> str:
    lng, lat = _geo_sql("event_id")
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 1024) AS BIGINT) AS x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 1024) AS BIGINT) AS y,
         COUNT(*) AS n
  FROM pts GROUP BY 1, 2
), s AS (
  SELECT COUNT(*) AS occ, SUM(n) AS np_, SUM(n * n) AS ssq,
         (MAX(x) - MIN(x) + 1) * (MAX(y) - MIN(y) + 1) AS q
  FROM t
)
SELECT CAST(np_ AS BIGINT) AS n_points, CAST(q AS BIGINT) AS n_quadrats,
       CAST(occ AS BIGINT) AS occupied, CAST(ssq AS BIGINT) AS sum_sq,
       CAST(q * ssq - np_ * np_ AS DOUBLE) / CAST(q * np_ AS DOUBLE) AS vmr
FROM s
"""


_SQL_QUADRAT_VMR = _sql_quadrat_vmr()


# ---------------------------------------------------------------------------
# Wave 42: exact rank correlations on the daily order series — Kendall tau-b
# and Spearman rho between daily order count and daily revenue, the two
# monotone-dependence screens a drift monitor runs next to grouped_corr's
# Pearson.


def _daily_orders(sf_dir: str) -> pd.DataFrame:
    """Shared stage-1 reduction: orders → per-day (count, revenue cents).
    One fact-sized combiner exchange; the result is bounded by the
    generator's date window (guarded), so the exact rank fold is
    driver-side by construction — the same bounded-domain contract as
    chi_square_cells' marginal table."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        day = batch.column("o_orderdate").cast(pa.int64()).to_numpy() // 86_400_000_000
        cents = np.round(batch.column("o_totalprice").to_numpy() * 100).astype(
            np.int64
        )
        return pa.table({"day": pa.array(day), "rev": pa.array(cents)})

    daily = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["day"],
        {"cnt": (None, "count"), "rev": ("rev", "sum")},
    ).to_pandas()
    if len(daily) > 100_000:
        raise ValueError(
            "daily_orders: date domain exceeds the bounded-fold contract "
            f"({len(daily)} days); switch the rank fold to the distributed "
            "rank plan before raising the bound"
        )
    return daily.sort_values("day").reset_index(drop=True)


def q_kendall_tau_daily(sf_dir: str):
    """Exact Kendall tau-b between daily order count and daily revenue:
    concordant / discordant / tie pair counts are exact integers (blocked
    O(D²) numpy over the date-bounded daily table — D ≤ ~2.6k by the
    generator's window, guarded), and tau_b is the single mirrored
    expression (C−D) / sqrt((n0−Tx)·(n0−Ty)) with one product of two
    exactly-converted doubles and one correctly-rounded sqrt."""
    import math

    daily = _daily_orders(sf_dir)
    x = daily["cnt"].to_numpy().astype(np.int64)
    y = daily["rev"].to_numpy().astype(np.int64)
    n = len(x)
    conc = disc = 0
    blk = 512
    for i0 in range(0, n, blk):
        xi = x[i0 : i0 + blk, None]
        yi = y[i0 : i0 + blk, None]
        # only pairs (i, j) with j > i: mask the lower triangle per block
        sx = np.sign(x[None, :] - xi)
        sy = np.sign(y[None, :] - yi)
        j = np.arange(n)[None, :]
        upper = j > (np.arange(i0, min(i0 + blk, n))[:, None])
        prod = sx * sy
        conc += int(((prod == 1) & upper).sum())
        disc += int(((prod == -1) & upper).sum())
    n0 = n * (n - 1) // 2
    _, cx = np.unique(x, return_counts=True)
    _, cy = np.unique(y, return_counts=True)
    tx = int((cx.astype(object) * (cx - 1) // 2).sum())
    ty = int((cy.astype(object) * (cy - 1) // 2).sum())
    tau = float(conc - disc) / math.sqrt(float(n0 - tx) * float(n0 - ty))
    return pd.DataFrame(
        {
            "n_days": np.array([n], np.int64),
            "concordant": np.array([conc], np.int64),
            "discordant": np.array([disc], np.int64),
            "ties_x": np.array([tx], np.int64),
            "ties_y": np.array([ty], np.int64),
            "tau_b": np.array([tau], np.float64),
        }
    )


_SQL_KENDALL_TAU_DAILY = """
WITH d AS (
  SELECT epoch_us(o_orderdate) // 86400000000 AS day,
         COUNT(*) AS x,
         SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS y
  FROM orders GROUP BY 1
), p AS (
  SELECT SUM(CASE WHEN (a.x < b.x AND a.y < b.y) OR (a.x > b.x AND a.y > b.y)
                  THEN 1 ELSE 0 END) AS conc,
         SUM(CASE WHEN (a.x < b.x AND a.y > b.y) OR (a.x > b.x AND a.y < b.y)
                  THEN 1 ELSE 0 END) AS disc
  FROM d a JOIN d b ON b.day > a.day
), s AS (
  SELECT COUNT(*) AS n FROM d
), tx AS (
  SELECT SUM(c * (c - 1) // 2) AS t FROM (SELECT COUNT(*) AS c FROM d GROUP BY x)
), ty AS (
  SELECT SUM(c * (c - 1) // 2) AS t FROM (SELECT COUNT(*) AS c FROM d GROUP BY y)
)
SELECT CAST(n AS BIGINT) AS n_days,
       CAST(conc AS BIGINT) AS concordant,
       CAST(disc AS BIGINT) AS discordant,
       CAST(tx.t AS BIGINT) AS ties_x,
       CAST(ty.t AS BIGINT) AS ties_y,
       CAST(conc - disc AS DOUBLE)
         / SQRT(CAST(n * (n - 1) // 2 - tx.t AS DOUBLE)
                * CAST(n * (n - 1) // 2 - ty.t AS DOUBLE)) AS tau_b
FROM p, s, tx, ty
"""


def q_spearman_daily(sf_dir: str):
    """Exact Spearman rho (average-rank ties) between daily order count
    and daily revenue: ranks are carried 2x-scaled so tied average ranks
    stay integers (2·avgrank = 2·minrank + c − 1, the mann_whitney_u
    trick); every moment sum is an exact Python int and rho is the single
    mirrored double division + sqrt — the scale factors cancel."""
    import math

    daily = _daily_orders(sf_dir)
    n = len(daily)

    def ranks2(v: np.ndarray) -> np.ndarray:
        # 2x-scaled average ranks: 2*minrank + (count-1)
        order = np.argsort(v, kind="stable")
        sv = v[order]
        uniq, first, cnt = np.unique(sv, return_index=True, return_counts=True)
        r2_sorted = np.repeat(2 * (first + 1) + (cnt - 1), cnt)
        out = np.empty(n, np.int64)
        out[order] = r2_sorted
        return out

    rx = ranks2(daily["cnt"].to_numpy().astype(np.int64))
    ry = ranks2(daily["rev"].to_numpy().astype(np.int64))
    sx, sy = int(rx.sum()), int(ry.sum())
    sxx = int((rx.astype(object) * rx).sum())
    syy = int((ry.astype(object) * ry).sum())
    sxy = int((rx.astype(object) * ry).sum())
    rho = float(n * sxy - sx * sy) / math.sqrt(
        float(n * sxx - sx * sx) * float(n * syy - sy * sy)
    )
    return pd.DataFrame(
        {
            "n_days": np.array([n], np.int64),
            "sum_rx2": np.array([sxx], np.int64),
            "sum_ry2": np.array([syy], np.int64),
            "sum_rxy": np.array([sxy], np.int64),
            "spearman_rho": np.array([rho], np.float64),
        }
    )


_SQL_SPEARMAN_DAILY = """
WITH d AS (
  SELECT epoch_us(o_orderdate) // 86400000000 AS day,
         COUNT(*) AS x,
         SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS y
  FROM orders GROUP BY 1
), r AS (
  SELECT 2 * RANK() OVER (ORDER BY x) + COUNT(*) OVER (PARTITION BY x) - 1 AS rx,
         2 * RANK() OVER (ORDER BY y) + COUNT(*) OVER (PARTITION BY y) - 1 AS ry
  FROM d
), s AS (
  SELECT COUNT(*) AS n, SUM(rx) AS sx, SUM(ry) AS sy,
         SUM(rx * rx) AS sxx, SUM(ry * ry) AS syy, SUM(rx * ry) AS sxy
  FROM r
)
SELECT CAST(n AS BIGINT) AS n_days,
       CAST(sxx AS BIGINT) AS sum_rx2,
       CAST(syy AS BIGINT) AS sum_ry2,
       CAST(sxy AS BIGINT) AS sum_rxy,
       CAST(n * sxy - sx * sy AS DOUBLE)
         / SQRT(CAST(n * sxx - sx * sx AS DOUBLE)
                * CAST(n * syy - sy * sy AS DOUBLE)) AS spearman_rho
FROM s
"""


# ---------------------------------------------------------------------------
# Wave 43: t-closeness (completing the k_anonymity / l_diversity privacy
# triad) + two classical lexical-statistics screens (Yule's K, hapax ratio).


def q_t_closeness(sf_dir: str):
    """t-closeness audit over orders: for each quasi-identifier group
    (o_orderpriority) the ordered-EMD distance between the group's
    distribution of the sensitive attribute ($5000 price buckets) and the
    global distribution. With group size n_g, total N, global bucket
    counts nb_i and group counts n_{g,i} over the k ordered buckets, the
    i-th cumulative difference cum_i = Σ_{j<=i} (N·n_{g,j} − n_g·nb_j) is
    an exact integer and EMD = Σ|cum_i| / (n_g·N·(k−1)) — integer
    numerator, single mirrored double division. One fact-sized combiner
    exchange to the (qid, bucket) table, which is bounded by the priority
    × price-bucket domain (guarded), so the cumulative fold is
    driver-side by construction."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.round(batch.column("o_totalprice").to_numpy() * 100).astype(
            np.int64
        )
        return pa.table(
            {
                "qid": batch.column("o_orderpriority"),
                "b": pa.array(cents // 500_000),
            }
        )

    cells = tree_group_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["qid", "b"],
        {"n": (None, "count")},
    ).to_pandas()
    if len(cells) > 100_000:
        raise ValueError(
            "t_closeness: qid x bucket domain exceeds the bounded-fold "
            f"contract ({len(cells)} cells)"
        )
    buckets = np.sort(cells["b"].unique())
    k = len(buckets)
    nb = cells.groupby("b")["n"].sum()
    n_total = int(nb.sum())
    rows = []
    for qid, g in cells.groupby("qid"):
        ng = int(g["n"].sum())
        gc = g.set_index("b")["n"]
        cum = 0
        t_num = 0
        for b in buckets:
            cum += n_total * int(gc.get(b, 0)) - ng * int(nb[b])
            t_num += abs(cum)
        rows.append((qid, ng, t_num))
    out = pd.DataFrame(rows, columns=["o_orderpriority", "n_g", "t_num"])
    out["k_buckets"] = np.int64(k)
    out["t_close"] = out["t_num"].astype(np.float64) / (
        out["n_g"].astype(np.float64) * float(n_total) * float(k - 1)
    )
    out["n_g"] = out["n_g"].astype(np.int64)
    out["t_num"] = out["t_num"].astype(np.int64)
    return pa.Table.from_pandas(
        out.sort_values("o_orderpriority").reset_index(drop=True),
        preserve_index=False,
    )


_SQL_T_CLOSENESS = """
WITH v AS (
  SELECT o_orderpriority AS qid,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) // 500000 AS b
  FROM orders
), c AS (
  SELECT qid, b, COUNT(*) AS n FROM v GROUP BY 1, 2
), gb AS (
  SELECT b, SUM(n) AS nb FROM c GROUP BY 1
), gq AS (
  SELECT qid, SUM(n) AS ng FROM c GROUP BY 1
), tot AS (
  SELECT SUM(n) AS n_total, COUNT(DISTINCT b) AS k FROM c
), grid AS (
  SELECT gq.qid, gq.ng, gb.b, gb.nb, COALESCE(c.n, 0) AS n
  FROM gq CROSS JOIN gb
  LEFT JOIN c ON c.qid = gq.qid AND c.b = gb.b
), cum AS (
  SELECT qid, ng,
         SUM((SELECT n_total FROM tot) * n - ng * nb)
           OVER (PARTITION BY qid ORDER BY b) AS cd
  FROM grid
)
SELECT qid AS o_orderpriority,
       CAST(ng AS BIGINT) AS n_g,
       CAST(SUM(ABS(cd)) AS BIGINT) AS t_num,
       CAST((SELECT k FROM tot) AS BIGINT) AS k_buckets,
       CAST(SUM(ABS(cd)) AS DOUBLE)
         / (CAST(ng AS DOUBLE) * CAST((SELECT n_total FROM tot) AS DOUBLE)
            * CAST((SELECT k FROM tot) - 1 AS DOUBLE)) AS t_close
FROM cum GROUP BY qid, ng
"""


def q_yule_k(sf_dir: str):
    """Yule's characteristic K per language — the repeat-rate lexical
    constant (10^4·(Σ c_w² − N)/N²): Σ c_w² folds from the DISTRIBUTED
    (lang, term) count table with a second tree agg (same plan as
    simpson_diversity; nothing vocabulary-sized reaches the driver), and
    K is the single mirrored double division over exact integers."""
    counts = _lang_term_counts(sf_dir)

    def mom(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy()
        return pa.table(
            {
                "lang": batch.column("lang"),
                "c2": pa.array(n * n),
                "n_tok": pa.array(n),
            }
        )

    agg = tree_group_agg(
        counts.map_batches(mom, batch_format="pyarrow"),
        ["lang"],
        {"sum_c2": ("c2", "sum"), "n_tok": ("n_tok", "sum")},
    ).to_pandas()
    nt = agg["n_tok"].to_numpy().astype(np.int64)
    c2 = agg["sum_c2"].to_numpy().astype(np.int64)
    out = pd.DataFrame(
        {
            "lang": agg["lang"],
            "n_tok": nt,
            "sum_c2": c2,
            "yule_k": (10_000.0 * (c2 - nt).astype(np.float64))
            / (nt.astype(np.float64) * nt.astype(np.float64)),
        }
    ).sort_values("lang")
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


_SQL_YULE_K = """
WITH tok AS (
  SELECT lang, UNNEST(string_split(text, ' ')) AS term FROM documents
), c AS (
  SELECT lang, term, CAST(COUNT(*) AS BIGINT) AS n
  FROM tok WHERE term <> '' GROUP BY 1, 2
)
SELECT lang,
       CAST(SUM(n) AS BIGINT) AS n_tok,
       CAST(SUM(n * n) AS BIGINT) AS sum_c2,
       (10000.0 * CAST(SUM(n * n) - SUM(n) AS DOUBLE))
         / (CAST(SUM(n) AS DOUBLE) * CAST(SUM(n) AS DOUBLE)) AS yule_k
FROM c GROUP BY lang
"""


def q_hapax_ratio(sf_dir: str):
    """Hapax-legomenon ratio per source — the fraction of vocabulary
    occurring exactly once, the cheap freshness/contamination screen a
    corpus monitor tracks next to chao1_richness. (source, term) counts
    stay distributed; the per-source fold emits vocab, hapax count and
    token count as exact integers plus the one mirrored division."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = pc.split_pattern(batch.column("text").cast(pa.string()), " ")
        lens = pc.list_value_length(t).to_numpy()
        src = batch.column("source").to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(t)
        keep = pc.not_equal(flat, "")
        return pa.table(
            {"source": pa.array(np.repeat(src, lens)), "term": flat}
        ).filter(keep)

    from ..stages.treeagg import grouped_group_agg

    counts = grouped_group_agg(
        ds.map_batches(toks, batch_format="pyarrow"),
        ["source", "term"],
        {"n": (None, "count")},
    )

    def mom(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy()
        return pa.table(
            {
                "source": batch.column("source"),
                "vocab": pa.array(np.ones(len(n), np.int64)),
                "hapax": pa.array((n == 1).astype(np.int64)),
                "n_tok": pa.array(n),
            }
        )

    agg = tree_group_agg(
        counts.map_batches(mom, batch_format="pyarrow"),
        ["source"],
        {"vocab": ("vocab", "sum"), "hapax": ("hapax", "sum"),
         "n_tok": ("n_tok", "sum")},
    ).to_pandas()
    out = pd.DataFrame(
        {
            "source": agg["source"],
            "vocab": agg["vocab"].astype(np.int64),
            "hapax": agg["hapax"].astype(np.int64),
            "n_tok": agg["n_tok"].astype(np.int64),
            "hapax_ratio": agg["hapax"].astype(np.float64)
            / agg["vocab"].astype(np.float64),
        }
    ).sort_values("source")
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


_SQL_HAPAX_RATIO = """
WITH tok AS (
  SELECT source, UNNEST(string_split(text, ' ')) AS term FROM documents
), c AS (
  SELECT source, term, COUNT(*) AS n
  FROM tok WHERE term <> '' GROUP BY 1, 2
)
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS vocab,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS hapax,
       CAST(SUM(n) AS BIGINT) AS n_tok,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS DOUBLE)
         / CAST(COUNT(*) AS DOUBLE) AS hapax_ratio
FROM c GROUP BY source
"""


# ---------------------------------------------------------------------------
# Wave 44: storage-engine layout operators — rendezvous (highest-random-
# weight) shard assignment and Z-order (Morton) data layout buckets. Both
# are pure vectorized integer kernels mirrored bit-exactly in SQL.

_U64 = 18446744073709551616
# avalanche multipliers: odd and below 2^63, so the SQL twin's product with
# a UBIGINT stays below 2^127 (HUGEINT)
_FMIX_M1 = 0x4BE98134A5976FD3
_FMIX_M2 = 0x3BC0993A5AD19A13


def _xorshift64(v: np.ndarray) -> np.ndarray:
    """Marsaglia xorshift64 over uint64 (wrapping shifts) plus a
    multiply-xorshift avalanche finalizer: without it, shards of keys
    1..150,000 were 2.9x apart (max/min). The SQL twin runs the same steps
    in HUGEINT-mod-2^64 arithmetic (verified bit-identical)."""
    v = v.astype(np.uint64)
    v ^= (v << np.uint64(13)) & np.uint64(_U64 - 1)
    v ^= v >> np.uint64(7)
    v ^= (v << np.uint64(17)) & np.uint64(_U64 - 1)
    with np.errstate(over="ignore"):
        for m in (_FMIX_M1, _FMIX_M2):
            v = (v ^ (v >> np.uint64(33))) * np.uint64(m)
    return v ^ (v >> np.uint64(33))


_XS_SQL_STEPS = f"""
, xs1 AS (
  SELECT {{keep}}, xor(v, CAST((CAST(v AS HUGEINT) * 8192) % 18446744073709551616 AS UBIGINT)) AS v FROM xs0
), xs2 AS (
  SELECT {{keep}}, xor(v, v >> 7) AS v FROM xs1
), xs3 AS (
  SELECT {{keep}}, xor(v, CAST((CAST(v AS HUGEINT) * 131072) % 18446744073709551616 AS UBIGINT)) AS v FROM xs2
), xs4 AS (
  SELECT {{keep}}, CAST((CAST(xor(v, v >> 33) AS HUGEINT) * {_FMIX_M1}) % 18446744073709551616 AS UBIGINT) AS v FROM xs3
), xs5 AS (
  SELECT {{keep}}, CAST((CAST(xor(v, v >> 33) AS HUGEINT) * {_FMIX_M2}) % 18446744073709551616 AS UBIGINT) AS v FROM xs4
), xs6 AS (
  SELECT {{keep}}, xor(v, v >> 33) AS v FROM xs5
)
"""

N_SHARDS = 8


def q_rendezvous_shards(sf_dir: str):
    """Rendezvous (highest-random-weight) shard assignment of customer
    keys across 8 shards — the consistent-placement primitive a
    distributed store uses so that adding a shard only moves 1/(n+1) of
    the keys. score(key, s) = _xorshift64(key·2654435761 + s·40503 +
    12345 mod 2^64); each key goes to its max-score shard (ties → lowest
    shard id, matching numpy argmax-first). Fully vectorized: one
    (rows × 8) uint64 broadcast per batch, then a shard-keyed combiner
    to per-shard count/min/max — no exchange carries anything
    key-payload-sized."""
    ds = _read(sf_dir, "customer", ["c_custkey"])

    def assign(batch: pa.Table) -> pa.Table:
        key = batch.column("c_custkey").to_numpy().astype(np.uint64)
        s = np.arange(N_SHARDS, dtype=np.uint64)[None, :]
        seed = (
            key[:, None] * np.uint64(2654435761)
            + s * np.uint64(40503)
            + np.uint64(12345)
        )
        score = _xorshift64(seed)
        shard = np.argmax(score, axis=1).astype(np.int64)
        k = key.astype(np.int64)
        return pa.table(
            {
                "shard": pa.array(shard),
                "n_keys": pa.array(np.ones(len(k), np.int64)),
                "kmin": pa.array(k),
                "kmax": pa.array(k),
            }
        )

    return tree_group_agg(
        ds.map_batches(assign, batch_format="pyarrow"),
        ["shard"],
        {"n_keys": ("n_keys", "sum"), "key_min": ("kmin", "min"),
         "key_max": ("kmax", "max")},
    )


_SQL_RENDEZVOUS_SHARDS = (
    """
WITH ks AS (
  SELECT c_custkey AS key, s
  FROM customer CROSS JOIN (SELECT UNNEST(range(8)) AS s)
), xs0 AS (
  SELECT key, s,
         CAST((CAST(key AS HUGEINT) * 2654435761 + s * 40503 + 12345)
              % 18446744073709551616 AS UBIGINT) AS v
  FROM ks
)"""
    + _XS_SQL_STEPS.format(keep="key, s")
    + """
, best AS (
  SELECT key, s,
         ROW_NUMBER() OVER (PARTITION BY key ORDER BY v DESC, s ASC) AS rn
  FROM xs6
)
SELECT CAST(s AS BIGINT) AS shard,
       CAST(COUNT(*) AS BIGINT) AS n_keys,
       CAST(MIN(key) AS BIGINT) AS key_min,
       CAST(MAX(key) AS BIGINT) AS key_max
FROM best WHERE rn = 1 GROUP BY s
"""
)


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of v to even bit positions (Morton helper),
    classic mask-shift ladder — vectorized uint64."""
    v = v.astype(np.uint64) & np.uint64(0xFFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def q_zorder_layout(sf_dir: str):
    """Z-order (Morton) data-layout audit — the multi-column clustering
    key a lakehouse writer uses so range predicates on EITHER column prune
    files: events map to z10 tiles, each tile's (x, y) interleaves to a
    20-bit Morton code, and rows group into 256-code layout buckets
    (morton >> 8 — one file per bucket in the real writer). Output per
    bucket: row count and the exact Morton min/max the file footer would
    carry as its zone map. The interleave is the mask-shift ladder,
    vectorized; the SQL twin unrolls the 10 bit positions per axis."""
    ds = _event_points(sf_dir, ["event_id"])
    ds = ds.map_batches(lambda b: assign_webmercator(b, 10), batch_format="pyarrow")

    def pack(batch: pa.Table) -> pa.Table:
        x = batch.column("tile_x").to_numpy().astype(np.uint64)
        y = batch.column("tile_y").to_numpy().astype(np.uint64)
        morton = (_part1by1(x) | (_part1by1(y) << np.uint64(1))).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(morton >> 8),
                "n_rows": pa.array(np.ones(len(morton), np.int64)),
                "mmin": pa.array(morton),
                "mmax": pa.array(morton),
            }
        )

    return tree_group_agg(
        ds.map_batches(pack, batch_format="pyarrow"),
        ["bucket"],
        {"n_rows": ("n_rows", "sum"), "morton_min": ("mmin", "min"),
         "morton_max": ("mmax", "max")},
    )


def _sql_zorder_layout() -> str:
    lng, lat = _geo_sql("event_id")
    ix = " + ".join(f"(((x >> {b}) & 1) << {2 * b})" for b in range(10))
    iy = " + ".join(f"(((y >> {b}) & 1) << {2 * b + 1})" for b in range(10))
    return f"""
WITH pts AS (
  SELECT {lng} AS lng, {lat} AS lat FROM events
), t AS (
  SELECT CAST(FLOOR((lng + 180.0) / 360.0 * 1024) AS BIGINT) AS x,
         CAST(FLOOR(((-(DEGREES(LN(TAN(RADIANS(90.0 + lat) / 2.0)))) + 180.0) / 360.0) * 1024) AS BIGINT) AS y
  FROM pts
), m AS (
  SELECT ({ix}) + ({iy}) AS morton FROM t
)
SELECT morton >> 8 AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(MIN(morton) AS BIGINT) AS morton_min,
       CAST(MAX(morton) AS BIGINT) AS morton_max
FROM m GROUP BY 1
"""


_SQL_ZORDER_LAYOUT = _sql_zorder_layout()


# ---------------------------------------------------------------------------
# Wave 45: edit-distance similarity join via FastSS deletion neighborhoods
# (the exact small-radius string-join primitive next to the token-level
# fuzzy_token_join) and the Heaps-law vocabulary-growth curve via the
# token-first-seen operator.


def q_edit_distance_pairs(sf_dir: str):
    """Levenshtein-distance ≤ 1 name-pair join over customers using FastSS
    deletion neighborhoods: every string emits its |s|+1 single-deletion
    variants plus itself; two strings at distance ≤ 1 MUST share a variant
    (substitution: delete the differing position from both; indel: the
    shorter string IS a variant of the longer), so the candidate set is
    exact — no all-pairs. Within a variant bucket the verify is fully
    vectorized: equal-length candidates need exactly a hamming ≤ 1 check
    (byte-matrix mismatch count); length±1 candidates are distance 1 by
    construction. Pairs dedup across buckets with a combiner tree. Names
    compare as UTF-8 bytes, the unit DuckDB's levenshtein counts in. The
    SQL twin builds character-deletion neighborhoods with SUBSTR/UNNEST
    (for valid UTF-8 a superset of the byte-distance ≤ 1 candidates) and
    verifies with levenshtein — same exact semantics, independent code."""
    from ..kernels.segments import segmented_arange
    from ..stages.treeagg import clean_arrow

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def variants(batch: pa.Table) -> pa.Table:
        # all in UTF-8 bytes: lengths, deletions and the verify, so the
        # distance is the byte-wise one DuckDB's levenshtein computes
        keys = batch.column("c_custkey").to_numpy()
        names = np.array(
            batch.column("c_name").cast(pa.binary()).to_pylist(), dtype=object
        )
        lens = np.fromiter(map(len, names), np.int64, len(names))
        out_v: list[np.ndarray] = []
        out_k: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        for L in np.unique(lens):
            sel = lens == L
            sub = names[sel]
            ksub = keys[sel]
            mat = np.frombuffer(b"".join(sub), dtype=np.uint8).reshape(len(sub), L)
            # identity variant (covers the insertion case)
            out_v.append(sub)
            out_k.append(ksub)
            out_s.append(sub)
            for i in range(L):
                dele = np.delete(mat, i, axis=1)
                vs = (
                    dele.reshape(-1).view(f"S{L - 1}").astype(object)
                    if L > 1
                    else np.full(len(sub), b"", dtype=object)
                )
                out_v.append(vs)
                out_k.append(ksub)
                out_s.append(sub)
        return pa.table(
            {
                "v": pa.array(np.concatenate(out_v), pa.binary()),
                "key": pa.array(np.concatenate(out_k)),
                "s": pa.array(np.concatenate(out_s), pa.binary()),
            }
        )

    exploded = ds.map_batches(variants, batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["v", "key"], kind="stable")
        v = g["v"].to_numpy()
        keys = g["key"].to_numpy()
        names = g["s"].to_numpy()
        n = len(g)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = v[1:] != v[:-1]
        start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        w = np.arange(n) - start
        if not int(w.sum()):
            return clean_arrow(
                pd.DataFrame(
                    {"key_a": [], "key_b": [], "dist": []}
                ).astype("int64")
            )
        b_idx = np.repeat(np.arange(n), w)
        a_idx = np.repeat(start, w) + segmented_arange(w)
        ka, kb = keys[a_idx], keys[b_idx]
        sa, sb = names[a_idx], names[b_idx]
        la = np.fromiter(map(len, sa), np.int64, len(sa))
        lb = np.fromiter(map(len, sb), np.int64, len(sb))
        dist = np.full(len(ka), -1, np.int64)
        # length differs by exactly 1 within a shared-variant bucket →
        # the shorter IS the deletion of the longer: distance exactly 1
        dist[np.abs(la - lb) == 1] = 1
        for L in np.unique(la):
            sel = (la == L) & (lb == L)
            if not sel.any():
                continue
            ma = np.frombuffer(b"".join(sa[sel]), dtype=np.uint8).reshape(-1, L)
            mb = np.frombuffer(b"".join(sb[sel]), dtype=np.uint8).reshape(-1, L)
            ham = (ma != mb).sum(axis=1)
            d = np.where(ham <= 1, ham, -1)
            dist[sel] = d
        keep = dist >= 0
        ka, kb, dist = ka[keep], kb[keep], dist[keep]
        lo = np.minimum(ka, kb)
        hi = np.maximum(ka, kb)
        keep2 = lo != hi
        return clean_arrow(
            pd.DataFrame(
                {
                    "key_a": lo[keep2].astype(np.int64),
                    "key_b": hi[keep2].astype(np.int64),
                    "dist": dist[keep2].astype(np.int64),
                }
            )
        )

    # keyed on the variant: bucket membership is decided by the exact
    # variant inside `pairs`
    cand = grouped_apply(exploded, ["v"], pairs)
    return tree_group_agg(cand, ["key_a", "key_b"], {"dist": ("dist", "min")})


_SQL_EDIT_DISTANCE_PAIRS = """
WITH names AS (
  SELECT c_custkey AS k, c_name AS s FROM customer
), var AS (
  SELECT k, s, SUBSTR(s, 1, i - 1) || SUBSTR(s, i + 1) AS v
  FROM names CROSS JOIN (
    SELECT UNNEST(range(1, (SELECT MAX(LENGTH(s)) FROM names) + 1)) AS i
  )
  WHERE i <= LENGTH(s)
  UNION ALL
  SELECT k, s, s FROM names
), cand AS (
  SELECT DISTINCT a.k AS ka, b.k AS kb, a.s AS sa, b.s AS sb
  FROM var a JOIN var b ON a.v = b.v AND a.k < b.k
)
SELECT ka AS key_a, kb AS key_b,
       CAST(levenshtein(sa, sb) AS BIGINT) AS dist
FROM cand WHERE levenshtein(sa, sb) <= 1
"""


def q_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary-growth curve: for every token its FIRST doc
    (distributed min over the (term, doc_id) table — the token-first-seen
    operator), then new-type counts per log2-spaced doc-id checkpoint
    (bucket = ilog2(fd − dmin + 1), computed EXACTLY via frexp /
    LENGTH(bin()) — float log2 would misbucket exact powers of two; type
    growth concentrates at the corpus head, so log spacing is the Heaps-
    appropriate grid) plus the cumulative vocabulary — the curve a corpus
    monitor fits Heaps' V = K·nᵝ against. Nothing vocabulary-sized
    reaches the driver; the bucket fold is ≤ 53 rows by construction."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = pc.split_pattern(batch.column("text").cast(pa.string()), " ")
        lens = pc.list_value_length(t).to_numpy()
        ids = batch.column("doc_id").to_numpy()
        flat = pc.list_flatten(t)
        keep = pc.not_equal(flat, "")
        return pa.table(
            {"term": flat, "doc_id": pa.array(np.repeat(ids, lens))}
        ).filter(keep)

    from ..stages.treeagg import grouped_group_agg

    first = grouped_group_agg(
        ds.map_batches(toks, batch_format="pyarrow"),
        ["term"],
        {"fd": ("doc_id", "min")},
    )

    bounds = tree_group_agg(
        ds.select_columns(["doc_id"]).map_batches(
            lambda b: pa.table(
                {
                    "g": pa.array([0]),
                    "dmin": pa.array([b.column("doc_id").to_numpy().min()]),
                    "dmax": pa.array([b.column("doc_id").to_numpy().max()]),
                }
            ),
            batch_format="pyarrow",
        ),
        ["g"],
        {"dmin": ("dmin", "min"), "dmax": ("dmax", "max")},
    ).to_pandas()
    dmin = int(bounds["dmin"][0])

    def bucketize(batch: pa.Table) -> pa.Table:
        fd = batch.column("fd").to_numpy()
        # exact integer log2: frexp's exponent is exact for ints < 2^53
        _, e = np.frexp((fd - dmin + 1).astype(np.float64))
        return pa.table({"bucket": pa.array((e - 1).astype(np.int64))})

    out = tree_group_agg(
        first.map_batches(bucketize, batch_format="pyarrow"),
        ["bucket"],
        {"new_terms": (None, "count")},
    ).to_pandas()
    out = out.sort_values("bucket").reset_index(drop=True)
    out["cum_vocab"] = out["new_terms"].cumsum().astype(np.int64)
    out["bucket"] = out["bucket"].astype(np.int64)
    out["new_terms"] = out["new_terms"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


_SQL_VOCAB_GROWTH = """
WITH tok AS (
  SELECT doc_id, UNNEST(string_split(text, ' ')) AS term FROM documents
), f AS (
  SELECT term, MIN(doc_id) AS fd FROM tok WHERE term <> '' GROUP BY 1
), bounds AS (
  SELECT MIN(doc_id) AS dmin FROM documents
), b AS (
  SELECT LENGTH(bin(fd - (SELECT dmin FROM bounds) + 1)) - 1 AS bucket
  FROM f
), c AS (
  SELECT bucket, CAST(COUNT(*) AS BIGINT) AS new_terms FROM b GROUP BY 1
)
SELECT CAST(bucket AS BIGINT) AS bucket, new_terms,
       CAST(SUM(new_terms) OVER (ORDER BY bucket) AS BIGINT) AS cum_vocab
FROM c
"""


# ---------------------------------------------------------------------------
# Wave 46: local clustering coefficients and common-neighbor / Jaccard link
# prediction over the basket co-purchase graph — the per-node / per-pair
# structure scores next to the global triangle_count and k_core.


def _basket_edges(sf_dir: str):
    """The canonical min-support-2 co-purchase edges (u < v) both wave-46
    queries consume, computed ONCE per call (materialized: the driver
    graph prep and the distributed wedge pass both read it)."""
    return (
        q_basket_pairs(sf_dir, min_support=2)
        .select_columns(["part_a", "part_b"])
        .materialize()
    )


def _basket_graph(edges, max_edges: int = 2_000_000):
    """Shared graph prep: the edges as a sorted packed-key array +
    per-node degrees. The edge list is support-pruned and part-domain-
    bounded — same size-gated driver contract as triangle_count's
    local_max_edges; the guard trips loudly instead of materializing
    past it."""
    n_edges = edges.count()
    if n_edges > max_edges:
        raise ValueError(
            f"_basket_graph: {n_edges} edges exceeds the driver gate "
            f"({max_edges}); raise the gate only with a distributed "
            "membership plan"
        )
    pdf = edges.to_pandas()
    a = pdf["part_a"].to_numpy().astype(np.int64)
    b = pdf["part_b"].to_numpy().astype(np.int64)
    keys = np.sort(a * (1 << 32) + b)
    deg_nodes, deg = np.unique(np.concatenate([a, b]), return_counts=True)
    return keys, deg_nodes, deg.astype(np.int64)


def _wedge_groups(edges, fn):
    """``fn`` over the symmetric (center ``c``, neighbor ``n``) edges,
    keyed on the center — the distributed wedge enumeration both wave-46
    queries share."""

    def sym(batch: pa.Table) -> pa.Table:
        a = batch.column("part_a").to_numpy()
        b = batch.column("part_b").to_numpy()
        c = np.concatenate([a, b])
        return pa.table(
            {"c": pa.array(c), "n": pa.array(np.concatenate([b, a]))}
        )

    return grouped_apply(
        edges.map_batches(sym, batch_format="pyarrow"), ["c"], fn
    )


def q_clustering_coefficient(sf_dir: str):
    """Local clustering coefficient per node of the co-purchase graph:
    wedges enumerate DISTRIBUTED (keyed on the center, one segmented
    vectorized self-merge per group — the basket_pairs
    de-fanning shape; hot centers are the documented lever, same as every
    wedge plan); each wedge closes against the broadcast sorted edge-key
    array (ray.put once, searchsorted per batch — never reshipped). The
    per-node fold (deg, wedges, closed triangles) is exact integers and
    clust = tri/wedges is the single mirrored division. Nodes with
    deg < 2 are excluded (coefficient undefined)."""
    import ray as _ray

    from ..kernels.segments import segmented_arange
    from ..stages.treeagg import clean_arrow

    edges = _basket_edges(sf_dir)
    keys, deg_nodes, deg = _basket_graph(edges)
    kref = _ray.put(keys)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        ks = _ray.get(kref)
        g = g.sort_values(["c", "n"], kind="stable")
        c = g["c"].to_numpy()
        n = g["n"].to_numpy()
        m = len(g)
        new = np.empty(m, dtype=bool)
        new[0] = True
        new[1:] = c[1:] != c[:-1]
        start = np.maximum.accumulate(np.where(new, np.arange(m), 0))
        w = np.arange(m) - start
        if not int(w.sum()):
            return clean_arrow(
                pd.DataFrame(
                    {"node": [], "wedges": [], "tri": []}
                ).astype("int64")
            )
        b_idx = np.repeat(np.arange(m), w)
        a_idx = np.repeat(start, w) + segmented_arange(w)
        pk = n[a_idx] * (1 << 32) + n[b_idx]
        pos = np.searchsorted(ks, pk)
        closed = (pos < len(ks)) & (ks[np.minimum(pos, len(ks) - 1)] == pk)
        out = pd.DataFrame({"node": c[b_idx], "closed": closed})
        agg = out.groupby("node", as_index=False).agg(
            wedges=("closed", "size"), tri=("closed", "sum")
        )
        agg["wedges"] = agg["wedges"].astype(np.int64)
        agg["tri"] = agg["tri"].astype(np.int64)
        return clean_arrow(agg)

    per_node = tree_group_agg(
        _wedge_groups(edges, wedges),
        ["node"],
        {"wedges": ("wedges", "sum"), "tri": ("tri", "sum")},
    ).to_pandas()
    dmap = pd.Series(deg, index=deg_nodes)
    per_node["deg"] = dmap.reindex(per_node["node"]).to_numpy()
    per_node = per_node[per_node["deg"] >= 2].copy()
    per_node["clust"] = per_node["tri"].astype(np.float64) / per_node[
        "wedges"
    ].astype(np.float64)
    out = per_node[["node", "deg", "wedges", "tri", "clust"]].sort_values(
        "node"
    )
    out["deg"] = out["deg"].astype(np.int64)
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


_SQL_GRAPH_CTE = """
WITH b AS (
  SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk FROM lineitem
), e0 AS (
  SELECT a.pk AS u, c.pk AS v
  FROM b a JOIN b c ON a.ok = c.ok AND a.pk < c.pk
  GROUP BY 1, 2 HAVING COUNT(*) >= 2
), e AS (
  SELECT u, v FROM e0 UNION ALL SELECT v, u FROM e0
), deg AS (
  SELECT u AS node, COUNT(*) AS d FROM e GROUP BY 1
), w AS (
  SELECT a.u AS ctr, a.v AS x, b.v AS y
  FROM e a JOIN e b ON a.u = b.u AND a.v < b.v
)
"""

_SQL_CLUSTERING_COEFFICIENT = (
    _SQL_GRAPH_CTE
    + """
, t AS (
  SELECT ctr, COUNT(*) AS wedges,
         SUM(CASE WHEN e0.u IS NULL THEN 0 ELSE 1 END) AS tri
  FROM w LEFT JOIN e0 ON e0.u = w.x AND e0.v = w.y
  GROUP BY ctr
)
SELECT t.ctr AS node, CAST(deg.d AS BIGINT) AS deg,
       CAST(t.wedges AS BIGINT) AS wedges, CAST(t.tri AS BIGINT) AS tri,
       CAST(t.tri AS DOUBLE) / CAST(t.wedges AS DOUBLE) AS clust
FROM t JOIN deg ON deg.node = t.ctr
WHERE deg.d >= 2
"""
)


def q_link_pred_scores(sf_dir: str):
    """Common-neighbor / Jaccard link prediction: every NON-adjacent node
    pair sharing ≥ 2 neighbors in the co-purchase graph, scored with the
    exact integers cn, deg_a, deg_b and the one mirrored division
    jaccard = cn / (deg_a + deg_b − cn) — the candidate-edge ranking a
    recommender runs over the product graph. Wedge pairs enumerate
    distributed (same bucketed segmented self-merge as the clustering
    pass), fold to cn with a combiner tree, then a vectorized
    searchsorted against the broadcast edge keys drops existing edges and
    the broadcast degree arrays attach in-stream — no join exchange
    anywhere past the wedge fold."""
    import ray as _ray

    from ..kernels.segments import segmented_arange
    from ..stages.treeagg import clean_arrow

    edges = _basket_edges(sf_dir)
    keys, deg_nodes, deg = _basket_graph(edges)
    kref = _ray.put(keys)

    def wedge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["c", "n"], kind="stable")
        c = g["c"].to_numpy()
        n = g["n"].to_numpy()
        m = len(g)
        new = np.empty(m, dtype=bool)
        new[0] = True
        new[1:] = c[1:] != c[:-1]
        start = np.maximum.accumulate(np.where(new, np.arange(m), 0))
        w = np.arange(m) - start
        if not int(w.sum()):
            return clean_arrow(
                pd.DataFrame({"a": [], "b": [], "cn": []}).astype("int64")
            )
        b_idx = np.repeat(np.arange(m), w)
        a_idx = np.repeat(start, w) + segmented_arange(w)
        out = (
            pd.DataFrame({"a": n[a_idx], "b": n[b_idx]})
            .groupby(["a", "b"], as_index=False)
            .size()
            .rename(columns={"size": "cn"})
        )
        out["cn"] = out["cn"].astype(np.int64)
        return clean_arrow(out)

    cn = tree_group_agg(
        _wedge_groups(edges, wedge_pairs),
        ["a", "b"],
        {"cn": ("cn", "sum")},
    )

    dn_ref = _ray.put(deg_nodes)
    dg_ref = _ray.put(deg)

    def score(batch: pa.Table) -> pa.Table:
        ks = _ray.get(kref)
        nodes = _ray.get(dn_ref)
        degs = _ray.get(dg_ref)
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        c = batch.column("cn").to_numpy()
        pk = a * (1 << 32) + b
        pos = np.searchsorted(ks, pk)
        member = (pos < len(ks)) & (ks[np.minimum(pos, len(ks) - 1)] == pk)
        keep = (~member) & (c >= 2)
        a, b, c = a[keep], b[keep], c[keep]
        da = degs[np.searchsorted(nodes, a)]
        db = degs[np.searchsorted(nodes, b)]
        return pa.table(
            {
                "node_a": pa.array(a),
                "node_b": pa.array(b),
                "cn": pa.array(c),
                "deg_a": pa.array(da),
                "deg_b": pa.array(db),
                "jaccard": pa.array(
                    c.astype(np.float64) / (da + db - c).astype(np.float64)
                ),
            }
        )

    return cn.map_batches(score, batch_format="pyarrow")


_SQL_LINK_PRED_SCORES = (
    _SQL_GRAPH_CTE
    + """
, cn AS (
  SELECT x AS a, y AS b, COUNT(*) AS cn FROM w GROUP BY 1, 2
), nonadj AS (
  SELECT cn.a, cn.b, cn.cn
  FROM cn LEFT JOIN e0 ON e0.u = cn.a AND e0.v = cn.b
  WHERE e0.u IS NULL AND cn.cn >= 2
)
SELECT n.a AS node_a, n.b AS node_b, CAST(n.cn AS BIGINT) AS cn,
       CAST(da.d AS BIGINT) AS deg_a, CAST(db.d AS BIGINT) AS deg_b,
       CAST(n.cn AS DOUBLE) / CAST(da.d + db.d - n.cn AS DOUBLE) AS jaccard
FROM nonadj n JOIN deg da ON da.node = n.a JOIN deg db ON db.node = n.b
"""
)
