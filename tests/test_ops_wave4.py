"""Late-r3 wave: skyline (pareto combiner), inverted index, keep-latest
dedup, SCD2 intervals, SemDeDup.

The four SQL-expressible ops are driver-gated (oracle in oracle_sql()); here we
pin the parts the driver can't see: the local-prune soundness of the
skyline combiner, brute-force equality for semdedup, and driver-style
compares at sf0.001 so a regression fails fast in pytest too.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _oracle_df(name):
    import duckdb

    from __ray_entry__ import oracle_sql

    con = duckdb.connect()
    for t in "orders lineitem customer events documents embeddings".split():
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con.sql(oracle_sql()[name]).df()


def _ray_df(name):
    from __ray_entry__ import queries

    out = queries()[name](SF)
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    return out


def _assert_same(a: pd.DataFrame, b: pd.DataFrame):
    cols = sorted(a.columns)
    assert cols == sorted(b.columns)
    a = a[cols].sort_values(cols).reset_index(drop=True)
    b = b[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        assert (a[c].to_numpy() == b[c].to_numpy()).all(), c


@pytest.mark.parametrize(
    "name",
    ["skyline_orders", "inverted_index", "latest_event_per_user",
     "scd2_intervals", "late_supplier_blame", "global_shuffle_rank",
     "pattern_triples", "bfs_hops",
     # the WebMercator tile-lattice queries
     "tile_neighbor_smooth", "morans_i", "getis_ord_hotspots",
     "local_morans_i", "geary_c", "quadrat_vmr", "implicit_quadtree",
     "quadkey_encode", "tile_pyramid_rollup",
     # exact group-aggregates on the shared combiner tree
     "props_extract", "codelist_resolve", "join_orders_customers",
     "pip_mesh_bbox",
     # keyed group-applies on treeagg.grouped_apply
     "asof_latest_order", "range_join_recent", "top_terms_per_doc",
     "decile_bucket", "user_event_sequence", "dup_spans", "funnel_steps",
     "ngram_lm_score", "basket_pairs", "bounce_rate", "bearing_sectors"],
)
def test_wave4_oracle_parity(ray_session, name):
    _assert_same(_ray_df(name), _oracle_df(name))


def test_skyline_prune_local_properties():
    """Combiner soundness: the local prune is idempotent, keeps every
    globally-undominated row, and never keeps a dominated row."""
    from plateau_gis_converter_ray.pipelines.queries import _skyline_prune

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "o_orderkey": np.arange(400),
            "price_c": rng.randint(0, 50, 400).astype(np.int64),
            "date_us": rng.randint(0, 50, 400).astype(np.int64),
        }
    )
    got = _skyline_prune(df)
    # idempotent
    again = _skyline_prune(got)
    assert len(again) == len(got)
    # brute dominance check over the ORIGINAL set
    p = df["price_c"].to_numpy()
    d = df["date_us"].to_numpy()
    dominated = np.zeros(len(df), dtype=bool)
    for i in range(len(df)):
        dom = (p >= p[i]) & (d <= d[i]) & ((p > p[i]) | (d < d[i]))
        dominated[i] = dom.any()
    want = set(df.loc[~dominated, "o_orderkey"])
    assert set(got["o_orderkey"]) == want
    # split-into-blocks then prune keeps the global skyline (transitivity)
    half = _skyline_prune(df.iloc[:200])
    other = _skyline_prune(df.iloc[200:])
    merged = _skyline_prune(pd.concat([half, other]))
    assert set(merged["o_orderkey"]) == want


def test_bfs_hops_distributed_equals_local(ray_session):
    """Force the per-round join + min-combiner path (local_max_edges=0)
    and pin it equal to the driver fast path."""
    from plateau_gis_converter_ray.pipelines.queries import q_bfs_hops

    fast = (
        q_bfs_hops(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    dist = (
        q_bfs_hops(SF, local_max_edges=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(fast, dist)
    assert (fast["dist"] == 0).sum() > 0  # seeds present in the graph


def test_semdedup_equals_brute(ray_session):
    from plateau_gis_converter_ray.stages.knn import (
        semdedup,
        semdedup_brute_pd,
    )

    got = semdedup(SF).to_pandas().sort_values("vec_id").reset_index(drop=True)
    want = semdedup_brute_pd(SF).sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # the rule keeps the lowest id of every within-cluster duplicate set,
    # so at least one vector per cluster survives and some drops occur at
    # the registry threshold on this table
    assert got["kept"].sum() > 0
    assert (1 - got["kept"]).sum() > 0
    kept_per_cluster = got.groupby("cluster")["kept"].sum()
    assert (kept_per_cluster > 0).all()


def test_fuzzy_token_join_equals_brute(ray_session):
    """Deletion-neighborhood blocking + vectorized verify == O(V^2) DP."""
    from plateau_gis_converter_ray.stages.fuzzy import (
        brute_ed1_pairs,
        fuzzy_token_join,
    )

    got = (
        fuzzy_token_join(0.001)
        .to_pandas()
        .sort_values(["term_a", "term_b"])
        .reset_index(drop=True)
    )
    want = (
        brute_ed1_pairs(0.001)
        .sort_values(["term_a", "term_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert len(got) > 1000  # the #tag space is a dense near-miss population


def test_fuzzy_verify_kernel():
    """The ed<=1 verifier alone, on adversarial cases the blocking admits."""
    from plateau_gis_converter_ray.stages.fuzzy import _verify_ed1

    ta = np.array(["ab", "abc", "abc", "abc", "abcd", "x", "same"],
                  dtype=object)
    tb = np.array(["ba", "abd", "ac", "abcd", "abc", "xy", "same"],
                  dtype=object)
    want = np.array([False, True, True, True, True, True, True])
    np.testing.assert_array_equal(_verify_ed1(ta, tb), want)


def test_semdedup_normalize_exactness():
    """Quantized-normalized dots stay below 2^53 (float64-exact regime)."""
    from plateau_gis_converter_ray.stages.knn import _semdedup_normalize

    rng = np.random.RandomState(3)
    v = rng.randn(64, 64)
    qn = _semdedup_normalize(v)
    assert np.abs(qn).max() <= (1 << 20)
    m = qn.astype(np.float64) @ qn.astype(np.float64).T
    assert np.abs(m).max() < 2**53
    # float64 matmul equals exact object-int arithmetic on a sample row
    exact = sum(int(a) * int(b) for a, b in zip(qn[0], qn[1]))
    assert int(m[0, 1]) == exact
