"""Wave 46: local clustering coefficients and common-neighbor / Jaccard
link prediction over the basket co-purchase graph, pinned against a
brute-force single-process recompute at sf0.001."""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def adjacency():
    """Neighbor sets of the min-support-2 co-purchase graph."""
    li = pd.read_parquet(
        f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    ).drop_duplicates()
    support = Counter()
    for parts in li.groupby("l_orderkey")["l_partkey"]:
        support.update(combinations(sorted(parts[1]), 2))
    adj = defaultdict(set)
    for (u, v), n in support.items():
        if n >= 2:
            adj[u].add(v)
            adj[v].add(u)
    assert adj, "sf0.001 must carry a non-empty co-purchase graph"
    return adj


def _frame(res) -> pd.DataFrame:
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


def test_clustering_coefficient_brute(ray_session, adjacency):
    from plateau_gis_converter_ray.pipelines.queries import q_clustering_coefficient

    want = {}
    for node, nbrs in adjacency.items():
        if len(nbrs) >= 2:
            pairs = list(combinations(sorted(nbrs), 2))
            tri = sum(y in adjacency[x] for x, y in pairs)
            want[node] = (len(nbrs), len(pairs), tri, tri / len(pairs))
    got = _frame(q_clustering_coefficient(SF))
    assert {
        int(r.node): (int(r.deg), int(r.wedges), int(r.tri), float(r.clust))
        for r in got.itertuples()
    } == want


def test_link_pred_scores_brute(ray_session, adjacency):
    from plateau_gis_converter_ray.pipelines.queries import q_link_pred_scores

    cn = Counter()
    for nbrs in adjacency.values():
        cn.update(combinations(sorted(nbrs), 2))
    want = {}
    for (a, b), c in cn.items():
        if c >= 2 and b not in adjacency[a]:
            da, db = len(adjacency[a]), len(adjacency[b])
            want[(a, b)] = (c, da, db, c / (da + db - c))
    got = _frame(q_link_pred_scores(SF))
    assert want, "sf0.001 must carry non-adjacent pairs with >= 2 common neighbors"
    assert {
        (int(r.node_a), int(r.node_b)): (
            int(r.cn), int(r.deg_a), int(r.deg_b), float(r.jaccard)
        )
        for r in got.itertuples()
    } == want
