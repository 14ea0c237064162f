"""Distributed connected components (alternating large-star / small-star).

Public algorithm: Kiveris, Lattanzi, Mirrokni, Rastogi, Vassilvitskii,
"Connected Components in MapReduce and Beyond" (ACM SoCC 2014): alternate
two neighborhood-local contractions until the edge set is a union of stars
pointing at each component's minimum node; converges in O(log n) rounds
regardless of graph diameter (a plain min-label propagation needs
O(diameter)). Each round here is one symmetrize/orient ``map_batches``
pass plus one node-keyed ``grouped_apply`` pass with numpy inside the
group; the driver only ever sees a four-word checksum per round, never an
edge. The per-round frontier (the distinct edge set) is materialized so
iteration r+1 does not re-execute rounds 1..r's lineage — it is bounded
by the pair-operator output, not the corpus.

Role: turns the near-dup PAIR operators (minhash / simhash / n-gram
Jaccard / embedding near-dup) into duplicate CLUSTERS — the
keep-one-per-cluster step every dedup pipeline ends with. The reference
dedups via exact-key hash buckets (nusamai geometry.rs:86-122) where
components are trivially cliques; thresholded near-dup graphs need a real
CC.

Skew note: a component's root accumulates its whole component as
neighbors, so late-round groups can be as large as the largest component.
That is inherent to star-contraction; the alternation bounds total edges
emitted per round by the current edge count (paper, Lemma 3.1), and
duplicate-cluster graphs have small components by construction (the pair
threshold caps cluster growth).

Hybrid fast path: the pair graph is the OUTPUT of a thresholded near-dup
operator, i.e. orders of magnitude smaller than the corpus (at 100 TB a
1%-dup-rate corpus yields ~10^9 pair rows = 16 GB — still far below the
corpus, though above a driver's comfort). After the first distributed
distinct-edges pass the edge count is known; when it fits the driver
(``local_max_edges``, default 20M edges = 320 MB — comfortably inside a
multi-GB driver heap, far below the 10^9-pair scale that forces the
distributed rounds) the star rounds — each of which costs two groupby
exchanges plus a parallel grouped-distinct of Ray fixed overhead — are
replaced by one vectorized min-label pointer-jumping pass on the driver. Above the threshold the distributed star rounds run unchanged;
both paths produce identical (doc_id, comp=min-node) labels.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .treeagg import grouped_apply, tree_group_agg

def _distinct_edges(ds):
    """Global (u, v) dedup — parallel grouped distinct (the agg tree's
    fan-1 final merge serialized fact-sized edge sets; see
    treeagg.grouped_distinct)."""
    from .treeagg import grouped_distinct

    return grouped_distinct(ds, ["u", "v"])


def _star_round(ds, kind: str):
    """One large- or small-star contraction round.

    The reduce is SEGMENTED, not per-node: :func:`grouped_apply` keys on
    u, so a node's neighborhood never splits, and each call resolves ALL
    its nodes in one sorted segmented-min pass — emissions identical to
    the per-node definition, without a pandas invocation per node (the
    r2-verdict de-fanning pattern applied to graph rounds; the per-node
    map_groups made each round cost ~|V| pandas calls on top of the
    sort)."""
    import pyarrow as pa

    if kind == "large":
        # symmetrize: every edge contributes to both endpoints' neighborhoods
        def prep(batch: pa.Table) -> pa.Table:
            u = batch.column("u").to_numpy()
            v = batch.column("v").to_numpy()
            uu = np.concatenate([u, v])
            return pa.table({"u": uu, "v": np.concatenate([v, u])})
    else:
        # orient each edge from its larger endpoint (small-star operates on
        # strictly-smaller neighborhoods)
        def prep(batch: pa.Table) -> pa.Table:
            u = batch.column("u").to_numpy()
            v = batch.column("v").to_numpy()
            uu = np.maximum(u, v)
            return pa.table({"u": uu, "v": np.minimum(u, v)})

    def star_block(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("u", kind="stable")
        u = g["u"].to_numpy()
        v = g["v"].to_numpy()
        new = np.empty(len(u), dtype=bool)
        new[0] = True
        new[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new)
        seg_id = np.cumsum(new) - 1
        m_seg = np.minimum(np.minimum.reduceat(v, starts), u[starts])
        m_row = m_seg[seg_id]
        from .treeagg import clean_arrow

        if kind == "large":
            keep = v > u  # connect strictly-larger neighbors to the min
            return clean_arrow(
                pd.DataFrame({"u": v[keep], "v": m_row[keep]})
            )
        # small: connect every smaller neighbor AND u itself to the min
        keep = v != m_row
        return clean_arrow(
            pd.DataFrame(
                {
                    "u": np.concatenate([v[keep], u[starts]]),
                    "v": np.concatenate([m_row[keep], m_seg]),
                }
            )
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    return grouped_apply(ds, ["u"], star_block)


def _checksum(ds) -> tuple:
    """Order-free 4-word digest of the distinct edge set (driver scalars)."""
    import pyarrow as pa

    def digest(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy()
        v = batch.column("v").to_numpy()
        mix = (u * 1_000_003 + v) % (1 << 61)
        return pa.table(
            {
                "n": pa.array([len(u)]),
                "su": pa.array([int(u.sum())]),
                "sv": pa.array([int(v.sum())]),
                "sm": pa.array([int(mix.sum() % (1 << 61))]),
            }
        )

    agg = ds.map_batches(digest, batch_format="pyarrow").sum(
        ["n", "su", "sv", "sm"]
    )
    return (agg["sum(n)"], agg["sum(su)"], agg["sum(sv)"], agg["sum(sm)"])


def _cc_local(ds):
    """Driver-side min-label CC over a small deduped edge table.

    Classic edge-relaxation + pointer-jumping (Shiloach–Vishkin style),
    fully vectorized: each outer pass pulls the min label across every
    edge in both directions, then compresses label chains; converges in
    O(log n) passes. Node ids are sorted by ``np.unique`` so the minimum
    label INDEX is the minimum node ID — the same component label the
    distributed star rounds produce.
    """
    import pyarrow as pa
    import ray.data

    tbl = pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)]
    ) if ds.count() else pa.table({"u": pa.array([], pa.int64()),
                                   "v": pa.array([], pa.int64())})
    u = tbl.column("u").to_numpy()
    v = tbl.column("v").to_numpy()
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inv[: len(u)], inv[len(u):]
    lab = np.arange(len(nodes))
    while True:
        before = lab.copy()
        m = np.minimum(lab[iu], lab[iv])
        np.minimum.at(lab, iu, m)
        np.minimum.at(lab, iv, m)
        while True:
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        if np.array_equal(lab, before):
            break
    return ray.data.from_arrow(
        pa.table({"doc_id": nodes, "comp": nodes[lab]}).replace_schema_metadata(
            None
        )
    )


def connected_components(edges, src: str = "doc_a", dst: str = "doc_b",
                         max_rounds: int = 50,
                         local_max_edges: int = 20_000_000):
    """Labels every node appearing in ``edges`` with its component's minimum
    node id. Returns a Dataset with columns (doc_id, comp), one row per
    distinct node. Self-loops are ignored; isolated nodes (absent from the
    edge list) do not appear. Edge sets up to ``local_max_edges`` (after
    the distributed dedup) finish on the driver (see module docstring);
    pass 0 to force the distributed star rounds."""
    import pyarrow as pa

    def init(batch: pa.Table) -> pa.Table:
        u = batch.column(src).cast(pa.int64()).to_numpy()
        v = batch.column(dst).cast(pa.int64()).to_numpy()
        keep = u != v
        return pa.table({"u": u[keep], "v": v[keep]})

    ds = _distinct_edges(
        edges.map_batches(init, batch_format="pyarrow")
    ).materialize()
    if ds.count() <= local_max_edges:
        return _cc_local(ds)
    prev = None
    for _ in range(max_rounds):
        ds = _star_round(ds, "large")
        ds = _star_round(ds, "small")
        ds = _distinct_edges(ds).materialize()
        ck = _checksum(ds)
        if ck == prev:
            break
        prev = ck

    # converged star set: (child, root) edges; add (root, root) rows and
    # collapse — min() also self-corrects a child that appears twice
    def with_roots(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy()
        v = batch.column("v").to_numpy()
        return pa.table(
            {
                "doc_id": np.concatenate([u, v]),
                "comp": np.concatenate([v, v]),
            }
        )

    labelled = ds.map_batches(with_roots, batch_format="pyarrow")
    return tree_group_agg(labelled, ["doc_id"], {"comp": ("comp", "min")})
