"""Product quantization (PQ) for embedding columns — the ANN compression
path at 10^12-vector scale.

The exact kNN operators (stages/knn.py) carry full float vectors through
every batch; at 10^12 x 64-dim that is ~256 TB of vector bytes. PQ splits
each vector into M subspaces, k-means-codes each subspace into one byte (k=256, the standard 8-bit subquantizer),
and searches with asymmetric distance computation (ADC): the query stays
exact, the corpus is M bytes/vector (64-dim f32 -> 16 bytes = 16x at the default n_sub=16). This is
the published FAISS/Jegou-2011 design re-expressed Ray-Data-first:

- **train** on a deterministic bounded sample (splitmix64 of vec_id —
  codebook training needs ~1e5 vectors no matter the corpus size, so the
  sample is collected through the streaming read and the k-means runs on
  the driver over a provably bounded table; the FAISS practice);
- **encode** as a stateless vectorized ``map_batches`` (argmin over the
  (k, d_sub) codebook per subspace; output one M-byte binary per row);
- **search** as broadcast-LUT ADC: per batch, distances are LUT gathers +
  sums over uint8 codes (integer-exact — centroids and queries are
  quantized to int64, so partial top-k merge order can't flip bits), with
  block-level top-k pruning before the combiner tree's small merge
  (``tree_custom_agg``).

All arithmetic is int64 (exact); ties break on vec_id — deterministic
across block orders and re-runs (pytest-pinned).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .knn import quantize
from .treeagg import tree_custom_agg


def _sample_mask(vec_id: np.ndarray, sample_mod: int) -> np.ndarray:
    from ..kernels.imagecodec import splitmix64

    with np.errstate(over="ignore"):
        h = splitmix64(vec_id.astype(np.uint64))
    return (h % np.uint64(sample_mod)) == 0


def pq_train(
    ds,
    dim: int,
    n_sub: int = 16,
    k: int = 256,
    iters: int = 8,
    sample_mod: int = 1,
) -> np.ndarray:
    """Train per-subspace codebooks: (n_sub, k, dim//n_sub) int64 (quantized).

    ``sample_mod``: keep ~1/sample_mod of vectors for training (deterministic
    splitmix64 of vec_id). The sample is the ONLY data the driver sees; its
    size is the caller's bound (corpus_size / sample_mod).
    """
    d_sub = dim // n_sub
    assert d_sub * n_sub == dim

    def pick(batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy()
        m = _sample_mask(vid, sample_mod) if sample_mod > 1 else np.ones(len(vid), bool)
        return batch.filter(pa.array(m))

    sample = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
    sample = sample.sort_values("vec_id")  # deterministic training order
    vecs = quantize(np.stack(sample["embedding"].to_numpy()))  # (n, dim) int64
    return _train_books(vecs, n_sub, k, iters)


def _train_books(vecs: np.ndarray, n_sub: int, k: int, iters: int) -> np.ndarray:
    """Per-subspace k-means over an int64 (n, dim) sample (driver-side,
    bounded by the caller's sampling contract)."""
    dim = vecs.shape[1]
    d_sub = dim // n_sub
    books = np.empty((n_sub, k, d_sub), dtype=np.int64)
    for m in range(n_sub):
        x = vecs[:, m * d_sub : (m + 1) * d_sub].astype(np.float64)
        # deterministic seeding: evenly spaced points of the vec_id-sorted
        # sample; plain Lloyd (training is once-per-corpus, driver-side).
        # One (n, k) matmul per iter + scatter-add means — no per-cluster
        # Python loop, no (n, k, d) broadcast temporary. The x-side sums
        # stay exact (quantized ints in float64), so the means are
        # exact_sum / count — deterministic across runs.
        cent = x[np.linspace(0, len(x) - 1, k).astype(np.int64)].copy()
        x_sq = (x * x).sum(axis=1)
        for _ in range(iters):
            d2 = x_sq[:, None] - 2 * (x @ cent.T) + (cent * cent).sum(axis=1)
            assign = np.argmin(d2, axis=1)
            sums = np.zeros((k, d_sub))
            np.add.at(sums, assign, x)
            counts = np.bincount(assign, minlength=k).astype(np.float64)
            nz = counts > 0
            cent[nz] = sums[nz] / counts[nz, None]
        books[m] = np.round(cent).astype(np.int64)
    return books


def _encode_codes(x: np.ndarray, books: np.ndarray) -> np.ndarray:
    """uint8 codes (n, n_sub) for int64 vectors x against per-subspace
    books — the shared kernel of pq_encode and ivfpq_encode."""
    n_sub, k, d_sub = books.shape
    codes = np.empty((len(x), n_sub), dtype=np.uint8)
    for m in range(n_sub):
        xm = x[:, m * d_sub : (m + 1) * d_sub]
        cent = books[m]
        d2 = (
            (xm * xm).sum(axis=1)[:, None]
            - 2 * (xm @ cent.T)
            + (cent * cent).sum(axis=1)[None, :]
        )
        codes[:, m] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


def _merge_topk(df: "pd.DataFrame", topk: int) -> "pd.DataFrame":
    """Per-query top-k fold shared by both ADC searchers: the merge step of
    their combiner tree. Order-free (a full (qid, adc_dist, ann_id) sort)
    and idempotent on its own output (``rank`` is recomputed)."""
    from .treeagg import clean_arrow

    df = df.sort_values(["qid", "adc_dist", "ann_id"], kind="stable")
    out = df.groupby("qid", as_index=False, sort=True).head(topk).copy()
    out["rank"] = out.groupby("qid").cumcount().astype(np.int64)
    return clean_arrow(out.reset_index(drop=True))


_EMPTY_TOPK = {"qid": np.int64, "ann_id": np.int64, "adc_dist": np.int64}


def _empty_topk() -> "pd.DataFrame":
    return pd.DataFrame({c: np.array([], dtype=t) for c, t in _EMPTY_TOPK.items()})


def pq_encode(ds, books: np.ndarray):
    """(vec_id, code:binary[M]) — stateless vectorized encode."""
    import ray

    ref = ray.put(books)
    n_sub, k, d_sub = books.shape

    def enc(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)
        vecs = quantize(
            np.stack(batch.column("embedding").to_numpy(zero_copy_only=False))
        )
        n = len(vecs)
        codes = _encode_codes(vecs, b)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "code": pa.array(list(codes.tobytes()[i * n_sub : (i + 1) * n_sub]
                                       for i in range(n)), pa.binary()),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow")


def pq_adc_search(codes_ds, books: np.ndarray, queries: dict, topk: int = 10):
    """ADC top-k per query over the coded corpus.

    ``queries``: {"qid": (Q,), "vecs": (Q, dim) float}. Per batch: distance =
    sum_m LUT[q, m, code_m] (int64 gathers), block-level top-k prune, then
    the combiner tree's merge (Q x topk x blocks rows; one merge while the
    plan bounds the input at 64 blocks). Ties: smaller vec_id wins.
    """
    import ray

    from .treeagg import clean_arrow

    qids = np.asarray(queries["qid"], dtype=np.int64)
    qv = quantize(np.asarray(queries["vecs"]))
    n_sub, k, d_sub = books.shape
    # LUT[q, m, c] = ||q_m - cent_mc||^2, exact int64
    lut = np.empty((len(qids), n_sub, k), dtype=np.int64)
    for m in range(n_sub):
        qm = qv[:, m * d_sub : (m + 1) * d_sub]
        cent = books[m]
        lut[:, m, :] = (
            (qm * qm).sum(axis=1)[:, None]
            - 2 * (qm @ cent.T)
            + (cent * cent).sum(axis=1)[None, :]
        )
    ref = ray.put((qids, lut))

    def block_topk(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return _empty_topk()
        qids_, lut_ = ray.get(ref)
        vid = batch["vec_id"].to_numpy()
        raw = batch["code"].to_numpy()
        codes = np.frombuffer(b"".join(raw), dtype=np.uint8).reshape(-1, n_sub)
        # rows sorted by vec_id so a STABLE per-query sort on distance
        # realises the (dist, vec_id) composite order exactly — an
        # argpartition on distance alone can drop the smallest ann_id
        # among >topk boundary-distance ties (identical PQ codes)
        ordv = np.argsort(vid, kind="stable")
        vid, codes = vid[ordv], codes[ordv]
        # dist[q, n] = sum over m of LUT[q, m, codes[n, m]]
        dist = np.zeros((len(qids_), len(vid)), dtype=np.int64)
        for m in range(n_sub):
            dist += lut_[:, m, codes[:, m]]
        t = min(topk, len(vid))
        part = np.argsort(dist, axis=1, kind="stable")[:, :t]
        rows = {
            "qid": np.repeat(qids_, t),
            "ann_id": vid[part].ravel(),
            "adc_dist": np.take_along_axis(dist, part, axis=1).ravel(),
        }
        return clean_arrow(pd.DataFrame(rows))

    return tree_custom_agg(
        codes_ds, block_topk, lambda df: _merge_topk(df, topk)
    )


# ---------------------------------------------------------------------------
# IVF-PQ: the full FAISS-style recipe for 10^12 vectors — a coarse inverted
# index (distributed Lloyd, stages/knn.py) partitions the corpus into
# buckets; PQ codes the RESIDUAL (vector - its bucket centroid), which is
# far more compressible than the raw vector; search probes only the nprobe
# buckets whose centroids are nearest each query. Bytes touched per query
# drop from O(corpus * M) to O(corpus * M * nprobe / n_coarse), and the
# residual LUTs for EVERY (query, bucket) pair fit in a few MB broadcast
# once (Q x C x n_sub x k int64).


def ivfpq_build(ds, dim: int, n_coarse: int = 8, n_sub: int = 16,
                k: int = 256, iters: int = 8, sample_mod: int = 1):
    """(coarse (C, dim) int64, books (n_sub, k, d_sub) int64), trained on a
    deterministic bounded residual sample."""
    from .knn import distributed_lloyd_centroids

    coarse = np.round(
        distributed_lloyd_centroids(ds, n_coarse, dim)
    ).astype(np.int64)

    def pick(batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy()
        m = _sample_mask(vid, sample_mod) if sample_mod > 1 else np.ones(len(vid), bool)
        return batch.filter(pa.array(m))

    sample = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
    sample = sample.sort_values("vec_id")
    vecs = quantize(np.stack(sample["embedding"].to_numpy()))
    b = _assign_coarse(vecs, coarse)
    books = _train_books(vecs - coarse[b], n_sub, k, iters)
    return coarse, books


def _assign_coarse(vecs: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    d2 = (
        (vecs * vecs).sum(axis=1)[:, None]
        - 2 * (vecs @ coarse.T)
        + (coarse * coarse).sum(axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def ivfpq_encode(ds, coarse: np.ndarray, books: np.ndarray):
    """(vec_id, bucket, code:binary[M]) — bucket assign + residual encode."""
    import ray

    ref = ray.put((coarse, books))
    n_sub, k, d_sub = books.shape

    def enc(batch: pa.Table) -> pa.Table:
        co, bo = ray.get(ref)
        vecs = quantize(
            np.stack(batch.column("embedding").to_numpy(zero_copy_only=False))
        )
        b = _assign_coarse(vecs, co)
        n = len(vecs)
        codes = _encode_codes(vecs - co[b], bo)
        flat = codes.tobytes()
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "bucket": pa.array(b.astype(np.int64)),
                "code": pa.array(
                    [flat[i * n_sub : (i + 1) * n_sub] for i in range(n)],
                    pa.binary(),
                ),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow")


def ivfpq_adc_search(codes_ds, coarse: np.ndarray, books: np.ndarray,
                     queries: dict, topk: int = 10, nprobe: int = 4):
    """ADC top-k per query over the probed buckets only.

    All (query, bucket) residual LUTs are precomputed (Q x C x n_sub x k
    int64 — a few MB) and broadcast once; per batch the distance is a pure
    gather-sum with rows outside a query's probe set masked by a sentinel.
    Integer-exact; ties break on vec_id (deterministic, pytest-pinned).
    """
    import ray

    from .treeagg import clean_arrow

    qids = np.asarray(queries["qid"], dtype=np.int64)
    qv = quantize(np.asarray(queries["vecs"]))
    n_sub, k, d_sub = books.shape
    n_coarse = len(coarse)
    nprobe = min(nprobe, n_coarse)
    # coarse ranking per query -> probe sets
    qd2 = (
        (qv * qv).sum(axis=1)[:, None]
        - 2 * (qv @ coarse.T)
        + (coarse * coarse).sum(axis=1)[None, :]
    )
    probe = np.argsort(qd2, axis=1, kind="stable")[:, :nprobe]  # (Q, nprobe)
    probed = np.zeros((len(qids), n_coarse), dtype=bool)
    np.put_along_axis(probed, probe, True, axis=1)
    # residual LUTs for every (query, bucket): target = q - c_b
    lut = np.empty((len(qids), n_coarse, n_sub, k), dtype=np.int64)
    for b in range(n_coarse):
        t = qv - coarse[b]
        for m in range(n_sub):
            tm = t[:, m * d_sub : (m + 1) * d_sub]
            cent = books[m]
            lut[:, b, m, :] = (
                (tm * tm).sum(axis=1)[:, None]
                - 2 * (tm @ cent.T)
                + (cent * cent).sum(axis=1)[None, :]
            )
    SENTINEL = np.int64(1) << np.int64(60)
    ref = ray.put((qids, lut, probed))

    def block_topk(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return _empty_topk()
        qids_, lut_, probed_ = ray.get(ref)
        vid = batch["vec_id"].to_numpy()
        bkt = batch["bucket"].to_numpy()
        raw = batch["code"].to_numpy()
        codes = np.frombuffer(b"".join(raw), dtype=np.uint8).reshape(-1, n_sub)
        # vec_id-sorted rows + stable per-query sort = exact (dist, vec_id)
        # composite order even with >topk boundary-distance ties (see
        # pq_adc_search.block_topk)
        ordv = np.argsort(vid, kind="stable")
        vid, bkt, codes = vid[ordv], bkt[ordv], codes[ordv]
        nq = len(qids_)
        dist = np.zeros((nq, len(vid)), dtype=np.int64)
        for m in range(n_sub):
            dist += lut_[:, bkt, m, codes[:, m]]
        dist[~probed_[:, bkt]] = SENTINEL  # rows outside each query's probes
        t = min(topk, len(vid))
        part = np.argsort(dist, axis=1, kind="stable")[:, :t]
        d = np.take_along_axis(dist, part, axis=1)
        rows = pd.DataFrame(
            {
                "qid": np.repeat(qids_, t),
                "ann_id": vid[part].ravel(),
                "adc_dist": d.ravel(),
            }
        )
        return clean_arrow(rows[rows["adc_dist"] < SENTINEL])

    return tree_custom_agg(
        codes_ds, block_topk, lambda df: _merge_topk(df, topk)
    )
