"""Mergeable sketches: HyperLogLog distinct-count and Count-Min frequency.

Both follow the engine's combiner contract (`stages/treeagg.py` shape):
each block reduces to ONE fixed-size partial row (HLL registers / CM
counter matrix), partials merge associatively through a repartition tree
(max for HLL, elementwise sum for CM), and the driver only ever reads the
single final row. The sketch size — not the data size — bounds the memory
of every task and of the exchange, which is the point at 10^12 rows: an
exact distinct would shuffle every key; the HLL shuffle carries
2^p bytes per block total.

Count-Min is used the scale-honest way: as a CANDIDATE generator whose
one-sided error (estimates never undercount) yields a provable superset of
the true threshold heavy hitters; an exact recount of the candidate set
then makes the final answer exact — which is why `heavy_users` can be
oracle-gated even though a sketch is in the plan.

Hashing reuses the splitmix64 kernel (`kernels/imagecodec.py`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..kernels.imagecodec import splitmix64
from .treeagg import tree_custom_agg

_SALT_CM = np.uint64(0xA076_1D64_78BD_642F)


# ---------------------------------------------------------------------------
# HyperLogLog


def hll_partial(keys: np.ndarray, p: int = 12) -> np.ndarray:
    """One block's HLL registers: (2^p,) uint8 of max leading-zero ranks."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(keys) == 0:
        return regs
    with np.errstate(over="ignore"):
        h = splitmix64(keys.astype(np.uint64))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    with np.errstate(over="ignore"):
        # sentinel bit caps the rank at 64-p+1 and guarantees rest != 0
        rest = (h << np.uint64(p)) | (np.uint64(1) << np.uint64(p - 1))
        # exact vectorized CLZ: smear the MSB right, popcount -> 64 - clz
        x = rest.copy()
        for s in (1, 2, 4, 8, 16, 32):
            x |= x >> np.uint64(s)
    from ..kernels.text import hamming64

    ones = hamming64(x, np.zeros_like(x))  # popcount
    rank = (np.int64(64) - ones + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with small-range (linear counting) correction."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.float64(2.0) ** -regs.astype(np.float64))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def approx_distinct(ds, key_col: str, p: int = 12):
    """Distributed HLL distinct estimate: block partials -> max tree merge
    -> one estimate row. Returns a Dataset with a single row
    {approx_distinct: int64}."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        regs = hll_partial(batch[key_col].to_numpy(), p)
        return pd.DataFrame({"regs": [regs.tobytes()]})

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(1 << p, dtype=np.uint8)
        for b in batch["regs"]:
            acc = np.maximum(acc, np.frombuffer(b, dtype=np.uint8))
        return pd.DataFrame({"regs": [acc.tobytes()]})

    out = tree_custom_agg(ds, partial, merge)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        regs = np.frombuffer(batch["regs"].iloc[0], dtype=np.uint8)
        return pd.DataFrame(
            {"approx_distinct": np.array([round(hll_estimate(regs))], dtype=np.int64)}
        )

    return out.map_batches(finish, batch_format="pandas", batch_size=None)


# ---------------------------------------------------------------------------
# Count-Min


def cm_partial(keys: np.ndarray, w: int, d: int) -> np.ndarray:
    """One block's Count-Min counters: (d, w) int64."""
    cm = np.zeros((d, w), dtype=np.int64)
    if len(keys) == 0:
        return cm
    with np.errstate(over="ignore"):
        u = keys.astype(np.uint64)
        for row in range(d):
            h = splitmix64(u ^ (_SALT_CM * np.uint64(row + 1)))
            np.add.at(cm[row], (h % np.uint64(w)).astype(np.int64), 1)
    return cm


def cm_query(cm: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Point estimates (min over rows) — never BELOW the true count."""
    d, w = cm.shape
    est = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
    with np.errstate(over="ignore"):
        u = keys.astype(np.uint64)
        for row in range(d):
            h = splitmix64(u ^ (_SALT_CM * np.uint64(row + 1)))
            est = np.minimum(est, cm[row, (h % np.uint64(w)).astype(np.int64)])
    return est


def cm_build(ds, key_col: str, w: int = 2048, d: int = 4) -> np.ndarray:
    """Distributed Count-Min build (elementwise-sum tree merge); the driver
    reads one (d*w)-word row."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cm = cm_partial(batch[key_col].to_numpy(), w, d)
        return pd.DataFrame({"cm": [cm.tobytes()]})

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(d * w, dtype=np.int64)
        for b in batch["cm"]:
            acc += np.frombuffer(b, dtype=np.int64)
        return pd.DataFrame({"cm": [acc.tobytes()]})

    final = tree_custom_agg(ds, partial, merge).to_pandas()
    return np.frombuffer(final["cm"].iloc[0], dtype=np.int64).reshape(d, w).copy()


# ---------------------------------------------------------------------------
# KMV (k-minimum-values) distinct sketch — the SET-OPERATION sketch next to
# HyperLogLog (union-only) and count-min (frequency): keeping the k smallest
# distinct hash values of a set supports distinct-count estimation
# (D ~= (k-1) * 2^64 / h_k) AND union/intersection estimates by sketch
# merge (Beyer et al. 2007). Partials are (key, hash) rows bounded by
# k x blocks — a pure combiner; the k-th smallest never needs a global sort.

KMV_K = 256


def kmv_partial_batch(texts, n: int = 8, k: int = KMV_K) -> np.ndarray:
    """k smallest distinct n-gram hashes over a batch's texts (int64
    bit-pattern of the uint64 hash, shifted to be order-preserving)."""
    from ..kernels.text import char_ngram_hashes

    hs = [np.unique(char_ngram_hashes(t, n)) for t in texts]
    u = np.unique(np.concatenate(hs)) if hs else np.empty(0, np.uint64)
    u = u[: k]  # np.unique is sorted ascending
    # order-preserving signed view: flip the top bit so uint64 order == int64
    return (u ^ np.uint64(1 << 63)).astype(np.int64)


def kmv_merge(values: np.ndarray, k: int = KMV_K) -> np.ndarray:
    """Merge partial KMV value lists: distinct + k smallest (order-free)."""
    return np.unique(values)[: k]


def kmv_distinct_estimate(sketch: np.ndarray, k: int = KMV_K) -> float:
    """(k-1) / U(h_k) with hashes mapped back to uniform [0, 1)."""
    if len(sketch) < k:
        return float(len(sketch))  # exact below k
    hk = (sketch[k - 1].astype(np.uint64) ^ np.uint64(1 << 63)).astype(
        np.float64
    )
    return (k - 1) / (hk / 2.0 ** 64)


def kmv_jaccard_estimate(a: np.ndarray, b: np.ndarray, k: int = KMV_K):
    """Jaccard + intersection estimates from two merged sketches: over the
    union sketch's k smallest values, the match fraction estimates J."""
    u = np.unique(np.concatenate([a, b]))[: k]
    in_a = np.isin(u, a)
    in_b = np.isin(u, b)
    j = float((in_a & in_b).sum()) / max(len(u), 1)
    d_union = kmv_distinct_estimate(u, k) if len(u) >= k else float(len(u))
    return j, j * d_union
