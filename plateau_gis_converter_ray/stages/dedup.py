"""Deduplication pipelines: exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding near-dup.

Patterns (ray_guide + SURVEY.md §2.6):
- exact: content-hash column in map_batches -> groupby(hash) ->
  map_groups(keep first) — the hash-partition + per-group-first design that
  replaces the reference's global IndexSet vertex dedup (geometry.rs:86).
- MinHash-LSH: signature per doc -> explode to (band, band_hash, doc) rows ->
  groupby bucket -> candidate pairs -> exact-Jaccard verify. The groupby is
  the only shuffle and moves one row per (doc, band).
- SimHash: bucket by the top bits (hamming-ball prefilter) -> verify within
  buckets by Hamming distance.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .treeagg import grouped_apply


def exact_dedup_docs(sf_dir: str):
    """Exact dedup of documents by text: keep min(doc_id) per distinct text.

    Ref semantics: vertex dedup by bit pattern (geometry.rs:105-122) —
    identical payload collapses to one canonical row. Hash-first plan: the
    shuffle carries a 128-bit content hash (two independent vectorized
    64-bit hashes), not the raw text — 16 bytes/row instead of the payload.
    Collision risk at the 128-bit width is ~n^2 / 2^129 (< 1e-15 even at
    10^12 docs), the documented residual vs the reference's full-payload
    IndexSet compare; the aggregation itself is a combiner + tree merge
    (no Ray groupby fixed cost, no per-row Python).
    """
    import ray.data

    from .treeagg import tree_group_agg

    from ..sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def hash_stage(batch: pa.Table) -> pa.Table:
        # only the text column crosses into pandas (the hash kernel's input
        # type); the stage consumes and emits Arrow so the exchange it
        # feeds never sees a pandas block or its schema-metadata blob
        txt = batch.column("text").to_pandas()
        h1 = pd.util.hash_pandas_object(
            txt, index=False, hash_key="plateau-dedup-h1"
        ).to_numpy().astype(np.int64)
        h2 = pd.util.hash_pandas_object(
            txt, index=False, hash_key="plateau-dedup-h2"
        ).to_numpy().astype(np.int64)
        return pa.table(
            {"doc_id": batch.column("doc_id"), "h1": pa.array(h1),
             "h2": pa.array(h2)}
        )

    ds = ds.map_batches(hash_stage, batch_format="pyarrow")
    # content-hash keys are FACT-SIZED (|distinct| ~ |docs|): the merge
    # must stay parallel, never a fan-1 tree final (treeagg docstring)
    from .treeagg import grouped_group_agg

    agg = grouped_group_agg(
        ds, ["h1", "h2"],
        {"doc_id_keep": ("doc_id", "min"), "n_dups": (None, "count")},
    )

    def strip(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["doc_id_keep", "n_dups"]]

    return agg.map_batches(strip, batch_format="pandas", batch_size=None)


def minhash_lsh_candidates(sf_dir: str, jaccard_threshold: float = 0.5):
    """MinHash+LSH near-dup candidate pairs, verified by exact Jaccard.

    shingle -> minhash -> band -> bucket-groupby -> pairs -> verify.
    Returns (doc_a, doc_b, jaccard) for verified pairs, doc_a < doc_b.
    """
    import ray.data

    from .text import Signatures

    from ..sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    # batch_size sized so the CPU-heavy signature stage fans wide (1024
    # coalesced a 5k-doc corpus into 4 tasks; per-doc cost is ~1.3 ms)
    sigs = ds.map_batches(Signatures(), batch_format="pyarrow", batch_size=256)

    def explode_bands(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_id").to_numpy()
        bands = batch.column("band_keys").to_numpy(zero_copy_only=False)
        n_bands = len(bands[0]) if len(bands) else 0
        doc_rep = np.repeat(doc, n_bands)
        keys = np.concatenate(bands) if len(bands) else np.array([], np.int64)
        return pa.table({"doc_id": pa.array(doc_rep), "bucket": pa.array(keys)})

    exploded = sigs.map_batches(explode_bands, batch_format="pyarrow")

    def pairs_block(g: pd.DataFrame) -> pd.DataFrame:
        """All in-bucket pairs for EVERY bucket of this coarse hash group
        in one sorted segmented pass (the de-fanning pattern: the
        per-bucket map_groups paid one pandas call per bucket — 57k
        buckets at sf0.1 made candidate generation the pipeline's
        dominant cost for 234k actual candidates)."""
        from ..kernels.segments import segmented_arange
        from .treeagg import clean_arrow

        g = g.sort_values(["bucket", "doc_id"], kind="stable")
        b = g["bucket"].to_numpy()
        ids = g["doc_id"].to_numpy()
        n = len(g)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = b[1:] != b[:-1]
        start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        w = np.arange(n) - start
        if not int(w.sum()):
            return clean_arrow(
                pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")
            )
        b_idx = np.repeat(np.arange(n), w)
        a_idx = np.repeat(start, w) + segmented_arange(w)
        return clean_arrow(
            pd.DataFrame(
                {
                    "doc_a": ids[a_idx].astype(np.int64),
                    "doc_b": ids[b_idx].astype(np.int64),
                }
            )
        )

    cand = grouped_apply(exploded, ["bucket"], pairs_block)

    # global candidate-pair dedup BEFORE the (expensive) verify: a pair can
    # surface from several bands — combiner + tree merge
    from .treeagg import tree_group_agg

    cand = tree_group_agg(cand, ["doc_a", "doc_b"], {"n_buckets": (None, "count")})

    # gram-hash each doc ONCE, distributed, into a packed uint64 blob (a
    # binary column: Arrow's hash join carries it, a list column it does
    # not). Size-gated delivery to the verify: when the code table's
    # MEASURED bytes fit the broadcast limit it ships flattened (ids, flat,
    # offsets) via one ray.put and each pair side is a gather — zero joins;
    # past the limit, two hash-partitioned joins attach one blob per
    # candidate side (at 10^12 scale the joins carry the candidates' codes,
    # never the whole corpus). Both feed the same verify kernel.
    import ray as _ray

    from .joins import DEFAULT_BROADCAST_LIMIT, auto_join

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def gram_codes(batch: pa.Table) -> pa.Table:
        from ..kernels.text import char_ngram_hashes

        texts = batch.column("text").to_pylist()
        codes = [np.unique(char_ngram_hashes(t)).tobytes() for t in texts]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "grams": pa.array(codes, pa.binary()),
            }
        )

    codes_ds = docs.map_batches(
        gram_codes, batch_format="pyarrow", batch_size=256
    ).materialize()
    if codes_ds.size_bytes() <= DEFAULT_BROADCAST_LIMIT:
        cp = codes_ds.to_pandas().sort_values("doc_id")
        flat, lens = _unpack_grams(cp["grams"])
        ref = _ray.put(
            (cp["doc_id"].to_numpy(), flat, np.r_[0, np.cumsum(lens)])
        )

        def verify_b(batch: pd.DataFrame) -> pd.DataFrame:
            from ..kernels.segments import segmented_arange

            ids_s, flat, offs = _ray.get(ref)  # zero-copy plasma views
            a = batch["doc_a"].to_numpy().astype(np.int64)
            b = batch["doc_b"].to_numpy().astype(np.int64)
            pos_a = np.searchsorted(ids_s, a)
            pos_b = np.searchsorted(ids_s, b)
            la = offs[pos_a + 1] - offs[pos_a]
            lb = offs[pos_b + 1] - offs[pos_b]

            def gather(pos, ln):
                return flat[np.repeat(offs[pos], ln) + segmented_arange(ln)]

            return _verify_pairs(
                a, b, gather(pos_a, la), la, gather(pos_b, lb), lb,
                jaccard_threshold,
            )

        return cand.repartition(16).map_batches(
            verify_b, batch_format="pandas"
        )
    j = auto_join(cand, codes_ds, on=("doc_a",), right_on=("doc_id",))
    j = auto_join(
        j, codes_ds.rename_columns({"grams": "grams_b"}),
        on=("doc_b",), right_on=("doc_id",),
    )

    def verify_j(batch: pd.DataFrame) -> pd.DataFrame:
        ga, la = _unpack_grams(batch["grams"])
        gb, lb = _unpack_grams(batch["grams_b"])
        return _verify_pairs(
            batch["doc_a"].to_numpy().astype(np.int64),
            batch["doc_b"].to_numpy().astype(np.int64),
            ga, la, gb, lb, jaccard_threshold,
        )

    return j.map_batches(verify_j, batch_format="pandas")


def _unpack_grams(blobs) -> tuple[np.ndarray, np.ndarray]:
    """Packed uint64 gram blobs -> (concatenated codes, per-blob lengths)."""
    lens = np.fromiter(map(len, blobs), np.int64, len(blobs)) // 8
    return np.frombuffer(b"".join(blobs), np.uint64), lens


def _verify_pairs(a, b, ga, la, gb, lb, threshold: float) -> pd.DataFrame:
    """Exact Jaccard verify of candidate pairs ``(a[i], b[i])``, fully
    vectorized: ``ga``/``gb`` hold each side's sorted unique gram codes,
    concatenated pair by pair with lengths ``la``/``lb``. Every code is
    tagged with its pair index, one lexsort on (pair, code) runs, and
    adjacent duplicates are counted — a code in |A∩B| appears exactly
    twice within its pair. The inter/union integers and the float
    division equal kernels.text.jaccard's. Keeps pairs at ``>= threshold``."""
    pair = np.arange(len(a))
    pid = np.concatenate([np.repeat(pair, la), np.repeat(pair, lb)])
    gr = np.concatenate([ga, gb])
    order = np.lexsort((gr, pid))
    pid_s, gr_s = pid[order], gr[order]
    dup = (pid_s[1:] == pid_s[:-1]) & (gr_s[1:] == gr_s[:-1])
    inter = np.bincount(pid_s[1:][dup], minlength=len(a)).astype(np.int64)
    union = la + lb - inter
    sim = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    keep = sim >= threshold
    return pd.DataFrame(
        {
            "doc_a": pd.array(a[keep], dtype="int64"),
            "doc_b": pd.array(b[keep], dtype="int64"),
            "jaccard": pd.array(sim[keep], dtype="float64"),
        }
    )


def simhash_near_dup(sf_dir: str, max_hamming: int = 8, prefix_bits: int = 12,
                     n_rotations: int = 4):
    """SimHash near-dup pairs: multi-rotation prefix bucketing + verify.

    A 64-bit SimHash within Hamming distance d collides on SOME rotated
    ``prefix_bits`` prefix with probability rising in ``n_rotations``
    (the standard multi-table SimHash LSH): each doc fans out to one
    (rotation, prefix) bucket per rotation, candidate pairs are verified by
    exact Hamming distance, and duplicates across rotations collapse in the
    final dedup. n_rotations=1 reproduces the single-table variant.
    """
    import ray.data

    from .text import Signatures

    from ..sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    sigs = ds.map_batches(
        Signatures(), batch_format="pyarrow", batch_size=256
    ).select_columns(["doc_id", "simhash"])

    rot_step = max(1, 64 // max(n_rotations, 1))

    def bucket(batch: pa.Table) -> pa.Table:
        sh = batch.column("simhash").to_numpy().astype(np.uint64)
        doc = batch.column("doc_id").to_numpy()
        parts = []
        with np.errstate(over="ignore"):
            for r in range(n_rotations):
                s = np.uint64((r * rot_step) % 64)
                rot = (sh << s) | (sh >> np.uint64(64) - s) if s else sh
                pref = (rot >> np.uint64(64 - prefix_bits)).astype(np.int64)
                parts.append(
                    pa.table(
                        {
                            "doc_id": pa.array(doc),
                            "simhash": batch.column("simhash"),
                            "bucket": pa.array(pref + (r << np.int64(prefix_bits + 1))),
                        }
                    )
                )
        return pa.concat_tables(parts)

    bucketed = sigs.map_batches(bucket, batch_format="pyarrow")

    def pairs_block(g: pd.DataFrame) -> pd.DataFrame:
        """All in-bucket pairs for every prefix bucket of this coarse
        hash group in one sorted segmented pass (de-fanning: was one
        pandas invocation per bucket)."""
        from ..kernels.segments import segmented_arange
        from ..kernels.text import hamming64
        from .treeagg import clean_arrow

        g = g.sort_values(["bucket", "doc_id"], kind="stable")
        b = g["bucket"].to_numpy()
        ids = g["doc_id"].to_numpy()
        sh = g["simhash"].to_numpy()
        n = len(g)
        empty = pd.DataFrame(
            {"doc_a": [], "doc_b": [], "hamming": []}
        ).astype({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"})
        if n < 2:
            return clean_arrow(empty)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = b[1:] != b[:-1]
        start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        w = np.arange(n) - start
        if not int(w.sum()):
            return clean_arrow(empty)
        b_idx = np.repeat(np.arange(n), w)
        a_idx = np.repeat(start, w) + segmented_arange(w)
        d = hamming64(sh[a_idx], sh[b_idx])
        keep = d <= max_hamming
        return clean_arrow(
            pd.DataFrame(
                {
                    "doc_a": ids[a_idx][keep].astype(np.int64),
                    "doc_b": ids[b_idx][keep].astype(np.int64),
                    "hamming": d[keep].astype(np.int64),
                }
            )
        )

    cand = grouped_apply(bucketed, ["bucket"], pairs_block)

    # cross-rotation pair dedup: parallel grouped distinct (see
    # treeagg.grouped_distinct — pair sets are fact-sized)
    from .treeagg import grouped_distinct

    return grouped_distinct(cand, ["doc_a", "doc_b", "hamming"])


def phash_exact_dedup(image_files: list[str]):
    """Exact image dedup on the stored phash: groups of identical phash.

    keep-first == min(image_id) per phash (ids are zero-padded strings, so
    lexicographic min == the old sort-head) — an associative aggregate, so
    the combiner + tree merge replaces the per-group single-row map_groups
    (r2 verdict item #7)."""
    import ray.data

    from .treeagg import tree_group_agg

    ds = ray.data.read_parquet(image_files, columns=["image_id", "phash"])
    return tree_group_agg(
        ds, ["phash"],
        {"image_id_keep": ("image_id", "min"), "n_dups": (None, "count")},
    )


def ngram_jaccard_blocked(sf_dir: str, n: int = 3, block_chars: int = 32,
                          jac_e6_threshold: int = 300_000):
    """Blocked exact n-gram Jaccard near-dup: pairs within a
    (lang, source, length-bucket) block whose character-``n``-gram-set
    Jaccard clears the threshold.

    Classic blocking dedup (the LSH-free member of the near-dup family,
    beside MinHash-LSH / SimHash / embedding-cosine): one shuffle moves each
    doc to its block, all-pairs Jaccard is exact WITHIN the block, and the
    blocking key is the scale lever — block population is what the per-task
    cost is quadratic in, so at 10^12 docs you tighten ``block_chars`` (or
    add more key components) rather than grow the task. Emitted values are
    integer-scaled (inter, union, floor(inter*1e6/union)) so the DuckDB
    oracle reproduces them bit-for-bit with substring + list_intersect.

    Ref role: the reference dedups geometry payloads via exact set compare
    inside hash buckets (nusamai geometry.rs:86-122); this is the text
    analogue with a similarity threshold instead of equality.
    """
    import ray.data

    from ..sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang", "source", "n_chars"])

    # vectorized block key (lang|source|bucket) — pure-columnar Arrow, no
    # pandas round-trip in the stage that feeds the block exchange
    def add_block(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lb = batch.column("n_chars").to_numpy() // block_chars
        blk = pc.binary_join_element_wise(
            pc.cast(batch.column("lang"), pa.string()),
            pc.cast(batch.column("source"), pa.string()),
            pc.cast(pa.array(lb.astype(np.int64)), pa.string()),
            "|",
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text": batch.column("text"),
                "blk": blk,
            }
        )

    blocked = ds.map_batches(add_block, batch_format="pyarrow")

    empty = pd.DataFrame(
        {"doc_a": [], "doc_b": [], "inter": [], "uni": [], "jac_e6": []}
    ).astype("int64")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        k = len(ids)
        if k < 2:
            return empty
        # exact distinct-gram codes per doc: each char n-gram is packed
        # injectively into one int64 (codepoints < 2^21, n <= 3 fits 63
        # bits), so np.unique over codes == the Python set of substrings
        # bit-for-bit — no hashing, no collisions (the oracle is exact)
        codes_per_doc = _doc_gram_codes(list(g["text"]), n)
        sizes = np.array([len(c) for c in codes_per_doc], dtype=np.int64)
        allg = (
            np.concatenate(codes_per_doc)
            if len(codes_per_doc)
            else np.empty(0, np.int64)
        )
        uniq, inv = np.unique(allg, return_inverse=True)
        # docs x distinct-grams indicator; intersections for ALL pairs in
        # one BLAS matmul (float32 0/1 sums are exact below 2^24, and a
        # doc's gram count is far below that). Block population is the
        # documented quadratic-cost lever — k and D are both bounded by
        # the blocking key, so the matrix stays small per task.
        M = np.zeros((k, len(uniq)), dtype=np.float32)
        M[np.repeat(np.arange(k), sizes), inv] = 1.0
        inter_m = np.rint(M @ M.T).astype(np.int64)
        a_idx, b_idx = np.triu_indices(k, k=1)
        inter_np = inter_m[a_idx, b_idx]
        uni_np = sizes[a_idx] + sizes[b_idx] - inter_np
        jac = inter_np * 1_000_000 // np.maximum(uni_np, 1)
        m = (uni_np > 0) & (jac >= jac_e6_threshold)
        if not m.any():
            return empty
        return pd.DataFrame(
            {
                "doc_a": ids[a_idx[m]].astype(np.int64),
                "doc_b": ids[b_idx[m]].astype(np.int64),
                "inter": inter_np[m],
                "uni": uni_np[m],
                "jac_e6": jac[m],
            }
        )

    return blocked.groupby("blk").map_groups(pairs, batch_format="pandas")


def _doc_gram_codes(texts: list[str], n: int) -> list[np.ndarray]:
    """Per-doc sorted distinct char-``n``-gram codes, exactly equal (as
    sets) to ``{t[i:i+n]}``: codepoints via utf-32-le (Python str slicing
    is codepoint slicing), packed 21 bits each for n <= 3, else compared
    as codepoint rows (``np.unique(axis=0)`` -> dense row ids)."""
    if n <= 3:
        out = []
        for t in texts:
            cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(
                np.int64
            )
            w = len(cp) - n + 1
            if w <= 0:
                out.append(np.empty(0, np.int64))
                continue
            code = cp[:w].copy()
            for j in range(1, n):
                code |= cp[j : w + j] << (21 * j)
            out.append(np.unique(code))
        return out
    # general n: block-local dense ids from row-wise unique over the
    # (num_grams, n) codepoint window matrix — still exact, no hashing
    mats, doc_of = [], []
    for d, t in enumerate(texts):
        cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
        w = len(cp) - n + 1
        if w <= 0:
            continue
        win = np.lib.stride_tricks.sliding_window_view(cp, n)
        mats.append(win)
        doc_of.append(np.full(w, d, dtype=np.int64))
    if not mats:
        return [np.empty(0, np.int64) for _ in texts]
    allwin = np.concatenate(mats)
    _, inv = np.unique(allwin, axis=0, return_inverse=True)
    doc_all = np.concatenate(doc_of)
    return [
        np.unique(inv[doc_all == d]).astype(np.int64)
        for d in range(len(texts))
    ]


def phash_hamming_near_dup(image_files: list[str], max_hamming: int = 3,
                           n_bands: int = 4):
    """Image near-dup pairs by perceptual-hash Hamming distance, via
    multi-index hashing (the Norouzi-style banded exact-match scheme):
    split the 64-bit phash into ``n_bands`` equal bands; by pigeonhole any
    pair within Hamming distance ``n_bands - 1`` agrees EXACTLY on at
    least one band, so band-value buckets are a lossless candidate
    generator for ``max_hamming <= n_bands - 1`` — this operator is
    EXACT, not approximate. One bucket shuffle (each image fans out to
    ``n_bands`` (band, value) keys), vectorized in-bucket XOR-popcount
    verify, cross-band pair dedup through the combiner tree. The phash
    (8 bytes) is all that shuffles — never image bytes.

    Scale lever: band width. 4x16-bit bands give 65536 buckets per band
    (bucket population ~ n/65536 for random hashes); at larger radii you
    add bands (8x8-bit covers hamming<=7) and accept coarser buckets.

    Ref role: the reference dedups textures/materials by exact feature
    equality in an IndexSet (nusamai cesiumtiles/material.rs); this is
    the near-match generalization for image payloads.

    Returns (img_a, img_b, hamming) with img_* the integer suffix of
    image_id ("img_%012d"), img_a < img_b.
    """
    import pyarrow.compute as pc
    import ray.data

    from ..kernels.text import hamming64
    from .treeagg import tree_group_agg

    assert max_hamming <= n_bands - 1, "pigeonhole guarantee needs r < bands"
    band_bits = 64 // n_bands

    ds = ray.data.read_parquet(image_files, columns=["image_id", "phash"])

    def bands(batch: pa.Table) -> pa.Table:
        ph = batch.column("phash").to_numpy().astype(np.uint64)
        iid = (
            pc.cast(pc.utf8_slice_codeunits(batch.column("image_id"), 4, 99),
                    pa.int64())
            .to_numpy()
        )
        n = len(ph)
        mask = np.uint64((1 << band_bits) - 1)
        keys = np.empty(n * n_bands, dtype=np.int64)
        for b in range(n_bands):
            val = (ph >> np.uint64(b * band_bits)) & mask
            keys[b * n : (b + 1) * n] = (
                np.int64(b) << np.int64(band_bits)
            ) + val.astype(np.int64)
        return pa.table(
            {
                "img": pa.array(np.tile(iid, n_bands)),
                "phash": pa.array(np.tile(ph.astype(np.int64), n_bands)),
                "band_key": pa.array(keys),
            }
        )

    bucketed = ds.map_batches(bands, batch_format="pyarrow")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        """In-bucket verify with MULTIPLICITY COLLAPSE: dup-dense corpora
        repeat whole phashes (60k images / 5.7k distinct values at sf0.1,
        multiplicities up to ~1.9k), so enumerating MEMBER pairs is
        quadratic in bucket population while the distance only depends on
        the VALUE pair. Enumerate candidate pairs over the bucket's
        distinct (band_key, phash) value-groups — sum C(D,2), ~100x fewer
        hamming evaluations here — then expand each qualifying value pair
        to its members' cross product with vectorized gathers (the
        expansion is output-sized, the floor any pair enumerator pays).
        Same-value groups expand to their C(m,2) hamming-0 pairs. The
        emitted pair set is EXACTLY the member-pair enumeration's."""
        empty = pd.DataFrame(
            {"img_a": [], "img_b": [], "hamming": []}
        ).astype({"img_a": "int64", "img_b": "int64", "hamming": "int64"})
        if len(g) < 2:
            return empty
        from ..kernels.segments import segmented_arange

        g = g.sort_values(["band_key", "phash", "img"], kind="stable")
        ids = g["img"].to_numpy()
        ph = g["phash"].to_numpy().astype(np.uint64)
        key = g["band_key"].to_numpy()
        n = len(g)

        # value-group table: one row per distinct (band_key, phash)
        newv = np.empty(n, dtype=bool)
        newv[0] = True
        newv[1:] = (key[1:] != key[:-1]) | (ph[1:] != ph[:-1])
        vstart = np.flatnonzero(newv)
        vcount = np.diff(np.r_[vstart, n])
        vkey = key[vstart]
        vph = ph[vstart]
        nv = len(vstart)

        # candidate VALUE pairs within each band bucket
        newb = np.empty(nv, dtype=bool)
        newb[0] = True
        newb[1:] = vkey[1:] != vkey[:-1]
        bstart = np.maximum.accumulate(np.where(newb, np.arange(nv), 0))
        w = np.arange(nv) - bstart
        parts = []
        if int(w.sum()):
            b_idx = np.repeat(np.arange(nv), w)
            a_idx = np.repeat(bstart, w) + segmented_arange(w)
            d = hamming64(vph[a_idx], vph[b_idx])
            keepv = d <= max_hamming
            va, vb, dv = a_idx[keepv], b_idx[keepv], d[keepv]
            if len(va):
                # cross-product expansion members(va) x members(vb)
                ca, cb = vcount[va], vcount[vb]
                rep = ca * cb
                t_start = np.cumsum(rep) - rep
                pos = np.arange(int(rep.sum())) - np.repeat(t_start, rep)
                cb_r = np.repeat(cb, rep)
                ia = ids[np.repeat(vstart[va], rep) + pos // cb_r]
                ib = ids[np.repeat(vstart[vb], rep) + pos % cb_r]
                parts.append((ia, ib, np.repeat(dv, rep)))
        # same-value pairs: C(m, 2) hamming-0 pairs per value-group
        w0 = np.arange(n) - np.repeat(vstart, vcount)
        if int(w0.sum()):
            b0 = np.repeat(np.arange(n), w0)
            a0 = np.repeat(np.repeat(vstart, vcount), w0) + segmented_arange(w0)
            parts.append(
                (ids[a0], ids[b0], np.zeros(len(a0), dtype=np.int64))
            )
        if not parts:
            return empty
        ia = np.concatenate([p[0] for p in parts])
        ib = np.concatenate([p[1] for p in parts])
        dd = np.concatenate([p[2] for p in parts])
        lo, hi = np.minimum(ia, ib), np.maximum(ia, ib)
        return pd.DataFrame(
            {
                "img_a": lo.astype(np.int64),
                "img_b": hi.astype(np.int64),
                "hamming": dd.astype(np.int64),
            }
        ).drop_duplicates(["img_a", "img_b"])

    # keyed on band_key, so a band bucket never splits; each call resolves
    # ALL its band buckets in one vectorized segmented pass, not one pandas
    # call per bucket (the r2-verdict de-fanning pattern)
    cand = grouped_apply(bucketed, ["band_key"], verify)
    # cross-band dedup: the pair set is FACT-SIZED (dup-dense corpora can
    # emit tens of millions of pairs), so the distinct must be parallel —
    # the agg tree's fan-1 final merge would funnel it through one task
    from .treeagg import grouped_distinct

    return grouped_distinct(cand, ["img_a", "img_b", "hamming"])
