"""Edit-distance similarity join via deletion-neighborhood blocking
(FastSS, Bocek et al. 2007): find all DISTINCT token pairs with
Levenshtein distance <= 1 without any all-pairs comparison.

Blocking is EXACT for ed <= 1: u and v are within one edit iff their
1-deletion neighborhoods (each word plus every single-character deletion)
intersect — so one variant-hash bucket exchange generates a candidate
superset, and a vectorized verify closes it. Sharing a variant does NOT
imply ed <= 1 (``ab``/``ba`` share ``a`` at ed 2), hence the verify.

Everything is char-matrix vectorized: deletions are column-slice
concatenations over a padded uint8 matrix, candidate pairs come from one
sort + run-length segmentation per bucket, and the ed check is a byte
compare (equal length -> Hamming <= 1; length diff 1 -> delete-at-first-
mismatch alignment via take_along_axis). No per-string Python in any
per-row path; the only loops are over the <= MAXLEN deletion positions.

Runs over the image table's caption tokens — the ``#<idx>`` tag space
gives a dense near-miss population, the natural-word vocabulary a sparse
one. Rows-only (the image table is outside the driver's SQL views);
pytest pins the pair set + distances equal to an O(V^2) DP brute force.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

MAXLEN = 16  # caption tokens are <= 9 bytes; padded matrix width


def _char_matrix(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, MAXLEN) uint8 matrix (zero-padded) + byte lengths.

    Assumes ASCII tokens <= MAXLEN-1 bytes — enforced ONCE at the vocab
    entry point (:func:`deletion_variants`); pair-expanded verify arrays
    re-use already-validated terms, so no per-pair guard runs here."""
    try:
        b = terms.astype(f"S{MAXLEN}")
    except UnicodeEncodeError as e:
        raise ValueError(
            "fuzzy join is byte-level ASCII; non-ASCII token in input"
        ) from e
    m = b.view(np.uint8).reshape(len(terms), MAXLEN)
    lens = (m != 0).sum(axis=1).astype(np.int64)
    return m, lens


def _decode(m: np.ndarray) -> np.ndarray:
    """(k, MAXLEN) uint8 rows -> unicode strings (trailing NULs dropped)."""
    return np.ascontiguousarray(m).view(f"S{MAXLEN}").ravel().astype(str)


def deletion_variants(terms: np.ndarray) -> pa.Table:
    """DISTINCT (variant, term) rows: the term itself plus every distinct
    1-deletion string.

    Distinctness is load-bearing: repeated characters make several
    deletion POSITIONS yield the same variant STRING ("aaab" del at
    0/1/2 -> "aab"), and with per-term distinct variants every ed<=1
    pair shares EXACTLY ONE variant string (substitution at position i:
    only the delete-at-i variant matches; insertion: only the shorter
    word itself; the shared string's length pins which case). That
    uniqueness lets the join emit each pair from exactly one bucket —
    no cross-bucket dedup exchange (see :func:`fuzzy_token_join`).

    ``astype("S16")`` would TRUNCATE longer tokens silently (wrong pairs,
    no error), so overlength vocabulary is rejected loudly here — the one
    vocab-scale entry point; a wider corpus raises MAXLEN."""
    if len(terms) and max(
        len(t.encode("utf-8")) for t in terms
    ) > MAXLEN - 1:
        raise ValueError(
            f"token longer than {MAXLEN - 1} BYTES; raise fuzzy.MAXLEN"
        )
    m, lens = _char_matrix(terms)
    out_v = [terms.astype(str)]
    out_t = [terms.astype(str)]
    for d in range(int(lens.max()) if len(lens) else 0):
        rows = lens > d
        if not rows.any():
            break
        sub = m[rows]
        var = np.concatenate(
            [sub[:, :d], sub[:, d + 1:],
             np.zeros((len(sub), 1), dtype=np.uint8)],
            axis=1,
        )
        out_v.append(_decode(var))
        out_t.append(terms[rows].astype(str))
    from .treeagg import clean_arrow

    df = pd.DataFrame(
        {
            "variant": np.concatenate(out_v),
            "term": np.concatenate(out_t),
        }
    ).drop_duplicates()
    return clean_arrow(df)


def _verify_ed1(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Vectorized: ed(ta[i], tb[i]) <= 1 for |len diff| <= 1 pairs."""
    a, la = _char_matrix(ta)
    b, lb = _char_matrix(tb)
    # orient so a is the longer side
    swap = lb > la
    a[swap], b[swap] = b[swap], a[swap].copy()
    la[swap], lb[swap] = lb[swap], la[swap].copy()
    diff = la - lb
    ok = np.zeros(len(ta), dtype=bool)
    same = diff == 0
    if same.any():
        ok[same] = (a[same] != b[same]).sum(axis=1) <= 1
    one = diff == 1
    if one.any():
        aa, bb = a[one], b[one]
        mism = aa != bb
        has = mism.any(axis=1)
        lcp = np.where(has, mism.argmax(axis=1), lb[one])
        idx = np.arange(MAXLEN)[None, :]
        take = np.minimum(idx + (idx >= lcp[:, None]), MAXLEN - 1)
        a_del = np.take_along_axis(aa, take, axis=1)
        a_del[:, -1] = 0  # last slot after shift is padding by construction
        ok[one] = (a_del == bb).all(axis=1)
    return ok


def fuzzy_token_join(sf: float):
    """All caption-token pairs at Levenshtein distance exactly 1
    (distinct tokens, so ed 0 is impossible). Output: (term_a, term_b)
    with term_a < term_b.

    NO cross-bucket dedup exchange: with per-term DISTINCT variants
    (:func:`deletion_variants`), every ed<=1 pair shares exactly one
    variant string, so it is generated in exactly one bucket and at most
    once inside it — the verified pair stream IS the answer. The final
    exchange this removes carried the full pair set (1.4M string pairs
    at sf0.1); pytest still pins the result equal to the O(V^2) brute."""
    from ..sources.images import ensure_image_table, read_images
    from .treeagg import clean_arrow, grouped_apply, tree_group_agg

    path = ensure_image_table(sf)
    ds = read_images(path, columns=["caption"])

    def tokens(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(
            pc.cast(batch.column("caption"), pa.string()), " "
        )
        flat = pc.list_flatten(toks)
        return pa.table({"term": flat}).filter(pc.not_equal(flat, ""))

    # tree_group_agg ends at ONE block (its merge tree's last level); the
    # whole fanout -> sort -> verify chain would inherit that and run as
    # a single serial task. Re-split the tiny vocab so the deletion
    # fan-out and the per-bucket verify parallelize (32 ~2k-row blocks).
    vocab = tree_group_agg(
        ds.map_batches(tokens, batch_format="pyarrow"),
        ["term"], {"n": (None, "count")},
    ).repartition(32)

    def fanout(batch: pa.Table) -> pa.Table:
        terms = np.asarray(batch.column("term").to_pylist(), dtype=object)
        return deletion_variants(terms)

    fanned = vocab.map_batches(fanout, batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["variant", "term"], kind="stable")
        v = g["variant"].to_numpy(dtype=object)
        t = g["term"].to_numpy(dtype=object)
        # run-length segmentation over equal variants -> in-run pairs
        starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
        counts = np.diff(np.r_[starts, len(v)])
        ia, ib = [], []
        for width in range(1, int(counts.max()) if len(counts) else 0):
            has = counts > width
            base = starts[has]
            span = counts[has] - width
            left = np.repeat(base, span) + _ramp(span)
            ia.append(left)
            ib.append(left + width)
        if not ia:
            return clean_arrow(
                pd.DataFrame({"term_a": pd.Series(dtype=str),
                              "term_b": pd.Series(dtype=str)})
            )
        ia = np.concatenate(ia)
        ib = np.concatenate(ib)
        ta, tb = t[ia], t[ib]
        keep = ta != tb
        ta, tb = ta[keep], tb[keep]
        ok = _verify_ed1(ta, tb)
        ta, tb = ta[ok], tb[ok]
        # exactly-one-shared-variant (deletion_variants docstring) ->
        # each verified pair occurs once in one bucket; no dedup needed
        lo = np.minimum(ta, tb)
        hi = np.maximum(ta, tb)
        out = pd.DataFrame({"term_a": lo, "term_b": hi})
        return clean_arrow(out.astype({"term_a": str, "term_b": str}))

    return grouped_apply(fanned, ["variant"], bucket_pairs)


from ..kernels.segments import segmented_arange as _ramp  # noqa: E402


def brute_ed1_pairs(sf: float) -> pd.DataFrame:
    """O(V^2) DP Levenshtein twin over the same vocabulary (test oracle)."""
    import glob

    import pyarrow.parquet as pq

    from ..sources.images import ensure_image_table

    path = ensure_image_table(sf)
    caps = pa.concat_tables(
        [pq.read_table(f, columns=["caption"])
         for f in sorted(glob.glob(path + "/*.parquet"))]
    )
    vocab = sorted(
        {t for c in caps.column("caption").to_pylist() for t in c.split(" ")
         if t}
    )

    def ed(u: str, v: str) -> int:
        if abs(len(u) - len(v)) > 1:
            return 2
        prev = list(range(len(v) + 1))
        for i, cu in enumerate(u, 1):
            cur = [i]
            for j, cv in enumerate(v, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + (cu != cv)))
            prev = cur
        return prev[-1]

    out = []
    for i in range(len(vocab)):
        for j in range(i + 1, len(vocab)):
            if ed(vocab[i], vocab[j]) <= 1:
                out.append((vocab[i], vocab[j]))
    return pd.DataFrame(out, columns=["term_a", "term_b"])
