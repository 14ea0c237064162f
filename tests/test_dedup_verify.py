"""MinHash-LSH exact-Jaccard verify: the join-delivered fallback and the
broadcast path run one kernel, so their pairs and similarities agree bit
for bit."""

from __future__ import annotations

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _pairs(ds) -> pd.DataFrame:
    df = ds.to_pandas()[["doc_a", "doc_b", "jaccard"]]
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def test_shuffle_fallback_equals_broadcast(ray_session, monkeypatch):
    from plateau_gis_converter_ray.stages import joins
    from plateau_gis_converter_ray.stages.dedup import minhash_lsh_candidates

    broadcast = _pairs(minhash_lsh_candidates(SF, jaccard_threshold=0.5))
    # a zero broadcast limit forces the two-join delivery
    monkeypatch.setattr(joins, "DEFAULT_BROADCAST_LIMIT", 0)
    fallback = _pairs(minhash_lsh_candidates(SF, jaccard_threshold=0.5))

    assert len(broadcast) > 0
    assert (fallback["doc_a"].to_numpy() == broadcast["doc_a"].to_numpy()).all()
    assert (fallback["doc_b"].to_numpy() == broadcast["doc_b"].to_numpy()).all()
    # bit-equal, not approximately equal
    assert (
        fallback["jaccard"].to_numpy().view(np.uint64)
        == broadcast["jaccard"].to_numpy().view(np.uint64)
    ).all()


def test_verify_kernel_matches_scalar_jaccard():
    from plateau_gis_converter_ray.kernels.text import char_ngram_hashes, jaccard
    from plateau_gis_converter_ray.stages.dedup import _unpack_grams, _verify_pairs

    texts = ["the quick brown fox", "the quick brown cat", "", "abc", "abcd"]
    blobs = [np.unique(char_ngram_hashes(t)).tobytes() for t in texts]
    a = np.array([0, 0, 2, 3, 1], np.int64)
    b = np.array([1, 2, 2, 4, 4], np.int64)
    ga, la = _unpack_grams([blobs[i] for i in a])
    gb, lb = _unpack_grams([blobs[i] for i in b])
    got = _verify_pairs(a, b, ga, la, gb, lb, 0.0)
    want = [
        jaccard(char_ngram_hashes(texts[i]), char_ngram_hashes(texts[j]))
        for i, j in zip(a, b)
    ]
    assert got["jaccard"].tolist() == want
    assert _verify_pairs(a[:0], b[:0], ga[:0], la[:0], gb[:0], lb[:0], 0.0).empty
