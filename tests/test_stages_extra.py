"""Stage tests: IVF ANN recall vs brute force, codelist resolver,
projection stage chain, salted shuffle keys."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def test_ivf_recall_vs_brute(ray_session):
    from plateau_gis_converter_ray.stages.knn import brute_self_knn_pd, ivf_self_knn

    ivf = ivf_self_knn(SF).to_pandas().sort_values("vec_id").reset_index(drop=True)
    brute = brute_self_knn_pd(SF).sort_values("vec_id").reset_index(drop=True)
    assert len(ivf) == len(brute)
    # recall@1 of the IVF approximation must be high on clustered data
    recall = (ivf["ann_id"].to_numpy() == brute["nn_id"].to_numpy()).mean()
    assert recall >= 0.9, recall
    # approximate distances can never beat the exact minimum
    assert (ivf["dist2_q"].to_numpy() >= brute["dist2_q"].to_numpy()).all()


def test_code_resolver():
    from plateau_gis_converter_ray.stages.codelist import CodeResolver

    r = CodeResolver()
    df = pd.DataFrame({"lang": ["en", "zh", "xx"]})
    out = r(df)
    assert out["lang_label"].tolist() == ["English", "Chinese", "xx"]


def test_projection_stage_chain():
    import pyarrow as pa

    from plateau_gis_converter_ray.kernels.projection import (
        GeoidGrid,
        jpr_zone_projection,
    )
    from plateau_gis_converter_ray.stages.projection import ProjectionStage

    batch = pa.table({"lng": [139.8, 139.9], "lat": [35.9, 36.1]})
    # jpr output equals kernel-composed chain
    st = ProjectionStage(output="jpr", jpr_zone=9)
    out = st(batch)
    g = GeoidGrid()
    lng = np.array([139.8, 139.9])
    lat = np.array([35.9, 36.1])
    _, _, h = g.jgd2011_to_wgs84(lng, lat, np.zeros(2))
    x, y, _ = jpr_zone_projection(9).forward(lng, lat, h)
    np.testing.assert_array_equal(out.column("jpr_x").to_numpy(), x)
    np.testing.assert_array_equal(out.column("jpr_y").to_numpy(), y)
    # ecef output has 3 coordinate columns
    out2 = ProjectionStage(output="ecef")(batch)
    assert {"ecef_x", "ecef_y", "ecef_z"} <= set(out2.column_names)
    # swap_axes: feeding (lat, lng) named as (lng, lat) recovers the same
    swapped = pa.table({"lng": [35.9, 36.1], "lat": [139.8, 139.9]})
    out3 = ProjectionStage(output="jpr", jpr_zone=9, swap_axes=True)(swapped)
    np.testing.assert_array_equal(out3.column("jpr_x").to_numpy(), x)
    with pytest.raises(ValueError):
        ProjectionStage(output="nope")


def test_salt_column():
    from plateau_gis_converter_ray.stages.tiles import salt_column

    keys = np.array([5, 5, 5, 7, 9, 5], dtype=np.int64)
    hot = np.array([5], dtype=np.int64)
    row_idx = np.arange(6)
    salt = salt_column(keys, hot, n_salts=2, row_idx=row_idx)
    assert (salt[keys != 5] == 0).all()
    assert set(salt[keys == 5]) == {0, 1}


def test_raster_vector_clip_coverage():
    """Controlled geometry: a polygon covering the full footprint -> 100%
    coverage and masked mean == full-image mean; a distant polygon -> null."""
    import pyarrow as pa

    from plateau_gis_converter_ray.kernels.imagecodec import (
        decode_image,
        encode_image,
        synth_pixels,
    )
    from plateau_gis_converter_ray.sources.images import make_rows
    from plateau_gis_converter_ray.stages.geocode import geocode_hash, image_row_index
    from plateau_gis_converter_ray.stages.raster import RasterVectorClip, footprint_of
    from plateau_gis_converter_ray.pipelines.flagship import _extent_m

    batch = make_rows(np.arange(4)).select(["image_id", "bytes", "w", "h", "fmt"])
    idx = image_row_index(batch.column("image_id"))
    lng, lat = geocode_hash(idx)
    ext = _extent_m(idx)
    w0, e0, s0, n0 = footprint_of(lng, lat, ext)

    # polygon = huge box containing footprint 0 entirely
    big = np.array(
        [[w0[0] - 1, s0[0] - 1], [e0[0] + 1, s0[0] - 1],
         [e0[0] + 1, n0[0] + 1], [w0[0] - 1, n0[0] + 1]]
    )
    far = big + 500.0  # way outside
    st = RasterVectorClip([
        {"id": "cover", "rings": [big]},
        {"id": "far", "rings": [far]},
    ])
    out = st(batch)
    row0 = {c: out.column(c)[0].as_py() for c in out.column_names}
    assert row0["muni_id"] == "cover"
    assert row0["covered_pixels"] == row0["total_pixels"]
    px = synth_pixels(0, int(batch.column("w")[0].as_py()), int(batch.column("h")[0].as_py()))
    import numpy as _np
    # exact integer-rational mean: round(100 * sum(channels) / (3 * pixels))
    w_, h_ = int(batch.column("w")[0].as_py()), int(batch.column("h")[0].as_py())
    expect = int(_np.round(
        100.0 * px.astype(_np.int64).sum() / (3.0 * w_ * h_)
    ))
    assert row0["masked_mean_c"] == expect


def test_combiner_neutralizes_hotspot_skew():
    """The per-batch partial aggregate bounds shuffle rows per tile to the
    batch count — the Tokyo-bay hotspot (~30% of points in a handful of
    tiles) cannot create a hot shuffle key (SURVEY §7.4 skew strategy)."""
    import pyarrow as pa

    from plateau_gis_converter_ray.pipelines.flagship import (
        _fanout_stage,
        _partial_tile_agg,
    )
    from plateau_gis_converter_ray.stages.geocode import add_lnglat_hash
    from plateau_gis_converter_ray.stages.spatial_join import PIPAssign
    from plateau_gis_converter_ray.sources.municipalities import municipality_polygons

    ids = pa.array([f"img_{i:012d}" for i in range(5000)])
    batch = pa.table({"image_id": ids})
    batch = add_lnglat_hash(batch)
    batch = PIPAssign(municipality_polygons())(batch)
    fanned = _fanout_stage(batch)
    partial = _partial_tile_agg(fanned)
    # hotspot check: some tile holds a large share of raw assignments...
    counts = partial.column("cnt").to_numpy()
    assert counts.max() > len(fanned) * 0.02
    # ...but the exchange sees one row per (tile, muni) per batch; the hot
    # low-zoom tiles compress hard (max_zoom singleton tiles dominate counts)
    assert len(partial) < len(fanned)
    import numpy as np
    zoom_f = fanned.column("zoom").to_numpy()
    zoom_p = partial.column("zoom").to_numpy()
    assert (zoom_p <= 8).sum() < (zoom_f <= 8).sum() / 5
    import numpy as np
    key = [
        (t, m)
        for t, m in zip(
            partial.column("tile_id").to_pylist(), partial.column("muni_id").to_pylist()
        )
    ]
    assert len(set(key)) == len(key)  # unique keys within the combiner output
    # combiner is lossless: sums equal the raw fan-out count
    assert int(counts.sum()) == len(fanned)


def test_stream_bucket_actors(ray_session):
    """Incremental bucket-actor state equals the batch recomputation, and
    per-key arrival order is certified by the actors themselves."""
    import pandas as pd

    from plateau_gis_converter_ray.stages.streaming import stream_running_totals

    got = stream_running_totals("/root/testdata/sf0.001", n_buckets=3)
    # fallback path: no pre-bucketed layout, vectorized mask over the read
    got_mask = stream_running_totals(
        "/root/testdata/sf0.001", n_buckets=3, prebucket=False
    )
    assert got.equals(got_mask)
    want = pd.read_parquet("/root/testdata/sf0.001/events.parquet")
    want["value_c"] = (want["value"] * 100).round().astype("int64")
    ref = (
        want.groupby("user_id", as_index=False)
        .agg(total_c=("value_c", "sum"), n=("value_c", "size"))
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert got.equals(ref[["user_id", "total_c", "n"]])


def test_simhash_multirotation_superset(ray_session):
    """Multi-rotation SimHash LSH finds at least the single-table pairs,
    and every reported pair satisfies the Hamming bound."""
    from plateau_gis_converter_ray.stages.dedup import simhash_near_dup

    single = simhash_near_dup(SF, max_hamming=8, n_rotations=1).to_pandas()
    multi = simhash_near_dup(SF, max_hamming=8, n_rotations=4).to_pandas()
    s1 = set(zip(single["doc_a"], single["doc_b"]))
    s4 = set(zip(multi["doc_a"], multi["doc_b"]))
    assert s1 <= s4
    assert len(s4) >= len(s1)
    assert (multi["hamming"] <= 8).all()


def test_codelist_xml_roundtrip_and_lazy_cache(tmp_path):
    import pandas as pd

    from plateau_gis_converter_ray.stages.codelist import (
        XmlCodeResolver,
        parse_codelist_xml,
        write_codelist_xml,
    )

    path = str(tmp_path / "usage.xml")
    write_codelist_xml(path, {"401": "Residential", "402": "Office <&>"})
    assert parse_codelist_xml(path) == {"401": "Residential",
                                        "402": "Office <&>"}
    r = XmlCodeResolver(path, code_col="code", out_col="label")
    out = r(pd.DataFrame({"code": ["401", "402", "999"]}))
    # unknown codes pass through (reference keeps the raw code on miss)
    assert out["label"].tolist() == ["Residential", "Office <&>", "999"]
    # parsed once, cached by path for the actor's lifetime
    assert path in r._cache
    cached = r._cache[path]
    r(pd.DataFrame({"code": ["401"]}))
    assert r._cache[path] is cached


def test_audio_features_stage(ray_session):
    from plateau_gis_converter_ray.stages.av import audio_features_ds

    out = audio_features_ds(32).to_pandas().sort_values("clip_id")
    assert len(out) == 32
    assert (out["rms_q"] > 0).all() and (out["peak"] <= 1 << 15).all()
    # deterministic stub decode: rerun equals
    out2 = audio_features_ds(32).to_pandas().sort_values("clip_id")
    assert out.reset_index(drop=True).equals(out2.reset_index(drop=True))


def test_video_frame_sample_stage(ray_session):
    import numpy as np

    from plateau_gis_converter_ray.stages.av import video_frame_sample_ds

    out = video_frame_sample_ds(16, stride=10).to_pandas()
    # 1 -> N fanout: every 10th frame of each clip's 30..120 frames
    g = out.groupby("video_id").size()
    assert len(g) == 16
    ids = np.arange(16)
    expected = (30 + (ids % 4) * 30 + 9) // 10
    assert (g.sort_index().to_numpy() == expected).all()
    assert out["mean_luma_c"].between(0, 25500).all()


def test_codelist_xml_reference_fixture(tmp_path):
    """codelist/xml.rs:162-215's own example: CJK labels, unsupported tags
    ignored, dictionary-level gml:name not treated as a code."""
    from plateau_gis_converter_ray.stages.codelist import parse_codelist_xml

    xml = """<?xml version="1.0" encoding="UTF-8"?>
<gml:Dictionary xmlns:gml="http://www.opengis.net/gml" gml:id="xxxxx">
  <gml:name>Test_test</gml:name>
  <gml:dictionaryEntry><gml:Definition gml:id="id1">
    <gml:description>業務施設</gml:description><gml:name>401</gml:name>
    <gml:unsupportedTag>401</gml:unsupportedTag>
  </gml:Definition></gml:dictionaryEntry>
  <gml:dictionaryEntry><gml:Definition gml:id="id2">
    <gml:description>商業施設</gml:description><gml:name>402</gml:name>
  </gml:Definition></gml:dictionaryEntry>
  <gml:dictionaryEntry><gml:Definition gml:id="id5">
    <gml:description>住宅</gml:description><gml:name>411</gml:name>
  </gml:Definition></gml:dictionaryEntry>
  <gml:dictionaryEntry><gml:Definition gml:id="id17">
    <gml:description>その他</gml:description><gml:name>454</gml:name>
  </gml:Definition></gml:dictionaryEntry>
  <gml:dictionaryEntry><gml:Definition gml:id="id18">
    <gml:description>不明</gml:description><gml:name>461</gml:name>
  </gml:Definition></gml:dictionaryEntry>
</gml:Dictionary>"""
    p = tmp_path / "usage.xml"
    p.write_text(xml, encoding="utf-8")
    d = parse_codelist_xml(str(p))
    assert len(d) == 5
    assert d["401"] == "業務施設"
    assert d["454"] == "その他"
    assert d["461"] == "不明"
    assert "123" not in d and "不明" not in d and "業務施設" not in d


def test_embed_lsh_near_dup_recall_and_soundness(ray_session):
    """Cosine-LSH near-dup on the planted-duplicate corpus: every reported
    pair passes the exact distance check (soundness) and recall vs the
    exact triangle self-join is >= 0.9."""
    import numpy as np

    from plateau_gis_converter_ray.stages.knn import (
        block_pair_join,
        embedding_lsh_near_dup,
        planted_near_dup_vectors,
    )

    thr = 2000

    def close_pairs(qa, ia, qb, ib):
        a_sq = (qa * qa).sum(axis=1)
        b_sq = (qb * qb).sum(axis=1)
        d2 = a_sq[:, None] - 2 * (qa @ qb.T) + b_sq[None, :]
        hit = (d2 < thr) & (ia[:, None] != ib[None, :])
        sa, sb = np.nonzero(hit)
        return sa, sb, d2[sa, sb]

    exact = block_pair_join(
        planted_near_dup_vectors(500), close_pairs, "dist2_q"
    ).to_pandas()
    lsh = embedding_lsh_near_dup(planted_near_dup_vectors(500), thr).to_pandas()
    se = set(zip(exact["vec_a"], exact["vec_b"]))
    sl = set(zip(lsh["vec_a"], lsh["vec_b"]))
    assert len(se) == 50  # one planted pair per 10 rows
    assert sl <= se  # soundness: exact verify inside the bucket
    assert len(se & sl) / len(se) >= 0.9


def test_block_pair_join_refuses_above_pair_budget(ray_session, monkeypatch):
    """The quadratic default of embed_near_dup / embed_near_dup_cosine is
    size-gated from metadata before anything executes: the default budget
    admits sf0.1 (2,000 embeddings, 1,999,000 pairs), and a budget one
    below sf0.001's 124,750 pairs makes both callers raise."""
    from __ray_entry__ import queries

    import plateau_gis_converter_ray.stages.knn as knn

    qs = queries()
    names = ("embed_near_dup", "embed_near_dup_cosine")
    for name in names:
        qs[name]("/root/testdata/sf0.1")  # builds the plan, runs nothing
    monkeypatch.setattr(knn, "PAIR_BUDGET", 124_749)
    for name in names:
        with pytest.raises(ValueError, match="embedding_lsh_near_dup"):
            qs[name](SF)


def test_ngram_jaccard_blocked(ray_session):
    """Blocked n-gram Jaccard near-dup: every emitted pair's integer-scaled
    values match a direct per-pair recomputation, pairs are canonical
    (doc_a < doc_b), and the planted near-dups at sf0.001 are found."""
    import duckdb
    import numpy as np

    from plateau_gis_converter_ray.stages.dedup import ngram_jaccard_blocked

    sf_dir = "/root/testdata/sf0.001"
    df = ngram_jaccard_blocked(sf_dir).to_pandas()
    assert len(df) > 0
    assert (df["doc_a"] < df["doc_b"]).all()
    assert (df["jac_e6"] >= 300_000).all()
    assert (df["jac_e6"] == df["inter"] * 1_000_000 // df["uni"]).all()

    con = duckdb.connect()
    docs = con.sql(
        f"SELECT doc_id, text FROM read_parquet('{sf_dir}/documents.parquet')"
    ).df()
    texts = dict(zip(docs["doc_id"], docs["text"]))
    for row in df.sample(min(len(df), 20), random_state=0).itertuples():
        ga = {texts[row.doc_a][i : i + 3] for i in range(len(texts[row.doc_a]) - 2)}
        gb = {texts[row.doc_b][i : i + 3] for i in range(len(texts[row.doc_b]) - 2)}
        inter = len(ga & gb)
        assert inter == row.inter
        assert len(ga | gb) == row.uni


def test_image_feature_knn_chain(ray_session):
    """decode -> feature -> cosine top-k chain: each query image ranks
    itself first with the exact self-similarity key |v|^2 * 1e4, ranks are
    dense 1..3, and the pipeline is deterministic across runs."""
    import numpy as np

    from plateau_gis_converter_ray.stages.knn import image_feature_knn

    df = image_feature_knn(0.001).to_pandas()
    assert set(df["rank"]) == {1, 2, 3}
    n_images = df["image_id"].nunique()
    assert len(df) == 3 * n_images

    qids = set(df["query_id"])
    assert len(qids) == 8
    top1 = df[df["rank"] == 1].set_index("image_id")
    for qid in qids:
        row = top1.loc[qid]
        # self-match: cos == 1 exactly -> key == |v|^2 * 1e4. The corpus
        # plants duplicate images, so another query with IDENTICAL features
        # may take rank 1 by column order — but only at the SAME key.
        assert row["cos_key"] > 0
        self_rows = df[(df["image_id"] == qid) & (df["query_id"] == qid)]
        assert len(self_rows) == 1
        assert int(self_rows["cos_key"].iloc[0]) == int(row["cos_key"])

    df2 = image_feature_knn(0.001).to_pandas()
    a = df.sort_values(["image_id", "rank"]).reset_index(drop=True)
    b = df2.sort_values(["image_id", "rank"]).reset_index(drop=True)
    assert a.equals(b)


def test_bloom_filter_properties(ray_session):
    """Bloom kernel: zero false negatives over the build set, bounded FPR
    over disjoint probes, and the distributed OR-reduce build equals a
    single-pass local build."""
    import numpy as np
    import ray.data

    from plateau_gis_converter_ray.stages.bloom import (
        _partial_bits,
        bloom_build,
        bloom_contains,
    )

    rng_keys = np.arange(10_000, dtype=np.int64) * 7919 + 13
    m_bits, k = 1 << 17, 4

    local = _partial_bits(rng_keys, m_bits, k)
    ds = ray.data.from_pandas(
        __import__("pandas").DataFrame({"key": rng_keys})
    ).repartition(8)
    distributed = bloom_build(ds, "key", m_bits=m_bits, k=k)
    assert np.array_equal(local, distributed)

    # no false negatives
    assert bloom_contains(distributed, rng_keys, k).all()

    # FPR on 10k disjoint keys: n/m = 10k/131k, k=4 -> theoretical ~0.55%;
    # allow generous slack
    probe = np.arange(10_000, dtype=np.int64) * 7919 + 14
    fpr = bloom_contains(distributed, probe, k).mean()
    assert fpr < 0.03


def test_bloom_prune_keeps_join_result(ray_session):
    """BloomPrune never drops a row whose key is in the build side."""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data

    from plateau_gis_converter_ray.stages.bloom import (
        BloomPrune,
        bloom_build,
    )

    build = pd.DataFrame({"key": np.arange(0, 1000, 3, dtype=np.int64)})
    probe = pd.DataFrame({"key": np.arange(0, 1000, dtype=np.int64)})
    bits = bloom_build(ray.data.from_pandas(build), "key", m_bits=1 << 14)
    pruned = (
        ray.data.from_pandas(probe)
        .map_batches(BloomPrune(ray.put(bits), "key"), batch_format="pyarrow")
        .to_pandas()
    )
    kept = set(pruned["key"])
    assert set(build["key"]).issubset(kept)  # no false negatives
    assert len(kept) < len(probe)  # actually pruned something


def test_hll_sketch(ray_session):
    """HLL: distributed register-max merge equals the single-pass build,
    the merge is the max of partials, and the estimate is within 4% of
    exact cardinality at two scales."""
    import numpy as np
    import pandas as pd
    import ray.data

    from plateau_gis_converter_ray.stages.sketch import (
        approx_distinct,
        hll_estimate,
        hll_partial,
    )

    for n in (1_000, 50_000):
        keys = np.arange(n, dtype=np.int64) * 2654435761 + 7
        local = hll_estimate(hll_partial(keys))
        assert abs(local - n) / n < 0.04
        ds = ray.data.from_pandas(pd.DataFrame({"k": keys})).repartition(8)
        dist = approx_distinct(ds, "k").to_pandas()["approx_distinct"].iloc[0]
        assert dist == round(local)


def test_cm_sketch_superset_guarantee():
    """Count-Min never undercounts, so the threshold candidate set is a
    superset of the true heavy hitters at ANY threshold."""
    import numpy as np

    from plateau_gis_converter_ray.stages.sketch import cm_partial, cm_query

    rng = np.random.default_rng(7)
    keys = rng.zipf(1.3, 50_000).astype(np.int64)
    uniq, true = np.unique(keys, return_counts=True)
    cm = cm_partial(keys, 2048, 4)
    est = cm_query(cm, uniq)
    assert (est >= true).all()
    for t in (10, 100, 1000):
        assert set(uniq[true >= t]) <= set(uniq[est >= t])


def test_stream_windowed_watermark(ray_session):
    """Event-time windows + watermark + allowed lateness:
    (1) conservation — emitted + flushed + late_dropped == total rows;
    (2) with unbounded lateness nothing drops and window totals equal the
        exact batch tumbling aggregate;
    (3) with the default (tight) lateness some events genuinely drop and
        every finalized window's end+lateness is at or below the final
        watermark by construction."""
    import numpy as np
    import pandas as pd

    from plateau_gis_converter_ray.stages.streaming import stream_windowed_counts

    sf = "/root/testdata/sf0.001"
    total = len(pd.read_parquet(sf + "/events.parquet"))

    # (2) unbounded lateness == exact batch recompute
    df = stream_windowed_counts(sf, lateness_s=10**9)
    drops = df[df["win_start_us"] == -1]["n"].sum()
    assert drops == 0
    win = df[df["win_start_us"] >= 0]
    assert win["n"].sum() == total

    ev = pd.read_parquet(sf + "/events.parquet")
    win_us = 86400 * 10**6
    ev["win"] = (ev["ts"].astype("int64") // win_us) * win_us
    ev["value_c"] = (ev["value"] * 100).round().astype("int64")
    ref = ev.groupby("win", as_index=False).agg(
        n=("value_c", "size"), sum_value_c=("value_c", "sum")
    )
    got = win.groupby("win_start_us", as_index=False).agg(
        n=("n", "sum"), sum_value_c=("sum_value_c", "sum")
    )
    assert got["n"].tolist() == ref["n"].tolist()
    assert got["sum_value_c"].tolist() == ref["sum_value_c"].tolist()

    # (1)+(3) tight lateness: conservation holds and late events exist
    df2 = stream_windowed_counts(sf)  # delay_max 2d >> skew+lateness 2h
    drops2 = int(df2[df2["win_start_us"] == -1]["n"].sum())
    kept2 = int(df2[df2["win_start_us"] >= 0]["n"].sum())
    assert kept2 + drops2 == total
    assert drops2 > 0
    # determinism
    df3 = stream_windowed_counts(sf)
    assert df2.equals(df3)


def test_contamination_invariants(ray_session):
    from plateau_gis_converter_ray.pipelines.queries import q_contamination

    df = q_contamination(SF).to_pandas()
    assert len(df) > 0
    # an eval doc's grams are by definition a subset of the eval set
    ev = df[df["is_eval"] == 1]
    assert len(ev) > 0
    assert (ev["n_hit"].to_numpy() == ev["n_grams"].to_numpy()).all()
    assert (ev["contam_e6"].to_numpy() == 1_000_000).all()
    # hits can never exceed the doc's own distinct grams
    assert (df["n_hit"].to_numpy() <= df["n_grams"].to_numpy()).all()
    assert (df["n_grams"].to_numpy() > 0).all()


def test_sequence_pack_is_a_packing(ray_session):
    from plateau_gis_converter_ray.pipelines.queries import q_sequence_pack

    df = (
        q_sequence_pack(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(df) > 0
    n = df["n_tok"].to_numpy()
    s = df["start_off"].to_numpy()
    # contiguous disjoint coverage of the concatenated token stream
    assert s[0] == 0
    assert (s[1:] == s[:-1] + n[:-1]).all()
    # sequence spans follow from the offsets
    assert (df["seq_first"].to_numpy() == s // 256).all()
    assert (df["seq_last"].to_numpy() == (s + n - 1) // 256).all()
    assert (df["n_seqs"].to_numpy() >= 1).all()


def test_corpus_dedup_partition(ray_session):
    """corpus_dedup assigns every doc exactly once; kept == (doc is its
    cluster's min id); clustered docs agree with dup_clusters' labels."""
    from plateau_gis_converter_ray.pipelines.queries import (
        q_corpus_dedup,
        q_dup_clusters,
    )

    df = q_corpus_dedup(SF).to_pandas()
    comp = q_dup_clusters(SF).to_pandas()

    assert df["doc_id"].is_unique and len(df) > 0
    assert (df["kept"] == (df["doc_id"] == df["rep"]).astype(int)).all()
    # every representative keeps itself
    reps = set(df["rep"])
    kept = set(df.loc[df["kept"] == 1, "doc_id"])
    assert reps == kept
    # clustered docs carry exactly the CC label; unclustered docs are
    # their own rep
    m = df.merge(comp, on="doc_id", how="left")
    clustered = m["comp"].notna()
    assert (m.loc[clustered, "rep"] == m.loc[clustered, "comp"]).all()
    assert (m.loc[~clustered, "rep"] == m.loc[~clustered, "doc_id"]).all()


def test_dup_ngram_frac_vs_local(ray_session):
    """Distributed dup-ngram fraction == a local pandas brute force."""
    import pyarrow.parquet as pq

    from plateau_gis_converter_ray.pipelines.queries import q_dup_ngram_frac

    df = (
        q_dup_ngram_frac(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    rows = []
    grams_by_doc = {}
    for did, text in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
        w = [x for x in text.split(" ") if x]
        g = {" ".join(w[i : i + 3]) for i in range(len(w) - 2)}
        if g:
            grams_by_doc[did] = g
    from collections import Counter

    nd = Counter()
    for g in grams_by_doc.values():
        nd.update(g)
    for did, g in sorted(grams_by_doc.items()):
        n_dup = sum(1 for x in g if nd[x] >= 2)
        rows.append(
            {
                "doc_id": did,
                "n_grams": len(g),
                "n_dup": n_dup,
                "dup_e6": n_dup * 1_000_000 // len(g),
            }
        )
    exp = pd.DataFrame(rows)
    pd.testing.assert_frame_equal(
        df[["doc_id", "n_grams", "n_dup", "dup_e6"]].astype("int64"),
        exp.astype("int64"),
    )


def test_bm25_vs_local_brute(ray_session):
    """Distributed BM25 top-10 == a local single-process recompute with the
    same integer-floored per-term contributions."""
    import math
    from collections import Counter

    import pyarrow.parquet as pq

    from plateau_gis_converter_ray.pipelines.queries import q_bm25_search

    got = (
        q_bm25_search(SF)
        .to_pandas()
        .sort_values(["qid", "rk"])
        .reset_index(drop=True)
    )

    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    docs = dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))
    tf = {d: Counter(x for x in s.split(" ") if x) for d, s in docs.items()}
    tf = {d: c for d, c in tf.items() if c}
    dl = {d: sum(c.values()) for d, c in tf.items()}
    n_docs, tot = len(tf), sum(dl.values())
    exp_rows = []
    for qid in (1, 2, 3, 5):
        terms = sorted({w for w in docs[qid].split(" ")[:8] if w})
        scores = Counter()
        for term in terms:
            dfq = sum(1 for c in tf.values() if term in c)
            if not dfq:
                continue
            c_t = 1000000.0 * math.log(
                (float(n_docs) - float(dfq) + 0.5) / (float(dfq) + 0.5) + 1.0
            )
            for d, c in tf.items():
                if term in c:
                    tfv = float(c[term])
                    num = (44.0 * tfv) * float(tot)
                    den = (
                        (20.0 * tfv) * float(tot)
                        + 6.0 * float(tot)
                        + (18.0 * float(dl[d])) * float(n_docs)
                    )
                    scores[d] += int(math.floor((c_t * num) / den))
        top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        for rk, (d, s) in enumerate(top, 1):
            exp_rows.append(
                {"qid": qid, "doc_id": d, "score_e6": s, "rk": rk}
            )
    exp = pd.DataFrame(exp_rows)
    pd.testing.assert_frame_equal(
        got[["qid", "doc_id", "score_e6", "rk"]].astype("int64"),
        exp.astype("int64"),
    )


def test_phash_hamming_near_dup_vs_brute(ray_session):
    """Multi-index-hashing phash near-dup is EXACT for hamming <= 3
    (pigeonhole over 4 bands): pair set + hammings == the O(n^2) brute
    force, and the CC cluster labels == a local union-find."""
    import os

    from plateau_gis_converter_ray.kernels.text import hamming64
    from plateau_gis_converter_ray.sources.images import ensure_image_table
    from plateau_gis_converter_ray.stages.dedup import phash_hamming_near_dup
    from plateau_gis_converter_ray.stages.graph import connected_components

    path = ensure_image_table(0.001)
    files = [
        os.path.join(path, f)
        for f in sorted(os.listdir(path))
        if f.endswith(".parquet")
    ]
    pairs = phash_hamming_near_dup(files)
    got = (
        pairs.to_pandas()
        .sort_values(["img_a", "img_b"])
        .reset_index(drop=True)
    )

    import pyarrow.parquet as pq

    t = pq.read_table(files, columns=["image_id", "phash"])
    ids = np.array(
        [int(s[4:]) for s in t.column("image_id").to_pylist()], dtype=np.int64
    )
    ph = t.column("phash").to_numpy().astype(np.uint64)
    order = np.argsort(ids)
    ids, ph = ids[order], ph[order]
    a, b = np.triu_indices(len(ids), k=1)
    d = hamming64(ph[a], ph[b])
    keep = d <= 3
    exp = (
        pd.DataFrame(
            {
                "img_a": ids[a][keep],
                "img_b": ids[b][keep],
                "hamming": d[keep].astype(np.int64),
            }
        )
        .sort_values(["img_a", "img_b"])
        .reset_index(drop=True)
    )
    assert len(exp) > 0  # planted ~10% duplicates guarantee pairs
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))

    # cluster labels == local union-find min label
    comp = (
        connected_components(pairs, src="img_a", dst="img_b")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ia, ib in zip(exp["img_a"], exp["img_b"]):
        ra, rb = find(int(ia)), find(int(ib))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    labels = {}
    for x in parent:
        labels.setdefault(find(x), []).append(x)
    exp_rows = sorted(
        (m, root) for root, ms in labels.items() for m in ms
    )
    exp_cc = pd.DataFrame(exp_rows, columns=["doc_id", "comp"])
    pd.testing.assert_frame_equal(comp.astype("int64"), exp_cc.astype("int64"))


def test_pagerank_distributed_equals_local(ray_session):
    """The 5-round distributed PageRank (forced via local_max_edges=0)
    emits exactly the driver fast path's integer ranks; ranks sum close
    to n (damped power iteration invariant)."""
    from plateau_gis_converter_ray.pipelines.queries import q_pagerank_dupgraph

    local = (
        q_pagerank_dupgraph(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    dist = (
        q_pagerank_dupgraph(SF, local_max_edges=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(local) > 0
    pd.testing.assert_frame_equal(local.astype("int64"), dist.astype("int64"))
    # ranks stay within the damped fixed-point band
    n = len(local)
    assert 0.5 * n * 1_000_000 < local["pr_e6"].sum() < 1.5 * n * 1_000_000


def test_user_value_trend_is_ols(ray_session):
    """num/den == the least-squares slope of cents-vs-hours per user."""
    import pyarrow.parquet as pq

    from plateau_gis_converter_ray.pipelines.queries import (
        _TREND_EPOCH_US,
        q_user_value_trend,
    )

    got = q_user_value_trend(SF).to_pandas().set_index("user_id")
    t = pq.read_table(SF + "/events.parquet", columns=["user_id", "ts", "value"])
    df = t.to_pandas()
    df["x"] = (df["ts"].astype("int64") - _TREND_EPOCH_US) // 3_600_000_000
    df["y"] = np.round(df["value"].to_numpy() * 100).astype(np.int64)
    assert len(got) == df["user_id"].nunique()
    for uid, g in list(df.groupby("user_id"))[:20]:
        row = got.loc[uid]
        assert row["n"] == len(g)
        if row["den"] > 0:
            slope = np.polyfit(g["x"].to_numpy(float), g["y"].to_numpy(float), 1)[0]
            assert abs(row["num"] / row["den"] - slope) < 1e-7 * max(1, abs(slope))


def test_caption_city_stats_vs_local(ray_session):
    """Distributed caption-city multimodal aggregate == a local per-row
    decode loop over the same table."""
    import os
    from collections import defaultdict

    import pyarrow.parquet as pq

    from __ray_entry__ import q_caption_city_stats
    from plateau_gis_converter_ray.kernels.imagecodec import decode_image
    from plateau_gis_converter_ray.sources.images import ensure_image_table

    got = (
        q_caption_city_stats(SF)
        .to_pandas()
        .sort_values("city")
        .reset_index(drop=True)
    )

    path = ensure_image_table(0.001)
    files = [
        os.path.join(path, f)
        for f in sorted(os.listdir(path))
        if f.endswith(".parquet")
    ]
    t = pq.read_table(files)
    acc = defaultdict(lambda: [0, 0, 0, 0])
    for i in range(t.num_rows):
        caption = t.column("caption")[i].as_py()
        city = caption.split(" ")[6]
        px = decode_image(
            t.column("bytes")[i].as_py(),
            t.column("fmt")[i].as_py(),
            t.column("w")[i].as_py(),
            t.column("h")[i].as_py(),
        )
        m = px.reshape(-1, 3).mean(axis=0)
        a = acc[city]
        a[0] += 1
        for c in range(3):
            a[1 + c] += int(np.round(m[c] * 1e6))
    exp = pd.DataFrame(
        [
            {
                "city": city,
                "n": a[0],
                "avg_r_e6": a[1] // a[0],
                "avg_g_e6": a[2] // a[0],
                "avg_b_e6": a[3] // a[0],
            }
            for city, a in sorted(acc.items())
        ]
    )
    assert set(got["city"]) <= {
        "tokyo", "osaka", "kyoto", "nagoya",
        "sapporo", "fukuoka", "yokohama", "kobe",
    }
    pd.testing.assert_frame_equal(got, exp)


def test_embed_pca_project_vs_local(ray_session):
    """Distributed PCA projection == a local numpy recompute over the
    same quantized values (same expressions, same order)."""
    import pyarrow.parquet as pq

    from plateau_gis_converter_ray.pipelines.queries import (
        _COV_SCALE,
        q_embed_pca_project,
    )

    got = (
        q_embed_pca_project(SF)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    t = pq.read_table(SF + "/embeddings.parquet", columns=["vec_id", "embedding"])
    emb = np.stack(t.column("embedding").to_numpy(zero_copy_only=False)).astype(
        np.float64
    )
    q = np.trunc(emb * _COV_SCALE)
    n = q.shape[0]
    mean = q.sum(axis=0) / n / _COV_SCALE
    qs = q.astype(np.int64)
    sij = np.einsum("ni,nj->ij", qs, qs, dtype=np.int64, casting="unsafe")
    si = qs.sum(axis=0)
    cov = sij / n - np.outer(si / n, si / n)
    w, v = np.linalg.eigh(cov)
    comp = v[:, -1]
    if comp[np.argmax(np.abs(comp))] < 0:
        comp = -comp
    exp = (q / _COV_SCALE - mean) @ comp
    order = np.argsort(t.column("vec_id").to_numpy())
    exp = exp[order]

    assert len(got) == n
    np.testing.assert_allclose(got["proj"].to_numpy(), exp, rtol=0, atol=1e-12)
    # the projection must actually separate: top component variance
    # dominates any single input dimension's variance
    assert (
        got["proj"].to_numpy().var()
        >= cov.diagonal().max() / _COV_SCALE**2 * 0.999
    )


def test_triangle_count_distributed_equals_local(ray_session):
    """Distributed wedge-join triangle count (forced) == driver fast path."""
    from plateau_gis_converter_ray.pipelines.queries import q_triangle_count

    local = q_triangle_count(SF).to_pandas()
    dist = q_triangle_count(SF, local_max_edges=0).to_pandas()
    pd.testing.assert_frame_equal(local, dist)
    assert local["n_triangles"].iloc[0] <= local["n_wedges"].iloc[0]


def test_zonal_stats_equals_local_recompute(ray_session):
    """zonal_stats == a local pandas recompute over the SAME clip rows
    (exact integers: counts and the weighted-mean rational)."""
    import numpy as np
    import pandas as pd

    import __ray_entry__ as entry

    got = (
        entry.queries()["zonal_stats"]("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("muni_id")
        .reset_index(drop=True)
    )
    clip = (
        entry.queries()["raster_vector_clip"]("/root/testdata/sf0.001")
        .to_pandas()
    )
    clip["muni_id"] = clip["muni_id"].fillna("__none__")
    clip["wnum"] = np.where(
        clip["masked_mean_c"] >= 0,
        clip["masked_mean_c"] * clip["covered_pixels"], 0,
    )
    clip["wden"] = np.where(
        clip["masked_mean_c"] >= 0, clip["covered_pixels"], 0
    )
    exp = (
        clip.groupby("muni_id", as_index=False)
        .agg(
            n_images=("image_id", "size"),
            covered_pixels=("covered_pixels", "sum"),
            total_pixels=("total_pixels", "sum"),
            wmean_num=("wnum", "sum"),
            wmean_den=("wden", "sum"),
        )
        .sort_values("muni_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[exp.columns].astype("int64", errors="ignore"), exp,
        check_dtype=False,
    )
