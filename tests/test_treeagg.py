"""The shared combiner tree (stages/treeagg.py): exact against pandas over
many blocks, custom merges equal to one pass, and merge levels planned from
the input's logical plan without executing it."""

from __future__ import annotations

import numpy as np
import pandas as pd

from tests.conftest import SF_SMALL


def _blocks(n_blocks: int, rows: int, seed: int = 3) -> pd.DataFrame:
    rng = np.random.RandomState(seed)
    n = n_blocks * rows
    key = pd.array(rng.randint(0, 40, n), dtype="Int64")
    key[rng.rand(n) < 0.05] = pd.NA  # null keys are dropped
    return pd.DataFrame(
        {
            "k": key,
            "tag": rng.choice(["a", "b"], n),
            "v": rng.randint(-1000, 1000, n).astype(np.int64),
            "x": rng.rand(n),
        }
    )


def _split(df: pd.DataFrame, n_blocks: int):
    import ray.data

    return ray.data.from_pandas(np.array_split(df, n_blocks))


def _n_merge_levels(ds) -> int:
    dag = ds._plan._logical_plan.dag
    return sum(type(op).__name__ == "Repartition" for op in dag.post_order_iter())


def test_tree_group_agg_equals_pandas_through_three_levels(ray_session):
    from plateau_gis_converter_ray.stages.treeagg import tree_group_agg

    df = _blocks(600, 20)
    out = tree_group_agg(
        _split(df, 600), ["k", "tag"],
        {"s": ("v", "sum"), "lo": ("x", "min"), "hi": ("x", "max"),
         "n": (None, "count")},
    )
    assert _n_merge_levels(out) == 3  # 600 blocks > 512: 64 -> 8 -> 1
    got = out.to_pandas().sort_values(["k", "tag"]).reset_index(drop=True)
    want = (
        df.groupby(["k", "tag"])
        .agg(s=("v", "sum"), lo=("x", "min"), hi=("x", "max"), n=("v", "size"))
        .reset_index()
    )
    assert list(got.columns) == ["k", "tag", "s", "lo", "hi", "n"]
    assert len(got) == len(want)
    for c in got.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_tree_custom_agg_equals_one_pass(ray_session):
    from plateau_gis_converter_ray.stages.treeagg import tree_custom_agg

    def top_per_key(d: pd.DataFrame) -> pd.DataFrame:
        d = d.sort_values(["k", "v", "x"], ascending=[True, False, True])
        return d.drop_duplicates("k").reset_index(drop=True)

    df = _blocks(100, 50).dropna()
    df["k"] = df["k"].astype(np.int64)
    out = tree_custom_agg(_split(df, 100), top_per_key, top_per_key)
    assert _n_merge_levels(out) == 2  # 100 blocks: 8 -> 1
    got = top_per_key(out.to_pandas())
    want = top_per_key(df)
    for c in want.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_merge_levels_come_from_the_plan(ray_session):
    import ray.data
    from ray.data import DataContext

    from plateau_gis_converter_ray.sources.tables import read_table
    from plateau_gis_converter_ray.stages.joins import _block_bound
    from plateau_gis_converter_ray.stages.treeagg import (
        _merge_levels,
        tree_group_agg,
    )

    events = read_table(SF_SMALL, "events", ["user_id"])
    assert _block_bound(events) == 16  # small-table read: 16 blocks
    assert _merge_levels(events) == [1]
    agg = tree_group_agg(events, ["user_id"], {"n": (None, "count")})
    assert _n_merge_levels(agg) == 1
    assert _merge_levels(ray.data.range(1000, override_num_blocks=600)) == [64, 8, 1]
    # an exchange's partition count is not a bound on its blocks: the
    # bytes under it count too
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 256
        assert _block_bound(events) > 64
        assert _block_bound(events.repartition(2)) > 64
    finally:
        ctx.target_max_block_size = old


def test_grouped_apply_one_call_per_key_equals_pandas(ray_session):
    """100 input blocks: every key's rows reach exactly ONE ``fn`` call,
    ``fn`` sees only the input's columns, and the concatenated output
    equals a one-pass pandas group-by."""
    from plateau_gis_converter_ray.stages.treeagg import grouped_apply

    df = _blocks(100, 40).dropna()
    df["k"] = df["k"].astype(np.int64)

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        assert list(g.columns) == ["k", "tag", "v", "x"]
        out = g.groupby(["k", "tag"], as_index=False).agg(
            s=("v", "sum"), n=("v", "size")
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    got = grouped_apply(_split(df, 100), ["k", "tag"], per_key).to_pandas()
    # a key split across calls would surface once per call
    assert not got.duplicated(["k", "tag"]).any()
    got = got.sort_values(["k", "tag"]).reset_index(drop=True)
    want = per_key(df).sort_values(["k", "tag"]).reset_index(drop=True)
    assert list(got.columns) == ["k", "tag", "s", "n"]
    for c in want.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_grouped_apply_keeps_the_hand_written_bucket_groups(ray_session):
    """At <= 64 blocks the groups are the ones the hand-written bucket
    columns made: ``key % 64`` for one int64 key (negative keys included),
    so each call holds one residue class, and ``pd.util.hash_array % 64``
    for one string key."""
    import pyarrow as pa

    from plateau_gis_converter_ray.stages.treeagg import _col_hash, grouped_apply

    keys = np.arange(-300, 700, dtype=np.int64)
    assert (_col_hash(pa.table({"k": keys}), ["k"], 64) == keys % 64).all()

    def residues(g: pd.DataFrame) -> pd.DataFrame:
        r = np.unique(g["k"].to_numpy() % 64)
        return pd.DataFrame({"n_res": [len(r)], "r": [int(r[0])]})

    df = pd.DataFrame({"k": keys, "v": np.ones(len(keys), np.int64)})
    got = grouped_apply(_split(df, 8), ["k"], residues).to_pandas()
    assert (got["n_res"] == 1).all()  # one residue per call
    assert sorted(got["r"]) == list(range(64))  # one call per residue

    words = np.array(["view", "click", "", "購入", "purchase"] * 7, dtype=object)
    got = _col_hash(pa.table({"w": pa.array(list(words))}), ["w"], 64)
    assert (got == (pd.util.hash_array(words) % 64).astype(np.int64)).all()


def test_grouped_apply_group_count_comes_from_the_plan(ray_session):
    import ray.data

    from plateau_gis_converter_ray.sources.tables import read_table
    from plateau_gis_converter_ray.stages.treeagg import _group_count

    events = read_table(SF_SMALL, "events", ["user_id"])
    assert _group_count(events) == 64  # 16-block read
    wide = ray.data.range(6000, override_num_blocks=600)
    assert _group_count(wide) == 600  # one group per block above 64
    # one-input ops pass the bound through
    assert _group_count(wide.map_batches(lambda b: b, batch_format="pyarrow")) == 600


def test_grouped_apply_splits_a_small_input_over_the_cluster(ray_session):
    """A one-block input (plan bound 1, below the session's 4 CPUs) is
    split before the exchange, so its 400 keys run in more than one task;
    Ray's sort would otherwise keep the one block and run every group in
    one task. A plan bounded at the CPU count or above is left alone."""
    import ray
    import ray.data

    from plateau_gis_converter_ray.sources.tables import read_table
    from plateau_gis_converter_ray.stages.treeagg import _split_to_cluster, grouped_apply

    def task_of(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": g["k"], "task": ray.get_runtime_context().get_task_id()})

    df = pd.DataFrame({"k": np.arange(400, dtype=np.int64)})
    got = grouped_apply(ray.data.from_pandas(df), ["k"], task_of).to_pandas()
    assert sorted(got["k"]) == list(range(400))
    assert got["task"].nunique() >= 2

    events = read_table(SF_SMALL, "events", ["user_id"])  # 16-block read
    assert _split_to_cluster(events) is events
