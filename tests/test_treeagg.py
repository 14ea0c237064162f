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
