"""auto_join planner: strategy choice + broadcast == shuffle results."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _norm(df, keys):
    return (
        df.sort_values(keys)
        .reset_index(drop=True)
        .reindex(sorted(df.columns), axis=1)
    )


def test_auto_join_broadcast_equals_shuffle(ray_session):
    from plateau_gis_converter_ray.sources.tables import read_table
    from plateau_gis_converter_ray.stages.joins import auto_join

    for how in ("inner", "left_outer"):
        res = {}
        for force in ("broadcast", "shuffle"):
            orders = read_table(SF, "orders", ["o_orderkey", "o_custkey"])
            cust = read_table(SF, "customer", ["c_custkey", "c_mktsegment"])
            res[force] = _norm(
                auto_join(
                    orders, cust, on=("o_custkey",), right_on=("c_custkey",),
                    how=how, force=force,
                ).to_pandas(),
                ["o_orderkey"],
            )
        pd.testing.assert_frame_equal(res["broadcast"], res["shuffle"])


def test_auto_join_left_outer_int_payload(ray_session):
    """Broadcast left_outer must keep integer build columns as nullable
    ints on unmatched rows (not float64 NaN), matching the shuffle plan."""
    import pyarrow as pa
    import ray.data

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int64())})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([1, 3], pa.int64()),
                  "payload": pa.array([10, 30], pa.int64())})
    )
    from plateau_gis_converter_ray.stages.joins import auto_join

    res = {}
    for force in ("broadcast", "shuffle"):
        res[force] = _norm(
            auto_join(left, right, on=("k",), right_on=("rk",),
                      how="left_outer", force=force).to_pandas(),
            ["k"],
        )
    a, b = res["broadcast"], res["shuffle"]
    assert a["payload"].isna().sum() == 1 == b["payload"].isna().sum()
    assert list(a["k"]) == list(b["k"])
    assert a["payload"].dropna().astype("int64").tolist() ==         b["payload"].dropna().astype("int64").tolist()
    # the ARROW schema (what downstream operators see) must agree between
    # plans: nullable int64, never a float64 promotion on the broadcast path
    schemas = {}
    for force in ("broadcast", "shuffle"):
        schemas[force] = auto_join(
            left, right, on=("k",), right_on=("rk",),
            how="left_outer", force=force,
        ).schema()
    sa = {f: str(t) for f, t in zip(schemas["broadcast"].names,
                                    schemas["broadcast"].types)}
    sb = {f: str(t) for f, t in zip(schemas["shuffle"].names,
                                    schemas["shuffle"].types)}
    assert sa == sb, (sa, sb)
    assert sa["payload"] == "int64", sa


def _strategy(ds) -> str:
    """The plan auto_join picked: a Join operator on top is the shuffle."""
    top = type(ds._plan._logical_plan.dag).__name__
    return "shuffle" if top == "Join" else "broadcast"


def test_size_bound_reads_the_plan(ray_session, monkeypatch):
    """_size_bound reads a bare read's metadata size, passes it through
    filters / projections / limits over that read, reads an in-memory
    dataset's block metadata, and gives no bound for a mapped plan — all
    without executing anything."""
    import pyarrow as pa
    import ray.data
    from ray.data._internal.plan import ExecutionPlan

    from plateau_gis_converter_ray.sources.tables import read_table
    from plateau_gis_converter_ray.stages.joins import _size_bound

    cust = read_table(SF, "customer", ["c_custkey", "c_mktsegment"])
    arrow = ray.data.from_arrow(pa.table({"k": list(range(100))}))
    pdf = ray.data.from_pandas(pd.DataFrame({"k": list(range(100))}))
    mat = cust.select_columns(["c_custkey"]).materialize()
    expect = [cust.size_bytes(), arrow.size_bytes(), pdf.size_bytes(),
              mat.size_bytes()]

    def never(*a, **k):
        raise AssertionError("_size_bound executed a plan")

    monkeypatch.setattr(ExecutionPlan, "execute", never)
    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", never)
    assert 0 < expect[0] < (64 << 20)
    assert [_size_bound(d) for d in (cust, arrow, pdf, mat)] == expect
    assert min(expect) > 0
    shrunk = (
        cust.filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey"])
        .rename_columns({"c_custkey": "k"})
        .limit(10)
    )
    assert _size_bound(shrunk) == expect[0]
    # a map can grow its input: no bound, above it or below a projection
    mapped = cust.map_batches(lambda b: b, batch_format="pyarrow")
    assert _size_bound(mapped) is None
    assert _size_bound(mapped.select_columns(["c_custkey"])) is None


def test_auto_join_full_outer_small_side_plans_shuffle(ray_session):
    """A right-emitting join type is planned as the shuffle even when the
    build side is small enough to broadcast (in memory, or a bare scan),
    and returns the pandas-merge rows."""
    import ray.data

    from plateau_gis_converter_ray.sources.tables import read_table
    from plateau_gis_converter_ray.stages.joins import auto_join

    lpd = pd.DataFrame({"k": [1, 2, 3, 4, 30], "a": [10, 20, 30, 40, 50]})
    rpd = pd.DataFrame({"rk": [3, 4, 5], "b": [300, 400, 500]})
    nation = pd.read_parquet(f"{SF}/nation.parquet", columns=["n_nationkey"])
    cases = [
        (lpd, ray.data.from_pandas(rpd), rpd, "rk"),
        # the nation key is int32; the join needs equal key types
        (lpd.astype({"k": "int32"}), read_table(SF, "nation", ["n_nationkey"]),
         nation, "n_nationkey"),
    ]
    for ldf, right, rdf, rk in cases:
        j = auto_join(
            ray.data.from_pandas(ldf), right,
            on=("k",), right_on=(rk,), how="full_outer",
        )
        assert _strategy(j) == "shuffle"
        exp = ldf.merge(rdf, how="outer", left_on="k", right_on=rk)

        def norm(df):
            # an unmatched right row carries its key in rk; fold it into k
            k = df["k"].fillna(df[rk]) if rk in df.columns else df["k"]
            out = df.assign(k=k).drop(columns=[rk], errors="ignore")
            out = out.astype("float64")
            return out.sort_values(list(out.columns)).reset_index(drop=True)

        got = norm(j.to_pandas())
        pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                      norm(exp)[sorted(got.columns)])


def test_auto_join_hint_overrides(ray_session, monkeypatch):
    """An explicit size hint overrides the plan bound both ways, against
    the broadcast limit read when auto_join is called, and both plans give
    the same rows."""
    from plateau_gis_converter_ray.sources.tables import read_table
    from plateau_gis_converter_ray.stages import joins

    def run(**kw):
        orders = read_table(SF, "orders", ["o_orderkey", "o_custkey"])
        cust = read_table(SF, "customer", ["c_custkey", "c_mktsegment"])
        return joins.auto_join(
            orders, cust, on=("o_custkey",), right_on=("c_custkey",), **kw
        )

    exp = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey", "o_custkey"]).merge(
        pd.read_parquet(f"{SF}/customer.parquet", columns=["c_custkey", "c_mktsegment"]),
        left_on="o_custkey", right_on="c_custkey",
    )
    exp_keys = np.sort(exp["o_orderkey"].to_numpy())

    assert _strategy(run()) == "broadcast"  # the scan bound is under the limit
    plans = {"shuffle": run(right_size_hint=1 << 40)}
    # a limit just below the scan bound plans the shuffle; a tiny hint wins
    bound = joins._size_bound(read_table(SF, "customer", ["c_custkey", "c_mktsegment"]))
    monkeypatch.setattr(joins, "DEFAULT_BROADCAST_LIMIT", bound - 1)
    assert _strategy(run()) == "shuffle"
    plans["broadcast"] = run(right_size_hint=64)
    for strategy, ds in plans.items():
        assert _strategy(ds) == strategy
        out = ds.to_pandas()
        assert len(out) == len(exp)
        assert np.array_equal(np.sort(out["o_orderkey"].to_numpy()), exp_keys)


def test_no_join_partitions_outside_the_planner():
    """auto_join is the one join entry: Ray's Dataset.join requires
    ``num_partitions``, so no other module of the package names it."""
    import pathlib

    import plateau_gis_converter_ray

    root = pathlib.Path(plateau_gis_converter_ray.__file__).parent
    offenders = [
        p.relative_to(root).as_posix()
        for p in root.rglob("*.py")
        if p.relative_to(root).as_posix() != "stages/joins.py"
        and "num_partitions" in p.read_text()
    ]
    assert offenders == []


def test_planner_routed_queries_force_equal(ray_session):
    """nation_revenue / top_orders / customers_without_orders: the planner's
    broadcast plan == the forced shuffle plan, bit-for-bit."""
    from plateau_gis_converter_ray.pipelines.queries import (
        q_customers_without_orders,
        q_nation_revenue,
        q_top_orders,
    )

    for fn, keys in [
        (q_nation_revenue, ["n_name"]),
        (q_top_orders, ["o_orderkey"]),
        (q_customers_without_orders, ["c_custkey"]),
    ]:
        a = _norm(fn(SF, force=None).to_pandas(), keys)
        b = _norm(fn(SF, force="shuffle").to_pandas(), keys)
        pd.testing.assert_frame_equal(a, b)


def test_broadcast_overlapping_nonkey_columns_raise(ray_session):
    """ADVICE r3: overlapping non-key columns would get pandas _x/_y
    suffixes under the broadcast merge and a duplicate-field schema under
    Ray's shuffle join - auto_join fails loudly at planning time instead
    of silently diverging."""
    import pandas as pd
    import pytest
    import ray.data

    from plateau_gis_converter_ray.stages.joins import auto_join

    left = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
    )
    right = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2], "v": [100, 200]})
    )
    with pytest.raises(ValueError, match="share non-key columns"):
        auto_join(left, right, on=("k",), how="inner", right_size_hint=64)


def test_broadcast_semi_oversize_keys_fall_back(ray_session, monkeypatch):
    """The semi/anti key-set path enforces the same 4x runtime memory
    budget as the build path."""
    import pandas as pd
    import ray.data

    from plateau_gis_converter_ray.stages import joins

    left = ray.data.from_pandas(pd.DataFrame({"k": list(range(50))}))
    right = ray.data.from_pandas(
        pd.DataFrame({"k": [str(i) * 200 for i in range(50)]})
    )
    left_s = left.map_batches(
        lambda b: pd.DataFrame({"k": b["k"].astype(str)}),
        batch_format="pandas",
    )
    # hint says tiny, runtime key set is ~10KB >> 4x limit of 256B ->
    # must fall back to the shuffle semi join and still be correct
    monkeypatch.setattr(joins, "DEFAULT_BROADCAST_LIMIT", 64)
    j = joins.auto_join(left_s, right, on=("k",), how="left_semi",
                        right_size_hint=1)
    assert _strategy(j) == "shuffle"
    j = j.to_pandas()
    assert len(j) == 0  # no overlap between "7" and "777...7"
