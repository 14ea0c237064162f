"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry at the given sf_dir, converts to pandas, and
compares against ``oracle_sql()`` run in DuckDB: row count, column-name set,
and order-insensitive value equality (rows sorted by all columns).

Each PASS/ok line also carries the result's column names, its Arrow types
and a digest of its rows sorted by all columns, so two checkouts' outputs
diff line by line once the timing is stripped:

    python tools/check_queries.py SF_DIR | sed -E 's/ \([0-9.]+s\)//' > out.txt

Usage: python tools/check_queries.py [sf_dir] [name ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(result):
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(result, ray.data.Dataset):
            df = result.to_pandas()
            if not len(df) and not len(df.columns):
                # Ray's to_pandas drops columns for 0-row datasets; rebuild
                # the empty frame from the dataset schema so a legitimately
                # empty result still column-compares against the oracle
                schema = result.schema()
                if schema is not None:
                    df = pd.DataFrame(
                        {n: pd.Series(dtype="object") for n in schema.names}
                    )
            return df
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)
    return df


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"row count: ray={len(ray_df)} sql={len(sql_df)}")
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(
            f"columns: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
        )
        return problems
    a = normalize(ray_df)
    b = normalize(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if av.dtype.kind == "f" or bv.dtype.kind == "f":
                eq = np.allclose(av.astype(float), bv.astype(float), rtol=0, atol=0, equal_nan=True)
            else:
                eq = (av == bv).all()
            if not eq:
                bad = np.nonzero(av != bv)[0][:3] if av.dtype.kind != "f" else []
                problems.append(f"values differ in column {c} (e.g. rows {list(bad)})")
    return problems


def describe(result, df: pd.DataFrame) -> str:
    """Column names, Arrow types (``schema()`` for a Dataset) and a sha256
    prefix of the rows sorted by all columns (``normalize``)."""
    import pyarrow as pa
    import ray.data

    try:
        if isinstance(result, ray.data.Dataset):
            schema = result.schema()
            types = [] if schema is None else schema.types
        elif isinstance(result, pa.Table):
            types = result.schema.types
        else:
            types = pa.Schema.from_pandas(result, preserve_index=False).types
        h = pd.util.hash_pandas_object(normalize(df), index=False).to_numpy()
        digest = hashlib.sha256(h.tobytes()).hexdigest()[:16]
    except Exception as e:  # a failed description must not end the sweep
        return f" describe-error={type(e).__name__}: {e}"
    types = [str(t) for t in types]
    return f" cols={list(df.columns)} types={types} digest={digest}"


def main():
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    cpus = int(os.environ.get("CHECK_CPUS", len(os.sched_getaffinity(0))))
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            result = fn(sf_dir)
            if isinstance(result, ray.data.Dataset):
                # executed once: to_pandas and schema() read the same blocks
                result = result.materialize()
            ray_df = to_pandas(result)
        except Exception as e:
            print(f"FAIL {name}: ray error: {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"ok?  {name}: rows={len(ray_df)} ({dt:.1f}s) [rows-only]"
                  + describe(result, ray_df))
            n_pass += 1
            continue
        try:
            sql_df = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: sql error: {e}")
            n_fail += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            print(f"FAIL {name} ({dt:.1f}s): " + "; ".join(problems))
            n_fail += 1
        else:
            print(f"PASS {name}: rows={len(ray_df)} ({dt:.1f}s)"
                  + describe(result, ray_df))
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
