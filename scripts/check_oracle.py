"""Local mimic of the driver's correctness gate: run every ``queries()``
entry at a given sf dir, run the matching ``oracle_sql()`` in DuckDB over
the same parquet tables, and compare row count + schema + order-insensitive
values.  Each line gives the Ray query's seconds and, for exact oracles,
the DuckDB oracle's.  Usage: python scripts/check_oracle.py [sf_dir]
[query ...]"""

import os
import sys
import time

import duckdb
import pandas as pd

import ray

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(result):
    import pyarrow as pa
    import ray.data
    if isinstance(result, ray.data.Dataset):
        tables = [ray.get(r) for r in result.to_arrow_refs()]
        tables = [t for t in tables if t.num_rows]
        result = pa.concat_tables(tables) if tables else pa.table({})
    if isinstance(result, pa.Table):
        result = result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False

    # this checkout's entry module and package, wherever it is cloned
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as entrymod
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            failures.append(name)
            print(f"[FAIL-run ] {name}: {type(e).__name__}: {e}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"[rows-only] {name}: {len(got)} rows "
                  f"(ray {dt:.1f}s) cols={list(got.columns)[:8]}")
            continue
        t0 = time.time()
        exp = con.execute(oracles[name]).fetchdf()
        oracle_dt = time.time() - t0
        ok_rows = len(got) == len(exp)
        ok_cols = sorted(got.columns) == sorted(exp.columns)
        ok_vals = False
        if ok_rows and ok_cols:
            g, e = canon(got), canon(exp)
            try:
                # dtype-strict: the driver hashes typed values, so an
                # int64 engine column vs a float64 oracle column fails
                # even when the values are numerically equal.
                pd.testing.assert_frame_equal(g, e, check_dtype=True,
                                              check_exact=True)
                ok_vals = True
            except AssertionError as err:
                msg = str(err).splitlines()[:6]
                print("  " + "\n  ".join(msg))
        status = "OK " if (ok_rows and ok_cols and ok_vals) else "FAIL"
        if status == "FAIL":
            failures.append(name)
        print(f"[{status}     ] {name}: rows {len(got)}/{len(exp)} "
              f"cols_ok={ok_cols} vals_ok={ok_vals} "
              f"(ray {dt:.1f}s, oracle {oracle_dt:.1f}s)")
    print("FAILURES:", failures if failures else "none")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
