"""Per-partition lineage records (north rule: "every partition emits lineage
records plus checkpointed HMM sufficient statistics").

Each build gets its own staging directory under ``<workdir>/lineage``
(:func:`get_lineage_actor`).  Every block of a wrapped stage writes its one
record there as a small Parquet file from the worker that ran it
(:func:`record_block`), and the driver concatenates the build's files into
one ``lineage_<ms>.parquet`` table and removes the staging directory at the
end of the build (:func:`flush_lineage`, FIXTURES.md §5 schema).  Overhead
is one small file per *block*, not per row.  No process holds records
between builds, so a build that raises cannot leave records for another
build's table, and a cluster runs no extra process for lineage.
"""

from __future__ import annotations

import glob
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from .checkpoints import write_atomic

SCHEMA = pa.schema([
    ("stage", pa.string()),
    ("partition_key", pa.string()),
    ("input_fingerprint", pa.string()),
    ("rows_in", pa.int64()),
    ("rows_out", pa.int64()),
    ("wall_ms", pa.float64()),
    ("attempt", pa.int32()),
])


def get_lineage_actor(workdir: str) -> str:
    """Create this build's lineage staging directory under
    ``<workdir>/lineage`` and return its path, the sink
    :func:`record_block` writes to.  (The name dates from when records
    went to a named actor; the benchmark's spans patch it by name.)"""
    sink = os.path.join(workdir, "lineage", "_staging-" + uuid.uuid4().hex)
    os.makedirs(sink)
    return sink


def record_block(sink: str, stage: str, partition_key: str,
                 fingerprint: str, rows_in: int, rows_out: int,
                 wall_ms: float, attempt: int = 0) -> None:
    """Write one block's record as a one-row Parquet file in ``sink``.
    The file is renamed into place, so a reader never sees half of it."""
    table = pa.table([[stage], [partition_key], [fingerprint],
                      [int(rows_in)], [int(rows_out)], [float(wall_ms)],
                      [int(attempt)]], schema=SCHEMA)
    write_atomic(os.path.join(sink, uuid.uuid4().hex + ".parquet"),
                 lambda tmp: pq.write_table(table, tmp))


def flush_lineage(sink: str, out_dir: str) -> str | None:
    """Concatenate the records in the staging directory ``sink`` into one
    Parquet table under ``out_dir`` and remove ``sink``.  Returns the
    table's path, or None when no block wrote a record.  The table is
    renamed into place, so a kill leaves no truncated table to fail later
    reads of ``out_dir``; a failed write keeps ``sink``."""
    files = sorted(glob.glob(os.path.join(sink, "*.parquet")))
    path = None
    if files:
        table = pa.concat_tables(pq.read_table(f, schema=SCHEMA)
                                 for f in files)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            "lineage_%d.parquet" % int(time.time() * 1e3))
        write_atomic(path, lambda tmp: pq.write_table(table, tmp))
    shutil.rmtree(sink, ignore_errors=True)
    return path


def block_fingerprint(batch: pa.Table) -> str:
    """Cheap deterministic fingerprint of a block's identity."""
    n = batch.num_rows
    if n == 0:
        return "empty"
    try:
        c0 = str(batch.column(0)[0].as_py())
        c1 = str(batch.column(0)[n - 1].as_py())
    except Exception:
        c0 = c1 = "?"
    return f"{n}:{c0}:{c1}"
