"""Row-sized block planning and the block-local graph counts."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from weak_supervision_for_ner_ray.stages import util


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the block planner sees."""
    def set_cpus(n):
        monkeypatch.setattr(util.ray, "cluster_resources",
                            lambda: {"CPU": n})
    return set_cpus


def test_blocks_for_rows(cpus):
    cpus(1)
    assert util.blocks_for_rows(800) == 1
    assert util.blocks_for_rows(2000) == 2
    assert util.blocks_for_rows(util.MIN_BLOCK_ROWS) == 1
    assert util.blocks_for_rows(util.MIN_BLOCK_ROWS + 1) == 2
    assert util.blocks_for_rows(10 ** 9) == util.target_blocks() == 16
    cpus(32)
    assert util.blocks_for_rows(10 ** 9) == util.target_blocks() == 256
    for n in (1, 4, 32):
        cpus(n)
        for rows in (0, 1, 800, 2000, 50_000):
            assert util.blocks_for_rows(rows) >= n


def _decoded(rows: list[tuple]) -> pa.Table:
    """Triple rows (kind "t") in the decoded table's schema, each followed
    by a ner row (kind "n") that the graph read must filter out."""
    from weak_supervision_for_ner_ray.stages.kg import DECODED_SCHEMA
    cols = ("subj", "subj_label", "pred", "obj", "obj_label", "subj_id",
            "obj_id")
    out = {c: [] for c in DECODED_SCHEMA.names}
    for r in rows:
        for kind in ("t", "n"):
            for c in out:
                out[c].append(None)
            out["kind"][-1] = kind
            out["conv_id"][-1] = "c"
            if kind == "t":
                for c, v in zip(cols, r):
                    out[c][-1] = v
            else:
                out["label"][-1] = "PERSON"
    return pa.table(out, schema=DECODED_SCHEMA)


def test_graph_tables_counts_keys_spread_over_blocks(ray_session, tmp_path):
    """A node key and an edge key with rows in every one of 8 decoded
    part files are counted once each, every count equals a pyarrow
    ``group_by`` over the whole triples table, and at 4 cpus (the test
    session's) the tables come back from at least 3 part files in global
    key order."""
    import glob
    import os

    import pyarrow.parquet as pq

    from weak_supervision_for_ner_ray.pipelines.kg import graph_tables

    hot = ("Maria Jensen", "PERSON", "works_for", "Acme Corp", "COMPANY",
           "PERSON:maria jensen", "COMPANY:acme corp")
    blocks = []
    os.makedirs(tmp_path / "decoded")
    for b in range(8):
        rows = [hot] * (b + 1)
        for i in range(40):
            j = (7 * b + i) % 23
            rows.append((f"P{j}", "PERSON", ("met", "visited")[i % 2],
                         f"O{i % 5}", "GPE", f"PERSON:p{j}", f"GPE:o{i % 5}"))
        blocks.append(_decoded(rows))
        pq.write_table(blocks[-1],
                       tmp_path / "decoded" / f"part-{b}.parquet")
    whole = pa.concat_tables(blocks)
    whole = whole.filter(pc.equal(whole["kind"], "t"))

    nodes, edges = graph_tables(str(tmp_path), "s")
    parts = [f for t in ("nodes", "edges")
             for f in glob.glob(str(tmp_path / t / "part-*.parquet"))]
    assert len(parts) >= 3
    nodes = pa.concat_tables(ray.get(nodes.to_arrow_refs()))
    edges = pa.concat_tables(ray.get(edges.to_arrow_refs()))

    ends = pa.concat_tables([
        whole.select(["subj_id", "subj", "subj_label"])
        .rename_columns(["entity_id", "canonical", "label"]),
        whole.select(["obj_id", "obj", "obj_label"])
        .rename_columns(["entity_id", "canonical", "label"])])
    exp_nodes = ends.group_by(["entity_id", "canonical", "label"]) \
        .aggregate([([], "count_all")])
    exp_edges = whole.group_by(["subj_id", "pred", "obj_id"]) \
        .aggregate([([], "count_all")])

    def rows_of(t, cols):
        return sorted(zip(*(t.column(c).to_pylist() for c in cols)))

    assert rows_of(nodes, ["entity_id", "canonical", "label",
                           "n_mentions"]) == \
        rows_of(exp_nodes, ["entity_id", "canonical", "label", "count_all"])
    assert rows_of(edges, ["src_id", "pred", "dst_id", "weight"]) == [
        (s, p, d, float(n)) for s, p, d, n in
        rows_of(exp_edges, ["subj_id", "pred", "obj_id", "count_all"])]
    # the reads hand the part files back in global key order
    ids = nodes["entity_id"].to_pylist()
    assert ids == sorted(ids) and len(ids) == len(set(ids))
    keys = list(zip(edges["src_id"].to_pylist(), edges["pred"].to_pylist()))
    assert keys == sorted(keys)
    hot_node = ids.index("PERSON:maria jensen")
    assert nodes["n_mentions"][hot_node].as_py() == sum(range(1, 9))
    assert ("PERSON:maria jensen", "works_for") in keys
    assert edges["weight"][keys.index(
        ("PERSON:maria jensen", "works_for"))].as_py() == sum(range(1, 9))
