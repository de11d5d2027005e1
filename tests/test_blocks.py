"""Row-sized block planning and the block-local graph counts."""

import pyarrow as pa
import pytest

import ray
import ray.data as rd

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


def _triples(rows: list[tuple]) -> pa.Table:
    cols = ("subj", "subj_label", "pred", "obj", "obj_label", "subj_id",
            "obj_id")
    return pa.table({c: pa.array([r[i] for r in rows], pa.string())
                     for i, c in enumerate(cols)})


def test_graph_tables_counts_keys_spread_over_blocks(ray_session):
    """A node key and an edge key with rows in every one of 8 input blocks
    are counted once each, and every count equals a pyarrow ``group_by``
    over the whole triples table."""
    from weak_supervision_for_ner_ray.pipelines.kg import graph_tables

    hot = ("Maria Jensen", "PERSON", "works_for", "Acme Corp", "COMPANY",
           "PERSON:maria jensen", "COMPANY:acme corp")
    blocks = []
    for b in range(8):
        rows = [hot] * (b + 1)
        for i in range(40):
            j = (7 * b + i) % 23
            rows.append((f"P{j}", "PERSON", ("met", "visited")[i % 2],
                         f"O{i % 5}", "GPE", f"PERSON:p{j}", f"GPE:o{i % 5}"))
        blocks.append(_triples(rows))
    whole = pa.concat_tables(blocks)
    ds = rd.from_arrow(blocks)
    assert ds.num_blocks() >= 7

    nodes, edges = graph_tables(ds)
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
    ids = nodes["entity_id"].to_pylist()
    assert ids == sorted(ids) and len(ids) == len(set(ids))
    keys = list(zip(edges["src_id"].to_pylist(), edges["pred"].to_pylist()))
    assert keys == sorted(keys)
    hot_node = ids.index("PERSON:maria jensen")
    assert nodes["n_mentions"][hot_node].as_py() == sum(range(1, 9))
    assert ("PERSON:maria jensen", "works_for") in keys
    assert edges["weight"][keys.index(
        ("PERSON:maria jensen", "works_for"))].as_py() == sum(range(1, 9))
