"""The shard surface, once: every stand-in for an ``IndexShard`` conforms.

``ClusteredDatastore.shards`` holds real shards or wrappers around them
(fault injection, replica groups). The routers, the searcher, the datastore
and persistence use only the :class:`~repro.core.clustering.Shard` members,
as plain attribute reads — so every wrapper must resolve each member, send
writes through to the real shard (PR 14 fixed a centroid update that landed
on the wrapper), and hand searches to it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core.clustering import IndexShard, Shard, cluster_datastore
from repro.core.config import HermesConfig
from repro.datastore.embeddings import make_corpus
from repro.serving.faults import FaultInjector, FaultyShard
from repro.serving.replication import ReplicaGroup

DIM = 16
#: every name the Protocol declares: annotated attributes, properties, methods
MEMBERS = sorted(
    set(Shard.__annotations__)
    | {name for name in vars(Shard) if not name.startswith("_") or name == "__len__"}
)
#: the storage group — the same objects whether read through a wrapper or not
STORAGE = ("index", "global_ids", "delta", "tombstones", "tombstoned_ids")


def _faulty(shard) -> FaultyShard:
    return FaultInjector(seed=0).wrap_shard(shard, [])  # no models: never fails


WRAPPINGS = {
    "IndexShard": lambda shard: shard,
    "FaultyShard(IndexShard)": _faulty,
    "ReplicaGroup([IndexShard, IndexShard])": lambda s: ReplicaGroup([s, s]),
    "ReplicaGroup([FaultyShard, ...])": lambda s: ReplicaGroup([_faulty(s), _faulty(s)]),
}


@pytest.fixture(params=list(WRAPPINGS))
def pair(request):
    """``(the shard as the datastore would hold it, the real shard inside)``."""
    corpus = make_corpus(300, n_topics=2, dim=DIM, seed=3)
    config = HermesConfig(n_clusters=2, clusters_to_search=2, nlist=4)
    real = cluster_datastore(corpus.embeddings, config).shards[0]
    assert type(real) is IndexShard
    return WRAPPINGS[request.param](real), real


def test_every_member_resolves(pair):
    shard, real = pair
    assert {"shard_id", "has_mutations", "__len__", "search", "memory_bytes"} <= set(MEMBERS)
    assert set(STORAGE) <= set(MEMBERS)
    for member in MEMBERS:
        assert hasattr(shard, member), member
    assert shard.shard_id == real.shard_id
    assert (shard.generation, shard.has_mutations) == (0, False)
    assert shard.memory_bytes() == real.memory_bytes()


def test_writes_land_on_the_real_shard(pair):
    shard, real = pair
    rng = np.random.default_rng(1)

    def agree():
        assert len(shard) == len(real)
        np.testing.assert_array_equal(shard.centroid, real.centroid)
        assert shard.generation == real.generation
        assert shard.has_mutations == real.has_mutations
        for name in STORAGE:
            assert getattr(shard, name) is getattr(real, name), name
        for name in ("centroid", "generation", *STORAGE):
            assert name not in vars(shard) or shard is real, name

    size, centroid = len(real), real.centroid.copy()
    fresh_ids = np.arange(10_000, 10_008)
    shard.insert(rng.normal(size=(8, DIM)).astype(np.float32) + 5.0, fresh_ids)
    assert len(real) == size + 8
    assert not np.array_equal(real.centroid, centroid)  # the running mean moved
    assert real.has_mutations
    agree()

    assert shard.delete(fresh_ids[:3]) == 3
    assert len(real) == size + 5
    agree()

    assert shard.compact() is True
    assert (real.generation, real.has_mutations) == (1, False)
    assert shard.compact() is False
    agree()

    assert shard.quiesce() is real.quiesce()


def test_search_reaches_the_real_shard(pair):
    """Every wrapper answers a search with the real shard's own masked scan."""
    shard, real = pair
    queries = np.random.default_rng(2).normal(size=(5, DIM)).astype(np.float32)
    _, winners = real.search(queries, 1, nprobe=4)
    doomed = np.unique(winners)
    shard.delete(doomed)
    expected = real.search(queries, 3, nprobe=4)
    assert not np.isin(expected[1], doomed).any()
    got = shard.search(queries, 3, nprobe=4)
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])


def test_no_defaulted_getattr_probes_for_the_surface():
    """Fence: ``src/repro`` reads the shard / datastore surface as plain
    attributes. A ``getattr(x, "generation", default)`` probe is how a
    missing member on some wrapper stays invisible until it serves stale
    data."""
    import repro

    probed = {"generation", "has_mutations", "delta", "mutations"}
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) == 3
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in probed
            ):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
