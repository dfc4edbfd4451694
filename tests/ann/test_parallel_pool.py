"""Process-parallel shard fan-out: identical results, crash-not-hang.

The process pool must be a pure transport change: results bit-identical to
the in-process thread path (workers rebuild shard state from shared-memory
views of the *warmed* parent arrays, so compaction and the ADC norms are
built exactly once, in the parent). A SIGKILLed worker must surface as
ShardCrashedError promptly — never a hang — and a broken pool must refuse
further use.

Spawned workers re-import this module, so everything at module scope must
stay import-safe (pytest files are; interactive stdin is not).
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.ann.ivf import IVFIndex
from repro.ann.parallel import ProcessShardPool
from repro.ann.quantization import make_quantizer
from repro.core.clustering import IndexShard
from repro.core.errors import ShardCrashedError

DIM = 24


def _build_shards(schemes):
    rng = np.random.default_rng(2)
    data = rng.normal(size=(300 * len(schemes), DIM)).astype(np.float32)
    shards = []
    for sid, scheme in enumerate(schemes):
        lo, hi = sid * 300, (sid + 1) * 300
        index = IVFIndex(DIM, nlist=8, nprobe=4, quantizer=make_quantizer(scheme, DIM))
        index.train(data[lo:hi])
        index.add(data[lo:hi])
        shards.append(
            IndexShard(
                sid, index, np.arange(lo, hi, dtype=np.int64), data[lo:hi].mean(0)
            )
        )
    return shards


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(9).normal(size=(8, DIM)).astype(np.float32)


class TestBitIdentical:
    def test_process_matches_thread_for_every_codec(self, queries):
        # flat / sq8 / sq4 exercise the GEMM codecs' dense path, pq4/opq4
        # the sparse scan on the gather codecs' lookup-table kernel.
        shards = _build_shards(("flat", "sq8", "sq4", "pq4", "opq4"))
        with ProcessShardPool(shards, workers=2) as pool:
            assert pool.worker_pids()  # spawned on demand: at least one is up
            # The export ships no scan operand and builds none in the
            # parent: each worker derives its own, privately.
            assert all(shard.index._sealed.operand is None for shard in shards)
            for shard in shards:
                td, ti = shard.search(queries, 5)
                pd_, pi_ = pool.search(shard.shard_id, queries, 5)
                np.testing.assert_array_equal(ti, pi_)
                np.testing.assert_array_equal(td, pd_)
        # after close the pool refuses work rather than hanging
        with pytest.raises(RuntimeError):
            pool.search(0, queries, 5)


class TestCrashSemantics:
    def test_worker_kill_raises_shard_crashed_not_hang(self, queries):
        shards = _build_shards(("sq8",))
        pool = ProcessShardPool(shards, workers=1)
        try:
            caught = {}

            def do_search():
                try:
                    pool.search(0, queries, 5, chaos_delay_s=5.0)
                except ShardCrashedError as err:
                    caught["err"] = err

            thread = threading.Thread(target=do_search)
            thread.start()
            time.sleep(0.5)  # let the worker enter the delayed search
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            thread.join(timeout=30)
            assert not thread.is_alive(), "search hung after worker SIGKILL"
            assert isinstance(caught.get("err"), ShardCrashedError)
            # a broken pool fails fast on reuse instead of resurrecting
            with pytest.raises(ShardCrashedError):
                pool.search(0, queries, 5)
        finally:
            pool.close()
