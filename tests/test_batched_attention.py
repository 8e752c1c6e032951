"""Tests for batched attention on the overlay engine and the
compile-time caches.

The contract under test: batching changes *when* work happens (packed
lane streams, shared tables, one overlay) but never *what* is computed —
outputs and probabilities byte-identical, per-request cycle counts and
event counters equal to the sequential reference engine.  Batched
attention runs on the same engine as decode
(:meth:`NovaDecodeEngine.attention_batch`), so interleaving the two on
one engine must change neither.
"""

import numpy as np
import pytest

from repro.approx import table_cache
from repro.approx.table_cache import (
    clear_table_cache,
    compiled_table,
    table_cache_info,
)
from repro.core.attention import (
    OVERLAY_FUNCTIONS,
    AttentionRequest,
    NovaAttentionEngine,
)
from repro.core.config import NovaConfig
from repro.core.decode import ContinuousBatchScheduler, NovaDecodeEngine
from repro.core.mapper import NovaMapper
from repro.core.session import NovaSession
from repro.workloads.bert import bert_attention_batch, decode_batch
from repro.workloads.transformer import TransformerConfig, attention_request

GEOMETRY = NovaConfig(
    n_routers=2, neurons_per_router=16, pe_frequency_ghz=1.4, hop_mm=0.5,
    seed=0,
)

def assert_same_bytes(got, ref):
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def assert_same_batch(got, ref):
    """Two batched results agree byte for byte and count for count."""
    assert got.packed_vector_cycles == ref.packed_vector_cycles
    assert got.sequential_vector_cycles == ref.sequential_vector_cycles
    assert got.counters.as_dict() == ref.counters.as_dict()
    for a, b in zip(got.results, ref.results, strict=True):
        assert_same_bytes(a.outputs, b.outputs)
        assert_same_bytes(a.probabilities, b.probabilities)
        assert a.vector_cycles == b.vector_cycles
        assert a.nonlinear_queries == b.nonlinear_queries
        assert a.counters.as_dict() == b.counters.as_dict()


def sequential_results(engine, requests):
    return [
        engine.attention_layer(
            req.x, req.wq, req.wk, req.wv, req.wo, n_heads=req.n_heads
        )
        for req in requests
    ]


@pytest.fixture(scope="module")
def engines():
    return (
        NovaAttentionEngine(GEOMETRY),
        NovaDecodeEngine(GEOMETRY),
    )


@pytest.fixture
def empty_table_cache(monkeypatch):
    """An empty process-wide table cache for one test; the tables and
    counters of the rest of the run come back afterwards."""
    monkeypatch.setattr(table_cache, "_CACHE", {})
    monkeypatch.setattr(table_cache, "_HITS", 0)
    monkeypatch.setattr(table_cache, "_MISSES", 0)


@pytest.fixture(scope="module")
def mixed_batch():
    # variable sequence lengths, including ones that leave a partially
    # filled final lane batch
    return bert_attention_batch("BERT-tiny", 4, seq_len=[8, 5, 12, 7], seed=3)


@pytest.fixture(scope="module")
def batch_result(engines, mixed_batch):
    _, batched = engines
    return batched.attention_batch(mixed_batch)


@pytest.fixture(scope="module")
def references(engines, mixed_batch):
    sequential, _ = engines
    return sequential_results(sequential, mixed_batch)


class TestBatchedEqualsSequential:
    def test_outputs_bit_identical(self, batch_result, references):
        for got, ref in zip(batch_result.results, references, strict=True):
            assert_same_bytes(got.outputs, ref.outputs)
            assert_same_bytes(got.probabilities, ref.probabilities)

    def test_per_request_cycles_match_sequential(
        self, batch_result, references
    ):
        for got, ref in zip(batch_result.results, references, strict=True):
            assert got.vector_cycles == ref.vector_cycles
            assert got.nonlinear_queries == ref.nonlinear_queries

    def test_per_request_counters_match_sequential(
        self, batch_result, references
    ):
        for got, ref in zip(batch_result.results, references, strict=True):
            assert got.counters.as_dict() == ref.counters.as_dict()

    def test_shared_shape_groups_and_a_one_token_request(self, engines):
        # equal lengths at non-adjacent positions pack as one group
        # each, so the stream order differs from the request order
        sequential, batched = engines
        requests = bert_attention_batch(
            "BERT-tiny", 5, seq_len=[8, 5, 8, 1, 5], seed=4
        )
        result = batched.attention_batch(requests)
        for got, ref in zip(
            result.results, sequential_results(sequential, requests),
            strict=True,
        ):
            assert_same_bytes(got.outputs, ref.outputs)
            assert_same_bytes(got.probabilities, ref.probabilities)
            assert got.vector_cycles == ref.vector_cycles
            assert got.nonlinear_queries == ref.nonlinear_queries
            assert got.counters.as_dict() == ref.counters.as_dict()
        assert result.sequential_vector_cycles == sum(
            r.vector_cycles for r in result.results
        )

    def test_packing_never_slower_than_sequential(self, batch_result):
        assert batch_result.packed_vector_cycles <= (
            batch_result.sequential_vector_cycles
        )
        assert batch_result.packing_speedup >= 1.0

    def test_batch_counters_are_the_shared_overlay_events(
        self, engines, batch_result
    ):
        # lane-local events on the shared overlay equal the packed lane
        # count exactly: packed cycles x lanes, with only the phase tails
        # padded (not each request's tail)
        _, batched = engines
        packed_lanes = batch_result.packed_vector_cycles * batched.n_lanes
        for event in ("comparator_eval", "mac_op", "pair_capture"):
            assert batch_result.counters.get(event) == packed_lanes
            assert batch_result.counters.get(event) <= sum(
                r.counters.get(event) for r in batch_result.results
            )

    def test_empty_batch_rejected(self, engines):
        _, batched = engines
        with pytest.raises(ValueError):
            batched.attention_batch([])


class TestOneEngineServesBoth:
    def test_attention_batch_between_scheduler_steps(self, monkeypatch):
        """Batched attention run after every scheduler step of a decode
        run on the same engine equals both calls on fresh engines, and
        the run bills only its own streams' events: the batches' events
        stay out of ``run.counters``."""
        requests = bert_attention_batch(
            "BERT-tiny", 3, seq_len=[6, 3, 6], seed=11
        )
        decode_requests = decode_batch(
            "gpt2-mini", 3, prompt_len=5, max_new_tokens=4, seed=2
        )
        engine = NovaDecodeEngine(GEOMETRY)
        execute = engine._execute
        batches = []

        def execute_then_attend(jobs):
            step = execute(jobs)
            batches.append(engine.attention_batch(requests))
            return step

        monkeypatch.setattr(engine, "_execute", execute_then_attend)
        run = ContinuousBatchScheduler(engine, max_active=2).run(
            decode_requests
        )
        alone = ContinuousBatchScheduler(
            NovaDecodeEngine(GEOMETRY), max_active=2
        ).run(decode_requests)
        fresh = NovaDecodeEngine(GEOMETRY).attention_batch(requests)

        assert len(batches) == run.scheduler_steps > 1
        for batch in batches:
            assert_same_batch(batch, fresh)
        assert run.step_cycles == alone.step_cycles
        for got, ref in zip(run.results, alone.results, strict=True):
            assert_same_bytes(got.generated, ref.generated)
            assert_same_bytes(got.prefill.outputs, ref.prefill.outputs)
            assert got.vector_cycles == ref.vector_cycles
            assert got.counters.as_dict() == ref.counters.as_dict()
        assert run.counters.as_dict() == alone.counters.as_dict()

    @pytest.mark.parametrize("tree", [None, "2x1,1x1"])
    def test_attention_batch_between_generate_passes(self, tree, monkeypatch):
        """``generate`` and ``decode`` bill only their own prefill's and
        passes' events: batched attention run after every pass on the
        same engine stays out of their ``counters``."""
        requests = bert_attention_batch("BERT-tiny", 2, seq_len=4, seed=3)
        request = decode_batch(
            "gpt2-mini", 1, prompt_len=4, max_new_tokens=5, seed=4
        )[0]
        engine = NovaDecodeEngine(GEOMETRY)
        execute = engine._execute
        batches = []

        def execute_then_attend(jobs):
            step = execute(jobs)
            batches.append(engine.attention_batch(requests))
            return step

        monkeypatch.setattr(engine, "_execute", execute_then_attend)
        generated = engine.generate(request, tree=tree)
        decoded = engine.decode(request)
        fresh = NovaDecodeEngine(GEOMETRY)
        assert len(batches) == (
            1 + generated.verify_passes + request.seq
        )
        for got, ref in (
            (generated, fresh.generate(request, tree=tree)),
            (decoded, fresh.decode(request)),
        ):
            assert got.counters.total() > 0
            assert got.counters.as_dict() == ref.counters.as_dict()
            assert got.vector_cycles == ref.vector_cycles


class TestTableCache:
    def test_same_key_returns_same_object(self):
        a = compiled_table("exp", n_segments=16, seed=0)
        b = compiled_table("exp", n_segments=16, seed=0)
        assert a is b

    def test_distinct_seeds_distinct_objects(self):
        a = compiled_table("exp", n_segments=16, seed=0)
        b = compiled_table("exp", n_segments=16, seed=7)
        assert a is not b

    def test_distinct_segment_counts_distinct_objects(self):
        a = compiled_table("gelu", n_segments=16, seed=0)
        b = compiled_table("gelu", n_segments=8, seed=0)
        assert a is not b
        assert a.n_segments == 16 and b.n_segments == 8

    def test_engines_share_table_objects(self, engines):
        sequential, batched = engines
        assert set(batched.tables) == set(OVERLAY_FUNCTIONS)
        for name in OVERLAY_FUNCTIONS:
            assert sequential.tables[name] is batched.tables[name]

    def test_overlay_compiles_only_the_tables_it_retargets(
        self, empty_table_cache
    ):
        session = NovaSession(GEOMETRY)
        decoder = session.decoder
        assert table_cache_info()["misses"] == 2
        reference = session.reference  # compiles gelu, hits the other two
        info = table_cache_info()
        assert info["misses"] == 3 and info["entries"] == 3
        for name in OVERLAY_FUNCTIONS:
            assert reference.tables[name] is decoder.tables[name]

    def test_cache_info_counts_hits(self):
        compiled_table("exp", n_segments=16, seed=0)  # prime (hit or miss)
        info0 = table_cache_info()
        compiled_table("exp", n_segments=16, seed=0)
        info1 = table_cache_info()
        assert info1["hits"] == info0["hits"] + 1
        assert info1["entries"] == info0["entries"]

    def test_clear_and_rebuild(self, empty_table_cache):
        before = compiled_table("reciprocal", n_segments=8, seed=1)
        clear_table_cache()
        assert table_cache_info()["entries"] == 0
        after = compiled_table("reciprocal", n_segments=8, seed=1)
        assert after is not before
        # retraining with the same seed is bit-identical
        assert np.array_equal(
            after.quantized_pwl.slopes, before.quantized_pwl.slopes
        )
        assert np.array_equal(after.quantized_pwl.cuts, before.quantized_pwl.cuts)

    def test_unknown_function_rejected(self):
        with pytest.raises(KeyError):
            compiled_table("definitely_not_a_function")

    def test_single_segment_rejected_before_training(self, empty_table_cache):
        with pytest.raises(ValueError, match="n_segments must be >= 2"):
            compiled_table("exp", n_segments=1)
        assert table_cache_info() == {"entries": 0, "hits": 0, "misses": 0}


class TestScheduleCache:
    def test_identical_geometries_share_schedule(self):
        a = NovaMapper().schedule(
            n_routers=3, pe_frequency_ghz=1.1, n_pairs=16, hop_mm=0.5
        )
        b = NovaMapper().schedule(
            n_routers=3, pe_frequency_ghz=1.1, n_pairs=16, hop_mm=0.5
        )
        assert a is b

    def test_distinct_geometries_distinct_schedules(self):
        a = NovaMapper().schedule(
            n_routers=3, pe_frequency_ghz=1.1, n_pairs=16, hop_mm=0.5
        )
        b = NovaMapper().schedule(
            n_routers=4, pe_frequency_ghz=1.1, n_pairs=16, hop_mm=0.5
        )
        assert a is not b

    def test_units_of_both_engines_share_schedules(self, engines):
        sequential, batched = engines
        batched.unit.retarget(batched.tables["exp"])
        assert sequential.units["exp"].schedule is batched.unit.schedule


class TestAttentionRequest:
    def test_builder_produces_valid_request(self):
        config = TransformerConfig(
            "toy", layers=1, hidden=16, heads=2, intermediate=32, seq_len=8
        )
        req = attention_request(config, seed=5)
        assert req.seq == 8 and req.hidden == 16 and req.n_heads == 2

    def test_builder_is_deterministic(self):
        config = TransformerConfig(
            "toy", layers=1, hidden=16, heads=2, intermediate=32, seq_len=8
        )
        a = attention_request(config, seed=5)
        b = attention_request(config, seed=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.wq, b.wq)

    def test_bad_shapes_rejected(self):
        good = np.zeros((4, 8))
        w = np.zeros((8, 8))
        with pytest.raises(ValueError):
            AttentionRequest(x=np.zeros(4), wq=w, wk=w, wv=w, wo=w, n_heads=2)
        with pytest.raises(ValueError):
            AttentionRequest(
                x=good, wq=np.zeros((8, 4)), wk=w, wv=w, wo=w, n_heads=2
            )
        with pytest.raises(ValueError):
            AttentionRequest(x=good, wq=w, wk=w, wv=w, wo=w, n_heads=3)
        with pytest.raises(ValueError):
            AttentionRequest(x=good, wq=w, wk=w, wv=w, wo=w, n_heads=0)

    def test_batch_builder_validates(self):
        with pytest.raises(ValueError):
            bert_attention_batch("BERT-tiny", 0)
        with pytest.raises(ValueError):
            bert_attention_batch("BERT-tiny", 3, seq_len=[8, 8])
        with pytest.raises(KeyError):
            bert_attention_batch("no-such-model", 2)
