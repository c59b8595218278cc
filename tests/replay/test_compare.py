"""Folding replay records into per-policy comparisons and text output."""

from __future__ import annotations

import pytest

from repro.arch.library import virtex5_full
from repro.core.partitioner import PartitionerOptions, partition_with_device_selection
from repro.replay import (
    PolicyComparison,
    ReplayError,
    ReplayResultStore,
    TraceSpec,
    collect_policy_comparison,
    comparison_key,
    iter_trace,
    render_policy_comparison,
    replay_record,
    replay_result_key,
    replay_trace,
)
from repro.replay.compare import PolicyLatency
from repro.replay.trace import config_names, trace_key


@pytest.fixture(scope="module")
def synthetic_scheme():
    """A Sec. V synthetic design: prefetching visibly improves its p95."""
    from repro.synth.generator import generate_population

    _cls, design = next(iter(generate_population(1, seed=7)))
    selected = partition_with_device_selection(
        design, virtex5_full(), PartitionerOptions(max_candidate_sets=3)
    )
    return selected.result.scheme


@pytest.fixture
def filled_store(tmp_path, synthetic_scheme):
    """A store holding 2 traces x 2 policies of real replay records."""
    store = ReplayResultStore(tmp_path / "replay")
    names = config_names(synthetic_scheme.design)
    for seed in (1, 2):
        spec = TraceSpec(environment="bursty", length=200, seed=seed,
                         dwell=0.9)
        for policy in ("no-prefetch", "prefetch-oracle"):
            result = replay_trace(
                synthetic_scheme, iter_trace(names, spec), policy,
                problem_key="p" * 64, trace_key=trace_key(names, spec),
            )
            key = replay_result_key("p" * 64, trace_key(names, spec), policy)
            store.put_many({key: replay_record(result)})
    return store


class TestCollect:
    def test_groups_by_policy(self, filled_store):
        comparison = collect_policy_comparison(filled_store)
        assert [p.policy for p in comparison.policies] == [
            "no-prefetch", "prefetch-oracle",
        ]
        assert comparison.traces == 4
        for p in comparison.policies:
            assert p.traces == 2
            assert p.events == 400
            assert p.latency.count == p.switches
            assert p.percentile(95) is not None
            assert 0.0 <= p.stall_rate <= 1.0
            assert p.icap_utilisation > 0

    def test_key_subset_restricts(self, filled_store):
        keys = sorted(filled_store.keys())[:1]
        comparison = collect_policy_comparison(filled_store, keys=keys)
        assert comparison.traces == 1
        assert comparison.keys == tuple(keys)

    def test_missing_key_raises(self, filled_store):
        with pytest.raises(ReplayError):
            collect_policy_comparison(filled_store, keys=["ff" + "0" * 62])

    def test_oracle_wins_on_bursty(self, filled_store):
        comparison = collect_policy_comparison(filled_store)
        best = comparison.best_by(95)
        assert best is not None
        assert best.policy == "prefetch-oracle"
        by_name = {p.policy: p for p in comparison.policies}
        assert (
            by_name["prefetch-oracle"].total_seconds
            < by_name["no-prefetch"].total_seconds
        )

    def test_deterministic_and_serialisable(self, filled_store):
        a = collect_policy_comparison(filled_store)
        b = collect_policy_comparison(filled_store)
        assert a.to_dict() == b.to_dict()
        doc = a.to_dict()
        assert doc["key"] == comparison_key(a.keys)
        assert doc["traces"] == 4
        assert {p["policy"] for p in doc["policies"]} == {
            "no-prefetch", "prefetch-oracle",
        }


class TestComparisonKey:
    def test_order_and_duplicates_are_irrelevant(self):
        keys = ["b" * 64, "a" * 64]
        assert comparison_key(keys) == comparison_key(reversed(keys))
        assert comparison_key(keys) == comparison_key(keys + keys)
        assert comparison_key(keys) != comparison_key(keys[:1])


class TestPolicyLatencyFold:
    def test_fold_accumulates(self, filled_store):
        agg = PolicyLatency(policy="x")
        for key in sorted(filled_store.keys()):
            agg.fold(filled_store.get_record(key))
        assert agg.traces == 4
        assert agg.events == 800
        assert agg.slot_budget_s == pytest.approx(800 * 0.01)

    def test_fold_rejects_malformed_records(self):
        agg = PolicyLatency(policy="x")
        with pytest.raises(ReplayError):
            agg.fold({"events": "many"})


class TestRenderText:
    def test_table_lists_policies_and_best(self, filled_store):
        text = render_policy_comparison(collect_policy_comparison(filled_store))
        assert "no-prefetch" in text
        assert "prefetch-oracle" in text
        assert "best p95: prefetch-oracle" in text
        assert text.endswith("\n")

    def test_empty_comparison(self):
        comparison = PolicyComparison(policies=(), keys=())
        assert render_policy_comparison(comparison) == "no replay records\n"
        assert comparison.best_by() is None

    def test_byte_deterministic(self, filled_store):
        a = render_policy_comparison(collect_policy_comparison(filled_store))
        b = render_policy_comparison(collect_policy_comparison(filled_store))
        assert a == b
