"""Tests for the workload pack: churn, retrieval_load, segmentation,
lifecycle_churn."""

from __future__ import annotations

import gc

import pytest

from repro.crypto.porep import SealedReplica
from repro.runner.executor import derive_trial_seed, run_scenario
from repro.runner.registry import get_scenario, load_builtin_scenarios, resolve_params
from repro.runner.results import jsonify
from repro.scenarios.churn import run_churn_trial
from repro.scenarios.lifecycle_churn import run_lifecycle_churn_trial
from repro.scenarios.retrieval import run_retrieval_trial
from repro.scenarios.segmentation import run_segmentation_trial
from repro.sim.scenario import DSNScenario


@pytest.fixture(autouse=True)
def _load_registry():
    load_builtin_scenarios()


class TestRegistration:
    def test_all_ten_scenarios_registered(self):
        names = {spec.name for spec in load_builtin_scenarios()}
        assert {
            "table3",
            "table4",
            "collision",
            "robustness",
            "deposit",
            "scalability",
            "churn",
            "retrieval_load",
            "segmentation",
            "lifecycle_churn",
        } <= names

    def test_workload_tags(self):
        for name in ("churn", "retrieval_load", "segmentation", "lifecycle_churn"):
            assert "workload" in get_scenario(name).tags

    def test_trial_grids(self):
        churn = get_scenario("churn")
        assert len(churn.build_trials(resolve_params(churn, {"trials": 4}))) == 4

        retrieval = get_scenario("retrieval_load")
        trials = retrieval.build_trials(
            resolve_params(retrieval, {"rates": (1.0, 2.0), "trials": 3})
        )
        assert len(trials) == 6
        assert {trial["rate_per_s"] for trial in trials} == {1.0, 2.0}

        segmentation = get_scenario("segmentation")
        trials = segmentation.build_trials(
            resolve_params(
                segmentation,
                {"size_ratios": (0.5, 2.0), "limit_fractions": (0.25,), "trials": 2},
            )
        )
        assert len(trials) == 4


def _task(name, index=0, seed_root=0, **overrides):
    """A trial task the way the executor would construct it."""
    spec = get_scenario(name)
    params = resolve_params(spec, overrides)
    trial = dict(spec.build_trials(params)[index])
    trial["trial"] = index
    trial["seed"] = derive_trial_seed(seed_root, name, index)
    trial["root_seed"] = seed_root
    return trial


TINY_CHURN = dict(providers=3, sectors_per_provider=1, clients=1, files=2, cycles=3, trials=1)
TINY_RETRIEVAL = dict(
    providers=4, clients=2, files=4, requests=10, rates=(4.0,), trials=1, mean_kib=8
)
TINY_SEG = dict(size_ratios=(2.0,), limit_fractions=(0.5,), n_files=6, trials=1)
#: Flash crowds and the correlated-failure generator stay ON in the tiny
#: shape: the identity tests must hold with every event generator active.
TINY_LIFECYCLE = dict(
    providers=6,
    regions=2,
    files=8,
    horizon_s=150.0,
    mtbf_s=120.0,
    mttr_s=30.0,
    retrieval_rate=0.5,
    flash_crowds=1,
    regional_failures=1,
    departures=1,
    trials=1,
)


class TestChurn:
    def test_trial_reports_recovery_metrics(self):
        row = run_churn_trial(_task("churn", **TINY_CHURN))
        assert row["files_stored"] == 2
        assert 0.0 <= row["retrievable_fraction"] <= 1.0
        assert 0.0 <= row["replica_health"] <= 1.0
        assert row["providers"] >= row["healthy_providers"]
        assert row["joins"] + row["leaves"] + row["crashes"] >= 0

    def test_trial_is_deterministic_in_seed(self):
        assert run_churn_trial(_task("churn", **TINY_CHURN)) == run_churn_trial(
            _task("churn", **TINY_CHURN)
        )

    def test_no_churn_means_no_loss(self):
        task = _task(
            "churn", **dict(TINY_CHURN, join_rate=0.0, leave_rate=0.0, crash_rate=0.0)
        )
        row = run_churn_trial(task)
        assert row["crashes"] == row["leaves"] == row["joins"] == 0
        assert row["files_lost"] == 0
        assert row["retrievable_fraction"] == 1.0
        assert row["replica_health"] == 1.0

    def test_trial_frees_sealed_replicas_without_gc(self):
        # A trial's deployment must die by reference count: a reference
        # cycle would hold every sealed replica until a full collection,
        # so memory would grow with the number of trials in a process.
        def live():
            return sum(
                isinstance(obj, (SealedReplica, DSNScenario)) for obj in gc.get_objects()
            )

        task = _task("churn", **TINY_CHURN)
        gc.collect()
        gc.disable()
        try:
            before = live()
            run_churn_trial(task)
            after = live()
        finally:
            gc.enable()
        assert after == before

    def test_scenario_end_to_end_with_summary(self):
        manifest = run_scenario("churn", TINY_CHURN, workers=1, seed=1)
        assert manifest.trial_count == 1
        assert manifest.summary  # aggregator produced the mean row
        assert "retrievable_fraction_mean" in manifest.summary[0]


class TestRetrievalLoad:
    def test_trial_serves_requests_and_measures_latency(self):
        row = run_retrieval_trial(_task("retrieval_load", **TINY_RETRIEVAL))
        assert row["requests"] == 10
        assert row["served"] + row["unserved"] == 10
        assert row["served"] > 0
        assert row["latency_p95_s"] >= row["latency_p50_s"] >= 0
        assert row["dht_hops_mean"] >= 1
        assert row["bytes_served"] > 0

    def test_trial_is_deterministic_in_seed(self):
        task = _task("retrieval_load", **TINY_RETRIEVAL)
        assert run_retrieval_trial(task) == run_retrieval_trial(dict(task))

    def test_all_selfish_providers_serve_nothing(self):
        task = _task(
            "retrieval_load", **dict(TINY_RETRIEVAL, selfish_fraction=1.0)
        )
        row = run_retrieval_trial(task)
        assert row["served"] == 0
        assert row["unserved"] == row["requests"]
        assert row["bytes_served"] == 0
        # Unserved requests are deadline misses, not free passes.
        assert row["miss_rate"] == 1.0

    def test_higher_rate_does_not_lower_latency(self):
        slow = run_retrieval_trial(
            _task("retrieval_load", **dict(TINY_RETRIEVAL, rates=(0.5,), requests=20))
        )
        fast = run_retrieval_trial(
            _task("retrieval_load", **dict(TINY_RETRIEVAL, rates=(50.0,), requests=20))
        )
        assert fast["latency_mean_s"] >= slow["latency_mean_s"]

    def test_scenario_end_to_end_groups_by_rate(self):
        manifest = run_scenario(
            "retrieval_load",
            dict(TINY_RETRIEVAL, rates=(2.0, 8.0)),
            workers=1,
            seed=3,
        )
        assert manifest.trial_count == 2
        assert [row["rate_per_s"] for row in manifest.summary] == [2.0, 8.0]


class TestLifecycleChurn:
    def test_trial_reports_lifecycle_and_latency_metrics(self):
        row = run_lifecycle_churn_trial(_task("lifecycle_churn", **TINY_LIFECYCLE))
        assert row["files"] == 8
        assert row["files_placed"] + row["placement_failures"] <= row["files"]
        assert row["served"] + row["unserved"] == row["retrievals"]
        assert row["latency_p99_s"] >= row["latency_p50_s"] >= 0.0
        assert 0.0 <= row["miss_rate"] <= 1.0
        assert row["min_free_slots"] >= 0
        assert row["events_processed"] > 0

    def test_generators_fire_in_tiny_shape(self):
        row = run_lifecycle_churn_trial(_task("lifecycle_churn", **TINY_LIFECYCLE))
        assert row["regional_failures"] == 1
        assert row["provider_crashes"] > 0
        assert row["flash_retrievals"] > 0
        assert row["events_cancelled"] > 0

    def test_trial_is_deterministic_in_seed(self):
        task = _task("lifecycle_churn", **TINY_LIFECYCLE)
        assert run_lifecycle_churn_trial(task) == run_lifecycle_churn_trial(task)

    def test_quiet_shape_keeps_every_file(self):
        task = _task(
            "lifecycle_churn",
            **dict(
                TINY_LIFECYCLE,
                mtbf_s=1e9,
                regional_failures=0,
                departures=0,
                flash_crowds=0,
            ),
        )
        row = run_lifecycle_churn_trial(task)
        assert row["provider_crashes"] == 0
        assert row["files_lost"] == 0
        assert row["files_surviving"] == row["files_placed"]

    def test_scenario_end_to_end_with_summary(self):
        manifest = run_scenario("lifecycle_churn", TINY_LIFECYCLE, workers=1, seed=1)
        assert manifest.trial_count == 1
        assert "latency_p99_s_mean" in manifest.summary[0]


class TestBackendAndPoolIdentity:
    """Regression pack for the sampler kernelisation: end-to-end scenario
    rows must be byte-identical across kernel backends and across serial
    vs pooled execution."""

    TRIAL_FNS = {
        "churn": (run_churn_trial, TINY_CHURN),
        "retrieval_load": (run_retrieval_trial, TINY_RETRIEVAL),
        "segmentation": (run_segmentation_trial, TINY_SEG),
        "lifecycle_churn": (run_lifecycle_churn_trial, TINY_LIFECYCLE),
    }

    @pytest.mark.parametrize("name", sorted(TRIAL_FNS))
    def test_trial_rows_identical_across_backends(self, name):
        trial_fn, tiny = self.TRIAL_FNS[name]
        rows = {
            backend: trial_fn(_task(name, seed_root=4, **tiny, backend=backend))
            for backend in ("reference", "vectorized")
        }
        assert rows["reference"] == rows["vectorized"]

    @pytest.mark.parametrize("name", sorted(TRIAL_FNS))
    def test_manifest_rows_identical_across_backends(self, name):
        _, tiny = self.TRIAL_FNS[name]
        manifests = {
            backend: run_scenario(
                name, dict(tiny, backend=backend), workers=1, seed=6
            )
            for backend in ("reference", "vectorized")
        }
        assert jsonify(manifests["reference"].rows) == jsonify(
            manifests["vectorized"].rows
        )
        for backend, manifest in manifests.items():
            assert manifest.params["backend"] == backend

    @pytest.mark.parametrize("name", sorted(TRIAL_FNS))
    def test_serial_and_pooled_runs_identical(self, name):
        _, tiny = self.TRIAL_FNS[name]
        overrides = dict(tiny, trials=2)
        serial = run_scenario(name, overrides, workers=1, seed=9)
        pooled = run_scenario(name, overrides, workers=2, seed=9)
        assert serial.trial_rows_equal(pooled)

    def test_campaign_backend_sweep_serial_vs_pooled(self, tmp_path):
        """A campaign sweeping the backend axis: pooled execution matches
        serial execution cell for cell, and within each run the two
        backend cells carry identical rows."""
        from repro.campaign import plan_campaign, run_campaign
        from repro.campaign.spec import CampaignSpec, ScenarioEntry
        from repro.campaign.store import ResultStore

        spec = CampaignSpec(
            name="backend-sweep",
            entries=(
                ScenarioEntry(
                    scenario="churn",
                    params=dict(TINY_CHURN),
                    sweep={"backend": ("reference", "vectorized")},
                    seeds=(3,),
                ),
            ),
        )
        assert len(plan_campaign(spec)) == 2
        results = {}
        for label, workers in (("serial", 1), ("pooled", 2)):
            store = ResultStore(tmp_path / label)
            outcome = run_campaign(spec, store, workers=workers)
            results[label] = {
                cell.cell.params["backend"]: jsonify(cell.manifest.rows)
                for cell in outcome.outcomes
            }
        assert results["serial"] == results["pooled"]
        for rows_by_backend in results.values():
            assert rows_by_backend["reference"] == rows_by_backend["vectorized"]


class TestSegmentation:
    def test_trial_metrics(self):
        row = run_segmentation_trial(_task("segmentation", **TINY_SEG))
        assert row["roundtrip_ok"] is True
        assert row["coverage_min"] >= 1.0
        assert row["rs_n_mean"] >= row["rs_k_mean"] >= 1.0
        assert 1.0 <= row["overhead"] <= 2.5
        assert 0.0 <= row["alloc_fail_seg"] <= row["alloc_fail_raw"] <= 1.0

    def test_trial_is_deterministic_in_seed(self):
        task = _task("segmentation", **TINY_SEG)
        assert run_segmentation_trial(task) == run_segmentation_trial(dict(task))

    def test_oversized_files_fail_without_segmentation(self):
        row = run_segmentation_trial(
            _task("segmentation", **dict(TINY_SEG, size_ratios=(8.0,)))
        )
        # Whole files larger than a sector can never be placed raw.
        assert row["alloc_fail_raw"] > 0.5
        assert row["alloc_fail_seg"] < 0.1

    def test_scenario_end_to_end_marks_coverage(self):
        manifest = run_scenario("segmentation", TINY_SEG, workers=1, seed=2)
        assert manifest.summary
        assert all(row["covered"] for row in manifest.summary)
        # The RS round-trip integrity check surfaces in the summary.
        assert all(row["roundtrip_ok"] is True for row in manifest.summary)
