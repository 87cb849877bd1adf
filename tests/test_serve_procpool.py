"""Multi-process serving plane: artifact store, worker pool, swap storms.

The acceptance bars, mirroring ``test_serve_swap`` across process
boundaries:

* worker-process predicts are bit-for-bit the frozen model's labels;
* a swap storm (writer swapping every few milliseconds while many
  ``predict_async`` callers hammer the pool) produces zero failed predicts,
  no torn/missing model, and every answer consistent with a version that
  was live when the request was enqueued;
* ``close()`` is idempotent, safe with requests in flight, and later
  requests fail with a clean ``ServiceClosed`` -- never a hang.
"""

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro.core.adawave import AdaWave
from repro.serve import (
    ArtifactStore,
    ClusterModel,
    ModelRegistry,
    ProcessPoolService,
    ServiceClosed,
)

BOUNDS = ([0.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="module")
def corpus():
    """Two distinguishable models plus a query set they disagree on."""
    rng = np.random.default_rng(29)
    models = []
    for offset in (0.25, 0.65):
        blob = np.clip(rng.normal(offset, 0.04, size=(1500, 2)), 0.0, 1.0)
        noise = rng.uniform(size=(2500, 2))
        X = np.vstack([blob, noise])
        models.append(AdaWave(scale=64, bounds=BOUNDS).fit(X).export_model())
    queries = rng.uniform(size=(400, 2))
    expected = [model.predict(queries) for model in models]
    assert not np.array_equal(expected[0], expected[1])
    return models, queries, expected


class TestArtifactStore:
    def test_publish_is_content_addressed_and_idempotent(self, corpus, tmp_path):
        models, queries, expected = corpus
        store = ArtifactStore(tmp_path)
        digest = store.publish(models[0])
        assert digest == models[0].content_digest()
        assert store.publish(models[0]) == digest  # no second file
        assert store.digests() == [digest]
        assert digest in store
        served = store.load(digest)
        np.testing.assert_array_equal(served.predict(queries), expected[0])

    def test_distinct_models_get_distinct_digests(self, corpus, tmp_path):
        models, _, _ = corpus
        store = ArtifactStore(tmp_path)
        digests = {store.publish(model) for model in models}
        assert len(digests) == 2
        assert store.digests() == sorted(digests)

    def test_missing_digest_raises_keyerror(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(KeyError, match="not in the store"):
            store.load("deadbeef")

    def test_gc_keeps_only_named_digests(self, corpus, tmp_path):
        models, _, _ = corpus
        store = ArtifactStore(tmp_path)
        keep = store.publish(models[0])
        drop = store.publish(models[1])
        assert store.gc([keep]) == [drop]
        assert store.digests() == [keep]

    def test_load_racing_gc_raises_actionable_keyerror(self, corpus, tmp_path, monkeypatch):
        """A digest can pass ``in store`` and be unlinked before the open lands.

        The open is retried once (a transient unlink mid-``np.load`` is
        indistinguishable from a slow republish) and then surfaced as the
        same actionable ``KeyError`` a never-present digest gets -- callers
        must never see a raw ``FileNotFoundError`` from the race.
        """
        models, _, _ = corpus
        store = ArtifactStore(tmp_path)
        digest = store.publish(models[0])
        assert digest in store

        real_load = ClusterModel.load

        def racing_load(path, *args, **kwargs):
            # Concurrent gc() unlinks between the existence check and the open.
            store.path(digest).unlink(missing_ok=True)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(ClusterModel, "load", staticmethod(racing_load))
        with pytest.raises(KeyError, match="concurrent gc"):
            store.load(digest)

    def test_load_survives_one_transient_vanish(self, corpus, tmp_path, monkeypatch):
        models, queries, expected = corpus
        store = ArtifactStore(tmp_path)
        digest = store.publish(models[0])
        real_load = ClusterModel.load
        calls = []

        def flaky_load(path, *args, **kwargs):
            if not calls:
                calls.append("raced")
                raise FileNotFoundError(path)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(ClusterModel, "load", staticmethod(flaky_load))
        served = store.load(digest)
        assert calls == ["raced"]
        np.testing.assert_array_equal(served.predict(queries), expected[0])

    def test_evict_stale_garbage_collects_store_files(self, corpus, tmp_path):
        """TTL eviction must release npz files, keeping live + pinned digests."""
        models, _, _ = corpus
        now = [0.0]
        store = ArtifactStore(tmp_path)
        registry = ModelRegistry(
            ttl_seconds=10.0, clock=lambda: now[0], store=store
        )
        registry.swap("live", models[0])
        now[0] = 5.0
        registry.swap("live", models[1])  # v1 superseded at t=5
        assert set(store.digests()) == {
            models[0].content_digest(), models[1].content_digest()
        }
        now[0] = 20.0  # v1 is 20s old (stale); v2 is live
        assert registry.evict_stale() == ["live@v1"]
        assert store.digests() == [models[1].content_digest()]
        assert registry.digest("live") == models[1].content_digest()

    def test_evict_stale_keeps_files_still_referenced_elsewhere(self, corpus, tmp_path):
        """A digest evicted under one name but bound under another survives gc."""
        models, _, _ = corpus
        now = [0.0]
        store = ArtifactStore(tmp_path)
        registry = ModelRegistry(
            ttl_seconds=10.0, clock=lambda: now[0], store=store
        )
        registry.swap("live", models[0])
        registry.register("pinned", models[0])  # same artifact, second binding
        now[0] = 5.0
        registry.swap("live", models[1])
        now[0] = 20.0
        assert registry.evict_stale() == ["live@v1"]
        # models[0]'s file survives: "pinned" still resolves to it.
        assert set(store.digests()) == {
            models[0].content_digest(), models[1].content_digest()
        }

    def test_registry_with_store_records_digests(self, corpus, tmp_path):
        models, _, _ = corpus
        store = ArtifactStore(tmp_path)
        registry = ModelRegistry(store=store)
        version = registry.swap("live", models[0])
        digest = models[0].content_digest()
        assert registry.digest("live") == digest
        assert registry.digest(version) == digest
        assert digest in store
        registry.register("pinned", models[1])
        assert registry.digest("pinned") == models[1].content_digest()

    def test_concurrent_publishers_of_one_model_never_collide(self, corpus, tmp_path):
        """Racing publishers (re-tune swap vs user register) must all succeed
        and leave exactly one intact artifact -- no torn file, no crash."""
        models, queries, expected = corpus
        store = ArtifactStore(tmp_path)
        barrier = threading.Barrier(4)
        errors = []

        def publisher():
            try:
                barrier.wait()
                for _ in range(25):
                    store.publish(models[0])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=publisher) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.digests() == [models[0].content_digest()]
        np.testing.assert_array_equal(
            store.load(models[0].content_digest()).predict(queries), expected[0]
        )
        assert list(tmp_path.glob("*.tmp")) == []  # no scratch litter

    def test_mismatched_registry_store_is_rejected(self, corpus, tmp_path):
        models, _, _ = corpus
        foreign = ModelRegistry(store=ArtifactStore(tmp_path / "elsewhere"))
        with pytest.raises(ValueError, match="different artifact store"):
            ProcessPoolService(tmp_path / "store", n_workers=1, registry=foreign)
        # Same directory (even via a distinct ArtifactStore object) is fine.
        shared = ModelRegistry(store=ArtifactStore(tmp_path / "store"))
        with ProcessPoolService(
            tmp_path / "store", n_workers=1, registry=shared
        ) as service:
            service.register("live", models[0])
            assert service.registry is shared

    def test_content_digest_survives_save_load_roundtrip(self, corpus, tmp_path):
        models, _, _ = corpus
        path = models[0].save(tmp_path / "artifact.npz", compress=False)
        assert ClusterModel.load(path).content_digest() == models[0].content_digest()
        assert (
            ClusterModel.load(path, mmap=True).content_digest()
            == models[0].content_digest()
        )

    def test_refits_of_the_same_data_share_one_artifact(self, tmp_path):
        rng = np.random.default_rng(5)
        blob = np.clip(rng.normal(0.4, 0.04, size=(1500, 2)), 0.0, 1.0)
        X = np.vstack([blob, rng.uniform(size=(2500, 2))])
        first, second = (
            AdaWave(scale=64, bounds=BOUNDS).fit(X).export_model() for _ in range(2)
        )
        np.testing.assert_array_equal(first.cell_labels, second.cell_labels)
        assert first.content_digest() == second.content_digest()
        store = ArtifactStore(tmp_path)
        digest = store.publish(first)
        assert store.publish(second) == digest
        assert store.digests() == [digest]
        # The timings stay in the saved header; only the digest skips them.
        assert store.load(digest).metadata["stage_seconds"] == (
            first.metadata["stage_seconds"]
        )
        retuned = ClusterModel(
            lower=first.lower, upper=first.upper, grid_shape=first.grid_shape,
            level=first.level, threshold=first.threshold,
            cell_coords=first.cell_coords, cell_labels=first.cell_labels,
            n_clusters=first.n_clusters,
            metadata={**first.metadata, "retune_stage_seconds": {"publish": 1.0}},
        )
        assert retuned.content_digest() == digest
        # A different cell map is a different model.
        relabelled = ClusterModel(
            lower=first.lower, upper=first.upper, grid_shape=first.grid_shape,
            level=first.level, threshold=first.threshold,
            cell_coords=first.cell_coords[:-1], cell_labels=first.cell_labels[:-1],
            n_clusters=first.n_clusters, metadata=first.metadata,
        )
        assert relabelled.content_digest() != digest


class TestProcessPoolService:
    def test_predict_matches_model_bit_for_bit(self, corpus, tmp_path):
        models, queries, expected = corpus
        with ProcessPoolService(tmp_path, n_workers=2) as service:
            service.register("live", models[0])
            np.testing.assert_array_equal(service.predict("live", queries), expected[0])
            # Micro-batch bookkeeping still ticks across the process boundary.
            assert service.n_requests_ == 1
            assert service.n_batches_ == 1

    def test_unknown_model_fails_fast(self, corpus, tmp_path):
        models, queries, _ = corpus
        with ProcessPoolService(tmp_path, n_workers=1) as service:
            service.register("live", models[0])
            with pytest.raises(KeyError, match="missing"):
                service.predict("missing", queries)

    def test_invalid_input_error_propagates_from_worker(self, corpus, tmp_path):
        models, _, _ = corpus
        with ProcessPoolService(tmp_path, n_workers=1) as service:
            service.register("live", models[0])
            with pytest.raises(ValueError):
                service.predict("live", np.zeros((5, 7)))  # wrong width
            # The worker survives a bad request and keeps serving.
            queries = np.random.default_rng(0).uniform(size=(50, 2))
            np.testing.assert_array_equal(
                service.predict("live", queries), models[0].predict(queries)
            )

    def test_swap_switches_served_version(self, corpus, tmp_path):
        models, queries, expected = corpus
        with ProcessPoolService(tmp_path, n_workers=2) as service:
            service.register("live", models[0])
            np.testing.assert_array_equal(service.predict("live", queries), expected[0])
            version = service.swap("live", models[1])
            assert version == "live@v1"
            # A predict enqueued after swap() returns always sees the new
            # version: the bind rides the same FIFO queues.
            np.testing.assert_array_equal(service.predict("live", queries), expected[1])
            np.testing.assert_array_equal(
                service.predict("live@v1", queries), expected[1]
            )

    def test_concurrent_callers_coalesce_and_match(self, corpus, tmp_path):
        models, queries, expected = corpus
        with ProcessPoolService(tmp_path, n_workers=2) as service:
            service.register("live", models[0])
            errors = []

            def caller():
                try:
                    for _ in range(10):
                        np.testing.assert_array_equal(
                            service.predict("live", queries), expected[0]
                        )
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=caller) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert service.n_requests_ == 60
            # At least some requests rode along in a coalesced batch.
            assert service.n_batches_ <= service.n_requests_
            snapshot = service.telemetry.snapshot()
            assert snapshot["predict"]["live"]["rows"] == 60 * len(queries)

    def test_load_serves_artifact_from_disk(self, corpus, tmp_path):
        models, queries, expected = corpus
        path = models[1].save(tmp_path / "frozen.npz", compress=False)
        with ProcessPoolService(tmp_path / "store", n_workers=1) as service:
            service.load("live", path)
            np.testing.assert_array_equal(service.predict("live", queries), expected[1])


class TestCloseSemantics:
    def test_close_is_idempotent_and_raises_service_closed(self, corpus, tmp_path):
        models, queries, _ = corpus
        service = ProcessPoolService(tmp_path, n_workers=1)
        service.register("live", models[0])
        service.predict("live", queries)
        service.close()
        service.close()  # double-close must be a no-op
        assert service.closed
        with pytest.raises(ServiceClosed, match="closed"):
            service.predict("live", queries)
        with pytest.raises(ServiceClosed, match="closed"):
            service.submit("live", queries)

    def test_close_with_async_requests_in_flight_never_hangs(self, corpus, tmp_path):
        """Requests racing close() either resolve exactly or fail cleanly."""
        models, queries, expected = corpus
        service = ProcessPoolService(tmp_path, n_workers=2)
        service.register("live", models[0])
        outcomes = []

        async def main():
            async def one(index):
                try:
                    labels = await service.predict_async("live", queries)
                    outcomes.append(np.array_equal(labels, expected[0]))
                except (ServiceClosed, RuntimeError):
                    outcomes.append("rejected")

            tasks = [asyncio.ensure_future(one(i)) for i in range(12)]
            await asyncio.sleep(0.01)
            closer = asyncio.get_running_loop().run_in_executor(None, service.close)
            await asyncio.gather(*tasks)
            await closer

        asyncio.run(asyncio.wait_for(main(), timeout=30.0))
        assert service.closed
        assert len(outcomes) == 12  # nothing hung or vanished
        assert all(done is True or done == "rejected" for done in outcomes)

    def test_workers_are_gone_after_close(self, corpus, tmp_path):
        models, _, _ = corpus
        service = ProcessPoolService(tmp_path, n_workers=2)
        service.register("live", models[0])
        assert all(service.pool.alive())
        service.close()
        assert not any(service.pool.alive())


class TestSwapStorm:
    def test_swap_storm_never_fails_or_tears_across_processes(self, corpus, tmp_path):
        """Writer swaps every few ms; async readers through worker processes.

        Zero failed predicts, and every answer must equal one of the two
        registered artifacts' answers bit-for-bit -- a torn or missing model
        would produce something else.
        """
        models, queries, expected = corpus
        service = ProcessPoolService(
            tmp_path, n_workers=2, registry=ModelRegistry(max_versions=3)
        )
        service.register("live", models[0])
        stop = threading.Event()
        swaps = [0]

        def swapper():
            flip = 0
            # Bounded so a slow host cannot blow the version counter into
            # the tens of thousands while readers make progress.
            while not stop.is_set() and swaps[0] < 500:
                flip ^= 1
                service.swap("live", models[flip])
                swaps[0] += 1
                time.sleep(0.002)

        writer = threading.Thread(target=swapper)
        writer.start()
        try:
            async def main():
                results = await asyncio.gather(
                    *(service.predict_async("live", queries) for _ in range(120))
                )
                return list(results)

            results = asyncio.run(asyncio.wait_for(main(), timeout=60.0))
        finally:
            stop.set()
            writer.join()

        assert len(results) == 120  # zero failed or dropped predicts
        torn = [
            labels
            for labels in results
            if not any(np.array_equal(labels, want) for want in expected)
        ]
        assert torn == []
        assert swaps[0] >= 3  # the storm actually stormed
        assert all(service.pool.alive())
        snapshot = service.telemetry.snapshot()
        assert snapshot["swaps"]["count"] == swaps[0]
        assert snapshot["swaps"]["by_name"] == {"live": swaps[0]}
        service.close()


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="per-worker CPU pinning requires os.sched_setaffinity",
)
class TestWorkerPinning:
    def test_pin_workers_assigns_round_robin_cpus(self, tmp_path):
        from repro.serve.procpool import ProcessWorkerPool

        allowed = sorted(os.sched_getaffinity(0))
        pool = ProcessWorkerPool(tmp_path, 2, pin_workers=True)
        try:
            pinned = pool.pinned()
            assert set(pinned) == {0, 1}
            for index, cpu in pinned.items():
                assert cpu == allowed[index % len(allowed)]
                # The kernel agrees: the worker really is confined to its CPU.
                assert os.sched_getaffinity(pool.processes[index].pid) == {cpu}
        finally:
            pool.close()

    def test_pinning_off_by_default(self, tmp_path):
        from repro.serve.procpool import ProcessWorkerPool

        pool = ProcessWorkerPool(tmp_path, 2)
        try:
            assert pool.pinned() == {}
            assert pool.pinned_cpus == [None, None]
        finally:
            pool.close()

    def test_respawned_worker_is_repinned(self, tmp_path):
        import signal

        from repro.serve.procpool import ProcessWorkerPool

        pool = ProcessWorkerPool(tmp_path, 2, pin_workers=True)
        try:
            original = pool.pinned()[0]
            victim = pool.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while victim.is_alive() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not victim.is_alive(), "SIGKILL never landed"
            assert pool.respawn(0) == 1
            assert pool.pinned()[0] == original
            assert os.sched_getaffinity(pool.processes[0].pid) == {original}
        finally:
            pool.close()

    def test_service_surfaces_pins_in_telemetry_and_still_serves(
        self, corpus, tmp_path
    ):
        models, queries, expected = corpus
        service = ProcessPoolService(tmp_path, n_workers=2, pin_workers=True)
        try:
            workers = service.telemetry.snapshot()["workers"]
            assert set(workers["pinned"]) == {0, 1}
            assert workers["pinned"] == service.pool.pinned()
            service.register("pinned-model", models[0])
            np.testing.assert_array_equal(
                service.predict("pinned-model", queries), expected[0]
            )
        finally:
            service.close()
