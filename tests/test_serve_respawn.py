"""Self-healing worker pool: crashes cost in-flight batches, never capacity.

The acceptance bars from the dead-worker issue:

* **chaos**: with 2+ workers and traffic flowing, SIGKILL one worker
  mid-traffic -- zero silent wrong answers (every successful future is
  bit-for-bit the model's labels; the killed worker's in-flight batches
  fail fast with an explicit error), capacity returns to the full worker
  count, the respawn shows up in telemetry, and a *subsequent* blue/green
  swap is honored by the respawned worker;
* kill -9 during model binding still converges: the respawned worker
  replays the pool's name -> digest bindings from the store and answers
  correctly;
* the double-resolution race (watchdog dooming a request whose answer is
  simultaneously in the collector's queue) resolves every future exactly
  once and never double-counts telemetry: ``n_requests_`` equals the number
  of futures that actually succeeded.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.adawave import AdaWave
from repro.serve import ProcessPoolService

BOUNDS = ([0.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="module")
def corpus():
    """Two distinguishable models plus a query set they disagree on."""
    rng = np.random.default_rng(31)
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


def _wait_for(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _kill_worker(service, index=0):
    process = service.pool.processes[index]
    pid = process.pid
    os.kill(pid, signal.SIGKILL)
    _wait_for(lambda: not process.is_alive(), message="SIGKILL to land")
    return pid


class TestRespawn:
    def test_chaos_kill_mid_traffic_restores_capacity(self, corpus, tmp_path):
        models, queries, expected = corpus
        service = ProcessPoolService(
            tmp_path, n_workers=2, worker_timeout=5.0, max_batch_requests=4
        )
        try:
            service.register("prod", models[0])
            stop = threading.Event()
            outcomes = []  # (labels-or-None, error-or-None), appended under lock
            outcomes_lock = threading.Lock()

            def driver():
                rng = np.random.default_rng(threading.get_ident() % 2**32)
                while not stop.is_set():
                    start = rng.integers(0, 300)
                    X = queries[start : start + 40]
                    want = expected[0][start : start + 40]
                    try:
                        got = service.predict("prod", X)
                        with outcomes_lock:
                            outcomes.append((got, want, None))
                    except Exception as error:
                        with outcomes_lock:
                            outcomes.append((None, None, error))

            drivers = [threading.Thread(target=driver) for _ in range(3)]
            for thread in drivers:
                thread.start()
            time.sleep(0.3)  # traffic flowing
            killed_pid = _kill_worker(service, index=0)
            # Keep traffic flowing through the death and the respawn.
            _wait_for(
                lambda: service.pool.respawns >= 1 and all(service.pool.alive()),
                message="respawn to restore capacity",
            )
            time.sleep(0.3)
            stop.set()
            for thread in drivers:
                thread.join(timeout=15.0)
                assert not thread.is_alive(), "driver thread hung"

            # Zero silent wrong answers: every success is exact.
            successes = 0
            for got, want, error in outcomes:
                if error is None:
                    np.testing.assert_array_equal(got, want)
                    successes += 1
                else:
                    assert "died" in str(error) or "no live worker" in str(error)
            assert successes > 0, "chaos run produced no successful predicts"

            # Capacity is back: a fresh process serves the old slot.
            assert all(service.pool.alive())
            assert service.pool.processes[0].pid != killed_pid
            snapshot = service.telemetry.snapshot()["workers"]
            assert snapshot["respawns"] >= 1
            assert snapshot["by_worker"].get(0, 0) >= 1

            # A swap *after* the crash must be honored by the respawned
            # worker: drive enough round-robin requests to hit both workers.
            service.swap("prod", models[1])
            for start in range(0, 200, 25):
                X = queries[start : start + 25]
                np.testing.assert_array_equal(
                    service.predict("prod", X), expected[1][start : start + 25]
                )
        finally:
            service.close()

    def test_kill_during_bind_replays_bindings(self, corpus, tmp_path):
        """SIGKILL racing the initial model load still converges via replay."""
        models, queries, expected = corpus
        service = ProcessPoolService(tmp_path, n_workers=2, worker_timeout=5.0)
        try:
            # Fire the bind broadcast and kill immediately: the worker is
            # likely mid-load (or has not even dequeued the bind yet).
            service.register("prod", models[0])
            _kill_worker(service, index=0)
            _wait_for(
                lambda: service.pool.respawns >= 1 and all(service.pool.alive()),
                message="respawn after mid-bind kill",
            )
            # Every worker (the respawned one included, via round-robin)
            # must answer from the replayed binding.
            for start in range(0, 160, 20):
                X = queries[start : start + 20]
                np.testing.assert_array_equal(
                    service.predict("prod", X), expected[0][start : start + 20]
                )
            assert service.pool.bindings().keys() == {"prod"}
        finally:
            service.close()

    def test_in_flight_batches_fail_fast_not_hang(self, corpus, tmp_path):
        models, queries, expected = corpus
        service = ProcessPoolService(
            tmp_path, n_workers=1, worker_timeout=5.0, respawn_workers=False
        )
        try:
            service.register("prod", models[0])
            service.predict("prod", queries[:10])  # worker is warm
            futures = [service.submit("prod", queries[:50]) for _ in range(4)]
            _kill_worker(service, index=0)
            for future in futures:
                # Either answered before the kill or failed fast -- never hung.
                try:
                    labels = future.result(timeout=10.0)
                    np.testing.assert_array_equal(labels, expected[0][:50])
                except RuntimeError as error:
                    assert "died" in str(error)
            assert service.pool.respawns == 0  # respawn_workers=False honored
        finally:
            service.close()

    def test_dispatch_after_every_worker_died_names_the_deaths(
        self, corpus, tmp_path
    ):
        """A request dispatched once no worker is left fails with an error
        that says the workers died, with their exit codes."""
        models, queries, _expected = corpus
        service = ProcessPoolService(
            tmp_path, n_workers=1, worker_timeout=5.0, respawn_workers=False
        )
        try:
            service.register("prod", models[0])
            _kill_worker(service, index=0)
            with pytest.raises(RuntimeError, match=r"died \(exitcodes \[-9\]\)"):
                service.predict("prod", queries[:10])
        finally:
            service.close()

    def test_double_resolution_stress_counts_each_request_once(
        self, corpus, tmp_path
    ):
        """Watchdog and collector racing on the same request id is benign.

        Repeated kill-under-load rounds maximise the window where a worker's
        answer sits in the result queue while the watchdog dooms the same
        request id.  Whoever loses the race must be a no-op: every future
        completes exactly once, and the service counts exactly the requests
        that succeeded (a double resolution would double-count
        ``n_requests_`` or crash a daemon thread).
        """
        models, queries, expected = corpus
        service = ProcessPoolService(
            tmp_path, n_workers=2, worker_timeout=5.0, max_batch_requests=2
        )
        try:
            service.register("prod", models[0])
            all_futures = []
            for round_index in range(3):
                futures = [
                    service.submit("prod", queries[:30]) for _ in range(12)
                ]
                all_futures.extend(futures)
                _kill_worker(service, index=round_index % 2)
                _wait_for(
                    lambda: all(service.pool.alive()),
                    message="capacity after stress round",
                )
            successes = 0
            for future in all_futures:
                assert future.done() or future.result(timeout=10.0) is not None
                if future.exception(timeout=10.0) is None:
                    np.testing.assert_array_equal(
                        future.result(), expected[0][:30]
                    )
                    successes += 1
            # Exactly-once accounting: only successful requests are counted,
            # and none is counted twice.
            assert service.n_requests_ == successes
            assert service.telemetry.snapshot()["workers"]["respawns"] >= 3
        finally:
            service.close()
