"""Serve-run store tests: publication atomicity, half-published
invisibility, and concurrent publishers of one key."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.perf.store import MANIFEST, Store

KEY = "ab" + "0" * 62
ARTIFACTS = {"report.txt": b"table\n", "run.json": b'{"schema": "repro-run/1"}\n'}


class TestPublishGet:
    def test_roundtrip(self, tmp_path):
        store = Store(tmp_path)
        assert store.publish(KEY, ARTIFACTS, {"experiment": "fig8"})
        got = store.get(KEY)
        assert sorted(got.files) == ["report.txt", "run.json"]
        assert got.key == KEY
        assert got.meta["experiment"] == "fig8"
        assert store.get(KEY).files["report.txt"] == b"table\n"
        assert list(store.keys()) == [KEY]
        assert store.count() == 1

    def test_absent_key_is_none(self, tmp_path):
        assert Store(tmp_path).get("ff" + "0" * 62) is None

    def test_missing_artifact_hides_run(self, tmp_path):
        store = Store(tmp_path)
        store.publish(KEY, ARTIFACTS)
        (store.path(KEY) / "report.txt").unlink()
        assert store.get(KEY) is None  # half-destroyed run = absent
        assert store.get(KEY) is None

    def test_corrupt_entry_hides_run(self, tmp_path):
        store = Store(tmp_path)
        store.publish(KEY, ARTIFACTS)
        (store.path(KEY) / MANIFEST).write_bytes(b"not json")
        assert store.get(KEY) is None

    def test_entry_without_artifacts_is_invisible(self, tmp_path):
        # a run directory without its manifest (damaged, or written by
        # hand): the run does not exist
        store = Store(tmp_path)
        run_dir = store.path(KEY)
        run_dir.mkdir(parents=True)
        (run_dir / "report.txt").write_bytes(b"orphan")
        assert store.get(KEY) is None
        assert store.count() == 0

    def test_reserved_and_bad_names_rejected(self, tmp_path):
        store = Store(tmp_path)
        with pytest.raises(ValueError):
            store.publish(KEY, {MANIFEST: b"x"})
        with pytest.raises(ValueError):
            store.publish(KEY, {"../escape": b"x"})
        with pytest.raises(ValueError):
            store.publish(KEY, {".hidden": b"x"})

    def test_read_unknown_artifact_raises(self, tmp_path):
        store = Store(tmp_path)
        store.publish(KEY, ARTIFACTS)
        with pytest.raises(KeyError):
            store.get(KEY).files["nope.bin"]


class TestConcurrentPublishers:
    def test_many_threads_one_key_always_consistent(self, tmp_path):
        """Two jobs materializing the same run concurrently must never
        leave a torn or mixed entry: every publisher writes the same
        deterministic bytes, and one atomic rename per entry means
        readers only ever see complete artifacts."""
        store = Store(tmp_path)
        n_threads, n_rounds = 8, 25
        errors: list[BaseException] = []
        start = threading.Barrier(n_threads)

        def hammer():
            try:
                start.wait()
                for _ in range(n_rounds):
                    store.publish(KEY, ARTIFACTS, {"experiment": "x"})
                    entry = store.get(KEY)
                    assert entry is not None
                    for name, blob in ARTIFACTS.items():
                        assert store.get(KEY).files[name] == blob
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        # exactly one coherent published run, no leftover temp files
        assert store.count() == 1
        leftovers = [p for p in store.path(KEY).parent.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []
        blob = (store.path(KEY) / MANIFEST).read_bytes()
        entry = json.loads(blob.partition(b"\n")[2])
        assert entry["key"] == KEY

    def test_many_threads_one_key_with_concurrent_gc(self, tmp_path):
        """gc racing the publishers never breaks a publish or a read: a
        reader sees the whole run or none, and gc never deletes a live
        publisher's temp directory."""
        store = Store(tmp_path)
        n_threads, n_rounds = 6, 25
        errors: list[BaseException] = []
        done = threading.Event()

        def hammer():
            try:
                for _ in range(n_rounds):
                    store.publish(KEY, ARTIFACTS, {"experiment": "x"})
                    entry = store.get(KEY)
                    assert entry is None or entry.files == ARTIFACTS
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        def collect():
            while not done.is_set():
                Store(tmp_path).gc(everything=True)

        gc_thread = threading.Thread(target=collect)
        gc_thread.start()
        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        done.set()
        gc_thread.join(60.0)
        assert not errors
        assert store.stats.corrupt == 0
        assert store.publish(KEY, ARTIFACTS) or store.get(KEY) is not None
        assert store.get(KEY).files == ARTIFACTS
        assert list(tmp_path.rglob("*.tmp")) == []


class TestCorruptRunIsNeverServed:
    def test_flipped_report_byte_reads_absent_and_recomputes(self, tmp_path):
        from repro.serve.api import ServeApp
        from repro.serve.orchestrator import DONE, JobOrchestrator

        class Executor:
            runs = 0

            def key_for(self, spec):
                return KEY

            def execute(self, spec, should_cancel):
                Executor.runs += 1
                return {"experiment": "fig8"}, dict(ARTIFACTS)

        store = Store(tmp_path)
        orch = JobOrchestrator(Executor(), store, workers=1)
        app = ServeApp(orch, store)
        orch.start()
        try:
            def finished(job):
                deadline = time.monotonic() + 30.0
                while orch.get(job.id).state != DONE:
                    assert time.monotonic() < deadline, orch.get(job.id).state
                    time.sleep(0.01)
                return job

            first = finished(orch.submit({"experiment": "fig8"}))
            report = store.path(KEY) / "report.txt"
            flipped = bytes([report.read_bytes()[0] ^ 0x01]) + b"able\n"
            report.write_bytes(flipped)
            url = f"/v1/jobs/{first.id}/artifacts/report.txt"
            resp = app.handle("GET", url)
            assert resp.status == 404
            assert flipped not in resp.body
            assert store.get(KEY) is None
            assert store.stats.corrupt == 1
            assert app.handle("GET", f"/v1/jobs/{first.id}/artifacts").status == 409
            # the resubmission is not a dedup hit: it recomputes and
            # republishes the run
            second = finished(orch.submit({"experiment": "fig8"}))
            assert not second.dedup
            assert Executor.runs == 2
            resp = app.handle("GET", f"/v1/jobs/{second.id}/artifacts/report.txt")
            assert resp.status == 200 and resp.body == ARTIFACTS["report.txt"]
        finally:
            orch.shutdown(drain=False, timeout=10.0)
