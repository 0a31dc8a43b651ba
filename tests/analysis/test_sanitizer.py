"""Runtime lock-order sanitizer: online inversion detection (the
acceptance-criteria deliberate two-lock inversion, with both stacks),
reentrancy, cross-thread order merging, the event ring buffer, the env
gate, and the merged JSON artifact."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.analysis.concurrency import sanitizer
from repro.analysis.concurrency.order import LockOrderGraph
from repro.errors import LockOrderError


@pytest.fixture(autouse=True)
def sanitize_on(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.delenv("REPRO_SANITIZE_ARTIFACT", raising=False)
    sanitizer.reset()
    yield
    sanitizer.reset()


class TestInversionDetection:
    def test_deliberate_two_lock_inversion_raises_with_both_stacks(self):
        """The acceptance-criteria scenario: A->B recorded, then B->A."""
        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError) as excinfo:
                with a:
                    pass
        err = excinfo.value
        assert set(err.cycle) == {"test:A", "test:B"}
        # Both stacks: the acquisition that closed the cycle and the
        # previously recorded opposing edge.
        assert len(err.stacks) == 2
        assert all("test_sanitizer" in s for s in err.stacks)
        assert "test:A" in str(err) and "test:B" in str(err)
        assert "current acquisition stack" in str(err)
        assert "previously recorded stack" in str(err)

    def test_error_is_picklable(self):
        import pickle

        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError) as excinfo:
                a.acquire()
        back = pickle.loads(pickle.dumps(excinfo.value))
        assert back.cycle == excinfo.value.cycle
        assert back.stacks == excinfo.value.stacks

    def test_detection_precedes_acquisition(self):
        """The error fires before the inner lock is taken, so the with
        block is never entered and nothing leaks held."""
        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError):
                with a:
                    raise AssertionError("body must not run")
        # The failed acquisition left no held-state behind: taking the
        # locks in the recorded (legal) order still works.
        with a:
            with b:
                pass

    def test_cross_thread_order_merges(self):
        """An order recorded by one thread constrains every other."""
        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")

        def record_ab():
            with a:
                with b:
                    pass

        t = threading.Thread(target=record_ab)
        t.start()
        t.join()
        with b:
            with pytest.raises(LockOrderError):
                a.acquire()

    def test_three_lock_cycle_detected(self):
        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")
        c = sanitizer.SanitizedLock("test:C")
        with a, b:
            pass
        with b, c:
            pass
        with c:
            with pytest.raises(LockOrderError) as excinfo:
                a.acquire()
        assert set(excinfo.value.cycle) == {"test:A", "test:B", "test:C"}


class TestReentrancyAndClasses:
    def test_rlock_reentrance_is_not_a_cycle(self):
        a = sanitizer.SanitizedLock("test:A")
        with a:
            with a:  # same instance: RLock semantics, no self-edge
                pass
        assert sanitizer.current_graph().edges() == []

    def test_same_class_distinct_instances_no_self_edge(self):
        # Lock classes are graph nodes; nesting two instances of one
        # class must not self-cycle (shard locks never nest in the
        # runtime, but the sanitizer must not explode if a test does it).
        s1 = sanitizer.SanitizedLock("test:shard")
        s2 = sanitizer.SanitizedLock("test:shard")
        with s1:
            with s2:
                pass
        assert sanitizer.current_graph().edges() == []

    def test_nonblocking_acquire_failure_unwinds(self):
        a = sanitizer.SanitizedLock("test:A", threading.Lock())
        got = []

        def hold_then_release(ready, release):
            a.acquire()
            ready.set()
            release.wait(5)
            a.release()

        ready, release = threading.Event(), threading.Event()
        t = threading.Thread(target=hold_then_release, args=(ready, release))
        t.start()
        ready.wait(5)
        got.append(a.acquire(blocking=False))
        release.set()
        t.join()
        assert got == [False]
        # The failed acquire rolled its note back: no phantom holder.
        b = sanitizer.SanitizedLock("test:B")
        with b:
            pass
        assert sanitizer.current_graph().edges() == []


class TestRingBuffer:
    def test_events_recorded_in_order(self):
        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")
        with a:
            with b:
                pass
        ops = [(op, lock) for _, _, _, op, lock in sanitizer.recent_events()]
        assert ops == [("acquire", "test:A"), ("acquire", "test:B"),
                       ("release", "test:B"), ("release", "test:A")]

    def test_ring_is_bounded(self):
        sanitizer.reset(ring_size=8)
        a = sanitizer.SanitizedLock("test:A")
        for _ in range(50):
            with a:
                pass
        events = sanitizer.recent_events()
        assert len(events) == 8
        # Newest events survive (monotonic sequence numbers).
        seqs = [e[0] for e in events]
        assert seqs == sorted(seqs)

    def test_limit_returns_newest(self):
        a = sanitizer.SanitizedLock("test:A")
        with a:
            pass
        assert len(sanitizer.recent_events(limit=1)) == 1
        assert sanitizer.recent_events(limit=1)[0][3] == "release"


class TestEnvGate:
    def test_disabled_records_nothing_and_never_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")
        with a:
            with b:
                pass
        with b:
            with a:  # inverted: fine, sanitizer is off
                pass
        assert sanitizer.current_graph().edges() == []
        assert sanitizer.recent_events() == []

    def test_falsy_spellings(self, monkeypatch):
        from repro.config import sanitize_enabled

        for off in ("", "0", "false", "no", "off", " OFF "):
            monkeypatch.setenv("REPRO_SANITIZE", off)
            assert not sanitize_enabled()
        for on in ("1", "true", "yes", "on"):
            monkeypatch.setenv("REPRO_SANITIZE", on)
            assert sanitize_enabled()


class TestArtifact:
    def test_dump_and_cross_process_style_merge(self, tmp_path, monkeypatch):
        art = tmp_path / "lock_order_graph.json"
        monkeypatch.setenv("REPRO_SANITIZE_ARTIFACT", str(art))
        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")
        with a:
            with b:
                pass
        assert sanitizer.dump_artifact() == str(art)
        data = json.loads(art.read_text())
        assert data["format"] == 1
        assert {"src": "test:A", "dst": "test:B"} == {
            k: v for k, v in data["edges"][0].items()
            if k in ("src", "dst")}

        # A second process dumping into the same artifact merges, like
        # the fork-pool workers do at exit.
        sanitizer.reset()
        c = sanitizer.SanitizedLock("test:C")
        with a:
            pass  # no edges
        with c:
            with a:
                pass
        sanitizer.dump_artifact()
        merged = LockOrderGraph.from_json(json.loads(art.read_text()))
        assert merged.has_edge("test:A", "test:B")
        assert merged.has_edge("test:C", "test:A")

    def test_corrupt_artifact_rewritten(self, tmp_path, monkeypatch):
        art = tmp_path / "graph.json"
        art.write_text("{not json")
        monkeypatch.setenv("REPRO_SANITIZE_ARTIFACT", str(art))
        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")
        with a:
            with b:
                pass
        sanitizer.dump_artifact()
        back = LockOrderGraph.from_json(json.loads(art.read_text()))
        assert back.has_edge("test:A", "test:B")

    def test_no_artifact_env_is_noop(self):
        assert sanitizer.dump_artifact() is None


class TestRuntimeIntegration:
    def test_persistent_cache_records_flock_alone(self, tmp_path):
        from repro.sweep.persist import PersistentCache

        cache = PersistentCache(str(tmp_path / "cache"), max_entries=1)
        cache.store("cost", "a" * 8, 1.25)
        cache.store("cost", "b" * 8, 2.5)
        assert cache.load("cost", "b" * 8) == 2.5
        assert cache.gc() == 1  # one eviction under the shard lock
        # The documented protocol, observed at runtime, with the same
        # lock-class name the static analyzer derives: the shard flock
        # is taken (by stores and the eviction) with nothing held.
        flock = "sweep.persist:flock"
        ops = [lock for _, _, _, op, lock in sanitizer.recent_events()
               if op == "acquire"]
        assert ops.count(flock) == 3
        graph = sanitizer.current_graph()
        assert [src for src, dst in graph.edges() if dst == flock] == []
        assert graph.cycles() == []

    def test_graph_cache_lock_instrumented(self):
        from repro.sweep.cache import GraphCache

        cache = GraphCache()
        with cache._lock:
            pass
        ops = [lock for _, _, _, op, lock in sanitizer.recent_events()
               if op == "acquire"]
        assert "sweep.cache:GraphCache._lock" in ops

    def test_reset_after_fork_clears_events_keeps_graph(self):
        a = sanitizer.SanitizedLock("test:A")
        b = sanitizer.SanitizedLock("test:B")
        with a:
            with b:
                pass
        sanitizer.reset_after_fork()
        assert sanitizer.recent_events() == []
        assert sanitizer.current_graph().has_edge("test:A", "test:B")
