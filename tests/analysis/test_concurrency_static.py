"""Static concurrency rules (REPRO-C family): per-rule unit tests over
synthetic sources, interprocedural cycle detection, and the repo's own
lock-acquisition graph (expected edges present, no cycles)."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.concurrency.order import LockOrderGraph
from repro.analysis.concurrency.static import (
    build_lock_order_graph,
    file_findings,
    in_scope,
    program_findings,
)
from repro.analysis.static.lint import lint_source


def src(text: str) -> str:
    return textwrap.dedent(text)


def trees_of(**sources: str):
    return {path.replace("__", "/") + ".py": ast.parse(src(text))
            for path, text in sources.items()}


def rules(findings):
    return [f.rule for f in findings]


class TestC002BlockingUnderLock:
    def test_sleep_under_lock_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    time.sleep(1)
        """)))
        assert rules(found) == ["REPRO-C002"]
        assert found[0].symbol == "f"
        assert "time.sleep" in found[0].message

    def test_sleep_without_lock_passes(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import time
            def f():
                time.sleep(1)
        """)))
        assert found == []

    def test_open_under_aliased_lock_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading
            def f(self):
                guard = threading.Lock()
                with guard:
                    data = open("x").read()
        """)))
        assert rules(found) == ["REPRO-C002"]

    def test_flock_under_stripe_flagged(self):
        # A file lock blocks: taking one while holding a thread lock (here
        # one stripe of a striped lock table) is blocking-under-lock like
        # any other.
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import fcntl
            class Cache:
                def f(self, fd, shard):
                    stripe = self._stripe[shard]
                    with stripe:
                        fcntl.flock(fd, fcntl.LOCK_EX)
        """)))
        assert rules(found) == ["REPRO-C002"]
        assert "_stripe" in found[0].message

    def test_blocking_after_with_block_passes(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    x = 1
                time.sleep(1)
        """)))
        assert found == []

    def test_out_of_scope_module_exempt(self):
        assert not in_scope("kernels/blocked.py")
        found = file_findings("kernels/blocked.py", ast.parse(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    time.sleep(1)
        """)))
        assert found == []


class TestC003BlockingInAsync:
    def test_sleep_in_async_flagged(self):
        found = file_findings("serve/fake.py", ast.parse(src("""
            import time
            async def handler():
                time.sleep(0.1)
        """)))
        assert rules(found) == ["REPRO-C003"]

    def test_asyncio_sleep_passes(self):
        found = file_findings("serve/fake.py", ast.parse(src("""
            import asyncio
            async def handler():
                await asyncio.sleep(0.1)
        """)))
        assert found == []

    def test_file_io_in_async_flagged(self):
        found = file_findings("serve/fake.py", ast.parse(src("""
            async def handler(path):
                return open(path).read()
        """)))
        assert rules(found) == ["REPRO-C003"]

    def test_nested_sync_def_not_flagged(self):
        # A sync closure defined inside an async body runs wherever it is
        # called (typically the executor) — only the async body itself is
        # loop-confined.
        found = file_findings("serve/fake.py", ast.parse(src("""
            import time
            async def handler(loop):
                def work():
                    time.sleep(0.1)
                await loop.run_in_executor(None, work)
        """)))
        assert found == []


class TestC004ForkUnderLock:
    def test_pool_dispatch_under_lock_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading
            LOCK = threading.Lock()
            def f(pool, g):
                with LOCK:
                    return pool.apply_async(g)
        """)))
        assert rules(found) == ["REPRO-C004"]

    def test_pool_creation_under_lock_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import multiprocessing, threading
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    return multiprocessing.Pool(2)
        """)))
        assert rules(found) == ["REPRO-C004"]

    def test_pool_dispatch_without_lock_passes(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            def f(pool, g):
                return pool.apply_async(g)
        """)))
        assert found == []

    def test_non_pool_receiver_not_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading
            LOCK = threading.Lock()
            def f(results):
                with LOCK:
                    return results.join()
        """)))
        assert found == []


class TestC001LockOrderInversion:
    def test_direct_inversion_found(self):
        findings = program_findings(trees_of(sweep__fake="""
            import threading
            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()
            def ab():
                with LOCK_A:
                    with LOCK_B:
                        pass
            def ba():
                with LOCK_B:
                    with LOCK_A:
                        pass
        """))
        assert rules(findings) == ["REPRO-C001"]
        assert "sweep.fake:LOCK_A" in findings[0].message
        assert "sweep.fake:LOCK_B" in findings[0].message
        # Both edge sites are named so the report stands on its own.
        assert "sweep/fake.py:" in findings[0].message

    def test_consistent_order_clean(self):
        findings = program_findings(trees_of(sweep__fake="""
            import threading
            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()
            def one():
                with LOCK_A:
                    with LOCK_B:
                        pass
            def two():
                with LOCK_A:
                    with LOCK_B:
                        pass
        """))
        assert findings == []

    def test_interprocedural_inversion_found(self):
        findings = program_findings(trees_of(sweep__fake="""
            import threading
            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()
            def outer():
                with LOCK_A:
                    helper()
            def helper():
                with LOCK_B:
                    pass
            def rev():
                with LOCK_B:
                    with LOCK_A:
                        pass
        """))
        assert rules(findings) == ["REPRO-C001"]

    def test_cross_module_inversion_found(self):
        # one.f holds one:LOCK_A then (via two.take_b) two:LOCK_B;
        # two.rev holds two:LOCK_B then (via one.take_a) one:LOCK_A —
        # a cycle spanning both analyzed modules.
        findings = program_findings(trees_of(
            sweep__one="""
                import threading
                from repro.sweep import two
                LOCK_A = threading.Lock()
                def f():
                    with LOCK_A:
                        two.take_b()
                def take_a():
                    with LOCK_A:
                        pass
            """,
            sweep__two="""
                import threading
                from repro.sweep import one
                LOCK_B = threading.Lock()
                def take_b():
                    with LOCK_B:
                        pass
                def rev():
                    with LOCK_B:
                        one.take_a()
            """))
        assert "REPRO-C001" in rules(findings)

    def test_contextmanager_call_counts_as_held(self):
        # `with self._shard_lock(s):` — the callee's transitively
        # acquired locks are held in the body (the persist.py pattern).
        findings = program_findings(trees_of(sweep__fake="""
            import contextlib, threading
            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()
            class C:
                @contextlib.contextmanager
                def _shard_lock(self):
                    with LOCK_A:
                        yield
                def f(self):
                    with self._shard_lock():
                        with LOCK_B:
                            pass
            def rev():
                with LOCK_B:
                    with LOCK_A:
                        pass
        """))
        assert "REPRO-C001" in rules(findings)


class TestRepoLockGraph:
    def scoped_trees(self):
        import repro

        root = Path(repro.__file__).resolve().parent
        trees = {}
        for prefix in ("sweep", "serve", "faults"):
            for py in sorted((root / prefix).rglob("*.py")):
                rel = py.relative_to(root).as_posix()
                trees[rel] = ast.parse(py.read_text(), filename=rel)
        return trees

    def test_repo_graph_has_documented_edges_and_no_cycles(self):
        graph = build_lock_order_graph(self.scoped_trees())
        # The documented shard-lock protocol: the flock is the only lock
        # on a shard, so nothing is ever held when it is taken.
        flock = "sweep.persist:flock"
        assert flock in graph.nodes
        assert [src for src, dst in graph.edges() if dst == flock] == []
        assert graph.cycles() == []

    def test_repo_program_findings_clean(self):
        assert program_findings(self.scoped_trees()) == []


class TestLintIntegration:
    def test_lint_source_runs_c_rules(self):
        found = lint_source(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    time.sleep(1)
        """), "sweep/fake.py")
        assert [f.rule for f in found] == ["REPRO-C002"]

    def test_inline_allow_suppresses_c_rule(self):
        found = lint_source(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    # repro-lint: allow REPRO-C002 (test pacing)
                    time.sleep(1)
        """), "sweep/fake.py")
        assert len(found) == 1 and found[0].allowed
        assert found[0].allow_source == "inline"


class TestLockOrderGraphModel:
    def test_json_round_trip(self):
        g = LockOrderGraph()
        g.add_edge("a", "b", {"path": "x.py", "line": 3, "function": "f"})
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        data = g.to_json()
        back = LockOrderGraph.from_json(data)
        assert back.edges() == [("a", "b"), ("b", "c")]
        assert back.edge_count("a", "b") == 2
        assert back.edge_sites("a", "b")[0]["line"] == 3
        assert back.to_json() == data

    def test_merge_sums_counts(self):
        g1, g2 = LockOrderGraph(), LockOrderGraph()
        g1.add_edge("a", "b")
        g2.add_edge("a", "b")
        g2.add_edge("b", "c")
        g1.merge(g2)
        assert g1.edge_count("a", "b") == 2
        assert g1.has_edge("b", "c")

    def test_cycle_detection(self):
        g = LockOrderGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert g.cycles() == []
        g.add_edge("c", "a")
        assert g.cycles() == [["a", "b", "c"]]

    def test_path_query(self):
        g = LockOrderGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert g.path("a", "c") == ["a", "b", "c"]
        assert g.path("c", "a") is None
