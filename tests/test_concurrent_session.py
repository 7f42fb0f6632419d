"""Concurrent Session use: the serving tier's thread-safety contract.

The HTTP front runs every request on a thread pool against ONE shared
:class:`~repro.core.session.Session`, so the session's cache get-or-
build, executor creation and stats snapshots must hold under
concurrency: one build per spec no matter how many threads race,
identical sweep results from any thread, never a torn stats dict.

Also the shutdown contract: closing a session (or dying to SIGINT with
the atexit hook) must take its worker pools down without
BrokenProcessPool noise or resource-tracker warnings.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from repro.core.session import Session


BARRIER_THREADS = 8


class TestThreadSafeCache:
    def test_racing_builds_produce_one_entry(self):
        """N threads build the same cold spec; exactly one miss, one object."""
        with Session(workers=0) as session:
            barrier = threading.Barrier(BARRIER_THREADS)
            entries = []

            def build():
                barrier.wait()
                entries.append(session.cache.entry("sk(2,2,2)"))

            threads = [
                threading.Thread(target=build)
                for _ in range(BARRIER_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(entries) == BARRIER_THREADS
            assert all(e is entries[0] for e in entries)
            stats = session.cache_stats()
            assert stats["misses"] == 1
            assert stats["hits"] == BARRIER_THREADS - 1

    def test_racing_distinct_specs_each_build_once(self):
        specs = ["pops(2,2)", "sk(2,2,2)", "sops(4)", "pops(2,3)"]
        with Session(workers=0) as session:
            barrier = threading.Barrier(len(specs) * 2)

            def build(spec):
                barrier.wait()
                session.describe(spec)

            threads = [
                threading.Thread(target=build, args=(spec,))
                for spec in specs for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = session.cache_stats()
            assert stats["misses"] == len(specs)
            assert stats["size"] == len(specs)

    def test_concurrent_sweeps_identical_results(self):
        """The same sweep from many threads equals the single-thread run."""
        with Session(workers=0) as session:
            expected = session.resilience_sweep(
                "sk(2,2,2)", trials=20, seed=7, metrics="connectivity"
            ).as_dict()
            results = []
            barrier = threading.Barrier(BARRIER_THREADS)

            def sweep():
                barrier.wait()
                results.append(
                    session.resilience_sweep(
                        "sk(2,2,2)", trials=20, seed=7,
                        metrics="connectivity",
                    ).as_dict()
                )

            threads = [
                threading.Thread(target=sweep)
                for _ in range(BARRIER_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r == expected for r in results)

    def test_stats_snapshot_never_torn(self):
        """cache_stats() readers racing builders always see a full dict."""
        with Session(workers=0) as session:
            stop = threading.Event()
            seen = []
            errors = []

            def reader():
                while not stop.is_set():
                    try:
                        stats = session.cache_stats()
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return
                    seen.append(set(stats))

            readers = [threading.Thread(target=reader) for _ in range(2)]
            for t in readers:
                t.start()
            for spec in ["pops(2,2)", "sk(2,2,2)", "sops(4)", "pops(3,2)"]:
                session.describe(spec)
            stop.set()
            for t in readers:
                t.join()
            assert not errors
            expected_keys = set(session.cache_stats())
            assert all(keys == expected_keys for keys in seen)


class TestCandidateMemo:
    def test_design_search_enumeration_memoized(self):
        with Session(workers=0) as session:
            kwargs = dict(
                max_processors=8, families=("pops", "sops"), trials=2
            )
            first = session.design_search(**kwargs)
            stats = session.cache_stats()
            assert stats["candidate_misses"] == 1
            assert stats["candidate_hits"] == 0
            second = session.design_search(**kwargs)
            stats = session.cache_stats()
            assert stats["candidate_misses"] == 1
            assert stats["candidate_hits"] == 1
            assert first.to_json() == second.to_json()

    def test_memoized_search_matches_module_level(self):
        from repro import design_search

        cold = design_search(
            max_processors=8, families=("pops", "sops"), trials=2, workers=0
        )
        with Session(workers=0) as session:
            for _ in range(2):  # second run hits the memo
                warm = session.design_search(
                    max_processors=8, families=("pops", "sops"), trials=2
                )
                assert warm.to_json() == cold.to_json()

    def test_distinct_windows_memoized_separately(self):
        with Session(workers=0) as session:
            session.design_search(max_processors=8, families=("pops",),
                                  trials=2)
            session.design_search(max_processors=6, families=("pops",),
                                  trials=2)
            stats = session.cache_stats()
            assert stats["candidate_misses"] == 2
            assert stats["candidate_hits"] == 0

    def test_full_invalidate_clears_candidate_memo(self):
        with Session(workers=0) as session:
            session.design_search(max_processors=8, families=("pops",),
                                  trials=2)
            session.invalidate()
            session.design_search(max_processors=8, families=("pops",),
                                  trials=2)
            assert session.cache_stats()["candidate_misses"] == 2

    def test_racing_searches_enumerate_at_most_twice(self):
        """Concurrent identical searches: the memo close behind the race.

        The enumeration itself runs outside the cache lock (it can be
        slow), so two racing threads may both miss -- but the result
        list is deterministic, every caller gets equal specs, and the
        counters stay consistent (hits + misses == calls).
        """
        with Session(workers=0) as session:
            barrier = threading.Barrier(4)
            results = []

            def search():
                barrier.wait()
                results.append(
                    session.design_search(
                        max_processors=8, families=("pops",), trials=2
                    ).to_json()
                )

            threads = [threading.Thread(target=search) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(set(results)) == 1
            stats = session.cache_stats()
            assert stats["candidate_hits"] + stats["candidate_misses"] == 4


class TestGracefulShutdown:
    def test_close_shuts_pools_without_noise(self):
        """close() on a session with a live pool exits cleanly (subprocess)."""
        code = (
            "from repro.core.session import Session\n"
            "s = Session(workers=2)\n"
            "s.resilience_sweep('sk(2,2,2)', trials=8,"
            " metrics='connectivity')\n"
            "assert s.pools_started == 1\n"
            "s.close()\n"
            "print('CLOSED')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "CLOSED" in result.stdout
        assert result.stderr.strip() == ""

    def test_sigint_mid_run_exits_without_pool_warnings(self):
        """SIGINT: atexit closes the default session's pools quietly."""
        code = (
            "import sys, time\n"
            "import repro\n"
            "repro.resilience_sweep('sk(2,2,2)', trials=8, workers=2,"
            " metrics='connectivity')\n"
            "print('READY', flush=True)\n"
            "time.sleep(60)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert "READY" in proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        stderr = proc.stderr.read()
        for marker in (
            "BrokenProcessPool", "resource_tracker", "Exception ignored",
            "leaked", "Traceback (most recent call last)",
        ):
            if marker == "Traceback (most recent call last)":
                # the KeyboardInterrupt traceback itself is expected;
                # anything else echoing a traceback is not
                assert stderr.count(marker) <= 1, stderr
            else:
                assert marker not in stderr, stderr

    def test_serve_cli_sigterm_clean_exit(self):
        """`python -m repro serve` + SIGTERM: graceful stop, silent stderr."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("serving on http://")
            port = int(banner.rsplit(":", 1)[-1])
            import urllib.request

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/sweep",
                data=json.dumps(
                    {"spec": "sk(2,2,2)", "trials": 8,
                     "metrics": "connectivity"}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert json.load(response)["trials"] == 8
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.stderr.read().strip() == ""

    def test_terminate_close_is_fast_and_quiet(self):
        """close(terminate=True) kills a live pool without draining it."""
        with Session(workers=2) as probe:
            probe.resilience_sweep(
                "sk(2,2,2)", trials=8, metrics="connectivity"
            )
            start = time.monotonic()
            probe.close(terminate=True)
            assert time.monotonic() - start < 30
        assert probe.closed


class TestWorkerDeath:
    """A SIGKILLed pool worker is an error within seconds, never a hang."""

    @staticmethod
    def _deaths():
        from repro.obs.metrics import REGISTRY

        series = REGISTRY.series("repro_worker_deaths_total").values()
        return sum(counter.value for counter in series)

    def test_killed_worker_raises_and_the_next_sweep_runs(self, kill_a_worker):
        from repro.resilience.sweep import WorkerDiedError

        before = self._deaths()
        session = Session(workers=2)

        def sweep(trials, outcome):
            try:
                session.resilience_sweep("sk(6,3,2)", faults=2, trials=trials, seed=1)
                outcome["error"] = None
            except Exception as exc:
                outcome["error"] = exc

        try:
            # 0.5 s into 20,000 trials; a host that finishes those first
            # gets 200,000
            for trials in (20_000, 200_000):
                outcome = {}
                thread = threading.Thread(target=sweep, args=(trials, outcome), daemon=True)
                thread.start()
                killed = kill_a_worker(session._executor_for(2), running=thread.is_alive)
                thread.join(10)
                assert not thread.is_alive(), "no answer 10 s after a worker died"
                if killed:
                    break
            error = outcome["error"]
            assert isinstance(error, WorkerDiedError), error
            assert re.search(r"trials \d+\.\.\d+ of sk\(6,3,2\)", str(error)), error
            assert self._deaths() == before + 1
            # the broken pool is gone: the next call runs on a fresh one
            summary = session.resilience_sweep("sk(6,3,2)", faults=2, trials=8, seed=1)
            assert summary.trials == 8 and session.pools_started == 1
        finally:
            session.close(terminate=True)

    def test_worker_killed_between_runs_costs_no_run(self):
        before = self._deaths()
        with Session(workers=2) as session:
            expected = session.resilience_sweep("sk(2,2,2)", trials=40, seed=2)
            pool = session._executor_for(2)._pool
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not pool._broken:
                assert time.monotonic() < deadline, "the pool never noticed"
                time.sleep(0.01)
            again = session.resilience_sweep("sk(2,2,2)", trials=40, seed=2)
            assert again.to_json() == expected.to_json()
            assert session._executor_for(2)._pool is not pool
        assert self._deaths() == before + 1
