"""Benchmark runner: registry, rounds, JSON schema and the CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.perf import BENCHMARKS, run_benchmarks, write_bench_json
from repro.perf import bench
from repro.perf.bench import format_results


class TestRunBenchmarks:
    def test_unknown_subset_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmarks"):
            run_benchmarks(subset=["nope"])

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            run_benchmarks(subset=["fig15"], rounds=0)

    def test_document_schema(self, monkeypatch):
        calls = []
        monkeypatch.setitem(BENCHMARKS, "fake", lambda: calls.append(1))
        doc = run_benchmarks(subset=["fake"], rounds=2)
        assert len(calls) == 2
        assert doc["schema"] == 2
        assert "machine" in doc
        assert doc["workers"] == 1
        entry = doc["benchmarks"]["fake"]
        assert entry["wall_s"] == min(entry["rounds_s"])
        assert len(entry["rounds_s"]) == 2
        assert set(entry) >= {"wall_s", "rounds_s", "phases", "cache"}

    def test_cold_first_round_convention(self):
        """Caches are cleared once per benchmark: the first round is the
        cold number and later rounds run warm (fewer or zero misses)."""
        doc = run_benchmarks(subset=["fig15"], rounds=2)
        entry = doc["benchmarks"]["fig15"]
        assert entry["cold_s"] == entry["rounds_s"][0]
        stats = entry["cache"]
        assert stats["hits"] + stats["misses"] > 0

    def test_format_results_lists_every_benchmark(self, monkeypatch):
        monkeypatch.setitem(BENCHMARKS, "fake", lambda: None)
        doc = run_benchmarks(subset=["fake"], rounds=1)
        text = format_results(doc)
        assert "fake" in text
        assert "wall_s" in text


class TestStatcheckStamp:
    """The whole-tree statcheck stamp is taken once per tree content."""

    def test_two_machine_stamps_analyse_the_tree_once(self, monkeypatch):
        import repro.statcheck

        calls = []
        # A stub pass: the whole-tree analysis is what is being counted,
        # not what is being tested.
        monkeypatch.setattr(
            repro.statcheck, "check_paths", lambda paths: calls.append(paths) or []
        )
        monkeypatch.setattr(bench, "_STATCHECK_STAMP", None)
        first = bench.collect_machine_info()
        second = bench.collect_machine_info()
        assert len(calls) == 1
        assert first["statcheck_findings"] == second["statcheck_findings"] == 0
        assert first["statcheck_errors"] == second["statcheck_errors"] == 0

    def test_an_edit_invalidates_the_stamp(self, tmp_path, monkeypatch):
        import repro.statcheck

        real = repro.statcheck.check_paths
        calls = []

        def counting(paths):
            calls.append(paths)
            return real(paths)

        monkeypatch.setattr(repro.statcheck, "check_paths", counting)
        monkeypatch.setattr(bench, "_STATCHECK_STAMP", None)
        module = tmp_path / "mod.py"
        module.write_text("x = 1\n")
        clean = bench.statcheck_stamp(tmp_path)
        assert bench.statcheck_stamp(tmp_path) == clean
        assert len(calls) == 1
        module.write_text("import random\nx = random.random()\n")
        edited = bench.statcheck_stamp(tmp_path)
        assert len(calls) == 2
        assert edited["statcheck_findings"] > clean["statcheck_findings"]
        (tmp_path / "other.py").write_text("y = 2\n")
        bench.statcheck_stamp(tmp_path)
        assert len(calls) == 3


class TestWriteBenchJson:
    def test_stamps_schema_and_machine(self, tmp_path):
        out = tmp_path / "bench.json"
        write_bench_json({"benchmarks": {"x": {"wall_s": 1.0}}}, out)
        doc = json.loads(out.read_text())
        assert doc["schema"] == 2
        assert "python" in doc["machine"]

    def test_wraps_bare_entries(self, tmp_path):
        out = tmp_path / "bench.json"
        write_bench_json({"x": {"wall_s": 1.0}}, out)
        doc = json.loads(out.read_text())
        assert doc["benchmarks"]["x"]["wall_s"] == 1.0


class TestCli:
    def test_bench_list(self, capsys):
        cli_main(["bench", "--list"])
        out = capsys.readouterr().out
        for name in BENCHMARKS:
            assert name in out

    def test_bench_writes_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(BENCHMARKS, "fake", lambda: None)
        out = tmp_path / "BENCH_test.json"
        cli_main(["bench", "--subset", "fake", "--rounds", "1", "-o", str(out)])
        doc = json.loads(out.read_text())
        assert "fake" in doc["benchmarks"]
        assert "fake" in capsys.readouterr().out

    def test_bench_unknown_subset_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["bench", "--subset", "nope", "-o",
                      str(tmp_path / "x.json")])


class TestFaultsBenchmark:
    def test_degraded_allreduce_registered(self):
        assert "faults_degraded_allreduce" in BENCHMARKS

    def test_degraded_allreduce_runs(self):
        # The body asserts completion+recovery itself; it just must not
        # raise.
        BENCHMARKS["faults_degraded_allreduce"]()


class TestParallelBench:
    def test_result_digest_recorded_for_row_sweeps(self):
        doc = run_benchmarks(subset=["fig15"], rounds=1)
        entry = doc["benchmarks"]["fig15"]
        assert len(entry["result_digest"]) == 64

    def test_micro_benchmarks_have_no_digest(self):
        doc = run_benchmarks(subset=["netsim_allreduce"], rounds=1)
        assert "result_digest" not in doc["benchmarks"]["netsim_allreduce"]

    def test_parallel_entry_matches_serial_digest(self):
        doc = run_benchmarks(subset=["fig15"], rounds=1, workers=2)
        entry = doc["benchmarks"]["fig15"]
        parallel = entry["parallel"]
        assert parallel["workers"] == 2
        assert parallel["digest_match"] is True
        assert parallel["result_digest"] == entry["result_digest"]
        assert parallel["unique_points"] <= parallel["points"]
        assert sum(w["points"] for w in parallel["worker_stats"]) \
            == parallel["unique_points"]
        assert all("hits" in w and "misses" in w
                   for w in parallel["worker_stats"])
        assert doc["workers"] == 2

    def test_non_enumerable_benchmark_has_no_parallel_entry(self):
        doc = run_benchmarks(subset=["netsim_allreduce"], rounds=1, workers=2)
        assert "parallel" not in doc["benchmarks"]["netsim_allreduce"]

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_benchmarks(subset=["fig15"], workers=0)

    def test_registry_derived_caches_cover_every_kernel(self):
        from repro.perf import MEMOIZED_SWEEPS
        from repro.perf.bench import _sweep_caches

        caches = _sweep_caches()
        # Satellite contract: the cache list is derived from the
        # registry, so every registered kernel's cache is present.
        for wrapper in MEMOIZED_SWEEPS.values():
            assert any(cache is wrapper.cache for cache in caches)

    def test_enumerators_cover_their_sweeps(self):
        """Every enumerated sweep replays with zero misses after a
        pre-warm — the coverage property the bit-identity rests on."""
        from repro.perf.bench import POINT_ENUMERATORS, _sweep_caches
        from repro.perf.parallel import run_points

        caches = _sweep_caches()
        for name in ("fig15", "fig16"):
            for cache in caches:
                cache.clear()
            run_points(POINT_ENUMERATORS[name]())
            misses_before = sum(c.misses for c in caches)
            BENCHMARKS[name]()
            assert sum(c.misses for c in caches) == misses_before
