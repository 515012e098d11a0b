"""The benchmark regression gate (``tools/bench_compare.py``).

Exercises the three contracts CI leans on:

* direction-aware comparison -- ``_s`` keys are lower-is-better,
  ``_ips``/``speedup``/``hit_rate`` higher-is-better, everything else
  reported but never fatal;
* exit codes -- 0 clean, 1 when a directional metric regresses beyond
  ``--max-regression``, 2 for missing/unreadable/malformed input or an
  ``--only`` filter that matches nothing both files share;
* tolerance of schema drift -- keys present in only one file are
  reported, never fatal;
* metric scoping -- ``--only SUBSTR`` restricts the gate to matching
  keys, which is how CI compares ratio metrics (machine-independent)
  across BENCH files measured on different hardware.
"""

import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "bench_compare.py")
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFlatten:
    def test_nested_numeric_leaves_get_dotted_keys(self):
        flat = bench_compare.flatten(
            {"a": {"b": 1.5, "c": {"d": 2}}, "e": 3})
        assert flat == {"a.b": 1.5, "a.c.d": 2.0, "e": 3.0}

    def test_non_numeric_and_bool_leaves_are_dropped(self):
        flat = bench_compare.flatten(
            {"mode": "full", "ok": True, "x": 1, "items": [1, 2]})
        assert flat == {"x": 1.0}


class TestDirection:
    @pytest.mark.parametrize("key", [
        "serial_s", "scales.512.jobs.4.shared_warm_s", "attach_s"])
    def test_wall_clock_is_lower_better(self, key):
        assert bench_compare.direction(key) == -1

    @pytest.mark.parametrize("key", [
        "replay_ips", "jobs.4.warm_speedup", "memo.hit_rate"])
    def test_throughput_is_higher_better(self, key):
        assert bench_compare.direction(key) == 1

    @pytest.mark.parametrize("key", ["warp_size", "rounds", "arena_bytes"])
    def test_configuration_echoes_are_neutral(self, key):
        assert bench_compare.direction(key) == 0


class TestCompare:
    def test_slower_wall_clock_regresses(self):
        lines, regressions = bench_compare.compare(
            {"run_s": 1.0}, {"run_s": 1.5}, max_regression=10.0)
        assert len(regressions) == 1
        assert "worse" in regressions[0]

    def test_faster_wall_clock_is_fine(self):
        _lines, regressions = bench_compare.compare(
            {"run_s": 1.0}, {"run_s": 0.5}, max_regression=10.0)
        assert regressions == []

    def test_lower_speedup_regresses(self):
        _lines, regressions = bench_compare.compare(
            {"warm_speedup": 10.0}, {"warm_speedup": 2.0},
            max_regression=10.0)
        assert len(regressions) == 1

    def test_higher_speedup_is_fine(self):
        _lines, regressions = bench_compare.compare(
            {"warm_speedup": 2.0}, {"warm_speedup": 10.0},
            max_regression=10.0)
        assert regressions == []

    def test_threshold_is_respected(self):
        base, cur = {"run_s": 1.0}, {"run_s": 1.05}
        assert bench_compare.compare(base, cur, 10.0)[1] == []
        assert len(bench_compare.compare(base, cur, 1.0)[1]) == 1

    def test_neutral_keys_never_regress(self):
        lines, regressions = bench_compare.compare(
            {"warp_size": 32}, {"warp_size": 64}, max_regression=0.0)
        assert regressions == []
        assert any("changed" in line for line in lines)

    def test_added_and_removed_keys_are_reported_not_fatal(self):
        lines, regressions = bench_compare.compare(
            {"old_s": 1.0}, {"new_s": 1.0}, max_regression=0.0)
        assert regressions == []
        assert any("new" in line for line in lines)
        assert any("removed" in line for line in lines)

    def test_zero_baseline_is_not_scored(self):
        lines, regressions = bench_compare.compare(
            {"run_s": 0.0}, {"run_s": 5.0}, max_regression=10.0)
        assert regressions == []
        assert any("not scored" in line for line in lines)


class TestMainExitCodes:
    def test_identical_files_exit_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "a.json", {"run_s": 1.0})
        assert bench_compare.main([path, path]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", {"run_s": 1.0})
        cur = _write(tmp_path, "cur.json", {"run_s": 2.0})
        assert bench_compare.main([base, cur]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_max_regression_flag_tolerates(self, tmp_path):
        base = _write(tmp_path, "base.json", {"run_s": 1.0})
        cur = _write(tmp_path, "cur.json", {"run_s": 2.0})
        assert bench_compare.main(
            [base, cur, "--max-regression", "150"]) == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "a.json", {"run_s": 1.0})
        missing = str(tmp_path / "nope.json")
        assert bench_compare.main([missing, path]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        good = _write(tmp_path, "good.json", {"run_s": 1.0})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert bench_compare.main([good, str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_quiet_prints_only_verdict(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", {"run_s": 1.0})
        cur = _write(tmp_path, "cur.json", {"run_s": 0.9})
        assert bench_compare.main([base, cur, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "no regressions beyond threshold" in out
        assert "better" not in out

    def test_real_scale_bench_self_compares_clean(self, capsys):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        bench = os.path.join(root, "BENCH_scale.json")
        if not os.path.exists(bench):
            pytest.skip("BENCH_scale.json not generated yet")
        assert bench_compare.main([bench, bench]) == 0
        capsys.readouterr()


class TestOnlyFilter:
    def test_restrict_keeps_matching_keys(self):
        flat = {"a.run_s": 1.0, "a.speedup": 2.0, "b.speedup": 3.0}
        assert bench_compare.restrict(flat, ["speedup"]) == {
            "a.speedup": 2.0, "b.speedup": 3.0}
        assert bench_compare.restrict(flat, None) is flat

    def test_only_scopes_the_gate_to_matching_keys(self, tmp_path):
        # Wall clock regressed badly, the ratio did not: a speedup-only
        # comparison must pass while the unrestricted one fails.
        base = _write(tmp_path, "base.json",
                      {"run_s": 1.0, "speedup": 2.0})
        cur = _write(tmp_path, "cur.json",
                     {"run_s": 3.0, "speedup": 2.0})
        assert bench_compare.main([base, cur]) == 1
        assert bench_compare.main([base, cur, "--only", "speedup"]) == 0

    def test_only_still_catches_matching_regressions(self, tmp_path):
        base = _write(tmp_path, "base.json",
                      {"run_s": 1.0, "speedup": 2.0})
        cur = _write(tmp_path, "cur.json",
                     {"run_s": 1.0, "speedup": 1.0})
        assert bench_compare.main([base, cur, "--only", "speedup"]) == 1

    def test_only_is_repeatable(self, tmp_path):
        base = _write(tmp_path, "base.json",
                      {"run_s": 1.0, "speedup": 2.0, "rate_ips": 10.0})
        cur = _write(tmp_path, "cur.json",
                     {"run_s": 9.0, "speedup": 2.0, "rate_ips": 1.0})
        assert bench_compare.main(
            [base, cur, "--only", "speedup", "--only", "_ips"]) == 1
        assert bench_compare.main([base, cur, "--only", "speedup"]) == 0

    def test_only_filters_list_metrics(self, tmp_path, capsys):
        path = _write(tmp_path, "bench.json", {
            "run_s": 1.25, "speedup": 2.0, "threads": 8})
        assert bench_compare.main(
            ["--list-metrics", path, "--only", "speedup"]) == 0
        out = capsys.readouterr().out
        assert "1 tracked metric(s)" in out
        assert "speedup" in out
        assert "run_s" not in out

    def test_real_replay_bench_self_compares_clean(self, capsys):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        bench = os.path.join(root, "BENCH_replay.json")
        if not os.path.exists(bench):
            pytest.skip("BENCH_replay.json not generated yet")
        assert bench_compare.main(
            [bench, bench, "--only", "vector_token_fraction",
             "--only", "memo_hit_rate", "--max-regression", "0"]) == 0
        capsys.readouterr()

    def test_filter_matching_nothing_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "a.json", {"run_s": 1.0, "speedup": 2.0})
        assert bench_compare.main(
            [path, path, "--only", "no_such_metric"]) == 2
        captured = capsys.readouterr()
        assert "matches no metric" in captured.err
        assert "no differences" not in captured.out

    def test_filter_matching_one_side_only_exits_two(self, tmp_path,
                                                      capsys):
        # A metric the current file dropped is not a clean gate either.
        base = _write(tmp_path, "base.json", {"geomean_speedup": 2.0})
        cur = _write(tmp_path, "cur.json", {"ips": 10.0})
        assert bench_compare.main(
            [base, cur, "--only", "geomean"]) == 2
        assert "matches no metric" in capsys.readouterr().err


class TestListMetrics:
    def test_lists_keys_with_directions(self, tmp_path, capsys):
        path = _write(tmp_path, "bench.json", {
            "run_s": 1.25, "rate_ips": 40.0, "threads": 8})
        assert bench_compare.main(["--list-metrics", path]) == 0
        out = capsys.readouterr().out
        assert "3 tracked metric(s)" in out
        assert "lower-is-better  run_s = 1.25" in out
        assert "higher-is-better rate_ips = 40" in out
        assert "neutral          threads = 8" in out

    def test_accepts_two_files(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", {"run_s": 1.0})
        b = _write(tmp_path, "b.json", {"run_s": 2.0})
        assert bench_compare.main(["--list-metrics", a, b]) == 0
        out = capsys.readouterr().out
        assert out.count("tracked metric(s)") == 2

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert bench_compare.main(["--list-metrics", missing]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_without_files_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            bench_compare.main(["--list-metrics"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_real_serve_bench_lists_clean(self, capsys):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        bench = os.path.join(root, "BENCH_serve.json")
        if not os.path.exists(bench):
            pytest.skip("BENCH_serve.json not generated yet")
        assert bench_compare.main(["--list-metrics", bench]) == 0
        out = capsys.readouterr().out
        assert "serve.throughput_ips" in out
        assert "serve.coalesce_hit_rate" in out
