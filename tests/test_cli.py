"""CLI tests: exit codes, frozen interval values, report determinism."""

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pivotboot import RECIPES, cli
from pivotboot.cli import main
from pivotboot.jsonio import dumps
from pivotboot.weights import WeightVector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1\n0\n")
    return str(path)


class TestCiCommand:
    def test_population_interval_matches_hand_value(self, capsys, data_file):
        # both non-degenerate draws on two points give the same interval
        code, out, _ = run_cli(
            capsys, "ci", data_file, "--method", "population",
            "--alpha", "0.1", "--m", "2", "--seed", "5", "--timestamp", "T0",
        )
        assert code == 0
        report = json.loads(out)
        assert report["interval"]["lo"] == pytest.approx(-0.081542, abs=1e-5)
        assert report["interval"]["hi"] == pytest.approx(1.081542, abs=1e-5)
        assert report["manifest"]["command"] == "ci"
        assert report["manifest"]["seed"] == 5

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "ci", str(tmp_path / "nope.txt"), "--method", "population",
            "--seed", "1",
        )
        assert code == 2
        assert "nope.txt" in err

    def test_unparseable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nbanana\n")
        code, _, err = run_cli(capsys, "ci", str(path), "--method", "population",
                               "--seed", "1")
        assert code == 2
        assert "banana" in err

    def test_crlf_and_comments_accepted(self, capsys, tmp_path):
        path = tmp_path / "win.txt"
        path.write_bytes(b"# comment\r\n1\r\n0\r\n\r\n")
        code, out, _ = run_cli(capsys, "ci", str(path), "--method", "population",
                               "--m", "2", "--seed", "5", "--timestamp", "T0")
        assert code == 0
        assert json.loads(out)["manifest"]["config"]["n"] == 2

    def test_degenerate_weights_file_exits_3(self, capsys, data_file, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("1\n1\n")
        code, _, err = run_cli(capsys, "ci", data_file, "--method", "population",
                               "--weights-file", str(wfile), "--seed", "1")
        assert code == 3
        assert "degenerate" in err

    def test_exhausted_redraw_budget_exits_3(self, capsys, data_file, monkeypatch):
        def always_uniform(n, m, stream):
            return WeightVector(np.full(n, m / n))

        monkeypatch.setattr(cli, "draw_multinomial_weights", always_uniform)
        code, _, err = run_cli(capsys, "ci", data_file, "--method", "population",
                               "--m", "2", "--seed", "1")
        assert code == 3
        assert "redraws" in err

    @pytest.mark.parametrize("name, text, method", [
        ("nan.txt", "1.5\n2.5\nnan\n3.5\n", "population"),
        ("huge.txt", "1e308\n-1e308\n1e308\n-1e308\n", "sample"),
    ])
    def test_non_finite_data_exits_2(self, capsys, tmp_path, name, text, method):
        # a nan is rejected when read; +-1e308 overflows the variance, which
        # Sample rejects before any interval is built
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "ci", str(path), "--method", method, "--seed", "1")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        if name == "nan.txt":
            assert name in err and "line 3" in err

    def test_negative_weights_file_exits_2(self, capsys, data_file, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("3\n-1\n")
        code, out, err = run_cli(capsys, "ci", data_file, "--method", "population",
                                 "--weights-file", str(wfile), "--seed", "1")
        assert (code, out) == (2, "")
        assert "nonnegative" in err

    def test_overflowing_weights_file_exits_2(self, capsys, tmp_path):
        data, wfile = tmp_path / "data.txt", tmp_path / "w.txt"
        data.write_text("1\n2\n3\n4\n")
        wfile.write_text("1e308\n1e308\n1\n1\n")
        code, out, err = run_cli(capsys, "ci", str(data), "--method", "population",
                                 "--weights-file", str(wfile), "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "pivotboot: error: resample size m must be positive and finite\n"

    def test_weights_file_drives_interval(self, capsys, data_file, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("2\n0\n")
        code, out, _ = run_cli(capsys, "ci", data_file, "--method", "sample",
                               "--alpha", "0.1", "--weights-file", str(wfile),
                               "--seed", "1", "--timestamp", "T0")
        assert code == 0
        report = json.loads(out)
        assert report["interval"]["lo"] == pytest.approx(0.418458, abs=1e-5)
        assert report["interval"]["hi"] == pytest.approx(1.581542, abs=1e-5)

    def test_alpha_nesting(self, capsys, data_file):
        intervals = {}
        for alpha in ("0.1", "0.5"):
            _, out, _ = run_cli(capsys, "ci", data_file, "--method", "population",
                                "--alpha", alpha, "--m", "2", "--seed", "5",
                                "--timestamp", "T0")
            intervals[alpha] = json.loads(out)["interval"]
        width = lambda iv: iv["hi"] - iv["lo"]
        assert width(intervals["0.5"]) < width(intervals["0.1"])

    def test_ecdf_method_requires_x(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1\n2\n3\n")
        code, _, err = run_cli(capsys, "ci", str(path), "--method", "ecdf",
                               "--seed", "1")
        assert code == 2
        assert "--x" in err

    def test_ecdf_without_x_is_a_usage_error_before_weights(self, capsys, data_file, tmp_path):
        # degenerate weights would exit 3, but the missing --x is found first
        wfile = tmp_path / "w.txt"
        wfile.write_text("1\n1\n")
        code, out, err = run_cli(capsys, "ci", data_file, "--method", "ecdf",
                                 "--weights-file", str(wfile), "--seed", "1")
        assert (code, out) == (2, "")
        assert "--x" in err

    @pytest.mark.parametrize("method", ["population", "sample", "finitepop", "superpop"])
    def test_mean_method_rejects_x_before_weights(self, capsys, data_file, tmp_path, method):
        # degenerate weights would exit 3, but the needless --x is found first
        wfile = tmp_path / "w.txt"
        wfile.write_text("1\n1\n")
        for weights in ([], ["--weights-file", str(wfile)]):
            code, out, err = run_cli(capsys, "ci", data_file, "--method", method, "--x", "1",
                                     *weights, "--seed", "1")
            assert (code, out) == (2, "")
            assert err == f"pivotboot: error: method {method!r} takes no --x\n"

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_x_is_a_usage_error_before_weights(self, capsys, data_file, tmp_path, x):
        # degenerate weights would exit 3, but the non-finite --x is found first
        wfile = tmp_path / "w.txt"
        wfile.write_text("1\n1\n")
        code, out, err = run_cli(capsys, "ci", data_file, "--method", "ecdf", f"--x={x}",
                                 "--weights-file", str(wfile), "--seed", "1")
        assert (code, out) == (2, "")
        assert err == f"pivotboot: error: --x must be finite, got {float(x)!r}\n"

    def test_cdf_method_runs(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1\n2\n3\n4\n")
        code, out, _ = run_cli(capsys, "ci", str(path), "--method", "cdf",
                               "--x", "2.5", "--seed", "3", "--timestamp", "T0")
        assert code == 0
        interval = json.loads(out)["interval"]
        assert 0.0 <= interval["lo"] <= interval["hi"] <= 1.0


class TestTableCommand:
    def test_invalid_which_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--which", "3", "--model", "poisson1", "--n", "20"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_invalid_model_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--which", "1", "--model", "cauchy",
                               "--n", "20", "--seed", "1")
        assert code == 2
        assert "cauchy" in err

    @pytest.mark.parametrize("option, value", [("--threshold", "nan"), ("--threshold", "inf"),
                                               ("--band", "inf"), ("--band", "nan")])
    def test_non_finite_cutoff_exits_2_before_any_draw(self, capsys, monkeypatch, option, value):
        def never(cfg, threads):
            raise AssertionError("the table ran")

        for which in ("1", "2"):
            monkeypatch.setattr(cli, f"run_table{which}", never)
            code, out, err = run_cli(capsys, "table", "--which", which, "--model", "poisson1",
                                     "--n", "20", "--seed", "1", option, value)
            assert code == 2
            assert out == ""
            assert option.lstrip("-") in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, capsys, threads):
        # --threads -3 ran serially and exited 0
        for which in ("1", "2"):
            code, out, err = run_cli(capsys, "table", "--which", which, "--model", "poisson1",
                                     "--n", "20", "--seed", "1", "--threads", threads)
            assert (code, out) == (2, "")
            assert err == "pivotboot: error: threads must be at least 1\n"

    def test_threads_above_the_cpu_count_exit_0(self, capsys, monkeypatch):
        # --threads 100000 asked for one OS thread per outer cell, and a
        # failed thread start exited 1 with a traceback.  The workers are now
        # capped at the CPUs the process may use; this pool records them and
        # starts no thread.
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        argv = ["table", "--which", "2", "--model", "poisson1", "--n", "6", "--outer", "40",
                "--inner", "5", "--B", "3", "--seed", "2", "--timestamp", "T0"]
        _, serial, _ = run_cli(capsys, *argv)
        # The CPUs the process may run on cap the workers: its affinity mask,
        # else (mask None) the CPU count (None: the count is unknown).
        for mask, cpus, workers in (({0, 5}, 8, [2]), ({0}, 8, []), (None, 3, [3]),
                                    (None, None, []), (None, 1, [])):
            pools.clear()
            if mask is None:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert run_cli(capsys, *argv, "--threads", "100000") == (0, serial, "")
            assert pools == workers

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def too_large(cfg, threads):
            raise MemoryError

        monkeypatch.setattr(cli, "run_table2", too_large)
        code, out, err = run_cli(capsys, "table", "--which", "2", "--model", "poisson1",
                                 "--n", "20", "--B", "1000000000", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("pivotboot: error: design too large")
        assert err.count("\n") == 1

    def test_json_fields_present(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--which", "1", "--model", "poisson1", "--n", "12",
            "--outer", "6", "--inner", "6", "--seed", "3", "--timestamp", "T0",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report["report"]["results"]) == {"emp_G_star", "emp_T"}
        assert report["manifest"]["config"]["threshold"] == 1.644854

    def test_table2_has_three_results(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--which", "2", "--model", "poisson1", "--n", "10",
            "--outer", "4", "--inner", "4", "--B", "3", "--seed", "3",
            "--timestamp", "T0",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report["report"]["results"]) == {"emp_G_star", "emp_T", "emp_boot"}
        assert report["manifest"]["config"]["nominal"] == 0.9000169

    def test_byte_identical_across_threads_and_reruns(self, capsys):
        argv = ["table", "--which", "2", "--model", "exponential1", "--n", "10",
                "--outer", "8", "--inner", "8", "--B", "3", "--seed", "11",
                "--timestamp", "T0"]
        outputs = []
        for threads in ("1", "8", "1"):
            code, out, _ = run_cli(capsys, *argv, "--threads", threads)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_text_and_json_carry_identical_numbers(self, capsys):
        argv = ["table", "--which", "1", "--model", "poisson1", "--n", "10",
                "--outer", "5", "--inner", "5", "--seed", "9", "--timestamp", "T0"]
        _, json_out, _ = run_cli(capsys, *argv)
        _, text_out, _ = run_cli(capsys, *argv, "--text")
        results = json.loads(json_out)["report"]["results"]
        header, row = text_out.strip().splitlines()
        columns = header.split()
        values = row.split()
        for stat in ("emp_G_star", "emp_T"):
            rendered = values[columns.index(stat)]
            assert float(rendered) == float(results[stat])
            assert rendered == repr(float(results[stat]))

    # The exact bytes, column padding included, of one small run of each table.
    @pytest.mark.parametrize("which, expected", [
        ("1", "Distribution  n   emp_G_star          emp_T\n"
              "poisson1      10  0.2857142857142857  0.42857142857142855\n"),
        ("2", "Distribution  n   emp_G_star           emp_T  emp_boot\n"
              "poisson1      10  0.14285714285714285  0.0    0.14285714285714285\n"),
    ], ids=["1", "2"])
    def test_text_bytes_pinned(self, capsys, which, expected):
        code, out, _ = run_cli(capsys, "table", "--which", which, "--model", "poisson1",
                               "--n", "10", "--outer", "7", "--inner", "20", "--B", "3",
                               "--seed", "9", "--text")
        assert (code, out) == (0, expected)

    def test_json_flag_is_gone(self, capsys):
        # JSON is the only other output, so --json selected nothing
        with pytest.raises(SystemExit) as exc:
            main(["table", "--which", "1", "--model", "poisson1", "--n", "10", "--json"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_table1_ignores_B(self, capsys):
        # table 1 draws no replicate pivots, so its manifest records no B,
        # and it accepts a B that table 2 rejects
        def run(which, B):
            return run_cli(capsys, "table", "--which", which, "--model", "poisson1",
                           "--n", "10", "--outer", "3", "--inner", "20", "--B", B,
                           "--seed", "1", "--timestamp", "T0")

        code, out, _ = run("1", "1")
        assert code == 0 and run("1", "7") == run("1", "9") == (0, out, "")
        assert "B" not in json.loads(out)["manifest"]["config"]
        code, out, _ = run("2", "7")
        assert code == 0 and json.loads(out)["manifest"]["config"]["B"] == 7
        code, out, err = run("2", "1")
        assert (code, out) == (2, "") and "B must be at least 2" in err


class TestYdistCommand:
    def test_b9_output(self, capsys):
        code, out, _ = run_cli(capsys, "ydist", "--B", "9", "--alpha", "0.1",
                               "--seed", "1", "--timestamp", "T0")
        assert code == 0
        report = json.loads(out)
        assert report["y_quantile"] == 8
        assert report["nominal_exact"] == pytest.approx(0.9)
        assert report["nominal_genz_reference"] == pytest.approx(0.9000169)
        assert all(abs(p - 0.1) < 1e-9 for p in report["pmf_quadrature"])
        assert report["pmf_closed_form"] == pytest.approx([0.1] * 10)

    def test_b2_pmf(self, capsys):
        code, out, _ = run_cli(capsys, "ydist", "--B", "2", "--seed", "1",
                               "--timestamp", "T0")
        assert code == 0
        report = json.loads(out)
        assert report["pmf_closed_form"] == pytest.approx([1 / 3] * 3)

    def test_large_b_pmf_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "ydist", "--B", "100", "--alpha", "0.1",
                               "--seed", "1", "--timestamp", "T0")
        assert code == 0
        report = json.loads(out)
        assert np.allclose(report["pmf_quadrature"], report["pmf_closed_form"],
                           rtol=0.0, atol=1e-12)

    def test_b1_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "ydist", "--B", "1", "--seed", "1")
        assert code == 2
        assert "B" in err

    def test_b_above_1000_exits_2(self, capsys):
        # C(B, l) overflows a float from B = 1030
        code, _, err = run_cli(capsys, "ydist", "--B", "1001", "--seed", "1")
        assert code == 2
        assert "1000" in err


class TestBoundCommand:
    def test_matches_library_bitwise(self, capsys):
        from pivotboot.bounds import BoundParams, bound_terms, delta_n

        code, out, _ = run_cli(
            capsys, "bound", "--n", "100", "--m", "100", "--delta", "0.5",
            "--eps", "0.5", "--eps1", "0.1", "--eps2", "0.1", "--ratio", "1",
            "--seed", "1", "--timestamp", "T0",
        )
        assert code == 0
        report = json.loads(out)
        p = BoundParams(n=100, m=100, delta=0.5, eps=0.5, eps1=0.1, eps2=0.1,
                        third_abs_moment_ratio=1.0)
        first, second = bound_terms(p)
        assert report["delta_n"] == delta_n(p)
        assert report["first_term"] == first
        assert report["second_term"] == second
        assert report["total"] == first + second

    def test_inadmissible_names_inequality(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--n", "10", "--m", "10", "--delta", "0.1",
            "--eps", "0.5", "--eps1", "0.4", "--eps2", "0.1", "--ratio", "1",
            "--seed", "1",
        )
        assert code == 2
        assert "delta > (eps1/eps)^2 + p_var_dev + eps2" in err

    def test_non_finite_ratio_names_the_field(self, capsys):
        # this exited 2 only when the report was written, on its NaN first term
        code, out, err = run_cli(
            capsys, "bound", "--n", "50", "--m", "50", "--delta", "0.5",
            "--eps", "0.5", "--eps1", "0.1", "--eps2", "0.1", "--ratio", "nan",
            "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "third_abs_moment_ratio must be finite" in err

    @pytest.mark.parametrize("eps", ["1", "1.2"])
    def test_eps_at_least_one_exits_2(self, capsys, eps):
        # eps = 1.2 printed a negative total (-98.95) with exit 0
        code, out, err = run_cli(
            capsys, "bound", "--n", "50", "--m", "50", "--delta", "0.5",
            "--eps", eps, "--eps1", "0.1", "--eps2", "0.1", "--ratio", "1",
            "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "eps in (0, 1)" in err

    def test_singular_n_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--n", "1", "--m", "10", "--delta", "0.5",
            "--eps", "0.5", "--eps1", "0.1", "--eps2", "0.1", "--ratio", "1",
            "--seed", "1",
        )
        assert code == 2

    def test_rate_kind(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kind", "GStarRate",
                               "--n", "100", "--m", "100", "--seed", "1",
                               "--timestamp", "T0")
        assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(0.01)

    def test_rate_kind_spellings(self, capsys):
        for spelling in ("g_star_rate", "TDoubleStarRate", "t-double-star"):
            code, out, _ = run_cli(capsys, "bound", "--kind", spelling,
                                   "--n", "10", "--m", "4", "--seed", "1",
                                   "--timestamp", "T0")
            assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(max(4 / 100, 1 / 4, 10 / 16))

    def test_unknown_rate_kind(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--kind", "Bogus", "--n", "5",
                               "--m", "5", "--seed", "1")
        assert code == 2


class TestWeightsCommand:
    def test_draw_is_reproducible(self, capsys):
        a = run_cli(capsys, "weights", "--n", "6", "--m", "9", "--seed", "4",
                    "--timestamp", "T0")
        b = run_cli(capsys, "weights", "--n", "6", "--m", "9", "--seed", "4",
                    "--timestamp", "T0")
        assert a == b
        report = json.loads(a[1])
        assert sum(report["counts"]) == 9
        assert report["scheme"] == "multinomial"


class TestManifestAndSerialization:
    def test_env_seed_fallback(self, capsys, data_file, monkeypatch):
        monkeypatch.setenv("PIVOTBOOT_SEED", "987")
        code, out, _ = run_cli(capsys, "ci", data_file, "--method", "population",
                               "--m", "2", "--timestamp", "T0")
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == 987

    def test_generated_seed_is_reported(self, capsys, data_file, monkeypatch):
        monkeypatch.delenv("PIVOTBOOT_SEED", raising=False)
        code, out, _ = run_cli(capsys, "ci", data_file, "--method", "population",
                               "--m", "2", "--timestamp", "T0")
        assert code == 0
        assert isinstance(json.loads(out)["manifest"]["seed"], int)

    def test_stream_layout_in_every_manifest_that_reads_a_stream(self, capsys, data_file,
                                                                 tmp_path):
        from pivotboot.rng import RNG_LAYOUT

        wfile = tmp_path / "w.txt"
        wfile.write_text("2\n0\n")
        runs = {("weights", "--n", "5", "--m", "5"): RNG_LAYOUT,
                ("ci", data_file, "--method", "sample", "--m", "2"): RNG_LAYOUT,
                ("ci", data_file, "--method", "sample", "--weights-file", str(wfile)): None}
        for argv, layout in runs.items():
            code, out, _ = run_cli(capsys, *argv, "--seed", "1", "--timestamp", "T0")
            assert code == 0
            assert json.loads(out)["manifest"]["config"].get("rng_layout") == layout, argv
        assert RNG_LAYOUT == 7

    def test_json_roundtrip_is_byte_identical(self, capsys):
        code, out, _ = run_cli(capsys, "ydist", "--B", "5", "--alpha", "0.2",
                               "--seed", "1", "--timestamp", "T0")
        assert code == 0
        text = out.rstrip("\n")
        assert dumps(json.loads(text)) == text

    def test_env_seed_out_of_range_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PIVOTBOOT_SEED", "-99999999999999999999")
        code, out, err = run_cli(capsys, "weights", "--n", "5", "--m", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("pivotboot: error: PIVOTBOOT_SEED must lie in [-2**63, 2**63)")
        assert err.count("\n") == 1

    def test_bad_seed_is_reported_before_bad_data(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.5\n")
        code, out, err = run_cli(capsys, "ci", str(path), "--method", "population",
                                 "--seed", str(2**63))
        assert (code, out) == (2, "")
        assert err == f"pivotboot: error: --seed must lie in [-2**63, 2**63), got {2**63}\n"


class TestMalformedInputs:
    def test_bad_alpha_exits_2(self, capsys, data_file):
        code, _, err = run_cli(capsys, "ci", data_file, "--method", "population",
                               "--alpha", "2.0", "--m", "2", "--seed", "1")
        assert code == 2
        assert "alpha" in err

    def test_negative_n_weights_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "weights", "--n", "-3", "--m", "5",
                               "--seed", "1")
        assert code == 2


def run_cli_quietly(argv: list[str]) -> tuple[int, str, str]:
    """Exit code (argparse's SystemExit included), stdout and stderr of one
    in-process run; capsys cannot serve a hypothesis test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Mostly parseable files, so that runs get past the parser, with up to two
# noisy lines put in at random places.
clean_lines = st.one_of(st.floats(-1e6, 1e6).map(repr), st.sampled_from(["# note", "", " 7 "]))
noisy_lines = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e308", "-1e308", "1e-320"]),
    st.text(max_size=8),
)
float_args = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.1, 0.05, 1e-320, 1.0, 0.0]))


class TestExitCodeProperty:
    """Whatever the input, the CLI exits 0, 2 or 3 and never with a traceback."""

    @given(lines=st.lists(clean_lines, max_size=12),
           noise=st.lists(st.tuples(st.integers(0, 12), noisy_lines), max_size=2),
           crlf=st.booleans(),
           method=st.sampled_from(RECIPES), alpha=float_args,
           m=st.one_of(st.none(), st.integers(-3, 300), st.sampled_from([2**63, 10**30])),
           x=st.one_of(st.none(), float_args))
    @settings(max_examples=150, deadline=None)
    def test_ci(self, lines, noise, crlf, method, alpha, m, x):
        for at, line in noise:
            lines.insert(at, line)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.txt")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(("\r\n" if crlf else "\n").join(lines))
            argv = ["ci", path, "--method", method, f"--alpha={alpha!r}", "--seed", "3",
                    "--timestamp", "T0"]
            argv += [] if m is None else [f"--m={m}"]
            argv += [] if x is None else [f"--x={x!r}"]
            code, _, err = run_cli_quietly(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err

    @given(B=st.one_of(st.integers(1, 60), st.sampled_from([0, -4, 1001, 10**30])),
           alpha=st.one_of(st.none(), float_args))
    @settings(max_examples=60, deadline=None)
    def test_ydist(self, B, alpha):
        argv = ["ydist", f"--B={B}", "--seed", "3", "--timestamp", "T0"]
        argv += [] if alpha is None else [f"--alpha={alpha!r}"]
        code, _, err = run_cli_quietly(argv)
        assert code in (0, 2)
        assert "Traceback" not in err

    # Valid table arguments, kept small (a run draws outer x inner x (B + 1)
    # count rows of n entries, and a cell holds its replicate rows in chunks
    # within simulation._CHUNK entries), and values that a flag must reject.
    # A run breaks up to two flags, so most runs get past the configuration.
    TABLE_ARGS = {
        "--which": st.sampled_from(["1", "2"]),
        "--model": st.sampled_from(["poisson1", "lognormal01", "exponential1", "normal01"]),
        "--n": st.integers(2, 40),
        "--m": st.one_of(st.none(), st.integers(1, 400), st.sampled_from([10**6, 10**12])),
        "--B": st.one_of(st.none(), st.integers(2, 12)),
        "--outer": st.integers(1, 3),
        "--inner": st.integers(1, 3),
        "--band": st.one_of(st.none(), st.floats(1e-3, 0.5)),
        "--nominal": st.one_of(st.none(), st.floats(0.01, 0.99)),
    }
    TABLE_REJECTS = [
        *(("--which", v) for v in ("0", "3")),
        *(("--model", v) for v in ("cauchy", "")),
        *(("--n", v) for v in (1, 0, -1)),
        *(("--m", v) for v in (0, -2, 2**63, 10**30)),
        *(("--B", v) for v in (1, 0, -1)),
        *((flag, v) for flag in ("--outer", "--inner") for v in (0, -1)),
        *((flag, v) for flag in ("--band", "--nominal")
          for v in (math.nan, math.inf, -math.inf, 0.0, -0.25)),
        *(("--nominal", v) for v in (1.0, 2.5)),
    ]

    @given(values=st.fixed_dictionaries(TABLE_ARGS),
           broken=st.lists(st.sampled_from(TABLE_REJECTS), max_size=2))
    @settings(max_examples=150, deadline=None)
    @example(values={"--which": "2", "--model": "poisson1", "--n": 20, "--m": 10**6,
                     "--B": None, "--outer": 1, "--inner": 5, "--band": None,
                     "--nominal": None},
             broken=[])
    def test_table(self, values, broken):
        values.update(broken)
        argv = ["table", "--seed", "3", "--timestamp", "T0"]
        argv += [f"{flag}={value!r}" if isinstance(value, (int, float)) else f"{flag}={value}"
                 for flag, value in values.items() if value is not None]
        start = time.perf_counter()
        code, _, err = run_cli_quietly(argv)
        assert time.perf_counter() - start < 20.0
        # table 1 reads no B, so a bad --B breaks only the other tables
        rejected = [flag for flag, _ in broken if flag != "--B" or values["--which"] != "1"]
        assert code == (2 if rejected else 0)
        assert "Traceback" not in err

    # The error bound and rate functions: a run leaves each flag out, gives it
    # an admissible value or one that the bound must reject.
    BOUND_FLOATS = {
        "--delta": st.floats(0.0, 2.0),
        "--eps": st.floats(0.0, 1.5),
        "--eps1": st.floats(0.0, 0.5),
        "--eps2": st.floats(0.0, 0.5),
        "--ratio": st.floats(0.0, 5.0),
        "--p-var-dev": st.floats(-0.5, 1.5),
        "--C": st.floats(0.0, 2.0),
    }
    bound_sizes = st.one_of(st.none(), st.integers(-2, 5000),
                            st.sampled_from([2**63 - 1, 2**63, 10**200, 10**400]))

    @given(kind=st.one_of(st.none(), st.sampled_from(
               ["GStarRate", "t_star", "TDoubleStarRate", "g-double-star-rate", "bogus", ""])),
           n=bound_sizes, m=bound_sizes,
           floats=st.fixed_dictionaries(
               {flag: st.one_of(st.none(), values, float_args)
                for flag, values in BOUND_FLOATS.items()}))
    @settings(max_examples=200, deadline=None)
    @example(kind=None, n=100, m=100, floats={
        "--delta": 0.5, "--eps": 0.5, "--eps1": 0.1, "--eps2": 0.1, "--ratio": 1.0,
        "--p-var-dev": None, "--C": None})
    @example(kind="GStarRate", n=10**400, m=3, floats={})
    def test_bound(self, kind, n, m, floats):
        argv = ["bound", "--seed", "3", "--timestamp", "T0"]
        argv += [] if kind is None else [f"--kind={kind}"]
        sizes = {"--n": n, "--m": m}
        argv += [f"{flag}={value!r}" for flag, value in {**sizes, **floats}.items()
                 if value is not None]
        code, _, err = run_cli_quietly(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err

    # n stays at most 10**4 so that no run allocates a huge array; m reaches
    # past the 2**53 up to which float count totals are exact, and past int64.
    @given(n=st.one_of(st.integers(-3, 10**4), st.sampled_from([0, -10**30])),
           m=st.one_of(st.integers(-3, 10**6),
                       st.sampled_from([0, -1, 2**53, 2**53 + 1, 2**63 - 1, 2**63,
                                        -2**63 - 1, 10**30])))
    @settings(max_examples=100, deadline=None)
    @example(n=10**4, m=2**53)
    @example(n=10**4, m=2**63 - 1)  # a valid int64 total that the float counts lost
    def test_weights(self, n, m):
        code, _, err = run_cli_quietly(["weights", f"--n={n}", f"--m={m}", "--seed", "3",
                                        "--timestamp", "T0"])
        assert code == (0 if n >= 1 and 1 <= m <= 2**53 else 2)
        assert "Traceback" not in err

    @given(command=st.sampled_from(["weights", "ci", "ydist"]),
           seed=st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-10**30, 10**30),
                          st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1])))
    @settings(max_examples=100, deadline=None)
    def test_seed(self, command, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("9.5\n10.25\n11.0\n8.75\n10.5\n")
            argv = {"weights": ["weights", "--n", "5", "--m", "7"],
                    "ci": ["ci", path, "--method", "population", "--m", "4"],
                    "ydist": ["ydist", "--B", "9"]}[command]
            code, _, err = run_cli_quietly(argv + [f"--seed={seed}", "--timestamp", "T0"])
        assert code == (0 if -2**63 <= seed < 2**63 else 2)
        assert "Traceback" not in err


def payload(out: str):
    """What a run reports, without the manifest that records its options (a
    table report's config and seed echo it too); text output as it is."""
    try:
        report = json.loads(out)
    except ValueError:
        return out
    del report["manifest"]
    for key in ("config", "seed"):
        report.get("report", {}).pop(key, None)
    return report


# Each mode of each command: its arguments, and two values for every option
# that the command accepts (None leaves the option out, True gives the bare
# flag).  {d1} and {d2} are data files of five values, {w1} and {w2} weights
# files of five entries.
OPTION_CASES = {
    "ci drawn": (["ci", "{d1}", "--method", "population", "--m", "5", "--seed", "1"], {
        "data": ("{d1}", "{d2}"),
        "--method": ("population", "sample"),
        "--alpha": ("0.1", "0.2"),
        "--m": ("5", "7"),
        "--weights-file": (None, "{w1}"),  # exit 2: not with --m
        "--x": (None, "10.0"),  # exit 2: the mean methods take no --x
        "--seed": ("1", "2"),
        "--timestamp": ("T0", "T1"),
    }),
    "ci weights-file": (["ci", "{d1}", "--method", "ecdf", "--x", "10.0", "--weights-file",
                         "{w1}", "--seed", "1"], {
        "data": ("{d1}", "{d2}"),
        "--method": ("ecdf", "cdf"),
        "--alpha": ("0.1", "0.2"),
        "--m": (None, "5"),  # exit 2: not with --weights-file
        "--weights-file": ("{w1}", "{w2}"),
        "--x": ("10.0", "10.6"),
        "--seed": ("1", "2"),
        "--timestamp": ("T0", "T1"),
    }),
    **{f"table {which}": (["table", "--which", which, "--model", "normal01", "--n", "2",
                           "--outer", "4", "--inner", "10", "--nominal", "0.8", "--band", "0.2",
                           "--B", "3", "--seed", "1"], {
        "--which": (which, "2" if which == "1" else "1"),
        "--model": ("normal01", "exponential1"),
        "--n": ("2", "3"),
        "--m": ("2", "3"),
        "--outer": ("4", "3"),
        "--inner": ("10", "11"),
        "--threshold": ("-10", "10"),
        "--nominal": ("0.8", "0.1"),
        "--band": ("0.2", "0.01"),
        "--B": ("3", "4"),
        "--threads": ("1", "2"),
        "--text": (None, True),
        "--seed": ("1", "2"),
        "--timestamp": ("T0", "T1"),
    }) for which in ("1", "2")},
    "ydist": (["ydist", "--B", "9", "--seed", "1"], {
        "--B": ("9", "10"),
        "--alpha": (None, "0.1"),
        "--seed": ("1", "2"),
        "--timestamp": ("T0", "T1"),
    }),
    **{mode: (["bound", *args, "--seed", "1"], {
        "--kind": (None, "GStarRate") if kind is None else (kind, "GDoubleStarRate"),
        "--n": ("10", "3"),
        "--m": ("4", "5"),
        # exit 2 in a rate evaluation, which reads none of the bound's parameters
        **{flag: (None, "0.3") if kind else (value, "0.3") for flag, value in (
            ("--delta", "0.5"), ("--eps", "0.5"), ("--eps1", "0.1"), ("--eps2", "0.1"),
            ("--ratio", "1"), ("--p-var-dev", None), ("--C", None))},
        "--seed": ("1", "2"),
        "--timestamp": ("T0", "T1"),
    }) for mode, kind, args in (
        ("bound", None, ["--n", "10", "--m", "4", "--delta", "0.5", "--eps", "0.5", "--eps1",
                         "0.1", "--eps2", "0.1", "--ratio", "1"]),
        ("bound --kind", "GStarRate", ["--kind", "GStarRate", "--n", "10", "--m", "4"]))},
    "weights": (["weights", "--n", "5", "--m", "5", "--seed", "1"], {
        "--n": ("5", "6"),
        "--m": ("5", "6"),
        "--seed": ("1", "2"),
        "--timestamp": ("T0", "T1"),
    }),
}
# The options that README lists as leaving what a run reports alone: the
# manifest's timestamp, the worker count, the seed where no stream is read,
# and B in table 1, which draws no replicate pivots.
UNREAD_OPTIONS = {
    *((mode, "--timestamp") for mode in OPTION_CASES),
    ("table 1", "--threads"), ("table 2", "--threads"),
    ("ci weights-file", "--seed"), ("ydist", "--seed"), ("bound", "--seed"),
    ("bound --kind", "--seed"),
    ("table 1", "--B"),
}


class TestOptionProperty:
    """Every option that a command accepts acts: two values give different
    payloads, or one of them exits 2, or the option is one that README lists
    as unread (``UNREAD_OPTIONS``), and then the payloads are the same."""

    @pytest.fixture
    def files(self, tmp_path):
        contents = {"d1": "9.5 10.25 11.0 8.75 10.5", "d2": "9.5 10.25 9.0 8.75 12.5",
                    "w1": "2 0 1 1 1", "w2": "0 2 1 1 1"}
        for name, text in contents.items():
            (tmp_path / name).write_text(text.replace(" ", "\n") + "\n")
        return {name: str(tmp_path / name) for name in contents}

    def test_every_option_has_cases(self):
        commands = next(action.choices for action in cli._build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        for mode, (argv, values) in OPTION_CASES.items():
            accepted = {action.option_strings[0] if action.option_strings else action.dest
                        for action in commands[argv[0]]._actions if action.dest != "help"}
            assert set(values) == accepted, mode

    @pytest.mark.parametrize("mode, option", [(mode, option)
                                              for mode, (_, values) in OPTION_CASES.items()
                                              for option in values])
    def test_option_changes_the_payload_or_exits_2(self, files, mode, option):
        argv, values = OPTION_CASES[mode]
        runs = []
        for value in values[option]:
            args = [arg.format(**files) for arg in [*argv, "--timestamp", "T0"]]
            if option == "data":
                args[1] = value.format(**files)
            else:
                if option in args:
                    at = args.index(option)
                    del args[at:at + 2]
                if value is not None:
                    args += [option] if value is True else [option, value.format(**files)]
            runs.append(run_cli_quietly(args))
        (code_a, out_a, _), (code_b, out_b, _) = runs
        assert code_a == 0  # the first value is the mode's own
        if (mode, option) in UNREAD_OPTIONS:
            assert code_b == 0 and payload(out_a) == payload(out_b)
        else:
            assert code_b == 2 or (code_b == 0 and payload(out_a) != payload(out_b))


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["bound", "--kind", "GStarRate", "--n", "50", "--m", "50"],
        ["table", "--which", "2", "--model", "poisson1", "--n", "10", "--outer", "2",
         "--inner", "3"],
    ], ids=["bound", "table"])
    def test_closed_pipe_exits_0(self, argv):
        # The read end closes before the child starts, so every write fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pivotboot.cli", *argv, "--seed", "1"], env=fresh_env(),
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, "")


class TestRuntimeDependencies:
    """Each subcommand imports only what it runs, seen in a fresh interpreter."""

    WATCHED = ("numpy", "scipy", "concurrent.futures", "pivotboot.simulation",
               "pivotboot.multi_bootstrap")

    @staticmethod
    def fresh_python(*args: str) -> str:
        """stdout of ``python *args`` in a fresh interpreter importing this
        checkout's package."""
        result = subprocess.run([sys.executable, *args], env=fresh_env(), capture_output=True,
                                text=True, timeout=120, check=True)
        return result.stdout

    def loaded_by(self, *argv: str, watched: tuple = WATCHED) -> tuple[int, set]:
        """Exit code of ``main(argv)`` and the watched modules it loaded."""
        probe = ("import contextlib, io, json, sys\n"
                 "from pivotboot.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()), "
                 "contextlib.redirect_stderr(io.StringIO()):\n"
                 "    code = main(sys.argv[1:])\n"
                 f"print(json.dumps([code, [m for m in {watched!r} if m in sys.modules]]))")
        code, loaded = json.loads(self.fresh_python("-c", probe, *argv))
        return code, set(loaded)

    def test_cli_import_loads_no_scipy(self):
        probe = ("import pivotboot.cli, sys; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert self.fresh_python("-c", probe).strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["--n", "50", "--m", "50", "--delta", "0.5", "--eps", "0.5", "--eps1", "0.1",
         "--eps2", "0.1", "--ratio", "1"],
        ["--kind", "GStarRate", "--n", "50", "--m", "50"],
    ])
    def test_bound_loads_no_numpy(self, argv):
        assert self.loaded_by("bound", *argv, "--timestamp", "T0") == (0, set())

    def test_rejected_data_file_loads_no_numpy(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1.5\n2.5\nnan\n3.5\n")
        code, loaded = self.loaded_by("ci", str(path), "--method", "population", "--seed", "1")
        assert (code, loaded) == (2, set())

    def test_ecdf_without_x_loads_no_numpy(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1\n2\n3\n")
        code, loaded = self.loaded_by("ci", str(path), "--method", "cdf", "--seed", "1")
        assert (code, loaded) == (2, set())

    def test_ci_loads_no_harness(self, tmp_path):
        data, weights = tmp_path / "data.txt", tmp_path / "weights.txt"
        data.write_text("9.5\n10.25\n11.0\n8.75\n10.5\n")
        weights.write_text("1\n0\n2\n1\n1\n")
        code, loaded = self.loaded_by("ci", str(data), "--method", "cdf", "--x", "10",
                                      "--weights-file", str(weights), "--seed", "1")
        assert code == 0
        assert loaded == set()

    def test_overflowing_data_file_loads_no_numpy(self, tmp_path):
        # finite values whose variance overflows: Sample rejects them in plain floats
        path = tmp_path / "huge.txt"
        path.write_text("1e308\n-1e308\n1e308\n-1e308\n")
        code, loaded = self.loaded_by("ci", str(path), "--method", "sample", "--seed", "1")
        assert (code, loaded) == (2, set())

    def test_ydist_loads_no_numpy(self):
        code, loaded = self.loaded_by("ydist", "--B", "9", "--alpha", "0.1", "--seed", "1")
        assert (code, loaded) == (0, set())

    def test_drawn_weights_load_no_numpy(self, tmp_path):
        # rows of at most 8n 16-bit indices come from the standard-library stream
        data = tmp_path / "data.txt"
        data.write_text("9.5\n10.25\n11.0\n8.75\n10.5\n")
        assert self.loaded_by("weights", "--n", "5", "--m", "5", "--seed", "1") == (0, set())
        code, loaded = self.loaded_by("ci", str(data), "--method", "population", "--seed", "1")
        assert (code, loaded) == (0, set())

    def test_weights_past_8n_hand_over_to_numpy(self):
        # m > 8n: numpy's multinomial sampler draws the row, as before
        assert self.loaded_by("weights", "--n", "5", "--m", "41", "--seed", "1") == (0, {"numpy"})
        out = self.fresh_python("-m", "pivotboot.cli", "weights", "--n", "5", "--m", "41",
                                "--seed", "1", "--timestamp", "T0")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1983013667ace2adf240d3668272f63504f838a7abbad196e4533426def17351")

    def test_value_types_load_no_dataclasses(self, tmp_path):
        # the six value types derive from errors.Frozen, so only table imports dataclasses
        data, weights, huge = tmp_path / "data.txt", tmp_path / "w.txt", tmp_path / "huge.txt"
        data.write_text("9.5\n10.25\n11.0\n8.75\n10.5\n")
        weights.write_text("1\n0\n2\n1\n1\n")
        huge.write_text("1e308\n-1e308\n1e308\n-1e308\n")
        commands = {
            "ci --weights-file": (["ci", str(data), "--method", "cdf", "--x", "10",
                                   "--weights-file", str(weights)], 0),
            "ci drawn": (["ci", str(data), "--method", "superpop"], 0),
            "ci 1e308": (["ci", str(huge), "--method", "sample"], 2),
            "ydist": (["ydist", "--B", "9", "--alpha", "0.1"], 0),
            "bound": (["bound", "--n", "50", "--m", "50", "--delta", "0.5", "--eps", "0.5",
                       "--eps1", "0.1", "--eps2", "0.1", "--ratio", "1"], 0),
            "bound --kind": (["bound", "--kind", "GStarRate", "--n", "50", "--m", "50"], 0),
            "weights": (["weights", "--n", "5", "--m", "5"], 0),
        }
        loaded = {name: self.loaded_by(*argv, "--seed", "1", watched=("dataclasses", "inspect"))
                  for name, (argv, _) in commands.items()}
        assert loaded == {name: (code, set()) for name, (_, code) in commands.items()}

    def test_simulation_loads_no_stream_copy(self):
        probe = ("import sys, pivotboot.simulation, pivotboot.multi_bootstrap; "
                 "print('pivotboot.stream' in sys.modules)")
        assert self.fresh_python("-c", probe).strip() == "False"

    def test_replicate_cutoffs_load_no_numpy(self):
        # ReplicateSet derives from errors.Frozen and sorts its tuple in Python
        probe = ("import sys, pivotboot.multi_bootstrap; "
                 "print(sorted(m for m in ('numpy', 'dataclasses') if m in sys.modules))")
        assert self.fresh_python("-c", probe).strip() == "[]"

    def test_table_loads_numpy(self):
        code, loaded = self.loaded_by("table", "--which", "1", "--model", "poisson1", "--n", "5",
                                      "--outer", "1", "--inner", "2", "--seed", "1")
        assert (code, "numpy" in loaded) == (0, True)

    def test_only_bound_loads_bounds(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("9.5\n10.25\n11.0\n8.75\n10.5\n")
        commands = {
            "ci": ["ci", str(data), "--method", "population"],
            "table": ["table", "--which", "2", "--model", "poisson1", "--n", "5", "--outer", "1",
                      "--inner", "2"],
            "ydist": ["ydist", "--B", "9"],
            "bound": ["bound", "--kind", "GStarRate", "--n", "50", "--m", "50"],
            "weights": ["weights", "--n", "5", "--m", "5"],
        }
        loaded = {name: self.loaded_by(*argv, "--seed", "1", watched=("pivotboot.bounds",))
                  for name, argv in commands.items()}
        assert loaded == {name: (0, {"pivotboot.bounds"} if name == "bound" else set())
                          for name in commands}

    def test_package_names_resolve_lazily(self):
        # The package holds no alias of a submodule's name: importing it loads
        # no submodule, and a star import binds only the recipe names.
        probe = """
import sys
import pivotboot
assert "numpy" not in sys.modules
assert not any(name.startswith("pivotboot.") for name in sys.modules)
namespace = {}
exec("from pivotboot import *", namespace)
assert set(namespace) - {"__builtins__"} == {"RECIPES"}
print("ok")
"""
        assert self.fresh_python("-c", probe).strip() == "ok"
