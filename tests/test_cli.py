"""CLI: exit codes, artifacts, determinism, config round-trip."""

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import biharm
from biharm import cli
from biharm.cli import _CSV_BLOCK_ROWS, _write_csv, build_parser, run

WITNESS_ARGS = ["witness", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2",
                "--mesh", "96", "--r-values", "1024,4096,16384,65536"]


def _load(out_dir, name="report.json"):
    return json.loads((out_dir / name).read_text())


def test_classify_reports_regime(tmp_path):
    out = tmp_path / "o"
    code = run(["classify", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2",
                "--out-dir", str(out)])
    assert code == 0
    report = _load(out)
    assert report["classification"]["regime"] == "NONEXISTENCE"
    assert report["p_star"] == 3.0
    assert report["disclaimers"]["constants_normalized_to_one"] is True


def test_kernel_table_first_row(tmp_path):
    out = tmp_path / "o"
    code = run(["kernel-table", "--alpha", "6", "--gamma", "4", "--n", "6",
                "--rho-min", "1", "--rho-max", "1e4", "--points", "9",
                "--out-dir", str(out)])
    assert code == 0
    lines = (out / "kernel_table.csv").read_text().splitlines()
    assert lines[0] == "rho,gtilde"
    rho, val = (float(x) for x in lines[1].split(","))
    assert rho == 1.0
    assert val == pytest.approx(1.0 / 6.0, abs=1e-6)
    report = _load(out)
    assert report["loglog_slope"] == pytest.approx(-2.0, abs=0.1)


def test_split_verify_bounds_on_a_1024_point_grid(tmp_path, capsys):
    # estimate_constants applies split potentials to grid sources at their
    # own nodes, the last one included, so every shift sits on a seam of the
    # low zone (f's next bound) or beyond the source's last node
    out = tmp_path / "o"
    code = run(["verify-bounds", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4",
                "--grid-points", "1024", "--out-dir", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert "NaN" not in (out / "report.json").read_text()


def test_unknown_flag_exits_one(tmp_path, capsys):
    code = run(["classify", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2",
                "--frobnicate", "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_validation_error_exits_two(tmp_path):
    code = run(["classify", "--alpha", "6", "--gamma", "3", "--m", "0", "--p", "2",
                "--out-dir", str(tmp_path / "o")])
    assert code == 2


def test_solve_exits_three_on_nonconvergence(tmp_path, capsys):
    code = run(["solve", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4",
                "--nodes", "256", "--maxit", "1", "--out-dir", str(tmp_path / "o")])
    assert code == 3
    # the one error line carries the iteration trace's length and last value
    assert capsys.readouterr().err == ("error: fixed-point iteration did not reach tol=1e-10 "
                                       "in 1 steps (trace: 1 values, last 1.9e-02)\n")


def test_witness_artifacts(tmp_path):
    out = tmp_path / "o"
    code = run(WITNESS_ARGS + ["--out-dir", str(out)])
    assert code == 0
    report = _load(out)
    assert report["verdict"] == "CONTRADICTION"
    lines = (out / "witness.csv").read_text().splitlines()
    assert lines[0] == "R,lhs,rhs"
    assert len(lines) == 5


def test_solve_artifacts(tmp_path):
    out = tmp_path / "o"
    code = run(["solve", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4",
                "--nodes", "512", "--out-dir", str(out)])
    assert code == 0
    report = _load(out)
    assert report["membership_margin"] > 0.0
    assert report["solve"]["residuals"] is not None
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "rho,u,h"
    # 12+ significant digits in scientific notation
    assert "e" in lines[1].split(",")[1]
    mantissa = lines[1].split(",")[1].split("e")[0]
    assert len(mantissa.split(".")[1]) >= 12


def test_oracle_agreement(tmp_path):
    out = tmp_path / "o"
    code = run(["oracle", "--n", "6", "--x", "10", "--ball-radius", "1",
                "--samples", "200000", "--seed", "5", "--out-dir", str(out)])
    assert code == 0
    report = _load(out)
    assert report["within_3_stderr"] is True


def test_oracle_stderr_survives_underflowing_squares(tmp_path):
    # samples near 1e-191 square to 0: stderr read 0.0 and the estimate,
    # 2.08e-191 against an exact 2.08e-191, did not agree
    out = tmp_path / "o"
    assert run(["oracle", "--n", "107", "--x", "25", "--out-dir", str(out)]) == 0
    report = _load(out)
    assert report["stderr"] > 0.0 and report["within_3_stderr"] is True


def test_oracle_agreement_is_scale_free(tmp_path, monkeypatch):
    # an absolute slack of 1e-12 let an estimate of 0 agree with any exact
    # value below it (here 5.2e-18)
    monkeypatch.setattr(biharm.kernels, "mc_oracle", lambda *args: (0.0, 0.0))
    out = tmp_path / "o"
    assert run(["oracle", "--n", "6", "--x", "10", "--height", "1e-14",
                "--out-dir", str(out)]) == 0
    assert _load(out)["within_3_stderr"] is False


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(WITNESS_ARGS + ["--out-dir", str(out)]) == 0
        assert run(["oracle", "--n", "6", "--x", "3", "--ball-radius", "1",
                    "--samples", "50000", "--seed", "11", "--out-dir", str(out)]) == 0
    for name in ("report.json", "witness.csv", "resolved.cfg"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_witness_two_radii_exits_two(tmp_path, capsys):
    code = run(["witness", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2",
                "--r-values", "1024,4096", "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "at least 3" in capsys.readouterr().err


def test_global_flags_before_or_after_subcommand(tmp_path):
    oracle = ["oracle", "--n", "6", "--x", "10", "--samples", "20000"]
    before, after = tmp_path / "before", tmp_path / "after"
    assert run(["--seed", "7", "--out-dir", str(before)] + oracle) == 0
    assert run(oracle + ["--seed", "7", "--out-dir", str(after)]) == 0
    assert _load(before)["config"]["seed"] == "7"
    for name in ("report.json", "resolved.cfg"):
        assert filecmp.cmp(before / name, after / name, shallow=False), name
    # a config file supplies the seed only where no flag gives it
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=3\n")
    out = tmp_path / "cfg"
    assert run(["--seed", "7", "--config", str(cfg), "--out-dir", str(out)] + oracle) == 0
    assert filecmp.cmp(before / "report.json", out / "report.json", shallow=False)
    assert run(["--config", str(cfg), "--out-dir", str(out)] + oracle) == 0
    assert _load(out)["config"]["seed"] == "3"


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1


@pytest.mark.parametrize("radii", ["100", "100,100"])
def test_eigen_needs_two_distinct_radii(tmp_path, capsys, radii):
    # a slope was fitted through one point, with numpy's RankWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["eigen", "--alpha", "6", "--gamma", "4", "--r-values", radii,
                    "--out-dir", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("extra", [["--r-values", "1e50,2e50,4e50"], ["--big-n", "1e20"]])
def test_witness_correlation_of_huge_ratios(tmp_path, extra):
    # ratios beyond ~1e154 overflowed the dot products: a RuntimeWarning and
    # log_correlation 0.0
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["witness", "--alpha", "6", "--gamma", "4", "--p", "2", *extra,
                    "--out-dir", str(out)]) == 0
    witness = _load(out)["witness"]
    radii = np.array([row["R"] for row in witness["rows"]])
    ratios = np.array([row["ratio"] for row in witness["rows"]])
    assert ratios.max() > 1e154
    expected = np.corrcoef(np.log(radii), ratios / ratios.max())[0, 1]
    assert witness["log_correlation"] == pytest.approx(expected, rel=1e-12)


def test_cli_import_leaves_scipy_out():
    # scipy.linalg is the eigen solves' import; every other command runs without it
    src = str(Path(biharm.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import biharm.cli; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_commands_without_eigen_solves_leave_scipy_out(tmp_path):
    # only the eigen solves import scipy, on their first call
    src = str(Path(biharm.__file__).parents[1])
    commands = [
        ["classify", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2"],
        ["kernel-table", "--alpha", "6", "--gamma", "4", "--points", "11"],
        ["solve", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4", "--nodes", "64"],
        ["verify-bounds", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4",
         "--kernel-mode", "surrogate-exact", "--grid-points", "24"],
        ["oracle", "--n", "6", "--x", "10", "--ball-radius", "1", "--samples", "1000"],
    ]
    runs = [argv + ["--out-dir", str(tmp_path / str(i))] for i, argv in enumerate(commands)]
    eigen = ["eigen", "--alpha", "6", "--gamma", "4", "--mesh", "64",
             "--out-dir", str(tmp_path / "eigen")]
    # nor numpy.ma, which np.unique imports on its first call
    code = (f"import sys; sys.path.insert(0, {src!r}); from biharm.cli import run\n"
            f"assert [run(argv) for argv in {runs!r}] == {[0] * len(runs)!r}\n"
            "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
            f"assert run({eigen!r}) == 0\n"
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False", "False", "True"]


def test_csv_rows_match_the_per_value_format(tmp_path):
    values = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
              1.0 / 3.0, -2.5e-300, 1e16 + 2.0, 123456789.0]
    rows = list(zip(values, np.array(values[::-1]), map(np.float64, values)))
    for header, table in (("a,b,c", rows), ("x,y", [row[:2] for row in rows]), ("x,y", [])):
        expected = "\n".join([header] + [",".join(f"{x:.12e}" for x in row) for row in table])
        _write_csv(tmp_path / "t.csv", header, iter(table))
        assert (tmp_path / "t.csv").read_bytes() == (expected + "\n").encode()


def _per_value_csv(header, table):
    return (header + "\n" + "".join(",".join("%.12e" % x for x in row) + "\n"
                                    for row in table)).encode()


# 10**p and both its float neighbours, for every decimal exponent of a double
_POWERS_OF_TEN = [v for p in range(-323, 309)
                  for v in (math.nextafter(10.0 ** p, 0.0), 10.0 ** p,
                            math.nextafter(10.0 ** p, math.inf))]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(), min_size=1, max_size=40), cols=st.integers(1, 3),
       rows=st.one_of(st.integers(0, 8),
                      st.integers(_CSV_BLOCK_ROWS - 2, _CSV_BLOCK_ROWS + 2),
                      st.integers(2 * _CSV_BLOCK_ROWS - 1, 2 * _CSV_BLOCK_ROWS + 1)))
# exact decimal ties, which round half to even, and a carry to 1e+01
@example(values=[12345678901235.0, 12345678901225.0, 9.9999999999995], cols=3, rows=1)
# carries that N meets after the scaling (log10 rounds the one above up to 1)
@example(values=[9.9999999999995e-101, -9.999999999999501e-256, 9.9999999999995e-69], cols=3,
         rows=1)
@example(values=_POWERS_OF_TEN, cols=3, rows=len(_POWERS_OF_TEN) // 3)
@example(values=[1e100, -1e-100, 5e-324, -1.7976931348623157e308, 0.0, -0.0,
                 math.inf, -math.inf, math.nan], cols=3, rows=3)
def test_csv_bytes_match_the_per_value_format(tmp_path, values, cols, rows):
    table = np.resize(np.array(values), (rows, cols))
    header = ",".join("abc"[:cols])
    _write_csv(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_bytes() == _per_value_csv(header, table.tolist())


def test_csv_digits_stay_exact_where_long_double_is_double(tmp_path, monkeypatch):
    # with a long double of 53 bits, more values fall back to the per-value
    # format (near ties, and below 1e-296, where 10**(12 - k) overflows)
    rng = np.random.default_rng(0)
    table = np.concatenate([np.array(_POWERS_OF_TEN),
                            rng.lognormal(0.0, 200.0, 3000) * rng.choice([-1.0, 1.0], 3000),
                            rng.integers(1, 10 ** 15, 3000) / 100.0]).reshape(-1, 3)
    monkeypatch.setattr(np, "longdouble", np.float64)
    cli._csv_tables.cache_clear()
    try:
        _write_csv(tmp_path / "t.csv", "a,b,c", table)
    finally:
        monkeypatch.undo()
        cli._csv_tables.cache_clear()
    assert (tmp_path / "t.csv").read_bytes() == _per_value_csv("a,b,c", table.tolist())


@pytest.mark.parametrize("rows", [[(1.0, 2.0), (3.0,)], [(1.0, 2.0, 3.0)], [(1.0,)],
                                  np.ones((2, 3))])
def test_csv_rows_of_another_width_fail(tmp_path, rows):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "t.csv", "x,y", rows)
    assert not (tmp_path / "t.csv").exists()


def test_csv_writer_holds_one_block_at_a_time(tmp_path):
    # the whole-table % format peaked at 13.0 MB for this table
    table = np.random.default_rng(0).lognormal(0.0, 50.0, (65536, 3))
    _write_csv(tmp_path / "t.csv", "a,b,c", table[:1])   # builds the lookup tables
    peaks = []
    for rows in (_CSV_BLOCK_ROWS, len(table)):
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "t.csv", "a,b,c", table[:rows])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0] and peaks[1] < 2 ** 20, peaks


@pytest.mark.parametrize("text", [None, "alpha=six\n", "r_values=1,x\n"])
def test_unreadable_config_exits_one(tmp_path, capsys, text):
    path = tmp_path / "case.cfg"
    if text is not None:
        path.write_text(text)
    code = run(["eigen", "--config", str(path), "--gamma", "4", "--alpha", "6",
                "--out-dir", str(tmp_path / "o")])
    assert code == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["eigen", "--alpha", "6", "--gamma", "4", "--r-values", "1e2,abc"],
    ["witness", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2", "--r-values", "x"],
])
def test_non_numeric_radii_exit_one(tmp_path, capsys, argv):
    assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_reports_embed_config_and_disclaimers(tmp_path):
    out = tmp_path / "o"
    assert run(["eigen", "--alpha", "6", "--gamma", "4", "--mesh", "96",
                "--out-dir", str(out)]) == 0
    report = _load(out)
    assert report["disclaimers"]["constants_normalized_to_one"] is True
    assert report["config"]["alpha"] == "6.0"
    assert (out / "resolved.cfg").exists()


def test_config_file_round_trip(tmp_path):
    out1 = tmp_path / "a"
    assert run(["classify", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2",
                "--out-dir", str(out1)]) == 0
    out2 = tmp_path / "b"
    assert run(["classify", "--config", str(out1 / "resolved.cfg"),
                "--out-dir", str(out2)]) == 0
    a, b = _load(out1), _load(out2)
    assert a["classification"] == b["classification"]
    # explicit flags win over config values
    out3 = tmp_path / "c"
    assert run(["classify", "--config", str(out1 / "resolved.cfg"), "--p", "4",
                "--out-dir", str(out3)]) == 0
    assert _load(out3)["classification"]["regime"] == "EXISTENCE"


def test_config_file_forms(tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text("# classify at p = 2\n\nalpha = 6\ngamma=4\nm=0\np=2\n")
    out = tmp_path / "o"
    assert run(["classify", f"--config={cfg}", "--out-dir", str(out)]) == 0
    assert _load(out)["p_star"] == 3.0


@pytest.mark.parametrize("form", [["--conf", "{cfg}"], ["--conf={cfg}"]])
def test_abbreviated_config_flag_reads_the_file(tmp_path, form):
    # argparse reads a prefix of --config as --config, so its file is read too
    cfg = tmp_path / "s.cfg"
    cfg.write_text("samples=2000\n")
    out = tmp_path / "o"
    argv = ["oracle", "--x", "10", *(tok.format(cfg=cfg) for tok in form), "--out-dir", str(out)]
    assert run(argv) == 0
    assert _load(out)["config"]["samples"] == "2000"
    assert "samples=2000" in (out / "resolved.cfg").read_text().splitlines()


@pytest.mark.parametrize("text, command, code", [
    ("alpha 6\n", ["classify"], 2),                 # a line without '='
    ("alpha=6\nfrobnicate=1\n", ["classify"], 2),   # a key classify does not take
    ("alpha=6\n", [], 1),                            # no subcommand
])
def test_bad_config_exits_with_one_error(tmp_path, capsys, text, command, code):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    assert run(["--config", str(cfg), *command, "--out-dir", str(tmp_path / "o")]) == code
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4", "--nodes", "64"],
    ["verify-bounds", "--alpha", "6", "--gamma", "4", "--p", "4",
     "--kernel-mode", "surrogate-exact", "--grid-points", "48"],
])
def test_config_rerun_keeps_a_and_b(tmp_path, argv):
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert run(argv + ["--a", "0.9", "--b", "1.95", "--out-dir", str(first)]) == 0
    report = _load(first)
    assert (report["config"]["a"], report["config"]["b"]) == ("0.9", "1.95")
    plan = report.get("plan") or report["solve"]["plan"]
    assert (plan["a"], plan["b"]) == (0.9, 1.95)
    assert run([argv[0], "--config", str(first / "resolved.cfg"), "--out-dir", str(rerun)]) == 0
    for name in ("report.json", "resolved.cfg"):
        assert filecmp.cmp(first / name, rerun / name, shallow=False), name


@pytest.mark.parametrize("global_flags", [["--out-dir", "eigen"], ["--out-dir", "classify"],
                                          ["--out", "eigen"]])
def test_config_after_global_flags_naming_a_command(tmp_path, monkeypatch, global_flags):
    # the subcommand was taken as the first token naming one, so an --out-dir
    # named "eigen" checked a classify config against eigen's flags (exit 2);
    # argparse also reads a prefix of a global flag as that flag
    cfg = tmp_path / "case.cfg"
    cfg.write_text("alpha=6\ngamma=4\nm=0\np=2\n")
    monkeypatch.chdir(tmp_path)
    assert run([*global_flags, "--config", str(cfg), "classify"]) == 0
    assert _load(tmp_path / global_flags[-1])["p_star"] == 3.0


@pytest.mark.parametrize("text, command, flag", [
    ("mode=bogus\n", ["classify", "--m", "0", "--p", "2"], "--mode"),
    ("kernel_mode=bogus\n", ["solve", "--s", "0", "--p", "4"], "--kernel-mode"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, text, command, flag):
    # a config value outside a flag's choices exits 1 with argparse's line,
    # as the flag does, not 2 from the profile's own check
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    argv = [*command, "--alpha", "6", "--gamma", "4", "--config", str(cfg),
            "--out-dir", str(tmp_path / "o")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid choice: 'bogus'" in err
    assert not (tmp_path / "o").exists()


def test_parser_keeps_no_state_between_runs(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("alpha=6\n")
    classify = ["classify", "--gamma", "4", "--m", "0", "--p", "2"]
    assert run([*classify, "--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    # one parser serves every run, so a config leaves nothing in it
    assert run([*classify, "--out-dir", str(tmp_path / "b")]) == 1
    assert "--alpha" in capsys.readouterr().err


def test_module_help_lists_every_subcommand():
    src = str(Path(biharm.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "biharm", "-h"], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0
    for command in ("classify", "kernel-table", "verify-bounds", "eigen", "witness", "solve",
                    "oracle"):
        assert command in out.stdout, command


@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "inf", "--gamma", "4", "--m", "0", "--p", "2"],
    ["classify", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "nan"],
    ["witness", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2", "--big-n", "inf"],
    ["eigen", "--alpha", "6", "--gamma", "4", "--r-values", "1e2,inf,1e4"],
    ["oracle", "--x", "nan"],
])
def test_non_finite_flags_exit_one(tmp_path, capsys, argv):
    assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["oracle", "--x", "-1", "--samples", "1000"],
    ["eigen", "--alpha", "6", "--gamma", "4", "--ratio", "0"],
    ["eigen", "--alpha", "6", "--gamma", "4", "--ratio", "1"],
])
def test_negative_radius_or_small_ratio_exits_two(tmp_path, capsys, argv):
    assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4", "--nodes"],
    ["kernel-table", "--alpha", "6", "--gamma", "4", "--points"],
    ["verify-bounds", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4", "--grid-points"],
    ["eigen", "--alpha", "6", "--gamma", "4", "--mesh"],
    ["witness", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2", "--mesh"],
])
def test_sizes_too_large_to_allocate_exit_two(tmp_path, capsys, argv):
    # numpy refuses 10**15 points at once; its MemoryError was a traceback, exit 1
    assert run(argv + [str(10 ** 15), "--out-dir", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("argv, error", [
    (["--ball-radius", "0"], "ball radius must be finite and > 0, got 0.0"),
    (["--ball-radius", "-1"], "ball radius must be finite and > 0, got -1.0"),
    (["--height", "-1"], "ball height must be finite and >= 0, got -1.0"),
])
def test_impossible_ball_exits_two_naming_it(tmp_path, capsys, monkeypatch, argv, error):
    # rejected before any sampling, naming the value
    def no_oracle(*args):
        raise AssertionError("mc_oracle ran")

    monkeypatch.setattr(biharm.kernels, "mc_oracle", no_oracle)
    assert run(["oracle", "--x", "1", *argv, "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("flag", ["--maxit=0", "--maxit=-1", "--tol=0", "--tol=-1e-10"])
def test_solve_without_steps_or_tolerance_exits_two(tmp_path, capsys, monkeypatch, flag):
    # rejected before any potential is formed; these exited 3, after 0 steps
    # (--maxit 0) or after all 80 (--tol 0)
    def no_constants(*args):
        raise AssertionError("estimate_constants ran")

    monkeypatch.setattr(biharm.solver, "estimate_constants", no_constants)
    assert run(["solve", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4", flag,
                "--out-dir", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys)


def test_every_float_flag_reads_a_negative_exponent_as_its_value():
    # argparse alone takes "-1e-3" for a flag ("expected one argument")
    parser = build_parser()
    seen = 0
    for name, sub in parser.commands.items():
        required = [a.option_strings[-1] for a in sub._actions if a.required]
        for action in sub._actions:
            if action.type is biharm.cli._finite_float:
                flag = action.option_strings[-1]
                fill = [tok for req in required if req != flag for tok in (req, "1")]
                args = parser.parse_args([name, *fill, flag, "-1e-3"])
                assert getattr(args, action.dest) == -1e-3
                seen += 1
    assert seen > 20


def test_solve_reads_a_negative_exponent_value(tmp_path):
    out = tmp_path / "o"
    assert run(["solve", "--alpha", "6", "--gamma", "4", "--s", "-1e-3", "--p", "4",
                "--nodes", "64", "--kernel-mode", "split-comparison", "--out-dir", str(out)]) == 0
    assert float(_load(out)["config"]["s"]) == -1e-3


@pytest.mark.parametrize("argv", [
    ["oracle", "--x", "1e308"],
    ["oracle", "--x", "1", "--ball-radius", "1e308"],
    ["oracle", "--x", "1", "--n", "100000"],
    ["kernel-table", "--alpha", "6", "--gamma", "4", "--rho-max", "1e308", "--points", "5"],
    ["oracle", "--n", "107", "--x", "1e-10", "--ball-radius", "1e-10", "--samples", "437"],
    ["verify-bounds", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4",
     "--kernel-mode", "euclidean-exact", "--n", "200"],
    ["oracle", "--n", "257", "--x", "9964.347056263568", "--ball-radius", "10",
     "--height", "10", "--samples", "257"],
])
def test_out_of_range_inputs_exit_two(tmp_path, capsys, argv):
    # these raised OverflowError / MemoryError, wrote nan rows or "exact": NaN
    # with exit 0, or warned (a max-kernel potential, oracle sample values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    _assert_one_error_line(capsys)
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("argv, named", [
    (["eigen", "--alpha", "6", "--gamma", "4", "--r-values", "1e300"],
     "annulus (2.5e+299, 1e+300) "),
    (["eigen", "--alpha", "6", "--gamma", "4", "--r-values", "1e-300"],
     "annulus (2.5e-301, 1e-300) "),
    (["eigen", "--alpha", "3.5", "--gamma", "2", "--r-values", "1e-106,2e-106"],
     "annulus (2.5e-107, 1e-106) "),   # r**(gamma+1) is subnormal
    (["witness", "--alpha", "6", "--gamma", "4", "--p", "2", "--r-values", "1e300,1e301,1e302"],
     "annulus (5e+299, 1.6e+301) "),
    (["witness", "--alpha", "6", "--gamma", "4", "--p", "2", "--big-n", "1e200"],
     "radius R = 1048576.0"),
    (["witness", "--alpha", "6", "--gamma", "4", "--p", "2", "--r-values", "1e58,1e59,1e61"],
     "annulus (5e+60, 1.6e+62) "),   # a later radius: every annulus is checked
])
def test_annuli_beyond_the_float_range_exit_two_naming_them(tmp_path, capsys, argv, named):
    # these raised OverflowError (h**2, big_n**2 * R) or scipy's ValueError
    # "array must not contain infs or NaNs", or exited 3 (no convergence)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and named in errors[0]
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("argv, named", [
    (["witness", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "1.0000000000000002"],
     "radius 1024.0 "),   # lambda1**(2/(p-1)) underflows: lhs = 0
    (["witness", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "1e300"],
     "radius 1024.0 "),   # the shell sum underflows: rhs = 0
    (["solve", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "1e300", "--nodes", "64"],
     "l = 0.9, p = 1e+300"),
])
def test_values_beyond_the_float_range_exit_two_naming_them(tmp_path, capsys, argv, named):
    # these warned and exited 0, writing NaN for e_lambda and gap_fitted (witness)
    # or for both residuals (solve: the source l**p f**(a p) vanished)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert "Traceback" not in err and len(errors) == 1 and named in errors[0]
    assert not (tmp_path / "o" / "report.json").exists()


def test_max_kernel_potential_below_the_float_range_exits_two(tmp_path, capsys):
    # vol(B**340) 2.2**-338 is about 1e-338, below the float range: the
    # potential is not 0.0, so the run exits 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["oracle", "--n", "340", "--x", "2.2", "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: potential at radius 2.2 is 0.0: it leaves the normal float range\n")
    assert not (tmp_path / "o" / "report.json").exists()


def test_oracle_that_no_sample_hits_exits_two(tmp_path, capsys):
    # at n = 340 and |x| = 1.5 a hit needs a direction cosine below -0.745,
    # about 1e-60 likely: no sample of 400k hits, and the run exited 0 with
    # estimate and stderr 0.0 against an exact 1.367e-282.  A source of
    # height 0 still reads 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["oracle", "--n", "340", "--x", "1.5", "--out-dir", str(tmp_path / "o")]) == 2
        assert run(["oracle", "--n", "340", "--x", "1.5", "--height", "0",
                    "--out-dir", str(tmp_path / "zero")]) == 0
    assert capsys.readouterr().err == ("error: oracle scored no hit in 400000 samples at "
                                       "n=340, |x|=1.5, support radius 1.0\n")
    assert not (tmp_path / "o" / "report.json").exists()
    assert json.loads((tmp_path / "zero" / "report.json").read_text())["estimate"] == 0.0


@pytest.mark.parametrize("argv, error", [
    (["verify-bounds", "--alpha", "1.122668275265132e+17", "--gamma", "6.96620778268365e+16",
      "--s", "-0.1708525435331376", "--m", "-1.4878783024876223", "--p", "12.985174262003074",
      "--grid-lo", "0.21881586336654948", "--grid-hi", "1e4", "--grid-points", "26"],
     "integral at radius 0.21881586336654948 is nan"),
    (["verify-bounds", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4",
      "--kernel-mode", "euclidean-exact", "--n", "200"],
     "potential at radius 0.01 is nan"),
    (["oracle", "--n", "107", "--x", "1e-10", "--ball-radius", "1e-10"],
     "potential at radius 1e-10 is nan"),
])
def test_nan_is_named_as_lost_to_float_arithmetic(tmp_path, capsys, argv, error):
    # each said "it leaves the normal float range", though no input is out of
    # range; the true values of the last two are finite (the max kernel's
    # inf - inf, open in the ROADMAP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: {error}: float arithmetic lost it (inf - inf or 0*inf)\n")


def test_kernel_table_at_huge_radii(tmp_path):
    # g(rho+r) g(r) went subnormal before v(r) scaled it back: rows at
    # rho = 1e40 and 1e45 came out 1.6684e-81 and 4.3210e-92
    out = tmp_path / "o"
    assert run(["kernel-table", "--alpha", "6", "--gamma", "4", "--rho-min", "1e30",
                "--rho-max", "1e50", "--points", "5", "--out-dir", str(out)]) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in (out / "kernel_table.csv").read_text().splitlines()[1:]]
    assert len(rows) == 5
    for rho, val in rows:
        assert val == pytest.approx(rho ** (6 - 2 * 4) / 6.0, rel=1e-10, abs=0.0)
    assert _load(out)["loglog_slope"] == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize("rho_min, rho_max, radius", [
    ("1e150", "1e160", "1e+155"),   # the integral, rho**-2 / 6, is subnormal there
    ("5e-324", "1", "5e-324"),      # half the radius underflows (was an OverflowError)
])
def test_kernel_table_out_of_range_exits_two_naming_the_radius(tmp_path, capsys, rho_min,
                                                               rho_max, radius):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["kernel-table", "--alpha", "6", "--gamma", "4", "--rho-min", rho_min,
                    "--rho-max", rho_max, "--points", "3",
                    "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"radius {radius} " in err and "Traceback" not in err
    assert not (tmp_path / "o" / "kernel_table.csv").exists()


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alpha=_FLOATS, gamma=_FLOATS, m=_FLOATS, p=_FLOATS, s=st.one_of(st.none(), _FLOATS))
# thresholds and messages beyond the float range once raised OverflowError
@example(alpha=1.0, gamma=1.7e308, m=0.0, p=2.0, s=None)
@example(alpha=1e-300, gamma=6e-301, m=1.7e308, p=2.0, s=None)
def test_classify_never_raises(tmp_path, capsys, alpha, gamma, m, p, s):
    argv = ["classify", "--alpha", repr(alpha), "--gamma", repr(gamma), "--m", repr(m),
            "--p", repr(p), "--out-dir", str(tmp_path / "o")]
    if s is not None:
        argv += ["--s", repr(s)]
    assert run(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _flags(command, *groups, **flags):
    """argv of command with one --flag=value per strategy, plus the flags that
    each group strategy draws together as a dict; --r-values stays text."""
    def argv(dicts):
        values = {name: v for d in dicts for name, v in d.items()}
        return [command] + [f"--{name.replace('_', '-')}={v if isinstance(v, str) else repr(v)}"
                            for name, v in values.items()]
    return st.tuples(*groups, st.fixed_dictionaries(flags)).map(argv)


def _floats(lo, hi, typical_lo, typical_hi):
    """Finite floats in (lo, hi], half of them in the typical range."""
    return st.one_of(st.floats(typical_lo, typical_hi),
                     st.floats(lo, hi, exclude_min=True, allow_infinity=False))


def _radii(radius):
    """witness --r-values text: three or four radii, in increasing order."""
    return st.lists(radius, min_size=3, max_size=4, unique=True).map(
        lambda radii: ",".join(map(repr, sorted(radii))))


_MAX = 1.7976931348623157e308
# gamma < alpha < 2 gamma: the window every existence command needs
_WINDOW = st.tuples(_floats(0.0, _MAX, 0.5, 12.0),
                    st.floats(1.0, 2.0, exclude_min=True, exclude_max=True)).map(
    lambda gamma_t: {"alpha": gamma_t[0] * gamma_t[1], "gamma": gamma_t[0]})
_MODES = st.sampled_from(["split-comparison", "surrogate-exact", "euclidean-exact"])

_FUZZED_ARGV = st.one_of(
    _flags("kernel-table", alpha=_FINITE, gamma=_FINITE, n=st.integers(-1, 12),
           rho_min=_FINITE, rho_max=_FINITE, points=st.integers(-1, 48)),
    _flags("eigen", alpha=_FINITE, gamma=_FINITE, ratio=_FINITE, mesh=st.integers(-1, 128),
           r_values=st.lists(_FINITE, min_size=1, max_size=4).map(
               lambda radii: ",".join(map(repr, radii)))),
    _flags("oracle", n=st.integers(-1, 400), x=_FINITE, ball_radius=_FINITE, height=_FINITE,
           samples=st.integers(-1, 2000)),
    _flags("witness", _WINDOW, m=_floats(-_MAX, _MAX, -4.0, 4.0), p=_floats(1.0, _MAX, 1.0, 24.0),
           tau=_floats(0.0, 1.0, 0.25, 0.75),
           big_n=_floats(2.0, _MAX, 2.5, 8.0), r_inner=_floats(1.0, _MAX, 1.0, 8.0),
           r_values=_radii(_floats(1.0, _MAX, 64.0, 1e6)), mesh=st.integers(64, 96)),
    _flags("verify-bounds", _WINDOW, s=_floats(-_MAX, 0.0, -1.0, 0.0),
           m=_floats(-_MAX, _MAX, -4.0, 4.0), p=_floats(1.0, _MAX, 1.0, 24.0),
           kernel_mode=_MODES, grid_lo=_floats(0.0, _MAX, 1e-4, 1.0),
           grid_hi=_floats(0.0, _MAX, 1.0, 1e6), grid_points=st.integers(8, 48)),
    _flags("solve", _WINDOW, s=_floats(-_MAX, 0.0, -1.0, 0.0), p=_floats(1.0, _MAX, 1.0, 24.0),
           kernel_mode=_MODES, nodes=st.integers(16, 96)),
)


def _no_constant(name):
    raise ValueError(f"report.json holds {name}")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_FUZZED_ARGV)
# a potential that overflowed wrote "exact": NaN; sample values warned
@example(argv=["oracle", "--n=107", "--x=1e-10", "--ball-radius=1e-10", "--samples=437"])
@example(argv=["oracle", "--n=257", "--x=9964.347056263568", "--ball-radius=10",
               "--height=10", "--samples=257"])
# sample distances that underflow to 0 warned in the power
@example(argv=["oracle", "--n=88", "--x=5.796036878823544e-225", "--ball-radius=1e-300",
               "--height=-5.6258460215502344e+16", "--samples=82"])
# geomspace overflowed on its way to the top radius
@example(argv=["kernel-table", "--alpha=1.7976931348623157e+308",
               "--gamma=1.7976931348623157e+308", "--n=6", "--rho-min=5.304231213797984e+16",
               "--rho-max=1.7976931348623157e+308", "--points=6"])
# the tail exponent alpha - 2*gamma overflowed
@example(argv=["kernel-table", "--alpha=4.173259365042431e+16",
               "--gamma=1.7976931348623157e+308", "--n=6", "--rho-min=1.405018800328081e-11",
               "--rho-max=4.873137528862227e+16", "--points=11"])
# the inverse-iteration norm underflowed to 0: ZeroDivisionError traceback
@example(argv=["eigen", "--alpha=0.5", "--gamma=8.541153864461078e-150",
               "--ratio=6.422725236823899e+98", "--mesh=81",
               "--r-values=8.541153864461078e-150"])
# witness sides out of the float range: NaN in report.json, or an
# OverflowError traceback from lambda1**(2/(p-1))
@example(argv=["witness", "--alpha=6", "--gamma=4", "--m=0", "--p=1.0000000000000002"])
@example(argv=["witness", "--alpha=6", "--gamma=4", "--m=0", "--p=1e300"])
@example(argv=["witness", "--alpha=1", "--gamma=0.99", "--m=0", "--p=1.0000000000000002",
               "--tau=0.99", "--big-n=2.00001", "--r-inner=1", "--r-values=1.02,1.03,1.04",
               "--mesh=64"])
# tau next to 1 asked for ~8e17 shells: MemoryError
@example(argv=["witness", "--alpha=0.75", "--gamma=0.5", "--big-n=3.0803275778483556e+16",
               "--mesh=82", "--m=1.1861565823126347e-111",
               "--r-values=41301038.13392623,87953186.197396,2.0086754756411556e+16",
               "--r-inner=2.2394680370095963", "--p=1.6532820199016986e+221",
               "--tau=0.9999999999999999"])
# l**p vanished: "residuals": [NaN, NaN]
@example(argv=["solve", "--alpha=6", "--gamma=4", "--s=0", "--p=1e300", "--nodes=64"])
# exponents or their products and sums past the float range warned
@example(argv=["solve", "--alpha=7.5", "--gamma=6.0", "--s=0.0", "--p=5.783171915748608e+306",
               "--kernel-mode=split-comparison", "--nodes=16"])
@example(argv=["solve", "--alpha=1.6394795847037384e+308", "--gamma=1.6062330852607808e+308",
               "--s=-1.48393835118562", "--p=1.5", "--kernel-mode=euclidean-exact",
               "--nodes=33"])
@example(argv=["solve", "--alpha=1.5816510932103376e+308", "--gamma=8.302626998655981e+307",
               "--s=-1.4048373131489083e+308", "--p=17.776488888832223",
               "--kernel-mode=split-comparison", "--nodes=73"])
# an envelope f**a or f**b that underflows divided by zero
@example(argv=["solve", "--alpha=7.487572602564594e+16", "--gamma=4.696976987782225e+16",
               "--s=0.0", "--p=4.696976987782225e+16", "--kernel-mode=euclidean-exact",
               "--nodes=53"])
@example(argv=["verify-bounds", "--alpha=4.635838727287223", "--gamma=3.4952943205960776",
               "--s=-1.4152530471653235", "--m=0.6265496174051224", "--p=10.0",
               "--kernel-mode=surrogate-exact", "--grid-lo=2.6176701761041148e+16",
               "--grid-hi=1.0151426370353366e+308", "--grid-points=30"])
# the first decade's end, 10 * grid_lo, overflowed
@example(argv=["verify-bounds", "--alpha=5.617778242215263e+102",
               "--gamma=4.066020066207443e+102", "--s=-3.5471358971116267",
               "--m=0.5475719164656931", "--p=16.879863541415663",
               "--kernel-mode=euclidean-exact", "--grid-lo=9.377745755776174e+307",
               "--grid-hi=1.0318292179324124e+308", "--grid-points=22"])
# a grid within one decade has no last decade to compare: ValueError traceback
@example(argv=["verify-bounds", "--alpha=7.603040947731823", "--gamma=6.563513415711955",
               "--s=-1.5808205879387227e-191", "--m=0.0", "--p=11.683015790075018",
               "--kernel-mode=euclidean-exact", "--grid-lo=0.5332206331518767",
               "--grid-hi=1.0", "--grid-points=9"])
# subnormal alpha, gamma: each split term is finite, their sum overflows to inf
@example(argv=["verify-bounds", "--alpha=1.390671161567001e-308",
               "--gamma=1.1125369292536007e-308", "--s=0.0", "--m=0.0", "--p=2.0",
               "--kernel-mode=split-comparison", "--grid-lo=0.5", "--grid-hi=1.0",
               "--grid-points=8"])
# huge alpha, gamma: the grid path's pad nodes would pass the float range
@example(argv=["solve", "--alpha=1.5773933612005086e+302", "--gamma=1.2619146889604068e+302",
               "--s=0.0", "--p=2.0", "--kernel-mode=split-comparison", "--nodes=16"])
# ... and a pad end x[-1]/cap, formed outside the logs, would overflow
@example(argv=["solve", "--alpha=4.494232837155789e+302", "--gamma=3.595386269724632e+302",
               "--s=0.0", "--p=2.0", "--kernel-mode=split-comparison", "--nodes=16"])
def test_fuzzed_commands_exit_cleanly(tmp_path, capsys, argv):
    out = tmp_path / "o"
    shutil.rmtree(out, ignore_errors=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out-dir", str(out)]) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    if (out / "report.json").exists():
        json.loads((out / "report.json").read_text(), parse_constant=_no_constant)


_CLASSIFY_ARGV = _flags("classify", _WINDOW,
                        st.one_of(st.just({}), st.fixed_dictionaries({"s": _FINITE})),
                        m=_floats(-_MAX, _MAX, -4.0, 4.0), p=_floats(1.0, _MAX, 1.0, 24.0))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(_FUZZED_ARGV, _CLASSIFY_ARGV))
# the README commands, made cheap, and witness at its default radii
@example(argv=["classify", "--alpha=6", "--gamma=4", "--m=0", "--p=2"])
@example(argv=["kernel-table", "--alpha=6", "--gamma=4", "--n=6", "--points=11"])
@example(argv=["verify-bounds", "--alpha=6", "--gamma=4", "--s=0", "--p=4",
               "--kernel-mode=surrogate-exact", "--grid-points=48"])
@example(argv=["eigen", "--alpha=6", "--gamma=4", "--mesh=64"])
@example(argv=["witness", "--alpha=6", "--gamma=4", "--m=0", "--p=2", "--mesh=64"])
@example(argv=["solve", "--alpha=6", "--gamma=4", "--s=0", "--p=4", "--nodes=64"])
@example(argv=["oracle", "--n=6", "--x=10", "--ball-radius=1", "--seed=7", "--samples=2000"])
def test_resolved_config_reruns_byte_identical(tmp_path, argv):
    # resolved.cfg alone, read back through --config, reproduces the run
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    for out in (first, rerun):
        shutil.rmtree(out, ignore_errors=True)
    if run(argv + ["--out-dir", str(first)]) != 0:
        return
    assert run([argv[0], "--config", str(first / "resolved.cfg"), "--out-dir", str(rerun)]) == 0
    for name in ("report.json", "resolved.cfg"):
        assert filecmp.cmp(first / name, rerun / name, shallow=False), name
