"""CLI: exit codes, artifacts, determinism, config round-trip."""

import filecmp
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from biharm.cli import run

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


def test_unknown_flag_exits_one(tmp_path, capsys):
    code = run(["classify", "--alpha", "6", "--gamma", "4", "--m", "0", "--p", "2",
                "--frobnicate", "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_validation_error_exits_two(tmp_path):
    code = run(["classify", "--alpha", "6", "--gamma", "3", "--m", "0", "--p", "2",
                "--out-dir", str(tmp_path / "o")])
    assert code == 2


def test_solve_exits_three_on_nonconvergence(tmp_path):
    code = run(["solve", "--alpha", "6", "--gamma", "4", "--s", "0", "--p", "4",
                "--nodes", "256", "--maxit", "1", "--out-dir", str(tmp_path / "o")])
    assert code == 3


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
