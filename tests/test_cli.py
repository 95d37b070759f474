"""End-to-end tests of the cdf-mise command line.

Every command runs in process through cli.main(); tests inspect exit
codes, stdout/stderr, and the CSV/SVG files written under tmp_path.
Numeric cells are cross-checked against the library API and the closed
forms validated elsewhere, so the focus here is on formats, defaults,
determinism, and error handling.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import multiprocessing
import re
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from cdf_mise import cli
from cdf_mise.bandwidth import (
    asymptotic_relative_efficiency,
    efficiency_curve,
    optimal_bandwidth,
)
from cdf_mise.distributions import make_jdlvp, make_normal
from cdf_mise.kernels import kernel_by_name, psi_k
from cdf_mise.mise import mise

JDLVP = make_jdlvp()
NORMAL1 = make_normal(1.0)
NORMAL_K = kernel_by_name("normal")
TRAP = kernel_by_name("trapezoidal")
SINC = kernel_by_name("sinc")

SQRT_PI = math.sqrt(math.pi)


def run_cli(argv, capsys):
    """Run the CLI in process; argparse-level failures become return codes."""
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return rc, out, err


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def g17(value: float) -> str:
    return format(float(value), ".17g")


class TestUsageErrors:
    @pytest.mark.parametrize("grid", ["0:1:0", "0:1", "1:0:5", "=-0.5:1:5", "a:b:c",
                                      "nan:1:5", "0:inf:5"])
    def test_bad_h_grid(self, grid, capsys, tmp_path):
        argv = ["mise-curve", f"--h-grid{grid}" if grid.startswith("=")
                else "--h-grid", "--out", str(tmp_path)]
        if not grid.startswith("="):
            argv.insert(2, grid)
        rc, _, err = run_cli(argv, capsys)
        assert rc == 1
        assert "error" in err

    @pytest.mark.parametrize("argv, point", [
        (["mise-curve", "--h-grid", "0:1e80:3"], "5e+79"),
        (["mise-curve", "--h-grid", "0:1e-300:3"], "5e-301"),
        (["mc-validate", "--dist", "jdlvp", "--kernel", "sinc", "--h-grid", "1e80:1e80:1",
          "--n", "50", "--reps", "100"], "1e+80"),
    ], ids=["mise-curve-above", "mise-curve-below", "mc-validate-above"])
    def test_h_grid_outside_mise_range(self, argv, point, capsys, tmp_path, monkeypatch):
        # every grid point is held to the h range of mise before any file
        # is written or any worker starts
        monkeypatch.setattr(cli.multiprocessing, "Pool", None)
        rc, out, err = run_cli([*argv, "--out", str(tmp_path / "out")], capsys)
        assert rc == 1
        assert out == ""
        assert err == (f"cdf-mise: error: h-grid point {point} is out of range: "
                       "bandwidth h must be 0 or lie in [1e-300, 1e+75] for MISE\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_distribution(self, capsys, tmp_path):
        rc, _, err = run_cli(["mise-curve", "--dist", "cauchy",
                              "--out", str(tmp_path)], capsys)
        assert rc == 1
        assert "cdf-mise: error" in err

    @pytest.mark.parametrize("argv", [
        ["mise-curve", "--dist", "normal:sigma=1e-320"],
        ["optimal-bandwidth", "--dist", "normal:sigma=1e-100", "--kernel", "normal",
         "--n", "10,1000"],
        ["efficiency-curve", "--dist", "jdlvp:scale=1e61"],
    ], ids=["sigma=1e-320", "sigma=1e-100", "scale=1e61"])
    def test_scale_outside_its_range(self, argv, capsys, tmp_path):
        # a scale whose MISE would be wrong is a usage error, and no file
        # is written
        rc, out, err = run_cli([*argv, "--out", str(tmp_path)], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("cdf-mise: error: ") and err.count("\n") == 1
        assert "must lie in [1e-60, 1e+60]" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_kernel(self, capsys, tmp_path):
        rc, _, err = run_cli(["mise-curve", "--kernel", "box",
                              "--out", str(tmp_path)], capsys)
        assert rc == 1
        assert "cdf-mise: error" in err

    def test_unknown_command(self, capsys):
        rc, _, err = run_cli(["frobnicate"], capsys)
        assert rc == 1
        assert "error" in err

    def test_bad_sample_size(self, capsys, tmp_path):
        rc, _, err = run_cli(["mise-curve", "--n", "0",
                              "--out", str(tmp_path)], capsys)
        assert rc == 1
        rc, _, err = run_cli(["mise-curve", "--n", "ten",
                              "--out", str(tmp_path)], capsys)
        assert rc == 1

    def test_sample_size_no_float_holds(self, capsys, tmp_path):
        # --n follows the library's size rule: 10**400 overflowed a float
        # with a traceback
        n = "1" + "0" * 400
        rc, out, err = run_cli(["optimal-bandwidth", "--n", n, "--out", str(tmp_path)],
                               capsys)
        assert rc == 1
        assert out == ""
        assert err == (f"cdf-mise: error: bad sample-size list '{n}': sample size n must be "
                       f"a whole number >= 1 and at most the largest float, got {n}\n")
        assert list(tmp_path.iterdir()) == []

    def test_multi_kernel_rejected(self, capsys, tmp_path):
        rc, _, err = run_cli(["efficiency-curve", "--kernel", "trapezoidal,sinc",
                              "--n", "10", "--out", str(tmp_path)], capsys)
        assert rc == 1

    @pytest.mark.parametrize("spec", ["normal:sigma=1,sigma=2", "jdlvp:scale=2,scale=2"])
    def test_repeated_spec_key(self, spec, capsys, tmp_path, monkeypatch):
        # a key given twice is refused, not resolved to its last value
        monkeypatch.setattr(cli.multiprocessing, "Pool", None)
        rc, out, err = run_cli(["mc-validate", "--dist", spec, "--kernel", "sinc", "--n", "10",
                                "--h-grid", "0.5:0.5:1", "--reps", "100",
                                "--out", str(tmp_path / "out")], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("cdf-mise: error: ") and err.count("\n") == 1
        assert "at most once" in err
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    # argparse ties every parser into reference cycles, so main() builds
    # its tree once; build_parser() still returns a fresh one
    def test_second_call_leaves_no_cyclic_garbage(self, capsys, tmp_path):
        argv = ["mise-curve", "--h-grid", "0:1:3", "--out", str(tmp_path)]
        assert run_cli(argv, capsys)[0] == 0
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert run_cli(argv, capsys)[0] == 0
            found = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert found < 50  # a new parser tree per call left about 500

    def test_shared_parser_survives_usage_errors(self, capsys, tmp_path):
        argv = ["mise-curve", "--n", "10", "--out", str(tmp_path)]
        assert run_cli(["frobnicate"], capsys)[0] == 1
        assert run_cli(["mise-curve", "--format", "pdf"], capsys)[0] == 1
        assert cli.build_parser() is not cli.build_parser()
        assert vars(cli._parser().parse_args(argv)) == vars(
            cli.build_parser().parse_args(argv))
        assert run_cli(argv, capsys)[0] == 0


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("curve")
    rc = cli.main(["mise-curve", "--out", str(out)])
    assert rc == 0
    return out / "mise_curve.csv"


@pytest.fixture(scope="module")
def figure2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    rc = cli.main(["figure2", "--n", "10,100", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def figure2_default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2_full")
    rc = cli.main(["figure2", "--out", str(out)])
    assert rc == 0
    return out


class TestMiseCurveCommand:
    def test_header_and_grid(self, default_run):
        header, rows = read_csv(default_run)
        assert header == ["h", "iv", "isb", "mise", "method"]
        assert [r[0] for r in rows] == [g17(h) for h in np.linspace(0.0, 1.0, 101)]

    def test_zero_bandwidth_row(self, default_run):
        _, rows = read_csv(default_run)
        h0 = rows[0]
        assert h0[1] == g17(JDLVP.psi_f / 1000.0)
        assert h0[2] == "0"
        assert h0[3] == h0[1]

    def test_linear_segment_rows(self, default_run):
        _, rows = read_csv(default_run)
        for row in rows[1:]:
            h = float(row[0])
            if h <= 0.5:
                assert row[4] == "linear_segment"
                assert row[2] == "0"
                expected = (JDLVP.psi_f - psi_k(TRAP) * h) / 1000.0
                assert float(row[3]) == pytest.approx(expected, rel=1e-12, abs=0.0)
            else:
                assert row[4] == "fourier"
                assert float(row[2]) > 0.0

    def test_cells_are_shortest_roundtrip(self, default_run):
        _, rows = read_csv(default_run)
        for row in rows:
            for cell in row[:4]:
                assert g17(float(cell)) == cell or cell == "0"

    def test_lf_line_endings(self, default_run):
        data = default_run.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_stdout_reports_path_and_rows(self, capsys, tmp_path):
        rc, out, _ = run_cli(["mise-curve", "--out", str(tmp_path)], capsys)
        assert rc == 0
        assert f"wrote {tmp_path / 'mise_curve.csv'} (101 rows, n=1000)" in out

    def test_normal_normal_matches_closed_form(self, capsys, tmp_path):
        rc, _, _ = run_cli(["mise-curve", "--dist", "normal:sigma=1",
                            "--kernel", "normal", "--h-grid", "0:2:41",
                            "--n", "50", "--out", str(tmp_path)], capsys)
        assert rc == 0
        _, rows = read_csv(tmp_path / "mise_curve.csv")
        for row in rows:
            h = float(row[0])
            iv, isb, total = (float(c) for c in row[1:4])
            assert iv + isb == pytest.approx(total, rel=1e-12, abs=0.0)
            if h == 0.0:
                assert total == pytest.approx(NORMAL1.psi_f / 50.0, rel=1e-14, abs=0.0)
                continue
            assert row[4] == "closed_form_normal_normal"
            assert total == pytest.approx(
                mise(NORMAL1, NORMAL_K, h, 50).mise, rel=1e-12, abs=0.0)
            iv_closed = (math.hypot(h, 1.0) - h) / (SQRT_PI * 50.0)
            assert iv == pytest.approx(iv_closed, rel=1e-9, abs=1e-18)

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc, _, _ = run_cli(["mise-curve", "--h-grid", "0:0.8:17",
                                "--n", "250", "--out", str(d)], capsys)
            assert rc == 0
        first, second = [(d / "mise_curve.csv").read_bytes() for d in dirs]
        assert first == second

    def test_more_than_one_sample_size_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n": [50, 99]}), encoding="utf-8")
        for extra in (["--n", "50,99"], ["--config", str(path)]):
            rc, out, err = run_cli(["mise-curve", *extra, "--h-grid", "0:0.5:2",
                                    "--out", str(tmp_path)], capsys)
            assert rc == 1
            assert "mise-curve takes one sample size, got 2" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_svg_output_is_pure_function_of_csv(self, capsys, tmp_path):
        rc, out, _ = run_cli(["mise-curve", "--h-grid", "0:1:11", "--n", "100",
                              "--format", "csv+svg", "--out", str(tmp_path)],
                             capsys)
        assert rc == 0
        svg_path = tmp_path / "mise_curve.svg"
        assert str(svg_path) in out
        text = svg_path.read_text(encoding="utf-8")
        assert ET.fromstring(text).tag.endswith("svg")
        assert text == cli.svg_from_mise_curve_csv(tmp_path / "mise_curve.csv")


class TestOptimalBandwidthCommand:
    def test_rows_match_library(self, capsys, tmp_path):
        rc, _, _ = run_cli(["optimal-bandwidth", "--dist", "jdlvp",
                            "--kernel", "sinc", "--n", "10,100",
                            "--out", str(tmp_path)], capsys)
        assert rc == 0
        header, rows = read_csv(tmp_path / "optimal_bandwidth.csv")
        assert header == ["n", "h_opt", "mise_at_opt", "rel_eff",
                          "bracket_lo", "bracket_hi", "boundary_flag"]
        assert [r[0] for r in rows] == ["10", "100"]
        for row, n in zip(rows, (10, 100)):
            res = optimal_bandwidth(JDLVP, SINC, n)
            assert row[1] == g17(res.h_opt)
            assert row[2] == g17(res.mise_at_opt)
            assert row[3] == g17(res.mise_at_opt / (JDLVP.psi_f / n))
            assert row[4] == g17(res.bracket[0])
            assert row[5] == g17(res.bracket[1])
            assert row[6] == res.boundary_flag
            assert row[6] in ("interior", "at_zero", "at_upper_bracket")

    def test_multi_n_rows_equal_single_n_runs(self, capsys, tmp_path):
        # one shared scan for three sample sizes writes the same bytes,
        # row by row, as three separate single-n runs
        def csv_lines(out, ns):
            rc, _, _ = run_cli(["optimal-bandwidth", "--dist", "jdlvp",
                                "--kernel", "sinc", "--n", ns,
                                "--out", str(out)], capsys)
            assert rc == 0
            return (out / "optimal_bandwidth.csv").read_bytes().splitlines(keepends=True)

        multi = csv_lines(tmp_path / "multi", "10,100,1000")
        assert len(multi) == 4
        for row, n in zip(multi[1:], ("10", "100", "1000")):
            header, single_row = csv_lines(tmp_path / n, n)
            assert header == multi[0]
            assert row == single_row

    def test_svg_written_on_request(self, capsys, tmp_path):
        rc, _, _ = run_cli(["optimal-bandwidth", "--dist", "normal:sigma=1",
                            "--kernel", "sinc", "--n", "25",
                            "--format", "csv+svg", "--out", str(tmp_path)],
                           capsys)
        assert rc == 0
        svg_path = tmp_path / "optimal_bandwidth.svg"
        text = svg_path.read_text(encoding="utf-8")
        assert ET.fromstring(text).tag.endswith("svg")
        assert text == cli.svg_from_bandwidth_csv(tmp_path / "optimal_bandwidth.csv")


class TestEfficiencyCurveCommand:
    def test_rows_match_library(self, capsys, tmp_path):
        ns = [10, 100, 1000]
        rc, _, _ = run_cli(["efficiency-curve", "--dist", "jdlvp",
                            "--kernel", "trapezoidal", "--n", "10,100,1000",
                            "--out", str(tmp_path)], capsys)
        assert rc == 0
        header, rows = read_csv(tmp_path / "efficiency_curve.csv")
        assert header == ["n", "h_opt", "rel_eff", "asymptote"]
        curve = efficiency_curve(JDLVP, TRAP, ns)
        for row, n, h, r in zip(rows, curve.n_values, curve.h_opt, curve.rel_eff):
            assert row[0] == str(n)
            assert row[1] == g17(h)
            assert row[2] == g17(r)
            assert row[3] == g17(curve.asymptote)
        assert curve.asymptote == pytest.approx(
            asymptotic_relative_efficiency(JDLVP, TRAP), rel=1e-15, abs=0.0)


class TestFigureCommands:
    def test_figure2_writes_four_files(self, figure2_run):
        for name in ("figure2_bandwidth.csv", "figure2_bandwidth.svg",
                     "figure2_efficiency.csv", "figure2_efficiency.svg"):
            assert (figure2_run / name).is_file()

    def test_figure2_bandwidth_columns(self, figure2_run):
        header, rows = read_csv(figure2_run / "figure2_bandwidth.csv")
        assert header == ["n", "h_opt_trapezoidal", "h_opt_sinc",
                          "limit_bandwidth"]
        assert [r[0] for r in rows] == ["10", "100"]
        for row in rows:
            assert row[3] == "0.5"
            assert float(row[1]) > 0.5
            assert float(row[2]) > 0.5

    def test_figure2_efficiency_columns(self, figure2_run):
        header, rows = read_csv(figure2_run / "figure2_efficiency.csv")
        assert header == ["n", "rel_eff_trapezoidal", "rel_eff_sinc",
                          "asymptote_trapezoidal", "asymptote_sinc"]
        for row in rows:
            assert 0.0 < float(row[1]) < 1.0
            assert 0.0 < float(row[2]) < 1.0
            assert row[3] == g17(asymptotic_relative_efficiency(JDLVP, TRAP))
            assert row[4] == g17(asymptotic_relative_efficiency(JDLVP, SINC))

    def test_figure2_svgs_are_pure_functions_of_csvs(self, figure2_run):
        band = (figure2_run / "figure2_bandwidth.svg").read_text(encoding="utf-8")
        eff = (figure2_run / "figure2_efficiency.svg").read_text(encoding="utf-8")
        assert ET.fromstring(band).tag.endswith("svg")
        assert ET.fromstring(eff).tag.endswith("svg")
        assert band == cli.svg_from_bandwidth_csv(
            figure2_run / "figure2_bandwidth.csv")
        assert eff == cli.svg_from_efficiency_csv(
            figure2_run / "figure2_efficiency.csv")

    def test_figure2_rerun_is_byte_identical(self, figure2_run, capsys, tmp_path):
        rc, _, _ = run_cli(["figure2", "--n", "10,100", "--out", str(tmp_path)],
                           capsys)
        assert rc == 0
        for name in ("figure2_bandwidth.csv", "figure2_bandwidth.svg",
                     "figure2_efficiency.csv", "figure2_efficiency.svg"):
            assert (tmp_path / name).read_bytes() == \
                (figure2_run / name).read_bytes()

    @pytest.mark.slow
    def test_figure2_default_sweep(self, figure2_default_run):
        _, band = read_csv(figure2_default_run / "figure2_bandwidth.csv")
        _, eff = read_csv(figure2_default_run / "figure2_efficiency.csv")
        assert band[-1][0] == "10000000"
        # the sinc curve reaches the documented windows by the end of the
        # sweep; the trapezoidal curve is still on its way down
        assert abs(float(band[-1][2]) - 0.5) < 0.05
        assert abs(float(eff[-1][2]) - 0.83) < 0.01
        assert 0.55 < float(band[-1][1]) < 0.65
        diffs = {int(r[0]): float(r[1]) - float(r[2]) for r in eff}
        assert diffs[1389] < 0.0 < diffs[3728]

    @pytest.mark.slow
    @pytest.mark.xfail(strict=True, reason=(
        "the trapezoidal curve ends the default sweep at h_opt = 0.594 and "
        "rel_eff = 0.847 (n = 1e7), outside the documented 0.5 +/- 0.05 and "
        "0.87 +/- 0.01 final windows; both quantities converge at an "
        "n^(-1/8) rate"))
    def test_figure2_documented_final_windows(self, figure2_default_run):
        _, band = read_csv(figure2_default_run / "figure2_bandwidth.csv")
        _, eff = read_csv(figure2_default_run / "figure2_efficiency.csv")
        assert abs(float(band[-1][1]) - 0.5) < 0.05
        assert abs(float(eff[-1][1]) - 0.87) < 0.01

    def test_figure3_efficiency_ordering(self, capsys, tmp_path):
        rc, _, _ = run_cli(["figure3", "--n", "10,100", "--out", str(tmp_path)],
                           capsys)
        assert rc == 0
        header, rows = read_csv(tmp_path / "figure3_efficiency.csv")
        assert header == ["n", "rel_eff_normal", "rel_eff_sinc",
                          "asymptote_normal", "asymptote_sinc"]
        by_n = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
        # small n favours the sinc kernel, moderate n the normal kernel
        assert by_n[10][1] > by_n[10][0]
        assert by_n[100][0] > by_n[100][1]
        for row in rows:
            assert 0.0 < float(row[1]) <= 1.0
            assert 0.0 < float(row[2]) <= 1.0
            assert row[3] == "1"
            assert row[4] == "1"
        assert (tmp_path / "figure3_efficiency.svg").is_file()


class TestMcValidateCommand:
    ARGS = ["mc-validate", "--dist", "jdlvp", "--kernel", "trapezoidal",
            "--n", "30", "--h-grid", "0:0.3:2", "--reps", "200", "--seed", "7"]

    def test_custom_suite_rows(self, capsys, tmp_path):
        rc, out, err = run_cli(self.ARGS + ["--out", str(tmp_path)], capsys)
        assert rc == 0
        assert err == ""
        header, rows = read_csv(tmp_path / "mc_validate.csv")
        assert header == ["dist", "kernel", "h", "n", "exact_mise",
                          "mc_estimate", "std_error", "z_score", "replications"]
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["jdlvp", "jdlvp"]
        assert [r[1] for r in rows] == ["trapezoidal", "trapezoidal"]
        assert [r[2] for r in rows] == [g17(0.0), g17(0.3)]
        assert all(r[3] == "30" and r[8] == "200" for r in rows)
        assert rows[0][4] == g17(JDLVP.psi_f / 30.0)
        for row in rows:
            exact, est, se, z = (float(c) for c in row[4:8])
            assert se > 0.0
            assert z == pytest.approx((est - exact) / se, rel=1e-12, abs=0.0)
            assert abs(z) < 6.0

    def test_same_seed_reruns_are_byte_identical(self, capsys, tmp_path):
        for d in ("a", "b"):
            rc, _, _ = run_cli(self.ARGS + ["--out", str(tmp_path / d)], capsys)
            assert rc == 0
        assert (tmp_path / "a" / "mc_validate.csv").read_bytes() == \
            (tmp_path / "b" / "mc_validate.csv").read_bytes()

    def test_different_seed_changes_estimates(self, capsys, tmp_path):
        rc, _, _ = run_cli(self.ARGS + ["--out", str(tmp_path / "a")], capsys)
        assert rc == 0
        reseeded = [a for a in self.ARGS]
        reseeded[reseeded.index("7")] = "8"
        rc, _, _ = run_cli(reseeded + ["--out", str(tmp_path / "b")], capsys)
        assert rc == 0
        assert (tmp_path / "a" / "mc_validate.csv").read_bytes() != \
            (tmp_path / "b" / "mc_validate.csv").read_bytes()

    def test_suite_runs_on_n_and_h_grid(self, capsys, tmp_path):
        rc, _, _ = run_cli(["mc-validate", "--n", "50", "--h-grid", "0.25:0.25:1",
                            "--reps", "100", "--out", str(tmp_path)], capsys)
        assert rc == 0
        _, rows = read_csv(tmp_path / "mc_validate.csv")
        assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
            (dist, kernel, g17(0.25), "50") for dist, kernel in
            (("jdlvp", "trapezoidal"), ("jdlvp", "sinc"),
             ("normal:sigma=1", "normal"), ("normal:sigma=1", "sinc"))]

    def test_default_grid_is_the_suite_grid(self, capsys, tmp_path):
        runs = []
        for name, grid in (("bare", []), ("grid", ["--n", "50,200", "--h-grid", "0:0.5:3"])):
            out = tmp_path / name
            rc, stdout, err = run_cli(["mc-validate", "--reps", "100", "--seed", "11",
                                       *grid, "--out", str(out)], capsys)
            runs.append((rc, stdout.replace(str(out), "OUT"), err,
                         (out / "mc_validate.csv").read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][3].count(b"\n") == 1 + 24

    @pytest.mark.parametrize("dist,kernel,n,h,z_max", [
        pytest.param("jdlvp", "sinc", 50, h, 1e-5, id=h) for h in ("1e8", "1e10", "1e75")
    ] + [
        pytest.param(dist, kernel, 10, h, 1.0, id=f"{dist}+{kernel}-{h}")
        for dist, kernel, h in (("normal:sigma=1", "sinc", "1e10"),
                                ("normal:sigma=1", "sinc", "1e75"),
                                ("normal:sigma=1", "normal", "1e10"),
                                ("normal:sigma=2", "sinc", "1e30"))
    ])
    def test_rounding_only_cell_passes(self, dist, kernel, n, h, z_max, capsys, tmp_path):
        # at such h every replication's ISE is one number to rounding, so
        # std_error measures rounding and z divides by the exact value's
        # error bound, 8 eps times the MISE on the exact routes; by
        # std_error alone z would be about -9.95 on jdlvp and 9.95 to 19.9
        # on the normal closed forms
        rc, _, err = run_cli(["mc-validate", "--dist", dist, "--kernel", kernel,
                              "--n", str(n), "--reps", "100", "--h-grid", f"{h}:{h}:1",
                              "--out", str(tmp_path)], capsys)
        assert rc == 0 and err == ""
        _, rows = read_csv(tmp_path / "mc_validate.csv")
        exact, est, se, z = (float(c) for c in rows[0][4:8])
        assert se > 0.0 and abs(z) < z_max

    def test_too_few_replications(self, capsys, tmp_path):
        rc, _, err = run_cli(["mc-validate", "--reps", "99",
                              "--out", str(tmp_path)], capsys)
        assert rc == 1
        assert "at least 100" in err
        rc, _, err = run_cli(["mc-validate", "--reps", "1",
                              "--out", str(tmp_path)], capsys)
        assert rc == 1

    @pytest.mark.parametrize("seed,code", [("18446744073709551615", 0),
                                           ("18446744073709551616", 0), ("-1", 1)])
    def test_seed_rule_is_the_library_rule(self, seed, code, capsys, tmp_path):
        # any whole seed >= 0, as sample and monte_carlo_mise take it, with
        # no 64-bit bound that seed + cell index could pass
        rc, out, err = run_cli(["mc-validate", "--dist", "normal:sigma=1", "--kernel", "sinc",
                                "--n", "10", "--h-grid", "0.25:0.25:1", "--reps", "100",
                                "--seed", seed, "--out", str(tmp_path)], capsys)
        assert rc == code
        if code:
            assert out == "" and err.count("\n") == 1
            assert err.startswith("cdf-mise: error: seed must be a whole number >= 0")
        else:
            assert err == "" and (tmp_path / "mc_validate.csv").exists()

    def test_dist_and_kernel_must_come_together(self, capsys, tmp_path):
        for extra in (["--dist", "jdlvp"], ["--kernel", "sinc"]):
            rc, _, err = run_cli(["mc-validate", "--reps", "100"] + extra +
                                 ["--out", str(tmp_path)], capsys)
            assert rc == 1
            assert "both --dist and --kernel" in err

    def test_validation_failure_exits_two(self, capsys, tmp_path, monkeypatch):
        def far_off(dist, kernel, h, n, replications, seed=0, **kwargs):
            return types.SimpleNamespace(estimate=999.0, std_error=1e-3)

        # one CPU runs the cells in this process, where the patch holds
        # under any start method
        set_affinity(monkeypatch, 1)
        monkeypatch.setattr(cli, "monte_carlo_mise", far_off)
        rc, out, err = run_cli(["mc-validate", "--dist", "jdlvp",
                                "--kernel", "trapezoidal", "--n", "30",
                                "--h-grid", "0:0.3:2", "--reps", "100",
                                "--out", str(tmp_path)], capsys)
        assert rc == 2
        assert "VALIDATION FAILURE" in err
        _, rows = read_csv(tmp_path / "mc_validate.csv")
        assert len(rows) == 2
        assert all(abs(float(r[7])) > 4.0 for r in rows)

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
    def test_panel_bound_is_a_usage_error(self, cpus, capsys, tmp_path, monkeypatch):
        # both cells' ISE at h = 1e-8 would need about 2e9 panels
        set_affinity(monkeypatch, cpus)
        rc, out, err = run_cli(["mc-validate", "--dist", "jdlvp", "--kernel", "normal",
                                "--h-grid", "1e-8:1e-8:1", "--n", "50,60", "--reps", "100",
                                "--out", str(tmp_path)], capsys)
        assert rc == 1
        assert out == ""
        assert re.fullmatch(r"cdf-mise: error: the Fourier ISE at h = 1e-08 needs \S+ "
                            r"panels, over its bound of 4194304\n", err)
        assert list(tmp_path.iterdir()) == []

    def test_other_value_errors_are_not_usage_errors(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a panel bound")

        set_affinity(monkeypatch, 1)
        monkeypatch.setattr(cli, "monte_carlo_mise", broken)
        with pytest.raises(ValueError, match="not a panel bound"):
            cli.main(["mc-validate", "--dist", "jdlvp", "--kernel", "normal", "--n", "50",
                      "--h-grid", "0.5:0.5:1", "--reps", "100", "--out", str(tmp_path)])


def set_affinity(monkeypatch, cpus: int) -> None:
    """Give this process an affinity mask of cpus CPUs on a machine of 8."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)


class TestMcValidatePool:
    """mc-validate maps its cells over one pool sized by the affinity mask."""

    ARGS = ["mc-validate", "--dist", "normal:sigma=1", "--kernel", "sinc",
            "--n", "20", "--h-grid", "0.25:0.5:2", "--reps", "100", "--seed", "11"]

    def run(self, capsys, out: Path) -> tuple[int, str, str, bytes]:
        rc, stdout, err = run_cli(self.ARGS + ["--out", str(out)], capsys)
        return (rc, stdout.replace(str(out), "OUT"), err,
                (out / "mc_validate.csv").read_bytes())

    def test_worker_count_does_not_change_bytes(self, capsys, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        set_affinity(monkeypatch, 1)
        with monkeypatch.context() as m:
            m.setattr(cli, "multiprocessing", types.SimpleNamespace(Pool=no_pool))
            lone = self.run(capsys, tmp_path / "one")
        set_affinity(monkeypatch, 2)
        duo = self.run(capsys, tmp_path / "two")
        assert lone[0] == 0
        assert lone == duo

    def test_pool_size_follows_affinity_mask(self, capsys, tmp_path, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr(cli, "multiprocessing",
                            types.SimpleNamespace(Pool=InProcessPool))
        outputs = set()
        for cpus in (1, 2, 5):  # the run has 2 cells
            set_affinity(monkeypatch, cpus)
            outputs.add(self.run(capsys, tmp_path / str(cpus)))
        assert sizes == [2, 2]
        assert len(outputs) == 1

    def test_spawn_pool_gives_same_bytes(self, capsys, tmp_path, monkeypatch):
        # tasks carry only spec strings and numbers, so the pool needs no fork
        set_affinity(monkeypatch, 1)
        lone = self.run(capsys, tmp_path / "one")
        set_affinity(monkeypatch, 2)
        monkeypatch.setattr(cli, "multiprocessing", multiprocessing.get_context("spawn"))
        assert self.run(capsys, tmp_path / "spawn") == lone


class TestConstantsCommand:
    def test_catalog_values_and_cross_checks(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run_cli(["constants"], capsys)
        assert rc == 0
        for value in ("0.936711563594", "0.564189583548", "0.245922628243",
                      "0.318309886184", "0.86873086775", "0.8300918348"):
            assert value in out
        diffs = [float(m) for m in re.findall(r"\d\.\d{2}e[+-]\d{2}", out)]
        assert diffs and max(diffs) < 1e-8
        assert "jdlvp + trapezoidal" in out
        assert list(tmp_path.iterdir()) == []


class TestFilesWritten:
    # command line, the CSVs it writes, and for each of its runs (one per
    # --format value, or one run without it) whether it adds one SVG per CSV
    BOTH = {"csv": False, "csv+svg": True}
    CASES = {
        "mise-curve": (["--h-grid", "0:1:3", "--n", "10"], ["mise_curve.csv"], BOTH),
        "optimal-bandwidth": (["--n", "10"], ["optimal_bandwidth.csv"], BOTH),
        "efficiency-curve": (["--n", "10"], ["efficiency_curve.csv"], BOTH),
        "figure2": (["--n", "10"], ["figure2_bandwidth.csv", "figure2_efficiency.csv"],
                    {None: True}),
        "figure3": (["--n", "10"], ["figure3_efficiency.csv"], {None: True}),
        "mc-validate": (["--dist", "normal:sigma=1", "--kernel", "normal", "--n", "10",
                         "--h-grid", "0.3:0.3:1", "--reps", "100"],
                        ["mc_validate.csv"], {None: False}),
        "constants": ([], [], {None: False}),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_exact_file_set_per_format(self, command, capsys, tmp_path, monkeypatch):
        args, csvs, runs = self.CASES[command]
        written = []
        for fmt, svg in runs.items():
            out = tmp_path / str(fmt)
            out.mkdir()
            monkeypatch.chdir(out)  # constants takes no --out
            argv = [command, *args] + ([] if fmt is None else ["--format", fmt])
            rc, _, _ = run_cli(argv + (["--out", str(out)] if csvs else []), capsys)
            assert rc == 0
            svgs = {name.replace(".csv", ".svg") for name in csvs}
            assert {p.name for p in out.iterdir()} == set(csvs) | (svgs if svg else set())
            written.append({name: (out / name).read_bytes() for name in csvs})
        assert all(files == written[0] for files in written)


class TestConfigFile:
    CONFIG = {"dist": "jdlvp", "kernel": "sinc", "n": [500],
              "h_grid": "0:0.4:2"}

    def write_config(self, tmp_path) -> Path:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        return path

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        rc, out, _ = run_cli(["mise-curve", "--config", str(cfg),
                              "--out", str(tmp_path)], capsys)
        assert rc == 0
        assert "n=500" in out
        _, rows = read_csv(tmp_path / "mise_curve.csv")
        assert len(rows) == 2
        assert rows[1][3] == g17(mise(JDLVP, SINC, 0.4, 500).mise)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        rc, _, _ = run_cli(["mise-curve", "--config", str(cfg),
                            "--kernel", "trapezoidal",
                            "--out", str(tmp_path)], capsys)
        assert rc == 0
        _, rows = read_csv(tmp_path / "mise_curve.csv")
        assert rows[1][3] == g17(mise(JDLVP, TRAP, 0.4, 500).mise)
        assert rows[1][3] != g17(mise(JDLVP, SINC, 0.4, 500).mise)

    @pytest.mark.parametrize("config", [{"reps": 100.9}, {"seed": True}],
                             ids=["reps=100.9", "seed=true"])
    def test_config_integers_are_not_truncated(self, config, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        rc, out, err = run_cli(["mc-validate", "--config", str(path),
                                "--out", str(tmp_path / "out")], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith(f"cdf-mise: error: bad integer {next(iter(config.values()))!r}")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"distt": "jdlvp"}), encoding="utf-8")
        rc, _, err = run_cli(["mise-curve", "--config", str(path),
                              "--out", str(tmp_path)], capsys)
        assert rc == 1
        assert "cdf-mise: error" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        rc, _, err = run_cli(["mise-curve", "--config", str(path),
                              "--out", str(tmp_path)], capsys)
        assert rc == 1

    def test_missing_config_file(self, capsys, tmp_path):
        rc, _, err = run_cli(["mise-curve", "--config",
                              str(tmp_path / "nope.json"),
                              "--out", str(tmp_path)], capsys)
        assert rc == 1


class TestCommandKeys:
    """Each command takes exactly its keys, as flags and as config keys."""

    KEYS = ("dist", "kernel", "n", "h_grid", "seed", "reps", "out", "format")
    TAKEN = {
        "mise-curve": {"dist", "kernel", "n", "h_grid", "out", "format"},
        "optimal-bandwidth": {"dist", "kernel", "n", "out", "format"},
        "efficiency-curve": {"dist", "kernel", "n", "out", "format"},
        "figure2": {"dist", "n", "out"},
        "figure3": {"dist", "n", "out"},
        "mc-validate": {"dist", "kernel", "n", "h_grid", "seed", "reps", "out"},
        "constants": set(),
    }
    # a value of each key and its parsed value, which no command has as
    # its default
    VALUES = {"dist": ("normal:sigma=2", "normal:sigma=2"),
              "kernel": ("sinc", "sinc"),
              "n": ("50", (50,)),
              "h_grid": ("0:1:3", (0.0, 1.0, 3)),
              "seed": ("7", 7),
              "reps": ("300", 300),
              "out": ("results", Path("results")),
              "format": ("csv+svg", "csv+svg")}

    def test_slot_counts(self):
        # --config comes with any key
        flags = sum(len(keys) + bool(keys) for keys in self.TAKEN.values())
        assert (flags, len(self.TAKEN) * 9 - flags) == (35, 28)
        config_keys = sum(len(keys) for keys in self.TAKEN.values())
        assert (config_keys, len(self.TAKEN) * 8 - config_keys) == (29, 27)

    @pytest.mark.parametrize("command", list(TAKEN))
    def test_flag_matrix(self, command, capsys):
        taken = self.TAKEN[command] | ({"config"} if self.TAKEN[command] else set())
        for key in (*self.KEYS, "config"):
            flag, value = "--" + key.replace("_", "-"), self.VALUES.get(key, ("run.json",))[0]
            if key in taken:
                assert getattr(cli._parser().parse_args([command, flag, value]), key) == value
            else:
                rc, _, err = run_cli([command, flag, value], capsys)
                assert rc == 1
                assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("command", list(TAKEN))
    def test_config_key_matrix(self, command, capsys, tmp_path):
        path = tmp_path / "run.json"
        allowed = [key for key in self.KEYS if key in self.TAKEN[command]]
        for key, (value, parsed) in self.VALUES.items():
            path.write_text(json.dumps({key: value}), encoding="utf-8")
            argv = [command, "--config", str(path)]
            if key in allowed:
                cfg = cli._merge_config(cli._parser().parse_args(argv))
                assert getattr(cfg, key) == parsed
                continue
            rc, _, err = run_cli(argv, capsys)
            assert rc == 1
            if allowed:
                assert f"unknown config keys ['{key}']; allowed: {allowed}" in err
            else:
                assert f"unrecognized arguments: --config {path}" in err

    @pytest.mark.parametrize("value", [5, ["results"], True, {"dir": "results"}],
                             ids=["5", "list", "true", "object"])
    @pytest.mark.parametrize("command", [c for c, keys in TAKEN.items() if "out" in keys])
    def test_config_out_must_be_a_string(self, command, value, capsys, tmp_path,
                                         monkeypatch):
        # a path that is not a string raised TypeError with a traceback
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_text(json.dumps({"out": value}), encoding="utf-8")
        rc, out, err = run_cli([command, "--config", "run.json"], capsys)
        assert rc == 1
        assert out == ""
        assert err == f"cdf-mise: error: output directory must be a string, got {value!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_constants_help_lists_only_help(self, capsys):
        rc, out, _ = run_cli(["constants", "--help"], capsys)
        assert rc == 0
        assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out)) == {"-h", "--help"}
