"""End-to-end tests of the command-line interface and its file formats."""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swiptlab.capacity as capacity
import swiptlab.regions as regions
from swiptlab.capacity import cnl_upper
from swiptlab.cli import (
    COMMANDS,
    CSV_HEADER,
    REGION_SCHEMES,
    _merge_options,
    build_parser,
    main,
    write_csv,
)
from swiptlab.core import LinkParams, REBoundary
from swiptlab.figures import (
    FIGURES,
    PLAN_HEADER,
    SWEEP_BUDGET,
    SWEEP_PI,
    SWEEP_PS,
    SWEEP_SER_TARGET,
    SWEEP_ZETA,
    sweep_distances,
)
from swiptlab.modulation import ModulationPlan, link_budget_to_params, solve_p1, solve_p2
from swiptlab.regions import region_sps

FIG9_FLAGS = ["--h", "1", "--p", "100", "--zeta", "0.6", "--sa2", "1", "--scov2", "10"]


def read_boundary(path) -> REBoundary:
    """The boundary a region CSV holds: its header must be CSV_HEADER, and
    every row must name the same scheme and receiver."""
    with open(path, encoding="utf-8") as fh:
        assert fh.readline() == ",".join(CSV_HEADER) + "\n"
    labels = np.loadtxt(path, dtype=str, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)
    points = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3), ndmin=2)
    (scheme, receiver), = {tuple(row) for row in labels}
    return REBoundary(points=points, scheme=scheme, receiver=receiver)


def run(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRegionCommand:
    def test_ts_chord_file(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["region", "--scheme", "ts", "--h", "1", "--p", "100",
                            "--zeta", "1", "--sa2", "1", "--scov2", "1"],
                           tmp_path, monkeypatch, capsys)
        assert code == 0
        path = tmp_path / "region_ts.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 512
        bnd = read_boundary(path)
        assert bnd.rates()[0] == pytest.approx(5.672425341971495, rel=1e-12)
        assert bnd.energies()[0] == 0.0
        assert bnd.rates()[-1] == 0.0
        assert bnd.energies()[-1] == pytest.approx(100.0)
        assert np.all(np.diff(bnd.energies()) >= 0)

    # p_s far above q_max = 60 collapses every feasible interval of the solver;
    # from 3.2e5 to 5.6e7 many optima sit at the lower end of a fitting interval
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p_s", ["3.2e5", "1e6", "1e7", "5.6e7", "1e17", "1e20", "1e300"])
    @pytest.mark.parametrize("argv", [["region", "--scheme", "ops-circuit"],
                                      ["solve", "--problem", "p0", "--q", "30"]])
    def test_ops_circuit_far_above_q_max(self, argv, p_s, tmp_path, monkeypatch, capsys):
        code, _, err = run([*argv, *FIG9_FLAGS, "--ps", p_s, "--out", "out"],
                           tmp_path, monkeypatch, capsys)
        assert (code, err) == (0, "")
        if argv[0] == "solve":
            rho = json.loads((tmp_path / "out").read_text())["outputs"]["rho_star"]
            assert 0.0 <= rho <= 1.0

    def test_ub_box_polyline(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["region", "--scheme", "ub", "--h", "1", "--p", "100",
                          "--sa2", "1", "--points", "17"],
                         tmp_path, monkeypatch, capsys)
        assert code == 0
        bnd = read_boundary(tmp_path / "region_ub.csv")
        rates = bnd.rates()
        # flat top at R_max then the corner drop to (0, Q_max)
        assert np.all(rates[:-1] == rates[0])
        assert rates[-1] == 0.0
        assert bnd.energies()[-1] == bnd.energies()[-2] == pytest.approx(100.0)

    def test_ops_circuit_dominates_ts_and_sps_files(self, tmp_path, monkeypatch, capsys):
        files = {}
        for scheme in ("ops-circuit", "ts-circuit", "sps-circuit"):
            args = ["region", "--scheme", scheme, *FIG9_FLAGS,
                    "--points", "512", "--ps", "25"]
            code, _, _ = run(args, tmp_path, monkeypatch, capsys)
            assert code == 0
            files[scheme] = read_boundary(tmp_path / f"region_{scheme}.csv")
        ops = files["ops-circuit"]
        for scheme in ("ts-circuit", "sps-circuit"):
            other = files[scheme]
            # compare at the other curve's own knots (exact there); 1e-5 covers
            # chord interpolation of the concave on-off boundary at 512 knots
            assert np.all(other.rates() <= ops.rate_at(other.energies()) + 1e-5)
        for bnd in files.values():
            assert np.all(np.diff(bnd.energies()) >= -1e-12)
            assert np.all(np.diff(bnd.rates()) <= 1e-12)

    def test_csv_json_round_trip(self, tmp_path, monkeypatch, capsys):
        base = ["region", "--scheme", "sps", "--h", "1", "--p", "10", "--sa2", "1",
                "--scov2", "0.5", "--points", "33"]
        run(base + ["--out", "bnd.csv", "--format", "csv"], tmp_path, monkeypatch, capsys)
        run(base + ["--out", "bnd.json", "--format", "json"], tmp_path, monkeypatch, capsys)
        from_csv = read_boundary(tmp_path / "bnd.csv")
        outputs = json.loads((tmp_path / "bnd.json").read_text())["outputs"]
        assert [[p["rate_bits"], p["energy_units"]] for p in outputs["points"]] \
            == from_csv.points.tolist()
        assert (from_csv.scheme, from_csv.receiver) == (outputs["scheme"], outputs["receiver"])

    def test_json_names_no_seed(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["region", "--scheme", "sps", *FIG9_FLAGS, "--points", "8",
                          "--format", "json", "--seed", "5", "--out", "sps.json"],
                         tmp_path, monkeypatch, capsys)
        assert code == 0
        assert json.loads((tmp_path / "sps.json").read_text())["provenance"]["seed"] is None

    def test_int_adc_reads_no_sampling_option(self, tmp_path, monkeypatch, capsys):
        # --samples and --seed are still accepted; the int-* rate is deterministic
        link = ["--h", "1", "--p", "100", "--zeta", "0.6", "--sa2", "1", "--srec2", "1",
                "--sadc2", "1", "--points", "4"]
        for name, extra in (("a.csv", []), ("b.csv", ["--samples", "10000", "--seed", "4"])):
            code, _, _ = run(["region", "--scheme", "int-adc", *link, *extra, "--out", name],
                             tmp_path, monkeypatch, capsys)
            assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert read_boundary(tmp_path / "a.csv").points.shape == (4, 2)

    @pytest.mark.parametrize("scheme", ["int-ideal", "int-adc", "int-circuit"])
    def test_channel_past_grid_limit_exit_2(self, scheme, tmp_path, monkeypatch, capsys):
        code, _, err = run(["region", "--scheme", scheme, "--h", "1", "--p", "1e4",
                            "--sa2", "1", "--srec2", "1", "--sadc2", "1", "--pi", "1",
                            "--points", "4"], tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and "past the grid limit" in doc["message"]
        assert not list(tmp_path.iterdir())

    def test_int_adc_noise_overflow_names_adc_noise(self, tmp_path, monkeypatch, capsys):
        # sigma2_adc / (1 - rho)^2 overflows at the sweep's last rho = 0.999,
        # although --srec2 is finite; no rate is computed before that is found
        rates = []
        int_rate = regions.int_rate
        monkeypatch.setattr(regions, "int_rate",
                            lambda *args: rates.append(args) or int_rate(*args))
        code, _, err = run(["region", "--scheme", "int-adc", "--h", "1", "--p", "100",
                            "--sa2", "1", "--sadc2", "1e303", "--srec2", "1", "--points", "4"],
                           tmp_path, monkeypatch, capsys)
        assert code == 2
        assert json.loads(err) == {"error": {
            "type": "InvalidParams", "exit_code": 2,
            "message": "effective processing noise overflows: sigma2_adc=1e+303 "
                       "/ (1 - rho)^2 at rho=0.999"}}
        assert not list(tmp_path.iterdir())
        assert rates == []

    def test_int_circuit_with_explicit_cap(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["region", "--scheme", "int-circuit", "--h", "1", "--p", "100",
                          "--zeta", "0.6", "--sa2", "1", "--srec2", "100",
                          "--pi", "10", "--cap", "2.5", "--points", "65"],
                         tmp_path, monkeypatch, capsys)
        assert code == 0
        bnd = read_boundary(tmp_path / "region_int-circuit.csv")
        assert bnd.rate_at(0.0) == pytest.approx(2.5)
        assert bnd.rate_at(50.0) == pytest.approx(2.5)
        assert bnd.energies()[-1] == pytest.approx(60.0)


class TestCapacityCommand:
    def test_byte_identical_rerun(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        args = ["capacity", "--hp", "100", "--sa2", "1e-4", "--srec2", "1",
                "--lower", "--samples", "10000", "--seed", "7"]
        run(args + ["--out", "a.json"], tmp_path, monkeypatch, capsys)
        run(args + ["--out", "b.json"], tmp_path, monkeypatch, capsys)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc["outputs"]["lower"]["seed"] == 7
        assert doc["provenance"]["seed"] == 7 and doc["inputs"]["samples"] == 10000

    def test_upper_bounds_default(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["capacity", "--hp", "100", "--sa2", "1", "--srec2", "1",
                          "--out", "up.json"], tmp_path, monkeypatch, capsys)
        assert code == 0
        doc = json.loads((tmp_path / "up.json").read_text())
        up = doc["outputs"]["upper"]
        assert up["cnl_upper_bits"] == pytest.approx(
            min(up["c1_upper_bits"], up["c2_upper_bits"]))

    def test_upper_alone_names_no_seed(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["capacity", "--hp", "100", "--sa2", "1", "--srec2", "1", "--upper",
                          "--seed", "5", "--out", "up.json"], tmp_path, monkeypatch, capsys)
        assert code == 0
        doc = json.loads((tmp_path / "up.json").read_text())
        assert doc["provenance"]["seed"] is None and "lower" not in doc["outputs"]

    def test_upper_alone_records_no_samples(self, tmp_path, monkeypatch, capsys):
        # no bound reads the sample count, so even an invalid one is not recorded
        code, _, _ = run(["capacity", "--hp", "100", "--sa2", "1", "--srec2", "1", "--upper",
                          "--samples", "-3", "--out", "up.json"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert json.loads((tmp_path / "up.json").read_text())["inputs"]["samples"] is None

    # (sa2, srec2, the bound that is the smaller): rectifier noise dominant,
    # then antenna noise dominant
    @pytest.mark.parametrize("sa2,srec2,branch", [(1e-4, 1.0, "c1"), (1.0, 1e-8, "c2")])
    def test_upper_is_the_cnl_upper_record(self, sa2, srec2, branch, tmp_path,
                                           monkeypatch, capsys):
        calls = []
        real = capacity.c1_upper_optimized
        monkeypatch.setattr(capacity, "c1_upper_optimized",
                            lambda *args: calls.append(args) or real(*args))
        code, _, _ = run(["capacity", "--hp", "100", "--sa2", str(sa2), "--srec2", str(srec2),
                          "--upper", "--out", "up.json"], tmp_path, monkeypatch, capsys)
        assert code == 0 and len(calls) == 1
        up = json.loads((tmp_path / "up.json").read_text())["outputs"]["upper"]
        assert up == cnl_upper(100.0, sa2, srec2)
        assert up["cnl_upper_bits"] == up[f"{branch}_upper_bits"]


class TestSolveCommand:
    def test_p0_output(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["solve", "--problem", "p0", "--q", "30", "--ps", "25",
                          *FIG9_FLAGS, "--out", "p0.json"],
                         tmp_path, monkeypatch, capsys)
        assert code == 0
        doc = json.loads((tmp_path / "p0.json").read_text())
        out = doc["outputs"]
        lp_q_max = 0.6 * 100.0
        net = (out["alpha_star"] * lp_q_max
               + (1 - out["alpha_star"]) * out["rho_star"] * lp_q_max
               - (1 - out["alpha_star"]) * 25.0)
        assert net == pytest.approx(30.0, abs=1e-8)
        assert net >= 30.0 - 1e-9 * lp_q_max  # the plan meets its energy target
        assert "converged" not in out

    def test_p2_full_requirement(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["solve", "--problem", "p2", "--qreq", "60", "--pi", "10",
                          "--h", "1", "--p", "100", "--zeta", "0.6",
                          "--srec2", "100", "--out", "p2.json"],
                         tmp_path, monkeypatch, capsys)
        assert code == 0
        out = json.loads((tmp_path / "p2.json").read_text())["outputs"]
        assert out["alpha"] == 1.0 and out["rate_bits"] == 0.0

    # zeta*h*P = 0 exactly, and by underflow: the full-harvest point is the only one
    @pytest.mark.parametrize("link", [["--p", "0"], ["--h", "1e-300", "--p", "1e-300"]])
    def test_p0_at_zero_q_max(self, link, tmp_path, monkeypatch, capsys):
        flags = [*link, "--ps", "1", "--sa2", "1", "--scov2", "1"]
        code, _, _ = run(["solve", "--problem", "p0", *flags], tmp_path, monkeypatch, capsys)
        assert code == 0
        out = json.loads((tmp_path / "solve.json").read_text())["outputs"]
        assert out == {"alpha_star": 1.0, "rho_star": 1.0, "rate_bits": 0.0, "q_target": 0.0}
        for scheme in ("ops-circuit", "ts-circuit", "sps-circuit"):
            code, _, _ = run(["region", "--scheme", scheme, *flags, "--points", "4"],
                             tmp_path, monkeypatch, capsys)
            assert code == 0
            assert not read_boundary(tmp_path / f"region_{scheme}.csv").points.any()


class TestLinkCommand:
    def test_distance_conversion(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["link", "--distance", "10", "--zeta", "0.6",
                          "--out", "lp.json"], tmp_path, monkeypatch, capsys)
        assert code == 0
        out = json.loads((tmp_path / "lp.json").read_text())["outputs"]
        assert out["h"] == pytest.approx(1e-6, rel=1e-12)
        assert out["sigma2_a"] == pytest.approx(3.981071705534972e-14, rel=1e-12)
        assert out["sigma2_rec"] == pytest.approx(1e-16, rel=1e-12)


class TestSimulateCommand:
    def test_qam_reproducible(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        args = ["simulate", "--kind", "qam", "--m", "16", "--rho", "0.2",
                "--h", "1", "--p", "200", "--sa2", "1", "--scov2", "1",
                "--symbols", "20000", "--seed", "3"]
        run(args + ["--out", "a.json"], tmp_path, monkeypatch, capsys)
        run(args + ["--out", "b.json"], tmp_path, monkeypatch, capsys)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        out = json.loads((tmp_path / "a.json").read_text())["outputs"]
        assert 0 <= out["ser_hat"] <= 1 and out["n_symbols"] == 20000

    def test_importance_sampling_recorded(self, tmp_path, monkeypatch, capsys):
        # the same QPSK link plain and importance-sampled: only the scale
        # tells the two artifacts' inputs apart
        args = ["simulate", "--kind", "qam", "--m", "4", "--rho", "0", "--h", "1", "--p", "25",
                "--sa2", "0.5", "--scov2", "0.5", "--symbols", "2000", "--seed", "6"]
        run(args + ["--out", "plain.json"], tmp_path, monkeypatch, capsys)
        run(args + ["--noise-scale", "2.2", "--out", "is.json"], tmp_path, monkeypatch, capsys)
        plain, sampled = (json.loads((tmp_path / name).read_text())["inputs"]
                          for name in ("plain.json", "is.json"))
        assert plain["noise_scale"] == 1.0 and sampled["noise_scale"] == 2.2
        assert {**plain, "noise_scale": 2.2} == sampled

    # y/hP overflows; every decision clips to an outer level as before
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pem_overflowing_normalization(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(["simulate", "--kind", "pem", "--h", "1e-300", "--p", "1",
                            "--srec2", "1e30", "--symbols", "100", "--out", "pem.json"],
                           tmp_path, monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "pem.json").read_text())["outputs"]["ser_hat"] == 0.77


class TestFigureCommand:
    def test_fig5_curve_count(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["figure", "fig5", "--points", "65", "--out-dir", "f5"],
                           tmp_path, monkeypatch, capsys)
        assert code == 0
        files = sorted((tmp_path / "f5").iterdir())
        assert len(files) == 5  # UB + TS x2 + SPS x2

    def test_fig9_regenerates_identically(self, tmp_path, monkeypatch, capsys):
        run(["figure", "fig9", "--points", "33", "--out-dir", "a"],
            tmp_path, monkeypatch, capsys)
        run(["figure", "fig9", "--points", "33", "--out-dir", "b"],
            tmp_path, monkeypatch, capsys)
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_fig11_tables_are_the_batched_plans(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["figure", "fig11", "--out-dir", "f11"], tmp_path, monkeypatch, capsys)
        assert code == 0
        distances = sweep_distances().tolist()
        links = [link_budget_to_params(d, zeta=SWEEP_ZETA, **SWEEP_BUDGET) for d in distances]
        for name, receiver, plans in (
                ("fig11_seprx.csv", "separated",
                 solve_p1(links, SWEEP_PS, 0.0, SWEEP_SER_TARGET)),
                ("fig11_intrx.csv", "integrated",
                 solve_p2(links, SWEEP_PI, 0.0, SWEEP_SER_TARGET))):
            rows = [plan.to_csv_row(d, receiver) for d, plan in zip(distances, plans)]
            assert (tmp_path / "f11" / name).read_text() == per_cell_csv(PLAN_HEADER, rows)

    def test_unknown_figure_id(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(["figure", "fig99"], tmp_path, monkeypatch, capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InvalidParams"

    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_negative_points_exit_2(self, figure_id, tmp_path, monkeypatch, capsys):
        code, _, err = run(["figure", figure_id, "--points", "-5", "--out-dir", "f"],
                           tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and "n_points" in doc["message"]
        assert not list(tmp_path.iterdir())


def per_cell_csv(header, rows) -> str:
    """A table as CSV text formatted cell by cell: 17 significant digits for a
    float (a float subclass too), str() for anything else."""
    cell = lambda x: f"{x:.17g}" if isinstance(x, float) else str(x)
    return "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows]) + "\n"


class TestWriteCsv:
    TABLES = {
        "plans": (PLAN_HEADER, [
            ModulationPlan("qam", None, 1.0, 1.0, 0.0).to_csv_row(1.0, "separated"),
            ModulationPlan("qam", 1024, 1 / 3, 0.1, 20 / 3).to_csv_row(10 ** 0.05, "separated"),
            ModulationPlan("pem", 16, 0.25, None, 3.0).to_csv_row(31.6, "integrated")]),
        "specials": (("a", "b", "c", "d", "e"), [
            (-0.0, 5e-324, 1e22, np.float64(0.1), np.float64(-1e-300)),
            (math.inf, -math.inf, math.nan, 1 / 3, np.float64(2.0) ** 0.5)]),
        "percent": (("label", "x"), [("50%", 0.5), ("%s%d%%", 1), ("%(x)s", np.float32(0.1))]),
        "header_only": (CSV_HEADER, []),
    }

    @pytest.mark.parametrize("name", TABLES)
    def test_bytes_equal_per_cell_formatting(self, name, tmp_path):
        header, rows = self.TABLES[name]
        write_csv(str(tmp_path / "t.csv"), header, rows)
        assert (tmp_path / "t.csv").read_bytes() == per_cell_csv(header, rows).encode()

    def test_boundary_bytes_equal_per_cell_formatting(self, tmp_path):
        rows = region_sps(LinkParams(h=1.0, p=100.0, sigma2_a=1.0, sigma2_cov=10.0),
                          512).to_csv_rows()
        write_csv(str(tmp_path / "t.csv"), CSV_HEADER, rows)
        assert (tmp_path / "t.csv").read_bytes() == per_cell_csv(CSV_HEADER, rows).encode()


class TestErrorHandling:
    def test_invalid_parameters_exit_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(["region", "--scheme", "ts", "--h", "-1", "--p", "100",
                            "--sa2", "1"], tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)
        assert doc["error"]["exit_code"] == 2

    def test_infeasible_exit_3(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(["solve", "--problem", "p0", "--q", "100", "--ps", "25",
                            *FIG9_FLAGS], tmp_path, monkeypatch, capsys)
        assert code == 3
        assert json.loads(err)["error"]["type"] == "InfeasibleTarget"

    def test_config_file_with_flag_override(self, tmp_path, monkeypatch, capsys):
        cfg = {"h": 1.0, "p": 100.0, "sa2": 1.0, "scov2": 1.0, "zeta": 1.0,
               "points": 16}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _, _ = run(["region", "--scheme", "ts", "--config", "cfg.json",
                          "--points", "8"], tmp_path, monkeypatch, capsys)
        assert code == 0
        lines = (tmp_path / "region_ts.csv").read_text().splitlines()
        assert len(lines) == 1 + 8  # the explicit flag beat the config value

    def test_unknown_config_key_rejected(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"nonsense": 1}))
        code, _, err = run(["region", "--scheme", "ts", "--config", "cfg.json"],
                           tmp_path, monkeypatch, capsys)
        assert code == 2
        assert "nonsense" in json.loads(err)["error"]["message"]

    def test_unresolved_quadrature_exit_4(self, tmp_path, monkeypatch, capsys):
        # a channel whose conditional densities miss their tolerance in some
        # samples, whatever the units
        code, _, err = run(["capacity", "--hp", "1e6", "--sa2", "1e-10", "--srec2", "1",
                            "--lower", "--samples", "10000"], tmp_path, monkeypatch, capsys)
        assert code == 4
        doc = json.loads(err)["error"]
        assert doc["type"] == "QuadratureFailure" and doc["exit_code"] == 4
        for field in ("output-density integrals missed tol=1e-10", "worst |delta|",
                      "of the batch", "integration window [", "of the draw (y="):
            assert field in doc["message"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [
        ["--hp", "1e300", "--sa2", "1", "--srec2", "1e-300"],   # hP overflows at sigma_rec = 1
        ["--hp", "1", "--sa2", "1e300", "--srec2", "1e-300"],   # sigma2_a overflows there
        ["--hp", "1.7e308", "--sa2", "1", "--srec2", "1"],      # a drawn y overflows
    ])
    def test_overflowing_channel_exit_4(self, flags, tmp_path, monkeypatch, capsys):
        code, _, err = run(["capacity", *flags, "--lower", "--samples", "10000"],
                           tmp_path, monkeypatch, capsys)
        assert code == 4
        (line,) = err.splitlines()
        doc = json.loads(line)["error"]
        assert doc["type"] == "QuadratureFailure" and doc["exit_code"] == 4
        assert "overflows in units where sigma_rec = 1" in doc["message"]

    def test_rescaled_point_equals_unit_point(self, tmp_path, monkeypatch, capsys):
        # the unit point with every power scaled by 1e-6: the same channel in
        # other units, estimated in the same units where sigma_rec = 1
        lowers = []
        for link in (["--hp", "1e-4", "--sa2", "1e-6", "--srec2", "1e-12"],
                     ["--hp", "100", "--sa2", "1", "--srec2", "1"]):
            code, _, _ = run(["capacity", *link, "--lower", "--samples", "10000", "--seed", "5",
                              "--out", "c.json"], tmp_path, monkeypatch, capsys)
            assert code == 0
            lowers.append(json.loads((tmp_path / "c.json").read_text())["outputs"]["lower"])
        for key in ("value_bits", "std_error_bits"):
            assert lowers[0][key] == lowers[1][key]

    @pytest.mark.parametrize("flags", [["--hp", "nan", "--sa2", "1", "--lower"],
                                       ["--hp", "100", "--sa2", "inf", "--lower"],
                                       ["--hp", "100", "--sa2", "nan", "--upper"],
                                       ["--hp", "100", "--sa2", "inf", "--upper"],
                                       ["--hp", "inf", "--sa2", "1", "--upper"],
                                       ["--hp", "100", "--srec2", "inf", "--upper"],
                                       ["--hp", "100", "--srec2", "nan", "--lower"]])
    def test_non_finite_capacity_input_exit_2(self, flags, tmp_path, monkeypatch, capsys):
        code, _, err = run(["capacity", "--srec2", "1", *flags, "--samples", "10000"],
                           tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and doc["exit_code"] == 2
        assert "finite" in doc["message"]

    @pytest.mark.parametrize("argv", [["region", "--scheme", "ts", "--p", "nan", "--sa2", "1"],
                                      ["solve", "--problem", "p1", "--p", "nan", "--sa2", "1"]])
    def test_non_finite_link_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        code, _, err = run(argv, tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and "finite" in doc["message"]
        assert "p must be finite and >= 0, got nan" in doc["message"]
        assert not list(tmp_path.iterdir())

    # an h*P that overflows, and a zero h*P where the symbol oracles divide by it
    @pytest.mark.parametrize("argv,named", [
        (["region", "--scheme", "sps", "--h", "1e300", "--p", "1e300", "--sa2", "1",
          "--scov2", "1"], "h*p must be finite and >= 0, got inf"),
        (["solve", "--problem", "p0", "--h", "1e300", "--p", "1e300", "--sa2", "1",
          "--scov2", "1"], "h*p must be finite and >= 0, got inf"),
        (["simulate", "--kind", "pem", "--p", "0", "--srec2", "1", "--symbols", "100"],
         "h*p must be finite and > 0, got 0.0"),
        (["simulate", "--kind", "qam", "--p", "0", "--sa2", "1", "--scov2", "1",
          "--symbols", "100"], "h*p must be finite and > 0, got 0.0")])
    def test_degenerate_received_power_exit_2(self, argv, named, tmp_path, monkeypatch,
                                              capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(argv, tmp_path, monkeypatch, capsys)
        assert code == 2 and not caught
        line, = err.splitlines()
        doc = json.loads(line)["error"]
        assert doc["type"] == "InvalidParams" and named in doc["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [["solve", "--problem", "p0", "--q", "30"],
                                      ["region", "--scheme", "ops-circuit"],
                                      ["region", "--scheme", "ts-circuit"],
                                      ["region", "--scheme", "sps-circuit"]])
    def test_non_finite_circuit_power_exit_2(self, argv, value, tmp_path, monkeypatch,
                                             capsys):
        code, _, err = run([*argv, f"--ps={value}", *FIG9_FLAGS], tmp_path, monkeypatch,
                           capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams"
        assert f"p_s must be finite and >= 0, got {value}" in doc["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_p0_target_exit_2(self, value, tmp_path, monkeypatch, capsys):
        code, _, err = run(["solve", "--problem", "p0", f"--q={value}", "--ps", "25",
                            *FIG9_FLAGS], tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams"
        assert f"energy target must be finite, got {value}" in doc["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_integrated_circuit_power_exit_2(self, value, tmp_path, monkeypatch,
                                                        capsys):
        code, _, err = run(["region", "--scheme", "int-circuit", *FIG9_FLAGS, "--srec2", "1",
                            "--cap", "3", f"--pi={value}"], tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams"
        assert f"p_i must be finite and >= 0, got {value}" in doc["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv,flag", [(["solve", "--problem", "p1", "--qreq", "0"], "ps"),
                                           (["solve", "--problem", "p2", "--qreq", "0"], "pi"),
                                           (["solve", "--problem", "p1"], "qreq"),
                                           (["solve", "--problem", "p2"], "qreq")])
    def test_non_finite_modulation_input_exit_2(self, argv, flag, value, tmp_path,
                                                monkeypatch, capsys):
        code, _, err = run([*argv, f"--{flag}={value}", *FIG9_FLAGS, "--srec2", "1"],
                           tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and "finite" in doc["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cap_exit_2(self, value, tmp_path, monkeypatch, capsys):
        code, _, err = run(["region", "--scheme", "int-ideal", f"--cap={value}",
                            *FIG9_FLAGS], tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and "finite" in doc["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,named", [
        (["--kind", "rectifier", "--carrier=inf"], "carrier"),
        (["--kind", "rectifier", "--carrier=nan"], "carrier"),
        (["--kind", "rectifier", "--bandwidth=0"], "bandwidth"),
        (["--kind", "qam", "--bandwidth=0"], "bandwidth"),
        (["--kind", "pem", "--bandwidth=0"], "bandwidth"),
        (["--kind", "rectifier", "--diode-gamma=nan"], "gamma"),
        (["--kind", "rectifier", "--diode-gamma=inf"], "gamma"),
        (["--kind", "rectifier", "--diode-gamma=1e200"], "overflow"),
        (["--kind", "qam", "--noise-scale=nan"], "noise_scale"),
        (["--kind", "qam", "--noise-scale=inf"], "noise_scale"),
        (["--kind", "rectifier", "--carrier=1e12"], "samples per symbol")])
    def test_simulate_bad_input_exit_2(self, flags, named, tmp_path, monkeypatch, capsys):
        code, _, err = run(["simulate", *flags, "--h", "1", "--p", "100", "--sa2", "1",
                            "--srec2", "1", "--symbols", "100"], tmp_path, monkeypatch,
                           capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and named in doc["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["capacity", "--hp", "100", "--sa2", "1", "--srec2", "1", "--lower",
         "--samples", "10000"],
        ["simulate", "--kind", "qam", "--h", "1", "--p", "100", "--sa2", "1", "--scov2", "1",
         "--symbols", "100"],
        ["simulate", "--kind", "pem", "--h", "1", "--p", "100", "--srec2", "1",
         "--symbols", "100"]])
    def test_negative_seed_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        code, _, err = run([*argv, "--seed", "-1"], tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and "seed" in doc["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["antenna-noise-dbm", "conv-noise-dbm", "rec-noise-dbm"])
    def test_link_level_overflow_exit_2(self, flag, tmp_path, monkeypatch, capsys):
        code, _, err = run(["link", f"--{flag}", "1e12"], tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and "1e+12 dBm" in doc["message"]
        assert not list(tmp_path.iterdir())

    def test_out_of_memory_exit_2(self, tmp_path, monkeypatch, capsys):
        def exhausted(regions, ns, lp):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setitem(REGION_SCHEMES, "ts", exhausted)
        code, _, err = run(["region", "--scheme", "ts", "--sa2", "1"], tmp_path, monkeypatch,
                           capsys)
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "MemoryError", "message": "Unable to allocate 745. GiB for an array",
            "exit_code": 2}
        assert not list(tmp_path.iterdir())

    # importance sampling needs two weights for its confidence interval
    def test_importance_sampling_one_symbol_exit_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(["simulate", "--kind", "qam", "--m", "4", "--rho", "0", "--h", "1",
                            "--p", "25", "--sa2", "0.5", "--scov2", "0.5", "--noise-scale",
                            "2", "--symbols", "1"], tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and "n_symbols >= 2" in doc["message"]
        assert not list(tmp_path.iterdir())

    def test_simulate_waveform_overflow_exit_4(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(["simulate", "--kind", "rectifier", "--h", "1", "--p", "1e200",
                            "--truncation-order", "5", "--oversampling", "12",
                            "--symbols", "100"], tmp_path, monkeypatch, capsys)
        assert code == 4
        assert json.loads(err)["error"]["type"] == "FloatingPointError"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,config,named", [
        (["region", "--scheme", "ts"], {"p": "100"}, "'p'"),
        (["region", "--scheme", "ts"], {"points": 3.5, "sa2": 1}, "'points'"),
        (["region", "--scheme", "ts"], {"points": True, "sa2": 1}, "'points'"),
        (["region", "--scheme", "ts"], {"p": False, "sa2": 1}, "'p'"),
        (["region", "--scheme", "ts"], {"format": "xml", "sa2": 1}, "'format'"),
        (["region", "--scheme", "ts"], {"out": 7, "sa2": 1}, "'out'"),
        (["capacity"], {"lower": "yes"}, "'lower'"),
        (["solve", "--problem", "p0"], {"problem": "p1"}, "'problem'"),
        (["region", "--scheme", "ts"], [1, 2], "JSON object"),
    ])
    def test_config_type_errors_exit_2(self, argv, config, named, tmp_path, monkeypatch,
                                       capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code, _, err = run([*argv, "--config", "cfg.json"], tmp_path, monkeypatch, capsys)
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "InvalidParams" and named in doc["message"]

    def test_config_int_for_float(self, tmp_path, monkeypatch, capsys):
        # an int config, a float config and the flags write the same artifact;
        # the JSON one echoes p as written
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        for fmt in ("csv", "json"):
            for name, p in (("int", 100), ("float", 100.0)):
                (tmp_path / f"{name}.json").write_text(json.dumps({"p": p, "sa2": 1}))
                code, _, _ = run(["region", "--scheme", "sps", "--config", f"{name}.json",
                                  "--points", "9", "--format", fmt, "--out", f"{name}.{fmt}"],
                                 tmp_path, monkeypatch, capsys)
                assert code == 0
            code, _, _ = run(["region", "--scheme", "sps", "--p", "100", "--sa2", "1",
                              "--points", "9", "--format", fmt, "--out", f"flags.{fmt}"],
                             tmp_path, monkeypatch, capsys)
            assert code == 0
            flags = (tmp_path / f"flags.{fmt}").read_bytes()
            assert (tmp_path / f"int.{fmt}").read_bytes() == flags
            assert (tmp_path / f"float.{fmt}").read_bytes() == flags

    @pytest.mark.parametrize("argv,key", [
        (["capacity"], "hp"),
        (["region", "--scheme", "ts"], "p"),
        (["region", "--scheme", "sps"], "h"),
        (["region", "--scheme", "int-ideal"], "cap"),
        (["solve", "--problem", "p0"], "p"),
        (["solve", "--problem", "p0"], "q"),
        (["solve", "--problem", "p2", "--sa2", "1", "--scov2", "1", "--srec2", "1",
          "--pi", "1"], "ser_target"),
        (["link"], "distance"),
    ])
    def test_config_int_past_float_range_exit_2(self, argv, key, tmp_path, monkeypatch,
                                                capsys):
        # the int is read as the inf its digits give, which the option's check
        # rejects; each of these exited 1 with an OverflowError
        (tmp_path / "cfg.json").write_text(json.dumps({key: 10 ** 400}))
        code, _, err = run([*argv, "--config", "cfg.json", "--out", "artifact"],
                           tmp_path, monkeypatch, capsys)
        assert code == 2
        (line,) = err.splitlines()
        doc = json.loads(line)["error"]
        assert doc["type"] == "InvalidParams" and doc["message"].endswith("got inf")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# every float flag of the fuzzed commands keeps its base value or takes one of these
FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e-12", "0.5", "1", "3", "100",
               "1e12", "1e300")
# each command with its selector and a feasible base: every count is small and
# fixed, the integrated schemes take --cap but one, which computes the
# deterministic rate, and capacity runs --upper only
_FUZZ_LINK = ["--h=1", "--p=100", "--zeta=0.6", "--sa2=1", "--scov2=10", "--srec2=1"]
FUZZ_CASES = (
    *(["region", "--scheme", scheme, *_FUZZ_LINK, "--ps=25", "--pi=10", "--cap=3",
       "--points=8"]
      for scheme in ("ub", "ts", "sps", "ops-circuit", "ts-circuit", "sps-circuit",
                     "int-ideal", "int-circuit")),
    ["region", "--scheme", "int-ideal", *_FUZZ_LINK, "--points=8"],
    *(["solve", "--problem", problem, *_FUZZ_LINK, "--ps=25", "--pi=10", "--q=30",
       "--qreq=10"] for problem in ("p0", "p1", "p2")),
    ["link"],
    ["capacity", "--upper", "--sa2=1", "--srec2=1"],
    *(["simulate", "--kind", kind, *_FUZZ_LINK, "--rho=0.2", "--m=4", "--symbols=64",
       "--oversampling=8", "--truncation-order=2"] for kind in ("qam", "pem", "rectifier")),
)


# config values of every JSON kind, NaN and +-Infinity among them (Python's json
# writes and reads both); integers stay small so that no count is large
CONFIG_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e-300, 0.5,
                     3.0, 1e300]),
    st.integers(-2, 16),
    st.one_of(st.none(), st.booleans(), st.text(max_size=4),
              st.lists(st.integers(0, 3), max_size=2),
              st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1)))
# a float key also takes integers past the float range
FLOAT_CONFIG_VALUES = st.one_of(CONFIG_VALUES, st.sampled_from([10 ** 400, -10 ** 400]))


def _fuzzed_config(case):
    """A FUZZ_CASES entry as (argv, config): its float flags but --cap go to a
    config, where up to three options (but lower, which would run a
    100k-sample MI estimate) or unknown keys (quad_tol is a removed one) take
    fuzzed values."""
    floats = {dest for dest, kind, _, _ in COMMANDS[case[0]][3] if kind is float}
    argv, base = [], {}
    for arg in case:
        dest, _, value = arg[2:].replace("-", "_").partition("=")
        if arg.startswith("--") and dest in floats - {"cap"}:
            base[dest] = float(value)
        else:
            argv.append(arg)
    keys = [dest for dest, _, _, _ in COMMANDS[case[0]][3] if dest != "lower"]
    names = st.sampled_from([*keys, "quad_tol", "nonsense"])
    pairs = names.flatmap(lambda name: st.tuples(
        st.just(name), FLOAT_CONFIG_VALUES if name in floats else CONFIG_VALUES))
    return st.lists(pairs, max_size=3, unique_by=lambda pair: pair[0]).map(
        lambda fuzzed: (argv, {**base, **dict(fuzzed)}))


def _assert_exit_contract(argv):
    """main(argv) exits 0, 2, 3 or 4; on an error it prints one JSON error
    record with that code and writes no file."""
    with tempfile.TemporaryDirectory() as out_dir:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", os.path.join(out_dir, "artifact")])
        assert code in (0, 2, 3, 4)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"]["exit_code"] == code
            assert not os.listdir(out_dir)


def _fuzzed_argv(case):
    """case followed by a value from FUZZ_VALUES for a few of its float flags."""
    floats = [dest.replace("_", "-") for dest, kind, _, _ in COMMANDS[case[0]][3]
              if kind is float]
    flags = st.tuples(st.sampled_from(floats), st.sampled_from(FUZZ_VALUES))
    return st.lists(flags, max_size=5).map(
        lambda pairs: [*case, *(f"--{flag}={value}" for flag, value in pairs)])


class TestExitCodeContract:
    # a RuntimeWarning is an error, so a run that warns on stderr before its
    # record fails here
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.one_of(*map(_fuzzed_argv, FUZZ_CASES)))
    # crashes that exited 1: a dBm level whose watts overflow, solve_p0 at
    # zeta*h*P = 0 (exactly or by underflow), and a diode whose a2 underflows
    @example(["link", "--rec-noise-dbm=1e12"])
    @example(["solve", "--problem", "p0", "--p=0", "--ps=1", "--sa2=1", "--scov2=1"])
    @example(["region", "--scheme", "ops-circuit", "--points", "8", "--h=1e-300",
              "--p=1e-300", "--ps=1", "--sa2=1", "--scov2=1"])
    @example(["simulate", "--kind", "rectifier", "--symbols=64", "--diode-gamma=1e-300"])
    # runs that warned: solve_p0 probing dR/ds (0/0) in the collapsed feasible
    # intervals of p_s >> q_max, and the PEM oracle's y/hP overflowing
    @example(["region", "--scheme", "ops-circuit", *FIG9_FLAGS, "--ps=1e20"])
    @example(["simulate", "--kind", "pem", "--h=1e-300", "--p=1", "--srec2=1e30",
              "--symbols=100"])
    # runs that warned before their ZeroNoise record: solve_p0 bisecting dR/ds
    # (0/0) on a noiseless decoder path
    @example(["solve", "--problem", "p0", "--p", "1", "--ps", "0.5", "--q", "0.2"])
    @example(["region", "--scheme", "ops-circuit", "--p", "1", "--ps", "0.5"])
    # a decoder SNR that overflows: a warning, then an unrelated record
    @example(["solve", "--problem", "p1", "--scov2", "5e-324"])
    @example(["region", "--scheme", "sps", "--p", "1e300", "--scov2", "1e-150"])
    @example(["region", "--scheme", "ts-circuit", "--pi", "1e-12", "--sa2", "5e-324",
              "--zeta", "1"])
    # the c1 delta search warning before c2 rejects sigma2_a, and overflows
    # whose limit inf is right: Q((delta + hP)/sigma_rec) and the QAM
    # importance-sampling weights
    @example(["capacity", "--hp", "1e300", "--srec2", "5e-324", "--upper"])
    @example(["capacity", "--hp", "1e200", "--sa2", "1", "--srec2", "1e-250", "--upper"])
    @example(["simulate", "--kind", "qam", "--scov2", "1e150", "--rho", "1e-150",
              "--noise-scale", "1e150", "--symbols", "50"])
    # an importance-sampling scale whose square overflows: NaN weights, exit 0
    @example(["simulate", "--kind", "qam", "--noise-scale", "1e200", "--scov2", "1",
              "--symbols", "50"])
    def test_float_flags(self, argv):
        _assert_exit_contract(argv)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.one_of(*map(_fuzzed_config, FUZZ_CASES)))
    def test_config_values(self, case):
        argv, config = case
        with tempfile.TemporaryDirectory() as config_dir:
            path = os.path.join(config_dir, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            _assert_exit_contract([*argv, "--config", path])


# One argv per command kind that needs no scipy: the closed-form regions,
# the int-* schemes with and without --cap (the rate's characteristic
# functions need numpy alone), solve p0, link, the three oracles, the
# fixed-link figures and figs 7, 8 and 10.  Every other kind imports
# scipy.special.
_INT_FLAGS = ["--h", "1", "--p", "100", "--zeta", "0.6", "--sa2", "0.01", "--srec2", "100"]
SCIPY_FREE_ARGVS = (
    *(["region", "--scheme", scheme, *FIG9_FLAGS, "--ps", "25", "--points", "8",
       "--out", f"{scheme}.csv"]
      for scheme in ("ub", "ts", "sps", "ops-circuit", "ts-circuit", "sps-circuit")),
    ["region", "--scheme", "int-ideal", *_INT_FLAGS, "--cap", "2", "--points", "8",
     "--out", "int-ideal.csv"],
    ["region", "--scheme", "int-circuit", *_INT_FLAGS, "--pi", "10", "--cap", "2",
     "--points", "8", "--out", "int-circuit.csv"],
    ["region", "--scheme", "int-ideal", *_INT_FLAGS, "--points", "8", "--out", "ideal-rate.csv"],
    ["region", "--scheme", "int-circuit", *_INT_FLAGS, "--pi", "10", "--points", "8",
     "--out", "circuit-rate.csv"],
    ["region", "--scheme", "int-adc", *_INT_FLAGS, "--sadc2", "1", "--points", "4",
     "--out", "int-adc.csv"],
    ["solve", "--problem", "p0", "--q", "30", *FIG9_FLAGS, "--ps", "25"],
    ["link", "--distance", "3"],
    *(["simulate", "--kind", kind, *FIG9_FLAGS, "--srec2", "1", "--symbols", "64",
       "--out", f"{kind}.json"] for kind in ("qam", "pem", "rectifier")),
    ["figure", "fig5", "--points", "8", "--out-dir", "fig5"],
    ["figure", "fig9", "--points", "8", "--out-dir", "fig9"],
    *(["figure", fig, "--points", "8", "--out-dir", fig] for fig in ("fig7", "fig8", "fig10")),
)


def loaded_after(argvs, cwd) -> list:
    """Run each argv through cli.main in one fresh interpreter, after building
    the parser; return the modules loaded before the first call, the exit
    codes, and the modules loaded at the end.  Each set of modules maps
    "scipy" and "swiptlab" to the sorted names of that package's modules."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import json, sys\n"
        "from swiptlab.cli import build_parser, main\n"
        "build_parser()\n"
        "def loaded(): return {p: sorted(m for m in sys.modules if m.split('.')[0] == p)\n"
        "                      for p in ('scipy', 'swiptlab')}\n"
        "before = loaded()\n"
        f"codes = [main(argv) for argv in {list(argvs)!r}]\n"
        "print(json.dumps([before, codes, loaded()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# what building the parser loads of swiptlab
STARTUP_MODULES = ["swiptlab", "swiptlab.cli", "swiptlab.core", "swiptlab.errors"]
# (argv, the library modules it adds to STARTUP_MODULES): one per command kind
COMMAND_MODULES = (
    (["region", "--scheme", "ts", *FIG9_FLAGS, "--points", "8"], ["regions"]),
    (["region", "--scheme", "int-ideal", *_INT_FLAGS, "--cap", "2", "--points", "8"],
     ["regions"]),
    (["region", "--scheme", "int-adc", *_INT_FLAGS, "--sadc2", "1", "--points", "4"],
     ["capacity", "chi2rate", "regions"]),
    (["solve", "--problem", "p0", "--q", "30", *FIG9_FLAGS, "--ps", "25"], ["regions"]),
    (["solve", "--problem", "p1", "--qreq", "10", "--ps", "1", *FIG9_FLAGS], ["modulation"]),
    (["link", "--distance", "3"], ["modulation"]),
    (["simulate", "--kind", "pem", *FIG9_FLAGS, "--srec2", "1", "--symbols", "64"],
     ["modulation", "simkit"]),
    (["figure", "fig5", "--points", "8"], ["figures", "modulation", "regions"]),
    (["figure", "fig7", "--points", "8"],
     ["capacity", "chi2rate", "figures", "modulation", "regions"]),
    (["capacity", "--hp", "100", "--sa2", "1", "--srec2", "1", "--upper"], ["capacity"]),
)


class TestStartup:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_parser_loads_core_and_errors_alone(self, tmp_path):
        before, codes, after = loaded_after([], tmp_path)
        assert before == after == {"scipy": [], "swiptlab": STARTUP_MODULES}

    @pytest.mark.parametrize("argv,modules", COMMAND_MODULES,
                             ids=[" ".join(argv[:3]) for argv, _ in COMMAND_MODULES])
    def test_command_loads_its_modules(self, argv, modules, tmp_path):
        before, codes, after = loaded_after([argv], tmp_path)
        assert before["swiptlab"] == STARTUP_MODULES and codes == [0]
        assert after["swiptlab"] == sorted(STARTUP_MODULES + [f"swiptlab.{m}" for m in modules])

    def test_closed_form_commands_leave_out_scipy(self, tmp_path):
        before, codes, after = loaded_after(SCIPY_FREE_ARGVS, tmp_path)
        assert before["scipy"] == []
        assert codes == [0] * len(SCIPY_FREE_ARGVS)
        assert after["scipy"] == []

    def test_capacity_imports_scipy_special(self, tmp_path):
        before, codes, after = loaded_after(
            [["capacity", "--hp", "100", "--sa2", "1", "--srec2", "1"]], tmp_path)
        assert before["scipy"] == [] and codes == [0]
        assert "scipy.special" in after["scipy"]


# (module, function, an argv that calls it once): a command reads each
# library function from its module when it runs, so rebinding the module's
# attribute (as perfbench/tracing.py does) reaches the call
CALL_TIME_LOOKUPS = (
    ("regions", "region_ts", ["region", "--scheme", "ts", *FIG9_FLAGS, "--points", "8"]),
    ("regions", "solve_p0", ["solve", "--problem", "p0", "--q", "30", *FIG9_FLAGS,
                             "--ps", "25"]),
    ("capacity", "cnl_upper", ["capacity", "--hp", "100", "--sa2", "1", "--srec2", "1"]),
    ("modulation", "solve_p1", ["solve", "--problem", "p1", "--qreq", "10", "--ps", "1",
                                *FIG9_FLAGS]),
    ("modulation", "link_budget_to_params", ["link", "--distance", "3"]),
    ("simkit", "simulate_pem_integrated", ["simulate", "--kind", "pem", *FIG9_FLAGS,
                                           "--srec2", "1", "--symbols", "64"]),
    ("figures", "build_figure", ["figure", "fig5", "--points", "8"]),
)


def swiptlab_namespaces() -> list:
    return [(name, vars(mod)) for name, mod in sorted(sys.modules.items())
            if mod is not None and name.split(".")[0] == "swiptlab"]


class TestCallTimeLookup:
    @pytest.mark.parametrize("module,name,argv", CALL_TIME_LOOKUPS,
                             ids=[f"{m}.{n}" for m, n, _ in CALL_TIME_LOOKUPS])
    def test_rebound_function_runs(self, module, name, argv, tmp_path, monkeypatch, capsys):
        mod = importlib.import_module(f"swiptlab.{module}")
        real, calls = getattr(mod, name), []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(mod, name, counting)
            code, _, _ = run(argv, tmp_path, monkeypatch, capsys)
        assert code == 0 and len(calls) == 1
        holders = [f"{m}.{k}" for m, space in swiptlab_namespaces()
                   for k, v in space.items() if v is counting]
        assert holders == []

    def test_cli_build_figure_is_read_from_figures(self, monkeypatch):
        import swiptlab.cli
        import swiptlab.figures

        def stand_in(*args, **kwargs):
            raise AssertionError("not called")

        monkeypatch.setattr(swiptlab.figures, "build_figure", stand_in)
        assert swiptlab.cli.build_figure is stand_in
        assert "build_figure" not in vars(swiptlab.cli)


class TestArtifactMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    @pytest.mark.parametrize("argv", [["link", "--distance", "3", "--out", "x.json"],
                                      ["region", "--scheme", "ts", *FIG9_FLAGS,
                                       "--points", "8", "--out", "x.csv"]],
                             ids=["json", "csv"])
    def test_mode_follows_the_umask(self, argv, umask, tmp_path, monkeypatch, capsys):
        old = os.umask(umask)
        try:
            code, _, _ = run(argv, tmp_path, monkeypatch, capsys)
            open(tmp_path / "reference", "w").close()
        finally:
            os.umask(old)
        assert code == 0
        artifact = tmp_path / argv[-1]
        assert artifact.stat().st_mode == (tmp_path / "reference").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([argv[-1], "reference"])


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeCli:
    SECTION = README.read_text(encoding="utf-8").split("\n## CLI\n")[1].split("\n## ")[0]

    def test_examples_parse(self):
        block = re.search(r"```bash\n(.*?)```", self.SECTION, re.S).group(1)
        lines = block.replace("\\\n", " ").splitlines()
        examples = [shlex.split(ln, comments=True) for ln in lines]
        examples = [argv[1:] for argv in examples if argv[:1] == ["swiptlab"]]
        assert len(examples) >= 10
        parser = build_parser()
        for argv in examples:
            parser.parse_args(argv)

    def listed(self, label):
        return re.findall(r"`([^`]+)`", re.search(label + r"(.*?)\.\s", self.SECTION, re.S)[1])

    def test_region_schemes_listed(self):
        assert self.listed("Region schemes:") == list(REGION_SCHEMES)

    def test_scenario_ids_listed(self):
        assert self.listed("Scenario ids:") == list(FIGURES)


_LINK = {"--h": ("h", float), "--p": ("p", float), "--zeta": ("zeta", float),
         "--sa2": ("sa2", float), "--scov2": ("scov2", float), "--srec2": ("srec2", float),
         "--sadc2": ("sadc2", float)}
_LINK_VALUES = dict(h=1.0, p=100.0, zeta=1.0, sa2=0.0, scov2=0.0, srec2=0.0, sadc2=0.0)
_SCHEMES = ("ub", "ts", "sps", "ops-circuit", "ts-circuit", "sps-circuit", "int-ideal",
            "int-adc", "int-circuit")

# Each subcommand's arguments as flag -> (dest, type, choices, required), with
# a switch typed bool and a plain string typed str, then the argv of a minimal
# run and the options it resolves to.
PARSER_PIN = {
    "region": ({
        "--scheme": ("scheme", str, _SCHEMES, True),
        **{f: (d, t, None, False) for f, (d, t) in _LINK.items()},
        "--ps": ("ps", float, None, False), "--pi": ("pi", float, None, False),
        "--cap": ("cap", float, None, False), "--points": ("points", int, None, False),
        "--samples": ("samples", int, None, False), "--seed": ("seed", int, None, False),
        "--out": ("out", str, None, False),
        "--format": ("format", str, ("csv", "json"), False),
        "--config": ("config", str, None, False),
    }, ["--scheme", "int-adc"], dict(
        scheme="int-adc", **_LINK_VALUES, ps=0.0, pi=0.0, cap=None, points=512,
        samples=100_000, seed=0, out=None, format="csv")),
    "capacity": ({
        "--hp": ("hp", float, None, False), "--sa2": ("sa2", float, None, False),
        "--srec2": ("srec2", float, None, False), "--lower": ("lower", bool, None, False),
        "--upper": ("upper", bool, None, False), "--samples": ("samples", int, None, False),
        "--seed": ("seed", int, None, False),
        "--out": ("out", str, None, False), "--config": ("config", str, None, False),
    }, [], dict(hp=100.0, sa2=0.0, srec2=0.0, lower=False, upper=False, samples=100_000,
                seed=0, out="capacity.json")),
    "solve": ({
        "--problem": ("problem", str, ("p0", "p1", "p2"), True),
        **{f: (d, t, None, False) for f, (d, t) in _LINK.items()},
        "--q": ("q", float, None, False), "--qreq": ("qreq", float, None, False),
        "--ps": ("ps", float, None, False), "--pi": ("pi", float, None, False),
        "--ser-target": ("ser_target", float, None, False),
        "--out": ("out", str, None, False), "--config": ("config", str, None, False),
    }, ["--problem", "p2"], dict(problem="p2", **_LINK_VALUES, q=0.0, qreq=0.0, ps=0.0,
                                 pi=0.0, ser_target=1e-5, out="solve.json")),
    "link": ({
        "--distance": ("distance", float, None, False),
        "--tx-power": ("tx_power", float, None, False),
        "--antenna-noise-dbm": ("antenna_noise_dbm", float, None, False),
        "--conv-noise-dbm": ("conv_noise_dbm", float, None, False),
        "--rec-noise-dbm": ("rec_noise_dbm", float, None, False),
        "--zeta": ("zeta", float, None, False),
        "--out": ("out", str, None, False), "--config": ("config", str, None, False),
    }, [], dict(distance=1.0, tx_power=1.0, antenna_noise_dbm=-104.0, conv_noise_dbm=-70.0,
                rec_noise_dbm=-50.0, zeta=1.0, out="link.json")),
    "simulate": ({
        "--kind": ("kind", str, ("qam", "pem", "rectifier"), True),
        **{f: (d, t, None, False) for f, (d, t) in _LINK.items()},
        "--m": ("m", int, None, False), "--rho": ("rho", float, None, False),
        "--symbols": ("symbols", int, None, False), "--seed": ("seed", int, None, False),
        "--oversampling": ("oversampling", int, None, False),
        "--carrier": ("carrier", float, None, False),
        "--bandwidth": ("bandwidth", float, None, False),
        "--noise-scale": ("noise_scale", float, None, False),
        "--diode-gamma": ("diode_gamma", float, None, False),
        "--truncation-order": ("truncation_order", int, None, False),
        "--constant-envelope": ("constant_envelope", bool, None, False),
        "--out": ("out", str, None, False), "--config": ("config", str, None, False),
    }, ["--kind", "rectifier"], dict(
        kind="rectifier", **_LINK_VALUES, m=4, rho=0.0, symbols=100_000, seed=0,
        oversampling=8, carrier=16.0, bandwidth=1.0, noise_scale=1.0, diode_gamma=40.0,
        truncation_order=2, constant_envelope=False, out="simulate.json")),
    "figure": ({
        "figure_id": ("figure_id", str, None, True),
        "--points": ("points", int, None, False),
        "--out-dir": ("out_dir", str, None, False), "--config": ("config", str, None, False),
    }, ["fig5"], dict(figure_id="fig5", points=512, out_dir=".")),
}


def _arguments(sub: argparse.ArgumentParser) -> dict:
    found = {}
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag, = action.option_strings or [action.dest]
        kind = bool if isinstance(action, argparse._StoreTrueAction) else action.type or str
        choices = tuple(action.choices) if action.choices is not None else None
        found[flag] = (action.dest, kind, choices, action.required)
    return found


class TestParserPin:
    SUBS = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices

    def test_commands(self):
        assert list(self.SUBS) == list(PARSER_PIN)

    @pytest.mark.parametrize("command", list(PARSER_PIN))
    def test_arguments(self, command):
        assert _arguments(self.SUBS[command]) == PARSER_PIN[command][0]

    @pytest.mark.parametrize("command", list(PARSER_PIN))
    def test_resolved_defaults(self, command):
        _, argv, values = PARSER_PIN[command]
        ns = _merge_options(build_parser().parse_args([command, *argv]))
        typed = {k: (type(v), v) for k, v in vars(ns).items()}
        assert typed == {k: (type(v), v) for k, v in dict(values, command=command).items()}
