"""End-to-end command line behaviour, formats, and exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tgmat.tensor as tz
from conftest import ENTRIES_42, ENTRIES_44, count_row_passes
from tgmat.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def write_tensor(path, order, dim, entries):
    obj = {"order": order, "dim": dim,
           "entries": [{"idx": list(k), "val": v} for k, v in entries.items()]}
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def f42(tmp_path):
    return write_tensor(tmp_path / "t42.json", 4, 2, ENTRIES_42)


@pytest.fixture
def f44(tmp_path):
    return write_tensor(tmp_path / "t44.json", 4, 4, ENTRIES_44)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenMatrix:
    def test_demo_42(self, capsys, f42):
        code, out, _ = run(capsys, "gen-matrix", "--input", f42)
        assert code == 0
        assert "3.000000,3.000000" in out
        assert "3.000000,4.000000" in out
        assert "i,diag_abs,s_ii,r_i,P_i,Q_i" in out
        assert "1,7.000000,4.000000,7.000000,3.000000,3.000000" in out

    def test_demo_44(self, capsys, f44):
        code, out, _ = run(capsys, "gen-matrix", "--input", f44)
        assert code == 0
        assert "7.333333,2.666667,3.000000,2.666667" in out

    def test_malformed_entry_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"order": 3, "dim": 2,
                                 "entries": [{"idx": [1, 2], "val": 1.0}]}))
        code, _, err = run(capsys, "gen-matrix", "--input", str(p))
        assert code == 65
        assert "#0" in err

    def test_oversized_tensor_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"order": 30, "dim": 10, "entries": []}))
        code, out, err = run(capsys, "certify", "--input", str(p))
        assert code == 65 and out == ""
        assert err.startswith("tgmat: data error:") and err.count("\n") == 1

    def test_boolean_value_is_data_error(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "bool.json", 2, 2, {(1, 1): True, (2, 2): True})
        code, _, err = run(capsys, "gen-matrix", "--input", p)
        assert code == 65 and "boolean" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "gen-matrix", "--input", "/nonexistent.json")
        assert code == 65

    def test_invalid_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, _ = run(capsys, "gen-matrix", "--input", str(p))
        assert code == 65


DIAG_21 = {"idx": [1, 1], "val": 1.0}
RHO_3 = [[0.5, 0, 0], [0, 0, 0], [0, 0, 0.5]]


@pytest.mark.parametrize("command,obj", [
    ("certify", {"order": 2, "dim": 2, "entries": 5}),
    ("certify", {"order": 2, "dim": 2, "entries": [DIAG_21, {"idx": [1, 2], "val": [1, "a"]}]}),
    ("certify", {"order": 2, "dim": 2, "entries": [DIAG_21, {"idx": [1, 2], "val": [[1], 2]}]}),
    ("certify", {"order": 2, "dim": 2, "entries": [DIAG_21, {"idx": [1, 2], "val": [1, None]}]}),
    ("certify", {"order": float("inf"), "dim": 2, "entries": []}),
    ("certify", {"order": 2, "dim": 2, "entries": [{"idx": [float("inf"), 1], "val": 1.0}]}),
    ("spin-certify", {"m": 2, "rho_re": RHO_3, "rho_im": "x"}),
    ("spin-certify", {"m": 1, "rho_re": [[0.5, 0], [0, 0.5]], "rho_im": [[0, 0], [0]]}),
    ("spin-certify", {"m": 1, "rho_re": [[0.5, 0], [0]]}),
    ("spin-certify", {"m": float("inf"), "rho_re": RHO_3}),
], ids=["entries-number", "val-string", "val-nested", "val-null", "order-inf", "idx-inf",
        "rho_im-string", "rho_im-ragged", "rho_re-ragged", "m-inf"])
def test_malformed_json_is_data_error(capsys, tmp_path, command, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))  # writes inf as the JSON extension Infinity, which json.load reads
    code, out, err = run(capsys, command, "--input", str(p))
    assert code == 65 and out == ""
    assert err.count("\n") == 1 and err.startswith("tgmat: data error: ")


class TestCertify:
    def test_demo_42_certified(self, capsys, f42):
        code, out, _ = run(capsys, "certify", "--input", f42)
        assert code == 0
        assert "verdict,certified_H" in out
        assert "rule,DoublySDD" in out
        assert "scaling," in out

    def test_unit_tensor_sdd(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "unit.json", 4, 2, {(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0})
        code, out, _ = run(capsys, "certify", "--input", p)
        assert code == 0
        assert "rule,SDD" in out

    def test_zero_tensor_inconclusive(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "zero.json", 3, 2, {})
        code, out, _ = run(capsys, "certify", "--input", p)
        assert code == 2
        assert "verdict,not_certified" in out


class TestBounds:
    def test_demo_42_cassini(self, capsys, f42):
        code, out, _ = run(capsys, "bounds", "--input", f42, "--kind", "cassini")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,gamma,subset,lower,upper"
        kind, gamma, subset, lo, hi = lines[1].split(",")
        assert kind == "cassini" and gamma == "" and subset == ""
        assert float(lo) == pytest.approx(0.458619, abs=1e-4)
        assert float(hi) == pytest.approx(12.854102, abs=1e-4)

    def test_default_kinds_for_dim2_skip_stype(self, capsys, f42):
        code, out, _ = run(capsys, "bounds", "--input", f42)
        assert code == 0
        assert "stype" not in out
        for kind in ("gershgorin", "cassini", "ostrowski", "gammamix", "ssingleton"):
            assert kind in out

    def test_demo_44_table(self, capsys, f44):
        code, out, _ = run(capsys, "bounds", "--input", f44)
        assert code == 0
        rows = {}
        for line in out.strip().splitlines()[1:]:
            kind, gamma, subset, lo, hi = line.split(",")
            rows[(kind, gamma, subset)] = (float(lo), float(hi))
        assert rows[("gershgorin", "", "")] == pytest.approx((-1.0, 21.0), abs=1e-4)
        assert rows[("cassini", "", "")] == pytest.approx((0.0936, 18.1382), abs=1e-3)
        assert rows[("ostrowski", "0.500000", "")] == pytest.approx((0.3849, 19.3333), abs=1e-3)
        assert rows[("gammamix", "0.040000", "")] == pytest.approx((-0.28, 18.12), abs=1e-3)
        assert ("stype", "", "1+2") in rows
        assert rows[("ssingleton", "", "")] == pytest.approx((-0.4741, 19.8130), abs=1e-3)

    def test_unit_tensor_gershgorin(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "unit3.json", 4, 3,
                         {(i, i, i, i): 1.0 for i in (1, 2, 3)})
        code, out, _ = run(capsys, "bounds", "--input", p, "--kind", "gershgorin")
        assert code == 0
        assert "gershgorin,,,1.000000,1.000000" in out

    def test_statistics_built_once(self, capsys, monkeypatch, f44):
        # every region of the table reads the record kept on the tensor
        calls = count_row_passes(monkeypatch)
        code, out, _ = run(capsys, "bounds", "--input", f44)
        assert code == 0 and len(out.splitlines()) == 9
        assert len(calls) == 1

    def test_deterministic_output(self, capsys, f44):
        _, out1, _ = run(capsys, "bounds", "--input", f44)
        _, out2, _ = run(capsys, "bounds", "--input", f44)
        assert out1 == out2


class TestOracle:
    def test_exact_path_dim2(self, capsys, f42):
        code, out, _ = run(capsys, "oracle", "--input", f42)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,residual"
        vals = [float(line.split(",")[0]) for line in lines[1:]]
        assert vals == pytest.approx([0.4725, 12.7389], abs=1e-3)

    def test_newton_path(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "diag3.json", 3, 3,
                         {(1, 1, 1): 2.0, (2, 2, 2): 5.0, (3, 3, 3): 3.0})
        code, out, _ = run(capsys, "oracle", "--input", p, "--starts", "150", "--seed", "1")
        assert code == 0
        vals = {round(float(line.split(",")[0]), 4) for line in out.strip().splitlines()[1:]}
        assert vals <= {2.0, 3.0, 5.0} and vals

    def test_negative_starts_is_usage_error(self, capsys, f44):
        code, out, err = run(capsys, "oracle", "--input", f44, "--starts", "-5")
        assert code == 64
        assert out == ""
        assert err.strip().splitlines() == ["tgmat: error: --starts must be >= 0"]

    def test_zero_starts_prints_the_header(self, capsys, f44):
        code, out, _ = run(capsys, "oracle", "--input", f44, "--starts", "0")
        assert code == 0
        assert out == "lambda,residual\n"


class TestRegionGrid:
    def test_grid_output(self, capsys, f42):
        code, out, _ = run(capsys, "region-grid", "--input", f42, "--kind", "cassini",
                           "--grid=-1:14:-3:3:4:3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im,member"
        assert len(lines) == 1 + 4 * 3
        assert all(line.split(",")[2] in ("0", "1") for line in lines[1:])

    def test_signed_zero_axes(self, capsys, f42):
        # -0.0 == 0.0, but the two axis values print apart
        code, out, _ = run(capsys, "region-grid", "--input", f42, "--kind", "gershgorin",
                           "--grid=0:-0:0:-0:2:2")
        assert code == 0
        coords = [tuple(line.split(",")[:2]) for line in out.strip().splitlines()[1:]]
        assert coords == [("0", "0"), ("0", "-0"), ("-0", "0"), ("-0", "-0")]

    def test_nx_one_is_usage_error(self, capsys, f42):
        code, _, err = run(capsys, "region-grid", "--input", f42, "--kind", "gershgorin",
                           "--grid", "0:1:0:1:1:5")
        assert code == 64

    def test_malformed_grid(self, capsys, f42):
        code, _, _ = run(capsys, "region-grid", "--input", f42, "--kind", "gershgorin",
                         "--grid", "0:1:0:1")
        assert code == 64

    @pytest.mark.parametrize("grid", ["0:1:0:1:4000000:4000000", f"0:1:0:1:2:{tz.MAX_ENTRIES // 2 + 1}"])
    def test_oversized_grid_is_data_error(self, capsys, f42, grid):
        code, out, err = run(capsys, "region-grid", "--input", f42, f"--grid={grid}")
        assert code == 65 and out == ""
        assert err.count("\n") == 1 and err.startswith("tgmat: data error: ")

    def test_overflowing_grid_width_is_data_error(self, capsys, f42):
        code, out, err = run(capsys, "region-grid", "--input", f42, "--grid=-1e308:1e308:-1e308:1e308:2:2")
        assert code == 65 and out == ""
        assert err.count("\n") == 1 and err.startswith("tgmat: data error: ")

    @pytest.mark.parametrize("kind", ["cassini", "stype", "ssingleton"])
    def test_far_grid_has_no_members_and_no_warning(self, capsys, f44, kind):
        # the bracket products overflow; +inf still excludes, and silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "region-grid", "--input", f44, "--kind", kind, "--subset", "1,2",
                                 "--grid=1e-300:2e-300:-1e300:1e300:5:4")
        rows = out.splitlines()[1:]
        assert code == 0 and err == "" and len(rows) == 20
        assert all(row.endswith(",0") for row in rows)

    def test_grid_text_is_streamed(self, capsys, tmp_path, f44):
        # rows go to the file as they are formatted: the peak stays near the
        # 16-byte complex point and the 1-byte member of each grid point
        dest = tmp_path / "grid.csv"
        argv = ["region-grid", "--input", f44, "--kind", "cassini", "--output", str(dest)]
        run(capsys, *argv, "--grid=-20:20:-5:5:5:4")  # first-call allocations are not per point
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, *argv, "--grid=-20:20:-5:5:500:400")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out == ""
        assert dest.read_text().count("\n") == 1 + 500 * 400
        assert peak < 32 * 500 * 400

    def test_infinite_grid_size_is_usage_error(self, capsys, f42):
        code, out, err = run(capsys, "region-grid", "--input", f42, "--grid=0:1:0:1:inf:2")
        assert code == 64 and out == ""
        assert err == "tgmat: error: grid must be re0:re1:im0:im1:nx:ny\n"


class TestSpinCommands:
    def test_spin_certify_mixture(self, capsys, tmp_path):
        p = tmp_path / "mix.json"
        comps = [{"w": 1 / 6, "theta": th, "phi": ph} for th, ph in (
            (0.0, 0.0), (np.pi, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi),
            (np.pi / 2, np.pi / 2), (np.pi / 2, 3 * np.pi / 2))]
        p.write_text(json.dumps({"m": 2, "components": comps}))
        code, out, _ = run(capsys, "spin-certify", "--input", str(p))
        assert code in (0, 2)
        assert "verdict," in out
        if code == 2:
            assert "NO CONCLUSION" in out

    def test_spin_certify_density(self, capsys, tmp_path):
        p = tmp_path / "mixed.json"
        p.write_text(json.dumps({"m": 2, "rho_re": (np.eye(3) / 3).tolist()}))
        code, out, _ = run(capsys, "spin-certify", "--input", str(p))
        assert code == 0
        assert "verdict,certified_classical" in out
        assert "rule,strongly_symmetric_H" in out

    def test_spin_certify_odd_order(self, capsys, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({"m": 3, "rho_re": (np.eye(4) / 4).tolist()}))
        code, out, _ = run(capsys, "spin-certify", "--input", str(p))
        assert code == 2
        assert "NO CONCLUSION" in out

    def test_spin_roundtrip(self, capsys, tmp_path):
        p = tmp_path / "state.json"
        rng = np.random.default_rng(3)
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = G @ G.conj().T
        rho /= np.trace(rho)
        p.write_text(json.dumps({"m": 3, "rho_re": rho.real.tolist(),
                                 "rho_im": rho.imag.tolist()}))
        code, out, _ = run(capsys, "spin-roundtrip", "--input", str(p))
        assert code == 0
        err = float(out.strip().splitlines()[-1].split(",")[1])
        assert err <= 1e-10


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "certify")[0] == 64

    def test_output_file(self, capsys, tmp_path, f42):
        dest = tmp_path / "out.csv"
        code, out, _ = run(capsys, "bounds", "--input", f42, "--kind", "gershgorin",
                           "--output", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().startswith("kind,gamma,subset,lower,upper")


class TestModuleEntryPoint:
    @pytest.mark.parametrize("entries", [ENTRIES_44, {}], ids=["certified", "not_certified"])
    def test_python_m_matches_main(self, capsys, tmp_path, entries):
        path = write_tensor(tmp_path / "t.json", 4, 4, entries)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "tgmat.cli", "certify", "--input", path],
                              capture_output=True, text=True, env=env, timeout=60)
        code, out, _ = run(capsys, "certify", "--input", path)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert code == (0 if entries else 2)
