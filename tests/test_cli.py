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

import tgmat.cli as cli
import tgmat.tensor as tz
from conftest import (
    ENTRIES_42,
    ENTRIES_44,
    ENTRIES_HUGE_DIAGONAL,
    ENTRIES_ORDER_22,
    ENTRIES_STYPE_CANCEL,
    ENTRIES_SUBNORMAL_CHAIN,
    count_row_passes,
    near_singular_cycle,
)
from tgmat.cli import main
from tgmat.dominance import certify_h_tensor
from tgmat.errors import TgmatError
from tgmat.oracle import h_eigen_newton

SRC = Path(__file__).resolve().parents[1] / "src"
# the message for the finite, Hermitian, unit-trace matrices with off-diagonal entries of 1e308 below
NOT_PSD = "rho is not positive semidefinite: it has the eigenvalue -1e+308"


def module_env():
    """The environment for running ``python -m tgmat.cli`` on this checkout's source."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


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

    @pytest.mark.parametrize("command", ["gen-matrix", "certify"])
    def test_row_sum_beyond_float_range_is_data_error(self, capsys, tmp_path, command):
        p = write_tensor(tmp_path / "t.json", 3, 2, {(1, 1, 1): 1.0, (1, 1, 2): 1e308, (1, 2, 2): 1e308, (2, 2, 2): 1.0})
        code, out, err = run(capsys, command, "--input", p)  # a RuntimeWarning fails the test
        assert code == 65 and out == ""
        assert err.startswith("tgmat: data error: ") and "float range" in err

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
    ("certify", {"order": 2, "dim": 2, "entries": [{"idx": "12", "val": 1.0}]}),
    ("certify", {"order": 2, "dim": 2, "entries": [{"idx": [1.9, 2], "val": 1.0}]}),
    ("certify", {"order": 2, "dim": 2, "entries": [{"idx": [True, 2], "val": 1.0}]}),
    ("certify", {"order": 2, "dim": 2, "entries": [{"idx": {"1": 0, "2": 0}, "val": 1.0}]}),
    ("certify", {"order": 2.7, "dim": 2, "entries": [DIAG_21]}),
    ("certify", {"order": 2.0, "dim": 2, "entries": [DIAG_21]}),
    ("certify", {"order": 2, "dim": True, "entries": [DIAG_21]}),
    ("spin-certify", {"m": 2.5, "rho_re": RHO_3}),
    ("certify", {"order": 2, "dim": 2, "entries": [DIAG_21, {"idx": [1, 2], "val": 10 ** 400}]}),
    ("certify", {"order": 2, "dim": 2, "entries": [DIAG_21, {"idx": [1, 2], "val": [1.7e308, 1.7e308]}]}),
    ("certify", {"order": 100, "dim": 1, "entries": []}),
    ("spin-certify", {"m": 2, "components": [{"w": "1", "theta": True, "phi": "0"}]}),
    ("spin-certify", {"m": 2, "rho_re": [["0.5", 0, 0], [0, 0, 0], [0, 0, "0.5"]]}),
    ("spin-certify", {"m": 2, "rho_re": RHO_3, "rho_im": False}),
    ("spin-certify", {"m": 2, "rho_re": RHO_3, "rho_im": [[False, 0, 0], [0, 0, 0], [0, 0, 0]]}),
    ("spin-certify", {"m": 2, "rho_re": [[0.5, 0, 0], [0, 0], [0, 0, 0.5]]}),
    ("spin-certify", {"m": 2, "components": [{"w": 10 ** 400, "theta": 0, "phi": 0}]}),
    ("spin-roundtrip", {"m": 1, "rho_re": [[10 ** 400, 0], [0, 0]]}),
    ("gen-matrix", {"order": 2, "dim": 2, "symmetrize": "false", "entries": [DIAG_21, {"idx": [1, 2], "val": 1.0}]}),
    ("gen-matrix", {"order": 2, "dim": 2, "symmetrize": 1, "entries": [DIAG_21, {"idx": [1, 2], "val": 1.0}]}),
], ids=["entries-number", "val-string", "val-nested", "val-null", "order-inf", "idx-inf",
        "rho_im-string", "rho_im-ragged", "rho_re-ragged", "m-inf", "idx-string", "idx-float", "idx-bool",
        "idx-object", "order-float", "order-integral-float", "dim-bool", "m-float", "val-huge-integer", "val-huge-modulus", "order-huge",
        "components-string-bool", "rho_re-string", "rho_im-false", "rho_im-false-entry", "rho_re-ragged-square",
        "w-huge-integer", "rho_re-huge-integer", "symmetrize-string", "symmetrize-integer"])
def test_malformed_json_is_data_error(capsys, tmp_path, command, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))  # writes inf as the JSON extension Infinity, which json.load reads
    code, out, err = run(capsys, command, "--input", str(p))
    assert code == 65 and out == ""
    assert err.count("\n") == 1 and err.startswith("tgmat: data error: ")


@pytest.mark.parametrize("command", ["bounds", "spin-certify"])
@pytest.mark.parametrize("content", [
    b'{"order": 2, "dim": 1, "entries": [{"idx": [1, 1], "val": "\xff"}]}',
    b"[" * 200_000 + b"]" * 200_000,
    b'{"order": 2, "dim": 1, "entries": [{"idx": [1, 1], "val": ' + b"9" * 5001 + b"}]}",
], ids=["not-utf8", "nested-200000", "integer-5001-digits"])
def test_unreadable_json_is_data_error(capsys, tmp_path, command, content):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    code, out, err = run(capsys, command, "--input", str(p))
    assert code == 65 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"tgmat: data error: {p}: invalid JSON")


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

    @pytest.mark.parametrize("dim,entries,verdict", [
        (2, {(1, 1): 1e-310, (1, 2): 1.0, (2, 1): 1.0, (2, 2): 1e-310}, "not_certified"),
        (2, {(1, 1): 1.0, (1, 2): 1e308, (2, 1): 1e308, (2, 2): 1e308}, "not_certified"),
        (1, {(1, 1): 1e-313}, "certified_H"),  # the H-matrix solve gives x = inf
    ], ids=["subnormal-diagonal", "products-overflow", "scaling-overflow"])
    def test_extreme_matrix_without_warning(self, capsys, tmp_path, dim, entries, verdict):
        p = write_tensor(tmp_path / "extreme.json", 2, dim, entries)
        code, out, err = run(capsys, "certify", "--input", p)  # a RuntimeWarning fails the test
        assert code == (0 if verdict == "certified_H" else 2) and err == ""
        assert out.startswith(f"verdict,{verdict}\n")

    def test_subnormal_gap_bounds_gamma_without_warning(self, capsys, tmp_path):
        # P_2 - Q_2 = -1e-320 is subnormal, so the gamma search's bound (d_2 - Q_2) / (P_2 - Q_2) overflows to -inf
        p = write_tensor(tmp_path / "gap.json", 2, 2, {(1, 1): 1e-313, (1, 2): 1e-320, (2, 2): 1.0})
        code, out, err = run(capsys, "certify", "--input", p)  # a RuntimeWarning fails the test
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == ["verdict,certified_H", "rule,WeaklyChainedDD", "scaling,none"]

    def test_residuals_of_a_diagonal_near_the_largest_float(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "huge.json", 2, 2, ENTRIES_HUGE_DIAGONAL)
        code, out, err = run(capsys, "certify", "--input", p)  # a RuntimeWarning fails the test
        assert code == 0 and err == ""
        assert out == ("verdict,certified_H\nrule,SDD\nscaling,1.0,1.0\n"
                       "row,residual\n1,1.000000e+308\n2,1.000000e+308\n")

    def test_degenerate_row_in_a_subnormal_weak_chain(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "chain.json", 8, 2, ENTRIES_SUBNORMAL_CHAIN)
        code, out, err = run(capsys, "certify", "--input", p)
        assert code == 0 and err == ""
        assert out == ("verdict,certified_H\nrule,WeaklyChainedDD\nscaling,none\n"
                       "note,rows [1] have |a_ii...i| <= s_ii; matrix rules skipped\n")

    def test_gamma_rule_prints_its_gamma(self, capsys, tmp_path):
        # not SDD (row 3: 2 < 8) nor DoublySDD (rows 2, 3: 10 < 16); GammaSDD with the searched gamma
        entries = {(1, 1): 5.0, (2, 1): 2.0, (2, 2): 5.0, (3, 1): 4.0, (3, 2): 4.0, (3, 3): 2.0}
        p = write_tensor(tmp_path / "gamma.json", 2, 3, entries)
        code, out, err = run(capsys, "certify", "--input", p)
        assert code == 0 and err == ""
        assert out == ("verdict,certified_H\nrule,GammaSDD\ngamma,0.208333\nscaling,0.2,0.27999999999999997,1.46\n"
                       "row,residual\n1,1.000000e+00\n2,1.000000e+00\n3,1.000000e+00\n")

    @pytest.mark.parametrize("order", [2, 3])
    def test_printed_scaling_is_the_verified_vector(self, capsys, tmp_path, order):
        # y_1 is 2.5e-09 at order 2 and 5e-05 at order 3: six decimals printed 0.000000 and 0.000050
        entries = {(1,) * order: 1e9, (1,) + (2,) * (order - 1): 1.0, (2,) + (1,) * (order - 1): 2e8, (2,) * order: 1.0}
        p = write_tensor(tmp_path / "skewed.json", order, 2, entries)
        code, out, err = run(capsys, "certify", "--input", p)
        assert code == 0 and err == ""
        line = next(line for line in out.splitlines() if line.startswith("scaling,"))
        printed = np.array([float(v) for v in line.split(",")[1:]])
        want = certify_h_tensor(tz.load_tensor(p)).scaling
        assert (printed > 0).all()
        assert printed.tobytes() == want.tobytes()

    @pytest.mark.parametrize("delta,rule", [(2e-12, "IrreducibleDD"), (3e-12, "GeneralizedH")])
    def test_near_singular_cycle_reaches_the_tail_rules(self, capsys, tmp_path, delta, rule):
        p = write_tensor(tmp_path / "cycle.json", 2, 3, near_singular_cycle(delta))
        code, out, err = run(capsys, "certify", "--input", p)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[:2] == ["verdict,certified_H", f"rule,{rule}"]
        assert (lines[2] == "scaling,none") == (rule == "IrreducibleDD")


class TestFileTensorsReadTheNonzeros:
    """certify and gen-matrix on a tensor file sum the loader's nonzeros and never take |A| of the dense array;
    they, bounds and region-grid never build it."""

    @pytest.fixture(autouse=True)
    def dense_rows_refused(self, monkeypatch):
        def refuse(t):
            raise AssertionError("|A| of the dense array was taken")
        monkeypatch.setattr(tz, "_off_abs", refuse)

    @pytest.mark.parametrize("command", ["gen-matrix", "certify"])
    @pytest.mark.parametrize("order,dim,entries", [
        (4, 2, ENTRIES_42), (4, 4, ENTRIES_44), (2, 2, ENTRIES_HUGE_DIAGONAL), (2, 3, near_singular_cycle(3e-12)),
    ], ids=["demo42", "demo44", "huge-diagonal", "generalized-h"])
    def test_one_row_pass_from_the_nonzeros(self, capsys, monkeypatch, tmp_path, command, order, dim, entries):
        p = write_tensor(tmp_path / "t.json", order, dim, entries)
        calls = count_row_passes(monkeypatch)
        code, out, err = run(capsys, command, "--input", p)
        assert code == 0 and err == "" and len(calls) == 1
        assert command == "gen-matrix" or "scaling,none" not in out  # the scaling was re-checked

    @pytest.mark.parametrize("argv", [["certify"], ["gen-matrix"], ["bounds"], ["region-grid", "--grid=-1:60:-3:3:20:10"]])
    def test_sparse_file_never_builds_the_dense_array(self, capsys, tmp_path, argv):
        # order 6, dim 16: n^m = 2^24 = MAX_ENTRIES, 128 MiB as a dense array, from 120 entries
        rng = np.random.default_rng(28)
        entries = {(i,) * 6: 50.0 for i in range(1, 17)}
        while len(entries) < 120:
            entries[tuple(rng.integers(1, 17, 6).tolist())] = float(rng.uniform(-1.0, 1.0))
        p = write_tensor(tmp_path / "sparse.json", 6, 16, entries)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--input", p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out and err == ""
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("command", ["gen-matrix", "certify"])
    def test_shuffled_file_prints_the_same_bytes(self, capsys, tmp_path, command):
        rng = np.random.default_rng(18)
        entries = {tuple(rng.integers(1, 6, 3).tolist()): float(rng.uniform(-1.0, 1.0)) for _ in range(60)}
        entries.update({(i, i, i): 20.0 for i in range(1, 6)})
        items = list(entries.items())
        shuffled = dict(items[k] for k in rng.permutation(len(items)))
        outs = [run(capsys, command, "--input", write_tensor(tmp_path / name, 3, 5, e))
                for name, e in (("listed.json", entries), ("shuffled.json", shuffled))]
        assert outs[0] == outs[1] and outs[0][0] == 0

    @pytest.mark.parametrize("command", ["gen-matrix", "certify"])
    def test_sparse_file_with_an_overflowing_row_is_a_data_error(self, capsys, tmp_path, command):
        entries = {(i,) * 6: 1.0 for i in range(1, 9)}
        entries.update({(3, 1, 2, 3, 4, 5): 1e308, (3, 8, 7, 6, 5, 4): 1e308})
        p = write_tensor(tmp_path / "sparse.json", 6, 8, entries)
        code, out, err = run(capsys, command, "--input", p)  # a RuntimeWarning fails the test
        assert code == 65 and out == ""
        assert err.splitlines() == ["tgmat: data error: a row or column sum of the tensor's moduli is beyond the float range"]


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

    @pytest.mark.parametrize("argv", [["bounds", "--kind", "gershgorin", "--kind", "stype"],
                                      ["region-grid", "--kind", "stype", "--grid=0:1:0:1:2:2"]])
    def test_stype_asked_for_on_dim2_without_a_subset_is_data_error(self, capsys, f42, argv):
        assert run(capsys, *argv, "--input", f42) == (65, "", "tgmat: data error: stype needs a subset\n")

    def test_default_kinds_for_dim1_skip_the_pair_kinds(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "t1.json", 3, 1, {(1, 1, 1): 2.5})
        code, out, err = run(capsys, "bounds", "--input", p)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["kind,gamma,subset,lower,upper", "gershgorin,,,2.500000,2.500000",
                                    "ostrowski,0.500000,,2.500000,2.500000", "ostrowski,0.040000,,2.500000,2.500000",
                                    "gammamix,0.500000,,2.500000,2.500000", "gammamix,0.040000,,2.500000,2.500000"]
        assert run(capsys, "bounds", "--input", p, "--kind", "cassini") == (
            65, "", "tgmat: data error: cassini region needs dimension >= 2\n")

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

    def test_kind_option_does_not_carry_over(self, capsys, f44):
        # the shared parser must start every call from the defaults: a plain call after
        # --kind cassini prints the full table, as a fresh process does
        run(capsys, "bounds", "--input", f44, "--kind", "cassini", "--gamma", "0.3")
        code, out, err = run(capsys, "bounds", "--input", f44)
        proc = subprocess.run([sys.executable, "-m", "tgmat.cli", "bounds", "--input", f44],
                              capture_output=True, text=True, env=module_env(), timeout=60)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
        assert len(out.splitlines()) == 9

    def test_one_real_bounds_call_for_the_table(self, capsys, monkeypatch, f44):
        calls = []
        real_bounds = cli.reg.real_bounds
        monkeypatch.setattr(cli.reg, "real_bounds", lambda regions: calls.append(regions) or real_bounds(regions))
        code, out, _ = run(capsys, "bounds", "--input", f44, "--subset", "2,1", "--kind", "stype", "--kind", "cassini")
        assert code == 0 and len(calls) == 1 and len(calls[0]) == 2
        assert out.splitlines()[1].startswith("stype,,2+1,")

    def test_stype_row_holds_the_newton_eigenvalues(self, capsys, tmp_path):
        # the split sums of this tensor cancel when s_ii is subtracted from a row sum
        p = write_tensor(tmp_path / "cancel.json", 3, 3, ENTRIES_STYPE_CANCEL)
        code, out, _ = run(capsys, "bounds", "--input", p, "--kind", "stype", "--subset", "1,3")
        assert code == 0
        lo, hi = (float(v) for v in out.splitlines()[1].split(",")[3:])
        values = [e.value for e in h_eigen_newton(tz.load_tensor(p), starts=200, seed=1)]
        assert values and all(lo <= v <= hi for v in values)

    def test_overflowing_pair_products(self, capsys, tmp_path):
        # P_1 P_2 = 1e320 passes the largest float: those rows widen to the whole
        # axis, with no warning (tier-1 turns a RuntimeWarning into an error)
        p = write_tensor(tmp_path / "big.json", 2, 2, {(1, 1): 1.0, (1, 2): 1e160, (2, 1): 1e160, (2, 2): 1.0})
        code, out, err = run(capsys, "bounds", "--input", p, "--subset", "1")
        rows = out.splitlines()[1:]
        assert code == 0 and err == "" and len(rows) == 8
        for row in rows:
            lo, hi = (float(v) for v in row.split(",")[3:])
            assert lo <= 1.0 - 1e160 and hi >= 1.0 + 1e160, row
        assert "cassini,,,-inf,inf" in rows and "ssingleton,,,-inf,inf" in rows
        for kind in ("cassini", "ssingleton", "stype", "gershgorin"):
            code, out, err = run(capsys, "region-grid", "--input", p, "--kind", kind, "--subset", "2",
                                 "--grid=-2e160:2e160:-1e160:1e160:5:3")
            assert code == 0 and err == "" and len(out.splitlines()) == 16


class TestOutputFile:
    """``--output`` rewrites a file in place and cuts it to the length written."""

    def test_longer_file_holds_exactly_the_new_bytes(self, capsys, tmp_path, f44):
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"x" * 10_000)
        _, want, _ = run(capsys, "bounds", "--input", f44)
        code, out, _ = run(capsys, "bounds", "--input", f44, "--output", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text() == want

    def test_shorter_file_is_extended(self, capsys, tmp_path, f44):
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"x" * 10)
        _, want, _ = run(capsys, "gen-matrix", "--input", f44)
        assert run(capsys, "gen-matrix", "--input", f44, "--output", str(dest))[0] == 0
        assert dest.read_text() == want

    def test_device_is_not_truncated(self, capsys, f44):
        code, out, err = run(capsys, "bounds", "--input", f44, "--output", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_missing_directory_is_data_error(self, capsys, tmp_path, f44):
        code, out, err = run(capsys, "bounds", "--input", f44, "--output", str(tmp_path / "nowhere" / "out.csv"))
        assert code == 65 and out == ""
        assert err.count("\n") == 1 and err.startswith("tgmat: data error: ")

    def test_failed_line_leaves_no_old_tail(self, tmp_path):
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"x" * 10_000)

        def lines():
            yield "first"
            raise TgmatError("no second line")

        with pytest.raises(TgmatError):
            cli._emit(lines(), str(dest))
        assert dest.read_text() == "first\n"


class TestOracle:
    def test_exact_path_dim2(self, capsys, f42):
        code, out, _ = run(capsys, "oracle", "--input", f42)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,residual"
        vals = [float(line.split(",")[0]) for line in lines[1:]]
        assert vals == pytest.approx([0.4725, 12.7389], abs=1e-3)

    def test_exact_path_with_entries_near_the_largest_float(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "huge.json", 2, 2, {(1, 1): 1.0, (1, 2): 1e308, (2, 1): 1e308, (2, 2): 1e308})
        code, out, err = run(capsys, "oracle", "--input", p)  # a RuntimeWarning fails the test
        assert code == 0 and err == ""
        vals = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        # the eigenvalues of [[1, c], [c, c]] tend to c (1 -+ sqrt 5) / 2 for large c
        assert vals == pytest.approx([-0.6180339887498949e308, 1.618033988749895e308], rel=1e-12)

    def test_eigenvalue_beyond_the_float_range_is_a_data_error(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "huge.json", 2, 2, {(i, j): 1e308 for i in (1, 2) for j in (1, 2)})
        code, out, err = run(capsys, "oracle", "--input", p)
        assert (code, out) == (65, "")
        assert err.splitlines() == ["tgmat: data error: an H-eigenvalue is beyond the float range"]

    def test_exact_path_with_subnormal_entries(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "tiny.json", 2, 2, {(1, 1): 1e-309, (2, 2): 1e-309})
        code, out, err = run(capsys, "oracle", "--input", p)
        assert (code, out, err) == (0, "lambda,residual\n0.000000,0.000000e+00\n", "")

    def test_exact_path_at_order_22(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "order22.json", 22, 2, ENTRIES_ORDER_22)
        code, out, err = run(capsys, "oracle", "--input", p)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "lambda,residual"
        assert [line.split(",")[0] for line in lines[1:]] == ["1.887628", "3.112372"]

    @pytest.mark.parametrize("order, dim, entries, code, out, err", [
        # the companion matrix's leading coefficient is subnormal, so its other ratios overflow
        (4, 2, {(1, 1, 2, 1): 5e-321, (2, 2, 1, 1): 3, (2, 2, 2, 2): 1e-320}, 65, "",
         "tgmat: data error: the companion matrix is beyond the float range\n"),
        # the polish of the real roots near 1e153 overflows; the call ends in one data error, with no warning
        (4, 2, {(1, 1, 2, 2): 3, (1, 2, 1, 1): 1e155, (2, 1, 1, 2): -1e308, (2, 2, 2, 2): 1e308}, 65, "",
         "tgmat: data error: an H-eigenvalue is beyond the float range\n"),
        # the Newton Jacobian's tensor sums a_111 three times: beyond the float range
        (3, 3, {(1, 1, 1): 1e308, (2, 2, 2): 1e308, (3, 3, 3): 1e308, (1, 2, 3): 1e308}, 65, "",
         "tgmat: data error: the Newton Jacobian's tensor is beyond the float range\n"),
        # singular Newton Jacobians at subnormal entries, found by the slogdet fallback
        (2, 3, {(1, 1): -5e-324, (2, 2): 0, (3, 3): -5e-324}, 0, "lambda,residual\n-0.000000,0.000000e+00\n", ""),
    ])
    def test_extreme_entries_without_warning(self, capsys, tmp_path, order, dim, entries, code, out, err):
        p = write_tensor(tmp_path / "t.json", order, dim, entries)
        assert run(capsys, "oracle", "--input", p) == (code, out, err)  # a RuntimeWarning fails the test

    def test_newton_path(self, capsys, tmp_path):
        p = write_tensor(tmp_path / "diag3.json", 3, 3,
                         {(1, 1, 1): 2.0, (2, 2, 2): 5.0, (3, 3, 3): 3.0})
        code, out, _ = run(capsys, "oracle", "--input", p, "--starts", "150", "--seed", "1")
        assert code == 0
        vals = {round(float(line.split(",")[0]), 4) for line in out.strip().splitlines()[1:]}
        assert vals <= {2.0, 3.0, 5.0} and vals

    @pytest.mark.parametrize("option,value", [("--starts", "-5"), ("--seed", "-1")])
    def test_negative_starts_is_usage_error(self, capsys, f44, option, value):
        code, out, err = run(capsys, "oracle", "--input", f44, option, value)
        assert code == 64
        assert out == ""
        assert err.strip().splitlines() == [f"tgmat: error: {option} must be >= 0"]

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

    @pytest.mark.parametrize("counts", ["2.7:2", "2:2.5", "1e3:2.000001"])
    def test_non_integral_grid_size_is_usage_error(self, capsys, f42, counts):
        code, out, err = run(capsys, "region-grid", "--input", f42, f"--grid=0:1:0:1:{counts}")
        assert code == 64 and out == ""
        assert err == "tgmat: error: grid must be re0:re1:im0:im1:nx:ny\n"

    def test_integral_float_grid_size_is_accepted(self, capsys, f42):
        code, out, err = run(capsys, "region-grid", "--input", f42, "--grid=0:1:0:1:1e1:2.0")
        assert code == 0 and err == ""
        assert out.count("\n") == 1 + 10 * 2


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

    @pytest.mark.parametrize("command", ["spin-certify", "spin-roundtrip"])
    @pytest.mark.parametrize("text, message", [
        ('{"m": 1, "rho_re": [[NaN, 0], [0, NaN]]}', "rho has an entry that is not finite"),
        ('{"m": 2, "rho_re": [[NaN, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]}', "rho has an entry that is not finite"),
        ('{"m": 2, "components": [{"w": NaN, "theta": 0.1, "phi": 0.2}]}', "weights must be finite"),
        ('{"m": 1, "rho_re": [[0.5, 1e308], [-1e308, 0.5]]}', "rho is not Hermitian to 1e-12"),
        ('{"m": 1, "rho_re": [[1e308, 0], [0, 1e308]]}', "trace is inf+0j, expected 1"),
        ('{"m": 2, "components": [{"w": 1e308, "theta": 0.1, "phi": 0.2}, {"w": 1e308, "theta": 0.3, "phi": 0.2}]}',
         "weights sum to inf, expected 1"),
        # finite Hermitian matrices of trace 1 whose coefficient tensor or reconstruction would
        # overflow: they are not positive semidefinite, so they are not states
        ('{"m": 2, "rho_re": [[0.5, 1e308, 0], [1e308, 0.5, 0], [0, 0, 0]]}', NOT_PSD),
        ('{"m": 4, "rho_re": [[0.5, 0, 0, 0, 1e308], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], '
         '[1e308, 0, 0, 0, 0.5]]}', NOT_PSD),
        ('{"m": 2, "rho_re": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]], "rho_im": [[0, 1e308, 0], [-1e308, 0, 0], [0, 0, 0]]}',
         NOT_PSD),
    ])
    def test_non_finite_or_overflowing_state_is_data_error(self, capsys, tmp_path, text, message, command):
        p = tmp_path / "state.json"
        p.write_text(text)
        # a RuntimeWarning fails the test
        assert run(capsys, command, "--input", str(p)) == (65, "", f"tgmat: data error: {message}\n")

    @pytest.mark.parametrize("m", [4, 6, 8])
    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_hermitian_unit_trace_matrix_that_is_not_psd_is_data_error(self, capsys, tmp_path, m, scale):
        rng = np.random.default_rng(m)
        X = rng.standard_normal((m + 1, m + 1)) + 1j * rng.standard_normal((m + 1, m + 1))
        rho = scale * (X + X.conj().T)
        np.fill_diagonal(rho, 1.0 / (m + 1))
        p = tmp_path / "state.json"
        p.write_text(json.dumps({"m": m, "rho_re": rho.real.tolist(), "rho_im": rho.imag.tolist()}))
        for command in ("spin-certify", "spin-roundtrip"):
            code, out, err = run(capsys, command, "--input", str(p))
            assert (code, out) == (65, "") and err.count("\n") == 1
            assert err.startswith("tgmat: data error: rho is not positive semidefinite: it has the eigenvalue -")

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

    def test_parser_built_once(self, capsys, monkeypatch, f42, f44):
        builds = []
        add_subparsers = cli._Parser.add_subparsers
        monkeypatch.setattr(cli._Parser, "add_subparsers", lambda self, **kw: builds.append(self) or add_subparsers(self, **kw))
        cli._build_parser.cache_clear()
        for _ in range(3):
            for argv in (["gen-matrix", "--input", f42], ["certify", "--input", f44], ["frobnicate"],
                         ["bounds", "--input", f44, "--kind", "cassini"], ["oracle", "--input", f42, "--starts", "-1"],
                         ["region-grid", "--input", f42, "--grid=0:1:0:1:2:2"]):
                run(capsys, *argv)
        assert len(builds) == 1

    @pytest.mark.parametrize("argv", [["bounds"], ["region-grid", "--kind", "stype", "--grid=0:1:0:1:2:2"]])
    def test_non_integer_subset_is_usage_error(self, capsys, f44, argv):
        code, out, err = run(capsys, *argv, "--input", f44, "--subset", "1,x")
        assert code == 64 and out == "" and "bad subset '1,x'" in err

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
        proc = subprocess.run([sys.executable, "-m", "tgmat.cli", "certify", "--input", path],
                              capture_output=True, text=True, env=module_env(), timeout=60)
        code, out, _ = run(capsys, "certify", "--input", path)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert code == (0 if entries else 2)
