import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdensity import diophantine, errors
from qdensity.errors import ValidationError
from qdensity.fixed import parse_real
from qdensity.harness import (
    DEFAULTS,
    OPTIONS,
    RUNNERS,
    Lcg64,
    RunConfig,
    _build_parser,
    _direction_matrix,
    _fmt,
    build_config,
    main,
    parse_config_file,
)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def run_cli(args, out_path=None):
    argv = list(args)
    if out_path:
        argv += ["--out", str(out_path)]
    return main(argv)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestLcg:
    def test_documented_constants(self):
        rng = Lcg64(0)
        assert rng.next_u64() == 1442695040888963407
        assert rng.next_u64() == (6364136223846793005 * 1442695040888963407 + 1442695040888963407) % 2**64

    def test_unit_samples_are_exact_dyadics(self):
        rng = Lcg64(7)
        x = rng.next_unit(256)
        assert x.err == 0
        assert 0 <= x.exact < 1

    def test_seed_changes_stream(self):
        a = [Lcg64(1).next_u64() for _ in range(3)]
        b = [Lcg64(2).next_u64() for _ in range(3)]
        assert a != b


class TestConfig:
    def test_file_parsing_and_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nprecision = 128\ndelta = 0.2\n")
        parsed = parse_config_file(str(cfg_file))
        assert parsed == {"precision": "128", "delta": "0.2"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_key = 1\n")
        with pytest.raises(Exception):
            parse_config_file(str(cfg_file))

    def test_low_precision_rejected(self):
        cfg = RunConfig({**DEFAULTS, "precision": "32"})
        with pytest.raises(Exception):
            cfg.precision

    def test_nu_range(self):
        cfg = RunConfig({**DEFAULTS, "nu": "0.7"})
        with pytest.raises(Exception):
            cfg.delta_for(100)

    def test_direction_matrix_first_column(self):
        for a, c in ((1, 0), (0, 1), (3, 2), (-5, 7)):
            M = _direction_matrix(a, c)
            assert [M.rows[i][0] for i in range(3)] == [a * a, a * c, c * c]

    def test_float_formatting(self):
        assert _fmt(0.1) == "0.10000000000000001"
        assert _fmt(7) == "7"

    def test_repeated_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("betas = 0\n# comment\nbetas = 2\n")
        with pytest.raises(ValidationError, match=r"run\.cfg:3: duplicate key 'betas'$"):
            parse_config_file(str(cfg_file))
        code, err = _run_quiet(["verify-lemmas", "--config", str(cfg_file)])
        assert code == 1 and err == f"error: {cfg_file}:3: duplicate key 'betas'\n"

    @pytest.mark.parametrize("precision", ["65537", "100000000000000000000"])
    def test_high_precision_rejected(self, precision):
        # refused before any literal is parsed, so a huge value allocates nothing
        code, err = _run_quiet(["count-orbit", "--xi", "sqrt:2 0 0", "--T", "4", "--delta", "0.1",
                                "--precision", precision])
        assert (code, err) == (1, "error: precision must be <= 65536\n")


class TestCliRuns:
    def test_solve_smoke(self, tmp_path, capsys):
        out = tmp_path / "solve.csv"
        assert run_cli(
            ["solve", "--xi", "sqrt:2 0/1 0/1", "--t", "0/1", "--T", "10000", "--delta", "0.2"],
            out,
        ) == 0
        rows = read_rows(out)
        assert len(rows) >= 1
        for r in rows:
            assert abs(float(r["residual"])) <= 32.0 * 0.2
            assert r["v1"] == "0"

    def test_solve_rational_shift_fails_validation(self):
        assert run_cli(["solve", "--xi", "1/2 1/3 1/4", "--T", "100", "--delta", "0.2"]) == 1

    def test_solve_rejects_large_delta(self):
        assert run_cli(["solve", "--xi", "sqrt:2 0/1 0/1", "--T", "100", "--delta", "0.7"]) == 1

    def test_solve_rejects_noncoprime_direction(self):
        assert (
            run_cli(
                ["solve", "--xi", "sqrt:2 0/1 0/1", "--T", "100", "--delta", "0.2",
                 "--a", "2", "--c", "4"]
            )
            == 1
        )

    def test_count_orbit_rational_flag(self, tmp_path):
        out = tmp_path / "co.csv"
        assert run_cli(
            ["count-orbit", "--xi", "1/4 0/1 0/1", "--v0", "0/1 0/1", "--T", "100", "--delta", "0.1"],
            out,
        ) == 0
        rows = read_rows(out)
        assert rows[0]["rational"] == "1"

    def test_count_orbit_rejects_zero_delta(self):
        assert run_cli(
            ["count-orbit", "--xi", "sqrt:2 0/1 0/1", "--v0", "0/1 0/1", "--T", "100", "--delta", "0"]
        ) == 1

    def test_tiny_range_rejected_everywhere(self):
        assert run_cli(
            ["count-orbit", "--xi", "sqrt:2 0/1 0/1", "--v0", "0/1 0/1", "--T", "2", "--delta", "0.1"]
        ) == 1
        assert run_cli(
            ["oracle-count", "--xi", "sqrt:2 0/1 0/1", "--t", "0/1", "--T", "3", "--delta", "0.1"]
        ) == 1

    def test_count_orbit_precision_exit_code(self):
        code = run_cli(
            ["count-orbit", "--xi", "sqrt:2 0/1 0/1", "--v0", "0/1 0/1",
             "--T", "1000000", "--nu", "0.2", "--precision", "64"]
        )
        assert code == 2

    def test_kappa_rational_literal(self):
        assert run_cli(["kappa", "--alpha", "dec:0.5"]) == 1

    def test_kappa_direction_from_xi(self, tmp_path, capsys):
        out = tmp_path / "kappa.csv"
        assert run_cli(
            ["kappa", "--xi", "sqrt:2 0/1 0/1", "--q-max", "10000"], out
        ) == 0
        err = capsys.readouterr().err
        assert "a=1" in err and "c=0" in err
        rows = read_rows(out)
        assert rows[0]["q"] == "1"
        assert float(rows[0]["kappa_hat"]) <= 1.1

    def test_kappa_honours_a_direction_override(self, tmp_path, capsys):
        out = tmp_path / "kappa.csv"
        assert run_cli(["kappa", "--xi", "sqrt:2 sqrt:3 1/2", "--a", "1", "--c", "1",
                        "--q-max", "1000"], out) == 0
        assert capsys.readouterr().err == "# a=1\n# c=1\n"
        # the direction (1, 1) combines alpha + beta + gamma
        alpha = parse_real("sqrt:2", 256) + parse_real("sqrt:3", 256) + parse_real("1/2", 256)
        est = diophantine.estimate_kappa(alpha, 1000)
        rows = read_rows(out)
        assert [(int(r["p"]), int(r["q"])) for r in rows] == [
            (cv.p, cv.q) for cv in est.convergents]
        assert {r["kappa_hat"] for r in rows} == {_fmt(est.kappa_hat)}

    def test_direction_override_naming_the_scan_pick_changes_nothing(self, capsys):
        head = ["kappa", "--xi", "sqrt:3 sqrt:2 1/3", "--q-max", "100000"]
        assert run_cli(head) == 0
        scanned = capsys.readouterr()
        # the scan picks a non-identity transform, so the override applies it too
        assert scanned.err == "# a=1\n# c=-3\n"
        assert run_cli(head + ["--a", "1", "--c=-3"]) == 0
        assert capsys.readouterr() == scanned

    def test_kappa_refuses_a_half_given_direction(self):
        for pair in (["--a", "1"], ["--c", "1"]):
            code, err = _run_quiet(["kappa", "--xi", "sqrt:2 sqrt:3 1/2", *pair, "--q-max", "1000"])
            assert (code, err) == (1, "error: supply both a and c or neither\n")

    @pytest.mark.parametrize("extra", [["--xi", "sqrt:2 sqrt:3 1/2"], ["--a", "1"], ["--c", "1"],
                                       ["--a", "1", "--c", "1"]])
    def test_kappa_refuses_alpha_with_a_shift_or_direction(self, extra):
        code, err = _run_quiet(["kappa", "--alpha", "sqrt:2", *extra, "--q-max", "1000"])
        assert (code, err) == (1, "error: alpha cannot be combined with xi, a or c\n")

    def test_exponent_grid_must_increase(self):
        assert run_cli(
            ["exponent", "--xi", "sqrt:2 0/1 0/1", "--t", "0/1", "--T", "40,20", "--mode", "oracle"]
        ) == 1

    def test_oracle_count_row(self, tmp_path):
        out = tmp_path / "oc.csv"
        assert run_cli(
            ["oracle-count", "--xi", "sqrt:2 0/1 0/1", "--t", "0/1", "--T", "10", "--delta", "0.25"],
            out,
        ) == 0
        rows = read_rows(out)
        assert int(rows[0]["count"]) >= 1
        assert rows[0]["min_residual"] == "0"

    def test_oracle_count_accepts_custom_form(self, tmp_path):
        out = tmp_path / "ocf.csv"
        # x^2 + y^2 - 3 z^2, shifted by an irrational in the last slot
        assert run_cli(
            ["oracle-count", "--form", "1 1 -3 0 0 0", "--xi", "0/1 0/1 sqrt:2",
             "--t", "0/1", "--T", "5", "--delta", "0.5"],
            out,
        ) == 0
        rows = read_rows(out)
        assert int(rows[0]["count"]) >= 1

    @pytest.mark.parametrize("form,code,message", [
        ("1 1 1 0 0 0", 1, "error: form must be indefinite ternary, signature (3, 0, 0)\n"),
        ("1 0 -2 0 0 0", 1, "error: gram matrix must be nondegenerate\n"),
        ("1 1 -1 0 0 0", 0, ""),
    ])
    def test_oracle_count_form_validation(self, form, code, message):
        argv = ["oracle-count", "--form", form, "--xi", "0/1 0/1 sqrt:2", "--t", "0/1",
                "--T", "5", "--delta", "0.5"]
        assert _run_quiet(argv) == (code, message)

    @pytest.mark.parametrize("gap", [["--delta", "0.1", "--nu", "5"], ["--nu", "0.1"]])
    def test_oracle_count_refuses_nu(self, gap):
        argv = ["oracle-count", "--xi", "0 0 0", "--T", "4", *gap]
        assert _run_quiet(argv) == (1, "error: oracle-count takes delta, not nu\n")

    def test_exponent_solver_mode_cli(self, tmp_path):
        out = tmp_path / "es.csv"
        assert run_cli(
            ["exponent", "--xi", "sqrt:2 0/1 0/1", "--t", "dec:3.141592653589793",
             "--T", "1000000,100000000", "--mode", "solver"],
            out,
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 2 and all(float(r["min_residual"]) > 0 for r in rows)

    def test_exponent_solver_mode_refuses_another_form(self, tmp_path, capsys):
        head = ["exponent", "--mode", "solver", "--xi", "sqrt:2 0 0", "--T", "100,10000"]
        cfg_file = tmp_path / "form.cfg"
        cfg_file.write_text("form = 1 1 -1 0 0 0\n")
        message = "error: solver mode takes the standard form only; use oracle mode for another form\n"
        for argv in (head + ["--form", "1 1 -1 0 0 0"], head + ["--config", str(cfg_file)]):
            assert _run_quiet(argv) == (1, message)
        capsys.readouterr()
        assert run_cli(head) == 0
        default = capsys.readouterr().out
        assert run_cli(head + ["--form", "0 1 0 0 -2 0"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("delta", ["1e-162", "1e-163", "1e-300"])
    def test_count_orbit_ratio_where_the_area_underflows(self, delta, capsys):
        # pi*T*delta^2 underflows to 0 below about 4e-163; the ratio n_phi / area
        # then rounds to 0 with no hit and to inf with one, as it does where the
        # area is subnormal
        for xi, n_phi, ratio in (("sqrt:2 0/1 0/1", "0", "0"), ("0 0 0", "5", "inf")):
            assert run_cli(["count-orbit", "--xi", xi, "--v0", "0 0", "--T", "5", "--delta", delta]) == 0
            row = capsys.readouterr().out.splitlines()[1].split(",")
            assert (row[2], row[3]) == (n_phi, ratio)

    def test_exponent_solver_mode_refuses_uncertified_digits(self, capsys):
        code = run_cli(["exponent", "--mode", "solver", "--precision", "64", "--xi", "sqrt:2 0/1 0/1",
                        "--t=1/3", "--T", "100,10000,1000000,100000000"])
        assert code == 2
        assert "precision exhausted:" in capsys.readouterr().err

    @pytest.mark.parametrize("scan_c", ["0", "-1"])
    def test_exponent_solver_mode_refuses_nonpositive_scan_c(self, scan_c):
        argv = ["exponent", "--xi", "sqrt:2 0/1 0/1", "--T", "4", "--scan-c", scan_c]
        assert _run_quiet(argv + ["--mode", "solver"]) == (1, "error: scan_c must be positive\n")
        # oracle mode does not read scan_c
        assert _run_quiet(argv + ["--mode", "oracle"])[0] == 0

    @pytest.mark.parametrize("scan_c", ["1e308", "1e15"])
    def test_exponent_zero_alpha_huge_scan_c_ends(self, scan_c, capsys):
        started = time.perf_counter()
        code = run_cli(["exponent", "--mode", "solver", "--xi", "0/1 1/2 0/1", "--t", "0/1",
                        "--T", "100", "--scan-c", scan_c])
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        assert out.splitlines() == ["T,min_residual,omega_hat,saturated", "100,0.25,0.30102999566398114,0"]

    def test_nu_beyond_certified_range_warns_not_rejects(self, tmp_path, capsys):
        out = tmp_path / "warn.csv"
        code = run_cli(
            ["solve", "--xi", "sqrt:2 0/1 0/1", "--T", "10000", "--nu", "0.4"], out
        )
        assert code == 0
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("head,nu", [
        (["solve", "--xi", "sqrt:2 sqrt:3 1/2", "--T", "10000", "--q-max", "1000"], "0.7"),
        (["count-orbit", "--xi", "sqrt:2 0 0", "--T", "1000"], "5"),
    ], ids=["solve", "count-orbit"])
    def test_delta_and_nu_together_exit_1(self, head, nu, tmp_path):
        cfg_file = tmp_path / "gap.cfg"
        cfg_file.write_text(f"nu = {nu}\n")
        for argv in (head + ["--delta", "0.1", "--nu", nu], head + ["--config", str(cfg_file), "--delta", "0.1"]):
            assert _run_quiet(argv) == (1, "error: supply delta or nu, not both\n")

    @pytest.mark.parametrize("head", [["solve", "--xi", "sqrt:2 0/1 0/1"], ["count-orbit", "--xi", "sqrt:2 0 0"]],
                             ids=["solve", "count-orbit"])
    def test_nu_derived_delta_of_a_half_or_more_exits_1(self, head):
        # T**(-nu) = 4**(-0.25) ~ 0.707: nu lies in (0, 1/2), the delta it gives does not
        assert _run_quiet(head + ["--T", "4", "--nu", "0.25"]) == (1, "error: delta must lie in (0, 1/2)\n")

    def test_soundness_tripwire_exit_code(self, tmp_path, monkeypatch):
        import qdensity.harness as hmod

        # sabotage the re-verification target so the tripwire must fire
        real = hmod.evaluate_shifted

        def lying(form, xi, v):
            return real(form, xi, v).add_int(10**6)

        monkeypatch.setattr(hmod, "evaluate_shifted", lying)
        code = run_cli(
            ["solve", "--xi", "sqrt:2 0/1 0/1", "--T", "10000", "--delta", "0.2"],
            tmp_path / "t.csv",
        )
        assert code == 3

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--scan-c" in capsys.readouterr().out

    def test_verify_lemmas_seed_changes_betas_not_outcome(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["verify-lemmas", "--T-list", "100", "--n-list", "1,3", "--betas", "4"]
        assert run_cli(base + ["--seed", "1"], out1) == 0
        assert run_cli(base + ["--seed", "2"], out2) == 0
        rows1, rows2 = read_rows(out1), read_rows(out2)
        assert [r["beta"] for r in rows1] != [r["beta"] for r in rows2]
        assert all(r["pass"] == "1" for r in rows1 + rows2)

    def test_verify_lemmas_bytes_match_per_term_weyl_sum(self, tmp_path, monkeypatch):
        from test_weyl_sums import weyl_sum_reference

        from qdensity import weyl_sums
        from qdensity.weyl_sums import _LANE_ELEMENTS

        # 2 alphas x 3 n x 3 betas = 18 lanes per T, so a lane block holds
        # _LANE_ELEMENTS // 18 steps; T on both sides of its first edge, and
        # past the 4096-step block of the sum-min kernel
        steps = _LANE_ELEMENTS // 18
        argv = ["verify-lemmas", "--T-list", f"{steps - 1},{steps + 1},4097", "--precision", "96",
                "--betas", "3"]
        lanes, per_term = tmp_path / "lanes.csv", tmp_path / "per_term.csv"
        assert run_cli(argv, lanes) == 0
        monkeypatch.setattr(weyl_sums, "weyl_sum_lanes",
                            lambda lanes, T: [weyl_sum_reference(n, a, b, T) for n, a, b in lanes])
        assert run_cli(argv, per_term) == 0
        assert lanes.read_bytes() == per_term.read_bytes()

    @pytest.mark.parametrize("flag, key", [("--n-list=", "n_list"), ("--T-list=,", "T_list")])
    def test_verify_lemmas_refuses_empty_lists(self, tmp_path, flag, key):
        out = tmp_path / "none.csv"
        code, err = _run_quiet(["verify-lemmas", flag, "--out", str(out)])
        assert (code, err) == (1, f"error: {key} must be nonempty\n")
        assert not out.exists()
        cfg_file = tmp_path / "empty.cfg"
        cfg_file.write_text(f"{key} =\n")
        code, err = _run_quiet(["verify-lemmas", "--config", str(cfg_file), "--out", str(out)])
        assert (code, err) == (1, f"error: {key} must be nonempty\n")
        assert not out.exists()

    @pytest.mark.parametrize("betas", ["0", "-3"])
    def test_verify_lemmas_refuses_nonpositive_betas(self, tmp_path, betas):
        out = tmp_path / "none.csv"
        code, err = _run_quiet(["verify-lemmas", "--T-list", "100", f"--betas={betas}",
                                "--out", str(out)])
        assert code == 1 and "error: bad betas value" in err, err
        assert not out.exists()

    def test_bytes_match_reference_evaluation(self, tmp_path, monkeypatch):
        from test_forms import evaluate_shifted_reference

        from qdensity import FixedReal, harness, solver

        # an irrational and a non-dyadic shift, dec: targets, a non-integer Gram
        calls = [
            ["solve", "--xi", "sqrt:3 -2/7 1/5", "--t", "dec:-0.7", "--T", "100000",
             "--delta", "0.1"],
            ["exponent", "--xi", "sqrt:2 sqrt:3 1/3", "--t", "dec:3.14159", "--T", "20,40,80",
             "--mode", "solver"],
            ["oracle-count", "--form", "1/3 -2/5 1 1/2 -1/7 3", "--xi", "1/3 -2/7 5/9",
             "--t", "dec:0.37", "--T", "6,12", "--delta", "0.3"],
        ]
        kernel = []
        for i, argv in enumerate(calls):
            kernel.append(tmp_path / f"kernel{i}.csv")
            assert run_cli(argv, kernel[-1]) == 0
            assert len(read_rows(kernel[-1])) > 1
        monkeypatch.setattr(solver, "evaluate_shifted", evaluate_shifted_reference)
        monkeypatch.setattr(harness, "evaluate_shifted", evaluate_shifted_reference)
        monkeypatch.setattr(FixedReal, "certainly_le", lambda x, b: x.hi() <= Fraction(b))
        monkeypatch.setattr(FixedReal, "certainly_gt", lambda x, b: x.lo() > Fraction(b))
        for i, argv in enumerate(calls):
            ref = tmp_path / f"reference{i}.csv"
            assert run_cli(argv, ref) == 0
            assert kernel[i].read_bytes() == ref.read_bytes(), argv[0]


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["count-orbit", "--xi", "sqrt:2 0/1 0/1", "--v0", "0/1 0/1", "--T", "1000,2000", "--nu", "0.2"],
            ["verify-lemmas", "--T-list", "100", "--betas", "5"],
            ["exponent", "--xi", "sqrt:2 0/1 0/1", "--t", "dec:3.141592653589793", "--T", "10,20", "--mode", "oracle"],
            ["solve", "--xi", "sqrt:2 0/1 0/1", "--t", "0/1", "--T", "10000", "--delta", "0.2"],
        ],
    )
    def test_thread_count_does_not_change_bytes(self, tmp_path, args):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert run_cli(args + ["--threads", "1"], out1) == 0
        assert run_cli(args + ["--threads", "4"], out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_crlf_line_endings(self, tmp_path):
        out = tmp_path / "o.csv"
        run_cli(["count-orbit", "--xi", "1/4 0/1 0/1", "--v0", "0/1 0/1", "--T", "10", "--delta", "0.1"], out)
        assert b"\r\n" in out.read_bytes()


# a quick valid run of each subcommand
_QUICK = {
    "solve": ["--xi", "sqrt:2 0/1 0/1", "--T", "100", "--delta", "0.2", "--q-max", "1000"],
    "count-orbit": ["--xi", "sqrt:2 0/1 0/1", "--T", "100,200", "--delta", "0.2"],
    "verify-lemmas": ["--n-list", "1", "--T-list", "10,20", "--betas", "2"],
    "kappa": ["--alpha", "sqrt:2", "--q-max", "1000"],
    "exponent": ["--xi", "sqrt:2 0/1 0/1", "--T", "10,20"],
    "oracle-count": ["--xi", "sqrt:2 0/1 0/1", "--T", "5,6", "--delta", "0.25"],
}


class TestOneThread:
    def test_cells_run_on_the_calling_thread(self, monkeypatch):
        from qdensity import harness

        seen = []

        def record(fn):
            def wrapper(*args, **kwargs):
                seen.append((fn.__name__, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((harness.solver, "count_values_grid"),
                             (harness.weyl_sums, "count_orbit_hits"),
                             (harness.weyl_sums, "weyl_sum_lanes")):
            monkeypatch.setattr(module, name, record(getattr(module, name)))
        for sub in ("count-orbit", "verify-lemmas", "oracle-count"):
            assert _run_quiet([sub, *_QUICK[sub], "--threads", "4"])[0] == 0
        names = [name for name, _ in seen]
        # oracle-count answers its whole T grid from one sweep
        assert names.count("count_values_grid") >= 1
        # verify-lemmas makes one lane-kernel call per T of its grid
        assert all(names.count(n) >= 2 for n in ("count_orbit_hits", "weyl_sum_lanes"))
        assert {ident for _, ident in seen} == {threading.get_ident()}

    @pytest.mark.parametrize("sub", RUNNERS)
    def test_threads_below_one_exits_1(self, sub):
        assert _run_quiet([sub, *_QUICK[sub]])[0] == 0
        code, err = _run_quiet([sub, *_QUICK[sub], "--threads", "0"])
        assert code == 1 and "error: bad threads value '0'" in err, err


# shifts whose direction scan certifies no convergent: exit 2, not an IndexError
_NO_CONVERGENT = [
    ["kappa", "--xi", "dec:-1.4259 dec:-2.0 sqrt:490512"],
    ["solve", "--xi", "dec:-1.4259 dec:-2.0 sqrt:490512", "--t", "0/1", "--T", "10", "--delta", "0.1"],
    ["solve", "--xi", "dec:-1.4259 dec:-2.0 sqrt:490512", "--t=-9/8", "--precision", "512",
     "--scan-c", "1.08", "--T", "10000000", "--delta", "0.362", "--q-max", "1000"],
    ["solve", "--xi", "-25/512 sqrt:418413 dec:-2.6", "--t=-4/8", "--precision", "512",
     "--T", "100000000", "--nu", "0.1", "--q-max", "1000"],
]

# shifts with a direction whose fitted slope is steep enough to overflow q**kappa_hat
_STEEP_SLOPE = [
    ["solve", "--xi", "surd:15,50,15,142 surd:45,-18,8,677 sqrt:240107", "--t=dec:-2.5936",
     "--precision", "256", "--scan-c", "4.72", "--T", "1000000", "--nu", "0.1", "--q-max", "1000"],
    ["solve", "--xi", "dec:0.85525417918 dec:-0.74146473108 sqrt:679852", "--t=11/11",
     "--precision", "64", "--T", "100000", "--nu", "0.1", "--q-max", "1000"],
    ["solve", "--xi", "sqrt:2 sqrt:3 1/2", "--t", "dec:0.7", "--T", "2000", "--delta", "0.1",
     "--direction-bound", "10", "--q-max", "1000"],
]


class TestKappaExpansions:
    """kappa expands the continued fraction of each value it fits once, and prints those convergents."""

    @pytest.mark.parametrize("argv, expected", [
        (["kappa", "--alpha", "surd:1,1,2,5"], 1),
        # a^2*sqrt(2) + a*c*sqrt(3) + c^2/2 is irrational exactly where a != 0
        (["kappa", "--xi", "sqrt:2 sqrt:3 1/2"],
         sum(1 for a, _ in diophantine._direction_candidates(3) if a != 0)),
    ], ids=["alpha", "xi"])
    def test_one_expansion_per_value(self, monkeypatch, argv, expected):
        calls = []
        expand = diophantine.continued_fraction

        def counted(alpha, n_terms):
            calls.append(alpha)
            return expand(alpha, n_terms)

        monkeypatch.setattr(diophantine, "continued_fraction", counted)
        assert _run_quiet(argv)[0] == 0
        assert len(calls) == expected


class TestKappaRefusals:
    @pytest.mark.parametrize("argv", _NO_CONVERGENT, ids=["kappa", "solve", "found-1", "found-2"])
    def test_no_certified_convergent_exits_2(self, argv):
        code, err = _run_quiet(argv)
        assert code == 2 and "Traceback" not in err, err
        assert any(line.startswith("precision exhausted:") for line in err.splitlines()), err

    @pytest.mark.parametrize("argv", _STEEP_SLOPE, ids=["found-1", "found-2", "sqrt2-sqrt3"])
    def test_steep_slope_exits_cleanly(self, argv):
        code, err = _run_quiet(argv)
        assert code in (0, 1, 2) and "Traceback" not in err, err


    def test_huge_q_max_expands_once(self):
        # one expansion sized from the bit length of q_max, not a loop over its magnitude
        started = time.perf_counter()
        code, err = _run_quiet(["kappa", "--alpha", "sqrt:2", "--q-max", "1" + "0" * 1000])
        assert time.perf_counter() - started < 1.0
        assert code == 2 and err == "precision exhausted: could not certify convergents through q_max\n"


class TestOrbitRefusals:
    @pytest.mark.parametrize("precision", ["256", "1024"])
    def test_inexact_reference_point_is_named(self, precision):
        # dec:2.27 carries a radius of 0.005 whatever the precision
        code, err = _run_quiet(["count-orbit", "--xi", "sqrt:189586 203/32 sqrt:32732",
                                "--v0", "dec:2.27 1746/1024", "--precision", precision,
                                "--T", "4095", "--nu", "0.358"])
        assert code == 2
        assert err == ("precision exhausted: hit test ambiguous at m=100; the radius of the reference "
                       "point v0 exceeds the reduction tolerance, so more precision cannot help\n")

    def test_exact_reference_point_asks_for_precision(self):
        # alpha = sqrt(10^40 + 1) / (4*10^20) = 1/4 + 1.25e-41 puts phi(1) = (1/2, 1/4) + O(1e-41)
        # at distance 1/4 from (1/2, 0): ambiguous at F=128, a certain miss at F=256
        argv = ["count-orbit", "--xi", f"surd:0,1,{4 * 10**20},{10**40 + 1} 0/1 0/1",
                "--v0", "1/2 0/1", "--T", "5", "--delta", "0.25", "--precision"]
        code, err = _run_quiet(argv + ["128"])
        assert code == 2
        assert err == "precision exhausted: hit test ambiguous at m=1; raise the precision\n"
        assert _run_quiet(argv + ["256"]) == (0, "")


_BIG = "1" + "0" * 310        # past float64 range
_NEAR_LIMIT = "1" + "0" * 200
_T_RANGE_ERROR = "error: T must lie within float64 range, below about 1.8e308\n"
_ORACLE_RANGE_ERROR = "error: the oracle needs the shift, the target and the form within float64 range\n"


class TestFloat64Range:
    @pytest.mark.parametrize("head", [["oracle-count", "--delta", "0.1"], ["exponent"]],
                             ids=["oracle-count", "exponent"])
    @pytest.mark.parametrize("flags", [
        ["--xi", f"{_BIG} 0/1 0/1"],
        ["--xi", "sqrt:2 0/1 0/1", "--t", _BIG],
        ["--xi", "sqrt:2 0/1 0/1", "--form", "1e400 1 -1 0 0 0"],
    ], ids=["shift", "target", "form"])
    def test_oracle_refuses_inputs_past_float64(self, head, flags):
        assert _run_quiet([*head, *flags, "--T", "10"]) == (1, _ORACLE_RANGE_ERROR)

    @pytest.mark.parametrize("T", [str(2**1024 - 2**970), "1" + "0" * 309], ids=["first", "1e309"])
    @pytest.mark.parametrize("head", [["solve", "--delta", "0.1"], ["solve", "--nu", "0.1"],
                                      ["exponent", "--mode", "solver"], ["count-orbit", "--nu", "0.1"]],
                             ids=["solve-delta", "solve-nu", "exponent-solver", "count-orbit-nu"])
    def test_T_past_float64_exits_1(self, head, T):
        # the scan length scan_c*sqrt(T) and T**-nu are float64; 2^1024 - 2^970 is
        # the first integer that rounds past its range
        assert _run_quiet([*head, "--xi", "sqrt:2 0/1 0/1", "--T", T]) == (1, _T_RANGE_ERROR)

    def test_T_just_inside_float64_is_scanned(self):
        # the orbit radius at the end of the scan refuses it, as for any T that large
        code, err = _run_quiet(["solve", "--xi", "sqrt:2 0/1 0/1", "--T", str(2**1024 - 2**970 - 1),
                                "--delta", "0.1"])
        assert (code, err) == (
            2, "precision exhausted: orbit radius at the end of the scan exceeds the tolerance\n")

    def test_verify_lemmas_past_float64_two_to_the_F(self, tmp_path):
        # 2^F leaves float64 range at F = 1024; no sum-min term forms it, and the
        # printed values are floats, so the rows equal those at F = 1023
        argv = ["verify-lemmas", "--n-list", "1", "--T-list", "100", "--betas", "1"]
        outs = set()
        for F in ("1023", "1024", "2048", "4096"):
            out = tmp_path / f"F{F}.csv"
            assert run_cli([*argv, "--precision", F], out) == 0
            outs.add(out.read_bytes())
        assert len(outs) == 1

    def test_solve_prints_an_infinite_alpha(self):
        code, err = _run_quiet(["solve", "--xi", f"surd:{_BIG},1,1,2 0/1 0/1",
                                "--T", "1000", "--delta", "0.1"])
        assert code == 0
        assert "# alpha_tilde=inf\n" in err

    @pytest.mark.parametrize("xi, form, row", [
        # Q(v + xi) = v2^2 - 4*(v1 + 1e200)*v3: the hits are v2 = v3 = 0, every v1 of the ball
        (f"{_NEAR_LIMIT} 0/1 0/1", "0 1 0 0 -2 0", ["21", "0", "-10", "0", "0"]),
        # every residual is about 2e400: the minimum saturates
        (f"{_NEAR_LIMIT} {_NEAR_LIMIT} 0/1", "1 1 -1 0 0 0", ["0", "inf", "-7", "-7", "-1"]),
    ], ids=["answers", "saturated-minimum"])
    def test_oracle_near_float64_limit_is_quiet(self, tmp_path, xi, form, row):
        out = tmp_path / "o.csv"
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = run_cli(["oracle-count", "--xi", xi, f"--form={form}", "--T", "10",
                            "--delta", "0.1"], out)
        assert (code, err.getvalue()) == (0, "")
        (r,) = read_rows(out)
        assert [r[k] for k in ("count", "min_residual", "v1", "v2", "v3")] == row


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qdensity", "count-orbit", "--xi", "1/4 0/1 0/1",
         "--v0", "0/1 0/1", "--T", "50", "--delta", "0.1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


class TestCsvOutput:
    ORBIT = ["count-orbit", "--xi", "sqrt:2 0/1 0/1", "--v0", "0/1 0/1", "--T", "100", "--delta", "0.1"]

    def test_unwritable_out_exits_1(self, tmp_path):
        missing = tmp_path / "missing" / "x.csv"
        for out, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
            code, err = _run_quiet(self.ORBIT + ["--out", str(out)])
            assert code == 1 and err.startswith("error: cannot write CSV output: ") and reason in err
            assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_closed_stdout_exits_1_with_one_error_line(self):
        # 4000 rows, several times a 64 KB pipe buffer, so rows are still being written when the pipe closes
        proc = subprocess.Popen(
            [sys.executable, "-m", "qdensity", "verify-lemmas", "--n-list", "1", "--T-list", "3",
             "--betas", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"alpha,n,T,beta,s2,differencing_bound,sum_min,explicit_bound,pass\r\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err.splitlines() == ["error: cannot write CSV output: [Errno 32] Broken pipe"]


# flag -> candidate values, valid and malformed; sizes stay small so each call is quick
_FUZZ_VALUES = {
    "--xi": ["sqrt:2 0/1 0/1", "sqrt:2 sqrt:3 1/2", "1/3 1/5 2/7", "0 0 0", "sqrt:2 0",
             "sqrt:-2 0 0", "1/0 0 0", "x y z", "surd:1,1,0,5 0 0", "dec:1.5e3 0 0", "",
             "dec:-1.4259 dec:-2.0 sqrt:490512", "dec:0.85525417918 dec:-0.74146473108 sqrt:679852"],
    "--alpha": ["sqrt:2", "surd:1,1,2,5", "dec:0.5", "0", "1/0", "sqrt:x", ""],
    "--v0": ["0/1 0/1", "3/10 7/10", "1/0 0", "a b", "0"],
    "--t": ["0/1", "1/3", "dec:3.14", "sqrt:2", "nan", "1/0", "-21/64", "=-21/64"],
    "--T": ["10", "4,8", "20", "3", "0", "-5", "abc", "8,4", ""],
    "--delta": ["0.1", "0.25", "0", "-1", "0.6", "nan", "inf", "-inf", "abc", "1e-300"],
    "--nu": ["0.2", "0.7", "nan", "inf", "0", "-0.1"],
    "--precision": ["64", "128", "32", "-1", "abc"],
    "--threads": ["1", "2", "0", "abc"],
    "--scan-c": ["1", "2", "0", "-1", "inf", "nan", "1e-9"],
    "--bound-C": ["32", "0.5", "nan", "inf"],
    "--q-max": ["1000", "0", "-5", "1", "2"],
    "--direction-bound": ["1", "3", "0", "-1"],
    "--cap": ["300", "5", "-1"],
    "--a": ["1", "0", "2", "-3"],
    "--c": ["1", "0", "4"],
    "--mode": ["oracle", "solver", "magic"],
    "--form": ["0 1 0 0 -2 0", "1 1 -1 0 0 0", "1 1 -1 0 0 x", "1 1 -1 0 0 1/0",
               "0 0 0 0 0 0", "1 1 1 0 0 0", "1 2 3"],
    "--n-list": ["1", "1,3", "", "x", "0", "-2"],
    "--T-list": ["10", "10,20", "1", "0", "x"],
    "--betas": ["1", "2", "0", "-1"],
    "--M": ["1", "0", "-1", "2"],
    "--config": ["/nonexistent/qdensity.cfg", os.path.dirname(os.path.abspath(__file__))],
    "--seed": ["0", "-1", "abc"],
    "--bogus": [None],
}

# keeps every subcommand's default sizes small; fuzzed flags come later and win
_FUZZ_BASE = ["--T", "10", "--T-list", "10", "--n-list", "1", "--betas", "2",
              "--q-max", "1000", "--delta", "0.2"]


def _fuzz_argv(sub, flags):
    argv = [sub, *_FUZZ_BASE]
    for flag, value in flags:
        if value is None:
            argv.append(flag)
        elif value.startswith("="):
            argv.append(flag + value)
        else:
            argv += [flag, value]
    return argv


def _run_quiet(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_derives_from_one_exit_code_base(monkeypatch):
    exit_codes = {errors.ValidationError: 1, errors.PrecisionExhausted: 2, errors.SoundnessError: 3}
    # every refusal raises a base itself: no subclass restates an exit code
    assert list(_subclasses(errors.QDensityError)) == list(exit_codes)
    for cls, expected in exit_codes.items():

        def refuse(cfg, cls=cls):
            raise cls("refused")

        monkeypatch.setitem(RUNNERS, "kappa", refuse)
        code, err = _run_quiet(["kappa"])
        assert code == expected and err.endswith(": refused\n"), (cls, err)


class TestCliFuzz:
    @given(
        sub=st.sampled_from(list(RUNNERS) + ["bogus"]),
        flags=st.lists(
            st.sampled_from(sorted(_FUZZ_VALUES)).flatmap(
                lambda f: st.tuples(st.just(f), st.sampled_from(_FUZZ_VALUES[f]))
            ),
            max_size=5,
        ),
    )
    @example(sub="solve", flags=[("--config", "/nonexistent/qdensity.cfg")])
    @example(sub="oracle-count", flags=[("--xi", "0 0 0"), ("--form", "1 1 -1 0 0 x")])
    @example(sub="oracle-count", flags=[("--xi", "0 0 0"), ("--delta", "nan")])
    @example(sub="oracle-count", flags=[("--xi", "0 0 0"), ("--delta", "inf")])
    @example(sub="solve", flags=[("--xi", "sqrt:2 0/1 0/1"), ("--bound-C", "nan")])
    @example(sub="solve", flags=[("--xi", "sqrt:2 0/1 0/1"), ("--scan-c", "inf")])
    @example(sub="solve", flags=[("--bogus", None)])
    @example(sub="solve", flags=[("--t", "-21/64")])
    @example(sub="solve", flags=[
        ("--xi", "dec:-1.4259 dec:-2.0 sqrt:490512"), ("--t", "=-9/8"), ("--precision", "512"),
        ("--scan-c", "1.08"), ("--T", "10000000"), ("--delta", "0.362")])
    @example(sub="solve", flags=[
        ("--xi", "=-25/512 sqrt:418413 dec:-2.6"), ("--t", "=-4/8"), ("--precision", "512"),
        ("--T", "100000000"), ("--nu", "0.1")])
    @example(sub="solve", flags=[
        ("--xi", "surd:15,50,15,142 surd:45,-18,8,677 sqrt:240107"), ("--t", "=dec:-2.5936"),
        ("--scan-c", "4.72"), ("--T", "1000000"), ("--nu", "0.1")])
    @example(sub="solve", flags=[
        ("--xi", "dec:0.85525417918 dec:-0.74146473108 sqrt:679852"), ("--t", "=11/11"),
        ("--precision", "64"), ("--T", "100000"), ("--nu", "0.1")])
    @settings(max_examples=60, deadline=None)
    def test_every_input_exits_cleanly(self, sub, flags):
        code, err = _run_quiet(_fuzz_argv(sub, flags))
        assert code in (0, 1, 2)
        if code:
            assert any(line.startswith(("error:", "precision exhausted:"))
                       for line in err.splitlines()), err


class TestOptionTable:
    def test_table_argparse_and_readme_agree(self):
        keys = [opt.key for opt in OPTIONS]
        assert len(set(keys)) == len(keys)
        assert list(DEFAULTS) == keys
        sub = next(a for a in _build_parser()._actions if a.dest == "subcommand")
        for name in RUNNERS:
            dests = {a.dest for a in sub.choices[name]._actions} - {"help", "config", "out"}
            assert dests == set(keys), name
        text = open(README, encoding="utf-8").read()
        listed = re.search(r"Keys: (.*?)\.", text, re.S).group(1).replace("`", "").split()
        assert listed == keys
        table = re.search(r"\| subcommand .*?\n\n", text, re.S).group(0)
        flags = {f.replace("-", "_") for f in re.findall(r"--([A-Za-z][\w-]*)", table)}
        assert flags and flags <= set(keys)

    def test_main_calls_share_one_parser_and_no_state(self, monkeypatch):
        from qdensity import harness

        seeds = []

        def record(cfg):
            seeds.append(cfg["seed"])
            return [], ["seed"], []

        monkeypatch.setitem(harness.RUNNERS, "kappa", record)
        _build_parser.cache_clear()
        assert _run_quiet(_KAPPA + ["--seed", "3"])[0] == 0
        assert _run_quiet(_KAPPA)[0] == 0
        assert _build_parser.cache_info().misses == 1
        assert seeds == [3, int(DEFAULTS["seed"])]


# per value parser: a value that fails it, and one it accepts
_BAD = {"int": "1.5", "_positive_int": "0", "_finite": "nan", "_int_list": "4,x", "_mode": "magic"}
_GOOD = {"int": "7", "_positive_int": "7", "_finite": "0.125", "_int_list": "4,8", "_mode": "solver",
         "str": "1/3 0 sqrt:2"}
# a quick run; a malformed value fails it whether or not kappa reads the key
_KAPPA = ["kappa", "--alpha", "sqrt:2"]


def _flag(key):
    return "--" + key.replace("_", "-")


class TestOptionParsing:
    @pytest.mark.parametrize("opt", [o for o in OPTIONS if o.parse is not str], ids=lambda o: o.key)
    def test_malformed_value_exits_1_from_flag_and_file(self, opt, tmp_path):
        bad = _BAD[opt.parse.__name__]
        code, err = _run_quiet(_KAPPA + [f"{_flag(opt.key)}={bad}"])
        assert code == 1 and f"error: bad {opt.key} value" in err, err
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"{opt.key} = {bad}\n")
        code, err = _run_quiet(_KAPPA + ["--config", str(cfg_file)])
        assert code == 1 and f"error: bad {opt.key} value" in err, err

    @pytest.mark.parametrize("opt", OPTIONS, ids=lambda o: o.key)
    def test_flag_and_file_build_the_same_config(self, opt, tmp_path):
        good = _GOOD[opt.parse.__name__]
        cfg_file = tmp_path / "good.cfg"
        cfg_file.write_text(f"{opt.key} = {good}\n")
        parser = _build_parser()
        from_flag = build_config(parser.parse_args(["kappa", f"{_flag(opt.key)}={good}"]))
        from_file = build_config(parser.parse_args(["kappa", "--config", str(cfg_file)]))
        assert from_flag.values == from_file.values
        assert from_flag[opt.key] == opt.parse(good) != RunConfig({})[opt.key]

    def test_unread_keys_are_still_validated(self, tmp_path):
        assert _run_quiet(_KAPPA)[0] == 0
        cfg_file = tmp_path / "unread.cfg"
        cfg_file.write_text("betas = abc\n")
        assert _run_quiet(_KAPPA + ["--config", str(cfg_file)])[0] == 1
        argv = ["oracle-count", "--xi", "0 0 0", "--T", "4", "--delta", "0.1"]
        assert _run_quiet(argv)[0] == 0
        assert _run_quiet(argv + ["--n-list", "x"])[0] == 1

    def test_blank_value_unsets_keys_without_default(self):
        cfg = RunConfig({"delta": " ", "n_list": ""})
        assert cfg["delta"] is None and cfg["n_list"] == []
        with pytest.raises(ValidationError):
            RunConfig({"precision": ""})
