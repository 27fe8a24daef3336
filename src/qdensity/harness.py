"""Command-line interface, configuration and reproducible CSV reporting.

Configuration is a flat ``key = value`` text file, each key at most once;
any command-line flag with the same name overrides the file.  Every key is
declared once, in OPTIONS, and its value is parsed the same way from a flag,
a file or the default, when the configuration is loaded.  All randomness comes from a 64-bit linear
congruential generator with Knuth's MMIX constants

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

so runs are reproducible across platforms from the seed alone.  CSV output is
RFC-4180 style (CRLF, header row, '.' decimal separator) with floats printed
to 17 significant digits; identical configurations produce byte-identical
files.  Every subcommand computes its cells in config order on the calling
thread; ``threads`` is accepted for compatibility and selects nothing.

Exit codes: 0 success, and one per base of :mod:`.errors`: 1 for a
ValidationError (usage, validation or rational-input error), 2 for
PrecisionExhausted, 3 for SoundnessError (internal soundness tripwire).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import diophantine, isometries, solver, weyl_sums
from .errors import PrecisionExhausted, SoundnessError, ValidationError
from .fixed import DEFAULT_PRECISION, MAX_PRECISION, MIN_PRECISION, FixedReal, parse_real
from .forms import ShiftVector, TernaryForm, evaluate_shifted, standard_form
from .weyl_sums import TorusPoint2

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg64:
    """Deterministic 64-bit linear congruential generator (MMIX constants)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (LCG_MULT * self.state + LCG_INC) & _MASK64
        return self.state

    def next_unit(self, F: int) -> FixedReal:
        """Exact dyadic sample in [0, 1)."""
        return FixedReal.from_fraction(Fraction(self.next_u64(), 1 << 64), F)


class Option(NamedTuple):
    """One configuration key: its flag is ``--`` + key with ``_`` written as ``-``."""

    key: str
    parse: Callable[[str], object]
    default: str
    help: str


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _mode(text: str) -> str:
    if text not in ("oracle", "solver"):
        raise ValueError("expected oracle or solver")
    return text


OPTIONS = (
    Option("precision", int, str(DEFAULT_PRECISION), f"fractional bits (>= {MIN_PRECISION})"),
    Option("seed", int, "2025", "64-bit RNG seed"),
    Option("threads", _positive_int, "1", "accepted for compatibility; runs use one thread"),
    Option("xi", str, "", "three real literals, space separated"),
    Option("v0", str, "0/1 0/1", "two real literals, space separated"),
    Option("t", str, "0/1", "target value literal"),
    Option("T", _int_list, "", "range bound, or comma-separated grid"),
    Option("delta", _finite, "", "closeness threshold"),
    Option("nu", _finite, "", "delta = T**(-nu)"),
    Option("scan_c", _finite, "1.0", "orbit scan length: m <= scan_c*sqrt(T)"),
    Option("bound_C", _finite, "32.0", "residual bound: |Q - t| <= bound_C*delta"),
    Option("q_max", int, "1000000", "largest continued-fraction denominator"),
    Option("direction_bound", int, "3", "largest |a|, |c| in the direction scan"),
    Option("cap", int, "300", "brute-force enumeration cap"),
    Option("alpha", str, "", "single real literal"),
    Option("a", int, "", "direction numerator override"),
    Option("c", int, "", "direction denominator override"),
    Option("mode", _mode, "oracle", "exponent mode: oracle or solver"),
    Option("form", str, "", "six rational gram entries: a11 a22 a33 a12 a13 a23"),
    Option("n_list", _int_list, "1,3,50", "comma-separated n of verify-lemmas"),
    Option("T_list", _int_list, "100,1000,10000", "comma-separated T of verify-lemmas"),
    Option("betas", _positive_int, "20", "linear coefficients sampled per verify-lemmas case"),
    Option("M", int, "1", "multiplier of the sum-min range M*T"),
)

DEFAULTS: dict[str, str] = {opt.key: opt.default for opt in OPTIONS}


def parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


class RunConfig:
    """Merged configuration, every value parsed through OPTIONS once, at construction.

    ``cfg[key]`` is the typed value; a blank value leaves a key without a
    default unset (None).  Range checks and the precision-dependent literal
    parsing happen where a subcommand reads them.
    """

    def __init__(self, values: dict[str, str]):
        self.values: dict[str, object] = {}
        for opt in OPTIONS:
            text = values.get(opt.key, opt.default).strip()
            try:
                self.values[opt.key] = opt.parse(text) if text or opt.default else None
            except ValueError as exc:
                raise ValidationError(f"bad {opt.key} value {text!r}: {exc}") from exc

    def __getitem__(self, key: str):
        return self.values[key]

    def range_grid(self) -> list[int]:
        """The T grid; every range bound accepted by the CLI must be >= 4."""
        grid = self["T"]
        if not grid:
            raise ValidationError("T grid must be nonempty")
        if any(T < 4 for T in grid):
            raise ValidationError("T must be >= 4")
        return grid

    @property
    def precision(self) -> int:
        F = self["precision"]
        if F < MIN_PRECISION:
            raise ValidationError(f"precision must be >= {MIN_PRECISION}")
        if F > MAX_PRECISION:
            raise ValidationError(f"precision must be <= {MAX_PRECISION}")
        return F

    def xi(self, F: int) -> ShiftVector:
        parts = (self["xi"] or "").split()
        if len(parts) != 3:
            raise ValidationError("xi needs exactly three real literals")
        a, b, c = (parse_real(p, F) for p in parts)
        return ShiftVector(a, b, c)

    def v0(self, F: int) -> TorusPoint2:
        parts = self["v0"].split()
        if len(parts) != 2:
            raise ValidationError("v0 needs exactly two real literals")
        return TorusPoint2.from_values(parse_real(parts[0], F), parse_real(parts[1], F), F)

    def t_value(self, F: int) -> FixedReal:
        return parse_real(self["t"], F)

    def delta_for(self, T: int) -> float:
        """The closeness threshold of solve and count-orbit at range bound T.

        It is delta as given, or T**(-nu) for a nu in (0, 1/2); either way it
        must lie in (0, 1/2), so a nu-derived delta is checked like a given one.
        """
        delta, nu = self["delta"], self["nu"]
        if delta is not None and nu is not None:
            raise ValidationError("supply delta or nu, not both")
        if delta is None and nu is None:
            raise ValidationError("either delta or nu is required")
        if delta is None:
            if not (0.0 < nu < 0.5):
                raise ValidationError("nu must lie in (0, 1/2)")
            try:
                delta = float(T) ** (-nu)
            except OverflowError:
                raise ValidationError("T must lie within float64 range, below about 1.8e308") from None
        if not (0.0 < delta < 0.5):
            raise ValidationError("delta must lie in (0, 1/2)")
        return delta

    def form(self) -> Optional[TernaryForm]:
        text = self["form"]
        return TernaryForm.from_string(text) if text else None


def build_config(args: argparse.Namespace) -> RunConfig:
    merged = parse_config_file(args.config) if args.config else {}
    for key in DEFAULTS:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    return RunConfig(merged)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(out_path: Optional[str], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write the header and rows as CSV to the file out_path, or to stdout when it is empty.

    The stream is flushed before the ``with`` ends, so an unwritable out_path
    and a stdout whose reader has gone both raise here, as a ValidationError
    that carries the OSError text.  For stdout, fd 1 is first pointed at
    os.devnull, so the flush at interpreter exit finds no broken pipe.
    """
    try:
        with (open(out_path, "w", newline="", encoding="utf-8") if out_path
              else contextlib.nullcontext(sys.stdout)) as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_fmt(x) for x in row] for row in rows)
            fh.flush()
    except OSError as exc:
        if not out_path:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValidationError(f"cannot write CSV output: {exc}") from exc


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _direction_matrix(a: int, c: int) -> isometries.SOQMatrix:
    """Integer isometry whose action sends alpha to alpha*a^2 + beta*a*c + gamma*c^2."""
    g, x, y = _xgcd(a, c)
    if g not in (1, -1):
        raise ValidationError("(a, c) must be coprime")
    if g == -1:
        x, y = -x, -y
    return isometries.iota(isometries.SL2Matrix(a, -y, c, x))


# ----------------------------------------------------------------------
# subcommand drivers: each returns (meta lines, csv header, csv rows)
# ----------------------------------------------------------------------


def _direction(cfg: RunConfig, xi: ShiftVector):
    """(a, c, M, xi*M, estimate): the direction --a/--c give, or the best the scan finds."""
    a, c = cfg["a"], cfg["c"]
    est = None
    if a is None and c is None:
        choice = diophantine.diophantine_direction(xi, cfg["direction_bound"], cfg["q_max"])
        a, c, est = choice.a, choice.c, choice.estimate
    elif a is None or c is None:
        raise ValidationError("supply both a and c or neither")
    M = _direction_matrix(a, c)
    xi_t = isometries.apply(xi, M)
    if est is None:  # a supplied direction; the scan fitted its estimate already
        if xi_t.alpha.exact is not None:
            raise ValidationError("supplied direction produces a rational combination")
        est = diophantine.estimate_kappa(xi_t.alpha, cfg["q_max"])
    return a, c, M, xi_t, est


def run_solve(cfg: RunConfig):
    F = cfg.precision
    a, c, M, xi_t, est = _direction(cfg, cfg.xi(F))

    grid = cfg.range_grid()
    if len(grid) != 1:
        raise ValidationError("solve needs a single T")
    T = grid[0]
    delta = cfg.delta_for(T)
    nu = cfg["nu"]
    if nu is not None:
        nu_max = 1.0 / (8.0 * est.kappa_hat)
        if nu >= nu_max:
            print(
                f"warning: nu={nu:.6g} is at or beyond 1/(8*kappa_hat)={nu_max:.6g}; "
                "the certified range does not cover this run",
                file=sys.stderr,
            )
    scan_c, bound_C = cfg["scan_c"], cfg["bound_C"]
    t_fix = cfg.t_value(F)
    report = solver.find_solutions(xi_t, t_fix, T, delta, scan_c, bound_C)

    # soundness tripwire: re-verify every row at doubled precision
    F2 = 2 * F
    xi_hi = isometries.apply(cfg.xi(F2), M)
    t_hi = cfg.t_value(F2)
    residual_cap = Fraction(bound_C * delta)
    for sol in report.solutions:
        r = abs(evaluate_shifted(standard_form(), xi_hi, sol.v) - t_hi)
        norm_sq = sol.v[0] ** 2 + sol.v[1] ** 2 + sol.v[2] ** 2
        if not r.certainly_le(residual_cap) or norm_sq > T * T:
            raise SoundnessError(f"re-verification failed for v={sol.v} at m={sol.m}")

    meta = [
        f"a={a}",
        f"c={c}",
        f"alpha_tilde={_fmt(xi_t.alpha.to_float())}",
        f"kappa_hat={_fmt(est.kappa_hat)}",
        f"c_hat={_fmt(est.c_hat)}",
        f"q_max={est.q_max}",
        f"transform={list(list(r) for r in M.rows)}",
        f"count={report.count}",
    ]
    rows = [(s.m, s.u[1], s.u[2], s.v[0], s.v[1], s.v[2], s.value, s.residual, s.torus_miss)
            for s in report.solutions]
    return meta, ("m", "a", "b", "v1", "v2", "v3", "value", "residual", "torus_miss"), rows


def run_count_orbit(cfg: RunConfig):
    F = cfg.precision
    xi = cfg.xi(F)
    v0 = cfg.v0(F)
    # every delta is checked before the first scan, so a bad one costs no kernel work
    cells = [(T, cfg.delta_for(T)) for T in cfg.range_grid()]
    rational = 1 if xi.alpha.exact is not None else 0
    rows = []
    for T, delta in cells:
        n = weyl_sums.count_orbit_hits(xi.alpha, xi.beta, xi.gamma, v0, T, delta)
        area = math.pi * T * delta * delta
        # below delta ~ 4e-163 the area underflows to 0, where n / area rounds to 0 or inf
        rows.append((T, delta, n, n / area if area else (math.inf if n else 0.0), rational))
    return [], ("T", "delta", "n_phi", "ratio", "rational"), rows


_LEMMA_ALPHAS = (("sqrt:2", "sqrt:2"), ("golden", "surd:1,1,2,5"))


def run_verify_lemmas(cfg: RunConfig):
    F = cfg.precision
    n_list, T_list, betas_per_case, M = cfg["n_list"], cfg["T_list"], cfg["betas"], cfg["M"]
    for key in ("n_list", "T_list"):
        if not cfg[key]:
            raise ValidationError(f"{key} must be nonempty")
    alphas = [(label, parse_real(lit, F)) for label, lit in _LEMMA_ALPHAS]

    # every bound is computed before the first Weyl sum, so a bad n, T or M costs no sum
    bound_cache: dict[tuple[str, int, int], float] = {}
    summin_cache: dict[tuple[str, int], tuple[float, float]] = {}
    for label, alpha in alphas:
        for n in n_list:
            for T in T_list:
                bound_cache[(label, n, T)] = weyl_sums.weyl_differencing_bound(n, alpha, T)
        for T in T_list:
            summin_cache[(label, T)] = (
                weyl_sums.sum_min(alpha, M, T),
                weyl_sums.sum_min_explicit_bound(alpha, M, T),
            )

    rng = Lcg64(cfg["seed"])
    cases = [(label, alpha, n, T, rng.next_unit(F))
             for label, alpha in alphas for n in n_list for T in T_list for _ in range(betas_per_case)]
    # one lane-kernel call per distinct T, in grid order, sums every Weyl sum of that T
    sums = {}
    for T in dict.fromkeys(T_list):
        idx = [i for i, case in enumerate(cases) if case[3] == T]
        lanes = [(cases[i][2], cases[i][1], cases[i][4]) for i in idx]
        sums.update(zip(idx, weyl_sums.weyl_sum_lanes(lanes, T)))

    rel = 1e-6
    rows = []
    for i, (label, _, n, T, beta) in enumerate(cases):
        bound = bound_cache[(label, n, T)]
        sm, sm_bound = summin_cache[(label, T)]
        s2 = sums[i].magnitude() ** 2
        ok = s2 <= bound * (1.0 + rel) and sm <= sm_bound * (1.0 + rel)
        rows.append((label, n, T, beta.to_float(), s2, bound, sm, sm_bound, int(ok)))
    header = ("alpha", "n", "T", "beta", "s2", "differencing_bound", "sum_min", "explicit_bound", "pass")
    return [], header, rows


def run_kappa(cfg: RunConfig):
    F = cfg.precision
    q_max = cfg["q_max"]
    meta: list[str] = []
    if cfg["alpha"] is not None:
        if any(cfg[key] is not None for key in ("xi", "a", "c")):
            raise ValidationError("alpha cannot be combined with xi, a or c")
        est = diophantine.estimate_kappa(parse_real(cfg["alpha"], F), q_max)
    elif cfg["xi"] is not None:
        a, c, _, _, est = _direction(cfg, cfg.xi(F))
        meta.extend([f"a={a}", f"c={c}"])
    else:
        raise ValidationError("kappa needs alpha or xi")
    local = dict(est.per_convergent)
    rows = [(k, cv.p, cv.q, cv.dist.to_float(), local.get(cv.q, ""), est.kappa_hat, est.c_hat, est.q_max)
            for k, cv in enumerate(est.convergents)]
    header = ("k", "p", "q", "dist", "kappa_local", "kappa_hat", "c_hat", "q_max")
    return meta, header, rows


def run_exponent(cfg: RunConfig):
    F = cfg.precision
    xi = cfg.xi(F)
    grid = cfg.range_grid()
    t_fix = cfg.t_value(F)
    rows_data = solver.estimate_critical_exponent(
        xi, t_fix, grid, mode=cfg["mode"], form=cfg.form(), scan_c=cfg["scan_c"], cap=cfg["cap"],
    )
    rows = [(r.T, r.min_residual, r.omega_hat, int(r.saturated)) for r in rows_data]
    return [], ("T", "min_residual", "omega_hat", "saturated"), rows


def run_oracle_count(cfg: RunConfig):
    F = cfg.precision
    xi = cfg.xi(F)
    t_fix = cfg.t_value(F)
    form = cfg.form() or standard_form()
    grid = cfg.range_grid()
    # the oracle threshold may exceed 1/2 (saturation studies), unlike the
    # closeness parameter of solve and count-orbit
    delta = cfg["delta"]
    if cfg["nu"] is not None:
        raise ValidationError("oracle-count takes delta, not nu")
    if delta is None:
        raise ValidationError("oracle-count needs delta")
    if delta <= 0:
        raise ValidationError("delta must be positive")
    answers = solver.count_values_grid(form, xi, t_fix, grid, delta, cap=cfg["cap"])
    rows = [(T, delta, res.count, res.min_residual, *res.argmin) for T, res in zip(grid, answers)]
    return [], ("T", "delta", "count", "min_residual", "v1", "v2", "v3"), rows


RUNNERS = {
    "solve": run_solve,
    "count-orbit": run_count_orbit,
    "verify-lemmas": run_verify_lemmas,
    "kappa": run_kappa,
    "exponent": run_exponent,
    "oracle-count": run_oracle_count,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, like every other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache  # parsing leaves the parser as it was, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdensity",
        description="Experiments on small values of shifted isotropic ternary quadratic forms.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--out", help="CSV output path (default: stdout)")
        for opt in OPTIONS:
            p.add_argument("--" + opt.key.replace("_", "-"), dest=opt.key, help=opt.help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = build_config(args)
        meta, header, rows = RUNNERS[args.subcommand](cfg)
        for line in meta:
            print(f"# {line}", file=sys.stderr)
        write_csv(args.out, header, rows)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 2
    except SoundnessError as exc:
        print(f"soundness tripwire: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
