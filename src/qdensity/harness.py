"""Command-line interface, configuration and reproducible CSV reporting.

Configuration is a flat ``key = value`` text file; any command-line flag with
the same name overrides the file.  All randomness comes from a 64-bit linear
congruential generator with Knuth's MMIX constants

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

so runs are reproducible across platforms from the seed alone.  CSV output is
RFC-4180 style (CRLF, header row, '.' decimal separator) with floats printed
to 17 significant digits; identical configurations produce byte-identical
files regardless of the thread count, because cells are dispatched in config
order and reassembled in that order.

Exit codes: 0 success, 1 usage, validation or rational-input error, 2
precision exhausted, 3 internal soundness tripwire.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Optional, Sequence

from . import diophantine, isometries, solver, weyl_sums
from .errors import (
    AllRational,
    AlphaZero,
    CapExceeded,
    PrecisionExhausted,
    RationalDetected,
    SoundnessError,
    ValidationError,
)
from .fixed import MIN_PRECISION, FixedReal, parse_real
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


DEFAULTS: dict[str, str] = {
    "precision": "256",
    "seed": "2025",
    "threads": "1",
    "xi": "",
    "v0": "0/1 0/1",
    "t": "0/1",
    "T": "",
    "delta": "",
    "nu": "",
    "scan_c": "1.0",
    "bound_C": "32.0",
    "q_max": "1000000",
    "direction_bound": "3",
    "cap": "300",
    "alpha": "",
    "a": "",
    "c": "",
    "mode": "oracle",
    "form": "",
    "n_list": "1,3,50",
    "T_list": "100,1000,10000",
    "betas": "20",
    "M": "1",
}

SUBCOMMANDS = ("solve", "count-orbit", "verify-lemmas", "kappa", "exponent", "oracle-count")


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
        out[key] = value.strip()
    return out


class RunConfig:
    """Merged configuration with typed accessors that validate on read."""

    def __init__(self, values: dict[str, str]):
        self.values = values

    def _get(self, key: str) -> str:
        return self.values.get(key, DEFAULTS[key])

    def has(self, key: str) -> bool:
        return bool(self._get(key).strip())

    def get_int(self, key: str) -> int:
        try:
            return int(self._get(key))
        except ValueError as exc:
            raise ValidationError(f"{key} must be an integer: {exc}") from exc

    def get_float(self, key: str) -> float:
        try:
            value = float(self._get(key))
        except ValueError as exc:
            raise ValidationError(f"{key} must be a number: {exc}") from exc
        if not math.isfinite(value):
            raise ValidationError(f"{key} must be finite")
        return value

    def get_str(self, key: str) -> str:
        return self._get(key).strip()

    def get_int_list(self, key: str) -> list[int]:
        try:
            return [int(p) for p in self._get(key).split(",") if p.strip()]
        except ValueError as exc:
            raise ValidationError(f"{key} must be comma-separated integers: {exc}") from exc

    def range_grid(self) -> list[int]:
        """The T grid; every range bound accepted by the CLI must be >= 4."""
        grid = self.get_int_list("T")
        if not grid:
            raise ValidationError("T grid must be nonempty")
        if any(T < 4 for T in grid):
            raise ValidationError("T must be >= 4")
        return grid

    @property
    def precision(self) -> int:
        F = self.get_int("precision")
        if F < MIN_PRECISION:
            raise ValidationError(f"precision must be >= {MIN_PRECISION}")
        return F

    @property
    def threads(self) -> int:
        n = self.get_int("threads")
        if n < 1:
            raise ValidationError("threads must be >= 1")
        return n

    def xi(self, F: Optional[int] = None) -> ShiftVector:
        text = self.get_str("xi")
        parts = text.split()
        if len(parts) != 3:
            raise ValidationError("xi needs exactly three real literals")
        F = F or self.precision
        a, b, c = (parse_real(p, F) for p in parts)
        return ShiftVector(a, b, c)

    def v0(self, F: Optional[int] = None) -> TorusPoint2:
        parts = self.get_str("v0").split()
        if len(parts) != 2:
            raise ValidationError("v0 needs exactly two real literals")
        F = F or self.precision
        return TorusPoint2.from_values(parse_real(parts[0], F), parse_real(parts[1], F), F)

    def t_value(self, F: Optional[int] = None) -> FixedReal:
        return parse_real(self.get_str("t"), F or self.precision)

    def delta_for(self, T: int) -> float:
        if self.has("delta"):
            return self.get_float("delta")
        if self.has("nu"):
            nu = self.get_float("nu")
            if not (0.0 < nu < 0.5):
                raise ValidationError("nu must lie in (0, 1/2)")
            return float(T) ** (-nu)
        raise ValidationError("either delta or nu is required")

    def check_delta(self, delta: float) -> float:
        if not (0.0 < delta < 0.5):
            raise ValidationError("delta must lie in (0, 1/2)")
        return delta

    def form(self) -> Optional[TernaryForm]:
        text = self.get_str("form")
        return TernaryForm.from_string(text) if text else None


def build_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(DEFAULTS)
    if args.config:
        merged.update(parse_config_file(args.config))
    for key in DEFAULTS:
        cli_val = getattr(args, key.replace("-", "_"), None)
        if cli_val is not None:
            merged[key] = str(cli_val)
    return RunConfig(merged)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(out_path: Optional[str], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_fmt(x) for x in row])

    if out_path:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


def _map_cells(threads: int, fn, cells: list):
    """Apply fn to cells, concurrently when asked, preserving config order."""
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


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


def run_solve(cfg: RunConfig):
    F = cfg.precision
    xi = cfg.xi(F)
    if cfg.has("a") or cfg.has("c"):
        if not (cfg.has("a") and cfg.has("c")):
            raise ValidationError("supply both a and c or neither")
        a, c = cfg.get_int("a"), cfg.get_int("c")
        if math.gcd(abs(a), abs(c)) != 1:
            raise ValidationError("(a, c) must be coprime")
        M = _direction_matrix(a, c)
        alpha_tilde = isometries.apply(xi, M).alpha
        if alpha_tilde.exact is not None:
            raise AllRational("supplied direction produces a rational combination")
        est = diophantine.estimate_kappa(alpha_tilde, cfg.get_int("q_max"))
    else:
        choice = diophantine.diophantine_direction(
            xi, cfg.get_int("direction_bound"), cfg.get_int("q_max")
        )
        a, c, est = choice.a, choice.c, choice.estimate
        M = _direction_matrix(a, c)
    xi_t = isometries.apply(xi, M)

    T = cfg.get_int("T")
    if T < 4:
        raise ValidationError("T must be >= 4")
    delta = cfg.check_delta(cfg.delta_for(T))
    if cfg.has("nu"):
        nu = cfg.get_float("nu")
        nu_max = 1.0 / (8.0 * est.kappa_hat)
        if nu >= nu_max:
            print(
                f"warning: nu={nu:.6g} is at or beyond 1/(8*kappa_hat)={nu_max:.6g}; "
                "the certified range does not cover this run",
                file=sys.stderr,
            )
    scan_c = cfg.get_float("scan_c")
    bound_C = cfg.get_float("bound_C")
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
    return meta, solver.SolveReport.CSV_HEADER, report.rows()


def run_count_orbit(cfg: RunConfig):
    F = cfg.precision
    xi = cfg.xi(F)
    v0 = cfg.v0(F)
    cells = []
    for T in cfg.range_grid():
        delta = cfg.check_delta(cfg.delta_for(T))
        cells.append((T, delta))

    rational = 1 if xi.alpha.exact is not None else 0

    def one(cell):
        T, delta = cell
        n = weyl_sums.count_orbit_hits(xi.alpha, xi.beta, xi.gamma, v0, T, delta)
        ratio = n / (math.pi * T * delta * delta)
        return (T, delta, n, ratio, rational)

    rows = _map_cells(cfg.threads, one, cells)
    return [], ("T", "delta", "n_phi", "ratio", "rational"), rows


_LEMMA_ALPHAS = (("sqrt:2", "sqrt:2"), ("golden", "surd:1,1,2,5"))


def run_verify_lemmas(cfg: RunConfig):
    F = cfg.precision
    n_list = cfg.get_int_list("n_list")
    T_list = cfg.get_int_list("T_list")
    betas_per_case = cfg.get_int("betas")
    M = cfg.get_int("M")
    rng = Lcg64(cfg.get_int("seed"))
    alphas = [(label, parse_real(lit, F)) for label, lit in _LEMMA_ALPHAS]

    # draw every beta up front, in config order, so threading cannot reorder them
    cells = []
    for label, alpha in alphas:
        for n in n_list:
            for T in T_list:
                for _ in range(betas_per_case):
                    cells.append((label, alpha, n, T, rng.next_unit(F)))

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

    rel = 1e-6

    def one(cell):
        label, alpha, n, T, beta = cell
        s = weyl_sums.weyl_sum(n, alpha, beta, T)
        s2 = s.magnitude() ** 2
        bound = bound_cache[(label, n, T)]
        sm, sm_bound = summin_cache[(label, T)]
        ok = s2 <= bound * (1.0 + rel) and sm <= sm_bound * (1.0 + rel)
        return (label, n, T, beta.to_float(), s2, bound, sm, sm_bound, 1 if ok else 0)

    rows = _map_cells(cfg.threads, one, cells)
    header = ("alpha", "n", "T", "beta", "s2", "differencing_bound", "sum_min", "explicit_bound", "pass")
    return [], header, rows


def run_kappa(cfg: RunConfig):
    F = cfg.precision
    q_max = cfg.get_int("q_max")
    meta: list[str] = []
    if cfg.has("xi"):
        choice = diophantine.diophantine_direction(cfg.xi(F), cfg.get_int("direction_bound"), q_max)
        alpha = choice.alpha_tilde
        est = choice.estimate
        meta.extend([f"a={choice.a}", f"c={choice.c}"])
    elif cfg.has("alpha"):
        alpha = parse_real(cfg.get_str("alpha"), F)
        est = diophantine.estimate_kappa(alpha, q_max)
    else:
        raise ValidationError("kappa needs alpha or xi")
    conv = diophantine.convergents_up_to(alpha, q_max)
    rows = []
    for k, cv in enumerate(conv):
        d = cv.dist.to_float()
        local = -math.log(d) / math.log(cv.q) if cv.q >= 2 and d > 0 else ""
        rows.append((k, cv.p, cv.q, d, local, est.kappa_hat, est.c_hat, est.q_max))
    header = ("k", "p", "q", "dist", "kappa_local", "kappa_hat", "c_hat", "q_max")
    return meta, header, rows


def run_exponent(cfg: RunConfig):
    F = cfg.precision
    xi = cfg.xi(F)
    grid = cfg.range_grid()
    t_fix = cfg.t_value(F)
    mode = cfg.get_str("mode")
    rows_data = solver.estimate_critical_exponent(
        xi, t_fix, grid, mode=mode, form=cfg.form(),
        scan_c=cfg.get_float("scan_c"), cap=cfg.get_int("cap"),
    )
    rows = [
        (r.T, r.min_residual, "inf" if r.saturated else _fmt(r.omega_hat), 1 if r.saturated else 0)
        for r in rows_data
    ]
    return [], ("T", "min_residual", "omega_hat", "saturated"), rows


def run_oracle_count(cfg: RunConfig):
    F = cfg.precision
    xi = cfg.xi(F)
    t_fix = cfg.t_value(F)
    form = cfg.form() or standard_form()
    grid = cfg.range_grid()
    if not cfg.has("delta"):
        raise ValidationError("oracle-count needs delta")
    # the oracle threshold may exceed 1/2 (saturation studies), unlike the
    # closeness parameter of solve and count-orbit
    delta = cfg.get_float("delta")
    if delta <= 0:
        raise ValidationError("delta must be positive")
    cap = cfg.get_int("cap")

    def one(T):
        res = solver.count_values_bruteforce(form, xi, t_fix, T, delta, cap=cap)
        return (T, delta, res.count, res.min_residual, *res.argmin)

    rows = _map_cells(cfg.threads, one, list(grid))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdensity",
        description="Experiments on small values of shifted isotropic ternary quadratic forms.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--precision", type=int, help="fractional bits (>= 64)")
        p.add_argument("--seed", type=int, help="64-bit RNG seed")
        p.add_argument("--threads", type=int, help="worker threads for independent cells")
        p.add_argument("--xi", help="three real literals, space separated")
        p.add_argument("--alpha", help="single real literal")
        p.add_argument("--v0", help="two real literals, space separated")
        p.add_argument("--t", help="target value literal")
        p.add_argument("--T", help="range bound, or comma-separated grid")
        p.add_argument("--delta", type=float, help="closeness threshold")
        p.add_argument("--nu", type=float, help="delta = T**(-nu)")
        p.add_argument("--scan-c", dest="scan_c", type=float)
        p.add_argument("--bound-C", dest="bound_C", type=float)
        p.add_argument("--q-max", dest="q_max", type=int)
        p.add_argument("--direction-bound", dest="direction_bound", type=int)
        p.add_argument("--cap", type=int, help="brute-force enumeration cap")
        p.add_argument("--a", type=int, help="direction numerator override")
        p.add_argument("--c", type=int, help="direction denominator override")
        p.add_argument("--mode", choices=("oracle", "solver"))
        p.add_argument("--form", help="six rational gram entries: a11 a22 a33 a12 a13 a23")
        p.add_argument("--n-list", dest="n_list")
        p.add_argument("--T-list", dest="T_list")
        p.add_argument("--betas", type=int)
        p.add_argument("--M", type=int)
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
    except (ValidationError, AllRational, RationalDetected, AlphaZero, CapExceeded) as exc:
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
