"""Command-line front end: spectrum, wavefunction, verify and sweep commands.

All physical inputs are in natural units (energies in Mc^2, lengths in
Compton wavelengths, the field as the dimensionless cyclotron energy); see
the README for SI conversion formulas.  Output is deterministic: fixed
column order, shortest round-trip float formatting (17 significant digits
maximum), LF line endings, no timestamps.  NaN/Inf never appear in data
columns; failed rows carry a status code instead.

Exit codes: 0 success, 2 configuration error, 3 at least one requested
level has no root (``sweep``: every row has none; ``wavefunction``: also a
profile that is not finite in floating point), 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys as _sys
from dataclasses import replace

from . import spectra
from .model import (
    FREE_FIELD,
    NEGATIVE,
    POSITIVE,
    DegenerateProblemError,
    PhysicalSystem,
    make_state,
    spectral_params,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_ROOT = 3
EXIT_VERIFY = 4

_BRANCH_FLAGS = {"positive": POSITIVE, "negative": NEGATIVE, "free": FREE_FIELD}
_LIMIT_FLAGS = ("none", "nonrel", "kg-pho", "kg-ho", "nonrel-ho")


class ConfigError(Exception):
    def __init__(self, flag, message):
        super().__init__(f"{flag}: {message}")
        self.flag = flag


def _parse_range(text, flag):
    """Inclusive integer range 'lo..hi', or a single integer."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ConfigError(flag, f"expected INT or LO..HI, got {text!r}") from None
    if hi < lo:
        raise ConfigError(flag, f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _checked(convert, ok, requirement):
    """argparse type: convert the flag text, then require ``ok`` of the value."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value
    return parse


_FINITE = _checked(float, math.isfinite, "must be finite")
_POSITIVE_FINITE = _checked(float, lambda v: math.isfinite(v) and v > 0, "must be finite and > 0")
_AT_LEAST_2 = _checked(int, lambda v: v >= 2, "need >= 2")


def _fmt(value):
    """Deterministic cell text: shortest round-trip decimals, empty for None."""
    value = _json_safe(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _json_safe(value):
    if isinstance(value, float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("non-finite value in output")
        return value
    return value


def _write_table(cfg, columns, rows):
    """Serialize rows (list of dicts) as CSV or JSON to cfg.out or stdout."""
    if cfg.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        text = out.getvalue()
    else:
        payload = {
            "config": cfg.echo,
            "levels": [{c: _json_safe(row.get(c)) for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    _emit(cfg.out, text)


def _emit(path, text):
    if path in (None, "-"):
        _sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _build_system(args):
    try:
        return PhysicalSystem(
            v0=args.v0, rho0=args.r0, b_field=args.b, flux_xi=args.xi
        )
    except ValueError as exc:
        flag = {"v0": "--v0", "rho0": "--r0", "b_field": "--b"}.get(
            str(exc).split()[0], "--v0/--r0/--b/--xi"
        )
        raise ConfigError(flag, str(exc)) from None


def _validate_limit(args):
    limit = None if args.limit == "none" else args.limit
    field_free = limit in ("kg-pho", "kg-ho", "nonrel-ho")
    if field_free and (args.b != 0.0 or args.xi != 0.0):
        raise ConfigError("--limit", f"{limit} requires --b 0 and --xi 0")
    if field_free and getattr(args, "vary", None) in ("b", "xi"):
        raise ConfigError("--vary", f"--limit {limit} has no field to vary")
    if field_free and args.v0 <= 0.0:
        raise ConfigError("--v0", f"--limit {limit} requires v0 > 0")
    if limit == "nonrel" and args.v0 == 0.0 and args.b == 0.0:
        raise ConfigError("--limit", "nonrel requires v0 > 0 or b > 0")
    return limit


class _RunConfig(argparse.Namespace):
    """Parsed flags plus the deterministic config echo for JSON outputs."""

    @property
    def echo(self):
        keys = (
            "command", "v0", "r0", "b", "xi", "strict", "branch", "limit",
            "n", "m", "format", "verify", "tol", "grid_n", "r_max",
            "beta", "gamma", "samples", "vary", "start", "stop", "steps",
        )
        return {k: getattr(self, k) for k in keys if hasattr(self, k)}


def _state_grid(cfg):
    """States for every (n, m) of --n and --m, n ascending then m."""
    ns = _parse_range(cfg.n, "--n")
    if ns[0] < 0:
        raise ConfigError("--n", f"n must be >= 0, got {ns[0]}")
    ms = _parse_range(cfg.m, "--m")
    return [make_state(n, m, cfg.xi, strict=cfg.strict) for n in ns for m in ms]


def _problem(cfg):
    """The system, limit, branch and states that a command's flags ask for."""
    return _build_system(cfg), _validate_limit(cfg), _BRANCH_FLAGS[cfg.branch], _state_grid(cfg)


def _level_row(state, level=None, status="ok"):
    row = {
        "branch": level.branch if level else None,
        "n": state.n,
        "m": state.m,
        "m_eff": float(state.m_eff),
        "energy": level.energy if level else None,
        "residual": level.residual if level else None,
        "principal": level.principal if level else None,
        "oracle_dev": level.oracle_dev if level else None,
        "status": status,
    }
    return row


_SPECTRUM_COLUMNS = [
    "branch", "n", "m", "m_eff", "energy", "residual", "principal", "oracle_dev", "status",
]
_VERIFY_COLUMNS = _SPECTRUM_COLUMNS[:-1] + ["convergence_ratio", "status"]


def _solve_rows(cfg, system, states, branch, limit, with_oracle):
    if with_oracle:
        from . import oracle
    rows = []
    missing = 0
    for state in states:
        try:
            level = spectra.compute_level(system, state, branch=branch, limit=limit)
        except (DegenerateProblemError, LookupError) as exc:
            rows.append(_level_row(state, status=spectra.failure_status(exc)))
            missing += 1
            continue
        status = "ok"
        ratio = None
        if with_oracle:
            try:
                check = oracle.oracle_check(
                    system, state, level, n_points=cfg.grid_n, r_max=cfg.r_max
                )
            except ValueError:
                status = "oracle_error"
                missing += 1
            else:
                level.oracle_dev = check.deviation
                if math.isfinite(check.convergence_ratio):
                    ratio = check.convergence_ratio
        row = _level_row(state, level, status=status)
        row["convergence_ratio"] = ratio
        rows.append(row)
    return rows, missing


def run_spectrum(cfg):
    """The spectrum and verify commands: verify always runs the oracle, adds
    the convergence-ratio column and fails on deviations above --tol."""
    system, limit, branch, states = _problem(cfg)
    verify = cfg.command == "verify"
    rows, missing = _solve_rows(cfg, system, states, branch, limit, verify or cfg.verify)
    _write_table(cfg, _VERIFY_COLUMNS if verify else _SPECTRUM_COLUMNS, rows)
    if verify and any(r["oracle_dev"] is not None and r["oracle_dev"] > cfg.tol for r in rows):
        return EXIT_VERIFY
    return EXIT_NO_ROOT if missing else EXIT_OK


def _simpson(y, h):
    """Composite Simpson on a uniform grid (trapezoid for a trailing odd cell).

    Hand-written rather than ``scipy.integrate.simpson``: importing
    ``scipy.integrate`` adds about 0.3 s to the import of ``kgpho.cli``.
    """
    n = len(y) - 1
    total = 0.0
    last = n if n % 2 == 0 else n - 1
    if last >= 2:
        total += h / 3.0 * (
            y[0] + y[last] + 4.0 * sum(y[1:last:2]) + 2.0 * sum(y[2:last - 1:2])
        )
    if last != n:
        total += 0.5 * h * (y[-2] + y[-1])
    return total


_JSON_SAMPLE = '    {\n      "r": %r,\n      "g": %r,\n      "psi2_2pi_r": %r\n    }'


def run_wavefunction(cfg):
    import numpy as np

    from . import wavefun

    if (cfg.beta is None) != (cfg.gamma is None):
        raise ConfigError("--beta/--gamma", "give both or neither")
    system, limit, branch, states = _problem(cfg)
    if len(states) != 1:
        raise ConfigError("--n/--m", "wavefunction takes a single (n, m)")
    state = states[0]
    if cfg.beta is not None:
        if cfg.beta <= 0 or cfg.gamma <= 0:
            raise ConfigError("--beta/--gamma", "must be > 0")
        beta, gamma = cfg.beta, cfg.gamma
    else:
        try:
            level = spectra.compute_level(system, state, branch=branch, limit=limit)
            p = spectral_params(system, level.energy, state, level.branch)
            if not p.bound_state:
                raise DegenerateProblemError(f"no bound-state problem at E={level.energy}")
        except (DegenerateProblemError, LookupError) as exc:
            print(f"error: no solvable level: {exc}", file=_sys.stderr)
            return EXIT_NO_ROOT
        beta, gamma = p.beta, p.gamma

    non_finite = (
        f"error: non-finite profile: r^beta, the norm constant or their product "
        f"leaves the float range at n={state.n}, beta={beta!r}, gamma={gamma!r}"
    )
    try:
        w = wavefun.radial_wavefunction(state.n, beta, gamma)
    except OverflowError:
        print(non_finite, file=_sys.stderr)
        return EXIT_NO_ROOT
    r_max = cfg.r_max if cfg.r_max is not None else wavefun.support_radius(w.n, w.beta, w.gamma)
    r = np.linspace(0.0, r_max, cfg.samples)
    # A profile outside the float range is reported below, by name.
    with np.errstate(over="ignore", invalid="ignore"):
        g = wavefun.eval_radial(w, r)
        weight = g * g * r
    rs, gs, ws = r.tolist(), g.tolist(), weight.tolist()
    norm = _simpson(ws, rs[1] - rs[0])
    if not (np.isfinite(g).all() and np.isfinite(weight).all() and math.isfinite(norm)):
        print(non_finite, file=_sys.stderr)
        return EXIT_NO_ROOT

    # Whole columns at a time, each float as its repr: the bytes that
    # csv.writer with _fmt, and json.dumps, write for the same rows.
    if cfg.format == "csv":
        body = "".join(["%r,%r,%r\n" % row for row in zip(rs, gs, ws)])
        text = (
            f"r,g,psi2_2pi_r\n{body}"
            f"# norm_constant={w.norm!r} integrated_norm={norm!r}\n"
        )
    else:
        payload = {
            "config": cfg.echo,
            "samples": None,
            "meta": {"norm_constant": w.norm, "integrated_norm": norm},
        }
        samples = ",\n".join([_JSON_SAMPLE % row for row in zip(rs, gs, ws)])
        # A raw newline then two spaces and a quote starts a top-level key:
        # JSON strings escape their newlines.
        text = json.dumps(payload, indent=2, allow_nan=False).replace(
            '\n  "samples": null,', f'\n  "samples": [\n{samples}\n  ],', 1
        ) + "\n"
    _emit(cfg.out, text)
    return EXIT_OK


_SWEEP_COLUMNS = [
    "param", "value", "branch", "n", "m", "m_eff", "energy", "residual",
    "principal", "delta_e", "status",
]


def run_sweep(cfg):
    system, limit, branch, states = _problem(cfg)
    vary = {"b": "b_field", "xi": "flux_xi", "v0": "v0"}[cfg.vary]
    for flag, value in (("--start", cfg.start), ("--stop", cfg.stop)):
        try:
            replace(system, **{vary: value})
        except ValueError as exc:
            raise ConfigError(flag, str(exc)) from None
    try:
        sweep = spectra.sweep_levels(
            system, vary, (cfg.start, cfg.stop, cfg.steps), states, branch=branch, limit=limit
        )
    except ValueError as exc:
        raise ConfigError("--start/--stop", str(exc)) from None
    rows = []
    ok = 0
    for sr in sweep:
        row = _level_row(sr.state, sr.level, status=sr.status)
        del row["oracle_dev"]
        row["param"] = sr.param
        row["value"] = sr.value
        row["delta_e"] = sr.delta_e
        rows.append(row)
        if sr.status == "ok":
            ok += 1
    _write_table(cfg, _SWEEP_COLUMNS, rows)
    return EXIT_OK if ok else EXIT_NO_ROOT


def _add_system_flags(p):
    p.add_argument("--v0", type=float, default=1.0,
                   help="well depth V0 in Mc^2 units (default 1)")
    p.add_argument("--r0", type=float, default=1.0,
                   help="well radius r0 in Compton wavelengths (default 1)")
    p.add_argument("--b", type=float, default=0.0,
                   help="dimensionless cyclotron energy omega_c = eB/(Mc) (default 0)")
    p.add_argument("--xi", type=float, default=0.0,
                   help="solenoid flux in flux quanta (default 0)")
    p.add_argument("--strict", action="store_true",
                   help="warn when m' or xi leaves the integer m' >= 1 regime")


def _add_state_flags(p, n_default="0", m_default="1"):
    p.add_argument("--n", default=n_default, help="radial quantum number(s), INT or LO..HI")
    p.add_argument("--m", default=m_default, help="magnetic quantum number(s), INT or LO..HI")
    p.add_argument("--branch", choices=sorted(_BRANCH_FLAGS), default="positive")
    p.add_argument("--limit", choices=_LIMIT_FLAGS, default="none",
                   help="evaluate a limiting-case formula instead of the full solve")


def _add_output_flags(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_oracle_flags(p):
    p.add_argument("--tol", type=float, default=1e-5,
                   help="oracle deviation tolerance (default 1e-5); the oracle's own "
                        "floor is about 2e-10 up to n = 10, 2e-9 at n = 20, 3e-8 at "
                        "n = 40 and 4e-6 at n = 300")
    p.add_argument("--grid-n", dest="grid_n", default=None,
                   type=_checked(int, lambda v: v >= 100, "need >= 100"),
                   help="oracle grid size (default 2000 + 20 n for level n; "
                        "the check also runs on twice as many points)")
    p.add_argument("--r-max", dest="r_max", type=_POSITIVE_FINITE, default=None,
                   help="override the oracle / sampling box radius")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kgpho",
        description="Bound states of a planar relativistic particle in a "
                    "pseudoharmonic well under magnetic and flux fields. "
                    "All inputs in natural units (hbar = c = M = e = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("spectrum", "solve energy levels"),
                       ("verify", "check levels against the finite-difference oracle")):
        p = sub.add_parser(name, help=text)
        _add_system_flags(p)
        _add_state_flags(p)
        _add_output_flags(p)
        _add_oracle_flags(p)
        if name == "spectrum":
            p.add_argument("--verify", action="store_true",
                           help="also fill the oracle deviation column")

    p = sub.add_parser("wavefunction", help="sample a normalized radial profile")
    _add_system_flags(p)
    _add_state_flags(p)
    _add_output_flags(p)
    p.add_argument("--beta", type=float, default=None,
                   help="explicit radial exponent (with --gamma, skips solving)")
    p.add_argument("--gamma", type=float, default=None,
                   help="explicit gaussian width parameter")
    p.add_argument("--samples", type=_AT_LEAST_2, default=2001)
    p.add_argument("--r-max", dest="r_max", type=_POSITIVE_FINITE, default=None)

    p = sub.add_parser("sweep", help="solve levels across a parameter grid")
    _add_system_flags(p)
    _add_state_flags(p, m_default="0..1")
    _add_output_flags(p)
    p.add_argument("--vary", choices=("b", "xi", "v0"), required=True)
    p.add_argument("--start", type=_FINITE, required=True)
    p.add_argument("--stop", type=_FINITE, required=True)
    p.add_argument("--steps", type=_AT_LEAST_2, default=5)

    return parser


# Built once per process; each call parses into a fresh _RunConfig and looks
# its command's function up by name when it runs, so a caller that replaces
# run_spectrum and the others (a tracer, a test) still reaches them.
_PARSER = _build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv, namespace=_RunConfig())
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    run = {"spectrum": run_spectrum, "verify": run_spectrum,
           "wavefunction": run_wavefunction, "sweep": run_sweep}[args.command]
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error ({exc.flag}): {exc}", file=_sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    _sys.exit(main())
