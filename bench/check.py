"""Checks every row of a kgpho output file against the independent reference.

A command *fails* (and every row it should have written counts as failed)
when the program raised, wrote no parsable output, wrote too few or
unexpected rows, returned an exit code its own rows do not imply, or wrote
a row the reference rejects.  A row is *failed* when its status is not ok,
when its oracle deviation exceeds the tolerance, or when its command failed.
A row is *wrong* when it is ok yet the reference rejects it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import eval_genlaguerre

import reference

ORACLE_TOL = 1e-5  # the CLI's default --tol; the workloads do not override it
NORM_TOL = 1e-6  # Simpson norm of >= 5000 samples against the exact norm 1
WAVE_TOL = 1e-8  # |g - g_ref| relative to max |g_ref|
WAVE_EXACT_POINTS = 9  # rows per wave function checked at 30 digits

EXIT_OK, EXIT_NO_ROOT, EXIT_VERIFY = 0, 3, 4


@dataclass
class Outcome:
    rows_expected: int
    rows_out: int = 0
    failed_rows: int = 0
    ok_rows: int = 0
    wrong_rows: int = 0
    oracle_dev_max: Optional[float] = None
    error: Optional[str] = None  # why the command failed; None if it passed


def _cell(text):
    return None if text == "" else float(text)


def _expected_levels(spec):
    n_lo, n_hi = spec["n"]
    m_lo, m_hi = spec["m"]
    states = [(n, m) for n in range(n_lo, n_hi + 1) for m in range(m_lo, m_hi + 1)]
    if spec["command"] != "sweep":
        return [(None, n, m) for n, m in states]
    values = np.linspace(spec["start"], spec["stop"], spec["steps"])
    return [(float(v), n, m) for v in values for n, m in states]


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return [dict(zip(header, row)) for row in reader]


def check(spec, exit_code, path):
    """Outcome of one command from its spec, exit code and output file."""
    if spec["command"] == "wavefunction":
        return _check_wavefunction(spec, exit_code, path)
    return _check_levels(spec, exit_code, path)


def _fail(outcome, reason):
    outcome.error = reason
    outcome.failed_rows = outcome.rows_expected
    return outcome


def _check_levels(spec, exit_code, path):
    expected = _expected_levels(spec)
    out = Outcome(rows_expected=len(expected))
    if exit_code is None:
        return _fail(out, "raised")
    try:
        rows = _read_csv(path)
    except (OSError, ValueError, StopIteration) as exc:
        return _fail(out, f"unreadable output: {exc}")
    out.rows_out = len(rows)
    if len(rows) != len(expected):
        return _fail(out, f"{len(rows)} rows, expected {len(expected)}")

    scale = max(1.0, abs(spec.get("start", 0.0)), abs(spec.get("stop", 0.0)))
    systems = {}
    any_ok = any_bad = over_tol = False
    prev = None
    for (value, n, m), row in zip(expected, rows):
        if int(row["n"]) != n or int(row["m"]) != m:
            return _fail(out, f"row ({row['n']}, {row['m']}) where ({n}, {m}) was expected")
        params = {k: spec[k] for k in ("v0", "r0", "b", "xi")}
        if value is not None:
            if abs(float(row["value"]) - value) > 1e-12 * scale:
                return _fail(out, f"sweep value {row['value']} where {value!r} was expected")
            params[spec["vary"]] = float(row["value"])
        dev = _cell(row.get("oracle_dev", ""))
        if dev is not None:
            out.oracle_dev_max = dev if out.oracle_dev_max is None else max(out.oracle_dev_max, dev)
            over_tol |= dev > ORACLE_TOL
        if row["status"] != "ok":
            any_bad = True
            out.failed_rows += 1
            prev = None
            continue
        any_ok = True
        out.ok_rows += 1
        if dev is not None and dev > ORACLE_TOL:
            out.failed_rows += 1
        energy = _cell(row["energy"])
        if not _level_ok(spec, params, n, m, row, energy, systems):
            out.wrong_rows += 1
        elif value is not None and prev is not None and prev[:2] == (value, n):
            if _cell(row["delta_e"]) != energy - prev[2]:
                out.wrong_rows += 1
        prev = (value, n, energy)

    if spec["command"] == "sweep":
        want = EXIT_OK if any_ok else EXIT_NO_ROOT
    elif spec["command"] == "verify" and over_tol:
        want = EXIT_VERIFY
    else:
        want = EXIT_NO_ROOT if any_bad else EXIT_OK
    if exit_code != want:
        return _fail(out, f"exit code {exit_code}, rows imply {want}")
    if out.wrong_rows:
        return _fail(out, f"{out.wrong_rows} rows disagree with the reference")
    return out


def _level_ok(spec, params, n, m, row, energy, systems):
    m_eff = m + params["xi"]
    if energy is None or _cell(row["m_eff"]) != m_eff or row["principal"] != "true":
        return False
    if spec["branch"] == "free":
        return reference.is_landau_level(n, m_eff, params["b"], energy)
    key = (params["v0"], params["r0"], params["b"], m_eff)
    if key not in systems:
        systems[key] = reference.System(*key, spec["branch"])
    return reference.is_principal_level(systems[key], n, energy)


def _check_wavefunction(spec, exit_code, path):
    samples = spec["samples"]
    out = Outcome(rows_expected=samples)
    if exit_code != EXIT_OK:
        return _fail(out, "raised" if exit_code is None else f"exit code {exit_code}")
    try:
        if spec["format"] == "json":
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            table = np.array([[s["r"], s["g"], s["psi2_2pi_r"]] for s in payload["samples"]])
            meta = payload["meta"]
        else:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            meta = dict(item.split("=") for item in lines[-2][2:].split())
            table = np.array([line.split(",") for line in lines[1:-2]], dtype=float)
        norm_constant = float(meta["norm_constant"])
        integrated = float(meta["integrated_norm"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return _fail(out, f"unreadable output: {exc}")
    out.rows_out = len(table)
    if len(table) != samples:
        return _fail(out, f"{len(table)} rows, expected {samples}")
    r, g, psi = table.T
    r_max = r[-1]
    if np.any(np.abs(r - r_max * np.arange(samples) / (samples - 1)) > 1e-12 * r_max):
        return _fail(out, "sample radii are not a uniform grid from 0")

    n = spec["n"][0]
    system = reference.System(spec["v0"], spec["r0"], spec["b"], spec["m"][0] + spec["xi"],
                              "positive")
    beta, gamma = system.beta_gamma(reference.positive_root(system, n))
    norm = reference.radial_norm(n, beta, gamma)
    bf, gf, nf = float(beta), float(gamma), float(norm)
    x = gf * r * r
    g_ref = nf * r ** bf * np.exp(-0.5 * x) * eval_genlaguerre(n, bf, x)
    scale = float(np.max(np.abs(g_ref)))
    bad = np.abs(g - g_ref) > WAVE_TOL * scale
    bad |= np.abs(psi - g * g * r) > 1e-12 * np.abs(psi) + 1e-300
    for i in np.linspace(1, samples - 1, WAVE_EXACT_POINTS).astype(int):
        exact = reference.radial_value(n, beta, gamma, norm, r[i])
        bad[i] |= abs(g[i] - float(exact)) > WAVE_TOL * scale
    out.ok_rows = samples
    out.wrong_rows = int(np.count_nonzero(bad))
    problems = []
    if out.wrong_rows:
        problems.append(f"{out.wrong_rows} samples disagree with the reference")
    if not math.isclose(norm_constant, nf, rel_tol=1e-9):
        problems.append(f"norm_constant {norm_constant!r}, reference {nf!r}")
    if abs(integrated - 1.0) > NORM_TOL:
        problems.append(f"integrated_norm {integrated!r} is not 1 within {NORM_TOL}")
    if problems:
        out.wrong_rows = out.wrong_rows or samples
        return _fail(out, "; ".join(problems))
    return out
