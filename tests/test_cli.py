import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from kgpho import cli, wavefun
from kgpho.cli import main
from kgpho.model import PhysicalSystem, make_state, spectral_params
from kgpho.spectra import compute_level

GOLDEN_KG_LEVEL = 2.3675431291311684


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data]


def test_spectrum_csv_grid(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(
        [
            "spectrum", "--v0", "1", "--r0", "1", "--b", "0", "--xi", "0",
            "--n", "0..2", "--m", "0..2", "--branch", "positive",
            "--format", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 9
    by_nm = {(int(r["n"]), int(r["m"])): r for r in rows}
    assert float(by_nm[(0, 1)]["energy"]) == pytest.approx(GOLDEN_KG_LEVEL, rel=1e-12)
    assert all(abs(float(r["residual"])) <= 1e-12 for r in rows)
    assert all(r["status"] == "ok" for r in rows)
    # deterministic ordering: n ascending then m
    keys = [(int(r["n"]), int(r["m"])) for r in rows]
    assert keys == sorted(keys)


def test_spectrum_landau_row(tmp_path):
    out = tmp_path / "landau.csv"
    code = main(
        ["spectrum", "--v0", "0", "--b", "1", "--branch", "negative",
         "--n", "0", "--m", "1", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["branch"] == "free_field"
    assert float(rows[0]["energy"]) == 1.5


def test_spectrum_nonrel_limit(tmp_path):
    out = tmp_path / "nr.csv"
    code = main(
        ["spectrum", "--branch", "nonrel", "--v0", "1", "--r0", "1", "--b", "2",
         "--n", "0", "--m", "1", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert float(rows[0]["energy"]) == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-12)


def test_spectrum_missing_root_exit_code(tmp_path):
    # m = 0 at v0 = 0 has no bound state; m = 1 solves fine.
    out = tmp_path / "partial.csv"
    code = main(
        ["spectrum", "--v0", "0", "--b", "1", "--branch", "positive",
         "--n", "0", "--m", "0..1", "--out", str(out)]
    )
    assert code == 3
    rows = read_csv(out)
    assert len(rows) == 2
    assert rows[0]["status"] == "degenerate" and rows[0]["energy"] == ""
    assert rows[1]["status"] == "ok" and rows[1]["energy"] != ""


def test_spectrum_config_errors(tmp_path):
    assert main(["spectrum", "--n", "2..1"]) == 2
    assert main(["spectrum", "--n", "abc"]) == 2
    assert main(["spectrum", "--format", "xml"]) == 2
    assert main(["spectrum", "--r0", "-1"]) == 2
    assert main(["spectrum", "--branch", "kg-pho", "--b", "1"]) == 2
    assert main(["nonsense"]) == 2


def test_negative_n_is_config_error():
    assert main(["spectrum", "--n", "-1"]) == 2
    assert main(["spectrum", "--n", "-1..1"]) == 2
    assert main(["sweep", "--vary", "b", "--start", "0", "--stop", "1", "--n", "-1"]) == 2
    assert main(["wavefunction", "--beta", "1", "--gamma", "1", "--n", "-1"]) == 2


def test_wavefunction_without_bound_state_exits_no_root(capsys):
    # m = 0 in a pure field: beta = |m'| = 0, so the level has no radial profile.
    for extra in (["--branch", "free"], ["--branch", "nonrel"]):
        assert main(["wavefunction", "--v0", "0", "--b", "1", "--m", "0"] + extra) == 3
        assert "no solvable level" in capsys.readouterr().err


def test_oracle_grid_flags_are_config_errors():
    for command in (["spectrum", "--verify"], ["verify"]):
        assert main(command + ["--grid-n", "50"]) == 2
        assert main(command + ["--r-max", "0"]) == 2
        assert main(command + ["--r-max", "-1"]) == 2
        assert main(command + ["--r-max", "inf"]) == 2


def test_field_free_limits_reject_fields(capsys):
    # kg-ho used to print the b = 0 level and echo m_eff = 0.5 while using |m|.
    assert main(["spectrum", "--branch", "kg-ho", "--v0", "1", "--b", "1", "--xi", "0.5"]) == 2
    assert main(["spectrum", "--branch", "kg-ho", "--v0", "1", "--xi", "0.5"]) == 2
    assert main(["spectrum", "--branch", "nonrel-ho", "--v0", "1", "--b", "1"]) == 2
    assert main(["spectrum", "--branch", "kg-ho", "--b", "1"]) == 2
    assert main(["verify", "--branch", "kg-pho", "--b", "1"]) == 2
    assert main(["wavefunction", "--branch", "nonrel-pho", "--b", "1"]) == 2
    assert capsys.readouterr().err.count("config error (--branch): ") == 6


# One call per row of the branch table, with flags the row admits.
@pytest.mark.parametrize(
    "name, flags, label",
    [
        ("positive", ["--v0", "1"], "positive"),
        ("negative", ["--v0", "1", "--b", "1"], "negative"),
        ("free", ["--b", "1"], "free_field"),
        ("nonrel", ["--v0", "1", "--b", "1"], "nonrel_fields"),
        ("nonrel-pho", ["--v0", "1"], "nonrel_pho"),
        ("kg-pho", ["--v0", "1"], "kg_pho"),
        ("kg-ho", ["--v0", "1"], "kg_ho"),
        ("nonrel-ho", ["--v0", "1"], "nonrel_ho"),
    ],
)
def test_every_branch_name_selects_its_row(tmp_path, name, flags, label):
    out = tmp_path / "row.csv"
    argv = ["spectrum", "--branch", name, *flags, "--n", "0", "--m", "1", "--out", str(out)]
    assert main(argv) == 0
    assert [(r["branch"], r["status"]) for r in read_csv(out)] == [(label, "ok")]


def test_rows_without_a_bound_state_are_degenerate_rows(tmp_path):
    out = tmp_path / "degenerate.csv"
    for flags in (["--branch", "kg-ho", "--v0", "0"], ["--branch", "nonrel", "--v0", "0", "--b", "0"]):
        assert main(["spectrum", *flags, "--out", str(out)]) == 3
        assert [r["status"] for r in read_csv(out)] == ["degenerate"]


def test_spectrum_json_matches_csv(tmp_path):
    args = ["spectrum", "--v0", "1", "--r0", "1", "--n", "0..1", "--m", "1..2"]
    csv_out = tmp_path / "a.csv"
    json_out = tmp_path / "a.json"
    assert main(args + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert main(args + ["--format", "json", "--out", str(json_out)]) == 0
    csv_rows = read_csv(csv_out)
    payload = json.loads(json_out.read_text())
    assert payload["config"]["v0"] == 1.0
    levels = payload["levels"]
    assert len(levels) == len(csv_rows) == 4
    for crow, jrow in zip(csv_rows, levels):
        assert float(crow["energy"]) == jrow["energy"]
        assert int(crow["n"]) == jrow["n"]
        assert crow["principal"] == ("true" if jrow["principal"] else "false")


def test_byte_identical_reruns(tmp_path):
    for fmt in ("csv", "json"):
        pair = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.{fmt}"
            code = main(
                ["spectrum", "--v0", "1.3", "--r0", "0.8", "--b", "0.4",
                 "--n", "0..2", "--m", "0..2", "--format", fmt, "--out", str(out)]
            )
            assert code == 0
            pair.append(out.read_bytes())
        assert pair[0] == pair[1]


def test_csv_uses_lf_line_endings(tmp_path):
    out = tmp_path / "lf.csv"
    main(["spectrum", "--n", "0", "--m", "1", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_wavefunction_explicit_shape(tmp_path):
    out = tmp_path / "wf.csv"
    code = main(
        ["wavefunction", "--beta", "1", "--gamma", "1", "--n", "0",
         "--samples", "5", "--r-max", "2", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 5
    assert float(rows[0]["r"]) == 0.0 and float(rows[0]["g"]) == 0.0
    # pointwise: g(0.5) = sqrt(2) * 0.5 * exp(-1/8)
    assert float(rows[1]["r"]) == 0.5
    assert float(rows[1]["g"]) == pytest.approx(
        math.sqrt(2.0) * 0.5 * math.exp(-0.125), rel=1e-13
    )
    with open(out, encoding="utf-8") as fh:
        tail = fh.read().strip().splitlines()[-1]
    assert tail.startswith("# norm_constant=")


def test_wavefunction_integrated_norm(tmp_path):
    out = tmp_path / "wf.json"
    code = main(
        ["wavefunction", "--v0", "1", "--r0", "1", "--n", "0", "--m", "1",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["integrated_norm"] == pytest.approx(1.0, abs=1e-6)
    assert payload["samples"][0]["r"] == 0.0
    assert payload["samples"][0]["g"] == 0.0


def _per_cell_wavefunction_text(argv):
    """The reference writer: csv.writer with ``_fmt`` on each cell, and
    ``json.dumps(indent=2)`` of a list of row dicts, for the profile that
    ``kgpho wavefunction`` samples."""
    cfg = cli._build_parser().parse_args(argv, namespace=cli._RunConfig())
    if cfg.beta is not None:
        w = wavefun.radial_wavefunction(int(cfg.n), cfg.beta, cfg.gamma)
    else:
        system = PhysicalSystem(v0=cfg.v0, rho0=cfg.r0, b_field=cfg.b, flux_xi=cfg.xi)
        state = make_state(int(cfg.n), int(cfg.m), cfg.xi)
        level = compute_level(system, state)
        p = spectral_params(system, level.energy, state, level.branch)
        w = wavefun.radial_wavefunction(state.n, p.beta, p.gamma)
    r_max = cfg.r_max if cfg.r_max is not None else wavefun.support_radius(w.n, w.beta, w.gamma)
    r = np.linspace(0.0, r_max, cfg.samples)
    g = wavefun.eval_radial(w, r)
    weight = g * g * r
    norm = float(cli._simpson(weight.tolist(), r[1] - r[0]))
    columns = ["r", "g", "psi2_2pi_r"]
    rows = [dict(zip(columns, map(float, cells))) for cells in zip(r, g, weight)]
    if cfg.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cli._fmt(row[c]) for c in columns])
        out.write(f"# norm_constant={cli._fmt(w.norm)} integrated_norm={cli._fmt(norm)}\n")
        return out.getvalue()
    payload = {
        "config": cfg.echo,
        "samples": rows,
        "meta": {"norm_constant": w.norm, "integrated_norm": norm},
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "args",
    [
        ["--v0", "1", "--n", "1", "--m", "1", "--samples", "2"],
        ["--v0", "1", "--n", "1", "--m", "1", "--samples", "3"],
        ["--v0", "1", "--n", "1", "--m", "1", "--samples", "4"],
        ["--v0", "1", "--n", "2", "--m", "1", "--r-max", "0.5"],
        ["--beta", "0.3", "--gamma", "2.5", "--n", "3"],
        ["--v0", "1", "--n", "60", "--m", "2", "--samples", "20000"],
    ],
)
def test_wavefunction_output_matches_per_cell_writer(tmp_path, args, fmt):
    out = tmp_path / f"wf.{fmt}"
    argv = ["wavefunction", *args, "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    expected = _per_cell_wavefunction_text(argv)
    assert out.read_bytes() == expected.encode("utf-8")
    if "60" in args:
        # The case that exercises signs and exponents in the float text.
        assert "-0." in expected and "e-05" in expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "args",
    [
        # r^beta overflows and N underflows inside eval_radial.
        ["--beta", "400", "--gamma", "1e-3", "--n", "0", "--m", "1"],
        ["--v0", "1e4", "--r0", "10", "--n", "0", "--m", "1"],
        # N overflows.
        ["--beta", "1000", "--gamma", "1e6", "--n", "0", "--m", "1"],
    ],
)
def test_wavefunction_non_finite_profile_exits_no_root(tmp_path, capsys, args, fmt):
    out = tmp_path / f"wf.{fmt}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # NumPy's overflow warnings must not escape
        code = main(["wavefunction", *args, "--format", fmt, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite profile") and err.count("\n") == 1
    assert err.endswith("\n")
    assert not out.exists()


def test_system_constants_outside_float_range_are_config_errors(capsys):
    assert main(["spectrum", "--b", "1e300", "--n", "0", "--m", "1"]) == 2
    assert "(--b)" in capsys.readouterr().err
    assert main(["spectrum", "--r0", "1e-300", "--n", "0", "--m", "1"]) == 2
    assert "(--r0)" in capsys.readouterr().err
    assert main(["wavefunction", "--v0", "1e307", "--r0", "100"]) == 2
    assert "(--v0)" in capsys.readouterr().err
    assert main(["sweep", "--vary", "b", "--start", "1e300", "--stop", "1"]) == 2
    assert "(--start)" in capsys.readouterr().err
    assert main(["sweep", "--vary", "v0", "--r0", "100", "--start", "1", "--stop", "1e307"]) == 2
    assert "(--stop)" in capsys.readouterr().err


def test_wavefunction_config_errors(tmp_path):
    assert main(["wavefunction", "--beta", "1", "--n", "0"]) == 2
    assert main(["wavefunction", "--beta", "1", "--gamma", "0", "--n", "0"]) == 2
    for bad in ("nan", "inf", "0", "-1"):
        assert main(["wavefunction", "--beta", bad, "--gamma", "1", "--n", "0"]) == 2
        assert main(["wavefunction", "--beta", "1", "--gamma", bad, "--n", "0"]) == 2
    assert main(["wavefunction", "--samples", "1", "--beta", "1", "--gamma", "1", "--n", "0"]) == 2
    assert main(["wavefunction", "--n", "0..2"]) == 2


def test_verify_landau_set(tmp_path):
    out = tmp_path / "verify.csv"
    code = main(
        ["verify", "--v0", "0", "--b", "1", "--branch", "free",
         "--n", "0..1", "--m", "1..2", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 4
    for r in rows:
        assert float(r["oracle_dev"]) <= 1e-6
        assert r["convergence_ratio"] != ""


def test_verify_tight_tolerance_fails(tmp_path):
    out = tmp_path / "verify_tight.csv"
    code = main(
        ["verify", "--v0", "1", "--r0", "1", "--n", "0", "--m", "1",
         "--tol", "1e-13", "--out", str(out)]
    )
    assert code == 4
    rows = read_csv(out)
    assert len(rows) == 1  # report still lists the level


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_tolerance_must_be_positive_and_finite(tol):
    # nan passed every level (dev > nan is False), and -1 failed every one.
    assert main(["verify", "--n", "0", "--m", "1", "--tol", tol]) == 2


def test_config_error_names_its_flag_once(capsys):
    assert main(["spectrum", "--n", "-1"]) == 2
    assert capsys.readouterr().err == "config error (--n): n must be >= 0, got -1\n"
    assert main(["spectrum", "--xi", "inf"]) == 2
    assert capsys.readouterr().err == "config error (--xi): flux_xi must be finite, got inf\n"


@pytest.mark.parametrize("r_max", ["1e300", "1e-300"])
def test_verify_box_outside_float_range_is_oracle_error(tmp_path, capsys, r_max):
    out = tmp_path / "verify_box.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--n", "0", "--m", "1", "--r-max", r_max, "--out", str(out)])
    assert code == 3
    assert [r["status"] for r in read_csv(out)] == ["oracle_error"]
    assert all(w.category is UserWarning for w in caught)
    assert capsys.readouterr().err == ""


def test_consecutive_main_calls_share_no_state(tmp_path, monkeypatch):
    # The parser is built once per process; main must not rebuild it, and no
    # flag of one call may reach the next.
    monkeypatch.setattr(cli, "_build_parser", None)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--verify", "--n", "0", "--m", "1", "--out", str(out)]) == 0
    assert read_csv(out)[0]["oracle_dev"] != ""
    assert main(["spectrum", "--n", "0", "--m", "1", "--out", str(out)]) == 0
    assert read_csv(out)[0]["oracle_dev"] == ""
    sweep = ["sweep", "--vary", "b", "--start", "0", "--stop", "1", "--n", "0", "--m", "1",
             "--out", str(out)]
    assert main(sweep + ["--steps", "3"]) == 0
    assert len(read_csv(out)) == 3
    assert main(sweep) == 0
    assert len(read_csv(out)) == 5


def test_verify_empty_state_set():
    assert main(["verify", "--n", "1..0", "--m", "1"]) == 2


def test_sweep_field_splitting(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--vary", "b", "--start", "0", "--stop", "2", "--steps", "5",
         "--n", "0", "--m", "0..1", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 10
    deltas = [float(r["delta_e"]) for r in rows if r["delta_e"] != ""]
    assert len(deltas) == 5
    assert max(deltas) - min(deltas) > 1e-6


def test_sweep_flux_equivalence(tmp_path):
    out = tmp_path / "sweep_xi.csv"
    code = main(
        ["sweep", "--vary", "xi", "--start", "0", "--stop", "2", "--steps", "3",
         "--n", "0", "--m", "0..2", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    key = {(float(r["value"]), int(r["m"])): float(r["energy"]) for r in rows}
    assert key[(2.0, 0)] == pytest.approx(key[(0.0, 2)], rel=1e-12)
    assert key[(1.0, 1)] == pytest.approx(key[(0.0, 2)], rel=1e-12)


def test_sweep_config_errors(capsys):
    assert main(["sweep", "--vary", "b", "--start", "0", "--stop", "1", "--steps", "1"]) == 2
    assert main(["sweep", "--start", "0", "--stop", "1"]) == 2  # --vary required
    for branch in ("kg-pho", "kg-ho", "nonrel-ho"):
        for vary in ("b", "xi"):
            args = ["sweep", "--branch", branch, "--vary", vary, "--start", "0", "--stop", "1"]
            assert main(args) == 2
            assert "(--branch)" in capsys.readouterr().err
    assert main(["sweep", "--vary", "v0", "--start", "-1", "--stop", "1"]) == 2
    assert "(--start)" in capsys.readouterr().err
    assert main(["sweep", "--vary", "b", "--start", "0", "--stop", "-1"]) == 2
    assert "(--stop)" in capsys.readouterr().err
    # Each end is finite, but the width stop - start overflows.
    assert main(["sweep", "--vary", "xi", "--start=-1e308", "--stop=1e308", "--steps", "3",
                 "--n", "0", "--m", "1"]) == 2
    assert "(--start/--stop)" in capsys.readouterr().err


def test_sweep_failed_rows_use_spectrum_statuses(tmp_path):
    out = tmp_path / "sweep_v0.csv"
    code = main(
        ["sweep", "--branch", "kg-ho", "--vary", "v0", "--start", "0", "--stop", "1",
         "--steps", "2", "--n", "0", "--m", "1", "--out", str(out)]
    )
    # A sweep exits 3 only when no row is ok.
    assert code == 0
    assert [r["status"] for r in read_csv(out)] == ["degenerate", "ok"]


def test_sweep_replaces_the_base_value_it_varies(tmp_path):
    # The base --v0 0 (with --b 0) has no bound state on either row, but every
    # swept point does.
    out = tmp_path / "sweep.csv"
    for argv, count in (
        (["--branch", "nonrel", "--vary", "b", "--start", "0.5", "--stop", "1", "--steps", "3"], 3),
        (["--branch", "kg-pho", "--vary", "v0", "--start", "1", "--stop", "2", "--steps", "2"], 2),
    ):
        assert main(["sweep", "--v0", "0", *argv, "--n", "0", "--m", "1", "--out", str(out)]) == 0
        assert [r["status"] for r in read_csv(out)] == ["ok"] * count


def test_verify_free_field_small_beta(tmp_path):
    # beta = m' = 0.3: exact Landau levels that the oracle must pass.
    out = tmp_path / "verify_free.csv"
    code = main(
        ["verify", "--branch", "free", "--v0", "0", "--b", "1", "--xi", "0.3",
         "--n", "0..1", "--m", "0", "--out", str(out)]
    )
    assert code == 0
    for r in read_csv(out):
        assert 3.6 <= float(r["convergence_ratio"]) <= 4.4


def test_verify_deviation_floor(tmp_path):
    out = tmp_path / "verify_kg_ho.csv"
    main(
        ["verify", "--branch", "kg-ho", "--v0", "2.5", "--r0", "0.6",
         "--n", "0..2", "--m", "0..2", "--out", str(out)]
    )
    devs = [float(r["oracle_dev"]) for r in read_csv(out) if r["oracle_dev"] != ""]
    assert len(devs) >= 6
    assert max(devs) <= 1e-9


def test_stdout_output(capsys):
    code = main(["spectrum", "--n", "0", "--m", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("branch,n,m,")
    assert "2.3675431291311684" in captured.out
