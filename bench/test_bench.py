"""Tests of the benchmark's own parts: generator, checker, reference, spans.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kgpho import cli, spectra  # noqa: E402


def _argvs(workload, seed, count=12):
    return [workloads.argv(workloads.command(workload, seed, i), "out")
            for i in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv_and_other_seed_differs(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert _argvs(workload, 7) != _argvs(workload, 8)


def test_verify_covers_every_oracle_zone_and_free_branch():
    specs = [workloads.command("verify", 3, i) for i in range(5)]
    zones = {workloads.beta_zone(s, m) for s in specs if s["branch"] != "free"
             for m in (0, 1)}
    assert {"low", "mid", "high"} <= zones
    free = [s for s in specs if s["branch"] == "free"]
    assert len(free) == 1 and free[0]["v0"] == 0.0 and 0.2 <= free[0]["xi"] < 0.8


def test_verify_block_spreads_xi_over_thirds():
    specs = [workloads.command("verify", 5, i) for i in range(10, 15)]
    u = sorted((specs[i]["xi"] - 0.2) / 0.6 for i in (1, 2, 4))
    assert u[1] - u[0] == pytest.approx(1 / 3) and u[2] - u[1] == pytest.approx(1 / 3)


SPEC = dict(command="spectrum", v0=0.7, r0=1.3, b=0.4, xi=0.25, n=(0, 1), m=(0, 1),
            branch="positive", format="csv")


@pytest.fixture
def spectrum_output(tmp_path):
    path = tmp_path / "out.csv"
    code = cli.main(workloads.argv(SPEC, path))
    return code, path


def test_checker_accepts_real_output(spectrum_output):
    code, path = spectrum_output
    outcome = check.check(SPEC, code, path)
    assert code == 0
    assert outcome.error is None
    assert (outcome.rows_out, outcome.ok_rows, outcome.failed_rows, outcome.wrong_rows) == (
        4, 4, 0, 0)


def _rewrite_energy(path, factor):
    lines = path.read_text().split("\n")
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) * factor)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines))


def test_checker_flags_perturbed_energy(spectrum_output):
    code, path = spectrum_output
    _rewrite_energy(path, 1.0 + 1e-7)
    outcome = check.check(SPEC, code, path)
    assert outcome.wrong_rows == 1
    assert outcome.error and outcome.failed_rows == 4


def test_checker_accepts_energy_within_tolerance(spectrum_output):
    code, path = spectrum_output
    _rewrite_energy(path, 1.0 + 1e-12)
    assert check.check(SPEC, code, path).error is None


def test_checker_flags_missing_row(spectrum_output):
    code, path = spectrum_output
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:2] + lines[3:]))
    outcome = check.check(SPEC, code, path)
    assert outcome.rows_out == 3
    assert outcome.error and outcome.failed_rows == 4


def test_checker_flags_unexpected_exit_code(spectrum_output):
    _, path = spectrum_output
    for code in (3, None):
        outcome = check.check(SPEC, code, path)
        assert outcome.error and outcome.failed_rows == 4


def test_reference_tells_principal_from_other_negative_root():
    # Two negative-branch roots near +-2.83 (v0 = 1e-5, r0 = 1, omega_c = 1,
    # n = 0, m' = 3); the principal target Mc^2 + E_nr is near 4.5.
    system = reference.System(1e-5, 1.0, 1.0, 3.0, "negative")
    roots = [reference.MP.findroot(lambda e: system.residual(0, e), guess)
             for guess in (-2.83, 2.83)]
    assert roots[0] < 0 < roots[1]
    assert reference.is_principal_level(system, 0, float(roots[1]))
    assert not reference.is_principal_level(system, 0, float(roots[0]))
    assert not reference.is_principal_level(system, 0, 1.0)


def _span(sid, parent, start, end, name="x"):
    return spans.Span(sid, parent, name, start, end, 0)


def test_self_time_of_nested_spans():
    tree = [_span(0, -1, 0, 100), _span(1, 0, 10, 40), _span(2, 1, 20, 30),
            _span(3, 0, 50, 60)]
    assert spans.self_times(tree) == {0: 60, 1: 20, 2: 10, 3: 10}


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, -1, 0, 100), _span(1, 0, 10, 40), _span(2, 0, 30, 50),
            _span(3, 0, 90, 120)]
    assert spans.self_times(tree)[0] == 100 - 40 - 10


def test_summarize_groups_by_name():
    tree = [_span(0, -1, 0, 100, "cli.main"), _span(1, 0, 10, 40, "spectra.f"),
            _span(2, 0, 50, 60, "spectra.f")]
    stats = spans.summarize(tree)
    assert (stats["spectra.f"].calls, stats["spectra.f"].total_ns) == (2, 40)
    assert stats["cli.main"].self_ns == 60


def test_instrument_wraps_caller_names_and_restores(tmp_path):
    original = spectra.compute_level
    recorder = spans.Recorder()
    with spans.instrument(recorder, [cli, spectra]):
        assert spectra.compute_level is not original
        cli.main(workloads.argv(SPEC, tmp_path / "out.csv"))
    assert spectra.compute_level is original
    by_sid = {s.sid: s for s in recorder.spans}
    roots = [s for s in recorder.spans if s.parent == -1]
    assert [s.name for s in roots] == ["cli.main"]
    solves = [s for s in recorder.spans if s.name == "spectra.solve_kg_energy"]
    assert len(solves) == 4 and all(s.count == 1 for s in solves)
    assert all(by_sid[s.parent].name == "spectra.compute_level" for s in solves)
    assert {s.name for s in recorder.spans} >= {"model.make_state", "cli.run_spectrum"}
