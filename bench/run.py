"""kgpho benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

One caller runs kgpho commands back to back in this process (a closed loop,
no threads), each as a call to ``kgpho.cli.main(argv)`` writing a real
``--out`` file, until the commands have taken S seconds of wall time.  Every
output row is checked against an independent mpmath reference right after
its command, outside the timed span.

``--trace 0`` reports the end-to-end metrics.  Set-up time is measured in
fresh interpreters before the timed loop and peak memory in a tracemalloc
pass after it, so neither inflates the command times.  ``--trace 1`` times
the commands of S/2 seconds, then replays each of exactly those commands
twice, once plain and once with every public kgpho function wrapped in spans
(see spans.py), and reports the per-layer metrics; their times and counts
are per command.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs and spans go
to ``.bench_out/`` in the checkout.  See bench/README.md.
"""

import os

# BLAS/OpenMP pools would compete with the single caller on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

LAYERS = ("cli", "spectra", "oracle", "model", "wavefun", "specfun")
KGPHO_MODULES = ("kgpho", "kgpho.model", "kgpho.specfun", "kgpho.spectra",
                 "kgpho.oracle", "kgpho.wavefun", "kgpho.cli")
SETUP_REPEATS = 5
# Machine-speed calibration.  On a shared machine the same Python-bound
# commands run up to ~45% slower for seconds at a time, and a fixed Python
# kernel slows with them.  Each timed command of a SCALED workload, and each
# set-up run, is scaled by REFERENCE_MS / (the kernel's time around it), so
# the reported times read as on the baseline machine in its fast state.  The
# kernel is timed every CAL_EVERY_S of command time (see timed_loop).  verify
# is LAPACK-bound, which the Python kernel does not track, and in two
# ten-seed sets its times scaled by a LAPACK kernel spread no less than its
# raw times (cmd_p50_ms 0.106 and 0.057 against 0.100 and 0.052), so verify
# reports raw wall times.
SCALED = ("spectrum-grid", "sweep", "wavefunction")
REFERENCE_MS = 3.0  # the kernel's time on the baseline machine; fixed for good
CAL_EVERY_S = 0.1
SETUP_SCRIPT = "import sys, kgpho.cli; sys.exit(kgpho.cli.main(sys.argv[1:]))"
CHILD_TIMEOUT_S = 120


@dataclass
class Result:
    spec: dict
    exit_code: object
    seconds: float
    scale: float = 1.0  # reference / calibration time around this command
    outcome: object = None
    check_seconds: float = 0.0

    @property
    def scaled_seconds(self):
        return self.seconds * self.scale


def _child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def _kernel():
    total = 0.0
    for i in range(20000):
        total += (i * 0.5) ** 0.5
    a = np.linspace(0.0, 1.0, 20000)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0) - 0.5


def calibration_ms():
    """Median of three runs of the calibration kernel, in ms."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def run_command(cli, spec, outdir):
    """Run one command in-process.

    Returns (exit code, or None if it raised; seconds; warnings; output path).
    """
    path = outdir / f"out.{spec['format']}"
    path.unlink(missing_ok=True)
    argv = workloads.argv(spec, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            elapsed = time.perf_counter() - start
            traceback.print_exc()
        else:
            elapsed = time.perf_counter() - start
    return code, elapsed, len(caught), path


def timed_loop(cli, workload, seed, seconds, outdir):
    """Commands 0, 1, ... until their wall time adds up to ``seconds``,
    rounded up to whole blocks of the workload, so every run has the same mix.

    The calibration kernel runs before the first command, after the last,
    and, for a SCALED workload, between commands whenever CAL_EVERY_S of
    command time has passed.  Each command of a SCALED workload is scaled by
    the median of the two calibrations before it and the two after it; one
    calibration is noisier than the drift.  Returns the results and the
    median calibration time in ms.
    """
    scaled = workload in SCALED
    results, segments, cals = [], [], [calibration_ms()]
    busy = since_cal = 0.0
    while busy < seconds or len(results) % workloads.BLOCK[workload]:
        if scaled and since_cal >= CAL_EVERY_S:
            cals.append(calibration_ms())
            since_cal = 0.0
        spec = workloads.command(workload, seed, len(results))
        code, elapsed, _, path = run_command(cli, spec, outdir)
        result = Result(spec, code, elapsed)
        start = time.perf_counter()
        result.outcome = check.check(spec, code, path)
        result.check_seconds = time.perf_counter() - start
        if result.outcome.error:
            print(f"command {len(results)} failed: {result.outcome.error}: "
                  f"{' '.join(workloads.argv(spec, path))}", file=sys.stderr)
        results.append(result)
        segments.append(len(cals) - 1)
        busy += elapsed
        since_cal += elapsed
    cals.append(calibration_ms())
    if scaled:
        for result, seg in zip(results, segments):
            result.scale = REFERENCE_MS / statistics.median(cals[max(0, seg - 1):seg + 3])
    return results, statistics.median(cals)


def measure_setup(spec, outdir):
    """Median wall time of a fresh interpreter importing kgpho.cli and
    finishing ``spec``; also the exit codes it returned."""
    argv = workloads.argv(spec, outdir / f"setup.{spec['format']}")
    raw, scaled, codes = [], [], set()
    for _ in range(SETUP_REPEATS):
        before = calibration_ms()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, *argv], cwd=ROOT,
                              env=_child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        raw.append(time.perf_counter() - start)
        around = (before + calibration_ms()) / 2.0
        scaled.append(raw[-1] * REFERENCE_MS / around)
        codes.add(proc.returncode)
    return statistics.median(scaled), statistics.median(raw), codes


def import_ms():
    """Cumulative import time of each kgpho module (``-X importtime``), ms."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kgpho.cli"],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in KGPHO_MODULES:
            found[parts[2]] = int(parts[1]) / 1e3
    return {mod: found.get(mod, 0.0) for mod in KGPHO_MODULES}


def peak_alloc_mb(cli, workload, seed, outdir):
    """Largest tracemalloc peak of one command over the first block, MB.

    Every block holds the workload's mix of command sizes, its largest
    commands included; tracing every timed command instead would take
    several times as long as the timed loop itself.
    """
    peak = 0
    tracemalloc.start()
    try:
        for index in range(workloads.BLOCK[workload]):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_command(cli, workloads.command(workload, seed, index), outdir)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1e6


def tail_rank(n):
    """0-based rank of the highest percentile (at most p90) with >= 10 samples
    beyond it; never below the median, which it is for n < 22."""
    return max(min(math.ceil(0.9 * n) - 1, n - 11), n // 2)


def _timings(seconds):
    """(p50 ms, tail ms, tail note) of command times in seconds."""
    times = sorted(seconds)
    rank = tail_rank(len(times))
    note = (f"p{100 * (rank + 1) / len(times):.0f} of {len(times)} commands, "
            f"{len(times) - rank - 1} beyond it")
    return statistics.median(times) * 1e3, times[rank] * 1e3, note


def end_to_end(workload, results, setup, peak_mb):
    """{name: (value, unit, note)}: the gated metrics (times scaled to the
    reference machine speed) and, printed only, the raw times and the
    zero-valued forms of the row fractions."""
    setup_s, setup_raw_s = setup
    p50, tail, tail_note = _timings(r.scaled_seconds for r in results)
    raw_p50, raw_tail, _ = _timings(r.seconds for r in results)
    outcomes = [r.outcome for r in results]
    expected = sum(o.rows_expected for o in outcomes)
    rows = sum(o.rows_out for o in outcomes)
    ok = sum(o.ok_rows for o in outcomes)
    failed_frac = sum(o.failed_rows for o in outcomes) / expected
    wrong_frac = sum(o.wrong_rows for o in outcomes) / ok if ok else 1.0
    devs = [o.oracle_dev_max for o in outcomes if o.oracle_dev_max is not None]
    gated = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh interpreters"),
        "cmd_p50_ms": (p50, "ms", f"{len(results)} commands"),
        "cmd_p90_ms": (tail, "ms", tail_note),
        "rows_per_s": (rows / sum(r.scaled_seconds for r in results), "1/s", f"{rows} rows"),
        "ok_frac": (1.0 - failed_frac, "frac", "1 - failed_frac"),
        "agree_frac": (1.0 - wrong_frac, "frac", "1 - wrong_frac"),
        "peak_alloc_mb": (peak_mb, "MB", f"max over the first {workloads.BLOCK[workload]} commands"),
    }
    printed = {
        "failed_frac": (failed_frac, "frac", f"of {expected} rows"),
        "wrong_frac": (wrong_frac, "frac", f"of {ok} ok rows"),
        "oracle_dev_max": (max(devs) if devs else 0.0, "1",
                           f"over {len(devs)} commands with oracle rows"),
        "raw.setup_s": (setup_raw_s, "s", "unscaled wall time"),
        "raw.cmd_p50_ms": (raw_p50, "ms", "unscaled wall time"),
        "raw.cmd_p90_ms": (raw_tail, "ms", "unscaled wall time"),
        "raw.rows_per_s": (rows / sum(r.seconds for r in results), "1/s", "unscaled"),
        "machine.scale": (statistics.median(r.scale for r in results), "1",
                          "median reference / calibration time"),
    }
    return gated, printed


def per_layer(recorder, results, replay, imports, cal_ms):
    """{name: (value, unit)} from the spans of the traced replay."""
    traced_s, plain_s, n_warnings = replay
    k = len(traced_s)
    stats = spans.summarize(recorder.spans)
    root_ns = stats["cli.main"].total_ns

    def st(name):
        return stats.get(name, spans.NameStats())

    def per_call(value, calls):
        return value / calls if calls else 0.0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    solve = st("spectra.solve_kg_energy")
    put("spectra.solve_kg_energy.calls", solve.calls / k, "1/cmd")
    put("spectra.solve_kg_energy.ms", solve.total_ns / 1e6 / k, "ms/cmd")
    put("spectra.solve_kg_energy.us_per_call", per_call(solve.total_ns / 1e3, solve.calls), "us")
    put("spectra.solve_kg_energy.roots_per_call", per_call(solve.count, solve.calls), "count")
    put("spectra.solve_kg_energy.share", solve.total_ns / root_ns, "frac")
    level = st("spectra.compute_level")
    put("spectra.compute_level.calls", level.calls / k, "1/cmd")
    put("spectra.compute_level.self_ms", level.self_ns / 1e6 / k, "ms/cmd")
    put("spectra.sweep_levels.self_ms", st("spectra.sweep_levels").self_ns / 1e6 / k, "ms/cmd")
    no_root = sum(1 for s in recorder.spans
                  if s.name == "spectra.compute_level" and s.error == "LookupError")
    put("spectra.no_root", no_root / k, "1/cmd")
    oc = st("oracle.oracle_check")
    put("oracle.oracle_check.calls", oc.calls / k, "1/cmd")
    put("oracle.oracle_check.self_ms", oc.self_ns / 1e6 / k, "ms/cmd")
    put("oracle.errors", oc.errors / k, "1/cmd")
    put("oracle.dev_max", oc.count_max, "1")
    disc, eig = st("oracle.discretize"), st("oracle.lowest_eigenvalues")
    put("oracle.discretize.ms", disc.total_ns / 1e6 / k, "ms/cmd")
    put("oracle.lowest_eigenvalues.ms", eig.total_ns / 1e6 / k, "ms/cmd")
    put("oracle.lowest_eigenvalues.ns_per_point", per_call(eig.total_ns, eig.count), "ns")
    put("oracle.lowest_eigenvalues.share", eig.total_ns / root_ns, "frac")
    put("oracle.grid_points", disc.count / k, "1/cmd")
    put("oracle.points_per_check", per_call(disc.count, oc.calls), "count")
    sp = st("model.spectral_params")
    put("model.spectral_params.calls", sp.calls / k, "1/cmd")
    put("model.spectral_params.ms", sp.total_ns / 1e6 / k, "ms/cmd")
    layer_self = dict.fromkeys(LAYERS, 0)
    for name, s in stats.items():
        layer_self[name.split(".", 1)[0]] += s.self_ns
    put("cli.self_ms", layer_self["cli"] / 1e6 / k, "ms/cmd")
    put("cli.rows", sum(r.outcome.rows_out for r in results) / k, "1/cmd")
    ev, lag = st("wavefun.eval_radial"), st("specfun.laguerre")
    put("wavefun.eval_radial.ms", ev.total_ns / 1e6 / k, "ms/cmd")
    put("wavefun.eval_radial.points", ev.count / k, "1/cmd")
    put("specfun.laguerre.ms", lag.total_ns / 1e6 / k, "ms/cmd")
    put("specfun.laguerre.point_degrees", lag.count / k, "1/cmd")
    for layer in LAYERS:
        put(f"share.{layer}", layer_self[layer] / root_ns, "frac")
    for module, ms in imports.items():
        put(f"setup.import_ms.{module}", ms, "ms")
    put("warnings.count", n_warnings / k, "1/cmd")
    put("trace.overhead_frac", sum(traced_s) / sum(plain_s) - 1.0, "frac")
    put("trace.commands", k, "count")
    put("machine.cal_ms", cal_ms, "ms")
    return metrics


def write_spans(recorder, path):
    fields = ("sid", "parent", "name", "start", "end", "command", "error", "count")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(fields) + "\n")
        for s in recorder.spans:
            fh.write(json.dumps([getattr(s, f) for f in fields]) + "\n")


def traced_replay(cli, results, outdir):
    """Re-run each timed command twice, once with spans and once without,
    the traced run first on every other command, so both sides of
    ``trace.overhead_frac`` see the same machine state.

    Returns the recorder and (traced seconds, untraced seconds, warnings).
    """
    modules = [importlib.import_module(f"kgpho.{layer}") for layer in LAYERS]
    recorder = spans.Recorder()
    traced_s, plain_s, n_warnings = [], [], 0
    for index, result in enumerate(results):
        for traced in (index % 2 == 1, index % 2 == 0):
            if traced:
                recorder.command = index
                with spans.instrument(recorder, modules):
                    _, elapsed, n_warn, _ = run_command(cli, result.spec, outdir)
                traced_s.append(elapsed)
                n_warnings += n_warn
            else:
                plain_s.append(run_command(cli, result.spec, outdir)[1])
    return recorder, (traced_s, plain_s, n_warnings)


def _print_table(title, rows):
    print(title)
    for name, (value, unit, *note) in rows.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<7} {note[0] if note else ''}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "kgpho" / "cli.py").is_file():
        print(f"error: no kgpho sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("kgpho.cli")
    outdir = OUT_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)

    first = workloads.command(args.workload, args.seed, 0)
    run_command(cli, first, outdir)  # warm-up: lazy imports and first-call set-up
    seconds = args.seconds / 2 if args.trace else args.seconds
    results, cal_ms = timed_loop(cli, args.workload, args.seed, seconds, outdir)
    failed = sum(1 for r in results if r.outcome.error)
    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} commands, "
          f"{sum(r.seconds for r in results):.2f} s timed, one caller, closed loop; "
          f"checking took {sum(r.check_seconds for r in results):.2f} s")

    if args.trace:
        recorder, replay = traced_replay(cli, results, outdir)
        write_spans(recorder, outdir / "spans.jsonl")
        layer = per_layer(recorder, results, replay, import_ms(), cal_ms)
        _print_table("per-layer metrics (traced replay, per command):", layer)
        metrics = layer
    else:
        setup_s, setup_raw_s, codes = measure_setup(first, outdir)
        if codes != {results[0].exit_code}:
            print(f"set-up runs exited {sorted(codes)}, in-process run "
                  f"{results[0].exit_code}", file=sys.stderr)
            correct = False
        peak = peak_alloc_mb(cli, args.workload, args.seed, outdir)
        gated, printed = end_to_end(args.workload, results, (setup_s, setup_raw_s), peak)
        _print_table("end-to-end metrics:", {**gated, **printed})
        metrics = gated
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
