"""Seeded command generators for the four benchmark workloads.

A workload is an endless, deterministic list of ``kgpho`` commands.  Command
``i`` of workload ``w`` under seed ``s`` is drawn from its own random stream,
seeded with the string ``"w/s/i"``, so every prefix of the list is the same
no matter how many commands a run reaches, and the traced pass can replay
exactly the commands the untraced pass timed.

System parameters are drawn per command from fixed ranges: v0 log-uniform in
[1e-6, 10], r0 log-uniform in [0.3, 3], b uniform in [0, 2] and xi uniform in
[0, 1).  The program sees only the argv built from a spec; the spec itself
goes to the output checker.
"""

from __future__ import annotations

import functools
import math
import random

WORKLOADS = ("spectrum-grid", "sweep", "verify", "wavefunction")
# Commands per block: the cycle after which a workload's mix repeats.  A run
# times whole blocks.
BLOCK = {"spectrum-grid": 2, "sweep": 6, "verify": 5, "wavefunction": 8}

# verify: a block of five commands with a fixed mix of oracle grid zones,
# keyed by the zone of the lowest level of m = 0 and of m = 1 (m = 2 is
# always in the 4k-point zone).  One cheap command (all levels on the 4k-point
# grid) opens the block, so the set-up command is cheap; one free-field
# command follows; the other three put their m = 0 levels on the
# 64k/128k-point grids, one of them with its m = 1 levels on the 16k/32k
# grids.  Fixing every command's grid sizes keeps the per-run mix of work the
# same for every seed, and with four costly commands in five, the median and
# the tail both fall among them rather than between groups.  The oracle's
# false failures hit m = 0 levels with beta below about 0.4 (ROADMAP item 4),
# and in the free command and in the two {0: low, 1: high} commands beta is
# close to xi, there in [0.2, 0.8).  Those three take their xi from one point
# u of a per-block low-discrepancy sequence, at u, u + 1/3 and u + 2/3, so
# every block holds about the same number of falsely failed rows.
_VERIFY_SLOTS = ({0: "high"}, "free", {0: "low", 1: "high"}, {0: "low", 1: "mid"},
                 {0: "low", 1: "high"})
# wavefunction: a block of eight commands gives each output format one
# command in each sample stratum, so the command-time distribution has no
# gaps for the median to fall into.  The top stratum is narrow, which keeps
# the largest command, and with it the peak memory, the same in every run.
_WAVE_SAMPLES = ((5000, 9999), (10000, 14999), (15000, 18999), (19000, 20000))
# Steps of the low-discrepancy sequences in _spread, one irrational per quantity.
_STEPS = {"size": (math.sqrt(5.0) - 1.0) / 2.0, "v0": math.sqrt(2.0) - 1.0,
          "xi": math.sqrt(3.0) - 1.0}
# Commands of a verify block that take their xi from the "xi" sequence, and
# the shift of each along it.
_VERIFY_XI_SHIFT = {1: 0.0, 2: 1.0 / 3.0, 4: 2.0 / 3.0}


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _system(rng):
    return {
        "v0": _loguniform(rng, 1e-6, 10.0),
        "r0": _loguniform(rng, 0.3, 3.0),
        "b": rng.uniform(0.0, 2.0),
        "xi": rng.uniform(0.0, 1.0),
    }


def beta_zone(system, m=0):
    """Oracle grid zone of the lowest positive-branch level with this m.

    Uses beta^2 ~ (m + xi)^2 + 2 r0^2 v0, the n = 0 value at E ~ Mc^2.
    It only sorts draws into strata; the program decides the real zone.
    """
    beta = math.sqrt((m + system["xi"]) ** 2 + 2.0 * system["r0"] ** 2 * system["v0"])
    if beta < 0.8:
        return "low"
    if beta < 1.2:
        return "mid"
    return "high"


def _spread(workload, seed, key, position):
    """Point ``position`` in [0, 1) of a low-discrepancy sequence for ``key``
    with a per-seed offset.  Values drawn from it cover their range evenly
    within any run of commands, so their distribution barely moves between
    seeds: the size sets most of a sweep or wavefunction command's time, v0
    most of a negative-branch sweep's time per step, and xi how many verify
    rows fail.  A generator steps a sequence once per command, or once per
    group of commands that share a stratum, so that each stratum gets evenly
    spread values."""
    offset = random.Random(f"{workload}/{seed}/{key}").random()
    return (offset + position * _STEPS[key]) % 1.0


def _spectrum_grid(rng, index, spread):
    return dict(
        _system(rng), command="spectrum", n=(0, 4), m=(0, 4),
        branch="positive" if index % 2 == 0 else "negative", format="csv",
    )


def _sweep(rng, index, spread):
    spec = dict(_system(rng), command="sweep", n=(0, 2), m=(0, 2), format="csv")
    spec["vary"] = ("b", "xi", "v0")[index % 3]
    spec["branch"] = "positive" if (index // 3) % 2 == 0 else "negative"
    spec["steps"] = 20 + int(31 * spread("size", index))
    v0 = math.exp(math.log(1e-6) + math.log(1e7) * spread("v0", index))  # log-uniform in [1e-6, 10]
    if spec["vary"] == "b":
        spec["v0"] = v0
        spec["start"], spec["stop"] = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
    elif spec["vary"] == "xi":
        spec["v0"] = v0
        spec["start"], spec["stop"] = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    else:
        spec["start"], spec["stop"] = v0, _loguniform(rng, 1e-6, 10.0)
    return spec


def _verify(rng, index, spread):
    slot = _VERIFY_SLOTS[index % len(_VERIFY_SLOTS)]
    spec = dict(command="verify", n=(0, 2), m=(0, 2), format="csv", branch="positive")
    system = _system(rng)
    shift = _VERIFY_XI_SHIFT.get(index % len(_VERIFY_SLOTS))
    if shift is not None:
        u = spread("xi", index // len(_VERIFY_SLOTS))
        system["xi"] = 0.2 + 0.6 * ((u + shift) % 1.0)
    if slot == "free":
        # Landau levels: no well, so the field carries the confinement.  With
        # 0.2 <= xi < 0.8 the m = 0 levels (beta = xi) use the 64k-point grids
        # and the m = 1 levels (beta = 1 + xi) the 4k-point grid.
        system["v0"] = 0.0
        spec["branch"] = "free"
    else:
        # A fixed xi stays; v0, r0 and b are redrawn until the zones hold,
        # which for xi in [0.2, 0.8) the {0: low, 1: high} slots always can.
        fixed = {"xi": system["xi"]} if shift is not None else {}
        while any(beta_zone(system, m) != zone for m, zone in slot.items()):
            system = {**_system(rng), **fixed}
    spec.update(system)
    return spec


def _wavefunction(rng, index, spread):
    lo, hi = _WAVE_SAMPLES[index % len(_WAVE_SAMPLES)]
    return dict(
        _system(rng), command="wavefunction", n=(rng.randint(0, 60),) * 2,
        m=(rng.randint(0, 4),) * 2, branch="positive",
        samples=lo + int((hi - lo + 1) * spread("size", index // len(_WAVE_SAMPLES))),
        format=("csv", "json")[index // len(_WAVE_SAMPLES) % 2],
    )


_GENERATORS = {
    "spectrum-grid": _spectrum_grid,
    "sweep": _sweep,
    "verify": _verify,
    "wavefunction": _wavefunction,
}


def command(workload, seed, index):
    """Spec of command ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    spread = functools.partial(_spread, workload, seed)
    return _GENERATORS[workload](rng, index, spread)


def argv(spec, out):
    """The kgpho argv for a spec, writing its output to ``out``."""
    def rng_arg(pair):
        lo, hi = pair
        return str(lo) if lo == hi else f"{lo}..{hi}"

    args = [spec["command"]]
    for key in ("v0", "r0", "b", "xi"):
        args += [f"--{key}", repr(spec[key])]
    args += ["--n", rng_arg(spec["n"]), "--m", rng_arg(spec["m"]), "--branch", spec["branch"]]
    if spec["command"] == "sweep":
        args += ["--vary", spec["vary"], "--start", repr(spec["start"]),
                 "--stop", repr(spec["stop"]), "--steps", str(spec["steps"])]
    if spec["command"] == "wavefunction":
        args += ["--samples", str(spec["samples"])]
    return args + ["--format", spec["format"], "--out", str(out)]
