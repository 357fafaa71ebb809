"""Workload definitions: seeded inputs and the closed-loop chain of CLI ops.

Every workload runs every CLI command (simulate, detect, report, train,
evaluate), so every end-to-end metric exists on every workload. What differs
is the input, which decides which layer does most of the work:

* ``stream-long``: one 1,000 s vehicle (10,000 records) through the three
  detectors in their default input modes, at the native window. ``em``
  observe dominates.
* ``fleet-roc``: eight interleaved vehicles in one CSV; per vehicle,
  ``detect --vehicle`` in transform mode and ``report --roc-out``. CSV
  parsing and ``roc_points`` dominate.
* ``train-overlap``: supervised training on overlapping classes, where CART
  split search grows real trees. ``cart_fit`` dominates.

Every chain starts with CLI ``simulate`` of a 1,000 s single-vehicle stream
(10,000 records). Each workload also runs the ops its main part leaves out
(default-mode detects with ``--windows`` reports, transform-mode detects
with ROC reports, training), small enough that the main part dominates, so
that every traced layer does some work on every workload: ``fleet-roc`` and
``train-overlap`` run them on the stream read at a 1 s aggregation window
(1,000 samples), ``stream-long`` on a simulated 100 s clip. ``stream-long``
and ``fleet-roc`` train on inputs whose classes separate; ``train-overlap``
trains on its own overlapping stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

WORKLOADS = ("stream-long", "fleet-roc", "train-overlap")

#: The seed whose output hashes are recorded under ``reference/``.
DEFAULT_SEED = 0

DETECTORS = ("bocpd", "cusum", "em")
FAMILIES = ("knn", "cart", "rf", "nn")

#: The forest's default grid is 400 trees; one default-grid train on the
#: overlapping stream takes about half a minute, longer than one run. The
#: benchmark keeps every other default (depth 90, min split 12, min leaf 5)
#: and grows a tenth of the trees, which scales the cost linearly.
RF_GRID = {"n_trees": [40], "max_depth": [90], "min_split": [12], "min_leaf": [5]}

#: Records per second of a simulated stream (10 Hz).
RECORDS_PER_SECOND = 10

#: The stream every chain makes with CLI simulate: the paper's cruise with
#: its false stop (constant_replace, 0.0 m/s) in a few separate windows.
STREAM_DURATION_S = 1000.0
STREAM_WINDOWS = ((200.0, 210.0), (500.0, 510.0), (800.0, 810.0))

#: Aggregation window at which fleet-roc and train-overlap read the stream:
#: 1,000 samples, so those ops stay small next to the workload's main part.
SIDE_WINDOW_S = 1.0

#: stream-long reads its stream at the native window, and its other ops
#: would parse the 10,000 records a dozen more times; they read a 100 s clip
#: of the paper's scenario (one 5 s false stop) instead.
CLIP_DURATION_S = 100.0
CLIP_WINDOWS = ((50.0, 55.0),)

FLEET_VEHICLES = 8
FLEET_DURATION_S = 120.0

OVERLAP_DURATION_S = 100.0
OVERLAP_WINDOWS = ((15.0, 25.0), (45.0, 55.0), (75.0, 85.0))
OVERLAP_OFFSET_MPS = -1.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its outputs must satisfy."""

    label: str  # unique within a chain; keys the reference hashes
    kind: str  # simulate | detect | report | train | evaluate
    argv: tuple[str, ...]
    detector: str = ""
    family: str = ""
    samples: int = 0  # expected records (simulate) or aggregated samples
    outputs: tuple[str, ...] = ()  # files whose bytes are checked
    report_of: str = ""  # evaluate: the train report it must reproduce


def _windows_arg(windows) -> str:
    return ",".join(f"{a}:{b}" for a, b in windows)


def _scenario_text(duration_s, windows, seed) -> str:
    """A CLI scenario config: the paper's cruise and false stop (0.0 m/s)."""
    return (
        f"duration_s = {duration_s}\n"
        "base_speed_mps = 15.6\n"
        "noise_stdev = 0.25\n"
        f"attack.windows = {_windows_arg(windows)}\n"
        "attack.mode = constant_replace\n"
        "attack.magnitude = 0.0\n"
        f"seed = {seed}\n"
    )


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _n(duration_s: float, window_s: float = 1.0 / RECORDS_PER_SECOND) -> int:
    """Aggregated samples of a gap-free stream (records, at the native window)."""
    return int(round(duration_s / window_s))


def build_inputs(name: str, seed: int, workdir: str) -> None:
    """Write the workload's config files and the inputs CLI simulate cannot make.

    This is the benchmark's set-up; it calls the simulator's public
    functions directly because CLI ``simulate`` makes only one cruising
    vehicle.
    """
    from bsmguard.bsm import write_bsm_csv
    from bsmguard.simulate import (
        AttackSpec,
        DrivingProfile,
        Segment,
        generate_stream,
        inject_false_info,
    )

    os.makedirs(workdir, exist_ok=True)
    j = lambda f: os.path.join(workdir, f)  # noqa: E731
    _write(j("stream.cfg"), _scenario_text(STREAM_DURATION_S, STREAM_WINDOWS, seed * 100 + 1))
    _write(j("clip.cfg"), _scenario_text(CLIP_DURATION_S, CLIP_WINDOWS, seed * 100 + 2))
    _write(j("transform.cfg"), "bocpd.input = transform\ncusum.input = transform\n")
    if name == "fleet-roc":
        records = []
        leg = FLEET_DURATION_S / 5
        modes = (("constant_replace", 0.0), ("offset", -3.0), ("noise_burst", 3.0))
        for v in range(FLEET_VEHICLES):
            profile = DrivingProfile(
                duration_s=FLEET_DURATION_S,
                segments=(
                    Segment("cruise", leg),
                    Segment("decel", leg, 10.0),
                    Segment("cruise", leg),
                    Segment("accel", leg, 15.6),
                    Segment("cruise", leg),
                ),
            )
            stream = generate_stream(profile, seed * 100 + 10 + v, vehicle_id=f"v{v}")
            start = 10.0 + 6.0 * v  # staggered across vehicles
            mode, magnitude = modes[v % len(modes)]
            spec = AttackSpec(
                windows=((start, start + 8.0), (start + 50.0, start + 58.0)),
                mode=mode,
                magnitude=magnitude,
                seed=seed * 100 + 30 + v,
            )
            records.extend(inject_false_info(stream, spec))
        records.sort(key=lambda r: (r.t, r.vehicle_id))
        write_bsm_csv(j("fleet.csv"), records)
    if name == "train-overlap":
        leg = OVERLAP_DURATION_S / 5
        profile = DrivingProfile(
            duration_s=OVERLAP_DURATION_S,
            segments=(
                Segment("cruise", 2 * leg),
                Segment("decel", leg, 10.0),
                Segment("accel", leg, 15.6),
                Segment("cruise", leg),
            ),
        )
        stream = generate_stream(profile, seed * 100 + 3)
        spec = AttackSpec(
            windows=OVERLAP_WINDOWS,
            mode="offset",
            magnitude=OVERLAP_OFFSET_MPS,
            seed=seed * 100 + 4,
        )
        write_bsm_csv(j("overlap.csv"), inject_false_info(stream, spec))


def _detect_report(j, csv, tag, detector, samples, *, vehicle=None, window=None,
                   transform=False, windows=None, roc=False) -> list[Op]:
    label = f"{tag}:{detector}:{'transform' if transform else 'default'}"
    dec = j(f"dec-{label.replace(':', '-')}.csv")
    argv = ["detect", csv, "--detector", detector, "--out", dec]
    rep_argv = ["report", dec, csv, "--detector", detector]
    for flag, value in (("--vehicle", vehicle), ("--window", window)):
        if value is not None:
            argv += [flag, str(value)]
            rep_argv += [flag, str(value)]
    if transform:
        argv += ["--config", j("transform.cfg")]
    rep = j(f"rep-{label.replace(':', '-')}.txt")
    rep_argv += ["--out", rep]
    outputs = [rep]
    if windows:
        rep_argv += ["--windows", _windows_arg(windows)]
    if roc:
        roc_path = j(f"roc-{label.replace(':', '-')}.csv")
        rep_argv += ["--roc-out", roc_path]
        outputs.append(roc_path)
    return [
        Op(f"detect:{label}", "detect", tuple(argv), detector=detector,
           samples=samples, outputs=(dec,)),
        Op(f"report:{label}", "report", tuple(rep_argv), detector=detector,
           samples=samples, outputs=tuple(outputs)),
    ]


def _train_evaluate(j, csv, window=None) -> list[Op]:
    ops = []
    extra = [] if window is None else ["--window", str(window)]
    for fam in FAMILIES:
        model, train_rep, eval_rep = j(f"model-{fam}.json"), j(f"train-{fam}.txt"), j(f"eval-{fam}.txt")
        argv = ["train", csv, "--model", fam, "--seed", "0", "--out", model,
                "--report-out", train_rep] + extra
        if fam == "rf":
            argv += ["--grid", json.dumps(RF_GRID)]
        ops.append(Op(f"train:{fam}", "train", tuple(argv), family=fam,
                      outputs=(model, train_rep)))
        ops.append(Op(f"evaluate:{fam}", "evaluate",
                      ("evaluate", model, csv, "--out", eval_rep, *extra), family=fam,
                      outputs=(eval_rep,), report_of=train_rep))
    return ops


def make_ops(name: str, workdir: str) -> list[Op]:
    """The ordered op chain one closed-loop caller repeats."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    j = lambda f: os.path.join(workdir, f)  # noqa: E731
    stream = j("stream.csv")
    ops = [Op("simulate:stream", "simulate",
              ("simulate", "--config", j("stream.cfg"), "--out", stream),
              samples=_n(STREAM_DURATION_S), outputs=(stream,))]
    if name == "stream-long":
        for det in DETECTORS:
            ops += _detect_report(j, stream, "stream", det, _n(STREAM_DURATION_S),
                                  windows=STREAM_WINDOWS)
        clip = j("clip.csv")
        ops.append(Op("simulate:clip", "simulate",
                      ("simulate", "--config", j("clip.cfg"), "--out", clip),
                      samples=_n(CLIP_DURATION_S), outputs=(clip,)))
        for det in ("bocpd", "cusum"):
            ops += _detect_report(j, clip, "clip", det, _n(CLIP_DURATION_S),
                                  transform=True, roc=True)
        return ops + _train_evaluate(j, clip)

    side = dict(window=SIDE_WINDOW_S)
    n_side = _n(STREAM_DURATION_S, SIDE_WINDOW_S)
    for det in DETECTORS:
        ops += _detect_report(j, stream, "side", det, n_side, windows=STREAM_WINDOWS, **side)
    if name == "fleet-roc":
        fleet = j("fleet.csv")
        for v in range(FLEET_VEHICLES):
            for det in ("bocpd", "cusum"):
                ops += _detect_report(j, fleet, f"fleet-v{v}", det, _n(FLEET_DURATION_S),
                                      vehicle=f"v{v}", transform=True, roc=True)
        ops += _train_evaluate(j, stream, SIDE_WINDOW_S)
    else:
        for det in ("bocpd", "cusum"):
            ops += _detect_report(j, stream, "side", det, n_side, transform=True, roc=True, **side)
        ops += _train_evaluate(j, j("overlap.csv"))
    return ops
