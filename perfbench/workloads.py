"""The three workloads: the ``mvrep`` calls of one round, in order.

Each round is a closed loop from one client: the next call starts when the
previous one has exited.  ``jobs`` never exceeds the visible cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from inputs import MICRO, RoomInput

# Generate flags a workload leaves at the program's documented defaults.
DEFAULT_GENERATE = {
    "hfov_deg": 70.0,
    "vfov_deg": 60.0,
    "min_depth": 0.5,
    "max_depth": 4.0,
    "spacing": 4.0,
    "camera_height": 1.5,
    "yaw_steps": [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0],
    "pitch_steps": [-30.0, 0.0, 30.0],
    "include_boundary": True,
    "min_points": 40_000,
    "radius_factor": 1000.0,
    "seed": 0,
}


@dataclass
class Call:
    """One ``mvrep`` invocation and what its outputs are checked against."""

    kind: str  # generate | critical | hpr | fuse | stats
    argv: list[str]
    room: RoomInput | None = None
    out: Path | None = None  # output directory or file
    expect: dict = field(default_factory=dict)


def _generate(room, inp, out, config, extra, labels):
    argv = ["generate", "--input", str(inp / room.path), "--out", str(out)] + extra
    if labels:
        argv.append("--with-labels")
    return Call("generate", argv, room, out, {"config": config, "labels": labels})


def _critical(room, inp, out, k, trials):
    argv = ["critical", "--input", str(inp / room.path), "--k", str(k),
            "--trials", str(trials), "--seed", "0", "--out", str(out)]
    return Call("critical", argv, room, out, {"k": k, "trials": trials, "seed": 0})


def _tail(out, manifests, per_area):
    """fuse + stats over every manifest of the round."""
    fuse_out = out / "train.txt"
    return [
        Call("fuse", ["fuse", "--manifests", str(manifests), "--partial-per-area",
                      str(per_area), "--seed", "0", "--out", str(fuse_out)],
             out=fuse_out, expect={"per_area": per_area, "manifests": manifests}),
        Call("stats", ["stats", "--manifests", str(manifests)],
             expect={"manifests": manifests}),
    ]


def room1m(inp: Path, rooms: list[RoomInput], out: Path, cores: int) -> list[Call]:
    """The reference room with the default grid, on the four axis headings."""
    (room,) = rooms
    config = dict(DEFAULT_GENERATE, yaw_steps=[0.0, 90.0, 180.0, 270.0], pitch_steps=[0.0])
    gen = _generate(room, inp, out / "gen", config,
                    ["--jobs", str(cores), "--yaw-steps", "0,90,180,270", "--pitch-steps", "0"],
                    labels=True)
    return [gen] + _tail(out, out / "gen", per_area=4)


def hall(inp: Path, rooms: list[RoomInput], out: Path, cores: int) -> list[Call]:
    """A wide sparse hall: many frusta, most below the point threshold."""
    (room,) = rooms
    config = dict(DEFAULT_GENERATE, min_points=5300)
    gen = _generate(room, inp, out / "gen", config,
                    ["--min-points", "5300", "--jobs", str(cores)], labels=False)
    return [gen, _critical(room, inp, out / "critical.json", k=16, trials=10)] + _tail(
        out, out / "gen", per_area=4)


def corpus(inp: Path, rooms: list[RoomInput], out: Path, cores: int) -> list[Call]:
    """Dataset preparation: per room generate, critical and hpr, then fuse and stats."""
    calls = []
    config = dict(DEFAULT_GENERATE, min_points=5000)
    for room in rooms:
        pos = room.table(inp)[:, :3] / MICRO
        centre = (pos.min(axis=0) + pos.max(axis=0)) / 2.0
        hpr_out = out / f"{room.name}_hpr.txt"
        calls.append(_generate(room, inp, out / "gen" / room.name, config,
                               ["--jobs", "1", "--config", str(inp / "generate.cfg")],
                               labels=True))
        calls.append(_critical(room, inp, out / f"{room.name}_critical.json", k=64, trials=50))
        calls.append(Call("hpr", ["hpr", "--input", str(inp / room.path), "--viewpoint",
                                  ",".join(repr(float(v)) for v in centre), "--out", str(hpr_out)],
                          room, hpr_out, {"viewpoint": centre, "radius_factor": 1000.0}))
    return calls + _tail(out, out / "gen", per_area=8)


WORKLOADS = {"room1m": room1m, "hall": hall, "corpus": corpus}
