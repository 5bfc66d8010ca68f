#!/usr/bin/env python3
"""Write a synthetic furnished room as an S3DIS-style text file.

The room is a box with floor, ceiling, walls, and a few occluding
furniture pieces; useful as a self-contained stand-in when no scan data
is at hand.
"""

import argparse
from pathlib import Path

import numpy as np

from mvrep.io import format_lines, write_partial_set
from mvrep.synthetic import synthetic_room


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", type=Path, help="output .txt path")
    parser.add_argument("--points", type=int, default=500_000)
    parser.add_argument("--size", type=float, nargs=3, default=(8.0, 6.0, 3.0),
                        metavar=("SX", "SY", "SZ"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--room-id", default=None,
                        help="defaults to the output file stem")
    parser.add_argument("--with-labels", action="store_true",
                        help="append the integer category label per line")
    args = parser.parse_args()

    room_id = args.room_id or args.out.stem
    cloud = synthetic_room(
        args.points,
        size=tuple(args.size),
        seed=args.seed,
        room_id=room_id,
        with_labels=args.with_labels,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_partial_set(format_lines(cloud, np.arange(len(cloud))), args.out)
    print(f"wrote {len(cloud)} points to {args.out}")


if __name__ == "__main__":
    main()
