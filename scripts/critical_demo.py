#!/usr/bin/env python3
"""Critical-set demo: how few points pin a max-pooled embedding.

Samples a cloud, extracts the critical set under a seeded feature bank,
and verifies that supersets of it between the critical set and the upper
mask reproduce the embedding exactly.
"""

import argparse

import numpy as np

from mvrep.critical import FeatureBank, verify_subset_invariance
from mvrep.geometry import bounding_box
from mvrep.synthetic import synthetic_room


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=2048)
    parser.add_argument("--k", type=int, default=64, help="feature bank size")
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    room = synthetic_room(args.points, size=(4.0, 3.0, 2.5), seed=args.seed)
    pts = room.positions
    bank = FeatureBank.rbf(bounding_box(pts), k=args.k, seed=args.seed)

    invariance = verify_subset_invariance(pts, bank, trials=args.trials, seed=args.seed)
    report = invariance.report

    print(f"cloud: {report.cloud_size} points, bank: K={report.k}")
    print(f"critical set: {report.critical_size} points "
          f"({report.critical_size / report.cloud_size:.1%} of the cloud)")
    print(f"u range: [{report.u.min():.4f}, {report.u.max():.4f}]")
    print(f"subset invariance over {invariance.trials} sampled supersets: "
          f"{'ok' if invariance.passed else 'FAILED'}")

    # Show that dropping any single critical point breaks the embedding.
    changed = 0
    for idx in report.critical_indices:
        u_without = bank.evaluate(np.delete(pts, idx, axis=0)).max(axis=0)
        changed += int(not np.array_equal(u_without, report.u))
    print(f"removing one critical point changes u in {changed} of "
          f"{report.critical_size} cases")


if __name__ == "__main__":
    main()
