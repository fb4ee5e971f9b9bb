"""Minimum achievable outage versus uplink SNR for several detection indices.

Sweeps the feedback channel quality and, at every point, searches the
64-unit rate grid for the smallest reachable outage at each fixed uniform
threshold. Higher thresholds protect NACKs, so the curves should order
monotonically in alpha.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from harqopt import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="outage_vs_feedback_snr.csv")
    ap.add_argument("--snr-d-db", type=float, default=3.0)
    ap.add_argument("--snr-u-lo", type=float, default=-15.0)
    ap.add_argument("--snr-u-hi", type=float, default=-3.0)
    ap.add_argument("--points", type=int, default=13)
    ap.add_argument("--alphas", default="0.0, 0.2, 0.4, 0.6, 0.8, 1.0")
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()
    if args.points < 1:
        ap.error(f"--points must be at least 1, got {args.points}")

    values = ", ".join(f"{v:g}" for v in np.linspace(args.snr_u_lo, args.snr_u_hi,
                                                     args.points))
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "sweep.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(f"snr_d_db = {args.snr_d_db}\n")
            fh.write("sweep.axis = snr_u_db\n")
            fh.write(f"sweep.values = {values}\n")
            fh.write("sweep.mode = min_outage\n")
            fh.write(f"sweep.alphas = {args.alphas}\n")

        argv = ["sweep", "--config", config_path, "--out", args.out]
        if args.workers is not None:
            argv += ["--workers", str(args.workers)]
        rc = cli.main(argv)
    if rc == 0:
        print(f"wrote {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
