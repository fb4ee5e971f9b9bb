"""Optimized asymmetric detection against the duplicated-ACK baseline.

At each uplink SNR the asymmetric side runs the full alternating
rate/threshold optimization; the baseline repeats the feedback bit over
two slots (stop only on double ACK) and re-optimizes its rates under the
same outage budget. Feasibility flags are written alongside throughput:
the baseline has no threshold to raise, so at poor uplink SNR it simply
cannot meet the budget.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from harqopt import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="throughput_vs_duplicated_ack.csv")
    ap.add_argument("--snr-d-db", type=float, default=3.0)
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--snr-u-lo", type=float, default=-16.0)
    ap.add_argument("--snr-u-hi", type=float, default=-2.0)
    ap.add_argument("--points", type=int, default=15)
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
            fh.write(f"epsilon = {args.epsilon}\n")
            fh.write("sweep.axis = snr_u_db\n")
            fh.write(f"sweep.values = {values}\n")
            fh.write("sweep.mode = vs_duplicated\n")

        argv = ["sweep", "--config", config_path, "--out", args.out]
        if args.workers is not None:
            argv += ["--workers", str(args.workers)]
        rc = cli.main(argv)
    if rc == 0:
        print(f"wrote {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
