"""Throughput of per-round variable thresholds versus the best fixed one.

The fixed side scans uniform thresholds (rates re-optimized exactly for
each) and keeps the best; the variable side runs the alternating solver
once, warm-started from the fixed winner (from the default policy when no
fixed threshold is feasible), so its curve can only sit on or above the
fixed one. The gain concentrates where feedback errors
are frequent enough to matter but not hopeless.
"""

import argparse
import os
import sys
import tempfile

from harqopt import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fixed_vs_variable_thresholds.csv")
    ap.add_argument("--snr-d-db", type=float, default=3.0)
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--snr-u-db", default="-15, -12.5, -10, -7.5, -5",
                    help="comma-separated uplink SNR grid")
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "sweep.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(f"snr_d_db = {args.snr_d_db}\n")
            fh.write(f"epsilon = {args.epsilon}\n")
            fh.write("sweep.axis = snr_u_db\n")
            fh.write(f"sweep.values = {args.snr_u_db}\n")
            fh.write("sweep.mode = fixed_vs_variable\n")

        argv = ["sweep", "--config", config_path, "--out", args.out]
        if args.workers is not None:
            argv += ["--workers", str(args.workers)]
        rc = cli.main(argv)
    if rc == 0:
        print(f"wrote {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
