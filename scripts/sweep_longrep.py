#!/usr/bin/env python3
"""Threshold-vs-outer-length curves for long concatenated repetition codes.

Writes one CSV per inner length with columns (m, threshold).  The
defaults reproduce the qualitative picture: thresholds rise to a single
peak in the outer length and then decline, with the inner-5 family peaking
at 5 x 51 on the depolarizing channel.  S_RB - 1 is relatively accurate
(-1e-18 and +3e-22 at the bracket ends for 5 x 1001), so a cell stays
empty only where the rate has no sign change on the bracket, or where
S_RB - 1 underflows near the threshold (depolarizing: from m = 4,577 for
inner 3 in the estimator, from m = 1,745 for a bare repZ(m) in the
multiset sum; beyond the default lengths either way).

Usage: sweep_longrep.py [channel] [inner lengths ...]
       sweep_longrep.py depol 3 5 7
"""

import csv
import sys
import time

from cosetcap import parse_channel_spec, parse_stack_spec, threshold
from cosetcap.capacity import NoThresholdError

BRACKETS = {"depolarizing": (0.055, 0.0675), "independent_xz": (0.105, 0.118),
            "two_pauli": (0.105, 0.119)}

DEFAULT_MS = (3, 5, 7, 9, 13, 17, 21, 27, 35, 45, 51, 57, 65, 75, 91, 111,
              141, 171, 211, 261, 321, 401, 501, 641, 801, 1001)


def main() -> int:
    family = parse_channel_spec(sys.argv[1] if len(sys.argv) > 1 else "depol")
    inners = [int(a) for a in sys.argv[2:]] or [3, 5, 7]
    bracket = BRACKETS[family.kind]
    for n in inners:
        path = f"longrep_{family.kind}_inner{n}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "threshold"])
            for m in DEFAULT_MS:
                t0 = time.time()
                stack = parse_stack_spec(f"repX({n}) x repZ({m})")
                try:
                    p_star = threshold(stack, family, tol=1e-8, bracket=bracket).p_star
                except NoThresholdError:
                    p_star = None
                writer.writerow([m, f"{p_star:.10f}" if p_star else ""])
                fh.flush()
                print(f"inner {n} x outer {m}: {p_star} "
                      f"[{time.time() - t0:.1f}s]", flush=True)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
