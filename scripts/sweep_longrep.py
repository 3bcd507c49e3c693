#!/usr/bin/env python3
"""Threshold-vs-outer-length curves for long concatenated repetition codes.

Writes one CSV per inner length with columns (m, threshold, stable).  The
defaults reproduce the qualitative picture: thresholds rise to a single
peak in the outer length and then decline, with the inner-5 family peaking
at 5 x 51 on the depolarizing channel.

Usage: sweep_longrep.py [channel] [inner lengths ...]
       sweep_longrep.py depol 3 5 7
"""

import csv
import sys
import time

from cosetcap import parse_channel_spec, s_rb_estimate
from cosetcap.channels import bracketed_root


def estimator_threshold(n, m, family, lo, hi, tol=1e-8):
    """(p_star, stable) where the estimated S_RB crosses 1, or (None, False)
    when it does not cross on [lo, hi]; stable holds for every evaluation."""
    ests = []

    def f(p):
        ests.append(s_rb_estimate(n, m, family, p))
        return ests[-1].s_rb - 1.0

    try:
        lo, hi, _ = bracketed_root(f, lo, hi, tol)
    except ValueError:
        return None, False
    return 0.5 * (lo + hi), all(est.stable for est in ests)


BRACKETS = {"depolarizing": (0.055, 0.0675), "independent_xz": (0.105, 0.118),
            "two_pauli": (0.105, 0.119)}

DEFAULT_MS = (3, 5, 7, 9, 13, 17, 21, 27, 35, 45, 51, 57, 65, 75, 91, 111,
              141, 171, 211, 261, 321, 401, 501, 641, 801, 1001)


def main() -> int:
    family = parse_channel_spec(sys.argv[1] if len(sys.argv) > 1 else "depol")
    inners = [int(a) for a in sys.argv[2:]] or [3, 5, 7]
    lo, hi = BRACKETS[family.kind]
    for n in inners:
        path = f"longrep_{family.kind}_inner{n}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "threshold", "stable"])
            for m in DEFAULT_MS:
                t0 = time.time()
                p_star, stable = estimator_threshold(n, m, family, lo, hi)
                writer.writerow([m, f"{p_star:.10f}" if p_star else "", int(stable)])
                fh.flush()
                print(f"inner {n} x outer {m}: {p_star} "
                      f"({'stable' if stable else 'UNSTABLE'}) "
                      f"[{time.time() - t0:.1f}s]", flush=True)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
