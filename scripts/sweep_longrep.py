#!/usr/bin/env python3
"""Threshold-vs-outer-length curves for long concatenated repetition codes.

Writes one CSV per inner length with columns (m, threshold).  The
defaults reproduce the qualitative picture: thresholds rise to a single
peak in the outer length and then decline, with the inner-5 family peaking
at 5 x 51 on the depolarizing channel.  A cell stays empty where the rate
has no sign change on the bracket, or where S_RB - 1 is within the
estimator's rounding floor (ROUNDING_FLOOR) at both ends, so that its sign
is noise (inner 3 beyond m ~ 200, 5 x 1001 on the depolarizing channel).

Usage: sweep_longrep.py [channel] [inner lengths ...]
       sweep_longrep.py depol 3 5 7
"""

import csv
import sys
import time

from cosetcap import family_eval, parse_channel_spec, parse_stack_spec, threshold
from cosetcap.capacity import NoThresholdError, evaluate_s_rb

BRACKETS = {"depolarizing": (0.055, 0.0675), "independent_xz": (0.105, 0.118),
            "two_pauli": (0.105, 0.119)}

DEFAULT_MS = (3, 5, 7, 9, 13, 17, 21, 27, 35, 45, 51, 57, 65, 75, 91, 111,
              141, 171, 211, 261, 321, 401, 501, 641, 801, 1001)
ROUNDING_FLOOR = 1e-12  # |S_RB - 1| below this at both bracket ends: no root


def above_floor(stack, family, bracket) -> bool:
    """True when S_RB - 1 clears the rounding floor at either bracket end."""
    return any(abs(evaluate_s_rb(stack, family_eval(family, p)).s_rb - 1.0) >= ROUNDING_FLOOR
               for p in bracket)


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
                p_star = None
                if above_floor(stack, family, bracket):
                    try:
                        p_star = threshold(stack, family, tol=1e-8, bracket=bracket).p_star
                    except NoThresholdError:
                        pass
                writer.writerow([m, f"{p_star:.10f}" if p_star else ""])
                fh.flush()
                print(f"inner {n} x outer {m}: {p_star} "
                      f"[{time.time() - t0:.1f}s]", flush=True)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
