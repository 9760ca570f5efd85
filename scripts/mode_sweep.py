#!/usr/bin/env python3
"""Sweep single-mode curves and compare gap ratios to the linear theory.

For a profile of one cosine mode with frequency ratio a = i/Q the
harmonic competitor closes the cone gap down to the fraction
2a/(1+a^2).  This script measures that fraction across a grid of
(Q, i, amplitude) and prints measured vs predicted side by side, which
is the quickest way to see the linear regime and where it bends.  A
point the certificate refuses (a profile too steep for the competitor,
say) is printed as an out-of-regime row with the refusal's message.

    PYTHONPATH=src python3 scripts/mode_sweep.py --qs 1,2 --max-ratio 5
"""

import argparse

from tclab.epiperimetric import epiperimetric_gap, mode_ratio
from tclab.errors import TclabError
from tclab.scenarios import single_mode_curve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qs", default="1,2", help="comma separated Q list")
    parser.add_argument("--max-ratio", type=int, default=5,
                        help="largest i/Q to sweep")
    parser.add_argument("--amplitudes", default="1e-3,1e-2,5e-2")
    args = parser.parse_args(argv)

    qs = [int(t) for t in args.qs.split(",") if t]
    amps = [float(t) for t in args.amplitudes.split(",") if t]

    print(f"{'Q':>3} {'i':>4} {'amp':>9} {'measured':>12} "
          f"{'predicted':>12} {'diff':>10}")
    for Q in qs:
        for k in range(2, args.max_ratio + 1):
            i = k * Q
            predicted = mode_ratio(i / Q)
            for amp in amps:
                try:
                    vd = epiperimetric_gap(single_mode_curve(Q, i, amp))
                except TclabError as exc:
                    print(f"{Q:>3} {i:>4} {amp:>9.1e} out of regime: "
                          f"{type(exc).__name__}: {exc}")
                    continue
                diff = vd.ratio - predicted
                print(f"{Q:>3} {i:>4} {amp:>9.1e} {vd.ratio:>12.8f} "
                      f"{predicted:>12.8f} {diff:>10.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
