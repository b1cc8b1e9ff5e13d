#!/usr/bin/env python3
"""Counting accuracy versus phase-register width.

For a few (N, M) supports, estimate M by phase estimation at increasing t and
print the observed error next to the analytic bound. Errors shrink roughly
like 2^-t except where the rotation angle is exactly representable, where the
estimate snaps to M.

Usage: python scripts/counting_accuracy.py [max_t]
"""

import sys

import numpy as np

from qwitness.quantum import MarkedOracle, counting_error_bound, quantum_count
from qwitness.witnesses import WitnessRelation


def oracle(n, m):
    """s = 1..n against the single witness 1, which marks the first m values."""
    marking = WitnessRelation(
        tuple(range(1, m + 1)), (1,), (np.arange(m), np.zeros(m, np.intp)), "sweep"
    )
    return MarkedOracle.from_relation(range(1, n + 1), marking)


def main(max_t=12):
    cases = [(16, 3), (16, 8), (20, 10), (32, 5), (32, 31)]
    header = f"{'N':>4} {'M':>4} {'t':>3} {'estimate':>12} {'error':>10} {'bound':>10} exact"
    print(header)
    print("-" * len(header))
    for n, m in cases:
        oc = oracle(n, m)
        for t in range(2, max_t + 1):
            est = quantum_count(oc, phase_bits=t)
            err = abs(est.estimated_m - m)
            bound = counting_error_bound(n, m, t)
            assert err <= bound, (n, m, t)
            print(
                f"{n:>4} {m:>4} {t:>3} {est.estimated_m:>12.6f} {err:>10.2e} "
                f"{bound:>10.2e} {'yes' if est.exact else ''}"
            )
        print()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
