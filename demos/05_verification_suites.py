"""Built-in verification: every closed form re-derived by independent numerics.

Each suite re-checks one layer with finite differences, adaptive quadrature,
or Newton-reconstructed coordinate charts, and reports residual statistics.
The same campaigns back `hodoflow verify <suite>` on the command line.

Run:  python3 demos/05_verification_suites.py
"""

import sys
import time

from hodoflow.suites import SUITE_NAMES, run_suite

print(f"available suites: {', '.join(SUITE_NAMES)}")
print()
print(f"{'check':<36} {'max residual':>14} {'tolerance':>11} {'verdict':>8}")
print("-" * 74)
start = time.perf_counter()
reports = run_suite("all")
elapsed = time.perf_counter() - start
for rep in reports:
    verdict = "pass" if rep.passed else "FAIL"
    print(f"{rep.name:<36} {rep.max_abs:>14.3e} {rep.tol:>11.0e} {verdict:>8}")
print("-" * 74)
failures = sum(1 for r in reports if not r.passed)
print(f"{len(reports)} checks, failures: {failures}")
print(f"ran in {elapsed:.2f} s", file=sys.stderr)
print()
print("Machine-readable output:  hodoflow verify all --output report.json")
