"""Independent test oracles for the momentum-space catalog.

Each one recomputes a library result along a second, deliberately naive
path, so the tests compare two derivations instead of one against itself.
"""

import math


def frobenius_roots(ell: float, lam: float) -> tuple[float, float]:
    """Indicial roots of nu^2 + nu (g0 - 1) - lam^2 g0 = 0 with g0 = ell + 1.

    Independent algebraic path kept for cross-checks against
    :func:`hodoflow.momentum.nu_roots`.
    """
    g0 = ell + 1.0
    disc = math.sqrt((g0 - 1.0) ** 2 + 4.0 * lam * lam * g0)
    return (-(g0 - 1.0) + disc) / 2.0, (-(g0 - 1.0) - disc) / 2.0


def brute_force_orders(n: float, ell: float, lam: float, k_max: int = 200) -> list[int]:
    """Integer orders k satisfying the degeneration condition, by direct scan.

    Kept deliberately naive: it double-checks the closed-form enumeration.
    """
    lam2 = lam * lam
    hits = []
    for k in range(0, k_max + 1):
        kn = k * n
        if k == 0:
            if abs(lam2 * (lam2 - 1.0)) <= 1e-9 * max(1.0, lam2 ** 2) and lam >= 1.0 - 1e-12:
                hits.append(k)
            continue
        residual = kn * ell - ((lam2 - kn) ** 2 - lam2)
        if abs(residual) <= 1e-6 * max(1.0, lam2 ** 2) and kn <= math.sqrt(
            max(lam2 * (lam2 - 1.0), 0.0)
        ) * (1.0 + 1e-9):
            hits.append(k)
    return hits
