"""Block-size choices built on `mibounds.qpe_strategy.enhancement_term`.

No command reaches them: criterion 08 and test_qpe_strategy.py use them
to locate the transition between block sizes.
"""

from mibounds.channels import MAX_QUBITS
from mibounds.errors import ValidationError
from mibounds.qpe_strategy import enhancement_term


def optimal_block_size(eta: float, m_max: int = 12) -> int:
    """Block size maximizing the enhancement term; ties go to fewer qubits.

    At eta = 1 the enhancement grows with M without bound; as eta drops
    the top qubits decohere first and the optimum falls to M = 1.
    """
    if not (0.0 < eta <= 1.0):
        raise ValidationError("eta must lie in (0, 1]")
    if not (1 <= int(m_max) <= MAX_QUBITS):
        raise ValidationError(f"m_max must be in 1..{MAX_QUBITS}")
    best_m, best_val = 1, float("-inf")
    for m in range(1, int(m_max) + 1):
        val = enhancement_term(m, eta)
        if val > best_val + 1e-15:
            best_m, best_val = m, val
    return best_m


def block_size_crossing(m_low: int, m_high: int) -> float:
    """Noise level where blocks of m_low and m_high qubits tie.

    Bisects enhancement(m_low, eta) - enhancement(m_high, eta) on
    [1e-6, 1] to 1e-10; the gap is positive at strong noise (small eta)
    and negative at weak noise for m_low < m_high.
    """
    if not (1 <= m_low < m_high <= MAX_QUBITS):
        raise ValidationError("need 1 <= m_low < m_high <= MAX_QUBITS")

    def gap(eta):
        return enhancement_term(m_low, eta) - enhancement_term(m_high, eta)

    lo, hi = 1e-6, 1.0
    if not (gap(lo) > 0.0 > gap(hi)):
        raise ValidationError(
            f"no crossing between M={m_low} and M={m_high} on [{lo:g}, {hi:g}]"
        )
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
