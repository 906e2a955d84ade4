"""Block-size trade-off for repeated noisy phase-estimation blocks.

A strategy runs R independent repetitions of an M-qubit block, spending
N_total = R * (2^M - 1) phase-gate calls. For large R the Fisher-route
bound splits into 0.5*log2(N_total) plus a per-call enhancement term
that depends only on the block, which makes the best block size a
one-dimensional trade-off: more qubits per block help at weak noise and
hurt once the top qubits decohere.
"""

from ._lazy import np
from .channels import MAX_QUBITS, NoisyQpeModel, dephasing_qfi
from .errors import DomainError, ValidationError


def enhancement_term(n_qubits: int, eta: float) -> float:
    """Per-call gain 0.5 log2(e F / (8 pi (2^M - 1))) of an M-qubit block.

    F is the dephased-block Fisher information; eta = 0 kills it and the
    term is -inf (the block carries no phase information).
    """
    model = NoisyQpeModel("dephasing", n_qubits, eta)
    if model.eta == 0.0:
        return float("-inf")
    return float(0.5 * np.log2(np.e * dephasing_qfi(model)
                               / (8.0 * np.pi * model.n_calls)))


def optimal_block_size(eta: float, m_max: int = 12) -> int:
    """Block size maximizing the enhancement term; ties go to fewer qubits.

    At eta = 1 the enhancement grows with M without bound; as eta drops
    the top qubits decohere first and the optimum falls to M = 1.
    """
    if not (0.0 < eta <= 1.0):
        raise DomainError("eta must lie in (0, 1]")
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
        raise DomainError(
            f"no crossing between M={m_low} and M={m_high} on [{lo:g}, {hi:g}]"
        )
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
