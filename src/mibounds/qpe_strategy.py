"""Block-size trade-off for repeated noisy phase-estimation blocks.

A strategy runs R independent repetitions of an M-qubit block, spending
N_total = R * (2^M - 1) phase-gate calls. For large R the Fisher-route
bound splits into 0.5*log2(N_total) plus a per-call enhancement term
that depends only on the block, which makes the best block size a
one-dimensional trade-off: more qubits per block help at weak noise and
hurt once the top qubits decohere.
"""

import math

from .channels import NoisyQpeModel, dephasing_qfi
from .numerics import TWO_PI, fisher_sigma2


def enhancement_term(n_qubits: int, eta: float) -> float:
    """Per-call gain 0.5 log2(2 pi e sigma^2 / (2^M - 1)) of an M-qubit
    block, sigma^2 = fisher_sigma2(F) of its dephased Fisher information.

    eta = 0 kills F (and a subnormal eta can underflow the ratio), and
    the term is -inf: the block carries no phase information.
    """
    model = NoisyQpeModel("dephasing", n_qubits, eta)
    ratio = TWO_PI * math.e * fisher_sigma2(dephasing_qfi(model)) / model.n_calls
    return 0.5 * math.log2(ratio) if ratio > 0.0 else float("-inf")
