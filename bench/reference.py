"""Independent reference values the benchmark checks the program against.

Nothing here imports mibounds. Every value is recomputed from its
closed form, so a faster but wrong answer shows up as a failed
operation and never as a gain.
"""

import math

import numpy as np

LN2 = math.log(2.0)
CHANNEL_KINDS = ("dephasing", "amplitude-damping", "erasure")


def entropy_bits(weights):
    """Shannon entropy in bits of nonnegative weights, renormalized."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum() / LN2)


def binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / LN2)


def channel_mode_weights(kind, n_qubits, eta):
    """Per-qubit binary weight x_j of the QPE channel's spectrum.

    Qubit j sees the phase 2^j times. Its overlap factor is
    1 - x_j + x_j e^(i 2 pi 2^j phi): dephasing keeps eta^(2^(j+1)) / 2,
    amplitude damping y / (4 - 2 y) and erasure y / 2, with y = eta^(2^j).
    """
    j = np.arange(int(n_qubits), dtype=float)
    y = float(eta) ** (2.0**j)
    if kind == "dephasing":
        return float(eta) ** (2.0 ** (j + 1)) / 2.0
    if kind == "amplitude-damping":
        return y / (4.0 - 2.0 * y)
    if kind == "erasure":
        return y / 2.0
    raise ValueError(f"unknown channel {kind!r}")


def channel_chi(kind, n_qubits, eta):
    """Spectrum entropy of the channel: a sum of binary entropies, bits."""
    return float(sum(binary_entropy(float(x))
                     for x in channel_mode_weights(kind, n_qubits, eta)))


def fisher_curve(sigma2):
    """The Fisher-route bound 0.5 log2(1 + 2 pi e sigma^2) in bits."""
    return 0.5 * math.log2(1.0 + 2.0 * math.pi * math.e * sigma2)


def dephasing_fisher_sum(n_qubits, eta):
    """sum_j 4^j eta^(2^j): the dephased run's Fisher information / (2 pi)^2."""
    return float(sum(4.0**j * float(eta) ** (2.0**j) for j in range(int(n_qubits))))


def dephasing_fisher_bound(n_qubits, eta):
    """Fisher bound of the dephased run under the uniform prior on [0, 1).

    sigma^2 = F / (16 pi^2) with F = (2 pi)^2 S, so sigma^2 = S / 4.
    """
    return fisher_curve(dephasing_fisher_sum(n_qubits, eta) / 4.0)


def enhancement_term(n_qubits, eta):
    """0.5 log2(e F / (8 pi (2^M - 1))) with F the dephased Fisher information."""
    fisher = (2.0 * math.pi) ** 2 * dephasing_fisher_sum(n_qubits, eta)
    return 0.5 * math.log2(math.e * fisher / (8.0 * math.pi * (2**n_qubits - 1)))


def cosine_model_fisher_bound(k, v, n_grid):
    """Fisher bound of the two-outcome model p1 = (1 + v cos 2 pi k phi) / 2.

    The program differentiates by central differences of step h = 1/G,
    which scales the Fisher information exactly by sinc^2(2 pi k h); the
    grid mean of sin^2 / (1 - v^2 cos^2) is (1 - sqrt(1 - v^2)) / v^2.
    So sigma^2 = k^2 (1 - sqrt(1 - v^2)) sinc^2(2 pi k h) / 4.
    """
    delta = 2.0 * math.pi * k / n_grid
    sinc2 = (math.sin(delta) / delta) ** 2
    return fisher_curve(k * k * (1.0 - math.sqrt(1.0 - v * v)) * sinc2 / 4.0)


def fejer_density(n_calls, thetas):
    """|sum_{k=0}^{N} e^(i 2 pi k theta)|^2 / (N + 1), the flat state's posterior."""
    n = n_calls + 1
    thetas = np.asarray(thetas, dtype=float)
    s = np.sin(np.pi * thetas)
    out = np.full(thetas.shape, float(n))
    nz = np.abs(s) > 1e-12
    out[nz] = np.sin(np.pi * n * thetas[nz]) ** 2 / (n * s[nz] ** 2)
    return out


def posterior_entropy_bits(coefficients, n_grid):
    """Differential entropy in bits of |sum_k c_k e^(i 2 pi k theta)|^2."""
    c = np.asarray(coefficients, dtype=complex)
    amp = np.fft.fft(np.conj(np.pad(c, (0, n_grid - c.size))))
    p = np.abs(amp) ** 2
    p = p / p.mean()
    pos = p[p > 0.0]
    return float(-(pos * np.log(pos)).sum() / (n_grid * LN2))


def synthesized_density(coefficients, n_grid):
    """r_j = |sum_k c_k e^(i 2 pi j k / G)|^2 by an explicit sum over modes."""
    c = np.asarray(coefficients, dtype=complex)
    phases = np.exp(2j * np.pi * np.outer(np.arange(n_grid), np.arange(c.size)) / n_grid)
    return np.abs(phases @ c) ** 2


def circulant_mi(r):
    """Mutual information of the joint P[s, t] = r((t - s) mod G) / G^2.

    Every row is a cyclic shift of r and the column sums are equal, so
    MI = log2 G - H(r / sum r).
    """
    return math.log2(r.size) - entropy_bits(r)


def two_seed(c, a, b, n_grid):
    """(mi_single, mi_split, mi_merged) of a seed pair, by the closed form."""
    r_single = synthesized_density(c, n_grid)
    r_1 = synthesized_density(np.conj(a) * c, n_grid)
    r_2 = synthesized_density(np.conj(b) * c, n_grid)
    mi_split = 0.0
    for r in (r_1, r_2):
        lam = float(r.mean())
        if lam > 1e-12:
            mi_split += lam * circulant_mi(r)
    return circulant_mi(r_single), mi_split, circulant_mi(r_1 + r_2)
