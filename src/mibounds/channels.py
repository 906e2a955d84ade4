"""Noisy quantum-phase-estimation models on M qubits.

Qubit j picks up the phase 2^j * 2*pi*phi (N = 2^M - 1 calls in total)
and is degraded by one of three single-qubit noise channels with
retention parameter eta in [0, 1]:

* "dephasing": the off-diagonal element of qubit j survives with factor
  eta^(2^j), so the purified overlap factor carries the squared factor
  eta^(2^(j+1)) on its oscillating term;
* "amplitude-damping": excited population decays, survival eta per call;
* "erasure": the qubit is replaced by a flag state with probability
  1 - eta per call.

For each channel the overlap f(phi) = <psi_0|psi_phi> of the purified
run factorizes over qubits as prod_j (1 - x_j + x_j e^(i 2 pi 2^j phi)),
which makes the Fourier weights a product of binary distributions and
the spectrum entropy a sum of binary entropies. The x_j are M Python
floats (mode_weight_args), so chi_closed_form is O(M) scalar arithmetic
and needs no numpy; the overlap and the purified family, two
coordinates per qubit, build their arrays from the same x_j.
"""

import math

from ._lazy import np
from .errors import ValidationError
from .numerics import PeriodicGridFunction, binary_entropy, record

CHANNEL_KINDS = ("dephasing", "amplitude-damping", "erasure")

# closed forms are sums over qubits; well past j ~ 50 the terms underflow,
# and 2^M overflows int64 bookkeeping long before that matters
MAX_QUBITS = 30


class NoisyQpeModel(record("NoisyQpeModel", "kind n_qubits eta")):
    """A noisy phase-estimation run: channel kind, qubit count M, eta.

    M is stored as an int and eta as a float; a count with a fractional
    part (2.7) is refused, not truncated.
    """

    __slots__ = ()

    def __new__(cls, kind, n_qubits, eta):
        if kind not in CHANNEL_KINDS:
            raise ValidationError(
                f"unknown channel {kind!r}, expected one of {CHANNEL_KINDS}"
            )
        try:
            m = int(n_qubits)
            integral = m == n_qubits
        except (TypeError, ValueError, OverflowError):  # NaN, inf, None
            integral = False
        if not integral:
            raise ValidationError(f"n_qubits must be an integer, got {n_qubits!r}")
        if not (1 <= m <= MAX_QUBITS):
            raise ValidationError(f"n_qubits must be in 1..{MAX_QUBITS}")
        if not (0.0 <= eta <= 1.0):
            raise ValidationError("eta must lie in [0, 1]")
        return super().__new__(cls, kind, m, float(eta))

    @property
    def n_calls(self):
        """Total phase-gate calls 2^M - 1."""
        return 2 ** self.n_qubits - 1


# per channel, x_j = b^2 of qubit j's purification factor from eta and
# p = 2^j. Dephasing takes eta^(2p) as its own power: 0.5 * y * y with
# y = eta^p differs from it in the last bit.
_FACTOR_WEIGHTS = {
    "dephasing": lambda eta, p: eta ** (2.0 * p) / 2.0,
    "amplitude-damping": lambda eta, p: (y := eta**p) / (4.0 - 2.0 * y),
    "erasure": lambda eta, p: eta**p / 2.0,
}


def mode_weight_args(model: NoisyQpeModel):
    """Oscillating-term coefficients x_j = b^2 of the per-qubit overlap factors.

    Qubit j contributes the factor 1 - x_j + x_j e^(i 2 pi 2^j phi), so
    the chi increment of qubit j is the binary entropy of x_j. Returns
    the M values as a list of floats, j = 0..M-1.
    """
    x_fn = _FACTOR_WEIGHTS[model.kind]
    return [x_fn(model.eta, 2.0**j) for j in range(model.n_qubits)]


def overlap_function(model: NoisyQpeModel, n_grid=None) -> PeriodicGridFunction:
    """Overlap f(phi) = <psi_0|psi_phi> of the purified run on a period-1 grid.

    f(0) = 1 exactly and |f| <= 1 everywhere; the modes live on
    k = 0..2^M - 1. The default grid resolves them with a factor-4
    margin (at least 64 points). Bounds use chi_closed_form; this grid
    form is the FFT oracle it is checked against.
    """
    if n_grid is None:
        n_grid = max(4 * (model.n_calls + 1), 64)
    xs = mode_weight_args(model)
    phis = np.arange(int(n_grid)) * (1.0 / int(n_grid))
    values = np.ones(int(n_grid), dtype=complex)
    for j, x in enumerate(xs):
        values *= (1.0 - x) + x * np.exp(1j * 2.0 * np.pi * (2**j) * phis)
    return PeriodicGridFunction(1.0, values)


def chi_closed_form(model: NoisyQpeModel) -> float:
    """Spectrum entropy chi in bits as a sum of per-qubit binary entropies."""
    return sum(map(binary_entropy, mode_weight_args(model)))


def dephasing_qfi(model: NoisyQpeModel) -> float:
    """Fisher information (2 pi)^2 sum_j 4^j eta^(2^j) of the dephased run.

    At eta = 1 this collapses to (2 pi)^2 (4^M - 1) / 3, the noiseless
    Heisenberg value for N = 2^M - 1 calls. No other channel has one yet.
    """
    if model.kind != "dephasing":
        raise ValidationError(
            "the Fisher route needs the channel Fisher information, "
            "available for dephasing only"
        )
    return (2.0 * math.pi) ** 2 * sum(4.0**j * model.eta ** (2.0**j)
                                      for j in range(model.n_qubits))


def _factor_states(model: NoisyQpeModel, phis):
    """Qubit j's factor sqrt(1 - x_j)|0> + sqrt(x_j) e^(i 2 pi 2^j phi)|1>.

    Yields (2, len(phis)) arrays, dimension-major with one column per phi.
    The fixed isometry |0> -> (a|u> + c|w>) / sqrt(1 - x_j), |1> -> |v>
    maps it onto the purification a|u> + b e^(i 2 pi 2^j phi)|v> + c|w>
    (b^2 = x_j), so no overlap, and no spectral weight, changes.
    """
    for j, x in enumerate(mode_weight_args(model)):
        out = np.empty((2, phis.size), dtype=complex)
        out[0] = math.sqrt(1.0 - x)
        out[1] = math.sqrt(x) * np.exp(1j * 2.0 * np.pi * (2**j) * phis)
        yield out


def purified_state_family(model: NoisyQpeModel, phis):
    """Explicit tensor-product purified states |psi_phi>, one row per phi.

    Each qubit keeps two coordinates (_factor_states), a fixed isometry of
    its purification that changes no overlap, norm or spectrum, so the
    array is (len(phis), 2^M), the last qubit's index running fastest.
    It is built dimension-major and returned as the transpose, so each
    state dimension is one contiguous column: the column-block FFT of
    fourier_bound_from_states then reads contiguous memory. Kept to
    M <= 6; it exists to cross-check the product overlap against honest
    state vectors.
    """
    if model.n_qubits > 6:
        raise ValidationError("purified family construction kept to n_qubits <= 6")
    phis = np.asarray(phis, dtype=float)
    states = np.ones((1, phis.size), dtype=complex)
    for factor in _factor_states(model, phis):
        states = (states[:, None, :] * factor[None, :, :]).reshape(-1, phis.size)
    return states.T
