"""Noisy phase-estimation channel models and their spectra."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mibounds.bounds import (
    PriorDensity,
    StateFamily,
    _spectrum_from_states,
    fourier_bound_from_overlap,
    fourier_bound_from_states,
)
from mibounds.channels import (
    CHANNEL_KINDS,
    NoisyQpeModel,
    _factor_states,
    chi_closed_form,
    dephasing_qfi,
    mode_weight_args,
    overlap_function,
    purified_state_family,
)
from mibounds.errors import DomainError, ValidationError
from mibounds.numerics import (
    binary_entropy,
    entropy_bits_of_weights,
    fourier_modes,
)


def test_model_validation():
    with pytest.raises(ValidationError):
        NoisyQpeModel("depolarizing", 2, 0.5)
    with pytest.raises(ValidationError):
        NoisyQpeModel("dephasing", 0, 0.5)
    with pytest.raises(ValidationError):
        NoisyQpeModel("dephasing", 31, 0.5)
    with pytest.raises(DomainError):
        NoisyQpeModel("dephasing", 2, 1.5)
    with pytest.raises(DomainError):
        NoisyQpeModel("erasure", 2, -0.1)


def test_call_budget():
    for m in (1, 3, 10):
        assert NoisyQpeModel("dephasing", m, 0.5).n_calls == 2**m - 1


def test_mode_weight_formulas():
    """Per-qubit weights follow the three channel survival laws."""
    for eta in (0.0, 0.3, 0.7, 1.0):
        for m in (1, 2, 4):
            xs_deph = mode_weight_args(NoisyQpeModel("dephasing", m, eta))
            xs_ad = mode_weight_args(
                NoisyQpeModel("amplitude-damping", m, eta)
            )
            xs_er = mode_weight_args(NoisyQpeModel("erasure", m, eta))
            for j in range(m):
                y = eta ** (2**j)
                assert abs(xs_deph[j] - eta ** (2 ** (j + 1)) / 2.0) < 1e-15
                assert abs(xs_ad[j] - y / (4.0 - 2.0 * y)) < 1e-15
                assert abs(xs_er[j] - y / 2.0) < 1e-15


def test_chi_is_sum_of_binary_entropies():
    rng = np.random.default_rng(12)
    for _ in range(20):
        kind = CHANNEL_KINDS[int(rng.integers(0, 3))]
        model = NoisyQpeModel(kind, int(rng.integers(1, 9)), float(rng.uniform()))
        want = sum(binary_entropy(float(x)) for x in mode_weight_args(model))
        assert abs(chi_closed_form(model) - want) < 1e-14


def test_noiseless_saturation_is_exact():
    """At eta = 1 every channel yields exactly one bit per qubit."""
    for kind in CHANNEL_KINDS:
        for m in range(1, 21):
            assert chi_closed_form(NoisyQpeModel(kind, m, 1.0)) == float(m)


def test_full_noise_kills_chi():
    for kind in ("dephasing", "amplitude-damping", "erasure"):
        assert chi_closed_form(NoisyQpeModel(kind, 4, 0.0)) == 0.0


def test_chi_monotone_in_eta_and_m():
    for kind in CHANNEL_KINDS:
        vals = [
            chi_closed_form(NoisyQpeModel(kind, 3, e))
            for e in np.linspace(0.05, 1.0, 12)
        ]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        by_m = [
            chi_closed_form(NoisyQpeModel(kind, m, 0.8)) for m in range(1, 7)
        ]
        assert all(v2 > v1 for v1, v2 in zip(by_m, by_m[1:]))
    # for eta < 1 the per-qubit gains shrink, so chi saturates while the
    # call budget 2^M - 1 doubles
    chis = [chi_closed_form(NoisyQpeModel("dephasing", m, 0.8))
            for m in range(1, 9)]
    increments = [c2 - c1 for c1, c2 in zip(chis, chis[1:])]
    assert all(i2 < i1 for i1, i2 in zip(increments, increments[1:]))
    assert increments[-1] < 1e-3


def test_overlap_route_matches_closed_form():
    for kind in CHANNEL_KINDS:
        for m in range(1, 7):
            for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
                model = NoisyQpeModel(kind, m, eta)
                numeric = fourier_bound_from_overlap(overlap_function(model))
                assert abs(numeric.bound_bits - chi_closed_form(model)) < 1e-10


def _array_chi(kind, m, eta):
    """chi by the array formula the scalar one replaced: numpy's power for
    every x_j at once, numpy's log in each binary entropy."""
    p = 2.0 ** np.arange(m, dtype=float)
    y = eta**p
    xs = {"dephasing": eta ** (2.0 * p) / 2.0,
          "amplitude-damping": y / (4.0 - 2.0 * y),
          "erasure": y / 2.0}[kind]
    total = 0.0
    for x in xs:
        h = 0.0
        if x > 0.0:
            h -= x * np.log(x)
        if x < 1.0:
            h -= (1.0 - x) * np.log(1.0 - x)
        total += float(h / np.log(2.0))
    return total


@settings(max_examples=200, deadline=None)
@given(hst.sampled_from(CHANNEL_KINDS), hst.integers(1, 12),
       hst.floats(0.0, 1.0))
def test_scalar_chi_matches_fft_oracle_and_array_formula(kind, m, eta):
    """The O(M) scalar chi equals the entropy of the overlap's FFT
    spectrum on k = 0..2^M - 1 within 1e-12 bits, and the former array
    formula to roundoff: numpy's SIMD log and power differ from libm's in
    the last bit, and one ulp of a chi near 12 bits is 1.8e-15."""
    model = NoisyQpeModel(kind, m, eta)
    chi = chi_closed_form(model)
    _, coeffs = fourier_modes(overlap_function(model), (0, 2**m - 1))
    spectrum = entropy_bits_of_weights(np.clip(coeffs.real, 0.0, None))
    assert abs(chi - spectrum) < 1e-12
    assert abs(chi - _array_chi(kind, m, eta)) <= 1e-15 * max(1.0, chi)


def test_overlap_function_product_form():
    """f(phi) is the product of per-qubit factors; f(0) = 1."""
    model = NoisyQpeModel("dephasing", 3, 0.6)
    f = overlap_function(model, 128)
    xs = mode_weight_args(model)
    phis = f.grid
    want = np.ones(128, dtype=complex)
    for j, x in enumerate(xs):
        want *= (1.0 - x) + x * np.exp(2j * np.pi * (2**j) * phis)
    assert np.max(np.abs(f.values - want)) < 1e-12
    assert abs(f.values[0] - 1.0) < 1e-12


def test_dephasing_qfi_values():
    # geometric sum over qubit weights 4^j, each damped as eta^(2^j)
    for m in (1, 2, 3, 5):
        for eta in (0.3, 0.9, 1.0):
            j = np.arange(m)
            want = 4.0 * np.pi**2 * np.sum(4.0**j * eta ** (2.0**j))
            model = NoisyQpeModel("dephasing", m, eta)
            assert abs(dephasing_qfi(model) - want) < 1e-9
    # noiseless value is the Heisenberg coefficient (2 pi)^2 (4^M - 1)/3
    for m in (1, 4, 8):
        want = 4.0 * np.pi**2 * (4.0**m - 1.0) / 3.0
        model = NoisyQpeModel("dephasing", m, 1.0)
        assert abs(dephasing_qfi(model) - want) < 1e-6 * want


@settings(max_examples=300, deadline=None)
@given(m=hst.integers(1, 30), eta=hst.floats(0.0, 1.0))
def test_dephasing_qfi_scalar_sum_matches_array_formula(m, eta):
    """The scalar sum agrees with the numpy array formula it replaced,
    (2 pi)^2 sum of 4^j eta^(2^j) over j = arange(M), within 1e-15
    relative: only the order of the additions and the pow differ."""
    j = np.arange(m, dtype=float)
    want = float((2.0 * np.pi) ** 2 * (4.0**j * eta ** (2.0**j)).sum())
    got = dephasing_qfi(NoisyQpeModel("dephasing", m, eta))
    assert abs(got - want) <= 1e-15 * want


def test_dephasing_qfi_validation():
    """Only the dephasing channel has a Fisher information; M and eta are
    checked once, by NoisyQpeModel (test_model_validation)."""
    for kind in ("amplitude-damping", "erasure"):
        with pytest.raises(ValidationError, match="dephasing"):
            dephasing_qfi(NoisyQpeModel(kind, 2, 0.5))


def test_purified_states_reproduce_overlap():
    """<psi_0 | psi_phi> of the purified family equals the scalar overlap."""
    for kind in CHANNEL_KINDS:
        for m in range(1, 7):
            for eta in (0.0, 0.7, 1.0):
                model = NoisyQpeModel(kind, m, eta)
                f = overlap_function(model, 64)
                states = purified_state_family(model, f.grid)
                got = states @ states[0].conj()
                assert np.max(np.abs(got - f.values)) < 1e-12
                norms = np.linalg.norm(states, axis=1)
                assert np.max(np.abs(norms - 1.0)) < 1e-12


# Full purification of one qubit factor: its dimension and the indices of
# the three coordinates a, b e^(i 2 pi 2^j phi), c that carry amplitude
# (dephasing and amplitude damping: system x environment qubit; erasure:
# system qutrit x environment qubit).
_WIDE_LAYOUT = {
    "dephasing": (4, (0, 2, 3)),
    "amplitude-damping": (4, (0, 2, 1)),
    "erasure": (6, (0, 2, 5)),
}


def _wide_amplitudes(kind, y):
    """(a, b, c) of each channel written out as amplitudes, y = eta^(2^j)."""
    if kind == "dephasing":
        return np.array([1.0, y, np.sqrt(1.0 - y * y)]) / np.sqrt(2.0)
    if kind == "amplitude-damping":
        return np.array([np.sqrt(2.0 - y), np.sqrt(y) / np.sqrt(2.0 - y),
                         np.sqrt(y * (1.0 - y) / (2.0 - y))]) / np.sqrt(2.0)
    return np.array([np.sqrt(y / 2.0), np.sqrt(y / 2.0), np.sqrt(1.0 - y)])


def _wide_family(model, phis):
    """Oracle: the purified family in its full dim^M layout, zeros included."""
    dim, idx = _WIDE_LAYOUT[model.kind]
    states = np.ones((phis.size, 1), dtype=complex)
    for j in range(model.n_qubits):
        a, b, c = _wide_amplitudes(model.kind, model.eta ** (2.0**j))
        factor = np.zeros((phis.size, dim), dtype=complex)
        factor[:, idx[0]] = a
        factor[:, idx[1]] = b * np.exp(2j * np.pi * (2**j) * phis)
        factor[:, idx[2]] = c
        states = (states[:, :, None] * factor[:, None, :]).reshape(phis.size, -1)
    return states


@settings(max_examples=60, deadline=None)
@given(
    kind=hst.sampled_from(CHANNEL_KINDS),
    n_qubits=hst.integers(1, 4),
    eta=hst.one_of(hst.sampled_from([0.0, 1.0]), hst.floats(0.0, 1.0)),
    extra=hst.integers(0, 20),
)
def test_compact_family_matches_wide_oracle(kind, n_qubits, eta, extra):
    """Same Gram matrix and same bound as the zero-padded full purification."""
    model = NoisyQpeModel(kind, n_qubits, eta)
    k_side = model.n_calls + 2
    prior = PriorDensity.uniform(1.0, 4 * k_side + 2 + 2 * extra)
    compact = purified_state_family(model, prior.grid)
    wide = _wide_family(model, prior.grid)
    assert compact.shape == (prior.n_grid, 2**n_qubits)
    assert wide.shape == (prior.n_grid, _WIDE_LAYOUT[kind][0] ** n_qubits)
    gram = compact @ compact.conj().T
    assert np.max(np.abs(gram - wide @ wide.conj().T)) < 1e-12
    bits = [
        fourier_bound_from_states(StateFamily(1.0, s), prior, (-k_side, k_side))
        .bound_bits for s in (compact, wide)
    ]
    assert abs(bits[0] - bits[1]) < 1e-12


@pytest.mark.parametrize("n_grid", [37, 64])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_purified_family_is_the_per_phi_kron_chain(kind, n_grid):
    """Row phi is factor_0(phi) x ... x factor_(M-1)(phi), bit for bit, and
    the array is column-major: one contiguous column per state dimension."""
    phis = np.arange(n_grid) / n_grid
    for m in range(1, 5):
        for eta in (0.0, 0.3, 1.0):
            model = NoisyQpeModel(kind, m, eta)
            states = purified_state_family(model, phis)
            factors = list(_factor_states(model, phis))
            want = np.empty((n_grid, 2**m), dtype=complex)
            for i in range(n_grid):
                row = np.ones(1, dtype=complex)
                for factor in factors:
                    row = np.kron(row, factor[:, i])
                want[i] = row
            assert states.shape == want.shape and np.array_equal(states, want)
            assert states.flags.f_contiguous


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_states_spectrum_is_layout_independent(kind):
    """The column-major family and its row-major copy give identical
    weights; M = 5 and 6 run at one eta to keep this fast."""
    prior = PriorDensity.uniform(1.0, 512)
    for m in range(1, 7):
        k_side = 2**m + 1
        for eta in (0.2, 0.9) if m <= 4 else (0.6,):
            states = purified_state_family(NoisyQpeModel(kind, m, eta),
                                           prior.grid)
            ks, weights = _spectrum_from_states(
                StateFamily(1.0, states), prior, (-k_side, k_side))
            _, row_major = _spectrum_from_states(
                StateFamily(1.0, np.ascontiguousarray(states)), prior,
                (-k_side, k_side))
            assert ks.size == 2 * k_side + 1
            assert np.array_equal(weights, row_major)


@settings(max_examples=100, deadline=None)
@given(
    kind=hst.sampled_from(CHANNEL_KINDS),
    n_qubits=hst.integers(1, 6),
    eta=hst.one_of(hst.sampled_from([0.0, 1.0]), hst.floats(0.0, 1.0)),
)
def test_states_spectrum_is_the_product_of_binaries(kind, n_qubits, eta):
    """Each weight of the states route, not only their entropy: f_k is
    prod_j (x_j if bit j of k is set, else 1 - x_j) for 0 <= k <= N and
    0 elsewhere in the window, within 1e-12."""
    model = NoisyQpeModel(kind, n_qubits, eta)
    prior = PriorDensity.uniform(1.0, 512)
    k_side = model.n_calls + 2
    ks, weights = _spectrum_from_states(
        StateFamily(1.0, purified_state_family(model, prior.grid)), prior,
        (-k_side, k_side))
    xs = mode_weight_args(model)
    want = [
        math.prod(x if k >> j & 1 else 1.0 - x for j, x in enumerate(xs))
        if 0 <= k <= model.n_calls else 0.0
        for k in ks.tolist()
    ]
    assert np.max(np.abs(weights - np.array(want))) <= 1e-12


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_six_qubit_states_route_is_small(kind):
    """M = 6 on 512 points: a 2^6-wide family, states op under 4 MiB."""
    model = NoisyQpeModel(kind, 6, 0.9)
    prior = PriorDensity.uniform(1.0, 512)
    k_side = model.n_calls + 2
    tracemalloc.start()
    try:
        states = purified_state_family(model, prior.grid)
        rep = fourier_bound_from_states(
            StateFamily(1.0, states), prior, (-k_side, k_side)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.shape == (512, 64)
    assert peak < 4 * 2**20
    assert abs(rep.bound_bits - chi_closed_form(model)) < 1e-8


def test_purified_state_family_cap():
    with pytest.raises(ValidationError):
        purified_state_family(
            NoisyQpeModel("dephasing", 7, 0.5), np.arange(64) / 64.0
        )
