"""Tests for the sparse Fock-space optics layer."""

import numpy as np
import pytest
from scipy.linalg import expm

from diqkd_lab.bellcert import bin_no_click
from diqkd_lab.photonics import (
    DetectorModel,
    ModeMixture,
    _distinct,
    amplifier_success_probability,
    beamsplitter,
    bell_state_measurement,
    detection_probabilities,
    distance_to_transmission,
    fock,
    heralded_single_photon,
    loss_channel,
    mix,
    mode_density,
    permute_modes,
    phase_shift,
    polarization_correlation_table,
    polarization_rotation,
    polarization_singlet,
    qubit_amplifier,
    spdc_source,
    tensor_modes,
    threshold_detect,
    vacuum,
)
from diqkd_lab.qstate import DimensionMismatchError, StateValidationError


def pure(occ, amp, n_max: int) -> ModeMixture:
    """One pure branch holding the normalized amplitudes ``amp`` on the Fock rows ``occ``."""
    amp = np.asarray(amp, dtype=complex)
    return ModeMixture([1.0], np.zeros(len(occ), int), occ, amp / np.linalg.norm(amp), n_max)


def equal_superposition_qubit(n_max: int = 2) -> ModeMixture:
    """(|vac> + |1_H>)/sqrt(2) on an (H, V) mode pair."""
    return pure([[0, 0], [1, 0]], [1.0, 1.0], n_max)


def test_fock_and_vacuum_basics():
    v = vacuum(2, 3)
    assert v.n_modes == 2 and v.n_max == 3
    assert v.probability([0, 0]) == pytest.approx(1.0)
    f = fock([2, 1], 3)
    assert f.probability([2, 1]) == pytest.approx(1.0)
    assert f.probability([1, 1]) == 0.0


def test_mode_state_requires_normalization():
    with pytest.raises(StateValidationError):
        ModeMixture(weights=[1.0], branch=[0], occ=[[0, 0]], amp=[0.5], n_max=1)


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(StateValidationError):
        ModeMixture(weights=[0.4, 0.4], branch=[0, 1], occ=[[0], [0]], amp=[1.0, 1.0])


def test_stacked_ops_match_branch_by_branch():
    """Acting on a whole mixture equals acting on each pure branch and mixing."""
    rng = np.random.default_rng(7)
    # Two photons at most, so the dense views stay small.
    occ = [o for o in np.ndindex(3, 3, 3) if sum(o) <= 2]
    states = [pure(occ, [rng.normal() + 1j * rng.normal() for _ in occ], 2) for _ in range(3)]
    probs = (0.5, 0.3, 0.2)
    mixture = mix(zip(probs, states))
    detector = DetectorModel(efficiency=0.7, dark_count_prob=0.05)
    ops = (
        lambda s: beamsplitter(s, 0, 2, 0.3),
        lambda s: loss_channel(s, 1, 0.6),
        lambda s: permute_modes(s, (2, 0, 1)),
        lambda s: tensor_modes(s, loss_channel(fock([1], 2), 0, 0.5)),
    )
    for op in ops:
        stacked = op(mixture)
        modes = range(stacked.n_modes)
        expected = sum(p * mode_density(op(s), modes) for p, s in zip(probs, states))
        np.testing.assert_allclose(mode_density(stacked, modes), expected, atol=1e-12)
    # Conditioning reweights each branch by its own click probability.
    total, conditional = threshold_detect(mixture, (1,), detector, (True,))
    parts = [threshold_detect(s, (1,), detector, (True,)) for s in states]
    assert total == pytest.approx(sum(p * c for p, (c, _) in zip(probs, parts)), abs=1e-12)
    expected = sum(p * c * mode_density(cond, (0, 1)) for p, (c, cond) in zip(probs, parts))
    np.testing.assert_allclose(mode_density(conditional, (0, 1)), expected / total, atol=1e-12)
    np.testing.assert_allclose(
        detection_probabilities(mixture, (2, 0), detector),
        sum(p * detection_probabilities(s, (2, 0), detector) for p, s in zip(probs, states)),
        atol=1e-12,
    )


def test_tensor_and_permute():
    joint = tensor_modes(fock([1], 2), fock([2], 2))
    assert joint.probability([1, 2]) == pytest.approx(1.0)
    swapped = permute_modes(joint, [1, 0])
    assert swapped.probability([2, 1]) == pytest.approx(1.0)


def test_mode_density_of_single_photon():
    rho = mode_density(fock([1, 0], 1), [0])
    np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)


def test_beamsplitter_transmission_statistics():
    out = beamsplitter(fock([1, 0], 1), 0, 1, 0.7)
    assert out.probability([1, 0]) == pytest.approx(0.7, abs=1e-12)
    assert out.probability([0, 1]) == pytest.approx(0.3, abs=1e-12)


def test_hong_ou_mandel_dip():
    """Two indistinguishable photons on a balanced splitter never split."""
    out = beamsplitter(fock([1, 1], 2), 0, 1, 0.5)
    assert out.probability([1, 1]) == pytest.approx(0.0, abs=1e-12)
    assert out.probability([2, 0]) == pytest.approx(0.5, abs=1e-12)
    assert out.probability([0, 2]) == pytest.approx(0.5, abs=1e-12)


def test_beamsplitter_has_no_truncation():
    """Photons past the nominal ``n_max`` interfere exactly."""
    fits = mix([(0.5, fock([1, 1], 3)), (0.5, fock([3, 0], 3))])
    out = beamsplitter(fits, 0, 1, 0.5)
    # |3, 0> splits binomially; |1, 1> bunches and never reaches |2, 1>.
    assert out.probability([2, 1]) == pytest.approx(0.5 * 3 / 8, abs=1e-12)
    # Four photons across a pair whose input bound is three.
    out = beamsplitter(fock([2, 2], 3), 0, 1, 0.5)
    assert out.probability([4, 0]) == pytest.approx(3 / 8, abs=1e-12)
    assert out.probability([0, 4]) == pytest.approx(3 / 8, abs=1e-12)
    assert out.probability([2, 2]) == pytest.approx(1 / 4, abs=1e-12)
    assert out.n_max == 4


def test_pair_unitary_matches_dense_generator():
    """Sector by sector equals ``expm`` of the generator on a dense truncation."""
    rng = np.random.default_rng(3)
    occ = [o for o in np.ndindex(4, 4, 4) if o[0] + o[2] <= 3]
    state = pure(occ, [rng.normal() + 1j * rng.normal() for _ in occ], 3)
    arr = np.zeros((4, 4, 4), dtype=complex)
    arr[tuple(state.occ.T)] = state.amp
    # A dense truncation at 3 photons per mode holds every sector of up to
    # 3 photons on modes (0, 2) exactly.
    lower = np.diag(np.sqrt(np.arange(1.0, 4.0)), k=1)
    a0 = np.kron(lower, np.eye(4))
    a2 = np.kron(np.eye(4), lower)
    phi = np.arccos(np.sqrt(0.3))
    dense = expm(phi * (a0.T @ a2 - a0 @ a2.T))
    moved = np.moveaxis(arr, (0, 2), (0, 1)).reshape(16, 4)
    expected = np.moveaxis((dense @ moved).reshape(4, 4, 4), (0, 1), (0, 2)).ravel()
    out = beamsplitter(state, 0, 2, 0.3)
    assert len(out.branches) == 1
    np.testing.assert_allclose(
        mode_density(out, (0, 1, 2)), np.outer(expected, expected.conj()), atol=1e-12
    )


def test_distinct_fallback_matches_mixed_radix_keys():
    """Rows whose radix product reaches 2^63 take ``np.unique(axis=0)``, in the same order."""
    rng = np.random.default_rng(5)
    branch = rng.integers(0, 6, size=200)
    occ = rng.integers(0, 4, size=(200, 2))
    rows, index = _distinct(branch, occ)
    offset = 2**62
    big_rows, big_index = _distinct(branch + offset, occ)
    assert len(rows) < 200
    np.testing.assert_array_equal(big_rows[:, 0] - offset, rows[:, 0])
    np.testing.assert_array_equal(big_rows[:, 1:], rows[:, 1:])
    np.testing.assert_array_equal(big_index, index)
    np.testing.assert_array_equal(rows[index], np.column_stack([branch, occ]))


def test_mix_concatenates_and_renormalizes():
    mixed = mix([(0.2, fock([1], 2)), (0.6, loss_channel(fock([2], 2), 0, 0.5))])
    assert len(mixed.branches) == 4
    assert mixed.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert mixed.probability([1]) == pytest.approx(0.25 + 0.75 * 0.5, abs=1e-12)
    assert mixed.probability([0]) == pytest.approx(0.75 * 0.25, abs=1e-12)


def test_polarization_rotation_is_bloch_angle():
    """A rotation by theta sends P(H) to cos^2(theta / 2)."""
    for theta in (0.0, 0.4, np.pi / 2, np.pi):
        out = polarization_rotation(fock([1, 0], 1), 0, 1, theta)
        assert out.probability([1, 0]) == pytest.approx(np.cos(theta / 2) ** 2, abs=1e-12)


def test_loss_channel_single_photon():
    mix = loss_channel(fock([1], 1), 0, 0.6)
    assert mix.probability([1]) == pytest.approx(0.6, abs=1e-12)
    assert mix.probability([0]) == pytest.approx(0.4, abs=1e-12)


def test_distance_to_transmission():
    assert distance_to_transmission(0.0) == pytest.approx(1.0)
    assert distance_to_transmission(15.0) == pytest.approx(10 ** (-0.3), abs=1e-15)
    assert distance_to_transmission(10.0, 0.5) == pytest.approx(10 ** (-0.5), abs=1e-15)


def test_detector_click_probability():
    det = DetectorModel(efficiency=0.8, dark_count_prob=0.01)
    rows = det.outcome_matrix(3)
    assert rows.shape == (4, 2)
    for n in range(4):
        expected = 1.0 - (1.0 - 0.01) * (1.0 - 0.8) ** n
        assert rows[n, 1] == pytest.approx(expected, abs=1e-15)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.2)
    with pytest.raises(ValueError):
        DetectorModel(dark_count_prob=-0.1)


def test_detection_probabilities_single_photon():
    probs = detection_probabilities(fock([1, 0], 1), (0, 1), DetectorModel())
    assert probs[1, 0] == pytest.approx(1.0, abs=1e-12)
    lossy = detection_probabilities(fock([1, 0], 1), (0, 1), DetectorModel(efficiency=0.3))
    assert lossy[1, 0] == pytest.approx(0.3, abs=1e-12)
    assert lossy[0, 0] == pytest.approx(0.7, abs=1e-12)


def test_threshold_detect_heralds_and_discards():
    state = tensor_modes(fock([1], 1), fock([1], 1))
    prob, conditional = threshold_detect(state, (1,), DetectorModel(efficiency=0.5), (True,))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert conditional.n_modes == 1
    assert conditional.probability([1]) == pytest.approx(1.0, abs=1e-12)
    zero, nothing = threshold_detect(vacuum(2, 1), (0,), DetectorModel(), (True,))
    assert zero == pytest.approx(0.0, abs=1e-15)
    assert nothing is None


def test_mode_indices_must_be_distinct_integer_modes():
    state = fock([1, 0, 2], 3)
    detector = DetectorModel()
    bad_calls = (
        # Negative and past-the-end indices.
        lambda: threshold_detect(state, [-1], detector, [True]),
        lambda: phase_shift(state, -1, np.pi),
        lambda: phase_shift(state, 3, np.pi),
        lambda: loss_channel(state, 3, 0.5),
        # Duplicated modes.
        lambda: threshold_detect(state, [0, 0], detector, [True, True]),
        lambda: detection_probabilities(state, [0, 0], detector),
        lambda: mode_density(state, [1, 1]),
        lambda: beamsplitter(state, 2, 2, 0.5),
        # Non-integer indices.
        lambda: loss_channel(state, 1.0, 0.5),
        lambda: polarization_rotation(state, 0, 1.5, 0.3),
        lambda: permute_modes(state, (2, 0.9, 1)),
    )
    for call in bad_calls:
        with pytest.raises(DimensionMismatchError):
            call()
    pair = polarization_singlet()
    with pytest.raises(DimensionMismatchError):
        polarization_correlation_table(pair, (0, 1), (1, 2), [0.0], [0.0])
    with pytest.raises(DimensionMismatchError):
        bell_state_measurement(pair, (0, 1), (2, 4))
    with pytest.raises(DimensionMismatchError):
        qubit_amplifier(pair, (2, 4), 0.9)


def test_polarization_singlet_correlator():
    """The singlet correlator is -cos(theta_a - theta_b)."""
    state = polarization_singlet()
    for theta_a, theta_b in [(0.0, 0.0), (0.0, np.pi / 8), (0.3, 0.7)]:
        table = bin_no_click(
            polarization_correlation_table(state, (0, 1), (2, 3), [theta_a], [theta_b])
        )
        assert table.correlator(0, 0) == pytest.approx(
            -np.cos(theta_a - theta_b), abs=1e-12
        )


def test_spdc_source_components():
    p = 0.1
    src = spdc_source(p, n_pair_max=2)
    weights = np.array([(1 - p) * p**n for n in range(3)])
    weights /= weights.sum()
    assert src.probability([0, 0, 0, 0]) == pytest.approx(weights[0], abs=1e-12)
    # Single-pair part is the polarization singlet, split over two terms.
    assert src.probability([1, 0, 0, 1]) == pytest.approx(weights[1] / 2, abs=1e-12)
    assert src.probability([0, 1, 1, 0]) == pytest.approx(weights[1] / 2, abs=1e-12)
    # Two-pair terms carry the |2002> - |1111> + |0220> structure.
    assert src.probability([1, 1, 1, 1]) > 0.0


def test_heralded_single_photon_statistics():
    p = 0.1
    rec = heralded_single_photon(p, DetectorModel(), n_pair_max=2)
    weights = np.array([(1 - p) * p**n for n in range(3)])
    weights /= weights.sum()
    assert rec.success_probability == pytest.approx(weights[1] + weights[2], abs=1e-12)
    cond = rec.conditional_state
    assert cond.probability([1]) == pytest.approx(
        weights[1] / (weights[1] + weights[2]), abs=1e-12
    )
    # The multi-pair contamination tail is present.
    assert cond.probability([2]) > 0.0


def test_pair_sources_reject_negative_pair_cut():
    with pytest.raises(ValueError, match="n_pair_max must be non-negative"):
        spdc_source(0.1, -1)
    with pytest.raises(ValueError, match="n_pair_max must be non-negative"):
        heralded_single_photon(0.1, DetectorModel(), n_pair_max=-1)


def test_entanglement_swapping_success_probability():
    """A linear-optics Bell measurement heralds on half of all singlet pairs."""
    two_pairs = tensor_modes(polarization_singlet(), polarization_singlet())
    result = bell_state_measurement(two_pairs, (2, 3), (4, 5))
    assert result.success_probability == pytest.approx(0.5, abs=1e-12)
    for outcome in result.outcomes:
        assert outcome.probability == pytest.approx(0.125, abs=1e-12)
        assert outcome.state.n_modes == 4
    labels = sorted(outcome.label for outcome in result.outcomes)
    assert labels == ["psi+", "psi+", "psi-", "psi-"]


def test_amplifier_herald_probability_closed_forms():
    """Ideal ancillas: heralds at 1 - T on a photon and (1 - T)^2 on vacuum."""
    t = 0.8
    photon = qubit_amplifier(fock([1, 0], 2), (0, 1), t)
    assert photon.success_probability == pytest.approx(1.0 - t, abs=1e-12)
    vac = qubit_amplifier(vacuum(2, 2), (0, 1), t)
    assert vac.success_probability == pytest.approx((1.0 - t) ** 2, abs=1e-12)
    sup = qubit_amplifier(equal_superposition_qubit(), (0, 1), t)
    assert sup.success_probability == pytest.approx(
        0.5 * (1.0 - t) + 0.5 * (1.0 - t) ** 2, abs=1e-12
    )


def test_amplifier_gain_on_equal_superposition():
    """Population re-weighting gives gain sqrt(T / (2 (1 - T))) here."""
    for t in (0.5, 0.8, 0.9):
        rec = qubit_amplifier(equal_superposition_qubit(), (0, 1), t)
        assert rec.gain == pytest.approx(np.sqrt(t / (2.0 * (1.0 - t))), abs=1e-9)


def test_amplifier_gain_herald_tradeoff():
    gains, heralds = [], []
    for t in np.linspace(0.5, 0.95, 6):
        rec = qubit_amplifier(equal_superposition_qubit(), (0, 1), float(t))
        gains.append(rec.gain)
        heralds.append(rec.success_probability)
    assert all(b > a for a, b in zip(gains, gains[1:]))
    assert all(b < a for a, b in zip(heralds, heralds[1:]))


def test_amplifier_success_probability_formula():
    assert amplifier_success_probability(1.0, 0.5, 1.0) == pytest.approx(0.5)
    assert amplifier_success_probability(0.9, 0.99, 0.011) == pytest.approx(
        0.9**2 * 0.01 * 0.011**2, rel=1e-12
    )


def test_amplifier_rejects_bad_transmission():
    with pytest.raises(ValueError):
        qubit_amplifier(fock([1, 0], 1), (0, 1), 1.0)
