"""Tests for the sparse Fock-space optics layer."""

import inspect
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from diqkd_lab import architectures, photonics
from diqkd_lab.architectures import ALICE_ANGLES, BOB_ANGLES, Scenario
from diqkd_lab.bellcert import bin_no_click
from diqkd_lab.photonics import (
    OUTCOME_CODES,
    DetectorModel,
    ModeMixture,
    _click_povms,
    _binomials,
    _distinct,
    _sector_blocks,
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


def pure(occ, amp) -> ModeMixture:
    """One pure branch holding the normalized amplitudes ``amp`` on the Fock rows ``occ``."""
    amp = np.asarray(amp, dtype=complex)
    return ModeMixture([1.0], np.zeros(len(occ), int), occ, amp / np.linalg.norm(amp))


def equal_superposition_qubit() -> ModeMixture:
    """(|vac> + |1_H>)/sqrt(2) on an (H, V) mode pair."""
    return pure([[0, 0], [1, 0]], [1.0, 1.0])


def test_fock_and_vacuum_basics():
    v = vacuum(2)
    assert v.n_modes == 2 and v.n_max == 0
    assert v.probability([0, 0]) == pytest.approx(1.0)
    f = fock([2, 1])
    assert f.probability([2, 1]) == pytest.approx(1.0)
    assert f.probability([1, 1]) == 0.0


def test_fock_rejects_non_integral_occupations():
    """A fractional occupation is an error, not truncated to |1, 0>."""
    with pytest.raises(DimensionMismatchError):
        fock([1.7, 0])
    numpy_int = fock([np.int64(1), 0])
    plain = fock([1, 0])
    np.testing.assert_array_equal(numpy_int.occ, plain.occ)
    np.testing.assert_array_equal(numpy_int.amp, plain.amp)
    np.testing.assert_array_equal(numpy_int.weights, plain.weights)
    assert numpy_int.n_max == plain.n_max


def test_n_max_is_the_largest_occupation():
    assert fock([5, 0]).n_max == 5
    assert polarization_singlet().n_max == 1
    assert spdc_source(0.1, n_pair_max=3).n_max == 3


def test_no_photonics_function_takes_n_max():
    functions = [getattr(photonics, name) for name in photonics.__all__]
    functions = [f for f in functions if inspect.isfunction(f)]
    assert fock in functions and vacuum in functions
    for function in functions:
        assert "n_max" not in inspect.signature(function).parameters, function.__name__


def test_mode_state_requires_normalization():
    with pytest.raises(StateValidationError):
        ModeMixture(weights=[1.0], branch=[0], occ=[[0, 0]], amp=[0.5])


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(StateValidationError):
        ModeMixture(weights=[0.4, 0.4], branch=[0, 1], occ=[[0], [0]], amp=[1.0, 1.0])


def test_mixture_rejects_nan_amplitudes_and_weights():
    with pytest.raises(StateValidationError, match="not normalized"):
        phase_shift(fock([1]), 0, np.nan)
    with pytest.raises(StateValidationError, match="branch 1 has invalid weight nan"):
        ModeMixture(weights=[1.0, np.nan], branch=[0, 1], occ=[[0], [1]], amp=[1.0, 1.0])
    with pytest.raises(StateValidationError):
        polarization_correlation_table(polarization_singlet(), (0, 1), (2, 3), [np.nan], [0.0])


def test_stacked_ops_match_branch_by_branch():
    """Acting on a whole mixture equals acting on each pure branch and mixing."""
    rng = np.random.default_rng(7)
    # Two photons at most, so the dense views stay small.
    occ = [o for o in np.ndindex(3, 3, 3) if sum(o) <= 2]
    states = [pure(occ, [rng.normal() + 1j * rng.normal() for _ in occ]) for _ in range(3)]
    probs = (0.5, 0.3, 0.2)
    mixture = mix(zip(probs, states))
    detector = DetectorModel(efficiency=0.7, dark_count_prob=0.05)
    ops = (
        lambda s: beamsplitter(s, 0, 2, 0.3),
        lambda s: loss_channel(s, 1, 0.6),
        lambda s: permute_modes(s, (2, 0, 1)),
        lambda s: tensor_modes(s, loss_channel(fock([1]), 0, 0.5)),
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
    joint = tensor_modes(fock([1]), fock([2]))
    assert joint.probability([1, 2]) == pytest.approx(1.0)
    swapped = permute_modes(joint, [1, 0])
    assert swapped.probability([2, 1]) == pytest.approx(1.0)


def test_mode_density_of_single_photon():
    rho = mode_density(fock([1, 0]), [0])
    np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)


def test_beamsplitter_transmission_statistics():
    out = beamsplitter(fock([1, 0]), 0, 1, 0.7)
    assert out.probability([1, 0]) == pytest.approx(0.7, abs=1e-12)
    assert out.probability([0, 1]) == pytest.approx(0.3, abs=1e-12)


def test_hong_ou_mandel_dip():
    """Two indistinguishable photons on a balanced splitter never split."""
    out = beamsplitter(fock([1, 1]), 0, 1, 0.5)
    assert out.probability([1, 1]) == pytest.approx(0.0, abs=1e-12)
    assert out.probability([2, 0]) == pytest.approx(0.5, abs=1e-12)
    assert out.probability([0, 2]) == pytest.approx(0.5, abs=1e-12)


def test_beamsplitter_has_no_truncation():
    """Photons past the input's ``n_max`` interfere exactly."""
    fits = mix([(0.5, fock([1, 1])), (0.5, fock([3, 0]))])
    out = beamsplitter(fits, 0, 1, 0.5)
    # |3, 0> splits binomially; |1, 1> bunches and never reaches |2, 1>.
    assert out.probability([2, 1]) == pytest.approx(0.5 * 3 / 8, abs=1e-12)
    # Four photons across a pair whose input holds at most two per mode.
    out = beamsplitter(fock([2, 2]), 0, 1, 0.5)
    assert out.probability([4, 0]) == pytest.approx(3 / 8, abs=1e-12)
    assert out.probability([0, 4]) == pytest.approx(3 / 8, abs=1e-12)
    assert out.probability([2, 2]) == pytest.approx(1 / 4, abs=1e-12)
    assert out.n_max == 4


def test_pair_unitary_matches_dense_generator():
    """Sector by sector equals ``expm`` of the generator on a dense truncation."""
    rng = np.random.default_rng(3)
    occ = [o for o in np.ndindex(4, 4, 4) if o[0] + o[2] <= 3]
    state = pure(occ, [rng.normal() + 1j * rng.normal() for _ in occ])
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


def test_sector_blocks_are_orthogonal():
    for phi in (np.pi / 4, 5 * np.pi / 8, np.arccos(np.sqrt(0.3)), 1.0):
        blocks = _sector_blocks(8, phi)
        for t in range(9):
            b = blocks[t, : t + 1, : t + 1]
            np.testing.assert_allclose(b.T @ b, np.eye(t + 1), rtol=0, atol=1e-14)


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
    mixed = mix([(0.2, fock([1])), (0.6, loss_channel(fock([2]), 0, 0.5))])
    assert len(mixed.branches) == 4
    assert mixed.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert mixed.probability([1]) == pytest.approx(0.25 + 0.75 * 0.5, abs=1e-12)
    assert mixed.probability([0]) == pytest.approx(0.75 * 0.25, abs=1e-12)


def test_mix_rejects_bad_probabilities():
    with pytest.raises(ValueError, match="probability -2.0"):
        mix([(-2.0, fock([1])), (-1.0, fock([0]))])
    with pytest.raises(ValueError, match="probability -1.0"):
        mix([(-1.0, fock([1]))])
    with pytest.raises(ValueError, match="probability nan"):
        mix([(np.nan, fock([1])), (1.0, fock([0]))])
    with pytest.raises(ValueError, match="probability inf"):
        mix([(np.inf, fock([1]))])
    with pytest.raises(ValueError, match="at least one part"):
        mix([])
    with pytest.raises(ValueError, match="sum to zero"):
        mix([(0.0, fock([1]))])
    # A zero-probability part beside a positive one is allowed and dropped.
    assert mix([(0.0, fock([1])), (2.0, fock([0]))]).probability([0]) == 1.0


def test_mixture_rejects_fractional_occupations_and_branches():
    with pytest.raises(DimensionMismatchError, match="occ must hold whole numbers, got 1.7"):
        ModeMixture([1.0], [0], [[1.7]], [1.0])
    with pytest.raises(DimensionMismatchError, match="branch must hold whole numbers, got 0.5"):
        ModeMixture([1.0], [0.5], [[1]], [1.0])
    with pytest.raises(DimensionMismatchError, match="occ must hold whole numbers, got nan"):
        ModeMixture([1.0], [0], [[np.nan]], [1.0])
    # Whole numbers stored as floats are accepted.
    state = ModeMixture([1.0], [0.0], [[1.0, 0.0]], [1.0])
    np.testing.assert_array_equal(state.occ, [[1, 0]])
    assert state.occ.dtype == np.intp and state.branch.dtype == np.intp


def test_polarization_rotation_is_bloch_angle():
    """A rotation by theta sends P(H) to cos^2(theta / 2)."""
    for theta in (0.0, 0.4, np.pi / 2, np.pi):
        out = polarization_rotation(fock([1, 0]), 0, 1, theta)
        assert out.probability([1, 0]) == pytest.approx(np.cos(theta / 2) ** 2, abs=1e-12)


def test_loss_channel_single_photon():
    mix = loss_channel(fock([1]), 0, 0.6)
    assert mix.probability([1]) == pytest.approx(0.6, abs=1e-12)
    assert mix.probability([0]) == pytest.approx(0.4, abs=1e-12)


def test_binomial_table_is_exact():
    top = 40
    table = _binomials(top)
    assert not table.flags.writeable
    exact = [[float(math.comb(n, k)) for k in range(top + 1)] for n in range(top + 1)]
    assert table.tolist() == exact
    # scipy.special.comb returns the same floats while n <= 30, so loss
    # weights did not move when it was replaced; it is one ulp low at
    # C(31, 14), and no source here puts 31 photons in one mode.
    from scipy.special import comb

    n, k = np.indices((31, 31))
    np.testing.assert_array_equal(table[:31, :31], comb(n, k))
    assert comb(31, 14) != table[31, 14]


def test_distance_to_transmission():
    assert distance_to_transmission(0.0) == pytest.approx(1.0)
    assert distance_to_transmission(15.0) == pytest.approx(10 ** (-0.3), abs=1e-15)
    assert distance_to_transmission(10.0, 0.5) == pytest.approx(10 ** (-0.5), abs=1e-15)
    for args, name in (
        ((np.nan,), "length_km"),
        ((-1.0,), "length_km"),
        ((np.inf,), "length_km"),
        ((10.0, -0.2), "attenuation_db_per_km"),
        ((10.0, np.nan), "attenuation_db_per_km"),
    ):
        with pytest.raises(ValueError, match=name):
            distance_to_transmission(*args)


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
    probs = detection_probabilities(fock([1, 0]), (0, 1), DetectorModel())
    assert probs[1, 0] == pytest.approx(1.0, abs=1e-12)
    lossy = detection_probabilities(fock([1, 0]), (0, 1), DetectorModel(efficiency=0.3))
    assert lossy[1, 0] == pytest.approx(0.3, abs=1e-12)
    assert lossy[0, 0] == pytest.approx(0.7, abs=1e-12)


def test_threshold_detect_heralds_and_discards():
    state = tensor_modes(fock([1]), fock([1]))
    prob, conditional = threshold_detect(state, (1,), DetectorModel(efficiency=0.5), (True,))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert conditional.n_modes == 1
    assert conditional.probability([1]) == pytest.approx(1.0, abs=1e-12)
    zero, nothing = threshold_detect(vacuum(2), (0,), DetectorModel(), (True,))
    assert zero == pytest.approx(0.0, abs=1e-15)
    assert nothing is None


def _lossy(state, modes, transmission):
    for mode in modes:
        state = loss_channel(state, mode, transmission)
    return state


@pytest.mark.parametrize("n_pair_max", [2, 3])
def test_loss_before_threshold_detectors_is_detector_efficiency(n_pair_max):
    """Loss ``t`` on every watched mode equals detectors of efficiency ``eta t``."""
    state = spdc_source(0.2, n_pair_max=n_pair_max)
    t = 0.37
    detector = DetectorModel(efficiency=0.9, dark_count_prob=1e-3)
    folded = DetectorModel(efficiency=0.9 * t, dark_count_prob=1e-3)
    for watched in ((0, 1, 2, 3), (1, 2), (3,)):
        np.testing.assert_allclose(
            detection_probabilities(_lossy(state, watched, t), watched, detector),
            detection_probabilities(state, watched, folded),
            rtol=0.0,
            atol=1e-14,
        )
    lossy = _lossy(state, (0, 2), t)
    for pattern in itertools.product((False, True), repeat=2):
        prob, conditional = threshold_detect(lossy, (0, 2), detector, pattern)
        prob_folded, conditional_folded = threshold_detect(state, (0, 2), folded, pattern)
        assert prob == pytest.approx(prob_folded, rel=0.0, abs=1e-14)
        np.testing.assert_allclose(
            mode_density(conditional, (0, 1)),
            mode_density(conditional_folded, (0, 1)),
            rtol=0.0,
            atol=1e-14,
        )


def test_mode_indices_must_be_distinct_integer_modes():
    state = fock([1, 0, 2])
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
        lambda: phase_shift(state, "0", np.pi),
        lambda: permute_modes(state, ("2", 0, 1)),
        # Duplicates and out-of-range modes as numpy integers.
        lambda: permute_modes(state, np.array([2, 0, 0])),
        lambda: phase_shift(state, np.int64(3), np.pi),
    )
    for call in bad_calls:
        with pytest.raises(DimensionMismatchError):
            call()
    # numpy integers pass the numbers.Integral check behind the int fast path.
    assert_same_mixture(permute_modes(state, np.array([2, 0, 1])), permute_modes(state, (2, 0, 1)))
    assert_same_mixture(loss_channel(state, np.int64(2), 0.5), loss_channel(state, 2, 0.5))
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


def rotate_and_detect(state, alice_modes, bob_modes, alice_angles, bob_angles, detector=None):
    """The correlation table by rotating both mode pairs, then detecting all four ports."""
    detector = detector or DetectorModel()
    table = np.zeros((len(alice_angles), len(bob_angles), 4, 4))
    for x, theta_a in enumerate(alice_angles):
        rotated_a = polarization_rotation(state, *alice_modes, theta_a)
        for y, theta_b in enumerate(bob_angles):
            rotated = polarization_rotation(rotated_a, *bob_modes, theta_b)
            clicks = detection_probabilities(rotated, (*alice_modes, *bob_modes), detector)
            for (ah, av), a_out in OUTCOME_CODES.items():
                for (bh, bv), b_out in OUTCOME_CODES.items():
                    table[x, y, a_out, b_out] += clicks[ah, av, bh, bv]
    return table


def measured_calls(monkeypatch, scenario):
    """The arguments of every correlation table a runner asks for."""
    calls = []

    def record(*args):
        calls.append(args)
        return polarization_correlation_table(*args)

    monkeypatch.setattr(architectures, "polarization_correlation_table", record)
    architectures.run(scenario)
    monkeypatch.undo()
    return calls


def test_born_table_matches_rotate_and_detect(monkeypatch):
    detector = DetectorModel(efficiency=0.8, dark_count_prob=1e-3)
    angles = ((0.0, 0.4, 2.1), (-0.7, 1.3))
    cases = []
    for n_pair_max in (2, 3):
        lossy = spdc_source(0.1, n_pair_max=n_pair_max)
        for mode, t in enumerate((0.9, 0.7, 0.6, 0.8)):
            lossy = loss_channel(lossy, mode, t)
        cases.append((lossy, (0, 1), (2, 3), *angles, detector))
    for scenario in (
        Scenario(node_fidelity=0.97, distance_km=20.0, detector_efficiency=0.9),
        Scenario(architecture="third_party", pair_prob=0.05, distance_km=20.0),
        Scenario(architecture="local_heralding", pair_prob=0.01, distance_km=20.0),
    ):
        cases += measured_calls(monkeypatch, scenario)
    # Measured modes apart and out of order, with rest modes 2 and 5 between
    # them; random complex amplitudes in two branches, up to 3 photons per party.
    rng = np.random.default_rng(7)
    occ = rng.integers(0, 3, size=(40, 6))
    keep = (occ[:, [1, 3]].sum(axis=1) <= 3) & (occ[:, [0, 4]].sum(axis=1) <= 3)
    occ = np.unique(occ[keep], axis=0)
    branch = np.repeat([0, 1], [len(occ) // 2, len(occ) - len(occ) // 2])
    amp = rng.normal(size=len(occ)) + 1j * rng.normal(size=len(occ))
    for b in (0, 1):
        amp[branch == b] /= np.linalg.norm(amp[branch == b])
    scattered = ModeMixture([0.3, 0.7], branch, occ, amp)
    cases.append((scattered, (3, 1), (0, 4), *angles, detector))
    assert len(cases) == 6
    for args in cases:
        table = polarization_correlation_table(*args).probabilities
        np.testing.assert_allclose(table, rotate_and_detect(*args), rtol=0, atol=1e-14)


def test_click_povms_are_block_diagonal_resolutions_of_identity():
    detector = DetectorModel(efficiency=0.7, dark_count_prob=0.01)
    for angles in (ALICE_ANGLES, BOB_ANGLES):
        for top in range(1, 5):
            povms = _click_povms(tuple(angles), top, detector)
            dim = (top + 1) * (top + 2) // 2
            for completeness in povms.sum(axis=1):
                np.testing.assert_allclose(completeness, np.eye(dim), rtol=0, atol=1e-14)
            assert np.linalg.eigvalsh(povms).min() >= -1e-14
            # Photon number t = h + v of each basis index t (t + 1) / 2 + h.
            t = np.concatenate([[n] * (n + 1) for n in range(top + 1)])
            assert not povms[..., t[:, None] != t[None, :]].any()


def test_correlation_table_needs_an_angle_per_party():
    state = polarization_singlet()
    for alice_angles, bob_angles in (([], [0.0]), ([0.0], [])):
        with pytest.raises(DimensionMismatchError, match="need at least one angle per party"):
            polarization_correlation_table(state, (0, 1), (2, 3), alice_angles, bob_angles)


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


def assert_same_mixture(a: ModeMixture, b: ModeMixture):
    for field in ("weights", "branch", "occ", "amp"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)


@pytest.mark.parametrize(
    "link, detector",
    [
        (tensor_modes(polarization_singlet(), polarization_singlet()), DetectorModel()),
        (
            tensor_modes(
                spdc_source(0.1, n_pair_max=2),
                permute_modes(spdc_source(0.1, n_pair_max=2), (2, 3, 0, 1)),
            ),
            DetectorModel(0.9, 1e-3),
        ),
    ],
    ids=["two-singlets", "two-pair-spdc-dark-counts"],
)
def test_bell_state_measurement_is_threshold_detect_per_pattern(link, detector):
    """Detecting all four patterns at once gives exactly the one-pattern results."""
    mixed = beamsplitter(beamsplitter(link, 2, 4, 0.5), 3, 5, 0.5)
    result = bell_state_measurement(link, (2, 3), (4, 5), detector)
    assert len(result.outcomes) == 4
    for outcome in result.outcomes:
        prob, state = threshold_detect(mixed, (2, 3, 4, 5), detector, outcome.pattern)
        assert outcome.probability == prob
        assert_same_mixture(outcome.state, state)


def joint_amplifier(state, input_modes, t, detector, ancilla_pair_prob):
    """``qubit_amplifier`` with its ancillas tensored onto the input one by one
    and split there, as ``(success_probability, conditional_state)``."""
    n = state.n_modes
    trigger = 1.0
    ancilla = fock([1])
    if ancilla_pair_prob is not None:
        source = heralded_single_photon(ancilla_pair_prob, detector)
        trigger, ancilla = source.success_probability**2, source.conditional_state
    work = tensor_modes(state, tensor_modes(ancilla, vacuum(1)))
    work = tensor_modes(work, tensor_modes(ancilla, vacuum(1)))
    work = beamsplitter(beamsplitter(work, n, n + 1, t), n + 2, n + 3, t)
    bsm = bell_state_measurement(work, input_modes, (n + 1, n + 3), detector)
    heralds = []
    for o in bsm.outcomes:
        if o.state is not None:
            corrected = phase_shift(o.state, n - 2, np.pi) if o.pattern[0] else o.state
            corrected = phase_shift(corrected, n - 1, np.pi) if o.pattern[1] else corrected
            heralds.append((o.probability, corrected))
    order = list(range(n - 2))
    for position, mode in sorted(zip(input_modes, (n - 2, n - 1))):
        order.insert(position, mode)
    return trigger * bsm.success_probability, permute_modes(mix(heralds), order)


AMPLIFIER_INPUTS = {
    "singlet-with-loss": (loss_channel(loss_channel(polarization_singlet(), 2, 0.3), 3, 0.3), (2, 3)),
    "vacuum": (vacuum(2), (0, 1)),
    "superposition": (equal_superposition_qubit(), (0, 1)),
}


@pytest.mark.parametrize("ancilla_pair_prob", [None, 0.05], ids=["ideal", "pair-source"])
@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("name", sorted(AMPLIFIER_INPUTS))
def test_amplifier_matches_joint_pipeline(name, t, ancilla_pair_prob):
    """Ancillas prepared apart from the input give the joint pipeline's herald."""
    state, input_modes = AMPLIFIER_INPUTS[name]
    detector = DetectorModel(0.9, 1e-3)
    record = qubit_amplifier(state, input_modes, t, detector, ancilla_pair_prob)
    success, conditional = joint_amplifier(state, input_modes, t, detector, ancilla_pair_prob)
    assert record.success_probability == pytest.approx(success, rel=1e-12)
    modes = range(state.n_modes)
    np.testing.assert_allclose(
        mode_density(record.conditional_state, modes),
        mode_density(conditional, modes),
        rtol=0.0,
        atol=1e-14,
    )


@pytest.mark.parametrize("n_pair_max", [1, 2])
def test_equal_loss_on_bell_measurement_inputs_is_detector_efficiency(n_pair_max):
    """Equal loss on all four inputs commutes with the BSM's beamsplitters."""
    right = permute_modes(spdc_source(0.1, n_pair_max=n_pair_max), (2, 3, 0, 1))
    link = tensor_modes(spdc_source(0.1, n_pair_max=n_pair_max), right)
    t = 0.3
    lossy = bell_state_measurement(
        _lossy(link, (2, 3, 4, 5), t), (2, 3), (4, 5), DetectorModel(0.95, 1e-3)
    )
    folded = bell_state_measurement(link, (2, 3), (4, 5), DetectorModel(0.95 * t, 1e-3))
    assert lossy.success_probability == pytest.approx(folded.success_probability, rel=1e-12)
    for a, b in zip(lossy.outcomes, folded.outcomes):
        assert (a.label, a.pattern) == (b.label, b.pattern)
        assert a.probability == pytest.approx(b.probability, rel=1e-12)
        np.testing.assert_allclose(
            mode_density(a.state, range(4)), mode_density(b.state, range(4)), rtol=0.0, atol=1e-14
        )


def test_amplifier_herald_probability_closed_forms():
    """Ideal ancillas: heralds at 1 - T on a photon and (1 - T)^2 on vacuum."""
    t = 0.8
    photon = qubit_amplifier(fock([1, 0]), (0, 1), t)
    assert photon.success_probability == pytest.approx(1.0 - t, abs=1e-12)
    vac = qubit_amplifier(vacuum(2), (0, 1), t)
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
    for args, name in (
        ((1.1, 0.5, 0.01), "detector_efficiency"),
        ((0.9, 1.5, 0.01), "transmission"),
        ((0.9, 0.5, -0.01), "pair_prob"),
        ((0.9, 0.5, np.nan), "pair_prob"),
    ):
        with pytest.raises(ValueError, match=name):
            amplifier_success_probability(*args)


def test_amplifier_rejects_bad_transmission():
    with pytest.raises(ValueError):
        qubit_amplifier(fock([1, 0]), (0, 1), 1.0)
