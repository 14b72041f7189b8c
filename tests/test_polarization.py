import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityspdc import (
    BD,
    HWP,
    CrystalSource,
    NonInterferingNetworkError,
    TwoPhotonState,
    concurrence,
    default_config,
    degraded_state,
    displacer_network,
    entangled_ket,
    propagate_network,
)
from cavityspdc.network import hwp_jones, qwp_jones

angles = st.floats(-360.0, 360.0)
phases = st.floats(-2.0 * math.pi, 2.0 * math.pi)


class TestJonesMatrices:
    def test_hwp_45_swaps(self):
        m = np.array(hwp_jones(45.0))
        np.testing.assert_allclose(m @ [1, 0], [0, 1], atol=1e-12)
        np.testing.assert_allclose(m @ [0, 1], [1, 0], atol=1e-12)

    def test_hwp_0_is_z_flip(self):
        np.testing.assert_allclose(np.array(hwp_jones(0.0)), np.diag([1.0, -1.0]), atol=1e-12)

    def test_hwp_225_makes_diagonal(self):
        out = np.array(hwp_jones(22.5)) @ [1, 0]
        np.testing.assert_allclose(out, [1 / math.sqrt(2)] * 2, atol=1e-12)

    @given(theta=angles)
    @settings(max_examples=60)
    def test_hwp_unitary_with_negative_determinant(self, theta):
        m = np.array(hwp_jones(theta))
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
        assert np.linalg.det(m).real == pytest.approx(-1.0, abs=1e-12)

    @given(theta=angles)
    @settings(max_examples=60)
    def test_qwp_unitary(self, theta):
        m = np.array(qwp_jones(theta))
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_qwp_0_retards_v(self):
        np.testing.assert_allclose(np.array(qwp_jones(0.0)), np.diag([1.0, 1.0j]), atol=1e-12)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            hwp_jones(math.nan)


class TestTwoPhotonState:
    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            TwoPhotonState(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TwoPhotonState(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            TwoPhotonState(rho)

    @pytest.mark.parametrize("bad", [
        np.eye(4, dtype=complex) / 4.0 + 0.1 * np.eye(4, k=1),
        np.eye(4, dtype=complex),
        np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex),
        np.diag([math.nan, 1.0, 0.0, 0.0]),
        np.full((4, 4), math.nan),
    ], ids=["non_hermitian", "wrong_trace", "negative_eigenvalue", "nan_entry", "all_nan"])
    def test_stack_rejects_a_bad_row_as_the_constructor_does(self, bad):
        good = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(ValueError) as lone:
            TwoPhotonState(bad)
        with pytest.raises(ValueError) as stacked:
            TwoPhotonState.stack([good, bad, good])
        assert str(stacked.value) == str(lone.value)
        # the constructor's own one-line message, not LinAlgError (a ValueError) from eigvalsh
        assert not isinstance(lone.value, np.linalg.LinAlgError)
        assert "\n" not in str(lone.value)

    def test_stack_keeps_each_row(self):
        rhos = np.array([np.eye(4) / 4.0, np.diag([1.0, 0.0, 0.0, 0.0])], dtype=complex)
        states = TwoPhotonState.stack(rhos)
        assert [type(s) for s in states] == [TwoPhotonState] * 2
        for state, rho in zip(states, rhos):
            np.testing.assert_array_equal(state.rho, rho)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_from_pure_rejects_a_non_finite_ket(self, bad):
        # checked before the normalisation divides by a non-finite norm
        with pytest.raises(ValueError, match="^state vector must be finite$"):
            TwoPhotonState.from_pure([bad, 0.0, 0.0, 0.0])

    def test_from_pure_normalizes(self):
        state = TwoPhotonState.from_pure([2.0, 0.0, 0.0, 2.0])
        assert np.trace(state.rho).real == pytest.approx(1.0)


class TestDegradedState:
    def test_full_coherence_is_pure_bell(self):
        state = degraded_state(math.pi, 1.0)
        ket = entangled_ket(math.pi)
        np.testing.assert_allclose(state.rho, np.outer(ket, ket.conj()), atol=1e-12)

    def test_zero_coherence_is_diagonal_mixture(self):
        state = degraded_state(0.7, 0.0)
        np.testing.assert_allclose(
            state.rho, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12
        )

    def test_eigenvalues_closed_form(self):
        c = 0.8709
        eig = np.linalg.eigvalsh(degraded_state(math.pi, c).rho)
        np.testing.assert_allclose(
            np.sort(eig), [0.0, 0.0, (1 - c) / 2, (1 + c) / 2], atol=1e-12
        )

    def test_out_of_range_coherence(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                degraded_state(0.0, bad)

    @given(theta=phases, c=st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_always_a_valid_state(self, theta, c):
        state = degraded_state(theta, c)  # constructor enforces the contract
        assert np.trace(state.rho).real == pytest.approx(1.0)

    @given(theta=phases, c=st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_concurrence_equals_coherence(self, theta, c):
        # closed form is exactly c; the spin-flip eigenvalue route carries
        # sqrt(machine-epsilon) noise at the pure-state boundary
        assert concurrence(degraded_state(theta, c)) == pytest.approx(c, abs=1e-7)

    def test_concurrence_is_the_coherence_to_round_off(self):
        # the singular values of the factor product carry no square root of
        # round-off; the spin-flip eigenvalue route erred by up to 1.25e-8 here
        worst = max(abs(concurrence(degraded_state(theta, c)) - c)
                    for theta in (0.0, math.pi, 1.234, -2.0)
                    for c in (0.0, 0.3, 0.5, 0.8709, 0.99, 1.0))
        assert worst <= 1e-14


class TestDisplacerNetwork:
    def test_pi_phase_gives_phi_minus(self):
        state = propagate_network(displacer_network(), math.pi)
        expected = degraded_state(math.pi, 1.0)
        assert np.linalg.norm(state.rho - expected.rho) < 1e-12

    def test_zero_phase_gives_phi_plus(self):
        state = propagate_network(displacer_network(), 0.0)
        expected = degraded_state(0.0, 1.0)
        assert np.linalg.norm(state.rho - expected.rho) < 1e-12

    def test_matches_degraded_family_on_theta_grid(self):
        net = displacer_network()
        for theta in np.linspace(0.0, 2.0 * math.pi, 32):
            got = propagate_network(net, theta)
            expected = degraded_state(theta, 1.0)
            assert np.linalg.norm(got.rho - expected.rho) < 1e-10

    def test_coherence_mixes_the_crystals_into_the_closed_form(self):
        # c |sum psi_k><sum psi_k| + (1 - c) sum |psi_k><psi_k| over the two
        # crystals' kets is degraded_state's HH/VV family; the config's state
        # is the same trace, bit for bit, and Hermitian to the bit
        net, base = displacer_network(), default_config()
        for theta in (0.0, math.pi, 1.234, -2.0):
            for c in (0.0, 0.5, 0.8709, 1.0):
                got = propagate_network(net, theta, c).rho
                assert np.abs(got - degraded_state(theta, c).rho).max() <= 1e-15
                cfg = replace(base, pump_phase_rad=theta, coherence=c)
                assert np.array_equal(np.array(cfg.rho), got)
                assert np.array_equal(got, got.conj().T)
                assert np.all(np.diag(got).imag == 0.0)

    @pytest.mark.parametrize("c", [-0.1, 1.1, math.nan])
    def test_coherence_outside_unit_interval_raises(self, c):
        with pytest.raises(ValueError, match="coherence"):
            propagate_network(displacer_network(), 0.0, c)

    def test_missing_relabel_plate_breaks_interference(self):
        net = displacer_network()
        pruned = tuple(
            e for e in net
            if not (isinstance(e, HWP) and e.rail == (0, 1))
        )
        with pytest.raises(NonInterferingNetworkError, match="non-interfering"):
            propagate_network(pruned, math.pi)

    def test_missing_final_displacer_breaks_interference(self):
        net = displacer_network()
        with pytest.raises(NonInterferingNetworkError):
            propagate_network(net[:-1], math.pi)

    @given(theta=phases)
    @settings(max_examples=30)
    def test_output_is_physical(self, theta):
        state = propagate_network(displacer_network(), theta)
        assert np.linalg.eigvalsh(state.rho).min() > -1e-12
        assert np.trace(state.rho).real == pytest.approx(1.0)

    def test_unpumped_network_rejected(self):
        # crystals sit on rails the pump never reaches
        net = (
            BD(axis="x", moves="V"),
            CrystalSource(rail=(5, 5)),
            BD(axis="y", moves="V"),
            BD(axis="x", moves="H"),
        )
        with pytest.raises(NonInterferingNetworkError, match="pump"):
            propagate_network(net, 0.0)

    def test_plate_between_crystals_acts_on_the_pump(self):
        # the rail-(1, 0) pump plate after the first crystal still turns the
        # displaced pump back to H before the second crystal
        net = displacer_network()
        assert isinstance(net[2], CrystalSource) and net[1] == HWP(45.0, rail=(1, 0))
        swapped = (net[0], net[2], net[1], *net[3:])
        for theta in (0.0, math.pi, 1.234):
            got = propagate_network(swapped, theta).rho
            assert np.array_equal(got, propagate_network(net, theta).rho)
