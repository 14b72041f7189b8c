"""Two-photon polarization states: ideal synthesis by propagation through a
beam-displacer network (the elements and the trace are in ``network``), the
phenomenological coherence-degraded state, and the array-input checks that
states, tomography counts and time tags share."""

from __future__ import annotations

import math

import numpy as np

from .network import _network_rho

#: Order of the two-photon basis kets indexing every 4x4 density matrix.
BASIS = ("HH", "HV", "VH", "VV")


# ---------------------------------------------------------------------------
# States


def _check_density(rho: np.ndarray) -> None:
    """Raise ValueError unless every 4x4 matrix of rho (..., 4, 4) is finite,
    Hermitian and of unit trace to 1e-12 with no eigenvalue below -1e-9."""
    if not np.isfinite(rho).all():
        raise ValueError("rho must be finite")
    if np.abs(rho - rho.conj().swapaxes(-1, -2)).max() > 1e-12:
        raise ValueError("rho must be Hermitian")
    trace = rho.trace(axis1=-2, axis2=-1)
    if np.abs(trace.real - 1.0).max() > 1e-12 or np.abs(trace.imag).max() > 1e-12:
        raise ValueError("rho must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError("rho must be positive semidefinite")


def _exact(values, dtype, message) -> np.ndarray:
    """values as a dtype array, not copied when they already are one; any
    other input raises ValueError(message) unless dtype holds it exactly."""
    array = np.asarray(values)
    if array.dtype == dtype:
        return array
    info = np.iinfo(dtype)  # a float out of range casts by CPU: wraps or saturates
    in_range = array.dtype.kind != "f" or np.all((array >= info.min) & (array < info.max + 1))
    with np.errstate(invalid="ignore"):  # a cast that fails is caught below
        exact = array.astype(dtype) if array.dtype.kind in "biuf" else None
    if exact is None or not in_range or not np.array_equal(exact, array):
        raise ValueError(message)
    return exact


class TwoPhotonState:
    """4x4 density matrix over the ordered basis (HH, HV, VH, VV)."""

    __slots__ = ("rho",)

    def __init__(self, rho):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("rho must be 4x4")
        _check_density(rho)
        self.rho = rho

    @classmethod
    def stack(cls, rhos) -> list["TwoPhotonState"]:
        """One state per matrix of an (n, 4, 4) stack, all checked as the
        constructor checks one, with one batched eigvalsh."""
        rhos = np.asarray(rhos, dtype=complex)
        if rhos.shape[1:] != (4, 4):
            raise ValueError("rho must be 4x4")
        _check_density(rhos)
        states = []
        for rho in rhos:
            state = cls.__new__(cls)
            state.rho = rho
            states.append(state)
        return states

    @classmethod
    def from_pure(cls, ket) -> "TwoPhotonState":
        ket = np.asarray(ket, dtype=complex).reshape(4)
        if not np.isfinite(ket).all():
            raise ValueError("state vector must be finite")
        n = np.linalg.norm(ket)
        if n == 0:
            raise ValueError("zero state vector")
        ket = ket / n
        return cls(np.outer(ket, ket.conj()))

    def __repr__(self):
        return f"TwoPhotonState(diag={np.real(np.diag(self.rho)).round(4).tolist()})"


def entangled_ket(theta_rad: float) -> np.ndarray:
    """(|HH> + e^{i theta} |VV>) / sqrt(2)."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0 / math.sqrt(2.0)
    ket[3] = np.exp(1j * theta_rad) / math.sqrt(2.0)
    return ket


def degraded_state(theta_rad: float, coherence: float) -> TwoPhotonState:
    """Equal HH/VV mixture with coherence magnitude c on the HH-VV block.

    rho = (|HH><HH| + |VV><VV|)/2
        + (c/2) (e^{-i theta}|HH><VV| + e^{i theta}|VV><HH|)

    Eigenvalues are (1+c)/2, (1-c)/2, 0, 0; concurrence equals c.
    """
    if not 0.0 <= coherence <= 1.0:
        raise ValueError(f"coherence must lie in [0, 1], got {coherence!r}")
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = 0.5 * coherence * np.exp(-1j * theta_rad)
    rho[3, 0] = np.conj(rho[0, 3])
    return TwoPhotonState(rho)


def _factor(rho: np.ndarray) -> np.ndarray:
    """L = V sqrt(Lambda) over the positive eigenvalues of a PSD rho = L L^dagger;
    singular values of products of factors carry no square root of round-off."""
    eigval, eigvec = np.linalg.eigh(rho)
    kept = eigval > 0.0
    return eigvec[:, kept] * np.sqrt(eigval[kept])


def concurrence(state: TwoPhotonState) -> float:
    """Wootters concurrence; its lambdas are the singular values of
    L^T (sigma_y x sigma_y) L for a factor rho = L L^dagger."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    factor = _factor(state.rho)
    lam = np.linalg.svd(factor.T @ np.kron(sy, sy) @ factor, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1:].sum()))


# ---------------------------------------------------------------------------
# Propagation


def propagate_network(elements: tuple, pump_phase_rad: float,
                      coherence: float = 1.0) -> TwoPhotonState:
    """The network's output state: the crystals' pair amplitudes traced and
    mixed at the coherence c by ``network._network_rho``, whose errors it raises."""
    return TwoPhotonState(_network_rho(elements, pump_phase_rad, coherence))
