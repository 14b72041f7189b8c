"""Two-photon polarization states: ideal synthesis by propagation through a
beam-displacer network, and the phenomenological coherence-degraded state.

Rails are discrete transverse positions (x, y) in units of one displacer
step (4 mm).  A displacer moves one linear polarization by +1 along its
axis and leaves the other in place, which is what makes the interferometer
passively stable: routing is set entirely by polarization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Order of the two-photon basis kets indexing every 4x4 density matrix.
BASIS = ("HH", "HV", "VH", "VV")

Rail = tuple[int, int]


class NonInterferingNetworkError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Jones matrices


def _rotation(theta_rad: float) -> np.ndarray:
    c, s = math.cos(theta_rad), math.sin(theta_rad)
    return np.array([[c, -s], [s, c]])


def hwp_matrix(theta_deg: float) -> np.ndarray:
    """Half-wave plate with fast axis at theta: [[cos2t, sin2t], [sin2t, -cos2t]]."""
    if not math.isfinite(theta_deg):
        raise ValueError("angle must be finite")
    two_t = 2.0 * math.radians(theta_deg)
    c, s = math.cos(two_t), math.sin(two_t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_matrix(theta_deg: float) -> np.ndarray:
    """Quarter-wave plate with fast axis at theta (retardance pi/2)."""
    if not math.isfinite(theta_deg):
        raise ValueError("angle must be finite")
    rot = _rotation(math.radians(theta_deg))
    return rot @ np.diag([1.0, 1.0j]) @ rot.T


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


def concurrence(state: TwoPhotonState) -> float:
    """Wootters concurrence via the spin-flipped density matrix."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    rho = state.rho
    m = rho @ flip @ rho.conj() @ flip
    eig = np.sort(np.sqrt(np.abs(np.linalg.eigvals(m).real)))[::-1]
    return float(max(0.0, eig[0] - eig[1] - eig[2] - eig[3]))


# ---------------------------------------------------------------------------
# Network elements


@dataclass(frozen=True)
class BD:
    """Beam displacer: moves one polarization +1 step along an axis."""

    axis: str  # "x" or "y"
    moves: str  # "H" or "V"

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError("BD axis must be 'x' or 'y'")
        if self.moves not in ("H", "V"):
            raise ValueError("BD moves must be 'H' or 'V'")


@dataclass(frozen=True)
class HWP:
    angle_deg: float
    rail: Rail | None = None  # None applies to every rail

    def __post_init__(self):
        if not math.isfinite(self.angle_deg):
            raise ValueError(f"angle_deg must be finite, got {self.angle_deg!r}")


@dataclass(frozen=True)
class QWP:
    angle_deg: float
    rail: Rail | None = None

    def __post_init__(self):
        if not math.isfinite(self.angle_deg):
            raise ValueError(f"angle_deg must be finite, got {self.angle_deg!r}")


@dataclass(frozen=True)
class CrystalSource:
    """Pair emitter pumped by the H amplitude present on its rail."""

    rail: Rail = (0, 0)


def displacer_network() -> tuple:
    """The canonical two-crystal displacer interferometer.

    BD1 splits the diagonal pump onto two rails, the displaced rail is
    rotated back to H, both crystals emit an (H, V) pair, BD2 lifts the V
    photons to the upper rails, the two relabeling plates map V->H on the
    upper-left rail and H->V on the lower-right rail, and BD3 merges each
    height into a single output port.
    """
    return (
        BD(axis="x", moves="V"),  # pump splitter
        HWP(45.0, rail=(1, 0)),  # displaced pump back to H
        CrystalSource(rail=(0, 0)),
        CrystalSource(rail=(1, 0)),
        BD(axis="y", moves="V"),  # idler photons up
        HWP(45.0, rail=(0, 1)),  # relabel upper-left V -> H
        HWP(45.0, rail=(1, 0)),  # relabel lower-right H -> V
        BD(axis="x", moves="H"),  # recombine into two ports
    )


# ---------------------------------------------------------------------------
# Propagation

_PRUNE = 1e-14


def _single_photon_map(element, key, amp):
    """Yield ((rail, pol), coeff) terms for one element acting on one mode."""
    rail, pol = key
    if isinstance(element, BD):
        if pol == element.moves:
            dx, dy = (1, 0) if element.axis == "x" else (0, 1)
            rail = (rail[0] + dx, rail[1] + dy)
        yield (rail, pol), amp
    elif isinstance(element, (HWP, QWP)):
        if element.rail is not None and tuple(element.rail) != rail:
            yield key, amp
            return
        jones = (
            hwp_matrix(element.angle_deg)
            if isinstance(element, HWP)
            else qwp_matrix(element.angle_deg)
        )
        col = 0 if pol == "H" else 1
        for row, out_pol in enumerate(("H", "V")):
            coeff = jones[row, col]
            if abs(coeff) > _PRUNE:
                yield (rail, out_pol), amp * coeff
    else:
        raise TypeError(f"cannot propagate through {element!r}")


def _apply(element, amps: dict) -> dict:
    """One element acting on amplitudes keyed by a (rail, pol) mode per
    photon, one for the pump and two for a pair, photon by photon."""
    out: dict = {}
    for modes, amp in amps.items():
        terms = [((), amp)]
        for mode in modes:
            terms = [(done + (new,), new_amp) for done, done_amp in terms
                     for new, new_amp in _single_photon_map(element, mode, done_amp)]
        for new_modes, new_amp in terms:
            out[new_modes] = out.get(new_modes, 0.0) + new_amp
    return {k: a for k, a in out.items() if abs(a) > _PRUNE}


def propagate_network(elements: tuple, pump_phase_rad: float) -> TwoPhotonState:
    """Trace both photons of each pair through the displacer network.

    The pump enters diagonally polarized on rail (0, 0).  Every element but
    a crystal acts on the pump and on the pairs made so far; crystal k turns
    the H pump amplitude on its rail into an (H, V) pair with the phase
    e^{i k pump_phase}, which absorbs all path-length phases.  The output
    must interfere: every pair term has to place its two photons on the
    same two exit rails, otherwise the network is rejected.
    """
    return TwoPhotonState.from_pure(_network_ket(elements, pump_phase_rad))


def _network_ket(elements: tuple, pump_phase_rad: float) -> np.ndarray:
    """Normalised output ket of ``propagate_network``, which raises as it does."""
    pump = {(((0, 0), "H"),): 1.0 / math.sqrt(2.0), (((0, 0), "V"),): 1.0 / math.sqrt(2.0)}
    pairs: dict = {}
    k, pumped = 0, False  # pairs may cancel later; that is not an unpumped network
    for element in elements:
        if not isinstance(element, CrystalSource):
            pump, pairs = _apply(element, pump), _apply(element, pairs)
            continue
        rail = tuple(element.rail)
        amp = pump.get(((rail, "H"),), 0.0)
        if abs(amp) > _PRUNE:
            pumped = True
            key = ((rail, "H"), (rail, "V"))
            pairs[key] = pairs.get(key, 0.0) + amp * np.exp(1j * pump_phase_rad * k)
        k += 1
    if not pumped:
        raise NonInterferingNetworkError("no pump amplitude reaches a crystal")

    rails = {key_a[0] for key_a, _ in pairs} | {key_b[0] for _, key_b in pairs}
    if len(rails) != 2:
        raise NonInterferingNetworkError(
            f"non-interfering network: photons occupy rails {sorted(rails)}"
        )
    port0, port1 = sorted(rails, key=lambda r: (r[1], r[0]))

    ket = np.zeros(4, dtype=complex)
    pol_index = {"H": 0, "V": 1}
    for (key_a, key_b), amp in pairs.items():
        (rail_a, pol_a), (rail_b, pol_b) = key_a, key_b
        if rail_a == rail_b:
            raise NonInterferingNetworkError(
                "non-interfering network: both photons exit the same rail"
            )
        if rail_a == port0:
            p0, p1 = pol_a, pol_b
        else:
            p0, p1 = pol_b, pol_a
        ket[2 * pol_index[p0] + pol_index[p1]] += amp

    norm = np.linalg.norm(ket)
    if norm < 1e-9:
        raise NonInterferingNetworkError(
            "non-interfering network: no coincident amplitude at the output ports"
        )
    return ket / norm
