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
BD_STEP_MM = 4.0

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


class TwoPhotonState:
    """4x4 density matrix over the ordered basis (HH, HV, VH, VV)."""

    __slots__ = ("rho",)

    def __init__(self, rho):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("rho must be 4x4")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("rho must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError("rho must have unit trace")
        if np.linalg.eigvalsh(rho).min() < -1e-9:
            raise ValueError("rho must be positive semidefinite")
        self.rho = rho

    @classmethod
    def from_pure(cls, ket) -> "TwoPhotonState":
        ket = np.asarray(ket, dtype=complex).reshape(4)
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
    displacement_mm: float = BD_STEP_MM

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError("BD axis must be 'x' or 'y'")
        if self.moves not in ("H", "V"):
            raise ValueError("BD moves must be 'H' or 'V'")
        if self.displacement_mm != BD_STEP_MM:
            raise ValueError(f"BD displacement is fixed at {BD_STEP_MM} mm")


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
class Mirror:
    """Beam steering only; acts as identity on (rail, polarization)."""

    rail: Rail | None = None


@dataclass(frozen=True)
class CrystalSource:
    """Pair emitter pumped by the H amplitude present on its rail."""

    label: str
    rail: Rail = (0, 0)


@dataclass(frozen=True)
class ElementNet:
    elements: tuple

    def __post_init__(self):
        if not self.elements:
            raise ValueError("network needs at least one element")
        idx = [i for i, e in enumerate(self.elements) if isinstance(e, CrystalSource)]
        if not idx:
            raise ValueError("network needs at least one CrystalSource")
        if idx != list(range(idx[0], idx[0] + len(idx))):
            raise ValueError("crystal sources must be adjacent in the element list")

    def crystals(self):
        return [e for e in self.elements if isinstance(e, CrystalSource)]


def displacer_network() -> ElementNet:
    """The canonical two-crystal displacer interferometer.

    BD1 splits the diagonal pump onto two rails, the displaced rail is
    rotated back to H, both crystals emit an (H, V) pair, BD2 lifts the V
    photons to the upper rails, the two relabeling plates map V->H on the
    upper-left rail and H->V on the lower-right rail, and BD3 merges each
    height into a single output port.
    """
    return ElementNet(
        (
            BD(axis="x", moves="V"),  # pump splitter
            HWP(45.0, rail=(1, 0)),  # displaced pump back to H
            CrystalSource("crystal0", rail=(0, 0)),
            CrystalSource("crystal1", rail=(1, 0)),
            BD(axis="y", moves="V"),  # idler photons up
            HWP(45.0, rail=(0, 1)),  # relabel upper-left V -> H
            HWP(45.0, rail=(1, 0)),  # relabel lower-right H -> V
            Mirror(rail=(1, 0)),
            BD(axis="x", moves="H"),  # recombine into two ports
        )
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
    elif isinstance(element, Mirror):
        yield key, amp
    else:
        raise TypeError(f"cannot propagate through {element!r}")


def _apply_to_beam(element, amps: dict) -> dict:
    out: dict = {}
    for key, amp in amps.items():
        for new_key, new_amp in _single_photon_map(element, key, amp):
            out[new_key] = out.get(new_key, 0.0) + new_amp
    return {k: a for k, a in out.items() if abs(a) > _PRUNE}


def _apply_to_pairs(element, pairs: dict) -> dict:
    out: dict = {}
    for (key_a, key_b), amp in pairs.items():
        for new_a, amp_a in _single_photon_map(element, key_a, amp):
            for new_b, amp_b in _single_photon_map(element, key_b, amp_a):
                out[(new_a, new_b)] = out.get((new_a, new_b), 0.0) + amp_b
    return {k: a for k, a in out.items() if abs(a) > _PRUNE}


def propagate_network(net: ElementNet, pump_phase_rad: float) -> TwoPhotonState:
    """Trace both photons of each pair through the displacer network.

    The pump enters diagonally polarized on rail (0, 0).  Crystal k
    converts the H pump amplitude on its rail into an (H, V) pair carrying
    an extra phase factor e^{i k pump_phase}; the relative pump phase
    absorbs all path-length phases.  The output must interfere: every
    surviving pair term has to place its two photons on the same two exit
    rails, otherwise the network is rejected.
    """
    elements = list(net.elements)
    first = next(i for i, e in enumerate(elements) if isinstance(e, CrystalSource))
    crystals = net.crystals()
    pre, post = elements[:first], elements[first + len(crystals):]

    pump = {((0, 0), "H"): 1.0 / math.sqrt(2.0), ((0, 0), "V"): 1.0 / math.sqrt(2.0)}
    for element in pre:
        pump = _apply_to_beam(element, pump)

    pairs: dict = {}
    for k, crystal in enumerate(crystals):
        amp = pump.get((tuple(crystal.rail), "H"), 0.0)
        if abs(amp) <= _PRUNE:
            continue
        phase = np.exp(1j * pump_phase_rad * k)
        key = ((tuple(crystal.rail), "H"), (tuple(crystal.rail), "V"))
        pairs[key] = pairs.get(key, 0.0) + amp * phase
    if not pairs:
        raise NonInterferingNetworkError("no pump amplitude reaches a crystal")

    for element in post:
        pairs = _apply_to_pairs(element, pairs)

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
    ket /= norm
    return TwoPhotonState.from_pure(ket)
