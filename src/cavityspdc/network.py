"""The beam-displacer network: its elements, the canonical two-crystal
interferometer, and the trace of the pump and the pairs through it.

Rails are discrete transverse positions (x, y) in units of one displacer
step (4 mm).  A displacer moves one linear polarization by +1 along its
axis and leaves the other in place, which is what makes the interferometer
passively stable: routing is set entirely by polarization.

Plain Python complex arithmetic throughout, so that describing and
checking a network loads no numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

Rail = tuple[int, int]
#: Rows of a 2x2 Jones matrix acting on (H, V).
Jones = tuple[tuple[complex, complex], tuple[complex, complex]]


class NonInterferingNetworkError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Jones coefficients


def _cos_sin(theta_deg: float, factor: float) -> tuple[float, float]:
    if not math.isfinite(theta_deg):
        raise ValueError("angle must be finite")
    angle = factor * math.radians(theta_deg)
    return math.cos(angle), math.sin(angle)


def hwp_jones(theta_deg: float) -> Jones:
    """Half-wave plate with fast axis at theta: [[cos2t, sin2t], [sin2t, -cos2t]]."""
    c, s = _cos_sin(theta_deg, 2.0)
    return (complex(c), complex(s)), (complex(s), complex(-c))


def qwp_jones(theta_deg: float) -> Jones:
    """Quarter-wave plate with fast axis at theta (retardance pi/2):
    R(t) diag(1, i) R(t)^T with R the rotation by t."""
    c, s = _cos_sin(theta_deg, 1.0)
    return (complex(c * c, s * s), complex(c * s, -s * c)), \
        (complex(s * c, -c * s), complex(s * s, c * c))


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
        jones = (hwp_jones if isinstance(element, HWP) else qwp_jones)(element.angle_deg)
        col = 0 if pol == "H" else 1
        for row, out_pol in zip(jones, ("H", "V")):
            coeff = row[col]
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


def _network_rho(elements: tuple, pump_phase_rad: float,
                 coherence: float) -> tuple[tuple[complex, ...], ...]:
    """The output photons' density matrix over (HH, HV, VH, VV), as rows of
    unit trace: c |sum psi_k><sum psi_k| + (1 - c) sum |psi_k><psi_k| of the
    crystals' pair amplitudes psi_k, whose overlap is the coherence c.

    The pump enters diagonally polarized on rail (0, 0).  Every element but
    a crystal acts on the pump and on the pairs made so far; crystal k turns
    the H pump amplitude on its rail into an (H, V) pair with the phase
    e^{i k pump_phase}, which absorbs all path-length phases.  Both photons
    of every pair must exit on the same two rails, or the network does not
    interfere.  Each entry is computed as the exact conjugate of its mirror.
    """
    if not 0.0 <= coherence <= 1.0:
        raise ValueError(f"coherence must lie in [0, 1], got {coherence!r}")
    pump = {(((0, 0), "H"),): 1.0 / math.sqrt(2.0), (((0, 0), "V"),): 1.0 / math.sqrt(2.0)}
    crystals: list[dict] = []  # each crystal's pairs, traced on their own
    pumped = False  # pairs may cancel later; that is not an unpumped network
    for element in elements:
        if not isinstance(element, CrystalSource):
            pump, crystals = _apply(element, pump), [_apply(element, c) for c in crystals]
            continue
        rail = tuple(element.rail)
        amp, pairs = pump.get(((rail, "H"),), 0.0), {}
        if abs(amp) > _PRUNE:
            pumped = True
            pairs[(rail, "H"), (rail, "V")] = amp * cmath.exp(1j * pump_phase_rad * len(crystals))
        crystals.append(pairs)
    if not pumped:
        raise NonInterferingNetworkError("no pump amplitude reaches a crystal")

    keys = [key for pairs in crystals for key in pairs]
    rails = {key_a[0] for key_a, _ in keys} | {key_b[0] for _, key_b in keys}
    if len(rails) != 2:
        raise NonInterferingNetworkError(
            f"non-interfering network: photons occupy rails {sorted(rails)}"
        )
    port0, port1 = sorted(rails, key=lambda r: (r[1], r[0]))

    kets = [[0j] * 4 for _ in crystals]
    pol_index = {"H": 0, "V": 1}
    for ket, pairs in zip(kets, crystals):
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

    total = [sum(amps) for amps in zip(*kets)]
    if math.hypot(*map(abs, total)) < 1e-9:
        raise NonInterferingNetworkError(
            "non-interfering network: no coincident amplitude at the output ports"
        )
    rho = [[coherence * (a * b.conjugate())
            + (1.0 - coherence) * sum(ket[i] * ket[j].conjugate() for ket in kets)
            for j, b in enumerate(total)] for i, a in enumerate(total)]
    trace = sum(rho[i][i].real for i in range(4))
    return tuple(tuple(entry / trace for entry in row) for row in rho)
