"""Polarization-entanglement characterization: interference visibility,
CHSH correlations, tomography count simulation, maximum-likelihood state
reconstruction, fidelity, and Poisson bootstrap errors."""

from __future__ import annotations

import copy
import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .polarization import BASIS, TwoPhotonState, _exact, _factor

_SQ2 = math.sqrt(2.0)

#: Single-qubit analyzer kets by label.
KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQ2,
    "R": np.array([1.0, -1.0j], dtype=complex) / _SQ2,
    "L": np.array([1.0, 1.0j], dtype=complex) / _SQ2,
}

#: Single-qubit Pauli matrices (I, X, Y, Z).
_PAULI = (
    np.eye(2),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.diag([1.0, -1.0]),
)
#: The 16 two-qubit products sigma_m x sigma_n, index 4 m + n.
_PAULI_PRODUCTS = np.array([np.kron(a, b).ravel() for a in _PAULI for b in _PAULI])

#: Canonical informationally complete tomography set, 16 product settings.
TOMOGRAPHY_LABELS = tuple(
    (a, b) for a in ("H", "V", "D", "R") for b in ("H", "V", "D", "R")
)


class TomographyError(RuntimeError):
    pass


def _linear_ket(angle_deg: float) -> np.ndarray:
    a = math.radians(angle_deg)
    return np.array([math.cos(a), math.sin(a)], dtype=complex)


@dataclass(frozen=True, eq=False)
class ProjectorSetting:
    """Product projector |ket0> x |ket1>, one analyzer state per arm."""

    ket0: np.ndarray
    ket1: np.ndarray
    label_a: str = ""
    label_b: str = ""

    def __post_init__(self):
        for name in ("ket0", "ket1"):
            ket = np.asarray(getattr(self, name), dtype=complex).reshape(2)
            if not abs(np.linalg.norm(ket) - 1.0) <= 1e-9:  # a NaN fails too
                raise ValueError(f"{name} must be normalized")
            object.__setattr__(self, name, ket)

    @classmethod
    def linear(cls, alpha_deg: float, beta_deg: float) -> "ProjectorSetting":
        return cls(
            _linear_ket(alpha_deg),
            _linear_ket(beta_deg),
            label_a=f"{alpha_deg:g}deg",
            label_b=f"{beta_deg:g}deg",
        )

    @classmethod
    def from_labels(cls, label_a: str, label_b: str) -> "ProjectorSetting":
        try:
            return cls(KETS[label_a], KETS[label_b], label_a, label_b)
        except KeyError as exc:
            raise ValueError(f"unknown analyzer label {exc.args[0]!r}") from exc

    def product_ket(self) -> np.ndarray:
        return np.kron(self.ket0, self.ket1)


def _as_rho(state) -> np.ndarray:
    """A state's matrix; a raw matrix passes the state's checks first."""
    return state.rho if isinstance(state, TwoPhotonState) else TwoPhotonState(state).rho


def _pauli_table(state) -> np.ndarray:
    """T[m, n] = tr(rho sigma_m x sigma_n) over (I, X, Y, Z) (James et al., PRA
    64, 052312 (2001)).  Analyzer kets with Bloch 4-vectors n_m =
    <ket|sigma_m|ket> coincide with probability (1/4) n_a^T T n_b."""
    # tr(rho P) = sum_ij rho_ij P_ji, and P^T = conj(P) for Hermitian P
    return np.real(_PAULI_PRODUCTS.conj() @ _as_rho(state).ravel()).reshape(4, 4)


def _bloch(kets) -> np.ndarray:
    """Bloch 4-vectors <ket|sigma_m|ket>, one row per ket."""
    kets = np.asarray(kets)
    return np.real(np.einsum("ki,mij,kj->km", kets.conj(), _PAULI, kets))


def _linear_bloch(angle_deg: float) -> np.ndarray:
    """Bloch 4-vector (1, sin 2a, 0, cos 2a) of a linear analyzer at angle a."""
    two_a = 2.0 * math.radians(angle_deg)
    return np.array([1.0, math.sin(two_a), 0.0, math.cos(two_a)])


def _product_probs(state, settings) -> np.ndarray:
    """Coincidence probabilities (1/4) n_a^T T n_b of product settings, all
    from one Pauli table, clipped to [0, 1]."""
    n_a = _bloch([s.ket0 for s in settings])
    n_b = _bloch([s.ket1 for s in settings])
    probs = np.einsum("km,mn,kn->k", n_a, _pauli_table(state), n_b) / 4.0
    return np.clip(probs, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Interference curves


@dataclass(frozen=True)
class InterferenceCurve:
    alpha_deg: float
    beta_deg: np.ndarray
    probs: np.ndarray
    visibility: float
    degenerate: bool  # constant curve, visibility forced to zero
    offset: float
    amplitude: float


def interference_curve(state, alpha_deg: float, beta_grid_deg) -> InterferenceCurve:
    """Coincidence probabilities over a grid of second-arm analyzer angles.

    The curve is exactly p(b) = O + S sin 2b + C cos 2b with (O, S, ., C) =
    (1/4) n(alpha)^T T, so the visibility is the closed form hypot(S, C) / O,
    not one read from the raw extrema of the sampled grid.
    """
    beta = np.asarray(beta_grid_deg, dtype=float)
    if not (math.isfinite(alpha_deg) and np.isfinite(beta).all()):
        raise ValueError("analyzer angles must be finite")
    if beta.size < 8 or np.ptp(beta) < 180.0 - 1e-9:
        raise ValueError("need >= 8 analyzer angles covering >= 180 degrees")
    offset, s_sin, _, c_cos = (_linear_bloch(alpha_deg) @ _pauli_table(state) / 4.0).tolist()
    two_b = 2.0 * np.radians(beta)
    probs = np.clip(offset + s_sin * np.sin(two_b) + c_cos * np.cos(two_b), 0.0, 1.0)
    amplitude = math.hypot(s_sin, c_cos)
    if offset <= 0.0 or amplitude / max(offset, 1e-300) < 1e-9:
        return InterferenceCurve(alpha_deg, beta, probs, 0.0, True, offset, amplitude)
    return InterferenceCurve(
        alpha_deg, beta, probs, amplitude / offset, False, offset, amplitude
    )


# ---------------------------------------------------------------------------
# CHSH


@dataclass(frozen=True)
class BellSettings:
    a_deg: float
    a_prime_deg: float
    b_deg: float
    b_prime_deg: float

    def as_tuple(self):
        return (self.a_deg, self.a_prime_deg, self.b_deg, self.b_prime_deg)


#: Settings maximizing S for the ideal (|HH> - |VV>)/sqrt(2) target family.
PHI_SETTINGS = BellSettings(0.0, -45.0, 22.5, 67.5)


def _correlation(table: np.ndarray, a_deg: float, b_deg: float) -> float:
    """Polarization correlation u(a)^T T[1:, 1:] u(b) / T[0, 0] of two linear
    analyzers from the Pauli table T, u(a) = (sin 2a, 0, cos 2a) over (X, Y, Z)."""
    if table[0, 0] <= 0.0:
        raise ValueError("projector probabilities sum to zero")
    u_a, u_b = _linear_bloch(a_deg)[1:], _linear_bloch(b_deg)[1:]
    return float(u_a @ table[1:, 1:] @ u_b) / table[0, 0]


def chsh_S(state, settings: BellSettings) -> float:
    """S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|."""
    table = _pauli_table(state)
    a, ap, b, bp = settings.as_tuple()
    return abs(
        _correlation(table, a, b)
        - _correlation(table, a, bp)
        + _correlation(table, ap, b)
        + _correlation(table, ap, bp)
    )


@dataclass(frozen=True)
class ChshResult:
    s_value: float
    settings: BellSettings


def chsh_max(state) -> ChshResult:
    """Maximize S over all four analyzer angles, in closed form.

    With K the (z, x) block of the Pauli table and u(a) = (cos 2a, sin 2a),
    E(a, b) = u(a)^T K u(b), and the maximum over the analyzer plane is
    S = 2 sqrt(s1^2 + s2^2) from the singular values of K (the Horodecki
    criterion, Phys. Lett. A 200, 340 (1995), restricted to linear
    analyzers).  With K = U diag(s) V^T, the
    b, b' vectors are cos(t) v1 +- sin(t) v2 with tan(t) = s2 / s1; then
    K(u_b - u_b') lies along u2 and K(u_b + u_b') along u1, which fixes
    a and a'.
    """
    zx = [3, 1]
    k_u, (s1, s2), k_vt = np.linalg.svd(_pauli_table(state)[np.ix_(zx, zx)])
    t = math.atan2(s2, s1)
    u_b = math.cos(t) * k_vt[0] + math.sin(t) * k_vt[1]
    u_bp = math.cos(t) * k_vt[0] - math.sin(t) * k_vt[1]

    def angle_deg(u):
        return 0.5 * math.degrees(math.atan2(u[1], u[0]))

    settings = BellSettings(
        angle_deg(k_u[:, 1]), angle_deg(k_u[:, 0]), angle_deg(u_b), angle_deg(u_bp)
    )
    return ChshResult(2.0 * math.hypot(s1, s2), settings)


def bell_projector_settings(settings: BellSettings) -> list[ProjectorSetting]:
    """The 16 projector pairs probed in a four-setting CHSH measurement."""
    out = []
    for a in (settings.a_deg, settings.a_prime_deg):
        for b in (settings.b_deg, settings.b_prime_deg):
            for da, db in ((0, 0), (90, 90), (0, 90), (90, 0)):
                out.append(ProjectorSetting.linear(a + da, b + db))
    return out


def chsh_from_counts(counts) -> float:
    """S estimated from 16 counts ordered as bell_projector_settings."""
    counts = _checked_counts(np.ravel(counts)).reshape(4, 4).astype(float)
    e_values = []
    for row in counts:
        total = row.sum()
        if total <= 0:
            raise ValueError("zero total counts in one basis pair")
        e_values.append((row[0] + row[1] - row[2] - row[3]) / total)
    e_ab, e_abp, e_apb, e_apbp = e_values
    return abs(e_ab - e_abp + e_apb + e_apbp)


# ---------------------------------------------------------------------------
# Tomography


#: The 15 two-qubit Pauli products other than the identity, over 2: an
#: orthonormal basis of the traceless Hermitian 4x4 matrices, one per row.
_TRACELESS = _PAULI_PRODUCTS[1:] / 2.0
_PAULI_CONJ = _PAULI_PRODUCTS.conj()
_TRACELESS_CONJ = _PAULI_CONJ[1:] / 2.0
_MIXED = np.eye(4) / 4.0


def _sigma(x) -> np.ndarray:
    """The unit-trace Hermitian matrices I/4 + sum_j x_j B_j, one per row of x."""
    return _MIXED + (x @ _TRACELESS).reshape(*x.shape[:-1], 4, 4)


def _coordinates(matrix) -> np.ndarray:
    """tr(B_j M) of Hermitian matrices M (..., 4, 4), the x of _sigma(x) = M
    when tr M = 1; B_j^T = conj(B_j)."""
    return np.real(matrix.reshape(*matrix.shape[:-2], 16) @ _TRACELESS_CONJ.T)


#: The 136 pairs a <= b of Pauli products, the barrier features s_a s_b.
_PAIR_A, _PAIR_B = np.triu_indices(16)


@functools.cache
def _barrier_map() -> np.ndarray:
    """The (136, 225) rows M with tr(S B_i S B_j) = sum_{a<=b} s_a s_b M[ab, ij]
    for Hermitian S = sum_a s_a P_a / 4, s_a = tr(P_a S): the barrier rows of
    _WhitenedPovm.hess_map.

    Row ab is tr(P_a B_i P_b B_j) / 16, symmetrised in a and b (which makes
    it real) and doubled off the diagonal.  Built on first use, which keeps
    it out of the import."""
    pb = (_PAULI_PRODUCTS.reshape(16, 1, 4, 4) @ _TRACELESS.reshape(1, 15, 4, 4)).reshape(240, 16)
    # tr(X Y) = X . Y^T, raveled; t[a, b, ij] = tr(P_a B_i P_b B_j)
    t = np.real(pb @ pb.reshape(240, 4, 4).swapaxes(1, 2).reshape(240, 16).T)
    t = t.reshape(16, 15, 16, 15).transpose(0, 2, 1, 3).reshape(16, 16, 225)
    rows = (t + t.swapaxes(0, 1))[_PAIR_A, _PAIR_B]
    rows /= np.where(_PAIR_A == _PAIR_B, 32.0, 16.0)[:, None]
    rows.flags.writeable = False  # one cached array for every POVM
    return rows


@dataclass(frozen=True, eq=False)
class _WhitenedPovm:
    """The settings' projectors t_k P_k whitened by G = sum_k t_k P_k, so that
    the rows P~_k = G^{-1/2} t_k P_k G^{-1/2} sum to the identity, with the
    probabilities p_k = tr(P~_k sigma) = offset_k + coords_k . x of
    sigma = _sigma(x); hess_map turns a fit's q_k / p_k and the Pauli
    coordinates of sigma^-1 into its Hessian (see _hessians)."""

    g_isqrt: np.ndarray  # G^{-1/2}
    rows: np.ndarray  # (16, 16), P~_k raveled
    offset: np.ndarray  # (16,)
    coords: np.ndarray  # (16, 15)
    inverse: np.ndarray  # (15, 16), pseudo-inverse of coords
    hess_map: np.ndarray  # (225, 152): columns coords_k x coords_k, then _barrier_map()

    def linear_inversion(self, freqs) -> np.ndarray:
        """x with p_k = f_k for every setting, one x per row of freqs.  The
        offsets and the frequencies both sum to 1 and each coords column to 0,
        and 16 complete settings give coords rank 15, so the system solves
        exactly."""
        return (freqs - self.offset) @ self.inverse.T

    def unwhiten(self, sigma) -> np.ndarray:
        """The unit-trace rho proportional to G^{-1/2} sigma G^{-1/2}, for
        each 4x4 matrix of a stack."""
        rho = self.g_isqrt @ sigma @ self.g_isqrt
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
        return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


@functools.lru_cache(maxsize=8)
def _whitened_povm(settings: tuple, seconds: bytes) -> _WhitenedPovm:
    """The whitened POVM of settings integrated for seconds (float64 bytes),
    built on first use and shared by every record with the same settings
    stack and times; raises TomographyError unless the settings are
    informationally complete.  ProjectorSetting compares by identity, and
    the cache holds its keys, so no key's id is reused while it is cached."""
    kets = np.stack([s.product_ket() for s in settings])
    projectors = np.frombuffer(seconds)[:, None, None] * np.einsum("ki,kj->kij", kets, kets.conj())
    if np.linalg.matrix_rank(projectors.reshape(16, 16), tol=1e-9) < 16:
        raise TomographyError("projector settings are not informationally complete")
    g_val, g_vec = np.linalg.eigh(projectors.sum(axis=0))
    g_isqrt = (g_vec / np.sqrt(g_val)) @ g_vec.conj().T
    rows = (g_isqrt @ projectors @ g_isqrt).reshape(16, 16)
    offset = np.real(np.einsum("kii->k", rows.reshape(16, 4, 4))) / 4.0
    coords = np.real(rows @ _TRACELESS_CONJ.T)
    # coords has full column rank, so its pseudo-inverse is (C^T C)^-1 C^T
    inverse = np.linalg.solve(coords.T @ coords, coords.T)
    hess_map = np.concatenate(
        [(coords[:, :, None] * coords[:, None, :]).reshape(16, 225), _barrier_map()]).T
    povm = _WhitenedPovm(g_isqrt, rows, offset, coords, inverse, hess_map)
    for array in vars(povm).values():
        array.flags.writeable = False  # one cached POVM for many records
    return povm


def _checked_counts(counts) -> np.ndarray:
    counts = np.asarray(counts)
    if counts.shape != (16,):
        raise ValueError(f"need exactly 16 counts, got {counts.size}")
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ValueError("counts must be finite and non-negative")
    return _exact(counts, np.int64, "counts must be whole numbers within int64").copy()


class TomographyRecord:
    """Counts at sixteen product projector settings, each integrated for its
    own time: the one record behind tomography and the CHSH bootstrap.

    The whitened POVM belongs to the settings stack and the times, not to
    the record: an estimator builds it at its first fit, with the check that
    the settings are informationally complete, and every record with the
    same settings and times shares it.  A record whose settings are not
    complete, such as CHSH's rank-9 Bell settings, builds nothing and fails
    at its first fit.
    """

    __slots__ = ("settings", "seconds", "_counts", "_block")

    def __init__(self, settings, seconds, counts):
        self.settings = tuple(settings)
        self.seconds = np.array(seconds, dtype=float)
        if len(self.settings) != 16 or self.seconds.shape != (16,):
            raise ValueError(f"need exactly 16 settings and times, got "
                             f"{len(self.settings)} and {self.seconds.size}")
        ok = np.isfinite(self.seconds) & (self.seconds > 0.0)
        if not ok.all():
            raise ValueError(f"integration time must be finite and > 0, got {self.seconds[~ok]}")
        self.seconds.flags.writeable = False
        self._counts = _checked_counts(counts)
        # (block fits, row) of a bootstrap resample, fitted with its block
        self._block = None

    def counts(self) -> np.ndarray:
        return self._counts.astype(float)

    def with_counts(self, counts) -> "TomographyRecord":
        """The same settings and times with new counts, so the same whitened
        POVM."""
        return self._sibling(_checked_counts(counts), None)

    def _sibling(self, counts, block) -> "TomographyRecord":
        rec = copy.copy(self)
        rec._counts, rec._block = counts, block
        return rec

    def _complete_povm(self) -> "_WhitenedPovm":
        return _whitened_povm(self.settings, self.seconds.tobytes())

    def csv_rows(self):
        """Rows matching TOMO_CSV_HEADER, one per setting."""
        return [
            (s.label_a, s.label_b, t, n)
            for s, t, n in zip(self.settings, self.seconds.tolist(), self._counts.tolist())
        ]

    @classmethod
    def from_csv(cls, path) -> "TomographyRecord":
        label_a, label_b, seconds, counts = TOMO_CSV_HEADER
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return cls([ProjectorSetting.from_labels(r[label_a], r[label_b]) for r in rows],
                   [float(r[seconds]) for r in rows], [int(r[counts]) for r in rows])


TOMO_CSV_HEADER = ("setting_a", "setting_b", "seconds", "counts")


_TOMOGRAPHY_SETTINGS = tuple(ProjectorSetting.from_labels(a, b) for a, b in TOMOGRAPHY_LABELS)


def tomo_simulate_counts(
    state, n_per_setting: float, seed, settings=_TOMOGRAPHY_SETTINGS
) -> TomographyRecord:
    """Poisson counts at 16 product settings, 1 s each; the canonical
    tomography set unless other settings are given."""
    if n_per_setting <= 0:
        raise ValueError("n_per_setting must be > 0")
    counts = np.random.default_rng(seed).poisson(n_per_setting * _product_probs(state, settings))
    return TomographyRecord(settings, np.ones(16), counts)


_NO_COUNTS = "record contains no counts"


def tomo_linear(rec: TomographyRecord) -> np.ndarray:
    """Direct linear inversion of the measured frequencies.

    Returns a Hermitian unit-trace matrix that may have negative
    eigenvalues, which demonstrates why the constrained estimate is needed.
    """
    povm = rec._complete_povm()
    counts = rec.counts()
    total = counts.sum()
    if total <= 0:
        raise TomographyError(_NO_COUNTS)
    # n_k = flux * tr(t_k P_k rho); the unknown flux only scales rho, which
    # unwhiten normalises to unit trace
    return povm.unwhiten(_sigma(povm.linear_inversion(counts / total)))


#: Barrier weight per count at which a fit enters the central path, and the
#: floor on the eigenvalues of its starting point.
_ENTRY_MU = 1e-2
#: Factor by which the barrier weight falls once an iterate is centred.
_MU_SHRINK = 20.0
#: Squared Newton decrement at or below which an iterate counts as centred.
_CENTRED = 0.1
#: Certificate gap at which a fit stops, and the Newton steps allowed to reach it.
_GAP_TOL = 1e-10
_MAX_STEPS = 200


@dataclass(frozen=True)
class MleFit:
    """A certified maximum-likelihood state with its Newton step count and
    the final certificate gap, lambda_max(R) - 1 <= _GAP_TOL."""

    state: TwoPhotonState
    steps: int
    gap: float


def tomo_mle(rec: TomographyRecord) -> TwoPhotonState:
    """Maximum-likelihood reconstruction over physical density matrices.

    The 16 settings, each weighted by its integration time t_k, do not sum
    to the identity, so with G = sum_k t_k P_k the whitened projectors
    P~_k = G^{-1/2} t_k P_k G^{-1/2} form a POVM, and the
    Poisson likelihood with the flux profiled out becomes sum_k n_k log p_k,
    p_k = tr(P~_k sigma), over density matrices sigma proportional to
    G^{1/2} rho G^{1/2} (Hradil, PRA 55 R1561 (1997); Rehacek, Hradil &
    Jezek, PRA 63 040303(R) (2001)).  The whitened POVM is built once per
    settings stack and times, at the first fit.

    It is maximised by a log-barrier Newton method (Boyd & Vandenberghe,
    Convex Optimization (2004), ch. 11).  With sigma = I/4 +
    sum_j x_j B_j over an orthonormal traceless basis B_j, each stage
    minimises -sum_k n_k log p_k - mu log det sigma in x.  The fit enters
    the central path at the record's own linear inversion (p_k = f_k for
    every setting) with its eigenvalues floored at _ENTRY_MU and
    renormalised, so sigma is positive definite and every p_k > 0, at
    mu = _ENTRY_MU N, N = sum_k n_k.  A Newton step
    whose squared decrement lam2 = step . H . step / mu is at least 1 is
    damped to 1 / (1 + sqrt(lam2)), which keeps it inside the Dikin ellipsoid
    of log det sigma, so every iterate is positive definite.  Once
    lam2 <= _CENTRED, mu falls by _MU_SHRINK and x moves along the tangent of
    the central path to the new mu.  This converges in a few tens of steps
    on rank-deficient optima, where the fixed-point RrhoR iteration slows
    down to thousands.

    The log-likelihood is concave with gradient R = sum_k (f_k / p_k) P~_k,
    f_k = n_k / N, and tr(R sigma) = 1, so gap = lambda_max(R) - 1 bounds
    the distance of the per-count log-likelihood from its maximum.  At the
    centre for mu the gap is below 4 mu / N, so mu stops at _GAP_TOL N / 8 and
    the remaining Newton steps converge quadratically.  The iteration stops
    once gap <= _GAP_TOL and raises TomographyError if _MAX_STEPS steps do not
    get there.  tomo_mle_fit returns the same fit with its diagnostics.

    One fitter runs this iteration on a stack of count rows that share the
    whitened POVM, each row with its own mu, damping and certificate.  A
    record made by bootstrap_errors is fitted with the other resamples of
    its block by one cached call, at the first tomo_mle of any of them; any
    other record is a stack of one row.
    """
    return tomo_mle_fit(rec).state


def tomo_mle_fit(rec: TomographyRecord) -> MleFit:
    """The fit of tomo_mle, with its Newton steps and final certificate gap.

    A record made by bootstrap_errors is fitted with its block: the first
    call on any record of the block fits every row of it in one cached call.
    Any other record is a block of one."""
    fits, row = rec._block or (_block_fits(rec, rec._counts[None]), 0)
    fit = fits()[row]
    if isinstance(fit, str):
        raise TomographyError(fit)
    return fit


def _block_fits(rec: TomographyRecord, counts: np.ndarray):
    """A cached call that fits every row of counts on rec's POVM at its first
    call, returning an MleFit or the message of its TomographyError per row."""
    return functools.cache(lambda: _fit_rows(rec._complete_povm(), counts))


def _hessians(povm: _WhitenedPovm, q, p, s, mu) -> np.ndarray:
    """The (B, 15, 15) Hessians sum_k (q_k / p_k) coords_k x coords_k +
    mu tr(S B_i S B_j) of the barrier objective, with s_a = tr(P_a S) the
    Pauli coordinates of S = sigma^-1, one row of q, p, s and mu per fit.

    They are one GEMM, povm.hess_map @ feats, over one column
    feats = (q_k / p_k, mu s_a s_b for a <= b) per fit, written in place so
    that each block of rows is contiguous."""
    feats = np.empty((povm.hess_map.shape[1], len(mu)))
    np.divide(q.T, p.T, out=feats[:16])
    pairs = feats[16:]
    pairs[...] = s.T[_PAIR_A]
    pairs *= s.T[_PAIR_B]
    pairs *= mu
    return (povm.hess_map @ feats).T.reshape(-1, 15, 15)


def _newton_system(povm: _WhitenedPovm, x, n, seen, mu):
    """sigma = _sigma(x), q_k = n_k / p_k, the solutions (B, 15, 2) of
    H [step, tangent] = [-grad, barrier_grad] and the squared Newton
    decrement lam2 = -grad . step / mu, one row per fit.

    The step and the predictor's tangent share one solve.  Only these four
    outlive the call, so a block holds one step's temporaries at a time."""
    sigma = _sigma(x)
    # an unseen setting gets p = 1, so that it adds q = 0 and no Hessian term
    p = np.where(seen, povm.offset + x @ povm.coords.T, 1.0)
    q = n / p
    s = np.real(np.linalg.inv(sigma).reshape(-1, 16) @ _PAULI_CONJ.T)
    barrier_grad = s[:, 1:] / 2.0  # tr(B_j S)
    minus_grad = q @ povm.coords + mu[:, None] * barrier_grad
    rhs = np.array([minus_grad, barrier_grad]).transpose(1, 2, 0)
    sol = np.linalg.solve(_hessians(povm, q, p, s, mu), rhs)
    return sigma, q, sol, np.einsum("bj,bj->b", minus_grad, sol[:, :, 0]) / mu


def _fit_rows(povm: _WhitenedPovm, counts: np.ndarray) -> list:
    """The barrier-Newton fit of tomo_mle on each row of a (B, 16) count
    array: an MleFit, or the message of the TomographyError, per row.

    Each row runs the iteration of tomo_mle with its own mu, damping and
    certificate; a row leaves the active set once certified.  A setting with
    no counts weighs zero in its row."""
    totals = counts.sum(axis=1)
    out = [_NO_COUNTS] * len(counts)
    live = np.flatnonzero(totals > 0)
    if not live.size:
        return out
    n, total = counts[live].astype(float), totals[live].astype(float)
    seen = n > 0

    def certificate_gaps(q, total):
        return np.linalg.eigvalsh((q @ povm.rows).reshape(-1, 4, 4))[:, -1] / total - 1.0

    # enter at the linear inversion, its eigenvalues floored at _ENTRY_MU
    val, vec = np.linalg.eigh(_sigma(povm.linear_inversion(n / total[:, None])))
    val = np.maximum(val, _ENTRY_MU)
    val /= val.sum(axis=1, keepdims=True)
    x = _coordinates((vec * val[:, None, :]) @ vec.conj().swapaxes(1, 2))
    mu = _ENTRY_MU * total
    mu_floor = _GAP_TOL * total / 8.0
    for steps in range(_MAX_STEPS + 1):
        sigma, q, sol, lam2 = _newton_system(povm, x, n, seen, mu)
        centred = lam2 <= _CENTRED
        if centred.any():
            # only a centred row can stop, so only its certificate is needed
            gap = np.full(len(lam2), np.inf)
            gap[centred] = certificate_gaps(q[centred], total[centred])
            done = gap <= _GAP_TOL
            if done.any():
                states = TwoPhotonState.stack(povm.unwhiten(sigma[done]))
                for i, state, g in zip(live[done].tolist(), states, gap[done].tolist()):
                    out[i] = MleFit(state, steps, g)
                if done.all():
                    break
                keep = ~done
                live, n, total, seen, x, mu, mu_floor = (
                    a[keep] for a in (live, n, total, seen, x, mu, mu_floor))
                sigma, q, sol, lam2, centred = (
                    a[keep] for a in (sigma, q, sol, lam2, centred))
        if steps == _MAX_STEPS:
            for i, g in zip(live.tolist(), certificate_gaps(q, total).tolist()):
                out[i] = ("barrier Newton iteration did not converge: "
                          f"{steps} iterations, gap {g:.3e} > tol {_GAP_TOL:.1e}")
            break
        newton = ~centred | (mu <= mu_floor)
        damping = np.where(lam2 < 1.0, 1.0, 1.0 + np.sqrt(np.maximum(lam2, 1.0)))
        x[newton] += sol[newton, :, 0] / damping[newton, None]
        # predictor: at the centre, dx/dmu = H^-1 barrier_grad; keep the
        # smallest eigenvalue above a quarter of its predicted value
        ahead = np.flatnonzero(~newton)
        if not ahead.size:
            continue
        mu_next = np.maximum(mu[ahead] / _MU_SHRINK, mu_floor[ahead])
        move = (mu[ahead] - mu_next)[:, None] * sol[ahead, :, 1]
        floor = np.linalg.eigvalsh(sigma[ahead])[:, 0] * mu_next / (4.0 * mu[ahead])
        mu[ahead] = mu_next
        for _ in range(30):
            ok = np.linalg.eigvalsh(_sigma(x[ahead] - move))[:, 0] > floor
            x[ahead[ok]] -= move[ok]
            ahead, move, floor = ahead[~ok], move[~ok] / 2.0, floor[~ok]
            if not ahead.size:
                break
    return out


# ---------------------------------------------------------------------------
# Fidelity and bootstrap


def fidelity(state, target_ket) -> float:
    """Overlap <psi|rho|psi> with a pure target state."""
    ket = np.asarray(target_ket, dtype=complex).reshape(4)
    norm = np.linalg.norm(ket)
    if not abs(norm - 1.0) <= 1e-9:  # a NaN fails too
        raise ValueError("target state must be normalized")
    return float(np.real(ket.conj() @ _as_rho(state) @ ket))


def state_fidelity(state_a, state_b) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2 for mixed states, as
    the squared sum of singular values of A^dagger B for factors a = A A^dagger
    and b = B B^dagger (Jozsa, J. Mod. Opt. 41, 2315 (1994))."""
    overlap = _factor(_as_rho(state_a)).conj().T @ _factor(_as_rho(state_b))
    return float(np.linalg.svd(overlap, compute_uv=False).sum() ** 2)


@dataclass(frozen=True)
class BootstrapResult:
    mean: float
    std: float
    resamples: int


#: Resamples that bootstrap_errors draws and fits together.  Only one block
#: is held at a time, so the bootstrap's memory does not grow with its
#: number of resamples; a block of 128 holds about 6 kB per resample at its
#: peak, the Hessians and their features.
_FIT_BLOCK = 128


def bootstrap_errors(
    rec: TomographyRecord, resamples: int, statistic, seed=None
) -> BootstrapResult:
    """Poisson-resample the counts and propagate a statistic through.

    Each resample draws counts ~ Poisson(observed) and reevaluates
    statistic(record); returns the sample mean and standard deviation.
    Resample i draws from its own child of SeedSequence(seed), so each
    resample is reproducible on its own.

    The resamples are drawn in blocks of _FIT_BLOCK (128), and statistic is
    called on each record of a block in order.  The records of a block share
    one cached call: the first tomo_mle or tomo_mle_fit on any of them fits
    every row of the block, and a statistic that never asks for the MLE
    builds and fits nothing.
    """
    if resamples < 100:
        raise ValueError("need at least 100 resamples")
    observed = rec.counts()
    root = np.random.SeedSequence(seed)
    values = np.empty(resamples)
    for start in range(0, resamples, _FIT_BLOCK):
        # spawning block by block gives the children one spawn(resamples) would
        counts = np.array([np.random.default_rng(child).poisson(observed)
                           for child in root.spawn(min(_FIT_BLOCK, resamples - start))])
        fits = _block_fits(rec, counts)
        for row, row_counts in enumerate(counts):
            values[start + row] = statistic(rec._sibling(row_counts, (fits, row)))
    return BootstrapResult(float(values.mean()), float(values.std(ddof=1)), resamples)


def rho_to_json_payload(state) -> dict:
    rho = _as_rho(state)
    return {
        "basis": list(BASIS),
        "rho_re": np.real(rho).tolist(),
        "rho_im": np.imag(rho).tolist(),
    }
