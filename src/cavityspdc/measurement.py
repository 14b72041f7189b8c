"""Polarization-entanglement characterization: interference visibility,
CHSH correlations, tomography count simulation, maximum-likelihood state
reconstruction, fidelity, and Poisson bootstrap errors."""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass

import numpy as np

from .polarization import BASIS, TwoPhotonState

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
            if abs(np.linalg.norm(ket) - 1.0) > 1e-9:
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
    if isinstance(state, TwoPhotonState):
        return state.rho
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a TwoPhotonState or a 4x4 matrix")
    return rho


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


def coincidence_prob(state, setting: ProjectorSetting) -> float:
    """Born-rule coincidence probability <ab|rho|ab>, clipped to [0, 1]."""
    return float(_product_probs(state, [setting])[0])


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
    if table[0, 0] <= 0.0:
        raise ValueError("projector probabilities sum to zero")
    u_a, u_b = _linear_bloch(a_deg)[1:], _linear_bloch(b_deg)[1:]
    return float(u_a @ table[1:, 1:] @ u_b) / table[0, 0]


def correlation_E(state, a_deg: float, b_deg: float) -> float:
    """Polarization correlation u(a)^T T[1:, 1:] u(b) / T[0, 0] of two linear
    analyzers, u(a) = (sin 2a, 0, cos 2a) over (X, Y, Z)."""
    return _correlation(_pauli_table(state), a_deg, b_deg)


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
    counts = np.asarray(counts, dtype=float).reshape(4, 4)
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


def _checked_counts(counts) -> np.ndarray:
    counts = np.asarray(counts)
    if counts.shape != (16,):
        raise ValueError(f"need exactly 16 counts, got {counts.size}")
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ValueError("counts must be finite and non-negative")
    return counts.astype(np.int64)


class TomographyRecord:
    """Counts at sixteen product projector settings, each integrated for its
    own time: the one record behind tomography and the CHSH bootstrap.

    Whether the settings are informationally complete is decided once, when
    the projector stack is built; the state estimators refuse a record whose
    settings are not, while CHSH's rank-9 Bell settings need no such check.
    """

    __slots__ = ("settings", "seconds", "_counts", "_projectors", "_complete")

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
        # (16, 4, 4) stack of the settings' projectors, each times its
        # integration time, shared by records that differ only in counts
        kets = np.stack([s.product_ket() for s in self.settings])
        self._projectors = self.seconds[:, None, None] * np.einsum("ki,kj->kij", kets, kets.conj())
        rank = np.linalg.matrix_rank(self._projectors.reshape(16, 16), tol=1e-9)
        self._complete = bool(rank == 16)

    def counts(self) -> np.ndarray:
        return self._counts.astype(float)

    def with_counts(self, counts) -> "TomographyRecord":
        """The same settings and times with new counts, sharing this record's
        projector stack and completeness."""
        rec = copy.copy(self)
        rec._counts = _checked_counts(counts)
        return rec

    def _complete_projectors(self) -> np.ndarray:
        if not self._complete:
            raise TomographyError("projector settings are not informationally complete")
        return self._projectors

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


def tomo_linear(rec: TomographyRecord) -> np.ndarray:
    """Direct linear inversion of the measured frequencies.

    Returns a Hermitian unit-trace matrix that may have negative
    eigenvalues, which demonstrates why the constrained estimate is needed.
    """
    stack = rec._complete_projectors().reshape(16, 16)
    counts = rec.counts()
    if counts.sum() <= 0:
        raise TomographyError("record contains no counts")
    # n_k = flux * tr(t_k P_k rho); complete settings make the system square
    # and invertible, and the unknown flux only scales the solution, which is
    # normalised to unit trace below
    rho = np.linalg.solve(stack.conj(), counts.astype(complex)).reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


#: The 15 two-qubit Pauli products other than the identity, over 2: an
#: orthonormal basis of the traceless Hermitian 4x4 matrices, one per row.
_TRACELESS = _PAULI_PRODUCTS[1:] / 2.0
#: Factor by which the barrier weight falls once an iterate is centred.
_MU_SHRINK = 20.0
#: Squared Newton decrement at or below which an iterate counts as centred.
_CENTRED = 0.1


def tomo_mle(
    rec: TomographyRecord, max_iter: int = 200, tol: float = 1e-10
) -> TwoPhotonState:
    """Maximum-likelihood reconstruction over physical density matrices.

    The 16 settings, each weighted by its integration time t_k, do not sum
    to the identity, so with G = sum_k t_k P_k the whitened projectors
    P~_k = G^{-1/2} t_k P_k G^{-1/2} form a POVM, and the
    Poisson likelihood with the flux profiled out becomes sum_k n_k log p_k,
    p_k = tr(P~_k sigma), over density matrices sigma proportional to
    G^{1/2} rho G^{1/2} (Hradil, PRA 55 R1561 (1997); Rehacek, Hradil &
    Jezek, PRA 63 040303(R) (2001)).

    It is maximised by a log-barrier Newton method (Boyd & Vandenberghe,
    Convex Optimization (2004), ch. 11).  With sigma = I/4 +
    sum_j x_j B_j over an orthonormal traceless basis B_j, each stage
    minimises -sum_k n_k log p_k - mu log det sigma in x, starting from the
    maximally mixed state with mu = N = sum_k n_k.  A Newton step
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
    centre for mu the gap is below 4 mu / N, so mu stops at tol N / 8 and the
    remaining Newton steps converge quadratically.  The iteration stops once
    gap <= tol and raises TomographyError if max_iter steps do not get there.
    """
    projectors = rec._complete_projectors()
    counts = rec.counts()
    total = counts.sum()
    if total <= 0:
        raise TomographyError("record contains no counts")
    seen = counts > 0
    n_seen = counts[seen]

    g_val, g_vec = np.linalg.eigh(projectors.sum(axis=0))
    g_isqrt = (g_vec / np.sqrt(g_val)) @ g_vec.conj().T
    whitened = (g_isqrt @ projectors[seen] @ g_isqrt).reshape(-1, 16)
    # p_k = tr(P~_k sigma) = offset_k + coords_k . x, since B_j^T = conj(B_j)
    offset = np.real(np.einsum("kii->k", whitened.reshape(-1, 4, 4))) / 4.0
    coords = np.real(whitened @ _TRACELESS.conj().T)
    basis_t = _TRACELESS.conj()
    mixed = np.eye(4) / 4.0

    def state(x):
        return mixed + (x @ _TRACELESS).reshape(4, 4)

    def certificate_gap(q):
        return np.linalg.eigvalsh((q @ whitened).reshape(4, 4))[-1] / total - 1.0

    x = np.zeros(15)
    mu = total
    mu_floor = tol * total / 8.0
    for iterations in range(max_iter + 1):
        sigma = state(x)
        inv = np.linalg.inv(sigma)
        p = offset + coords @ x
        q = n_seen / p
        barrier_grad = np.real(basis_t @ inv.ravel())
        grad = -(q @ coords) - mu * barrier_grad
        # tr(S B_i S B_j) = B_i . K . B_j with K[(b, c), (d, a)] = S_ab S_cd
        kron = (inv.T[:, None, None, :] * inv[None, :, :, None]).reshape(16, 16)
        hess = (coords.T * (q / p)) @ coords + mu * np.real(
            _TRACELESS @ kron @ _TRACELESS.T
        )
        step = np.linalg.solve(hess, -grad)
        lam2 = -(grad @ step) / mu
        if lam2 <= _CENTRED:
            gap = certificate_gap(q)
            if gap <= tol:
                break
        if iterations == max_iter:
            raise TomographyError(
                "barrier Newton iteration did not converge: "
                f"{iterations} iterations, gap {certificate_gap(q):.3e} > tol {tol:.1e}"
            )
        if lam2 > _CENTRED or mu <= mu_floor:
            x = x + (step if lam2 < 1.0 else step / (1.0 + math.sqrt(lam2)))
            continue
        # predictor: at the centre, dx/dmu = H^-1 barrier_grad; keep the
        # smallest eigenvalue above a quarter of its predicted value
        mu_next = max(mu / _MU_SHRINK, mu_floor)
        move = (mu - mu_next) * np.linalg.solve(hess, barrier_grad)
        floor = np.linalg.eigvalsh(sigma)[0] * mu_next / (4.0 * mu)
        for _ in range(30):
            if np.linalg.eigvalsh(state(x - move))[0] > floor:
                x = x - move
                break
            move = move / 2.0
        mu = mu_next

    rho = g_isqrt @ sigma @ g_isqrt
    rho /= np.trace(rho).real
    return TwoPhotonState(0.5 * (rho + rho.conj().T))


# ---------------------------------------------------------------------------
# Fidelity and bootstrap


def fidelity(state, target_ket) -> float:
    """Overlap <psi|rho|psi> with a pure target state."""
    ket = np.asarray(target_ket, dtype=complex).reshape(4)
    norm = np.linalg.norm(ket)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("target state must be normalized")
    return float(np.real(ket.conj() @ _as_rho(state) @ ket))


def state_fidelity(state_a, state_b) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2 for mixed states."""
    rho = _as_rho(state_a)
    sigma = _as_rho(state_b)
    eigval, eigvec = np.linalg.eigh(rho)
    eigval = np.clip(eigval, 0.0, None)
    sqrt_rho = (eigvec * np.sqrt(eigval)) @ eigvec.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(vals)) ** 2)


@dataclass(frozen=True)
class BootstrapResult:
    mean: float
    std: float
    resamples: int


def bootstrap_errors(
    rec: TomographyRecord, resamples: int, statistic, seed=None
) -> BootstrapResult:
    """Poisson-resample the counts and propagate a statistic through.

    Each resample draws counts ~ Poisson(observed) and reevaluates
    statistic(record); returns the sample mean and standard deviation.
    Resample i draws from its own child of SeedSequence(seed), so each
    resample is reproducible on its own.
    """
    if resamples < 100:
        raise ValueError("need at least 100 resamples")
    observed = rec.counts()
    children = np.random.SeedSequence(seed).spawn(resamples)
    values = np.array([
        statistic(rec.with_counts(np.random.default_rng(child).poisson(observed)))
        for child in children
    ])
    return BootstrapResult(float(values.mean()), float(values.std(ddof=1)), resamples)


def rho_to_json_payload(state) -> dict:
    rho = _as_rho(state)
    return {
        "basis": list(BASIS),
        "rho_re": np.real(rho).tolist(),
        "rho_im": np.imag(rho).tolist(),
    }
