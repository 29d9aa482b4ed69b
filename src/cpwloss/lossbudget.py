"""Participation-ratio loss budget for CPW resonators.

The TLS-limited loss tangent of a resonator is modeled as the dot
product of surface/substrate participation ratios with the intrinsic
loss tangents of those regions:

    delta_tls = p_ma*d_ma + p_ms*d_ms + p_sa*d_sa + p_si*d_si

(metal-air, metal-substrate, substrate-air interfaces, bulk substrate).
A built-in simulated participation table covers trench depths 0-100 nm
for the standard 10 um / 6 um CPW cross-section with 2 nm interface
layers. decompose() inverts the forward model over several geometries
by non-negative weighted least squares, flagging loss tangents the
supplied geometries cannot separate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, FitError

LOSS_NAMES = ("delta_sa", "delta_ma", "delta_ms", "delta_si")

# Singular values below RANK_TOL*s_max mark directions the geometry set
# does not constrain at all (flagged "unresolved"); a retained spectrum
# that is still worse-conditioned than COND_LIMIT is an error.
RANK_TOL = 1e-13
COND_LIMIT = 1e12


@dataclass(frozen=True)
class ParticipationRow:
    """Participation ratios of one CPW cross-section geometry."""

    trench_nm: float
    p_sa: float
    p_ma: float
    p_ms: float
    p_si: float

    def __post_init__(self):
        if not np.isfinite(self.trench_nm) or self.trench_nm < 0:
            raise DataError("trench depth must be a finite non-negative number")
        for name in ("p_sa", "p_ma", "p_ms", "p_si"):
            p = getattr(self, name)
            if not np.isfinite(p) or not 0.0 <= p <= 1.0:
                raise DataError(f"participation {name}={float(p)!r} must lie in [0, 1]")

    def vector(self):
        return np.array([self.p_sa, self.p_ma, self.p_ms, self.p_si])


@dataclass(frozen=True)
class InterfaceLosses:
    """Intrinsic loss tangents of the three interfaces and the substrate."""

    delta_sa: float
    delta_ma: float
    delta_ms: float
    delta_si: float

    def __post_init__(self):
        for name in LOSS_NAMES:
            d = getattr(self, name)
            if not np.isfinite(d) or d < 0:
                raise DataError(f"loss tangent {name}={float(d)!r} must be finite and >= 0")

    def vector(self):
        return np.array([self.delta_sa, self.delta_ma, self.delta_ms, self.delta_si])


@dataclass(frozen=True)
class ParticipationTable:
    rows: tuple
    interface_thickness_nm: float = 2.0
    conductor_width_um: float = 10.0
    gap_um: float = 6.0

    def __post_init__(self):
        if len(self.rows) < 2:
            raise DataError("participation table needs at least 2 rows")
        depths = [r.trench_nm for r in self.rows]
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise DataError("table rows must have strictly increasing trench depth")

    @property
    def trench_range_nm(self):
        return (self.rows[0].trench_nm, self.rows[-1].trench_nm)


# Simulated participations for the standard cross-section, 2 nm
# interface layers, at trench depths 0, 50 and 100 nm.
_BUILTIN_ROWS = (
    ParticipationRow(trench_nm=0.0, p_sa=2.83e-4, p_ma=4.95e-5, p_ms=5.93e-4, p_si=0.907),
    ParticipationRow(trench_nm=50.0, p_sa=2.67e-4, p_ma=2.08e-5, p_ms=5.45e-4, p_si=0.905),
    ParticipationRow(trench_nm=100.0, p_sa=2.51e-4, p_ma=1.77e-5, p_ms=5.04e-4, p_si=0.903),
)


def load_builtin_table():
    return ParticipationTable(rows=_BUILTIN_ROWS)


def load_table(path):
    """Read a user-supplied participation table in the columnar file format."""
    from . import dataio

    _, cols, _ = dataio.read_columns(path, ("trench_nm", "p_sa", "p_ma", "p_ms", "p_si"))
    table_rows = tuple(ParticipationRow(*vals) for vals in zip(*cols))
    return ParticipationTable(rows=table_rows)


def interpolate(table, trench_nm):
    """Piecewise-linear interpolation of all four participations at a depth.

    Only interpolation is allowed; depths outside the tabulated range
    raise rather than extrapolate.
    """
    lo, hi = table.trench_range_nm
    if not lo <= trench_nm <= hi:
        raise DataError(f"trench depth {trench_nm} nm outside tabulated "
                        f"range [{lo}, {hi}] nm; refusing to extrapolate")
    depths = np.array([r.trench_nm for r in table.rows])
    out = {}
    for name in ("p_sa", "p_ma", "p_ms", "p_si"):
        out[name] = float(np.interp(trench_nm, depths, [getattr(r, name) for r in table.rows]))
    return ParticipationRow(trench_nm=float(trench_nm), **out)


def forward_loss(row, losses):
    """Predicted TLS loss tangent of a geometry given interface loss tangents."""
    return float(
        row.p_ma * losses.delta_ma
        + row.p_ms * losses.delta_ms
        + row.p_sa * losses.delta_sa
        + row.p_si * losses.delta_si
    )


@dataclass(frozen=True)
class DecomposeResult:
    """Interface loss tangents inferred from measured TLS losses.

    losses/sigma map each of LOSS_NAMES to a value; entries listed in
    `unresolved` carry nan because the supplied geometries do not
    separate them. resolved_combinations lists the unit-coefficient
    linear combinations of the (column-scaled) loss tangents the data
    does pin down, with their fitted values; with full rank it is empty
    because every tangent is individually resolved.
    """

    losses: dict
    sigma: dict
    unresolved: tuple
    rank: int
    condition_number: float
    residual_rms: float
    predicted: np.ndarray
    resolved_combinations: tuple = ()


def decompose(rows, deltas, sigmas=None):
    """Invert the forward loss model over several geometries.

    rows: >= 4 ParticipationRow; deltas: measured TLS loss tangents,
    one per row; sigmas: optional measurement uncertainties (same
    length). Non-negativity of the loss tangents is enforced by
    active-set NNLS on the weighted system.
    """
    rows = list(rows)
    deltas = np.asarray(deltas, dtype=float)
    if len(rows) < 4:
        raise DataError(f"decompose needs at least 4 measured geometries, got {len(rows)}")
    if deltas.shape != (len(rows),):
        raise DataError("deltas must have one value per participation row")
    if np.any(~np.isfinite(deltas)) or np.any(deltas < 0):
        raise DataError("measured loss tangents must be finite and >= 0")
    if sigmas is not None:
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.shape != deltas.shape or np.any(sigmas <= 0):
            raise DataError("sigmas must be positive, one per row")

    a = np.vstack([r.vector() for r in rows])
    w = np.ones_like(deltas) if sigmas is None else 1.0 / sigmas
    aw = a * w[:, None]
    bw = deltas * w

    # scale-free rank analysis: normalize columns so degeneracy means
    # linear dependence, not merely a small participation
    norms = np.linalg.norm(aw, axis=0)
    zero_cols = norms == 0
    norms_safe = np.where(zero_cols, 1.0, norms)
    basis = aw / norms_safe
    _, svals, vt = np.linalg.svd(basis, full_matrices=False)
    rank = int(np.sum(svals >= svals[0] * RANK_TOL)) if svals[0] > 0 else 0
    if rank == 0:
        raise DataError("all participation columns are zero")
    cond = float(svals[0] / svals[rank - 1])
    if cond > COND_LIMIT:
        raise FitError(f"participation matrix condition number {cond:.3g} "
                       f"exceeds {COND_LIMIT:.0e}; geometries too similar to invert")

    unresolved = set(np.array(LOSS_NAMES)[zero_cols])
    null_vectors = vt[rank:]
    if null_vectors.size:
        involved = np.max(np.abs(null_vectors), axis=0) > 1e-6
        unresolved.update(np.array(LOSS_NAMES)[involved])
    unresolved = tuple(n for n in LOSS_NAMES if n in unresolved)
    keep = [j for j, n in enumerate(LOSS_NAMES) if n not in unresolved]

    x = np.full(4, np.nan)
    x_sigma = np.full(4, np.nan)
    predicted_w = None
    if keep:
        from scipy.optimize import nnls
        sol, _ = nnls(aw[:, keep], bw)
        x[keep] = sol
        predicted_w = aw[:, keep] @ sol

    combos = []
    if rank < 4:
        # nothing (or not everything) individually resolvable; fit the
        # resolved directions so an aggregate number survives
        y, *_ = np.linalg.lstsq(basis, bw, rcond=None)
        for k in range(rank):
            direction = vt[k]
            combos.append({
                "coefficients": {n: float(c) for n, c in zip(LOSS_NAMES, direction)},
                "value": float(direction @ y),
            })
        if predicted_w is None:
            predicted_w = basis @ y

    predicted = predicted_w / w
    resid = deltas - predicted
    residual_rms = float(np.sqrt(np.mean((bw - predicted_w) ** 2)))

    if keep:
        ata = aw[:, keep].T @ aw[:, keep]
        try:
            cov = np.linalg.inv(ata)
        except np.linalg.LinAlgError:
            cov = np.full((len(keep), len(keep)), np.nan)
        if sigmas is None:
            dof = len(rows) - len(keep)
            scale = float(np.sum(resid ** 2) / dof) if dof > 0 else np.nan
            cov = cov * scale
        x_sigma[keep] = np.sqrt(np.clip(np.diag(cov), 0, None))

    return DecomposeResult(
        losses={n: float(v) for n, v in zip(LOSS_NAMES, x)},
        sigma={n: float(v) for n, v in zip(LOSS_NAMES, x_sigma)},
        unresolved=unresolved,
        rank=rank,
        condition_number=cond,
        residual_rms=residual_rms,
        predicted=predicted,
        resolved_combinations=tuple(combos),
    )
