"""Participation-ratio loss budget: tables, forward model, decomposition."""

import numpy as np
import pytest

from cpwloss import dataio, lossbudget
from cpwloss.errors import DataError, FitError
from cpwloss.lossbudget import (
    InterfaceLosses,
    ParticipationRow,
    ParticipationTable,
    decompose,
    forward_loss,
    interpolate,
    load_builtin_table,
    load_table,
)


class TestBuiltinTable:
    def test_exact_values(self):
        table = load_builtin_table()
        assert len(table.rows) == 3
        r0, r50, r100 = table.rows
        assert (r0.p_sa, r0.p_ma, r0.p_ms, r0.p_si) == (2.83e-4, 4.95e-5, 5.93e-4, 0.907)
        assert (r50.p_sa, r50.p_ma, r50.p_ms, r50.p_si) == (2.67e-4, 2.08e-5, 5.45e-4, 0.905)
        assert (r100.p_sa, r100.p_ma, r100.p_ms, r100.p_si) == (2.51e-4, 1.77e-5, 5.04e-4, 0.903)
        assert table.trench_range_nm == (0.0, 100.0)

    def test_deeper_trench_reduces_interfaces(self):
        table = load_builtin_table()
        for name in ("p_sa", "p_ma", "p_ms"):
            vals = [getattr(r, name) for r in table.rows]
            assert vals[0] > vals[1] > vals[2]


class TestValidation:
    def test_participation_out_of_range(self):
        with pytest.raises(DataError):
            ParticipationRow(trench_nm=0.0, p_sa=1.5, p_ma=0.0, p_ms=0.0, p_si=0.5)
        with pytest.raises(DataError):
            ParticipationRow(trench_nm=-1.0, p_sa=0.1, p_ma=0.0, p_ms=0.0, p_si=0.5)
        with pytest.raises(DataError, match=r"^participation p_sa=2\.0 must lie in \[0, 1\]$"):
            ParticipationRow(trench_nm=0.0, p_sa=np.float64(2.0), p_ma=0.0,
                             p_ms=0.0, p_si=0.5)

    def test_negative_loss_tangent(self):
        with pytest.raises(DataError):
            InterfaceLosses(delta_sa=-1e-3, delta_ma=0.0, delta_ms=0.0, delta_si=0.0)
        with pytest.raises(DataError, match=r"^loss tangent delta_sa=-0\.001 must be finite"):
            InterfaceLosses(delta_sa=np.float64(-1e-3), delta_ma=0.0,
                            delta_ms=0.0, delta_si=0.0)

    def test_table_needs_sorted_rows(self):
        r = lambda t: ParticipationRow(trench_nm=t, p_sa=1e-4, p_ma=1e-5,
                                       p_ms=1e-4, p_si=0.9)
        with pytest.raises(DataError):
            ParticipationTable(rows=(r(50.0), r(0.0)))
        with pytest.raises(DataError):
            ParticipationTable(rows=(r(0.0),))


class TestInterpolate:
    def test_nodes_are_exact(self):
        table = load_builtin_table()
        for row in table.rows:
            got = interpolate(table, row.trench_nm)
            assert got.p_sa == row.p_sa
            assert got.p_ma == row.p_ma
            assert got.p_ms == row.p_ms
            assert got.p_si == row.p_si

    def test_midpoint(self):
        table = load_builtin_table()
        got = interpolate(table, 25.0)
        assert got.p_sa == pytest.approx((2.83e-4 + 2.67e-4) / 2, rel=1e-12)
        assert got.p_ma == pytest.approx((4.95e-5 + 2.08e-5) / 2, rel=1e-12)
        assert got.p_ms == pytest.approx((5.93e-4 + 5.45e-4) / 2, rel=1e-12)
        assert got.p_si == pytest.approx((0.907 + 0.905) / 2, rel=1e-12)

    def test_no_extrapolation(self):
        table = load_builtin_table()
        with pytest.raises(DataError):
            interpolate(table, -1.0)
        with pytest.raises(DataError):
            interpolate(table, 150.0)


class TestForwardLoss:
    def test_reference_budget(self):
        # all interfaces at 1e-3, substrate at 1e-7, untrenched geometry
        table = load_builtin_table()
        losses = InterfaceLosses(delta_sa=1e-3, delta_ma=1e-3,
                                 delta_ms=1e-3, delta_si=1e-7)
        d = forward_loss(interpolate(table, 0.0), losses)
        assert d == pytest.approx(1.0162e-6, rel=1e-4)

    def test_hand_sum(self):
        row = ParticipationRow(trench_nm=0.0, p_sa=0.2, p_ma=0.3, p_ms=0.4, p_si=0.1)
        losses = InterfaceLosses(delta_sa=1.0, delta_ma=10.0, delta_ms=100.0, delta_si=1000.0)
        assert forward_loss(row, losses) == pytest.approx(
            0.2 * 1 + 0.3 * 10 + 0.4 * 100 + 0.1 * 1000, rel=1e-14)

    def test_trenching_lowers_budget(self):
        table = load_builtin_table()
        losses = InterfaceLosses(delta_sa=1e-3, delta_ma=1e-3,
                                 delta_ms=1e-3, delta_si=1e-7)
        budgets = [forward_loss(interpolate(table, t), losses)
                   for t in (0.0, 50.0, 100.0)]
        assert budgets[0] > budgets[1] > budgets[2]


def independent_rows():
    """Four geometries whose participation vectors are genuinely independent."""
    return [
        ParticipationRow(trench_nm=0.0,   p_sa=3.0e-4, p_ma=5.0e-5, p_ms=6.0e-4, p_si=0.900),
        ParticipationRow(trench_nm=50.0,  p_sa=2.5e-4, p_ma=2.0e-5, p_ms=5.0e-4, p_si=0.905),
        ParticipationRow(trench_nm=100.0, p_sa=2.0e-4, p_ma=8.0e-5, p_ms=4.0e-4, p_si=0.910),
        ParticipationRow(trench_nm=150.0, p_sa=4.0e-4, p_ma=1.0e-5, p_ms=7.0e-4, p_si=0.895),
    ]


TRUTH = InterfaceLosses(delta_sa=2.1e-3, delta_ma=7.3e-4, delta_ms=1.4e-3, delta_si=3.0e-7)


class TestDecompose:
    def test_full_rank_round_trip(self):
        rows = independent_rows()
        deltas = [forward_loss(r, TRUTH) for r in rows]
        result = decompose(rows, deltas)
        assert result.rank == 4
        assert result.unresolved == ()
        assert result.resolved_combinations == ()
        for name in lossbudget.LOSS_NAMES:
            assert result.losses[name] == pytest.approx(getattr(TRUTH, name), rel=1e-8)
        assert result.predicted == pytest.approx(deltas, rel=1e-10)
        assert result.residual_rms < 1e-12

    def test_overdetermined_with_sigmas(self):
        rows = independent_rows() + [
            ParticipationRow(trench_nm=75.0, p_sa=2.2e-4, p_ma=6.0e-5,
                             p_ms=4.5e-4, p_si=0.908),
        ]
        deltas = np.array([forward_loss(r, TRUTH) for r in rows])
        # corrupt the extra row but tell the fit not to trust it
        deltas_bad = deltas.copy()
        deltas_bad[-1] *= 3.0
        sigmas = np.full(5, 1e-9)
        sigmas[-1] = 1.0
        result = decompose(rows, deltas_bad, sigmas=sigmas)
        for name in lossbudget.LOSS_NAMES:
            assert result.losses[name] == pytest.approx(getattr(TRUTH, name), rel=1e-4)

    def test_interpolated_rows_are_degenerate(self):
        # every interpolated row is a blend of the three tabulated ones,
        # so five of them can never separate four loss tangents
        table = load_builtin_table()
        rows = [interpolate(table, t) for t in (0.0, 25.0, 50.0, 75.0, 100.0)]
        deltas = [forward_loss(r, TRUTH) for r in rows]
        result = decompose(rows, deltas)
        assert result.rank == 3
        assert len(result.unresolved) > 0
        assert len(result.resolved_combinations) == 3
        # the combinations act on the column-normalised loss tangents
        norms = np.linalg.norm([r.vector() for r in rows], axis=0)
        scaled_truth = dict(zip(lossbudget.LOSS_NAMES, norms * TRUTH.vector()))
        for combo in result.resolved_combinations:
            assert set(combo["coefficients"]) == set(lossbudget.LOSS_NAMES)
            expected = sum(c * scaled_truth[n] for n, c in combo["coefficients"].items())
            assert combo["value"] == pytest.approx(expected, rel=1e-9)
        for name in result.unresolved:
            assert np.isnan(result.losses[name])

    def test_duplicate_rows_rank_one(self):
        row = ParticipationRow(trench_nm=0.0, p_sa=3e-4, p_ma=5e-5,
                               p_ms=6e-4, p_si=0.9)
        rows = [row, row, row, row]
        deltas = [forward_loss(row, TRUTH)] * 4
        result = decompose(rows, deltas)
        assert result.rank == 1
        assert set(result.unresolved) == set(lossbudget.LOSS_NAMES)
        assert len(result.resolved_combinations) == 1

    def test_nearly_dependent_columns_fail(self):
        # metal-air column differs from substrate-air by one part in 1e12:
        # numerically retained but far too ill-conditioned to invert
        eps = 1e-12
        rows = []
        for k, (sa, ms, si) in enumerate([(3.0e-4, 6.0e-4, 0.900),
                                          (2.5e-4, 5.0e-4, 0.905),
                                          (2.0e-4, 4.0e-4, 0.910),
                                          (4.0e-4, 7.0e-4, 0.895)]):
            ma = sa * (1.0 + (eps if k % 2 else -eps))
            rows.append(ParticipationRow(trench_nm=50.0 * k, p_sa=sa, p_ma=ma,
                                         p_ms=ms, p_si=si))
        deltas = [forward_loss(r, TRUTH) for r in rows]
        with pytest.raises(FitError):
            decompose(rows, deltas)

    def test_too_few_rows(self):
        rows = independent_rows()[:3]
        deltas = [forward_loss(r, TRUTH) for r in rows]
        with pytest.raises(DataError):
            decompose(rows, deltas)

    def test_bad_deltas(self):
        rows = independent_rows()
        with pytest.raises(DataError):
            decompose(rows, [1e-6, 1e-6, 1e-6])  # wrong length
        with pytest.raises(DataError):
            decompose(rows, [1e-6, -1e-6, 1e-6, 1e-6])  # negative
        with pytest.raises(DataError):
            decompose(rows, [forward_loss(r, TRUTH) for r in rows],
                      sigmas=[1e-9, 0.0, 1e-9, 1e-9])  # zero sigma

    def test_nonnegative_output(self):
        # noisy inputs that would drive an unconstrained fit negative
        rows = independent_rows()
        truth = InterfaceLosses(delta_sa=1e-3, delta_ma=0.0, delta_ms=1e-3,
                                delta_si=1e-7)
        rng = np.random.default_rng(11)
        deltas = np.array([forward_loss(r, truth) for r in rows])
        deltas = np.clip(deltas * (1 + 0.05 * rng.standard_normal(4)), 0, None)
        result = decompose(rows, deltas)
        for name in lossbudget.LOSS_NAMES:
            assert result.losses[name] >= 0.0

    def test_report_shape(self, tmp_path):
        rows = independent_rows()
        deltas = [forward_loss(r, TRUTH) for r in rows]
        path = tmp_path / "r.json"
        dataio.write_report(path, "demo", {"result": decompose(rows, deltas)})
        doc = dataio.read_report(path)["body"]["result"]
        assert set(doc) == {"losses", "sigma", "unresolved", "rank",
                            "condition_number", "residual_rms", "predicted",
                            "resolved_combinations"}
        assert doc["rank"] == 4
        assert len(doc["predicted"]) == 4


class TestNnls:
    def test_matches_scipy(self):
        # scipy's active-set solver is the reference
        from scipy.optimize import nnls as reference
        rng = np.random.default_rng(23)
        bound = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 12))
            a = rng.standard_normal((m, n)) * 10 ** rng.uniform(-2.0, 0.0, n)
            b = rng.standard_normal(m)
            want, _ = reference(a, b)
            got = lossbudget.nnls(a, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            bound += bool(np.any(want == 0.0))
        assert bound >= 100  # most draws hold some tangent at zero


class TestLoadTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ptable.dat"
        path.write_text(
            "trench_nm p_sa p_ma p_ms p_si\n"
            "0 2.83e-4 4.95e-5 5.93e-4 0.907\n"
            "50 2.67e-4 2.08e-5 5.45e-4 0.905\n"
            "100 2.51e-4 1.77e-5 5.04e-4 0.903\n"
        )
        table = load_table(path)
        builtin = load_builtin_table()
        for got, want in zip(table.rows, builtin.rows):
            assert got == want

    def test_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("depth p_sa p_ma p_ms p_si\n0 1e-4 1e-5 1e-4 0.9\n")
        with pytest.raises(Exception):
            load_table(path)

    def test_unsorted_rows_rejected(self, tmp_path):
        path = tmp_path / "unsorted.dat"
        path.write_text(
            "trench_nm p_sa p_ma p_ms p_si\n"
            "50 2.67e-4 2.08e-5 5.45e-4 0.905\n"
            "0 2.83e-4 4.95e-5 5.93e-4 0.907\n"
        )
        with pytest.raises(DataError):
            load_table(path)
