import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from qspeedlim.schedules import Schedule, load_schedule, schedule_integral

TAU_GRID = np.linspace(0.0, 1.0, 1001)


def sample_schedules():
    knots = [[0.0, 1.0, 0.0], [0.5, 0.5, 0.25], [1.0, 0.0, 1.0]]
    return [
        Schedule.linear(),
        Schedule.polynomial(2),
        Schedule.polynomial(3),
        Schedule.polynomial(0.5),
        Schedule.tabulated(knots),
    ]


class TestBoundaries:
    @pytest.mark.parametrize("s", sample_schedules(), ids=lambda s: s.kind)
    def test_endpoint_values(self, s):
        assert s.f(0.0) == pytest.approx(1.0, abs=1e-12)
        assert s.f(1.0) == pytest.approx(0.0, abs=1e-12)
        assert s.g(0.0) == pytest.approx(0.0, abs=1e-12)
        assert s.g(1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", sample_schedules(), ids=lambda s: s.kind)
    def test_g_nonnegative_on_dense_grid(self, s):
        gvals = s.g(TAU_GRID)
        assert np.all(gvals >= 0.0)
        # one array call agrees with per-point calls to within 1 ulp
        pointwise = np.array([s.g(float(t)) for t in TAU_GRID])
        assert np.all(np.abs(gvals - pointwise) <= np.spacing(pointwise))

    def test_linear_midpoint(self):
        s = Schedule.linear()
        assert s.f(0.5) == pytest.approx(0.5)
        assert s.g(0.5) == pytest.approx(0.5)

    def test_poly_power_two_values(self):
        s = Schedule.polynomial(2)
        assert s.g(0.5) == pytest.approx(0.25)
        assert s.f(0.5) == pytest.approx(0.75)


class TestValidation:
    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            Schedule.polynomial(0)
        with pytest.raises(ValueError):
            Schedule.polynomial(-1.5)

    def test_tabulated_must_span_unit_interval(self):
        with pytest.raises(ValueError, match="span"):
            Schedule.tabulated([[0.1, 1.0, 0.0], [1.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="span"):
            Schedule.tabulated([[0.0, 1.0, 0.0], [0.9, 0.0, 1.0]])

    def test_tabulated_bad_boundary_values_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            Schedule.tabulated([[0.0, 0.9, 0.0], [1.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="boundary"):
            Schedule.tabulated([[0.0, 1.0, 0.1], [1.0, 0.0, 1.0]])

    def test_tabulated_non_finite_knot_rejected(self):
        knots = [[0.0, 1.0, 0.0], [0.5, float("nan"), float("nan")], [1.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="finite"):
            Schedule.tabulated(knots)

    def test_tabulated_overflowing_integral_rejected(self):
        # every knot is finite, but the trapezoids of f and g overflow, so no
        # step weight could be formed; a knot of 1e200 integrates finitely
        for column, name in ((1, "f"), (2, "g")):
            knots = [[0.0, 1.0, 0.0], [0.5, 0.5, 0.5], [1.0, 0.0, 1.0]]
            knots[1][column] = 1e308
            with pytest.raises(ValueError, match=f"integral of {name} over the knots"):
                Schedule.tabulated(knots)
        s = Schedule.tabulated([[0.0, 1.0, 0.0], [0.5, 1e200, 1e200], [1.0, 0.0, 1.0]])
        assert schedule_integral(s) == pytest.approx(0.5e200)

    def test_kind_without_exact_integral_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Schedule("cosine")

    def test_caller_envelopes_rejected(self):
        # envelopes come from the kind's parameters alone: these tau^4
        # lambdas once passed, and disagreed with the linear integral
        with pytest.raises(ValueError, match="power"):
            Schedule("linear", lambda tau: 1.0 - tau**4, lambda tau: tau**4)
        with pytest.raises(ValueError, match="knots"):
            Schedule("poly", 2.0, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])

    @pytest.mark.parametrize("power", [math.inf, math.nan])
    def test_non_finite_power_rejected(self, power):
        # an infinite power once built g = 0 on [0, 1) and failed only after
        # every evolution, on its zero integral
        with pytest.raises(ValueError, match="power"):
            Schedule.polynomial(power)

    def test_tabulated_negative_g_rejected(self):
        knots = [[0.0, 1.0, 0.0], [0.5, 0.5, -0.1], [1.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="nonneg"):
            Schedule.tabulated(knots)

    def test_tabulated_unsorted_rejected(self):
        knots = [[0.0, 1.0, 0.0], [0.7, 0.3, 0.5], [0.5, 0.5, 0.25], [1.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="increasing"):
            Schedule.tabulated(knots)

    def test_tabulated_negative_f_warns_but_builds(self):
        knots = [[0.0, 1.0, 0.0], [0.5, -0.2, 0.5], [1.0, 0.0, 1.0]]
        with pytest.warns(UserWarning, match="f < 0"):
            s = Schedule.tabulated(knots)
        assert s.f(0.5) == pytest.approx(-0.2)


class TestIntegral:
    def test_linear_full_interval(self):
        # closed form: integral of tau over [0, 1] is 1/2
        assert schedule_integral(Schedule.linear()) == pytest.approx(0.5, abs=1e-10)

    def test_linear_partial(self):
        assert schedule_integral(Schedule.linear(), upto=0.5) == pytest.approx(0.125, abs=1e-10)

    def test_poly_two_matches_quadrature_oracle(self):
        for power in (2.0, 0.5, 2.5):
            oracle, _ = quad(lambda t: t**power, 0.0, 1.0)
            got = schedule_integral(Schedule.polynomial(power))
            assert got == pytest.approx(oracle, abs=1e-10)
            assert got == pytest.approx(1.0 / (power + 1.0), abs=1e-15)

    def test_poly_partial_against_closed_form(self):
        # integral of tau^3 to u is u^4 / 4
        for u in (0.2, 0.6, 1.0):
            got = schedule_integral(Schedule.polynomial(3), upto=u)
            assert got == pytest.approx(u**4 / 4.0, abs=1e-10)

    def test_tabulated_exact_trapezoid(self):
        knots = [[0.0, 1.0, 0.0], [0.5, 0.5, 0.25], [1.0, 0.0, 1.0]]
        s = Schedule.tabulated(knots)
        # hand trapezoid: 0.5*(0+0.25)/2 + 0.5*(0.25+1)/2 = 0.375
        assert schedule_integral(s) == pytest.approx(0.375, abs=1e-14)

    def test_tabulated_partial_cuts_segment(self):
        knots = [[0.0, 1.0, 0.0], [0.5, 0.5, 0.25], [1.0, 0.0, 1.0]]
        s = Schedule.tabulated(knots)
        # at upto=0.25 the interpolant is g=0.125: area = 0.25*0.125/2
        assert schedule_integral(s, upto=0.25) == pytest.approx(0.25 * 0.125 / 2.0, abs=1e-14)
        # cutting exactly at a knot
        assert schedule_integral(s, upto=0.5) == pytest.approx(0.0625, abs=1e-14)

    def test_tabulated_matches_quadrature(self):
        knots = [[0.0, 1.0, 0.0], [0.3, 0.6, 0.1], [0.8, 0.1, 0.7], [1.0, 0.0, 1.0]]
        s = Schedule.tabulated(knots)
        oracle, _ = quad(s.g, 0.0, 1.0, points=[0.3, 0.8], limit=200)
        assert schedule_integral(s) == pytest.approx(oracle, abs=1e-10)

    def test_upto_out_of_range(self):
        with pytest.raises(ValueError):
            schedule_integral(Schedule.linear(), upto=1.5)
        with pytest.raises(ValueError):
            schedule_integral(Schedule.linear(), upto=-0.1)

    @pytest.mark.parametrize("s", sample_schedules() + [Schedule.tabulated(
        [[0.0, 1.0, 0.0], [0.3, 0.6, 0.1], [0.8, 0.1, 0.7], [1.0, 0.0, 1.0]])],
        ids=lambda s: s.kind)
    def test_array_upto_matches_points_and_quadrature(self, s):
        # grid points, every knot, and points just beside the knots
        knots = [] if s.knots is None else list(s.knots[:, 0])
        u = np.unique(np.clip(np.concatenate(
            [TAU_GRID, knots, np.add(knots, 1e-9), np.subtract(knots, 1e-9)]), 0.0, 1.0))
        got = schedule_integral(s, upto=u)
        assert got.shape == u.shape
        points = np.array([schedule_integral(s, upto=x) for x in u])
        np.testing.assert_allclose(got, points, rtol=1e-15, atol=0.0)
        for x, value in zip(u[::50], got[::50]):
            oracle, _ = quad(s.g, 0.0, x, points=[k for k in knots if 0.0 < k < x] or None,
                             limit=200)
            assert value == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("s", sample_schedules() + [Schedule.tabulated(
        [[0.0, 1.0, 0.0], [0.3, 0.6, 0.1], [0.8, 0.1, 0.7], [1.0, 0.0, 1.0]])],
        ids=lambda s: s.kind)
    def test_f_integral_matches_quadrature(self, s):
        # the tabulated f is not 1 - g, so its own knot column is integrated
        knots = [] if s.knots is None else list(s.knots[:, 0])
        got = schedule_integral(s, upto=TAU_GRID, envelope="f")
        for x, value in zip(TAU_GRID[::25], got[::25]):
            oracle, _ = quad(s.f, 0.0, x, points=[k for k in knots if 0.0 < k < x] or None,
                             limit=200)
            assert value == pytest.approx(oracle, abs=1e-10)

    def test_unknown_envelope_rejected(self):
        with pytest.raises(ValueError, match="envelope"):
            schedule_integral(Schedule.linear(), envelope="h")

    def test_array_upto_out_of_range(self):
        for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError):
                schedule_integral(Schedule.linear(), upto=np.array(bad))

    def test_monotone_in_upto(self):
        s = Schedule.polynomial(2)
        vals = [schedule_integral(s, upto=u) for u in np.linspace(0, 1, 21)]
        assert np.all(np.diff(vals) >= 0)


class TestSerialization:
    @pytest.mark.parametrize("s", sample_schedules(), ids=lambda s: s.kind)
    def test_round_trip_preserves_values(self, s):
        back = Schedule.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back.kind == s.kind
        for tau in np.linspace(0, 1, 41):
            assert back.f(tau) == pytest.approx(s.f(tau), abs=1e-14)
            assert back.g(tau) == pytest.approx(s.g(tau), abs=1e-14)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"kind": "poly", "power": 2}))
        s = load_schedule(path)
        assert s.kind == "poly" and s.power == 2.0

    def test_load_reports_position_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "linear",,}')
        with pytest.raises(ValueError, match=r":1:\d+"):
            load_schedule(path)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Schedule.from_dict({"kind": "cosine"})

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            Schedule.from_dict({"kind": "poly"})
        with pytest.raises(ValueError):
            Schedule.from_dict({"kind": "tabulated"})

    @pytest.mark.parametrize("data, field", [
        ("linear", "object"),
        ({"kind": "poly", "power": "2"}, "power"),
        ({"kind": "poly", "power": True}, "power"),
        ({"kind": "tabulated", "knots": {"tau": 0}}, "knots"),
    ], ids=["string", "string-power", "bool-power", "object-knots"])
    def test_mistyped_fields_rejected(self, data, field):
        with pytest.raises(ValueError, match=field):
            Schedule.from_dict(data)
