"""Route-level backend equivalence: vectorized vs scalar OTEM on NYCC.

The kernel-level suite (tests/core/test_rollout_vec.py) pins the rollout
arithmetic to ~1e-14; this test closes the loop at the system level.  The
two backends take different optimizer trajectories (joint batched
central-difference race vs per-start serial forward differences), so the
plans are not bitwise identical - but they must land on the same physics:
route metrics agree within a few percent, and the thermal envelope within
a fraction of a kelvin.
"""

import pytest

from repro.sim.scenario import Scenario, run_scenario

#: NYCC at a reduced solver budget (the batch bench's setting): a real
#: multi-replan route that keeps the test inside a few seconds.
_KNOBS = dict(methodology="otem", cycle="nycc", mpc_max_evals=60)


@pytest.fixture(scope="module")
def routes():
    scalar = run_scenario(Scenario(**_KNOBS, rollout_backend="scalar"))
    vectorized = run_scenario(Scenario(**_KNOBS, rollout_backend="vectorized"))
    return scalar, vectorized


class TestRouteMetricsEquivalence:
    def test_backend_recorded(self, routes):
        scalar, vectorized = routes
        assert scalar.solver.backend == "scalar"
        assert vectorized.solver.backend == "vectorized"
        assert scalar.solver.solves == vectorized.solver.solves

    def test_capacity_loss_matches(self, routes):
        scalar, vectorized = routes
        assert vectorized.metrics.qloss_percent == pytest.approx(
            scalar.metrics.qloss_percent, rel=0.15
        )

    def test_energy_accounting_matches(self, routes):
        scalar, vectorized = routes
        assert vectorized.metrics.hees_energy_j == pytest.approx(
            scalar.metrics.hees_energy_j, rel=0.05
        )
        assert vectorized.metrics.average_power_w == pytest.approx(
            scalar.metrics.average_power_w, rel=0.05
        )

    def test_thermal_envelope_matches(self, routes):
        scalar, vectorized = routes
        assert vectorized.metrics.peak_temp_k == pytest.approx(
            scalar.metrics.peak_temp_k, abs=0.5
        )
        assert (
            vectorized.metrics.time_above_safe_s
            == scalar.metrics.time_above_safe_s
        )

    def test_demand_is_met(self, routes):
        scalar, vectorized = routes
        # both backends must satisfy the route (no meaningful unmet energy)
        assert scalar.metrics.unmet_energy_j < 1.0
        assert vectorized.metrics.unmet_energy_j < 1.0


class TestTightRouteGap:
    """The vectorized default against the scalar reference where the
    problem is tight: US06 replanned every 10 s instead of 5 s.

    Here the default plans worse than the reference (0.01510 vs 0.01195%
    capacity loss at the last measurement, x1.26; on NYCC and at the
    default period the two stay within a few percent).  The bound pins
    that gap at its measured size, so a further loss of plan quality on
    the default path fails here rather than only shifting the paper-shape
    benches.  Tighten it when the gap closes.
    """

    _KNOBS = dict(methodology="otem", cycle="us06", mpc_step_s=10.0)
    #: vectorized / scalar capacity loss, measured x1.2635
    MAX_LOSS_RATIO = 1.30

    @pytest.fixture(scope="class")
    def routes(self):
        return {
            backend: run_scenario(Scenario(**self._KNOBS, rollout_backend=backend))
            for backend in ("scalar", "vectorized")
        }

    def test_same_replans(self, routes):
        assert routes["scalar"].solver.solves == routes["vectorized"].solver.solves

    def test_capacity_loss_gap_does_not_grow(self, routes):
        scalar = routes["scalar"].metrics.qloss_percent
        vectorized = routes["vectorized"].metrics.qloss_percent
        assert vectorized <= scalar * self.MAX_LOSS_RATIO

    def test_default_still_beats_parallel(self, routes):
        """Fig. 8's ordering survives the gap on this route."""
        parallel = run_scenario(
            Scenario(methodology="parallel", cycle="us06", mpc_step_s=10.0)
        )
        assert (
            routes["vectorized"].metrics.qloss_percent
            < parallel.metrics.qloss_percent
        )
