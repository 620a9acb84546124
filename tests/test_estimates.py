"""Unit tests for estimates and selectBestEstimate (Algorithm 3)."""

import math

import numpy as np

from tests.conformance.reference.estimates import (
    UNKNOWN_DISTORTION,
    Estimate,
    select_best_estimate,
)


class TestEstimate:
    def test_fresh_defaults(self):
        est = Estimate.fresh(intervals=10, now=5.0)
        assert est.distortion == UNKNOWN_DISTORTION
        assert est.seq == 0
        assert est.suspected == 0
        assert est.last_update == 5.0
        assert est.beliefs.intervals == 10

    def test_fresh_with_distortion(self):
        est = Estimate.fresh(intervals=5, distortion=0.0)
        assert est.distortion == 0.0

    def test_copy_independent(self):
        est = Estimate.fresh(intervals=5, distortion=2.0)
        clone = est.copy()
        clone.beliefs.decrease_reliability(3)
        clone.distortion = 9.0
        assert est.distortion == 2.0
        assert not np.allclose(est.beliefs.beliefs, clone.beliefs.beliefs)

    def test_point_estimate_delegates(self):
        est = Estimate.fresh(intervals=4)
        assert est.point_estimate() == est.beliefs.point_estimate()

    def test_adopt_copies_content_and_bumps_distortion(self):
        mine = Estimate.fresh(intervals=5)
        theirs = Estimate.fresh(intervals=5, distortion=2.0)
        theirs.beliefs.decrease_reliability(4)
        theirs.seq = 7
        theirs.suspected = 3
        mine.suspected = 1
        mine.adopt(theirs, now=9.0)
        assert mine.distortion == 3.0  # theirs + 1: second-hand now
        assert mine.seq == 7
        assert mine.suspected == 1  # local monitoring state NOT adopted
        assert mine.last_update == 9.0
        assert np.allclose(mine.beliefs.beliefs, theirs.beliefs.beliefs)

    def test_adopt_does_not_alias_beliefs(self):
        mine = Estimate.fresh(intervals=5)
        theirs = Estimate.fresh(intervals=5, distortion=0.0)
        mine.adopt(theirs)
        mine.beliefs.decrease_reliability(2)
        assert not np.allclose(mine.beliefs.beliefs, theirs.beliefs.beliefs)


class TestSelectBestEstimate:
    """Algorithm 3: less distorted wins; adoption adds one distortion."""

    def test_adopts_strictly_less_distorted(self):
        mine = Estimate.fresh(intervals=5, distortion=3.0)
        theirs = Estimate.fresh(intervals=5, distortion=1.0)
        assert select_best_estimate(mine, theirs) is True
        assert mine.distortion == 2.0

    def test_keeps_own_on_tie(self):
        mine = Estimate.fresh(intervals=5, distortion=2.0)
        mine.beliefs.decrease_reliability(1)
        before = mine.beliefs.beliefs
        theirs = Estimate.fresh(intervals=5, distortion=2.0)
        assert select_best_estimate(mine, theirs) is False
        assert np.allclose(mine.beliefs.beliefs, before)
        assert mine.distortion == 2.0

    def test_keeps_own_when_less_distorted(self):
        mine = Estimate.fresh(intervals=5, distortion=0.0)
        theirs = Estimate.fresh(intervals=5, distortion=5.0)
        assert select_best_estimate(mine, theirs) is False

    def test_unknown_always_loses(self):
        mine = Estimate.fresh(intervals=5)  # distortion = inf
        theirs = Estimate.fresh(intervals=5, distortion=40.0)
        assert select_best_estimate(mine, theirs) is True
        assert mine.distortion == 41.0

    def test_unknown_vs_unknown_no_adoption(self):
        mine = Estimate.fresh(intervals=5)
        theirs = Estimate.fresh(intervals=5)
        assert select_best_estimate(mine, theirs) is False
        assert math.isinf(mine.distortion)

    def test_first_hand_always_adopted(self):
        """A d=0 estimate (the owner's own) is adopted by anyone with d>=1."""
        mine = Estimate.fresh(intervals=5, distortion=1.0)
        theirs = Estimate.fresh(intervals=5, distortion=0.0)
        theirs.seq = 42
        assert select_best_estimate(mine, theirs, now=3.0) is True
        assert mine.distortion == 1.0  # 0 + 1
        assert mine.seq == 42
        assert mine.last_update == 3.0

    def test_repeated_exchange_stabilises_at_distance(self):
        """A chain of adoptions yields distortion == network distance."""
        owner = Estimate.fresh(intervals=5, distortion=0.0)
        hop1 = Estimate.fresh(intervals=5)
        hop2 = Estimate.fresh(intervals=5)
        for _ in range(3):
            select_best_estimate(hop1, owner)
            select_best_estimate(hop2, hop1)
        assert hop1.distortion == 1.0
        assert hop2.distortion == 2.0
