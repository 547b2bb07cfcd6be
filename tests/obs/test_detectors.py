"""Tests for the streaming anomaly detectors."""

from repro.obs.detectors import (CollusionRingDetector,
                                 ConvergenceStallDetector,
                                 FakeOutbreakDetector, StarvationDetector,
                                 WhitewashDetector, default_detectors)


def _event(kind, t, **fields):
    return {"seq": 0, "t": t, "event": kind, **fields}


def _feed(detector, events, finish_t=None):
    alerts = []
    for event in events:
        alerts.extend(detector.observe(event))
    if finish_t is None:
        finish_t = max((e["t"] for e in events), default=0.0)
    alerts.extend(detector.finish(finish_t))
    return alerts


class TestConvergenceStall:
    def test_shrinking_residuals_are_quiet(self):
        events = [
            _event("multitrust_iteration", 10.0, iteration=2, residual=0.4),
            _event("multitrust_iteration", 10.0, iteration=3, residual=0.1),
            _event("multitrust_iteration", 10.0, iteration=4,
                   residual=0.001),
        ]
        assert _feed(ConvergenceStallDetector(), events) == []

    def test_stalled_residual_alerts(self):
        events = [
            _event("multitrust_iteration", 10.0, iteration=2, residual=0.4),
            _event("multitrust_iteration", 10.0, iteration=3, residual=0.39),
        ]
        alerts = _feed(ConvergenceStallDetector(), events)
        assert len(alerts) == 1
        assert alerts[0].detector == "convergence_stall"
        assert "stalled" in alerts[0].message

    def test_converged_low_residual_never_alerts(self):
        events = [
            _event("multitrust_iteration", 10.0, iteration=2,
                   residual=0.005),
            _event("multitrust_iteration", 10.0, iteration=3,
                   residual=0.005),
        ]
        assert _feed(ConvergenceStallDetector(), events) == []

    def test_new_computation_closes_previous_run(self):
        detector = ConvergenceStallDetector()
        stalled = [
            _event("multitrust_iteration", 10.0, iteration=2, residual=0.4),
            _event("multitrust_iteration", 10.0, iteration=3, residual=0.4),
        ]
        for event in stalled:
            assert detector.observe(event) == []
        # Next refresh restarts at iteration 2 -> the stalled run closes.
        alerts = detector.observe(
            _event("multitrust_iteration", 20.0, iteration=2, residual=0.3))
        assert len(alerts) == 1

    def test_single_step_runs_are_ignored(self):
        events = [
            _event("multitrust_iteration", 10.0, iteration=2, residual=0.9)]
        assert _feed(ConvergenceStallDetector(), events) == []


class TestFakeOutbreak:
    WINDOW = 6 * 3600.0

    def _downloads(self, t0, total, fakes):
        events = []
        for i in range(total):
            events.append(_event("download", t0 + i, fake=i < fakes))
        return events

    def test_quiet_when_fraction_low(self):
        events = self._downloads(0.0, 20, 2)
        assert _feed(FakeOutbreakDetector(), events) == []

    def test_critical_without_baseline(self):
        events = self._downloads(0.0, 10, 8)
        alerts = _feed(FakeOutbreakDetector(), events)
        assert len(alerts) == 1
        assert alerts[0].severity == "critical"

    def test_spike_over_baseline_warns(self):
        events = (self._downloads(0.0, 20, 1)
                  + self._downloads(self.WINDOW, 20, 2)
                  + self._downloads(2 * self.WINDOW, 20, 8))
        alerts = _feed(FakeOutbreakDetector(), events)
        assert len(alerts) == 1
        assert alerts[0].severity == "warning"
        assert "baseline" in alerts[0].message

    def test_sparse_windows_ignored(self):
        events = self._downloads(0.0, 3, 3)  # below min_downloads
        assert _feed(FakeOutbreakDetector(), events) == []


def _edges(t, pairs):
    return [_event("trust_edge", t, src=src, dst=dst, value=value)
            for src, dst, value in pairs]


class TestCollusionRing:
    def _clique(self, members, value=0.3):
        pairs = []
        for a in members:
            for b in members:
                if a != b:
                    pairs.append((a, b, value))
        return pairs

    def test_unvalidated_clique_alerts(self):
        pairs = self._clique(["c1", "c2", "c3"])
        # Members also trust an outsider a little; nobody trusts them back.
        pairs += [("c1", "h1", 0.05), ("h1", "h2", 0.4), ("h2", "h1", 0.4)]
        alerts = _feed(CollusionRingDetector(), _edges(100.0, pairs))
        assert len(alerts) == 1
        assert alerts[0].severity == "critical"
        assert "c1, c2, c3" in alerts[0].message

    def test_externally_validated_clique_is_innocent(self):
        pairs = self._clique(["h1", "h2", "h3"])
        # Outsiders place more trust in the clique than it holds itself.
        pairs += [("o1", "h1", 1.0), ("o2", "h2", 1.0), ("o3", "h3", 1.0)]
        assert _feed(CollusionRingDetector(), _edges(100.0, pairs)) == []

    def test_sparse_component_is_innocent(self):
        # A chain of mutual edges is connected but nowhere near a clique.
        members = [f"p{i}" for i in range(8)]
        pairs = []
        for a, b in zip(members, members[1:]):
            pairs += [(a, b, 0.3), (b, a, 0.3)]
        assert _feed(CollusionRingDetector(), _edges(100.0, pairs)) == []

    def test_each_ring_reported_once(self):
        pairs = self._clique(["c1", "c2", "c3"])
        detector = CollusionRingDetector()
        alerts = _feed(detector, _edges(100.0, pairs), finish_t=100.0)
        assert len(alerts) == 1
        # The same membership in a later snapshot stays silent.
        alerts = []
        for event in _edges(200.0, pairs):
            alerts.extend(detector.observe(event))
        alerts.extend(detector.finish(200.0))
        assert alerts == []

    def test_small_groups_ignored(self):
        pairs = self._clique(["c1", "c2"])
        assert _feed(CollusionRingDetector(), _edges(100.0, pairs)) == []


class TestWhitewash:
    def test_whitewash_event_raises_info(self):
        alerts = WhitewashDetector().observe(
            _event("whitewash", 50.0, retired="w-0", fresh="w-0-w1"))
        assert [a.severity for a in alerts] == ["info"]
        assert "w-0-w1" in alerts[0].message

    def test_reset_above_prior_warns_once(self):
        detector = WhitewashDetector()
        detector.observe(
            _event("whitewash", 50.0, retired="w-0", fresh="w-0-w1"))
        quiet = detector.observe(_event(
            "reputation_snapshot", 60.0, peer="w-0-w1", norm=0.2))
        assert quiet == []
        alerts = detector.observe(_event(
            "reputation_snapshot", 70.0, peer="w-0-w1", norm=0.8))
        assert [a.severity for a in alerts] == ["warning"]
        again = detector.observe(_event(
            "reputation_snapshot", 80.0, peer="w-0-w1", norm=0.9))
        assert again == []

    def test_unrelated_high_reputation_is_fine(self):
        alerts = WhitewashDetector().observe(_event(
            "reputation_snapshot", 60.0, peer="honest-1", norm=0.9))
        assert alerts == []

    def test_rejoin_abuse_threshold(self):
        detector = WhitewashDetector()
        alerts = []
        for t in (10.0, 20.0, 30.0, 40.0):
            alerts.extend(detector.observe(
                _event("churn_rejoin", t, peer="p-1")))
        assert len(alerts) == 1
        assert "3 times" in alerts[0].message

    def test_dht_rejoin_counts_by_user_field(self):
        detector = WhitewashDetector()
        for t in (1.0, 2.0):
            detector.observe(
                _event("dht_node_join", t, user="u-1", rejoined=True))
        # First joins never count.
        detector.observe(
            _event("dht_node_join", 3.0, user="u-2", rejoined=False))
        alerts = detector.observe(
            _event("dht_node_join", 4.0, user="u-1", rejoined=True))
        assert len(alerts) == 1
        assert "u-1" in alerts[0].message


def _snapshot(t, peer, cls, service_class, norm=0.1):
    return _event("reputation_snapshot", t, peer=peer, cls=cls,
                  service_class=service_class, norm=norm, online=True)


class TestStarvation:
    def test_honest_peer_stuck_at_zero_warns_once(self):
        detector = StarvationDetector()
        alerts = []
        for tick in range(5):
            t = (tick + 1) * 100.0
            alerts.extend(detector.observe(_snapshot(t, "h-1", "honest", 0)))
            alerts.extend(detector.observe(_snapshot(t, "h-2", "honest", 3)))
        alerts.extend(detector.finish(500.0))
        assert len(alerts) == 1
        assert "h-1" in alerts[0].message

    def test_no_alert_without_differentiation(self):
        # Everyone is in class 0: the incentive layer isn't differentiating,
        # so nobody is being starved relative to anyone else.
        detector = StarvationDetector()
        alerts = []
        for tick in range(4):
            t = (tick + 1) * 100.0
            alerts.extend(detector.observe(_snapshot(t, "h-1", "honest", 0)))
            alerts.extend(detector.observe(_snapshot(t, "h-2", "honest", 0)))
        alerts.extend(detector.finish(400.0))
        assert alerts == []

    def test_freerider_in_class_zero_is_working_as_intended(self):
        detector = StarvationDetector()
        alerts = []
        for tick in range(4):
            t = (tick + 1) * 100.0
            alerts.extend(detector.observe(
                _snapshot(t, "f-1", "freerider", 0)))
            alerts.extend(detector.observe(_snapshot(t, "h-1", "honest", 3)))
        alerts.extend(detector.finish(400.0))
        assert alerts == []

    def test_recovery_resets_streak(self):
        detector = StarvationDetector()
        alerts = []
        classes = [0, 0, 2, 0, 0]  # never 3 consecutive zeros
        for tick, service_class in enumerate(classes):
            t = (tick + 1) * 100.0
            alerts.extend(detector.observe(
                _snapshot(t, "h-1", "honest", service_class)))
            alerts.extend(detector.observe(_snapshot(t, "h-2", "honest", 3)))
        alerts.extend(detector.finish(500.0))
        assert alerts == []


class TestDefaultSet:
    def test_catalogue_is_complete(self):
        names = [d.name for d in default_detectors()]
        assert names == ["convergence_stall", "fake_outbreak",
                         "collusion_ring", "whitewash",
                         "incentive_starvation", "lookup_failure_burst",
                         "quorum_miss_burst", "lookup_hop_blowup"]
