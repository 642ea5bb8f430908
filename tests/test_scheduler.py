"""System-tier scheduler tests: tie-break contract, sanitizer checks,
the past-time clamp, the event limit, boundary timestamps, and the
keyed-draw fast path that rides along with the compiled routing."""

import random

import pytest

from repro.sanitize import SanitizerError
from repro.system.scheduler import SimulationLimitError, Simulator
from repro.system.seeding import PrefixStream, stream_key, stream_u


class TestTieBreakContract:
    def test_equal_time_events_fire_in_insertion_order(self):
        sim = Simulator()
        seen = []
        for i in range(20):
            sim.schedule1(10.0, lambda t, a: seen.append(a), i)
        sim.run()
        assert seen == list(range(20))

    def test_mid_callback_tie_joins_the_back_of_its_slot(self):
        sim = Simulator()
        seen = []

        def first(t, _arg):
            seen.append("first")
            # same-timestamp schedule from inside a firing event must
            # run after every already-queued equal-time event
            sim.schedule1(t, lambda tt, a: seen.append("late"), None)

        sim.schedule1(5.0, first, None)
        sim.schedule1(5.0, lambda t, a: seen.append("second"), None)
        sim.run()
        assert seen == ["first", "second", "late"]

    def test_multi_arg_and_zero_arg_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda t, a, b: seen.append((t, a, b)), 1, 2)
        sim.schedule(1.0, lambda t: seen.append((t,)))
        sim.schedule(2.0, lambda t, a: seen.append((t, a)), 9)
        sim.run()
        assert seen == [(1.0,), (2.0, 9), (3.0, 1, 2)]


class TestSanitizerInvariants:
    def test_past_schedule_rejected_when_sanitized(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sim = Simulator()
        sim.schedule1(100.0, lambda t, a: sim.schedule1(
            50.0, lambda tt, aa: None, None), None)
        with pytest.raises(SanitizerError):
            sim.run()

    def test_past_schedule_clamped_to_fire_next_unsanitized(self,
                                                            monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim = Simulator()
        seen = []

        def boot(t, _a):
            seen.append("boot")
            sim.schedule1(t - 50.0, lambda tt, a: seen.append("past"),
                          None)

        sim.schedule1(100.0, boot, None)
        sim.schedule1(100.0, lambda t, a: seen.append("peer"), None)
        sim.schedule1(101.0, lambda t, a: seen.append("later"), None)
        sim.run()
        # the invalid past event fires before anything later
        assert seen == ["boot", "past", "peer", "later"]


class TestEventLimit:
    def test_runaway_loop_raises_with_diagnostics(self):
        sim = Simulator(max_events=500)

        def storm(t, a):
            sim.schedule1(t + 1.0, storm, a)

        sim.schedule1(0.0, storm, None)
        with pytest.raises(SimulationLimitError) as exc:
            sim.run()
        assert "500" in str(exc.value)
        assert "storm" in str(exc.value)

    def test_limit_passed_to_run_overrides_ctor(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule1(float(i), lambda t, a: fired.append(t), None)
        with pytest.raises(SimulationLimitError):
            sim.run(max_events=3)


class TestPrefixStream:
    def test_matches_stream_key_and_u(self):
        rng = random.Random(7)
        for _ in range(200):
            prefix = (rng.randrange(-50, 50), "kind",
                      f"st{rng.randrange(8)}")
            ps = PrefixStream(*prefix)
            a, b = rng.randrange(-10, 10**6), rng.randrange(0, 40)
            assert ps.key2(a, b) == stream_key(*prefix, a, b)
            assert ps.u2(a, b) == stream_u(*prefix, a, b)
            assert ps.key(a) == stream_key(*prefix, a)
            assert ps.u(a, b, 3) == stream_u(*prefix, a, b, 3)

    def test_single_part_prefix(self):
        ps = PrefixStream(11)
        assert ps.key2(1, 2) == stream_key(11, 1, 2)

    def test_empty_prefix_or_suffix_rejected(self):
        with pytest.raises(ValueError):
            PrefixStream()
        with pytest.raises(ValueError):
            PrefixStream(1).key()


class TestBoundaryTimestamps:
    """Zone-kill schedules put many events on the same timestamp: a
    planned onset, the kill it schedules at that very instant, and the
    restore of an outage that started one span earlier.  Those ties
    must resolve in insertion order."""

    STEP = 64.0
    SPAN = 64.0 * 512
    LAST = 600

    def _boundary_storm(self, sim):
        """An arrival chain marching one step at a time; every arrival
        schedules a same-timestamp kill and a restore one span ahead,
        which ties with a later arrival."""
        order = []
        step, span, last = self.STEP, self.SPAN, self.LAST

        def restore(t, k):
            order.append(("restore", t, k))

        def kill(t, k):
            order.append(("kill", t, k))

        def arrive(t, k):
            order.append(("arrive", t, k))
            if k < last:
                sim.schedule1(t + step, arrive, k + 1)
            sim.schedule1(t, kill, k)
            sim.schedule1(t + span, restore, k)

        sim.schedule1(0.0, arrive, 0)
        sim.run()
        return order

    def _expected(self):
        # at slot m the restore of m - 512 was queued first (one span
        # earlier), then the arrival (one step earlier), then its kill
        order = []
        shift = int(self.SPAN / self.STEP)
        for m in range(self.LAST + shift + 1):
            t = m * self.STEP
            if 0 <= m - shift <= self.LAST:
                order.append(("restore", t, m - shift))
            if m <= self.LAST:
                order += [("arrive", t, m), ("kill", t, m)]
        return order

    def test_boundary_storm_fires_ties_in_insertion_order(self):
        order = self._boundary_storm(Simulator())
        assert len(order) == (self.LAST + 1) * 3
        assert order == self._expected()

    def test_boundary_storm_survives_the_sanitizer(self, monkeypatch):
        plain = self._boundary_storm(Simulator())
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert self._boundary_storm(Simulator()) == plain

    def test_same_timestamp_insert_at_boundary_fires_last_in_slot(self):
        # an onset event at an exact boundary scheduling its kill at
        # the same (boundary) timestamp joins the back of that slot
        sim = Simulator()
        seen = []
        t0 = self.STEP * 3
        sim.schedule1(t0, lambda t, a: (
            seen.append("onset"),
            sim.schedule1(t, lambda tt, aa: seen.append("kill"),
                          None)), None)
        sim.schedule1(t0, lambda t, a: seen.append("peer"), None)
        sim.schedule1(t0 + self.STEP,
                      lambda t, a: seen.append("next"), None)
        sim.run()
        assert seen == ["onset", "peer", "kill", "next"]

    def test_past_boundary_clamp(self, monkeypatch):
        # unsanitized: an onset computed one full step behind the
        # drain point fires next, before its equal-time peer
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim = Simulator()
        seen = []

        def boot(t, _a):
            seen.append(("boot", t))
            sim.schedule1(t - self.STEP,
                          lambda tt, a: seen.append(("stale", tt)),
                          None)

        t0 = self.STEP * 2
        sim.schedule1(t0, boot, None)
        sim.schedule1(t0, lambda t, a: seen.append(("peer", t)), None)
        sim.schedule1(t0 + 1.0,
                      lambda t, a: seen.append(("later", t)), None)
        sim.run()
        assert seen == [("boot", t0), ("stale", t0 - self.STEP),
                        ("peer", t0), ("later", t0 + 1.0)]
