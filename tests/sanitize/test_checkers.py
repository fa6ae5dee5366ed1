"""Unit tests for the three sanitizer checkers.

Each class drives one checker directly through its hook surface and pins
both directions: the seeded violation fires exactly the expected finding,
and the correctly synchronized counterpart stays clean.
"""

from repro.sanitize.grants import GrantSanitizer
from repro.sanitize.protocol import ProtocolChecker
from repro.sanitize.race import RaceDetector
from repro.sanitize.vclock import vc_fresh, vc_join


class TestVectorClocks:
    def test_fresh_clock_starts_at_one(self):
        assert vc_fresh("a") == {"a": 1}

    def test_join_is_componentwise_max(self):
        into = {"a": 3, "b": 1}
        vc_join(into, {"b": 5, "c": 2})
        assert into == {"a": 3, "b": 5, "c": 2}


class TestRaceDetector:
    def test_unordered_writes_by_two_actors_race(self):
        det = RaceDetector()
        det.track_page(0x1000)
        det.write("a", 0x1000, 8)
        det.write("b", 0x1004, 8)
        assert [f.kind for f in det.findings] == ["data-race"]

    def test_release_acquire_orders_the_writes(self):
        det = RaceDetector()
        det.track_page(0x1000)
        det.write("a", 0x1000, 8)
        det.release("a", "chan")
        det.acquire("b", "chan")
        det.write("b", 0x1000, 8)
        assert det.findings == []

    def test_disjoint_ranges_do_not_conflict(self):
        det = RaceDetector()
        det.track_page(0x1000)
        det.write("a", 0x1000, 8)
        det.write("b", 0x1008, 8)
        assert det.findings == []

    def test_read_read_is_not_a_conflict(self):
        det = RaceDetector()
        det.track_page(0x1000)
        det.read("a", 0x1000, 8)
        det.read("b", 0x1000, 8)
        assert det.findings == []

    def test_untracked_pages_are_ignored(self):
        det = RaceDetector()
        det.write("a", 0x5000, 8)
        det.write("b", 0x5000, 8)
        assert det.findings == []
        assert det.accesses_checked == 0

    def test_plain_write_races_with_exec(self):
        det = RaceDetector()
        det.exec_access("vcpu0", 0x400000, 16)  # auto-tracks the page
        det.write("patcher", 0x400004, 1)
        kinds = [f.kind for f in det.findings]
        assert kinds == ["data-race"]
        assert "exec" in det.findings[0].message

    def test_locked_write_synchronizes_with_exec(self):
        # ABOM's cmpxchg: decode and LOCK store share the per-page
        # channel, so patch-then-decode and decode-then-patch are both
        # ordered — race-free by construction.
        det = RaceDetector()
        det.exec_access("vcpu0", 0x400000, 16)
        det.locked_write("vcpu1", 0x400004, 8)
        det.exec_access("vcpu0", 0x400000, 16)
        assert det.findings == []

    def test_duplicate_races_are_reported_once(self):
        det = RaceDetector()
        det.track_page(0x1000)
        for _ in range(5):
            det.write("a", 0x1000, 8)
            det.write("b", 0x1000, 8)
        assert len(det.findings) == 1

    def test_findings_reuse_analysis_finding_machinery(self):
        from repro.analysis.safety import Finding, Severity

        det = RaceDetector()
        det.track_page(0x1000)
        det.write("a", 0x1000, 8)
        det.write("b", 0x1000, 8)
        finding = det.findings[0]
        assert isinstance(finding, Finding)
        assert finding.severity is Severity.ERROR
        assert "site=" in finding.render()

    def test_window_is_bounded(self):
        det = RaceDetector()
        det.track_page(0x1000)
        for i in range(500):
            det.write("a", 0x1000 + (i % 64), 1)
        assert all(len(w) <= 64 for w in det._pages.values())


class TestGrantSanitizer:
    def test_balanced_lifecycle_is_clean(self):
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_map(1, 2)
        san.on_copy(1)
        san.on_unmap(1)
        san.on_end(1)
        assert san.findings == []
        assert san.live_refs() == []

    def test_double_unmap_by_same_mapper_flagged(self):
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_map(1, 2)
        san.on_unmap(1)
        san.on_unmap_attempt(1, 2)  # real table rejected the second unmap
        assert [f.kind for f in san.findings] == ["grant-double-unmap"]

    def test_unmap_of_never_mapped_ref_is_cleanup_not_misuse(self):
        # The driver's reconnect path unmaps defensively after a failed
        # map; the real table rejects it and the driver swallows the
        # error — that is idempotent cleanup.
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_unmap_attempt(1, 2)
        assert san.findings == []

    def test_map_after_end_is_use_after_end(self):
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_end(1)
        san.on_map_attempt(1)
        assert [f.kind for f in san.findings] == ["grant-use-after-end"]

    def test_copy_after_end_is_use_after_end(self):
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_end(1)
        san.on_copy(1)
        assert [f.kind for f in san.findings] == ["grant-use-after-end"]

    def test_double_grant_of_live_frame_flagged(self):
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_grant(2, 1, 0xE000)
        assert [f.kind for f in san.findings] == ["double-grant"]

    def test_regrant_after_end_is_clean(self):
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_end(1)
        san.on_grant(2, 1, 0xE000)
        assert san.findings == []

    def test_end_while_mapped_flagged_and_grant_stays_live(self):
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_map(1, 2)
        san.on_end(1)
        assert [f.kind for f in san.findings] == ["grant-end-while-mapped"]
        # The real table raises and keeps the grant; mirror agrees.
        assert san.live_refs() == [1]

    def test_leak_reported_at_domain_destroy(self):
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_grant(2, 1, 0xF000)
        san.on_end(1)
        san.on_domain_destroy(1)
        assert [f.kind for f in san.findings] == ["grant-leak"]
        assert "ref 2" in san.findings[0].message

    def test_mapped_by_dying_domain_is_also_a_leak(self):
        san = GrantSanitizer()
        san.on_grant(1, 1, 0xE000)
        san.on_map(1, 2)
        san.on_domain_destroy(2)
        assert [f.kind for f in san.findings] == ["grant-leak"]
        assert "mapped" in san.findings[0].message


class TestProtocolChecker:
    def _ring(self, checker, size=4):
        checker.ring_register("r", size, 0xF000_0000, 16)
        return "r"

    def test_publish_kick_consume_is_clean(self):
        pc = ProtocolChecker()
        name = self._ring(pc)
        for _ in range(3):
            pc.ring_publish(name)
        pc.ring_kick(name)
        pc.ring_consume(name, 3)
        pc.ring_quiesce(name)
        assert pc.findings == []

    def test_publish_without_kick_is_lost_wakeup_at_quiescence(self):
        pc = ProtocolChecker()
        name = self._ring(pc)
        pc.ring_publish(name)
        pc.ring_quiesce(name)
        assert [f.kind for f in pc.findings] == ["ring-lost-wakeup"]

    def test_dropped_then_retried_kick_is_clean(self):
        # The fault path: kick lost, retry re-publishes and re-kicks.
        pc = ProtocolChecker()
        name = self._ring(pc)
        pc.ring_publish(name)
        pc.ring_kick_lost(name)
        pc.ring_abort(name, 1)  # driver unwinds the failed train
        pc.ring_publish(name)   # retry
        pc.ring_kick(name)
        pc.ring_consume(name, 1)
        pc.ring_quiesce(name)
        assert pc.findings == []
        assert pc.ring(name).kicks_lost == 1

    def test_overrun_is_descriptor_reuse(self):
        pc = ProtocolChecker()
        name = self._ring(pc, size=4)
        for _ in range(5):  # fifth publish laps the unconsumed first
            pc.ring_publish(name)
        assert [f.kind for f in pc.findings] == ["ring-descriptor-reuse"]

    def test_overrun_reports_once_then_resyncs(self):
        pc = ProtocolChecker()
        name = self._ring(pc, size=4)
        for _ in range(12):
            pc.ring_publish(name)
        assert len(pc.findings) == len(
            [f for f in pc.findings if f.kind == "ring-descriptor-reuse"]
        )
        assert len(pc.findings) < 12

    def test_quiesce_all_covers_every_ring(self):
        pc = ProtocolChecker()
        pc.ring_register("a", 4, 0xF000_0000, 16)
        pc.ring_register("b", 4, 0xF000_1000, 16)
        pc.ring_publish("a")
        pc.ring_publish("b")
        pc.quiesce_all()
        assert sorted(f.message.split(":")[0] for f in pc.findings) == [
            "a", "b",
        ]
