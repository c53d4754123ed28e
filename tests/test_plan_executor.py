"""Tests for plan nodes."""

import pytest

from repro.engine.plan import JoinNode, ScanNode, left_deep_plan, render_plan
from repro.errors import OptimizationError


def join_count(plan):
    return sum(isinstance(node, JoinNode) for node in plan.walk())


class TestPlanNodes:
    def test_scan_properties(self):
        scan = ScanNode("r1", "rel")
        assert scan.aliases == frozenset({"r1"})
        assert join_count(scan) == 0
        assert "AS r1" in str(scan)

    def test_join_properties(self):
        join = JoinNode(ScanNode("r", "r"), ScanNode("s", "s"), ("j",))
        assert join.aliases == frozenset({"r", "s"})
        assert not join.is_cross_product
        assert join_count(join) == 1
        assert "HashJoin" in str(join)

    def test_cross_join_label(self):
        join = JoinNode(ScanNode("r", "r"), ScanNode("s", "s"), ())
        assert join.is_cross_product
        assert "CrossJoin" in str(join)

    def test_left_deep_builder(self):
        scans = [ScanNode(n, n) for n in ("a", "b", "c")]
        plan = left_deep_plan(scans, lambda prefix, scan: ("x",))
        assert join_count(plan) == 2
        assert isinstance(plan.right, ScanNode)

    def test_left_deep_empty_rejected(self):
        with pytest.raises(OptimizationError):
            left_deep_plan([], lambda prefix, scan: ())

    def test_render_plan(self):
        join = JoinNode(ScanNode("r", "r"), ScanNode("s", "s"), ("j",))
        text = render_plan(join)
        assert text.count("Scan") == 2
        assert "rows≈" in text
