"""The static-analysis framework: each rule on a known-bad fixture, the
suppression machinery, the reporters, the lint CLI, the dynamic lock-order
witness — and the self-clean gate (zero findings on ``src/repro``)."""

from __future__ import annotations

import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_analysis, render_json, render_text
from repro.analysis.base import FileSource
from repro.analysis.driver import resolve_rules
from repro.analysis.interproc.model import iter_python_files
from repro.analysis.lockwitness import (
    LockWitness,
    WitnessLock,
    lockcheck_enabled,
    make_lock,
)
from repro.analysis.rules import ALL_RULES
from repro.cli import main as cli_main
from repro.errors import LockOrderViolation


def lint_fixture(tmp_path: Path, relpath: str, code: str):
    """Write ``code`` at a repo-shaped path and lint just that tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    return run_analysis([str(tmp_path)])


def rule_ids(report):
    return [finding.rule_id for finding in report.findings]


# ---------------------------------------------------------------------------
# checkpoint-coverage
# ---------------------------------------------------------------------------


class TestCheckpointCoverage:
    def test_charging_loop_without_checkpoint_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/engine/bad_scan.py",
            """
            def scan(rows, meter):
                out = []
                for row in rows:
                    meter.charge(1, "scan")
                    out.append(row)
                return out
            """,
        )
        assert rule_ids(report) == ["checkpoint-coverage"]

    def test_checkpoint_anywhere_in_loop_nest_suffices(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/engine/good_scan.py",
            """
            def join(left, right, meter, context):
                out = []
                for n, row in enumerate(left):
                    if n % 4096 == 0:
                        context.checkpoint("exec.join")
                    for other in right:
                        meter.charge(1, "pair")
                        out.append((row, other))
                return out
            """,
        )
        assert report.findings == []

    def test_tick_counts_as_checkpoint(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/engine/tick_scan.py",
            """
            def scan(rows, meter, context):
                for row in rows:
                    context.tick("scan")
                    meter.charge(1, "scan")
            """,
        )
        assert report.findings == []

    def test_parallel_scope_is_covered(self, tmp_path):
        """A charging loop in ``repro/parallel/`` regresses the lint gate."""
        report = lint_fixture(
            tmp_path,
            "repro/parallel/bad_kernel.py",
            """
            def probe(pairs, table, meter):
                out = []
                for key, head in pairs:
                    meter.charge(1, "join-out")
                    out.extend(head + rest for rest in table[key])
                return out
            """,
        )
        assert "checkpoint-coverage" in rule_ids(report)

    def test_parallel_scope_meter_drop_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/parallel/dropped.py",
            """
            def fused(left, right, keep, meter):
                return [row for row in left if row in right]
            """,
        )
        assert "work-charging" in rule_ids(report)

    def test_charge_outside_loops_is_fine(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/engine/bulk.py",
            """
            def bulk(rows, meter):
                meter.charge(len(rows), "scan")
                return list(rows)
            """,
        )
        assert report.findings == []

    def test_out_of_scope_path_not_checked(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/bench/loops.py",
            """
            def scan(rows, meter):
                for row in rows:
                    meter.charge(1, "scan")
            """,
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# work-charging
# ---------------------------------------------------------------------------


class TestWorkCharging:
    def test_dropped_meter_parameter_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/relational/dropper.py",
            """
            def project(rows, meter):
                return [row[:1] for row in rows]
            """,
        )
        assert rule_ids(report) == ["work-charging"]

    def test_forwarding_the_meter_is_enough(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/relational/forwarder.py",
            """
            def outer(rows, meter):
                return inner(rows, meter=meter)
            """,
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# lock discipline (interproc-race on a class that owns a lock)
# ---------------------------------------------------------------------------


class TestLockDiscipline:
    BAD = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def bump(self):
            with self._lock:
                self.count += 1

        def reset(self):
            self.count = 0
    """

    def test_unguarded_write_to_guarded_attr_is_flagged(self, tmp_path):
        report = lint_fixture(tmp_path, "repro/service/box.py", self.BAD)
        assert rule_ids(report) == ["interproc-race"]
        message = report.findings[0].message
        assert "Box.count written without holding" in message
        assert "in reset()" in message

    def test_init_and_locked_helpers_are_exempt(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/service/box_ok.py",
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def _reset_locked(self):
                    self.count = 0
            """,
        )
        assert report.findings == []

    def test_rule_fires_for_a_lock_owning_class_in_any_package(self, tmp_path):
        # No path list: owning a lock is what makes the class shared.
        report = lint_fixture(tmp_path / "a", "repro/engine/box.py", self.BAD)
        assert rule_ids(report) == ["interproc-race"]
        lockless = self.BAD.replace("threading.Lock()", "None").replace(
            "with self._lock:", "if True:"
        )
        report = lint_fixture(tmp_path / "b", "repro/service/box.py", lockless)
        assert report.findings == []

    def test_container_and_nested_path_writes_are_writes(self, tmp_path):
        # The Attribute node of ``self._items[k] = v`` / ``self.stats.n += 1``
        # has Load context; they are writes all the same, in the guarded
        # set and at the unguarded site, with no thread root in sight.
        report = lint_fixture(
            tmp_path,
            "repro/engine/tally.py",
            """
            import threading

            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}
                    self.stats = Stats()

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v
                        self.stats.n += 1

                def sneak(self, k, v):
                    self._items[k] = v

                def miscount(self):
                    self.stats.n += 1

                def peek(self, k):
                    return self._items.get(k), self.stats.n

            class Stats:
                n = 0
            """,
        )
        assert rule_ids(report) == ["interproc-race"] * 2
        assert [f.key for f in report.findings] == [
            "race:Tally._items:sneak",
            "race:Tally.stats:miscount",
        ]
        assert all("written without holding" in f.message for f in report.findings)

    def test_a_lock_inherited_from_a_base_class_counts(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/engine/derived.py",
            """
            import threading

            class Base:
                def __init__(self):
                    self._lock = threading.Lock()

            class Derived(Base):
                def __init__(self):
                    super().__init__()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
            """,
        )
        assert [f.key for f in report.findings] == ["race:Derived.count:reset"]


# ---------------------------------------------------------------------------
# no-wall-clock
# ---------------------------------------------------------------------------


class TestWallClock:
    def test_time_time_and_global_random_are_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/core/clocky.py",
            """
            import random
            import time
            from datetime import datetime

            def stamp(plan):
                jitter = random.random()
                return (time.time(), datetime.now(), jitter)
            """,
        )
        assert sorted(rule_ids(report)) == ["no-wall-clock"] * 3

    def test_monotonic_clocks_and_seeded_rng_are_allowed(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/core/clean.py",
            """
            import random
            import time

            def measure(seed):
                rng = random.Random(seed)
                started = time.perf_counter()
                return rng.randrange(10), time.monotonic() - started
            """,
        )
        assert report.findings == []

    def test_from_imports_of_banned_names_are_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/engine/imports.py",
            """
            from random import randrange
            from time import time
            """,
        )
        assert sorted(rule_ids(report)) == ["no-wall-clock"] * 2


# ---------------------------------------------------------------------------
# error-swallowing
# ---------------------------------------------------------------------------


class TestErrorSwallowing:
    def test_broad_handler_without_reraise_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/service/swallow.py",
            """
            def run(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """,
        )
        assert rule_ids(report) == ["error-swallowing"]

    def test_reraising_handler_is_fine(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/service/reraise.py",
            """
            def run(fn, log):
                try:
                    return fn()
                except Exception as exc:
                    log(exc)
                    raise
            """,
        )
        assert report.findings == []

    def test_earlier_abort_clause_sanctions_broad_handler(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/service/layered.py",
            """
            from repro.errors import DeadlineExceeded, QueryCancelled

            def run(fn, log):
                try:
                    return fn()
                except (QueryCancelled, DeadlineExceeded):
                    raise
                except Exception as exc:
                    log(exc)
                    return None
            """,
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# span-balance
# ---------------------------------------------------------------------------


class TestSpanBalance:
    def test_unmanaged_span_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/obs/leaky.py",
            """
            def trace(tracer):
                span = tracer.span("leak")
                return span
            """,
        )
        assert rule_ids(report) == ["span-balance"]

    def test_with_managed_span_is_fine(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/obs/balanced.py",
            """
            def trace(tracer):
                with tracer.span("ok") as span:
                    return span.name
            """,
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Suppressions, reporters, driver plumbing
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_line_suppression_hides_and_counts(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/service/sup.py",
            """
            def run(fn):
                try:
                    return fn()
                except Exception:  # hdqo: ignore[error-swallowing]
                    return None
            """,
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_file_suppression_covers_every_line(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/service/supfile.py",
            """
            # hdqo: ignore-file[error-swallowing]

            def run(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """,
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_bare_ignore_suppresses_all_rules_on_line(self):
        source = FileSource.parse(
            "repro/x.py", "value = 1  # hdqo: ignore\n"
        )
        assert source.suppressed("anything", 1)
        assert not source.suppressed("anything", 2)


class TestDriver:
    def test_syntax_error_becomes_a_finding(self, tmp_path):
        report = lint_fixture(
            tmp_path, "repro/service/broken.py", "def broken(:\n"
        )
        assert rule_ids(report) == ["syntax-error"]
        assert not report.ok

    def test_unknown_select_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            resolve_rules(select=["nope"])

    def test_select_filters_battery(self):
        rules = resolve_rules(select=["span-balance"])
        assert [rule.rule_id for rule in rules] == ["span-balance"]

    def test_iter_python_files_skips_caches(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert [os.path.basename(path) for path in files] == ["real.py"]

    def test_same_named_loose_files_are_all_checked(self, tmp_path):
        # Two ``m.py`` outside any package share a module name; neither
        # may shadow the other in the model's module table.
        for package in ("service", "obs"):
            target = tmp_path / "repro" / package / "m.py"
            target.parent.mkdir(parents=True)
            target.write_text(
                "def run(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except Exception:\n"
                "        return None\n"
            )
        report = run_analysis([str(tmp_path)])
        assert report.files == 2
        assert rule_ids(report) == ["error-swallowing"] * 2


class TestReporters:
    def test_json_report_shape(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/obs/leaky.py",
            """
            def trace(tracer):
                return tracer.span("leak")
            """,
        )
        payload = json.loads(render_json(report))
        assert payload["errors"] == 1
        assert payload["ok"] is False
        (finding,) = payload["findings"]
        assert finding["rule"] == "span-balance"
        assert finding["path"].endswith("leaky.py")
        assert finding["line"] == 3

    def test_text_report_has_location_and_summary(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "repro/obs/leaky.py",
            """
            def trace(tracer):
                return tracer.span("leak")
            """,
        )
        text = render_text(report)
        assert "leaky.py:3:" in text
        assert "error[span-balance]" in text
        assert "1 error(s)" in text


# ---------------------------------------------------------------------------
# The gate: the repo's own sources are clean
# ---------------------------------------------------------------------------


class TestSelfClean:
    def test_repro_package_has_zero_findings(self, self_lint):
        payload = self_lint.payload
        assert payload["files"] > 80
        messages = json.dumps(payload["findings"], indent=2)
        assert payload["findings"] == [], f"lint findings on src/repro:\n{messages}"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


CATALOGUE = [rule.rule_id for rule in ALL_RULES]


class TestLintCli:
    def test_clean_tree_exits_zero(self, self_lint):
        assert self_lint.code == 0
        assert self_lint.payload["errors"] == 0
        assert self_lint.payload["ok"] is True

    @pytest.mark.parametrize("rule_id", CATALOGUE)
    def test_every_listed_rule_is_selectable_alone(self, rule_id, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        assert f"{rule_id} (" in capsys.readouterr().out
        assert cli_main(["lint", "--select", rule_id]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_selecting_the_whole_catalogue_equals_no_select(
        self, self_lint, capsys
    ):
        code = cli_main(
            ["lint", "--format", "json", "--select", ",".join(CATALOGUE)]
        )
        assert code == self_lint.code
        assert json.loads(capsys.readouterr().out) == self_lint.payload

    def test_findings_exit_nonzero_and_json_renders(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "obs" / "leaky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def t(tracer):\n    return tracer.span('x')\n")
        code = cli_main(["lint", "--format", "json", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1

    def test_select_unknown_rule_fails(self, capsys):
        assert cli_main(["lint", "--select", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "unknown rule id(s): bogus" in err
        # The full catalogue is named, once.
        for rule_id in CATALOGUE:
            assert err.count(rule_id) == 1

    def test_help_lists_neither_removed_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["lint", "--help"])
        out = capsys.readouterr().out
        for removed in ("--jobs", "--interproc", "--baseline"):
            assert removed not in out
        assert "--graphs-out" in out

    def test_list_rules_prints_catalogue(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out


# ---------------------------------------------------------------------------
# Dynamic lock-order witness
# ---------------------------------------------------------------------------


class TestLockWitness:
    def test_opposite_orders_witness_a_cycle(self):
        witness = LockWitness()
        a = WitnessLock("A", witness)
        b = WitnessLock("B", witness)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        with pytest.raises(LockOrderViolation) as excinfo:
            witness.assert_clean()
        assert excinfo.value.cycle[0] == excinfo.value.cycle[-1]
        assert {"A", "B"} <= set(excinfo.value.cycle)

    def test_consistent_order_is_clean(self):
        witness = LockWitness()
        a = WitnessLock("A", witness)
        b = WitnessLock("B", witness)
        for _ in range(3):
            with a:
                with b:
                    pass
        witness.assert_clean()
        assert witness.edges() == {"A": {"B"}}

    def test_transitive_cycle_is_witnessed(self):
        witness = LockWitness()
        a, b, c = (WitnessLock(n, witness) for n in "ABC")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:
                pass
        with pytest.raises(LockOrderViolation):
            witness.assert_clean()

    def test_reset_clears_state(self):
        witness = LockWitness()
        a = WitnessLock("A", witness)
        b = WitnessLock("B", witness)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert witness.violations
        witness.reset()
        witness.assert_clean()
        assert witness.edges() == {}

    def test_same_name_reentry_is_not_a_cycle(self):
        witness = LockWitness()
        first = WitnessLock("PlanCache.build", witness)
        second = WitnessLock("PlanCache.build", witness)
        with first:
            with second:
                pass
        witness.assert_clean()

    def test_make_lock_honours_env(self, monkeypatch):
        monkeypatch.delenv("HDQO_LOCKCHECK", raising=False)
        assert not lockcheck_enabled()
        assert not isinstance(make_lock("plain"), WitnessLock)
        monkeypatch.setenv("HDQO_LOCKCHECK", "1")
        assert lockcheck_enabled()
        assert isinstance(make_lock("instrumented"), WitnessLock)

    def test_witness_lock_supports_lock_api(self):
        witness = LockWitness()
        lock = WitnessLock("L", witness)
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()
        assert "L" in repr(lock)
