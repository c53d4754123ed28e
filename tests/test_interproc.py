"""The whole-program analyses: each on seeded bad/good fixture packages,
inline suppression (uniform across rules), the JSON reporter schema, the
parse-exactly-once invariant, the dynamic-witness ⊆ static-graph soundness
check — and the self-clean gate (zero unsuppressed findings on
``src/repro``)."""

from __future__ import annotations

import json
import re
import textwrap
import tokenize
from pathlib import Path

import pytest

import repro
from repro.analysis.base import FileSource
from repro.analysis.driver import run_analysis
from repro.analysis.interproc import build_lock_graph
from repro.cli import main as cli_main

REPRO_SRC = str(Path(repro.__file__).parent)


def write_fixture(tmp_path: Path, files: dict) -> Path:
    for relpath, code in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code))
    return tmp_path


def interproc_report(tmp_path: Path, files: dict, **kwargs):
    return run_analysis([str(write_fixture(tmp_path, files))], **kwargs)


def keys(report):
    return [finding.key for finding in report.findings]


# ---------------------------------------------------------------------------
# Lock-order cycles
# ---------------------------------------------------------------------------


CYCLIC_LOCKS = {
    "locks.py": """
    from repro.analysis.lockwitness import make_lock


    class Pair:
        def __init__(self):
            self._a = make_lock("Fixture.A")
            self._b = make_lock("Fixture.B")

        def forward(self):
            with self._a:
                self._grab_b()

        def _grab_b(self):
            with self._b:
                pass

        def backward(self):
            with self._b:
                with self._a:
                    pass
    """
}

ORDERED_LOCKS = {
    "locks.py": """
    from repro.analysis.lockwitness import make_lock


    class Pair:
        def __init__(self):
            self._a = make_lock("Fixture.A")
            self._b = make_lock("Fixture.B")

        def forward(self):
            with self._a:
                self._grab_b()

        def _grab_b(self):
            with self._b:
                pass

        def also_forward(self):
            with self._a:
                with self._b:
                    pass
    """
}


#: A lock held around a call whose receiver only its declared return type
#: names (``getattr`` on a thread-local), reaching a lock through an
#: attribute bound by a keyword-only parameter.
ANNOTATED_FLOW = {
    "context.py": """
    import threading
    from typing import Optional

    from repro.analysis.lockwitness import make_lock

    _local = threading.local()


    class Injector:
        def __init__(self):
            self._lock = make_lock("Fixture.Injector")

        def fire(self):
            with self._lock:
                pass


    class Context:
        def __init__(self, *, faults=None):
            self.faults = faults

        def checkpoint(self):
            self.faults.fire()


    def current() -> "Optional[Context]":
        return getattr(_local, "context", None)


    def install():
        _local.context = Context(faults=Injector())
    """,
    "cache.py": """
    from repro.analysis.lockwitness import make_lock

    from context import current


    class Cache:
        def __init__(self):
            self._lock = make_lock("Fixture.Cache")

        def build(self):
            with self._lock:
                current().checkpoint()
    """
}


#: A module-level function calling another one in the same module: the
#: callee's acquisition is reached through the module's own binding.
SAME_MODULE_CALL = {
    "locks.py": """
    from repro.analysis.lockwitness import make_lock

    _A = make_lock("Fixture.A")
    _B = make_lock("Fixture.B")


    def forward():
        with _A:
            _grab_b()


    def _grab_b():
        with _B:
            pass
    """
}


class TestLockOrderAnalysis:
    def test_opposite_acquisition_orders_are_a_cycle(self, tmp_path):
        report = interproc_report(tmp_path, CYCLIC_LOCKS)
        assert keys(report) == ["lock-cycle:Fixture.A->Fixture.B"]
        (finding,) = report.findings
        assert finding.rule_id == "interproc-lock-order"
        # Both offending paths are named, including the transitive one.
        assert "Fixture.A -> Fixture.B" in finding.message
        assert "Fixture.B -> Fixture.A" in finding.message
        assert "via" in finding.message  # the call-mediated acquisition

    def test_consistent_order_is_clean(self, tmp_path):
        report = interproc_report(tmp_path, ORDERED_LOCKS)
        assert report.findings == []

    def test_lock_graph_artifact_records_edges(self, tmp_path):
        report = interproc_report(tmp_path, CYCLIC_LOCKS)
        graph = build_lock_graph(report.model).to_json()
        edges = {(e["source"], e["target"]) for e in graph["edges"]}
        assert ("Fixture.A", "Fixture.B") in edges
        assert ("Fixture.B", "Fixture.A") in edges
        assert "Fixture.A" in graph["locks"]

    def test_declared_return_and_keyword_only_binding_resolve(self, tmp_path):
        report = interproc_report(
            tmp_path, ANNOTATED_FLOW, select=["interproc-lock-order"]
        )
        graph = build_lock_graph(report.model).to_json()
        edges = {(e["source"], e["target"]) for e in graph["edges"]}
        assert ("Fixture.Cache", "Fixture.Injector") in edges

    def test_same_module_function_call_resolves(self, tmp_path):
        report = interproc_report(
            tmp_path, SAME_MODULE_CALL, select=["interproc-lock-order"]
        )
        (site,) = report.model.functions["locks.forward"].calls
        assert site.targets == {"locks._grab_b"}
        graph = build_lock_graph(report.model).to_json()
        edges = {(e["source"], e["target"]) for e in graph["edges"]}
        assert ("Fixture.A", "Fixture.B") in edges


# ---------------------------------------------------------------------------
# Shared-state races
# ---------------------------------------------------------------------------


RACY_SHARED = {
    "shared.py": """
    import threading

    from repro.analysis.lockwitness import make_lock


    class Counter:
        def __init__(self):
            self._lock = make_lock("Fixture.Counter")
            self.total = 0
            self._thread = threading.Thread(target=self._run)

        def _run(self):
            with self._lock:
                self.total += 1

        def peek(self):
            return self.total
    """
}

GUARDED_SHARED = {
    "shared.py": """
    import threading

    from repro.analysis.lockwitness import make_lock


    class Counter:
        def __init__(self):
            self._lock = make_lock("Fixture.Counter")
            self.total = 0
            self._thread = threading.Thread(target=self._run)

        def _run(self):
            with self._lock:
                self.total += 1

        def peek(self):
            with self._lock:
                return self.total
    """
}

UNGUARDED_LOCKED_CALL = {
    "shared.py": """
    import threading

    from repro.analysis.lockwitness import make_lock


    class Counter:
        def __init__(self):
            self._lock = make_lock("Fixture.Counter")
            self.total = 0
            self._thread = threading.Thread(target=self._run)

        def _run(self):
            with self._lock:
                self._bump_locked()

        def _bump_locked(self):
            self.total += 1

        def reset(self):
            self._bump_locked()
    """
}


class TestSharedStateRaceAnalysis:
    def test_unguarded_read_in_shared_class_is_flagged(self, tmp_path):
        report = interproc_report(tmp_path, RACY_SHARED)
        assert keys(report) == ["race:Counter.total:peek"]
        (finding,) = report.findings
        assert finding.rule_id == "interproc-race"
        assert "Fixture.Counter" in finding.message

    def test_guarded_access_is_clean(self, tmp_path):
        report = interproc_report(tmp_path, GUARDED_SHARED)
        assert report.findings == []

    def test_locked_helper_called_without_lock(self, tmp_path):
        report = interproc_report(tmp_path, UNGUARDED_LOCKED_CALL)
        assert keys(report) == ["locked-call:Counter._bump_locked:reset"]

    def test_unshared_class_is_not_flagged(self, tmp_path):
        # Same racy shape, but no thread root anywhere: a class no thread
        # reaches may read its own attributes freely.
        files = {
            "shared.py": RACY_SHARED["shared.py"].replace(
                "self._thread = threading.Thread(target=self._run)",
                "self._thread = None",
            )
        }
        report = interproc_report(tmp_path, files)
        assert report.findings == []


# ---------------------------------------------------------------------------
# Determinism (set-order into sinks)
# ---------------------------------------------------------------------------


SET_ORDERED_ROUTING = {
    "router.py": """
    def routes(shards):
        targets = set(shards)
        return list(targets)
    """
}

SORTED_ROUTING = {
    "router.py": """
    def routes(shards):
        targets = set(shards)
        return sorted(targets)


    def spread(shards):
        targets = set(shards)
        return min(targets), len(targets), max(targets)


    def contains(shards, shard):
        return shard in set(shards)
    """
}


class TestDeterminismAnalysis:
    def test_set_order_escaping_into_routing_is_flagged(self, tmp_path):
        report = interproc_report(tmp_path, SET_ORDERED_ROUTING)
        assert keys(report) == ["set-order:router.routes#1"]
        (finding,) = report.findings
        assert finding.rule_id == "interproc-determinism"

    def test_order_insensitive_uses_are_clean(self, tmp_path):
        report = interproc_report(tmp_path, SORTED_ROUTING)
        assert report.findings == []

    def test_non_sink_module_is_out_of_scope(self, tmp_path):
        files = {"helpers.py": SET_ORDERED_ROUTING["router.py"]}
        report = interproc_report(tmp_path, files)
        assert report.findings == []


# ---------------------------------------------------------------------------
# Suppressions, selection
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_inline_suppression_applies(self, tmp_path):
        files = {
            "shared.py": RACY_SHARED["shared.py"].replace(
                "return self.total",
                "return self.total  # hdqo: ignore[interproc-race]",
            )
        }
        report = interproc_report(tmp_path, files)
        assert report.findings == []
        assert report.suppressed == 1

    def test_suppression_covers_per_file_rules_too(self, tmp_path):
        leaky = {
            "repro/obs/leaky.py": """
            def trace(tracer):
                return tracer.span("leak")
            """
        }
        report = interproc_report(tmp_path, leaky)
        (finding,) = report.findings
        assert finding.rule_id == "span-balance"
        assert finding.key == 'leaky:trace:return tracer.span("leak")'
        # Moving the line keeps the identity; the comment accepts it.
        (tmp_path / "repro/obs/leaky.py").write_text(
            "\n\ndef trace(tracer):\n"
            '    return tracer.span("leak")  # hdqo: ignore[span-balance]\n'
        )
        report = run_analysis([str(tmp_path)])
        assert (report.findings, report.suppressed) == ([], 1)

    def test_suppressing_one_line_does_not_hide_its_twin(self, tmp_path):
        # Two textually identical findings in two functions: the comment
        # accepts the line it sits on and leaves the other reported.
        swallowing = {
            "repro/service/twins.py": """
            class Handler:
                def first(self, work):
                    try:
                        work()
                    except Exception:
                        pass

            def second(work):
                try:
                    work()
                except Exception:
                    pass
            """
        }
        report = interproc_report(tmp_path, swallowing)
        assert keys(report) == [
            "twins:Handler.first:except Exception:",
            "twins:second:except Exception:",
        ]
        path = tmp_path / "repro/service/twins.py"
        path.write_text(
            path.read_text().replace(
                "except Exception:",
                "except Exception:  # hdqo: ignore[error-swallowing]",
                1,
            )
        )
        report = run_analysis([str(tmp_path)])
        assert (keys(report), report.suppressed) == (
            ["twins:second:except Exception:"], 1
        )

    def test_unknown_select_raises(self, tmp_path):
        write_fixture(tmp_path, GUARDED_SHARED)
        with pytest.raises(ValueError, match="unknown rule id"):
            run_analysis([str(tmp_path)], select=["no-such-rule"])

    def test_select_restricts_analyses(self, tmp_path):
        # Only the determinism analysis runs: the race finding disappears.
        files = dict(RACY_SHARED)
        report = interproc_report(
            tmp_path, files, select=["interproc-determinism"]
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# CLI integration: JSON schema, graph artifacts
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_interproc_failure_sets_exit_code(self, tmp_path, capsys):
        write_fixture(tmp_path, RACY_SHARED)
        assert cli_main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "race:Counter.total:peek" not in out  # keys are JSON-only
        assert "Counter.total" in out

    def test_json_schema_includes_keys(self, tmp_path, capsys):
        write_fixture(tmp_path, RACY_SHARED)
        code = cli_main(
            ["lint", "--format", "json", str(tmp_path)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert set(payload) == {
            "files", "errors", "warnings", "suppressed", "ok", "findings",
        }
        assert payload["errors"] == 1
        (finding,) = payload["findings"]
        assert finding["key"] == "race:Counter.total:peek"
        assert finding["rule"] == "interproc-race"

    def test_graphs_out_writes_artifacts(self, tmp_path, capsys):
        write_fixture(tmp_path, ORDERED_LOCKS)
        out_dir = tmp_path / "artifacts"
        code = cli_main(
            [
                "lint", "--graphs-out", str(out_dir),
                str(tmp_path / "locks.py"),
            ]
        )
        assert code == 0
        call_graph = json.loads((out_dir / "call-graph.json").read_text())
        lock_graph = json.loads((out_dir / "lock-graph.json").read_text())
        assert call_graph["functions"] > 0
        edges = {(e["source"], e["target"]) for e in lock_graph["edges"]}
        assert ("Fixture.A", "Fixture.B") in edges

    def test_list_rules_includes_interproc_group(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "interproc-lock-order", "interproc-race", "interproc-determinism",
        ):
            assert f"{rule_id} (error)" in out

    def test_without_flag_interproc_rules_do_not_run(
        self, tmp_path, monkeypatch
    ):
        # There is no flag any more: the selection decides.  Rules that
        # never read the call graph (the per-file ones) pass the racy
        # fixture without the resolve step running at all.
        write_fixture(tmp_path, RACY_SHARED)
        scanned = []
        monkeypatch.setattr(
            "repro.analysis.interproc.model._Resolver.scan_function",
            lambda self, fn: scanned.append(fn.qualname),
        )
        code = cli_main(
            ["lint", "--select", "span-balance,no-wall-clock", str(tmp_path)]
        )
        assert (code, scanned) == (0, [])


# ---------------------------------------------------------------------------
# Parse-exactly-once across rule groups
# ---------------------------------------------------------------------------


class TestParseOnce:
    def test_one_lint_invocation_parses_each_file_once(
        self, tmp_path, monkeypatch, capsys
    ):
        write_fixture(tmp_path, RACY_SHARED)
        write_fixture(tmp_path, CYCLIC_LOCKS)
        parses = []
        original = FileSource.parse.__func__

        def counting_parse(cls, path, text):
            parses.append(path)
            return original(cls, path, text)

        monkeypatch.setattr(FileSource, "parse", classmethod(counting_parse))
        # No --select: per-file rules and whole-program rules both run.
        assert cli_main(["lint", str(tmp_path)]) == 1
        assert sorted(parses) == sorted(
            str(tmp_path / name) for name in ("locks.py", "shared.py")
        )


# ---------------------------------------------------------------------------
# Whole-repo gates (one self-lint per session: conftest's ``self_lint``)
# ---------------------------------------------------------------------------


class TestSelfCleanGate:
    def test_src_repro_is_clean(self, self_lint):
        assert self_lint.payload["findings"] == []

    def test_suppressions_are_justified(self):
        # Every accepted finding says why, beside the code it accepts.
        marker = re.compile(r"#\s*hdqo:\s*ignore(-file)?(\[[^\]]*\])?(.*)$")
        comments = 0
        unjustified = []
        for path in sorted(Path(REPRO_SRC).rglob("*.py")):
            with open(path, "rb") as handle:
                for token in tokenize.tokenize(handle.readline):
                    match = marker.match(token.string)
                    if token.type != tokenize.COMMENT or match is None:
                        continue
                    comments += 1
                    if not match.group(3).strip(" —-:"):
                        unjustified.append(f"{path}:{token.start[0]}")
        assert comments >= 6
        assert unjustified == []

    def test_thread_roots_cover_the_serving_stack(self, self_lint):
        roots = self_lint.call_graph["thread_roots"]
        names = {root.rsplit(".", 2)[-2] + "." + root.rsplit(".", 1)[-1]
                 for root in roots if "." in root}
        assert "ExecutorPool._worker" in names
        assert "ShardRouter._collect" in names
        assert "ShardSupervisor._run" in names


class TestWitnessSubgraph:
    def test_dynamic_edges_are_statically_predicted(
        self, monkeypatch, chain_db, chain_sql, self_lint
    ):
        """Every lock-order edge the runtime witnesses must already be in
        the static may-acquire-after graph (soundness on exercised paths).

        The check reads every edge the session's witness holds, not only
        this workload's: earlier tests may have witnessed the same edges
        first, and the witness is never reset, since that would erase
        violations the session teardown must report.
        """
        monkeypatch.setenv("HDQO_LOCKCHECK", "1")
        from repro.analysis.lockwitness import GLOBAL_WITNESS
        from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
        from repro.service.server import QueryService

        service = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=2
        )
        try:
            for _ in range(2):
                service.execute(chain_sql)
            service.snapshot()
        finally:
            service.close()
        witnessed = {
            (held, acquired)
            for held, succs in GLOBAL_WITNESS.edges().items()
            for acquired in succs
        }
        assert witnessed, "workload exercised no nested lock acquisitions"

        static_pairs = {
            (edge["source"], edge["target"])
            for edge in self_lint.lock_graph["edges"]
        }
        missing = sorted(pair for pair in witnessed if pair not in static_pairs)
        assert not missing, (
            "dynamically witnessed lock-order edges missing from the "
            f"static graph: {missing}"
        )
