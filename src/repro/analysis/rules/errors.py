"""Error swallowing: broad handlers must not eat cooperative aborts.

The resilience layer (PR 3) cancels and deadlines queries by *raising*
:class:`~repro.errors.QueryCancelled` / :class:`~repro.errors.DeadlineExceeded`
out of checkpoint calls.  Any ``except Exception:`` on the query path that
does not re-raise turns those aborts into silent no-ops: the drain hangs,
the deadline fires and nothing stops.  This rule flags broad handlers
(``except Exception``, ``except BaseException``, bare ``except``) whose
body contains no ``raise`` — unless an earlier, narrower handler on the
same ``try`` already catches the abort errors and re-raises them, which is
the sanctioned "narrow first, then broad" layout::

    try:
        ...
    except (QueryCancelled, DeadlineExceeded):
        raise
    except Exception as exc:      # ok: aborts already propagated above
        log(exc)
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.base import (
    FileRule,
    FileSource,
    Finding,
    exception_names,
    iter_scope_nodes,
)

_BROAD = frozenset({"Exception", "BaseException"})
_ABORT_ERRORS = frozenset({"QueryCancelled", "DeadlineExceeded"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    return any(name in _BROAD for name in exception_names(handler.type))


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    for node in iter_scope_nodes(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


class ErrorSwallowingRule(FileRule):
    """Broad exception handlers must let cooperative aborts propagate."""

    rule_id = "error-swallowing"
    description = (
        "`except Exception` (or broader) without a re-raise swallows"
        " QueryCancelled/DeadlineExceeded; narrow the handler or re-raise"
        " aborts in an earlier clause"
    )
    scopes = ("repro/",)

    def check_file(self, source: FileSource) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Try):
                continue
            aborts_handled = False
            for handler in node.handlers:
                names = exception_names(handler.type)
                if any(name in _ABORT_ERRORS for name in names):
                    aborts_handled = True
                if not _is_broad(handler):
                    continue
                if _handler_reraises(handler) or aborts_handled:
                    continue
                findings.append(
                    self.finding(
                        source,
                        handler,
                        "broad exception handler swallows cooperative aborts "
                        "(QueryCancelled/DeadlineExceeded); narrow it, "
                        "re-raise, or handle the abort errors in an earlier "
                        "except clause",
                    )
                )
        return findings
