"""The worker pool the q-HD evaluator fans decomposition nodes out on."""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from repro.resilience.context import current_context, set_context

__all__ = ["SubtreePool"]


class SubtreePool:
    """A bounded worker pool for per-node q-HD folds.

    Node tasks never wait on other node tasks — the evaluator submits a
    node only once its children's results exist — so the pool cannot
    deadlock at any size, and several requests may interleave on one pool.

    The submitting query's
    :class:`~repro.resilience.context.ExecutionContext` is installed in the
    worker thread for the task's duration, so deadlines, cancellation,
    memory budgets, and fault injection behave exactly as they do inline.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("SubtreePool needs at least 1 worker")
        self.workers = workers
        self._nodes = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="qhd-node"
        )

    def submit_node(
        self,
        fn: Callable[..., object],
        *args: object,
        context: object = None,
    ) -> "Future[object]":
        """Schedule one node task; ``context`` (or the caller's current
        context) is installed in the worker for the task's duration."""
        ctx = context if context is not None else current_context()

        def task() -> object:
            set_context(ctx)  # type: ignore[arg-type]
            try:
                return fn(*args)
            finally:
                set_context(None)

        return self._nodes.submit(task)

    def close(self) -> None:
        self._nodes.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SubtreePool":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SubtreePool({self.workers} workers)"
