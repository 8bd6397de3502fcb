"""RL31x: fork/pickle-safety rules for the sharded executor.

Shard mining crosses a process boundary: arguments of
``pool.submit(...)`` and ``ProcessPoolExecutor(initargs=...)`` are
pickled into workers, and module globals diverge between the parent and
its forked children.  Two patterns break silently:

``RL310``
    an object captured by a shard submission whose class holds a
    process-local member — a ``threading.Lock``, an open file, a queue —
    either fails to pickle at submit time or (worse, under ``fork``)
    arrives as a stale duplicate.  Classes that implement their own
    pickling protocol (``__getstate__``/``__setstate__`` or
    ``__reduce__``) are trusted: that is exactly the
    ``TraceWorkerConfig``/``FaultPlan`` pattern this rule steers
    toward.
``RL311``
    a driver-side function reassigns a module global that worker-entry
    functions read.  Workers forked before the write keep the old
    value; workers on spawn never see it.  Globals that workers depend
    on must travel to the workers — through ``initargs``, or in a job
    context that each task names — and be installed worker-side, by the
    pool initializer or the worker entry (both run *inside* the worker
    and are therefore exempt).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.framework import ProjectRule, Severity, Violation, register_rule
from repro.analysis.project import WORKER_PROCESS, ProjectIndex

__all__ = ["UnpicklableCaptureRule", "PostForkGlobalMutationRule"]


@register_rule
class UnpicklableCaptureRule(ProjectRule):
    id = "RL310"
    title = "Worker submission captures an object with process-local state"
    severity = Severity.ERROR
    rationale = (
        "Arguments to pool.submit()/initargs are pickled into worker "
        "processes; a captured object whose class holds a lock, an open "
        "file, or a queue either raises at submit time or silently "
        "duplicates state under fork. Ship a plain picklable config object "
        "(cf. TraceWorkerConfig) or give the class __getstate__/__setstate__."
    )

    def check_project(self, project: ProjectIndex) -> Iterator[Violation]:
        for submission in project.boundary.submissions:
            owner = project.functions.get(submission.owner)
            if owner is None or project.modules[owner.module].is_test:
                continue
            for expr in submission.captured:
                captured_cls = project.infer_expr_class(owner, expr)
                if captured_cls is None:
                    continue
                members = project.unpicklable_members(captured_cls)
                if not members:
                    continue
                cls_name = captured_cls.rsplit(".", 1)[-1]
                yield self.project_violation(
                    submission.path,
                    expr,
                    f"worker submission in {owner.qualname}() captures a "
                    f"{cls_name}, whose member(s) "
                    f"{', '.join(members)} are process-local (lock/file/"
                    f"queue); pass a picklable config instead or define "
                    f"__getstate__/__setstate__",
                )


@register_rule
class PostForkGlobalMutationRule(ProjectRule):
    id = "RL311"
    title = "Driver-side mutation of a global that worker processes read"
    severity = Severity.ERROR
    rationale = (
        "Workers inherit module globals at fork (or re-import them under "
        "spawn); a global reassigned on the driver side afterwards diverges "
        "silently between parent and workers. Route the value through "
        "initargs or the job context a task names, and install it "
        "worker-side (pool initializer or worker entry) instead."
    )

    def check_project(self, project: ProjectIndex) -> Iterator[Violation]:
        worker_side = {
            qualname
            for qualname, tags in project.boundary.contexts.items()
            if WORKER_PROCESS in tags
        }
        for info in project.functions.values():
            if not info.global_writes:
                continue
            if project.modules[info.module].is_test:
                continue
            if info.qualname in worker_side:
                continue  # initializers/worker entries mutate their own copy
            for name, node in sorted(info.global_writes.items()):
                readers = sorted(
                    reader.qualname
                    for reader in project.functions.values()
                    if reader.qualname in worker_side
                    and reader.module == info.module
                    and name in reader.global_reads
                )
                if not readers:
                    continue
                yield self.project_violation(
                    info.path,
                    node,
                    f"global {name} is reassigned in {info.qualname}() on "
                    f"the driver side but read inside worker processes by "
                    f"{', '.join(readers)}; pass it to the workers "
                    f"(initargs or a task's job context) and install it "
                    f"worker-side instead",
                )
