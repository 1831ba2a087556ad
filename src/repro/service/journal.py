"""Write-ahead lifecycle journal for the sweep coordinator.

``results.jsonl`` records *outcomes*; it says nothing about jobs that were
handed to a worker and never came back.  The journal fills that gap: the
coordinator appends one fsync'd whole-line JSON event per queue-lifecycle
transition, so after a ``kill -9`` the exact scheduling state can be
rebuilt from disk.  Events, in the order a healthy job produces them::

    {"event": "enqueued",        "job_id": ...}
    {"event": "leased",          "job_id": ..., "worker": ..., "attempt": n}
    {"event": "result-accepted", "job_id": ..., "status": "ok"|"error"}

and on the unhappy paths::

    {"event": "requeued", "job_id": ..., "reason": ..., "worker": ...}
    {"event": "lost",     "job_id": ..., "reason": ..., "attempts": n}

``art9 serve --resume RUN_DIR`` replays the journal together with
``results.jsonl``:

* the **pending set** is every expanded job without an ``ok`` record —
  exactly the orchestrator's normal resume rule, so a journal-less run
  directory still resumes;
* **formerly-leased jobs** (a ``leased`` with no later ``result-accepted``
  / ``requeued`` / ``lost``) were in a dead worker's hands when the
  coordinator died; recovery writes an explicit
  ``requeued (coordinator restart)`` event for each, so the journal reads
  as a complete history across the crash;
* **dispatch counts** (number of ``leased`` events per job) survive the
  restart, so the ``max_requeues`` poison-job budget cannot be reset by
  crashing the coordinator.

Torn tails are expected — the coordinator may die mid-append — so
:func:`replay_journal` skips unparseable trailing garbage exactly like
:meth:`repro.runner.store.RunStore.records`, and :meth:`RunJournal.append`
seals a torn final line before writing so one interrupted write can never
eat the next event.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

logger = logging.getLogger(__name__)

#: Journal file name inside a run directory (next to ``results.jsonl``).
JOURNAL_FILENAME = "journal.jsonl"


def journal_path(run_dir: str) -> str:
    """Location of the coordinator journal for one run directory."""
    return os.path.join(run_dir, JOURNAL_FILENAME)


class RunJournal:
    """Append-only, fsync'd JSONL journal of coordinator lifecycle events.

    The file handle stays open across appends (the coordinator journals
    every dispatch); each event is flushed and fsync'd before ``append``
    returns, so an event the coordinator acted on is on disk before the
    action's consequences can be observed elsewhere.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = None
        self.events_written = 0

    def _open(self):
        if self._handle is not None:
            return self._handle
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Seal a torn final line (a previous coordinator died mid-append)
        # so the next event starts on its own line and replay drops only
        # the torn fragment — the same discipline RunStore.append uses.
        needs_newline = False
        if os.path.exists(self.path):
            with open(self.path, "rb") as existing:
                existing.seek(0, os.SEEK_END)
                if existing.tell() > 0:
                    existing.seek(-1, os.SEEK_END)
                    needs_newline = existing.read(1) != b"\n"
        self._handle = open(self.path, "a", encoding="utf-8")
        if needs_newline:
            self._handle.write("\n")
        return self._handle

    def append(self, event: str, **fields) -> None:
        """Durably append one lifecycle event (whole line, fsync'd)."""
        self._write([{"event": event, **fields}])

    def append_many(self, events: Iterable[dict]) -> None:
        """Append a batch of events under a single fsync.

        Used for the enqueue burst at serve start — one fsync per job
        would serialize startup on disk latency for large grids, and the
        batch is all-or-nothing from the scheduler's point of view anyway.
        """
        self._write(events)

    def _write(self, events: Iterable[dict]) -> None:
        # The one write-and-fsync path behind both public appends, so a
        # wrapper around either one sees each fsync exactly once.
        handle = self._open()
        count = 0
        for payload in events:
            handle.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")))
            handle.write("\n")
            count += 1
        if not count:
            return
        handle.flush()
        os.fsync(handle.fileno())
        self.events_written += count

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_journal(path: str) -> List[dict]:
    """All parseable events of a journal file, in append order.

    A truncated trailing line (the coordinator died mid-append) is skipped
    with a warning rather than raised — recovery must work precisely when
    the previous run ended badly.
    """
    if not os.path.exists(path):
        return []
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                logger.warning(
                    "skipping torn journal event on line %d of %s "
                    "(partial write from a killed coordinator)", lineno, path)
                continue
            if not isinstance(event, dict) or not event.get("event"):
                logger.warning("skipping non-event JSON on line %d of %s",
                               lineno, path)
                continue
            events.append(event)
    return events


@dataclass
class JournalRecovery:
    """Scheduling state rebuilt from a journal replay."""

    #: ``leased`` events per job — restores the poison-job budget.
    dispatch_counts: Dict[str, int] = field(default_factory=dict)
    #: Jobs a worker was holding when the coordinator died (job_id ->
    #: worker name), minus anything ``results.jsonl`` shows completed.
    leased: Dict[str, str] = field(default_factory=dict)
    #: Events the replay parsed (for logs and tests).
    events_replayed: int = 0

    def summary(self) -> str:
        return (f"journal: {self.events_replayed} events replayed, "
                f"{len(self.leased)} leased jobs requeued, "
                f"{len(self.dispatch_counts)} jobs with dispatch history")


def recover_from_events(events: Iterable[dict],
                        completed_ids: Optional[Set[str]] = None
                        ) -> JournalRecovery:
    """Fold a journal replay into restart state.

    ``completed_ids`` — job IDs with an ``ok`` record in ``results.jsonl``
    — always wins over the journal: a job whose record was persisted but
    whose ``result-accepted`` event was lost to a torn tail must not be
    treated as leased.
    """
    recovery = JournalRecovery()
    completed = completed_ids or set()
    for event in events:
        recovery.events_replayed += 1
        kind = event.get("event")
        job_id = event.get("job_id")
        if not isinstance(job_id, str):
            continue
        if kind == "leased":
            recovery.dispatch_counts[job_id] = \
                recovery.dispatch_counts.get(job_id, 0) + 1
            recovery.leased[job_id] = str(event.get("worker") or "?")
        elif kind in ("result-accepted", "requeued", "lost"):
            recovery.leased.pop(job_id, None)
    for job_id in completed:
        recovery.leased.pop(job_id, None)
    return recovery


def recover_run(run_dir: str,
                completed_ids: Optional[Set[str]] = None) -> JournalRecovery:
    """Replay ``run_dir``'s journal and return the restart state.

    Pure read — writing the explicit ``requeued (coordinator restart)``
    events for the recovered leases is the caller's job (it owns the live
    :class:`RunJournal` handle).
    """
    return recover_from_events(replay_journal(journal_path(run_dir)),
                               completed_ids=completed_ids)
