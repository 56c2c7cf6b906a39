"""Live campaign progress: counts, ETA, and a console renderer.

The engine emits a :class:`Progress` snapshot to its callback after every
trial settles (executed, served from cache, or failed for good).  Any
callable accepting one snapshot works; :func:`console_progress` builds the
one the CLI uses.
"""

import sys


class Progress:
    """An immutable snapshot of a running campaign.

    ``note`` carries an out-of-band warning the user must see even on a
    single-status-line display — e.g. the worker pool died and the engine
    is degrading to in-process execution.
    """

    __slots__ = ("total", "done", "executed", "cached", "failed", "elapsed",
                 "note", "quarantined", "work")

    def __init__(self, total, done, executed, cached, failed, elapsed,
                 note=None, quarantined=0, work=None):
        self.total = total
        self.done = done
        self.executed = executed
        self.cached = cached
        self.failed = failed
        self.elapsed = elapsed
        self.note = note
        self.quarantined = quarantined
        #: Terminal settlements that actually consumed wall-clock this
        #: run — executed rows plus failures and quarantines, *excluding*
        #: cache hits and states absorbed from a resumed journal.  This
        #: mirrors the journal's terminal records for the session and is
        #: the honest ETA denominator: a quarantined poison trial burned
        #: real time, a journal-absorbed one settled for free.
        self.work = work

    @property
    def remaining(self):
        return self.total - self.done

    @property
    def eta(self):
        """Estimated seconds left, or None before any wall-clock work.

        The mean is taken over *wall-clock-consuming* settlements
        (:attr:`work`): cache hits are ~free and must not deflate the
        per-trial estimate, while failed and quarantined trials burned
        real time and must not inflate it — dividing by successful
        executions alone misreports as soon as a poison trial starts
        eating attempts.  Falls back to :attr:`executed` for callers
        constructing snapshots without the ``work`` count.
        """
        denominator = self.work if self.work is not None else self.executed
        if denominator == 0 or self.remaining == 0:
            return 0.0 if self.remaining == 0 else None
        return self.elapsed / denominator * self.remaining

    def __repr__(self):
        return (
            "Progress(done=%d/%d, executed=%d, cached=%d, failed=%d, "
            "quarantined=%d)"
            % (self.done, self.total, self.executed, self.cached, self.failed,
               self.quarantined)
        )


def format_progress(progress):
    """One status line: ``trials 12/48  run 8  cached 4  failed 0  eta 31s``.

    A ``quarantined`` count appears only when nonzero — healthy campaigns
    keep the familiar short line.
    """
    eta = progress.eta
    eta_text = "--" if eta is None else "%ds" % round(eta)
    quarantine = ""
    if getattr(progress, "quarantined", 0):
        quarantine = "  quarantined %d" % progress.quarantined
    return "trials %d/%d  run %d  cached %d  failed %d%s  eta %s" % (
        progress.done, progress.total, progress.executed,
        progress.cached, progress.failed, quarantine, eta_text,
    )


def console_progress(stream=None):
    """A callback writing campaign progress to ``stream`` (default stderr).

    Every :attr:`Progress.note` is written on its own ``warning: ...``
    line, whatever the stream.  Only a terminal (``stream.isatty()``) also
    gets the counts as a carriage-return status line, ended with a
    newline once the campaign completes; a file or pipe keeps the
    warnings without a run of overwritten status lines.
    """
    stream = stream if stream is not None else sys.stderr
    tty = stream.isatty()

    def callback(progress):
        if progress.note:
            # On a terminal the newline ends the status line in progress,
            # so the next overwrite cannot erase the warning.
            stream.write("%swarning: %s\n"
                         % ("\n" if tty else "", progress.note))
        if tty:
            end = "\n" if progress.done == progress.total else "\r"
            stream.write(format_progress(progress) + end)
        stream.flush()

    return callback
