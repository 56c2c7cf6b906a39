"""Portable per-trial deadlines.

The original per-trial timeout armed ``SIGALRM``, which only exists on
POSIX and only fires on the main thread — a pool driven from a helper
thread, or any Windows worker, silently ran unbounded.  This module
enforces the deadline portably: the trial runs on a watcher-owned thread,
the caller joins it with the budget, and an overrun is cancelled by
raising :class:`TrialTimeout` *inside* the trial thread via the CPython
``PyThreadState_SetAsyncExc`` hook.

Async exceptions land at bytecode boundaries, which the pure-Python
simulation loop crosses constantly, so cancellation is prompt in
practice.  One that lands inside a gc callback or a finaliser is reported
as unraisable and lost, so the cancel is re-armed every
``CANCEL_POLL`` seconds until the thread ends.  Where hard cancellation is impossible — a non-CPython runtime
without the hook, or a trial wedged inside a C call — the deadline still
*reports* on time and the outcome carries an explicit warning that the
abandoned thread may keep running, rather than silently blocking forever.
"""

import threading
import time
import traceback

#: Seconds granted for an async-raised TrialTimeout to land before the
#: thread is declared uncancellable.
CANCEL_GRACE = 1.0

#: Seconds between re-raises of a TrialTimeout the trial has not ended on.
CANCEL_POLL = 0.02


class TrialTimeout(BaseException):
    """Raised inside a trial when it exceeds its wall-clock budget.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so a
    broad ``except Exception`` inside trial code cannot absorb the
    async-raised cancellation and keep running past the deadline; only
    the ``target()`` wrapper in :func:`call_with_deadline` catches it.
    """


def _set_async_exc():
    """The ``PyThreadState_SetAsyncExc`` hook, or None off CPython."""
    try:
        import ctypes

        return ctypes.pythonapi.PyThreadState_SetAsyncExc
    except (ImportError, AttributeError):
        return None


def _async_raise(thread_ident):
    """Try to raise TrialTimeout inside the thread; False if unsupported."""
    hook = _set_async_exc()
    if hook is None:
        return False
    import ctypes

    affected = hook(ctypes.c_ulong(thread_ident),
                    ctypes.py_object(TrialTimeout))
    if affected > 1:  # pragma: no cover - defensive: ambiguous ident
        hook(ctypes.c_ulong(thread_ident), None)
        return False
    return affected == 1


def call_with_deadline(fn, timeout):
    """Run ``fn()`` under an optional wall-clock budget; never raises.

    Returns ``{"ok": True, "value": ...}`` or ``{"ok": False, "error":
    traceback-text}``.  A timed-out outcome may additionally carry
    ``"warning"`` when the trial thread could not be cancelled and may
    still be consuming CPU — the caller surfaces it instead of pretending
    the budget was enforced.
    """
    timeout = timeout or 0.0
    if timeout <= 0:
        try:
            return {"ok": True, "value": fn()}
        except Exception:
            return {"ok": False, "error": traceback.format_exc(limit=20)}

    box = {}

    def target():
        try:
            box["value"] = fn()
        except TrialTimeout:
            box["timeout"] = True
        except BaseException:
            box["error"] = traceback.format_exc(limit=20)

    thread = threading.Thread(target=target, name="trial-deadline",
                              daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        cancelled = _async_raise(thread.ident)
        if cancelled:
            grace_end = time.monotonic() + CANCEL_GRACE
            thread.join(CANCEL_POLL)
            while (not box and thread.is_alive()
                   and time.monotonic() < grace_end):
                _async_raise(thread.ident)
                thread.join(CANCEL_POLL)
            thread.join(max(0.0, grace_end - time.monotonic()))
        if "value" in box:
            # The trial finished in the races between join, cancel, and
            # grace; the result is real, return it.
            return {"ok": True, "value": box["value"]}
        outcome = {"ok": False,
                   "error": "trial timed out after %gs" % timeout}
        if thread.is_alive():
            outcome["warning"] = (
                "trial exceeded its %gs deadline and hard cancellation is "
                "unavailable on this platform; the abandoned trial thread "
                "may still be running" % timeout)
        return outcome
    if "value" in box:
        return {"ok": True, "value": box["value"]}
    if box.get("timeout"):  # pragma: no cover - cancel/finish race
        return {"ok": False, "error": "trial timed out after %gs" % timeout}
    return {"ok": False, "error": box.get("error", "trial thread died")}
