"""Flight recorder + crash forensics (DESIGN.md §15).

The rest of the observability stack answers "what is the run doing?";
this module answers "why is it stuck or dead?".  Three pieces:

* :class:`FlightRecorder` -- arms crash capture in a runner process: a
  chained ``sys.excepthook`` that writes a **crash bundle** (``crash/``
  directory) on any unexpected death, and a ``faulthandler``
  registration for ``SIGUSR1`` so an external watchdog can extract a
  stack dump from a wedged process (the C-level handler fires even when
  the GIL is held).
* :func:`package_bundle` -- the one bundle writer, shared by that
  excepthook and the supervisor, which packages a hung or killed child
  from outside.  The bundle's journal tail is read from the run's own
  journal files: the run journal is the crash record.
* Fingerprinting + forensics readers -- :func:`normalize_traceback`
  collapses a Python traceback (or a faulthandler dump) to its stable
  shape so :func:`fingerprint_text` gives "the same failure" the same
  fingerprint across jobs and hosts; :func:`load_bundle` /
  :func:`render_postmortem` back ``repro postmortem``.

Bundle layout (all files best-effort except ``crash.json``)::

    crash/
      crash.json          # kind, ts, pid, trace_id, fingerprint, error
      traceback.txt       # formatted exception (crash bundles)
      stacks.txt          # stack dump of all threads
      stacks_signal.txt   # SIGUSR1-triggered dump, when one landed
      journal_tail.jsonl  # last TAIL_EVENTS events of the run journal

The bundle directory is assembled in a sibling temp dir and published
with one rename, so a half-written bundle is never observable.
"""

from __future__ import annotations

import faulthandler
import hashlib
import json
import logging
import os
import re
import shutil
import signal
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from .journal import journal_events, load_journal

__all__ = [
    "BUNDLE_DIRNAME",
    "STACKS_FILENAME",
    "TAIL_EVENTS",
    "FlightRecorder",
    "normalize_traceback",
    "error_fingerprint",
    "fingerprint_text",
    "fingerprint_key",
    "package_bundle",
    "load_bundle",
    "render_postmortem",
]

logger = logging.getLogger("repro.obs.flight")

#: Bundle directory name inside a job/run directory.
BUNDLE_DIRNAME = "crash"
#: Standing faulthandler target for SIGUSR1 dumps, next to the bundle.
STACKS_FILENAME = "stacks.txt"
#: Journal tail length: enough to see what the run was doing, small
#: enough that a bundle stays a few tens of KB.
TAIL_EVENTS = 64


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------

# Accepts both traceback frames (`File "x.py", line 3, in f`) and
# faulthandler frames (`File "x.py", line 3 in f`).
_FRAME_RE = re.compile(r'File "([^"]+)", line \d+,? in (\S+)')
_HEX_RE = re.compile(r"0x[0-9a-fA-F]+")
_DIGITS_RE = re.compile(r"\d+")


def normalize_traceback(text: str) -> str:
    """Collapse a traceback / stack dump to its stable, comparable shape.

    Normalization rules (the contract in DESIGN.md §15):

    * frames become ``<file-stem>:<function>``  -- line numbers, source
      lines and absolute paths are dropped (they move between releases
      and checkouts without the failure changing);
    * in the remaining non-frame lines (the exception line, thread
      headers), hex addresses become ``0xADDR`` and digit runs become
      ``#`` so ids, sizes and counts don't split clusters.
    """
    frames = []
    for match in _FRAME_RE.finditer(text):
        # Split on either separator: a bundle written on Windows must
        # fingerprint identically when clustered on a POSIX host.
        basename = re.split(r"[\\/]", match.group(1))[-1]
        stem = os.path.splitext(basename)[0]
        frames.append(f"{stem}:{match.group(2)}")
    tail = []
    for line in text.splitlines():
        if not line or line.startswith((" ", "\t")):
            continue
        if line.startswith("Traceback (most recent call"):
            continue
        # Digit-free placeholder first, so the digit collapse cannot
        # chew the address marker itself; restore the readable form.
        line = _HEX_RE.sub("HEXADDR", line)
        line = _DIGITS_RE.sub("#", line)
        line = line.replace("HEXADDR", "0xADDR")
        tail.append(line.strip())
    parts = []
    if frames:
        parts.append(" > ".join(frames))
    parts.extend(tail)
    return "\n".join(parts)


def fingerprint_text(text: str) -> str:
    """Cluster id for a traceback/stack-dump: hash of its normal form."""
    normalized = normalize_traceback(text or "")
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


def fingerprint_key(*parts: str) -> str:
    """Cluster id for synthetic causes (``("signal", "SIGKILL")``).

    Hashes the parts verbatim -- no traceback normalization, so numeric
    exit codes are *not* collapsed into one cluster.
    """
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()[:16]


def error_fingerprint(exc_type, exc, tb) -> Tuple[str, str]:
    """``(fingerprint, formatted traceback)`` for one exception."""
    text = "".join(traceback.format_exception(exc_type, exc, tb))
    return fingerprint_text(text), text


# ---------------------------------------------------------------------------
# the in-process recorder
# ---------------------------------------------------------------------------


class FlightRecorder:
    """Crash capture for one run directory.

    :meth:`install` arms the excepthook and the SIGUSR1 stack-dump
    handler; the excepthook publishes the run's bundle through
    :func:`package_bundle`, its tail read from ``journal_paths``.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        journal_paths: Sequence[str] = (),
    ) -> None:
        self.trace_id = trace_id
        #: The run's journal files, in order: the source of the tail.
        self.journal_paths = list(journal_paths)
        self._run_dir: Optional[str] = None
        self._stacks_fh = None
        self._signal_registered = False
        self._prev_excepthook = None

    # -- arming --------------------------------------------------------
    def install(self, run_dir: str, excepthook: bool = True) -> None:
        """Arm crash capture for this process.

        Bundles publish to ``run_dir/crash``; ``run_dir/stacks.txt``
        (kept open for the process lifetime) becomes the
        ``faulthandler`` target for SIGUSR1, so an external watchdog's
        signal yields a stack dump even from a process wedged inside C
        code holding the GIL.
        """
        self._run_dir = os.path.abspath(run_dir)
        sig = getattr(signal, "SIGUSR1", None)
        if sig is not None:
            try:
                self._stacks_fh = open(
                    os.path.join(self._run_dir, STACKS_FILENAME), "w", encoding="utf-8"
                )
                faulthandler.register(sig, file=self._stacks_fh, all_threads=True)
                self._signal_registered = True
            except (OSError, RuntimeError, ValueError):  # pragma: no cover
                logger.debug("cannot arm SIGUSR1 stack dumps", exc_info=True)
        if excepthook:
            self._prev_excepthook = sys.excepthook
            sys.excepthook = self._excepthook

    def uninstall(self) -> None:
        if self._prev_excepthook is not None:
            sys.excepthook = self._prev_excepthook
            self._prev_excepthook = None
        if self._signal_registered:
            try:
                faulthandler.unregister(signal.SIGUSR1)
            except (RuntimeError, ValueError):  # pragma: no cover
                pass
            self._signal_registered = False
        if self._stacks_fh is not None:
            try:
                self._stacks_fh.close()
            except OSError:  # pragma: no cover
                pass
            self._stacks_fh = None

    def _excepthook(self, exc_type, exc, tb) -> None:
        try:
            self.write_bundle((exc_type, exc, tb))
        except Exception:  # noqa: BLE001 - forensics must not mask the crash
            logger.debug("crash bundle write failed", exc_info=True)
        prev = self._prev_excepthook or sys.__excepthook__
        prev(exc_type, exc, tb)

    # -- flushing ------------------------------------------------------
    def write_bundle(self, exc_info) -> str:
        """Publish this process's ``crash`` bundle for ``exc_info``.

        Returns the bundle path.  The bundle carries the formatted
        traceback, whose normalized shape is the fingerprint, and a
        fresh all-thread stack dump.
        """
        if self._run_dir is None:
            raise ValueError("FlightRecorder.install() was never called")
        with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
            try:
                faulthandler.dump_traceback(file=fh, all_threads=True)
            except (OSError, RuntimeError):  # pragma: no cover
                fh.write("(stack dump unavailable)\n")
            fh.seek(0)
            stacks_text = fh.read()
        fingerprint, traceback_text = error_fingerprint(*exc_info)
        return package_bundle(
            self._run_dir,
            "crash",
            fingerprint,
            journal_paths=self.journal_paths,
            error={
                "type": exc_info[0].__name__ if exc_info[0] else "Exception",
                "message": str(exc_info[1]),
            },
            stacks_text=stacks_text,
            traceback_text=traceback_text,
            trace_id=self.trace_id,
            pid=os.getpid(),
        )


# ---------------------------------------------------------------------------
# the one bundle writer
# ---------------------------------------------------------------------------


def package_bundle(
    run_dir: str,
    kind: str,
    fingerprint: str,
    journal_paths: Sequence[str] = (),
    error: Optional[Dict] = None,
    stacks_text: Optional[str] = None,
    traceback_text: Optional[str] = None,
    trace_id: Optional[str] = None,
    note: Optional[str] = None,
    pid: Optional[int] = None,
) -> str:
    """Publish the crash bundle ``run_dir/crash``; returns its path.

    The in-process excepthook (:meth:`FlightRecorder.write_bundle`) and
    the supervisor -- after it SIGKILLs a hung child, or finds a child
    killed from outside, neither of which can run an excepthook -- both
    write through here.  ``journal_tail.jsonl`` holds the last
    :data:`TAIL_EVENTS` events of the run's ``journal_paths``
    (:func:`~repro.obs.journal.journal_events`).  ``stacks_text`` is the
    bundle's stack dump; when it is omitted the run dir's standing
    SIGUSR1 dump (``stacks.txt``) serves instead, and when it is given
    a non-empty SIGUSR1 dump is kept alongside as ``stacks_signal.txt``.
    Overwrites an existing bundle.
    """
    run_dir = os.path.abspath(run_dir)
    bundle_dir = os.path.join(run_dir, BUNDLE_DIRNAME)
    tmp = f"{bundle_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    signal_dump = _read_if_exists(os.path.join(run_dir, STACKS_FILENAME))
    if stacks_text is None:
        stacks_text, signal_dump = signal_dump, None
    for name, text in (
        (STACKS_FILENAME, stacks_text),
        ("stacks_signal.txt", signal_dump),
        ("traceback.txt", traceback_text),
    ):
        if text:
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    with open(os.path.join(tmp, "journal_tail.jsonl"), "w", encoding="utf-8") as fh:
        for event in journal_events(journal_paths)[-TAIL_EVENTS:]:
            fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
    shape = traceback_text or stacks_text
    crash = {
        "kind": kind,
        "ts_unix": time.time(),
        "pid": pid,
        "trace_id": trace_id,
        "fingerprint": fingerprint,
        "error": error,
        "normalized": normalize_traceback(shape) if shape else None,
        "note": note,
    }
    with open(os.path.join(tmp, "crash.json"), "w", encoding="utf-8") as fh:
        json.dump(crash, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _publish_dir(tmp, bundle_dir)
    return bundle_dir


def _read_if_exists(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        return None


def _publish_dir(tmp: str, final: str) -> None:
    """Publish a staged bundle dir with one rename."""
    if os.path.isdir(final):
        shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)


# ---------------------------------------------------------------------------
# postmortem rendering (``repro postmortem``)
# ---------------------------------------------------------------------------


def load_bundle(path: str) -> Dict:
    """Load a crash bundle for rendering.

    ``path`` may be a job/run directory (containing ``crash/``), the
    ``crash/`` directory itself, or a bare journal file (yielding a
    tail-only pseudo-bundle when no bundle was ever written).
    Raises ``ValueError``/``OSError`` with a readable message when
    there is nothing forensic at the path.
    """
    path = os.path.abspath(path)
    if os.path.isfile(path):
        try:
            events = load_journal(path, validate=False, skip_unknown=True)
        except ValueError as exc:
            raise ValueError(f"{path}: not a journal file ({exc})") from exc
        return {
            "source": path,
            "crash": None,
            "stacks": None,
            "stacks_signal": None,
            "traceback": None,
            "tail": events[-TAIL_EVENTS:],
        }
    if not os.path.isdir(path):
        raise ValueError(f"{path}: no such file or directory")
    bundle_dir = path
    if not os.path.isfile(os.path.join(bundle_dir, "crash.json")):
        bundle_dir = os.path.join(path, BUNDLE_DIRNAME)
        if not os.path.isfile(os.path.join(bundle_dir, "crash.json")):
            raise ValueError(
                f"{path}: no crash bundle (expected crash/crash.json; "
                f"did the job actually fail?)"
            )
    with open(os.path.join(bundle_dir, "crash.json"), "r", encoding="utf-8") as fh:
        crash = json.load(fh)
    return {
        "source": bundle_dir,
        "crash": crash,
        "stacks": _read_if_exists(os.path.join(bundle_dir, STACKS_FILENAME)),
        "stacks_signal": _read_if_exists(os.path.join(bundle_dir, "stacks_signal.txt")),
        "traceback": _read_if_exists(os.path.join(bundle_dir, "traceback.txt")),
        "tail": journal_events([os.path.join(bundle_dir, "journal_tail.jsonl")]),
    }


def _compact_event(event: Dict) -> str:
    kind = event.get("event", "?")
    detail = []
    for key in ("index", "iteration", "fault", "area_after", "rs", "reason",
                "replayed", "circuit"):
        if key in event:
            value = event[key]
            if isinstance(value, float):
                value = f"{value:.4g}"
            detail.append(f"{key}={value}")
    return f"  {kind:<12} " + "  ".join(str(d) for d in detail)


def _fmt_ts(ts: float) -> str:
    if not ts:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def render_postmortem(bundle: Dict) -> str:
    """The human crash report ``repro postmortem`` prints."""
    lines: List[str] = [f"== repro postmortem: {bundle['source']} =="]
    crash = bundle.get("crash")
    if crash:
        lines.append(
            f"kind: {crash.get('kind', '?')}    "
            f"fingerprint: {crash.get('fingerprint', '?')}"
        )
        when = _fmt_ts(float(crash.get("ts_unix") or 0.0))
        pid = crash.get("pid")
        lines.append(f"when: {when}" + (f"    pid: {pid}" if pid else ""))
        if crash.get("trace_id"):
            lines.append(f"trace_id: {crash['trace_id']}")
        if crash.get("note"):
            lines.append(f"note: {crash['note']}")
        error = crash.get("error")
        if error:
            lines.append(f"error: {error.get('type', '?')}: {error.get('message', '')}")
    else:
        lines.append("no crash bundle -- journal tail only")
    tail = bundle.get("tail") or []
    lines.append("")
    lines.append(f"-- journal tail ({len(tail)} event(s)) --")
    for event in tail:
        lines.append(_compact_event(event))
    if not tail:
        lines.append("  (empty)")
    traceback_text = bundle.get("traceback")
    if traceback_text:
        lines.append("")
        lines.append("-- traceback --")
        lines.append(traceback_text.rstrip("\n"))
    stacks = bundle.get("stacks")
    if stacks:
        lines.append("")
        lines.append("-- stack dump (all threads) --")
        lines.append(stacks.rstrip("\n"))
    stacks_signal = bundle.get("stacks_signal")
    if stacks_signal:
        lines.append("")
        lines.append("-- stack dump at watchdog signal --")
        lines.append(stacks_signal.rstrip("\n"))
    return "\n".join(lines)
