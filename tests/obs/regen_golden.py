"""Regenerate the golden c17 journal after an *intentional* change.

Usage (from the repo root)::

    PYTHONPATH=src python tests/obs/regen_golden.py

Re-runs the exact fixed-seed exhaustive c17 configuration of
``test_c17_journal_matches_golden``, strips the volatile keys, and
rewrites ``golden_c17_journal.json``.  Review the diff before
committing: every changed field is a behavior change of the greedy
loop, the metrics estimators, or the journal schema.

``golden_c17_run_{a,b}.jsonl`` (behind ``tests/obs/test_compare.py``)
are stored state: journals an older build wrote, which today's build
must still read, render and resume.  They are never regenerated.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..")))

from tests.obs.test_journal import GOLDEN_PATH, _normalized, _run_c17  # noqa: E402

from repro.obs import load_journal  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        import pathlib

        path, _result = _run_c17(pathlib.Path(tmp))
        events = _normalized(load_journal(path, strict=True))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(events, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(events)} events to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
