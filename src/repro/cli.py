"""Command-line interface.

``python -m repro <command>`` exposes the main flows on gate-level
netlists (ISCAS85 ``.bench`` or structural Verilog ``.v``, selected by
file extension) and on the built-in benchmark suite:

* ``stats``      -- netlist statistics and datapath/control profile
* ``simplify``   -- RS-budgeted simplification of a netlist
* ``report``     -- where a journaled run's time went (total and self
  time per span path, wall-clock attribution with an exit-3 gate), its
  iterations and hotspot counters; text or JSON
* ``compare``    -- iteration-by-iteration diff of two run journals
* ``audit``      -- estimator-calibration / RS-budget audit of a run
  journal: predicted vs. realized deltas per committed fault, Wilson
  ER confidence intervals, budget-risk flags (exit 3 when any fire),
  and ``--exact`` BDD cross-check of the final ER on small circuits
* ``redundancy`` -- classical redundancy removal only
* ``table2``     -- one Table II row on a built-in ISCAS85-like circuit
* ``dct-study``  -- the Section II JPEG/DCT application study
* ``er-tests``   -- error-rate test generation (ERTG flow)
* ``yield``      -- effective-yield analysis on a defect population
* ``serve``      -- run the simplification job server (versioned HTTP
  API, bounded queue, crash-resumable worker pool, result cache)
* ``submit``     -- submit a netlist to a running job server; with
  ``--wait`` polls to completion and renders the report
* ``jobs``       -- list/inspect/cancel jobs on a running server
* ``postmortem`` -- what a failed job left, read in place: its journal
  tail, ``error.json`` and ``runner.log`` (tracebacks, the hang
  watchdog's stack dump, the supervisor's verdicts); or a bare run
  journal's tail

All human-facing output goes through the ``repro`` logging tree
(INFO -> stdout, WARNING+ -> stderr), configured by the global
``--verbose`` / ``--quiet`` flags; library code never prints directly,
and Python warnings are captured into the same tree so ``--quiet``
genuinely silences everything below WARNING.  ``simplify`` and
``table2`` accept ``--journal PATH`` to stream a structured JSONL run
journal, which ``report`` renders later, also while the run is still
writing it; a live ``simplify`` progress line appears on stderr when it
is a terminal and ``--quiet`` is not set.

Output netlists are written in the format implied by the output path's
extension.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path
from typing import Any, Callable, List, Optional

from .circuit import CircuitError, dump_bench, dump_verilog, load_bench, load_verilog
from .core.errors import CompileError
from .faults import datapath_faults, enumerate_faults
from .metrics import rs_max
from .obs import (
    JournalError,
    ProgressReporter,
    compare_files,
    load_journal,
    render_compare,
    render_report,
    report_as_dict,
)
from .simplify import remove_redundancies

__all__ = ["main"]

logger = logging.getLogger("repro.cli")


class _PipeSafeHandler(logging.StreamHandler):
    """StreamHandler that stays quiet when the consumer hangs up.

    ``repro ... | head`` closes stdout mid-stream; the stock handler
    would print one BrokenPipeError traceback per remaining record.
    """

    def handleError(self, record: logging.LogRecord) -> None:
        exc = sys.exc_info()[0]
        if exc is not None and issubclass(exc, BrokenPipeError):
            return
        super().handleError(record)


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """Route the ``repro`` logging tree: INFO/DEBUG to stdout (the
    command's payload), WARNING and above to stderr.  Reconfigured on
    every ``main()`` call so repeated in-process invocations (tests)
    pick up the current stream objects."""
    root = logging.getLogger("repro")
    root.handlers.clear()
    root.setLevel(logging.DEBUG if verbose else logging.INFO)
    root.propagate = False

    out = _PipeSafeHandler(sys.stdout)
    out.setFormatter(logging.Formatter("%(message)s"))
    out.addFilter(lambda record: record.levelno < logging.WARNING)
    if quiet:
        out.setLevel(logging.CRITICAL)  # payload suppressed, errors kept
    root.addHandler(out)

    err = _PipeSafeHandler(sys.stderr)
    err.setLevel(logging.WARNING)
    err.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    root.addHandler(err)

    # Python warnings must obey the same config instead of writing to
    # stderr behind the logging tree's back -- the ``--quiet`` contract
    # is "WARNING+ on stderr, nothing else, all of it through logging".
    logging.captureWarnings(True)
    pywarn = logging.getLogger("py.warnings")
    pywarn.handlers.clear()
    pywarn.propagate = False
    pywarn.addHandler(err)


def _add_greedy_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rs-pct", type=float, default=None,
                   help="RS threshold as percent of the circuit's maximum RS")
    p.add_argument("--vectors", type=int, default=10_000,
                   help="simulation vectors for ER estimation (default 10000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fom", choices=["area_per_rs", "area", "best"],
                   default="area_per_rs",
                   help="figure of merit; 'best' runs both and keeps the "
                        "better result (the paper's methodology)")
    p.add_argument("--candidate-limit", type=int, default=200)
    p.add_argument("--exhaustive", action="store_true",
                   help="simulate all 2**n input vectors instead of a "
                        "random sample (small circuits; makes every ER "
                        "exact and every confidence interval zero-width)")
    p.add_argument("--no-prepass", action="store_true",
                   help="skip the redundancy-removal prepass")
    p.add_argument("--pow2-es", action="store_true",
                   help="paper-conservative power-of-two ES in commit checks")


def _add_rs_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rs", type=float, default=None,
                   help="absolute RS threshold")


def _add_weights_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weights", choices=["unit", "binary"], default="binary",
                   help="output weights when the netlist has none "
                        "(binary: bit i of the output list weighs 2**i)")


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool], rule: str):
    """An argparse type that parses the text with ``parse`` and makes a
    value ``ok`` refuses a usage error: "must be <rule>"."""

    def convert(text: str) -> Any:
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {parse.__name__} value: {text!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return convert


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "at least 0")
_positive_float = _checked(
    float, lambda v: math.isfinite(v) and v > 0, "a finite number above 0"
)
_non_negative_float = _checked(
    float, lambda v: math.isfinite(v) and v >= 0, "a finite number at least 0"
)
_er_threshold = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")
_image_size = _checked(int, lambda v: v > 0 and v % 8 == 0, "a positive multiple of 8")


def _add_obs_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="stream a structured JSONL run journal here "
                        "(render it later with `repro report PATH`); it "
                        "is also the run's checkpoint: rerunning with "
                        "the same path resumes a killed run "
                        "bit-identically")


def _load_weighted(path: str, weights: str):
    """Load a netlist (.bench or .v, by extension) and weight outputs.

    A file that cannot be read or does not parse raises
    :class:`~repro.core.errors.CompileError`, which :func:`main` reports
    as ``compile_error: ...`` with exit code 2.
    """
    try:
        if str(path).endswith((".v", ".sv")):
            circuit = load_verilog(path)
        else:
            circuit = load_bench(path)
    except OSError as exc:
        raise CompileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CompileError(f"cannot read {path}: {exc}") from exc
    except CircuitError as exc:  # BenchParseError, VerilogParseError
        raise CompileError(f"netlist does not parse: {exc}") from exc
    if weights == "binary":
        for i, o in enumerate(circuit.outputs):
            circuit.output_weights[o] = 1 << i
    return circuit


def _dump(circuit, path: str) -> None:
    """Write a netlist in the format implied by the extension."""
    if str(path).endswith((".v", ".sv")):
        dump_verilog(circuit, path)
    else:
        dump_bench(circuit, path)


def cmd_stats(args: argparse.Namespace) -> int:
    circuit = _load_weighted(args.netlist, args.weights)
    s = circuit.stats()
    for k, v in s.items():
        logger.info(f"{k:>14}: {v}")
    nf = len(enumerate_faults(circuit))
    nd = len(datapath_faults(circuit))
    logger.info(f"{'fault sites':>14}: {nf}")
    logger.info(f"{'datapath %':>14}: {100 * nd / nf:.2f}")
    logger.info(f"{'RS_max':>14}: {rs_max(circuit)}")
    return 0


def cmd_simplify(args: argparse.Namespace) -> int:
    from .core import ReproError, SimplifyRequest

    if (args.rs is None) == (args.rs_pct is None):
        logger.error("give exactly one of --rs / --rs-pct")
        return 2
    # The request owns output weighting; load the netlist untouched.
    circuit = _load_weighted(args.netlist, "unit")
    try:
        request = SimplifyRequest.from_cli_args(args)
    except ValueError as exc:
        logger.error(str(exc))
        return 2
    # The live stderr line is human-facing output: it exists only on a
    # real terminal and never under --quiet.  Machine-readable progress
    # is the journal.
    progress = None
    if sys.stderr.isatty() and not args.quiet:
        progress = ProgressReporter(stream=sys.stderr)
    try:
        outcome = request.run(circuit, progress=progress)
    except ReproError as exc:
        # Taxonomy errors (checkpoint mismatch, invalid request, ...)
        # carry a stable machine code; surface it alongside the text.
        logger.error(f"{exc.code}: {exc}")
        return 2
    finally:
        if progress is not None:
            progress.close()
    logger.info(outcome.report())
    logger.info(f"\nelapsed: {outcome.elapsed_s:.1f}s")
    if args.journal:
        logger.info(f"run journal written to {args.journal}")
    if args.output:
        outcome.save(args.output)
        logger.info(f"approximate netlist written to {args.output}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        events = load_journal(args.journal, skip_unknown=True)
        if not events:
            raise JournalError(f"{args.journal}: empty journal")
    except FileNotFoundError:
        logger.error(f"no such journal: {args.journal}")
        return 2
    except JournalError as exc:
        logger.error(str(exc))
        return 2
    report = report_as_dict(events, top_k=args.top)
    if args.format == "json":
        logger.info(json.dumps(report, indent=2, sort_keys=True))
    else:
        logger.info(render_report(events, top_k=args.top))
    if args.fail_on_unattributed and report["attribution"]["flagged"]:
        return 3
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        cmp = compare_files(args.journal_a, args.journal_b)
    except FileNotFoundError as exc:
        logger.error(f"no such journal: {exc.filename}")
        return 2
    except JournalError as exc:
        logger.error(str(exc))
        return 2
    if args.format == "json":
        logger.info(json.dumps(cmp, indent=2, sort_keys=True))
    else:
        logger.info(render_compare(cmp, top_k=args.top))
    if args.fail_on_divergence and not cmp["identical_trajectory"]:
        return 3
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from .obs import audit_file, exact_er_check, render_audit

    try:
        audit = audit_file(args.journal)
    except FileNotFoundError:
        logger.error(f"no such journal: {args.journal}")
        return 2
    except JournalError as exc:
        logger.error(str(exc))
        return 2

    if args.exact:
        from .bdd import BddLimitExceeded
        from .parallel import CheckpointError

        if not args.netlist:
            logger.error("--exact needs --netlist to replay the journal against")
            return 2
        circuit = _load_weighted(args.netlist, args.weights)
        try:
            audit["exact"] = exact_er_check(
                circuit, args.journal, audit, node_limit=args.node_limit
            )
        except (CheckpointError, BddLimitExceeded) as exc:
            logger.error(str(exc))
            return 2

    if args.format == "json":
        logger.info(json.dumps(audit, indent=2, sort_keys=True))
    else:
        logger.info(render_audit(audit))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(audit, fh, indent=2, sort_keys=True)
            fh.write("\n")
        logger.info(f"audit written to {args.output}")
    if audit["budget_risk_count"] > 0:
        return 3
    if args.exact and not audit["exact"]["agrees"]:
        return 3
    return 0


def cmd_redundancy(args: argparse.Namespace) -> int:
    circuit = _load_weighted(args.netlist, args.weights)
    res = remove_redundancies(circuit)
    logger.info(f"removed {len(res.removed_faults)} redundant fault(s); "
                f"area {circuit.area()} -> {res.simplified.area()} "
                f"({res.area_reduction_pct:.2f}%)")
    for f in res.removed_faults:
        logger.info(f"  {f}")
    if args.output:
        _dump(res.simplified, args.output)
        logger.info(f"netlist written to {args.output}")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    from .benchlib import ISCAS85_SUITE
    from .core import ReproError, SimplifyRequest

    profile = ISCAS85_SUITE[args.circuit]
    circuit = profile.builder()
    logger.info(f"{args.circuit}-like: area {circuit.area()} (paper {profile.paper_area})")
    sweep = [args.rs_pct] if args.rs_pct is not None else list(profile.rs_pct_sweep)
    for pct in sweep:
        t0 = time.time()
        # one journal path serves one run: suffix additional sweep points
        journal = args.journal
        if journal and len(sweep) > 1:
            journal = f"{journal}.{pct:g}"
        try:
            # The sweep point is the budget, and the built-in circuits
            # carry their own output weights.
            request = SimplifyRequest.from_cli_args(
                args, rs_pct_threshold=pct, weights="netlist", journal=journal,
            )
            outcome = request.run(circuit)
        except ReproError as exc:
            logger.error(f"{exc.code}: {exc}")
            return 2
        idx = (
            profile.rs_pct_sweep.index(pct)
            if pct in profile.rs_pct_sweep
            else None
        )
        paper = (
            f"{profile.paper_area_reduction_pct[idx]:.2f}%" if idx is not None else "n/a"
        )
        logger.info(f"  %RS={pct:g}: ours {outcome.area_reduction_pct:.2f}%  paper {paper}  "
                    f"({len(outcome.faults)} faults, {time.time() - t0:.1f}s)")
    return 0


def cmd_dct_study(args: argparse.Namespace) -> int:
    from .dct import (
        ACCEPTABLE_PSNR,
        figure2_configurations,
        psnr_vs_rs_curve,
        render_grid,
        test_image,
    )

    image = test_image(args.size)
    logger.info("=== Figure 2 ===")
    for grid, p in figure2_configurations(image):
        logger.info(f"{p.label}: PSNR={p.psnr_db:.2f} dB RS(Sum)={p.rs_sum:.3g} "
                    f"{'acceptable' if p.acceptable else 'NOT acceptable'}")
        logger.info(render_grid(grid))
    logger.info("\n=== Figure 3 ===")
    for p in psnr_vs_rs_curve(image, num_points=11):
        logger.info(f"  RS(Sum)={p.rs_sum:12.4g}  PSNR={p.psnr_db:6.2f} dB")
    return 0


def cmd_er_tests(args: argparse.Namespace) -> int:
    from .atpg import generate_er_tests

    circuit = _load_weighted(args.netlist, args.weights)
    ts = generate_er_tests(
        circuit,
        er_threshold=args.er,
        num_candidates=args.candidates,
        seed=args.seed,
    )
    logger.info(f"targets (ER > {args.er:g}): {len(ts.targets)} faults, "
                f"{ts.skipped_faults} tolerable faults skipped")
    logger.info(f"test set: {ts.num_tests} vectors, coverage {100 * ts.coverage:.1f}%")
    if args.output:
        with open(args.output, "w") as fh:
            for row in ts.vectors:
                fh.write("".join("1" if b else "0" for b in row) + "\n")
        logger.info(f"vectors written to {args.output} (one per line, input order)")
    return 0


def cmd_yield(args: argparse.Namespace) -> int:
    import numpy as np

    from .yieldsim import classify_population, sample_population

    circuit = _load_weighted(args.netlist, args.weights)
    chips = sample_population(
        circuit,
        args.chips,
        defect_density=args.density,
        rng=np.random.default_rng(args.seed),
    )
    threshold = (
        args.rs
        if args.rs is not None
        else (args.rs_pct or 0.0) / 100.0 * rs_max(circuit)
    )
    report = classify_population(
        circuit, chips, threshold, num_vectors=args.vectors, seed=args.seed
    )
    logger.info(report)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    serve(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_attempts=args.max_retries,
        hang_timeout_s=args.hang_timeout,
    )
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .core import ReproError, SimplifyOutcome, SimplifyRequest
    from .service import ServiceClient

    if (args.rs is None) == (args.rs_pct is None):
        logger.error("give exactly one of --rs / --rs-pct")
        return 2
    try:
        with open(args.netlist, "r", encoding="utf-8") as fh:
            bench_text = fh.read()
    except OSError as exc:
        logger.error(f"cannot read {args.netlist}: {exc}")
        return 2
    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        request = SimplifyRequest.from_cli_args(args)
        snap = client.submit(
            request,
            netlist=bench_text,
            name=Path(args.netlist).stem,
        )
        logger.info(f"{snap['job_id']}: {snap['state']}"
                    + (" (served from cache)" if snap.get("cached") else "")
                    + (" (coalesced onto an identical job)"
                       if snap.get("deduplicated") else ""))
        if not args.wait:
            logger.info(f"poll with: repro jobs {snap['job_id']} --url {args.url}")
            return 0
        final = client.wait(
            snap["job_id"], timeout=args.timeout, poll_interval=args.poll_interval
        )
        if final["state"] != "done":
            err = final.get("error") or {}
            logger.error(f"{snap['job_id']} {final['state']}: "
                         f"{err.get('code', '?')}: {err.get('message', '')}")
            return 3
        outcome = SimplifyOutcome.from_json(client.result_json(snap["job_id"]))
    except ReproError as exc:
        logger.error(f"{exc.code}: {exc}")
        return 2
    logger.info(outcome.report())
    if args.output:
        outcome.save(args.output)
        logger.info(f"approximate netlist written to {args.output}")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    from .core import ReproError, SimplifyOutcome
    from .service import ServiceClient

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.job_id is None:
            jobs = client.jobs()
            if args.format == "json":
                logger.info(json.dumps(jobs, indent=2, sort_keys=True))
                return 0
            if not jobs:
                logger.info("no jobs")
            for j in jobs:
                flags = "".join(
                    tag for tag, on in (
                        (" cached", j.get("cached")),
                        (" dedup", j.get("deduplicated")),
                    ) if on
                )
                logger.info(f"{j['job_id']}  {j['state']:<9} {j['circuit']}"
                            f"  attempts={j['attempts']}{flags}")
            return 0
        if args.cancel:
            snap = client.cancel(args.job_id)
            logger.info(f"{snap['job_id']}: {snap['state']}"
                        f" (cancel_requested={snap['cancel_requested']})")
            return 0
        if args.result:
            text = client.result_json(args.job_id)
            if args.format == "json":
                logger.info(text.rstrip("\n"))
            else:
                logger.info(SimplifyOutcome.from_json(text).report())
            return 0
        snap = client.status(args.job_id)
        if args.format == "json":
            logger.info(json.dumps(snap, indent=2, sort_keys=True))
        else:
            logger.info(f"{snap['job_id']}: {snap['state']} "
                        f"({snap['circuit']}, attempts={snap['attempts']})")
            progress = snap.get("progress")
            if progress:
                logger.info(
                    f"  iteration {progress.get('iteration')}  "
                    f"area {progress.get('area_start')}->{progress.get('area')}  "
                    f"RS {progress.get('rs'):.4g}/"
                    f"{(progress.get('rs_threshold') or 0):.4g}"
                )
            err = snap.get("error")
            if err:
                logger.info(f"  error: {err.get('code')}: {err.get('message')}")
    except ReproError as exc:
        logger.error(f"{exc.code}: {exc}")
        return 2
    return 0


def cmd_postmortem(args: argparse.Namespace) -> int:
    from .obs.postmortem import load_postmortem, render_postmortem

    try:
        record = load_postmortem(args.path)
    except (OSError, ValueError) as exc:
        logger.error(f"cannot read a postmortem: {exc}")
        return 2
    report = render_postmortem(record)
    logger.info(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report)
                fh.write("\n")
        except OSError as exc:
            logger.error(f"cannot write {args.output}: {exc}")
            return 2
        logger.info(f"postmortem written to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ATPG-driven circuit simplification for error tolerant "
                    "applications (Shin & Gupta, DATE 2011 reproduction)",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the stdout payload; warnings/errors only")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="netlist statistics")
    p.add_argument("netlist")
    p.add_argument("--weights", choices=["unit", "binary"], default="binary")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("simplify", help="RS-budgeted simplification")
    p.add_argument("netlist")
    p.add_argument("-o", "--output", default=None, help="write .bench here")
    _add_greedy_options(p)
    _add_rs_option(p)
    _add_weights_option(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("report",
                       help="where a journaled run's time went, its "
                            "iterations and hotspot counters")
    p.add_argument("journal", help="journal JSONL path from --journal")
    p.add_argument("--top", type=_positive_int, default=12,
                   help="counters to show in the hotspot table (default 12)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="render as human text (default) or machine JSON")
    p.add_argument("--fail-on-unattributed", action="store_true",
                   help="exit 3 when top-level spans explain less than "
                        "90%% of the run's wall time, or when that is "
                        "unknown (a journal without its summary)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare",
                       help="diff two run journals iteration-by-iteration")
    p.add_argument("journal_a", help="baseline run journal (A)")
    p.add_argument("journal_b", help="candidate run journal (B)")
    p.add_argument("--top", type=_positive_int, default=12,
                   help="rows in the phase-time/counter delta tables")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--fail-on-divergence", action="store_true",
                   help="exit 3 when the trajectories are not identical")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("audit",
                       help="estimator-calibration / RS-budget audit of a "
                            "run journal")
    p.add_argument("journal", help="journal JSONL path from --journal")
    p.add_argument("--exact", action="store_true",
                   help="replay the journal and cross-check the final ER "
                        "against the BDD engine (small circuits; needs "
                        "--netlist)")
    p.add_argument("--netlist", default=None, metavar="PATH",
                   help="the original netlist the journaled run started from "
                        "(required by --exact)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="also write the audit as JSON here")
    p.add_argument("--node-limit", type=int, default=500_000,
                   help="BDD node budget for --exact (default 500000)")
    p.add_argument("--weights", choices=["unit", "binary"], default="binary")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("redundancy", help="classical redundancy removal")
    p.add_argument("netlist")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--weights", choices=["unit", "binary"], default="binary")
    p.set_defaults(func=cmd_redundancy)

    # No abbreviations: table2 takes no --rs, which would otherwise
    # silently abbreviate --rs-pct.
    p = sub.add_parser("table2", help="Table II row on a built-in benchmark",
                       allow_abbrev=False)
    p.add_argument("circuit", choices=["c880", "c1908", "c3540", "c5315", "c7552"])
    _add_greedy_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("dct-study", help="Section II JPEG/DCT study")
    p.add_argument("--size", type=_image_size, default=256,
                   help="test image edge length (a multiple of 8)")
    p.set_defaults(func=cmd_dct_study)

    p = sub.add_parser("er-tests", help="error-rate test generation (ERTG)")
    p.add_argument("netlist")
    p.add_argument("--er", type=_er_threshold, default=0.0,
                   help="test only faults with ER above this (default 0: all)")
    p.add_argument("--candidates", type=_positive_int, default=2048)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("-o", "--output", default=None, help="write vectors here")
    p.add_argument("--weights", choices=["unit", "binary"], default="binary")
    p.set_defaults(func=cmd_er_tests)

    p = sub.add_parser("yield", help="effective-yield analysis on a defect population")
    p.add_argument("netlist")
    p.add_argument("--chips", type=_positive_int, default=300)
    p.add_argument("--density", type=_non_negative_float, default=0.8,
                   help="expected defects per chip (Poisson lambda)")
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--rs", type=_non_negative_float, default=None,
                        help="absolute RS budget")
    budget.add_argument("--rs-pct", type=_non_negative_float, default=None,
                        help="RS budget in %% of RS_max")
    p.add_argument("--vectors", type=_positive_int, default=5000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--weights", choices=["unit", "binary"], default="binary")
    p.set_defaults(func=cmd_yield)

    p = sub.add_parser("serve", help="run the simplification job server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="concurrent job runner processes (default 2)")
    p.add_argument("--queue-limit", type=_positive_int, default=64,
                   help="pending-job bound; further submits get HTTP 429")
    p.add_argument("--max-retries", type=_positive_int, default=3,
                   help="attempts per job before a crashed run is failed "
                        "(each retry resumes from the job's checkpoint)")
    p.add_argument("--data-dir", default=".repro-service", metavar="DIR",
                   help="durable state: job dirs, result cache, logs")
    p.add_argument("--hang-timeout", type=_positive_float, default=None,
                   metavar="S",
                   help="kill a running attempt whose journal stops "
                        "advancing for S seconds (after a SIGUSR1 stack "
                        "dump) and requeue it; omit to disable (default)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a netlist to a job server")
    p.add_argument("netlist")
    p.add_argument("--url", default="http://127.0.0.1:8765",
                   help="job server base URL (default http://127.0.0.1:8765)")
    _add_greedy_options(p)
    _add_rs_option(p)
    _add_weights_option(p)
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes and print the report")
    p.add_argument("--timeout", type=_positive_float, default=600.0,
                   help="--wait limit in seconds (default 600)")
    p.add_argument("--poll-interval", type=_positive_float, default=0.5)
    p.add_argument("-o", "--output", default=None,
                   help="with --wait: write the simplified netlist here")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="list/inspect/cancel jobs on a server")
    p.add_argument("job_id", nargs="?", default=None,
                   help="a job id (omit to list all jobs)")
    p.add_argument("--url", default="http://127.0.0.1:8765")
    p.add_argument("--result", action="store_true",
                   help="fetch the finished job's outcome")
    p.add_argument("--cancel", action="store_true",
                   help="request cancellation of the job")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--timeout", type=_positive_float, default=30.0,
                   help="per-request HTTP timeout in seconds (default 30)")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("postmortem",
                       help="report what a failed job left: its journal "
                            "tail, error.json and runner.log (or a bare "
                            "run journal's tail)")
    p.add_argument("path",
                   help="a job dir or a run journal .jsonl")
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="also write the report here (CI artifact)")
    p.set_defaults(func=cmd_postmortem)

    args = parser.parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    try:
        return args.func(args)
    except CompileError as exc:
        logger.error(f"{exc.code}: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
