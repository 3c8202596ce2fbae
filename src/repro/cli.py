"""Command-line interface.

``python -m repro <command>`` exposes the main flows on gate-level
netlists (ISCAS85 ``.bench`` or structural Verilog ``.v``, selected by
file extension) and on the built-in benchmark suite:

* ``stats``      -- netlist statistics and datapath/control profile
* ``simplify``   -- RS-budgeted simplification of a netlist
* ``report``     -- profiling view over a run journal (text, JSON, or
  OpenMetrics/Prometheus exposition via ``--format openmetrics``)
* ``profile``    -- self-time attribution over a run journal: exclusive
  time per span, wall-clock attribution coverage (flags unattributed
  time), kernel bytes-moved throughput and the sampled peak-RSS
  timeline (needs a run with ``--telemetry-interval``)
* ``compare``    -- iteration-by-iteration diff of two run journals
* ``audit``      -- estimator-calibration / RS-budget audit of a run
  journal: predicted vs. realized deltas per committed fault, Wilson
  ER confidence intervals, budget-risk flags (exit 3 when any fire),
  and ``--exact`` BDD cross-check of the final ER on small circuits
* ``trends``     -- benchmark history + trailing-median regression gate
* ``redundancy`` -- classical redundancy removal only
* ``table2``     -- one Table II row on a built-in ISCAS85-like circuit
* ``dct-study``  -- the Section II JPEG/DCT application study
* ``er-tests``   -- error-rate test generation (ERTG flow)
* ``yield``      -- effective-yield analysis on a defect population
* ``serve``      -- run the simplification job server (versioned HTTP
  API, bounded queue, crash-resumable worker pool, result cache)
* ``submit``     -- submit a netlist to a running job server; with
  ``--wait`` polls to completion and renders the report, with
  ``--trace-id`` stamps a correlation id through the whole lifetime
* ``jobs``       -- list/inspect/cancel jobs on a running server
* ``postmortem`` -- human crash report from a job's ``crash/`` bundle
  (stack dump, journal tail, fingerprint) or a bare run journal

All human-facing output goes through the ``repro`` logging tree
(INFO -> stdout, WARNING+ -> stderr), configured by the global
``--verbose`` / ``--quiet`` flags; library code never prints directly,
and Python warnings are captured into the same tree so ``--quiet``
genuinely silences everything below WARNING.  ``simplify`` and
``table2`` accept ``--journal PATH`` to stream a structured JSONL run
journal and ``--profile`` to dump the phase-time / counter breakdown
after the run; ``simplify`` additionally takes ``--trace PATH`` (Chrome
trace export, Perfetto-loadable),
``--progress PATH`` (atomic machine-readable heartbeat plus a
``telemetry.prom`` OpenMetrics drop next to it; a live TTY stderr line
appears automatically when stderr is a terminal and ``--quiet`` is not
set) and ``--telemetry-interval SECONDS`` (background RSS/CPU/
throughput sampling into the journal); ``report`` and ``profile``
render the journal views later.

Output netlists are written in the format implied by the output path's
extension.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path
from typing import List, Optional

from .circuit import CircuitError, dump_bench, dump_verilog, load_bench, load_verilog
from .core.errors import CompileError
from .faults import datapath_faults, enumerate_faults
from .metrics import rs_max
from .obs import (
    Instrumentation,
    JournalError,
    ProgressReporter,
    TraceRecorder,
    append_history,
    compare_files,
    detect_regressions,
    load_bench_file,
    read_history,
    render_compare,
    render_snapshot,
    report_from_file,
    write_chrome_trace,
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
    p.add_argument("--rs", type=float, default=None,
                   help="absolute RS threshold")
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


def _add_weights_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weights", choices=["unit", "binary"], default="binary",
                   help="output weights when the netlist has none "
                        "(binary: bit i of the output list weighs 2**i)")


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_obs_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="stream a structured JSONL run journal here "
                        "(render it later with `repro report PATH`); it "
                        "is also the run's checkpoint: rerunning with "
                        "the same path resumes a killed run "
                        "bit-identically")
    p.add_argument("--profile", action="store_true",
                   help="print the phase-time / counter breakdown after the run")


def _add_live_obs_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="export a Chrome trace (Perfetto/chrome://tracing "
                        "loadable) of the run's spans here")
    p.add_argument("--progress", default=None, metavar="PATH",
                   help="write a machine-readable progress snapshot here "
                        "(atomic replace) every few seconds; a live stderr "
                        "line appears on a TTY regardless of this flag")
    p.add_argument("--progress-interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="minimum seconds between progress snapshots "
                        "(default 2)")
    p.add_argument("--telemetry-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="sample RSS/CPU/throughput every SECONDS into the "
                        "journal (v4 telemetry events); render with "
                        "`repro profile` or `repro report --format "
                        "openmetrics`")


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


def _instrumentation(args: argparse.Namespace) -> Optional[Instrumentation]:
    """An explicit registry when the run is profiled or journaled."""
    if getattr(args, "profile", False) or getattr(args, "journal", None):
        return Instrumentation()
    return None


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
    obs = _instrumentation(args)
    if args.trace:
        if obs is None:
            obs = Instrumentation()
        obs.tracer = TraceRecorder()
    # The live stderr heartbeat is human-facing output: it exists only
    # on a real terminal and never under --quiet.  The --progress JSON
    # snapshot is machine-facing and is written either way.
    heartbeat = sys.stderr.isatty() and not args.quiet
    progress = None
    prom_path = None
    if args.progress:
        # The OpenMetrics drop lives next to progress.json so a
        # textfile collector scrapes one directory.
        prom_path = str(Path(args.progress).absolute().with_name("telemetry.prom"))
    if args.progress or heartbeat:
        progress = ProgressReporter(
            stream=sys.stderr if heartbeat else None,
            json_path=args.progress,
            interval_s=args.progress_interval,
            prom_path=prom_path,
        )
    try:
        request = SimplifyRequest.from_cli_args(args)
    except ValueError as exc:
        logger.error(str(exc))
        if progress is not None:
            progress.close()
        return 2
    try:
        outcome = request.run(circuit, obs=obs, progress=progress)
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
    if args.trace:
        spans = write_chrome_trace(args.trace, obs.tracer)
        logger.info(f"chrome trace written to {args.trace} ({spans} spans)")
    if args.progress:
        logger.info(f"progress snapshot written to {args.progress}")
        logger.info(f"openmetrics snapshot written to {prom_path}")
    if args.profile and obs is not None:
        logger.info("\n" + render_snapshot(obs.snapshot()))
    if args.output:
        outcome.save(args.output)
        logger.info(f"approximate netlist written to {args.output}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        if args.format in ("json", "openmetrics"):
            from .obs import journal_openmetrics, load_journal, report_as_dict

            events = load_journal(args.journal, skip_unknown=True)
            if not events:
                raise JournalError(f"{args.journal}: empty journal")
            if args.format == "json":
                logger.info(
                    json.dumps(report_as_dict(events, top_k=args.top),
                               indent=2, sort_keys=True)
                )
            else:
                # rstrip: logger.info appends the final newline itself.
                logger.info(journal_openmetrics(events).rstrip("\n"))
        else:
            logger.info(report_from_file(args.journal, top_k=args.top))
    except FileNotFoundError:
        logger.error(f"no such journal: {args.journal}")
        return 2
    except JournalError as exc:
        logger.error(str(exc))
        return 2
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .obs import profile_events, render_profile
    from .obs.journal import load_journal

    try:
        events = load_journal(args.journal, skip_unknown=True)
        if not events:
            raise JournalError(f"{args.journal}: empty journal")
        profile = profile_events(events, top=args.top)
    except FileNotFoundError:
        logger.error(f"no such journal: {args.journal}")
        return 2
    except JournalError as exc:
        logger.error(str(exc))
        return 2
    if args.format == "json":
        logger.info(json.dumps(profile, indent=2, sort_keys=True))
    else:
        logger.info(render_profile(profile))
    if args.fail_on_unattributed and profile["attribution"]["flagged"]:
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
        audit = audit_file(args.journal, z=args.z)
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


def cmd_trends(args: argparse.Namespace) -> int:
    try:
        history = read_history(args.history)
    except ValueError as exc:
        logger.error(str(exc))
        return 2
    regressions = []
    for path in args.bench:
        try:
            name, rows = load_bench_file(path)
        except FileNotFoundError:
            logger.warning(f"trends: no such bench snapshot: {path}")
            continue
        except (ValueError, json.JSONDecodeError) as exc:
            logger.warning(f"trends: skipping {path}: {exc}")
            continue
        flagged = detect_regressions(
            history, name, rows,
            threshold=args.threshold / 100.0, window=args.window,
        )
        for reg in flagged:
            logger.warning(reg.describe())
        logger.info(
            f"TREND {name}: {len(rows)} row(s), "
            f"{len(flagged)} regression(s) vs trailing median "
            f"(window {args.window}, threshold {args.threshold:g}%)"
        )
        if not args.no_append:
            try:
                history.extend(append_history(args.history, name, rows))
            except OSError as exc:
                logger.error(f"trends: cannot write history {args.history}: {exc}")
                return 2
        regressions.extend(flagged)
    if regressions and args.fail_on_regression:
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
    obs = _instrumentation(args)
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
                args, rs_threshold=None, rs_pct_threshold=pct,
                weights="netlist", journal=journal,
            )
            outcome = request.run(circuit, obs=obs)
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
    if args.profile and obs is not None:
        logger.info("\n" + render_snapshot(obs.snapshot()))
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
        hang_timeout_s=args.hang_timeout or None,
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
            trace_id=args.trace_id,
        )
        logger.info(f"{snap['job_id']}: {snap['state']}"
                    + (" (served from cache)" if snap.get("cached") else "")
                    + (" (coalesced onto an identical job)"
                       if snap.get("deduplicated") else ""))
        if snap.get("trace_id"):
            logger.info(f"trace_id: {snap['trace_id']}")
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
    from .obs.flight import load_bundle, render_postmortem

    try:
        bundle = load_bundle(args.path)
    except (OSError, ValueError) as exc:
        logger.error(f"cannot load crash bundle: {exc}")
        return 2
    report = render_postmortem(bundle)
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
    _add_weights_option(p)
    _add_obs_options(p)
    _add_live_obs_options(p)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("report", help="profiling view over a run journal")
    p.add_argument("journal", help="journal JSONL path from --journal")
    p.add_argument("--top", type=_positive_int, default=12,
                   help="counters to show in the hotspot table (default 12)")
    p.add_argument("--format", choices=["text", "json", "openmetrics"],
                   default="text",
                   help="render as human text (default), machine JSON, or "
                        "OpenMetrics/Prometheus text exposition")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("profile",
                       help="self-time attribution over a run journal "
                            "(exclusive span times, wall-clock coverage, "
                            "kernel throughput, RSS timeline)")
    p.add_argument("journal", help="journal JSONL path from --journal")
    p.add_argument("--top", type=_positive_int, default=12,
                   help="span rows in the self-time table (default 12)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--fail-on-unattributed", action="store_true",
                   help="exit 3 when top-level spans explain less than "
                        "90%% of the run's wall time")
    p.set_defaults(func=cmd_profile)

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
    p.add_argument("--z", type=float, default=1.96,
                   help="normal quantile for the confidence level "
                        "(default 1.96 = 95%%)")
    p.add_argument("--node-limit", type=int, default=500_000,
                   help="BDD node budget for --exact (default 500000)")
    p.add_argument("--weights", choices=["unit", "binary"], default="binary")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("trends",
                       help="append BENCH_*.json rows to a history file and "
                            "flag regressions vs the trailing median")
    p.add_argument("bench", nargs="+", help="BENCH_<name>.json snapshot(s)")
    p.add_argument("--history", default="BENCH_history.jsonl", metavar="PATH",
                   help="JSONL history file (default BENCH_history.jsonl)")
    p.add_argument("--threshold", type=float, default=15.0, metavar="PCT",
                   help="regression threshold in percent (default 15)")
    p.add_argument("--window", type=int, default=5,
                   help="trailing history entries per median (default 5)")
    p.add_argument("--no-append", action="store_true",
                   help="only check; do not record the new rows")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="exit 3 when any metric regresses (CI wraps this "
                        "in a soft-fail step)")
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser("redundancy", help="classical redundancy removal")
    p.add_argument("netlist")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--weights", choices=["unit", "binary"], default="binary")
    p.set_defaults(func=cmd_redundancy)

    p = sub.add_parser("table2", help="Table II row on a built-in benchmark")
    p.add_argument("circuit", choices=["c880", "c1908", "c3540", "c5315", "c7552"])
    _add_greedy_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("dct-study", help="Section II JPEG/DCT study")
    p.add_argument("--size", type=int, default=256, help="test image edge length")
    p.set_defaults(func=cmd_dct_study)

    p = sub.add_parser("er-tests", help="error-rate test generation (ERTG)")
    p.add_argument("netlist")
    p.add_argument("--er", type=float, default=0.0,
                   help="test only faults with ER above this (default 0: all)")
    p.add_argument("--candidates", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None, help="write vectors here")
    p.add_argument("--weights", choices=["unit", "binary"], default="binary")
    p.set_defaults(func=cmd_er_tests)

    p = sub.add_parser("yield", help="effective-yield analysis on a defect population")
    p.add_argument("netlist")
    p.add_argument("--chips", type=int, default=300)
    p.add_argument("--density", type=float, default=0.8,
                   help="expected defects per chip (Poisson lambda)")
    p.add_argument("--rs", type=float, default=None, help="absolute RS budget")
    p.add_argument("--rs-pct", type=float, default=None, help="RS budget in %% of RS_max")
    p.add_argument("--vectors", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", choices=["unit", "binary"], default="binary")
    p.set_defaults(func=cmd_yield)

    p = sub.add_parser("serve", help="run the simplification job server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent job runner processes (default 2)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="pending-job bound; further submits get HTTP 429")
    p.add_argument("--max-retries", type=int, default=3,
                   help="attempts per job before a crashed run is failed "
                        "(each retry resumes from the job's checkpoint)")
    p.add_argument("--data-dir", default=".repro-service", metavar="DIR",
                   help="durable state: job dirs, result cache, netlists")
    p.add_argument("--hang-timeout", type=float, default=0.0, metavar="S",
                   help="kill a running attempt whose journal/progress "
                        "stops advancing for S seconds (after a SIGUSR1 "
                        "stack dump) and requeue it; 0 disables (default)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a netlist to a job server")
    p.add_argument("netlist")
    p.add_argument("--url", default="http://127.0.0.1:8765",
                   help="job server base URL (default http://127.0.0.1:8765)")
    _add_greedy_options(p)
    _add_weights_option(p)
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes and print the report")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait limit in seconds (default 600)")
    p.add_argument("--poll-interval", type=float, default=0.5)
    p.add_argument("--trace-id", default=None, metavar="ID",
                   help="correlation id stamped through the job's whole "
                        "lifetime (API responses, service logs, runner "
                        "journal, /trace); a uuid is generated if omitted")
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
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request HTTP timeout in seconds (default 30)")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("postmortem",
                       help="render a crash bundle (or a bare run journal) "
                            "as a human-readable report")
    p.add_argument("path",
                   help="a job dir, its crash/ bundle dir, or a run "
                        "journal .jsonl")
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
