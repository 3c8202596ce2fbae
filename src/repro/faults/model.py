"""Stuck-at fault model on stems and fanout branches.

Classical single-stuck-at semantics (paper Section III): a fault site
is a *line*, which is either

* a **stem** -- a whole signal (primary input or gate output), or
* a **branch** -- one specific gate-input connection, meaningful as a
  distinct site only when the driving signal has more than one
  consumer.

A :class:`StuckAtFault` fixes the value observed *on that line* to 0 or
1.  Injecting a stem fault overrides the signal for every consumer;
injecting a branch fault overrides what one gate pin sees while the
stem keeps driving its other branches -- exactly the distinction the
simplification engine exploits (a branch fault only rewrites the
consuming gate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..circuit import Circuit
from ..circuit.structure import datapath_signals

__all__ = [
    "Line",
    "StuckAtFault",
    "fault_detail",
    "enumerate_lines",
    "enumerate_faults",
    "datapath_faults",
]


@dataclass(frozen=True, order=True)
class Line:
    """A fault site.

    ``signal`` names the driving signal.  For a branch, ``gate``/``pin``
    identify the consuming gate input; for a stem both are ``None``.
    """

    signal: str
    gate: Optional[str] = None
    pin: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.gate is None) != (self.pin is None):
            raise ValueError("branch lines need both gate and pin; stems need neither")

    @property
    def is_stem(self) -> bool:
        """True for a stem (whole-signal) line."""
        return self.gate is None

    @property
    def is_branch(self) -> bool:
        """True for a fanout-branch (single gate pin) line."""
        return self.gate is not None

    def __str__(self) -> str:
        if self.is_stem:
            return self.signal
        return f"{self.signal}->{self.gate}.{self.pin}"


@dataclass(frozen=True, order=True)
class StuckAtFault:
    """A single stuck-at fault: ``line`` stuck at ``value`` (0 or 1)."""

    line: Line
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {self.value!r}")

    @property
    def signal(self) -> str:
        """The driving signal of the faulty line."""
        return self.line.signal

    def __str__(self) -> str:
        return f"{self.line} SA{self.value}"

    @staticmethod
    def stem(signal: str, value: int) -> "StuckAtFault":
        """Convenience constructor for a stem fault."""
        return StuckAtFault(Line(signal), value)

    @staticmethod
    def branch(signal: str, gate: str, pin: int, value: int) -> "StuckAtFault":
        """Convenience constructor for a fanout-branch fault."""
        return StuckAtFault(Line(signal, gate, pin), value)


def fault_detail(fault: StuckAtFault) -> Dict:
    """Structured JSON form of a fault site: the replayable identity a
    journal's ``iteration``/``rejection`` events and an outcome carry."""
    return {
        "signal": fault.line.signal,
        "gate": fault.line.gate,
        "pin": fault.line.pin,
        "value": fault.value,
    }


def enumerate_lines(circuit: Circuit, include_branches: bool = True) -> List[Line]:
    """All fault sites of a circuit.

    Every driven signal contributes a stem line.  When
    ``include_branches`` is set, each gate pin fed by a signal with more
    than one consumer also contributes a branch line (a branch of a
    single-consumer signal is electrically identical to its stem and is
    skipped, as in standard fault-list construction).
    """
    return _lines(circuit, include_branches)


def _lines(
    circuit: Circuit,
    include_branches: bool,
    signals: Optional[Set[str]] = None,
    gates: Optional[Set[str]] = None,
) -> List[Line]:
    """The lines of :func:`enumerate_lines`, in its order, whose signal
    is in ``signals`` and, for a branch, whose consuming gate is in
    ``gates`` (``None``: no restriction).  Only kept lines are built."""
    lines = [Line(s) for s in circuit.signals() if signals is None or s in signals]
    if include_branches:
        refs = circuit.output_refs()
        for signal, consumers in circuit.fanout_map().items():
            if len(consumers) + refs.get(signal, 0) <= 1:
                continue
            if signals is not None and signal not in signals:
                continue
            for gate_name, pin in consumers:
                if gates is None or gate_name in gates:
                    lines.append(Line(signal, gate_name, pin))
    return lines


def _both_polarities(lines: Iterable[Line]) -> List[StuckAtFault]:
    return [StuckAtFault(line, value) for line in lines for value in (0, 1)]


def enumerate_faults(
    circuit: Circuit,
    include_branches: bool = True,
    signals: Optional[Set[str]] = None,
) -> List[StuckAtFault]:
    """The uncollapsed single-stuck-at fault list (SA0 and SA1 per line).

    ``signals`` optionally restricts fault sites to lines whose driving
    signal is in the given set (used for datapath-only fault lists).
    """
    return _both_polarities(_lines(circuit, include_branches, signals))


def datapath_faults(circuit: Circuit, include_branches: bool = True) -> List[StuckAtFault]:
    """Candidate faults for the Table II experiment.

    Restricted to lines in the transitive fanin of data outputs only
    (never of any control output), per Section V of the paper.  Branch
    lines additionally require the *consuming gate's* output signal to
    stay within the datapath region, so a branch feeding shared logic
    is excluded even when its stem is datapath-only.
    """
    allowed = datapath_signals(circuit)
    return _both_polarities(_lines(circuit, include_branches, allowed, allowed))
