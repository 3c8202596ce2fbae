"""PODEM test-pattern generation for single stuck-at faults.

A faithful implementation of Goel's PODEM on the five-valued D-calculus
(:mod:`repro.simulation.fivevalue`): decisions are made only on primary
inputs, the *D-frontier* guides propagation objectives, backtrace maps
an objective to the next PI assignment, and an X-path check prunes dead
branches.  The algorithm is complete: with an unbounded backtrack
budget a fault is reported ``REDUNDANT`` iff no test exists, which is
exactly the property classical redundancy removal -- and the paper's
generalization of it -- relies on.

Implication is event-driven.  Each :class:`Podem` computes the
fault-free values under an all-X assignment once; a run injects its
fault by propagating from the fault site, and after each decision or
backtrack re-evaluates, in topological order, only the gates fed by a
signal whose value changed, stopping wherever a value does not change.
The values are those of a full five-valued pass over the netlist
(:meth:`Podem._simulate`, which computes the all-X baseline and is the
test reference), so every search step -- and every
:class:`AtpgResult` -- is the same as with full re-simulation.  Only
gates in the fault site's fanout cone can carry D or D̄, so the
D-frontier is sought there alone.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuit import Circuit, GateType
from ..circuit.gates import controlling_value, inversion
from ..circuit.structure import fanout_cone_gates
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation, get_active
from ..simulation import fivevalue as fv

__all__ = ["AtpgStatus", "AtpgResult", "Podem"]


class AtpgStatus(enum.Enum):
    """Outcome of one ATPG run."""

    TESTABLE = "testable"
    REDUNDANT = "redundant"
    ABORTED = "aborted"


@dataclass
class AtpgResult:
    """Outcome record: status, generated vector and search effort.

    ``vector`` maps every primary input to 0/1 (don't-cares filled with
    0) when the fault is testable, else ``None``.
    """

    status: AtpgStatus
    vector: Optional[Dict[str, int]]
    backtracks: int
    decisions: int
    implications: int = 0

    @property
    def is_testable(self) -> bool:
        return self.status is AtpgStatus.TESTABLE

    @property
    def is_redundant(self) -> bool:
        return self.status is AtpgStatus.REDUNDANT


class Podem:
    """PODEM ATPG engine bound to one circuit.

    Parameters
    ----------
    circuit:
        Combinational circuit under test.
    backtrack_limit:
        Abort threshold on the number of backtracks per fault.
    guidance:
        Backtrace cost heuristic: ``"level"`` uses logic depth (the
        classic default), ``"scoap"`` uses SCOAP controllability --
        hard-to-control inputs are driven first, which tends to fail
        fast and cut backtracks on control-heavy circuits.
    """

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 20_000,
        guidance: str = "level",
        obs: Optional[Instrumentation] = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.obs = obs if obs is not None else get_active()
        self.backtrack_limit = backtrack_limit
        self._order = circuit.topological_order()
        self._topo_pos = {n: i for i, n in enumerate(self._order)}
        self._levels = circuit.levels()
        self._fanout = circuit.fanout_map()
        self._outputs = circuit.outputs
        self._po_set = frozenset(self._outputs)
        # topological positions of the distinct gates each signal feeds
        self._readers: Dict[str, Tuple[int, ...]] = {
            s: tuple(sorted({self._topo_pos[g] for g, _pin in pins}))
            for s, pins in self._fanout.items()
        }
        # fault-free values under the all-X assignment
        self._baseline = self._simulate({}, None)
        if guidance == "scoap":
            from ..analysis.scoap import compute_scoap

            m = compute_scoap(circuit)
            self._cost0 = m.cc0
            self._cost1 = m.cc1
        elif guidance == "level":
            lv = self._levels
            self._cost0 = {s: lv.get(s, 0) for s in circuit.signals()}
            self._cost1 = self._cost0
        else:
            raise ValueError(f"unknown guidance {guidance!r}")
        # distance-to-PO used to rank D-frontier gates (propagate via
        # the shortest remaining path first)
        self._po_dist: Dict[str, int] = {}
        po_set = self._po_set
        unreachable = 10**9
        for name in reversed(self._order):
            if name in po_set:
                self._po_dist[name] = 0
            else:
                self._po_dist[name] = min(
                    (self._po_dist.get(g, unreachable) + 1 for g, _ in self._fanout.get(name, ())),
                    default=unreachable,
                )
        for pi in circuit.inputs:
            if pi in po_set:
                self._po_dist[pi] = 0
            else:
                self._po_dist[pi] = min(
                    (self._po_dist.get(g, unreachable) + 1 for g, _ in self._fanout.get(pi, ())),
                    default=unreachable,
                )

    # ------------------------------------------------------------------
    def run(self, fault: StuckAtFault) -> AtpgResult:
        """Generate a test for ``fault`` or prove it redundant."""
        with self.obs.span("atpg.podem"):
            result = self._search(fault)
        obs = self.obs
        obs.incr("podem.runs")
        obs.incr("podem.decisions", result.decisions)
        obs.incr("podem.backtracks", result.backtracks)
        obs.incr("podem.implications", result.implications)
        obs.incr(f"podem.{result.status.value}")
        return result

    def _search(self, fault: StuckAtFault) -> AtpgResult:
        if not self.circuit.has_signal(fault.line.signal):
            raise ValueError(f"fault site {fault.line} not in circuit {self.circuit.name!r}")
        assign: Dict[str, int] = {}
        # decision stack: (pi, value, already_flipped)
        stack: List[Tuple[str, int, bool]] = []
        backtracks = 0
        decisions = 0
        implications = 0
        cone = self._fault_cone(fault)
        values = dict(self._baseline)
        self._inject(values, fault)

        while True:
            implications += 1
            if self._test_found(values):
                vec = {pi: assign.get(pi, 0) for pi in self.circuit.inputs}
                return AtpgResult(AtpgStatus.TESTABLE, vec, backtracks, decisions, implications)

            objective = self._objective(values, fault, cone)
            target = None
            if objective is not None:
                target = self._backtrace(objective, values)
            if target is None:
                # dead branch: undo the most recent unflipped decision
                flipped = False
                undone: List[str] = []
                while stack:
                    pi, val, was_flipped = stack.pop()
                    del assign[pi]
                    undone.append(pi)
                    if not was_flipped:
                        backtracks += 1
                        if backtracks > self.backtrack_limit:
                            return AtpgResult(AtpgStatus.ABORTED, None, backtracks, decisions, implications)
                        assign[pi] = val ^ 1
                        stack.append((pi, val ^ 1, True))
                        flipped = True
                        break
                if not flipped:
                    return AtpgResult(AtpgStatus.REDUNDANT, None, backtracks, decisions, implications)
                self._imply(values, assign, fault, undone)
                continue

            pi, val = target
            assign[pi] = val
            stack.append((pi, val, False))
            decisions += 1
            self._imply(values, assign, fault, (pi,))

    # ------------------------------------------------------------------
    # five-valued implication
    # ------------------------------------------------------------------
    def _simulate(
        self, assign: Dict[str, int], fault: Optional[StuckAtFault]
    ) -> Dict[str, int]:
        """Full five-valued simulation under partial PI assignment.

        The single fault (if any) is injected at its stem or branch
        site; all other signals follow the composite D-calculus tables.
        The search itself never calls this: it computes the all-X
        baseline, and the incremental implication must reproduce it.
        """
        values: Dict[str, int] = {}
        stem_site, branch_key, stuck = _fault_site(fault)
        for pi in self.circuit.inputs:
            v = assign.get(pi)
            val = fv.X if v is None else (fv.ONE if v else fv.ZERO)
            if pi == stem_site:
                val = _faulty_site_value(val, stuck)
            values[pi] = val
        for name in self._order:
            values[name] = self._evaluate(name, values, stem_site, branch_key, stuck)
        return values

    def _evaluate(
        self,
        name: str,
        values: Dict[str, int],
        stem_site: Optional[str],
        branch_key: Optional[Tuple[str, int]],
        stuck: int,
    ) -> int:
        """Five-valued output of gate ``name`` from the current values."""
        g = self.circuit.gates[name]
        ins: List[int] = []
        for pin, src in enumerate(g.inputs):
            v = values[src]
            if branch_key == (name, pin):
                v = _faulty_site_value(v, stuck)
            ins.append(v)
        out = fv.v_gate(g.gtype, ins) if (ins or g.gtype in (GateType.CONST0, GateType.CONST1)) else fv.X
        if name == stem_site:
            out = _faulty_site_value(out, stuck)
        return out

    def _inject(self, values: Dict[str, int], fault: StuckAtFault) -> None:
        """Turn the fault-free all-X ``values`` into the faulty ones by
        propagating from the fault site."""
        line = fault.line
        if line.is_branch:
            self._propagate(values, fault, [self._topo_pos[line.gate]])
        elif not self.circuit.is_input(line.signal):
            self._propagate(values, fault, [self._topo_pos[line.signal]])
        # an unassigned PI is X, and a faulty line carrying X stays X

    def _imply(
        self,
        values: Dict[str, int],
        assign: Dict[str, int],
        fault: StuckAtFault,
        pis: Iterable[str],
    ) -> None:
        """Bring ``values`` up to date after the assignment of ``pis``
        changed (a decision, or the undo and flip of a backtrack)."""
        stem_site, _branch, stuck = _fault_site(fault)
        seeds: List[int] = []
        for pi in pis:
            v = assign.get(pi)
            val = fv.X if v is None else (fv.ONE if v else fv.ZERO)
            if pi == stem_site:
                val = _faulty_site_value(val, stuck)
            if values[pi] != val:
                values[pi] = val
                seeds.extend(self._readers[pi])
        self._propagate(values, fault, seeds)

    def _propagate(
        self, values: Dict[str, int], fault: StuckAtFault, seeds: List[int]
    ) -> None:
        """Re-evaluate the gates at topological positions ``seeds``, then
        every gate fed by a signal that changed, in topological order."""
        stem_site, branch_key, stuck = _fault_site(fault)
        order, readers = self._order, self._readers
        queued = set(seeds)
        heap = list(queued)
        heapq.heapify(heap)
        while heap:
            name = order[heapq.heappop(heap)]
            out = self._evaluate(name, values, stem_site, branch_key, stuck)
            if out == values[name]:
                continue
            values[name] = out
            for pos in readers[name]:
                if pos not in queued:
                    queued.add(pos)
                    heapq.heappush(heap, pos)

    def _test_found(self, values: Dict[str, int]) -> bool:
        return any(fv.is_faulty_value(values[o]) for o in self._outputs)

    # ------------------------------------------------------------------
    # objective selection
    # ------------------------------------------------------------------
    def _objective(
        self, values: Dict[str, int], fault: StuckAtFault, cone: Sequence[str]
    ) -> Optional[Tuple[str, int]]:
        site_signal = fault.line.signal
        site_value = values[site_signal]
        if fault.line.is_branch:
            site_value = _faulty_site_value(values[site_signal], fault.value)

        if not fv.is_faulty_value(site_value):
            # Fault not yet activated.
            src_value = values[site_signal]
            if src_value == fv.X:
                return (site_signal, fault.value ^ 1)
            return None  # activation impossible under this assignment

        # Fault activated: drive a D-frontier gate with an X-path.
        frontier = self._d_frontier(values, fault, cone)
        frontier = [g for g in frontier if self._x_path_exists(g, values)]
        if not frontier:
            return None
        gate_name = min(frontier, key=lambda n: self._po_dist.get(n, 10**9))
        gate = self.circuit.gates[gate_name]
        cv = controlling_value(gate.gtype)
        for pin, src in enumerate(gate.inputs):
            v = values[src]
            if fault.line.is_branch and (gate_name, pin) == (fault.line.gate, fault.line.pin):
                continue
            if v == fv.X:
                want = 0 if cv is None else cv ^ 1
                return (src, want)
        return None

    def _fault_cone(self, fault: StuckAtFault) -> Tuple[str, ...]:
        """The gates that can carry D or D̄ on an input, in topological
        order: the fanout cone of the fault site (led by the faulted
        gate itself for a branch fault)."""
        line = fault.line
        if line.is_branch:
            return (line.gate,) + fanout_cone_gates(self.circuit, line.gate, self._topo_pos)
        return fanout_cone_gates(self.circuit, line.signal, self._topo_pos)

    def _d_frontier(
        self, values: Dict[str, int], fault: StuckAtFault, cone: Sequence[str]
    ) -> List[str]:
        """Gates whose output is X while at least one input carries D/D̄.

        Only ``cone`` (from :meth:`_fault_cone`) can hold such gates, and
        it lists them in the topological order a whole-netlist scan
        would, so ties in the PO-distance ranking break the same way.
        """
        frontier = []
        branch_key = (
            (fault.line.gate, fault.line.pin) if fault.line.is_branch else None
        )
        for name in cone:
            if values[name] != fv.X:
                continue
            g = self.circuit.gates[name]
            for pin, src in enumerate(g.inputs):
                v = values[src]
                if branch_key == (name, pin):
                    v = _faulty_site_value(v, fault.value)
                if fv.is_faulty_value(v):
                    frontier.append(name)
                    break
        return frontier

    def _x_path_exists(self, gate_name: str, values: Dict[str, int]) -> bool:
        """True if an all-X path runs from ``gate_name`` to some PO."""
        po_set = self._po_set
        seen = set()
        stack = [gate_name]
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            if values.get(s) != fv.X:
                continue
            if s in po_set:
                return True
            stack.extend(g for g, _pin in self._fanout.get(s, ()))
        return False

    # ------------------------------------------------------------------
    # backtrace
    # ------------------------------------------------------------------
    def _backtrace(
        self, objective: Tuple[str, int], values: Dict[str, int]
    ) -> Optional[Tuple[str, int]]:
        """Map an objective (signal, value) to a PI assignment."""
        signal, value = objective
        for _ in range(len(self._order) + len(self.circuit.inputs) + 1):
            if self.circuit.is_input(signal):
                if values[signal] != fv.X:
                    return None
                return (signal, value)
            gate = self.circuit.gates[signal]
            gt = gate.gtype
            if gt in (GateType.CONST0, GateType.CONST1):
                return None
            if gt in (GateType.NOT, GateType.BUF):
                value ^= 1 if gt is GateType.NOT else 0
                signal = gate.inputs[0]
                continue
            x_inputs = [(pin, src) for pin, src in enumerate(gate.inputs) if values[src] == fv.X]
            if not x_inputs:
                return None
            if gt in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
                cv = controlling_value(gt)
                core_target = value ^ (1 if inversion(gt) else 0)
                # A controlling input is enough when the AND-core must
                # produce 0 (resp. the OR-core must produce 1); otherwise
                # every input must take the non-controlling value.
                need_controlling = core_target == (
                    0 if gt in (GateType.AND, GateType.NAND) else 1
                )
                if need_controlling:
                    # one controlling input suffices: pick the cheapest
                    cost = self._cost0 if cv == 0 else self._cost1
                    pin, src = min(x_inputs, key=lambda t: cost.get(t[1], 0))
                    value = cv
                else:
                    # every input must be non-controlling: attack the
                    # hardest one first (fail fast)
                    cost = self._cost1 if cv == 0 else self._cost0
                    pin, src = max(x_inputs, key=lambda t: cost.get(t[1], 0))
                    value = cv ^ 1
                signal = src
                continue
            # XOR / XNOR: aim the first X input at the parity residue.
            parity = 1 if gt is GateType.XNOR else 0
            known = 0
            for pin, src in enumerate(gate.inputs):
                v = values[src]
                if v == fv.ONE:
                    known ^= 1
                elif v in (fv.D,):
                    known ^= 1  # good-machine view
            pin, src = x_inputs[0]
            value = value ^ parity ^ known
            signal = src
        return None


def _fault_site(
    fault: Optional[StuckAtFault],
) -> Tuple[Optional[str], Optional[Tuple[str, int]], int]:
    """``(stem site, (gate, pin) of a branch site, stuck value)``."""
    if fault is None:
        return None, None, 0
    if fault.line.is_branch:
        return None, (fault.line.gate, fault.line.pin), fault.value
    return fault.line.signal, None, fault.value


def _faulty_site_value(value: int, stuck: int) -> int:
    """Composite value observed on a faulty line.

    ``value`` is the fault-free (driving) five-valued value; the line is
    stuck at ``stuck``.  A clean 0/1 opposite to the stuck value turns
    into D or D̄; the stuck value itself passes through; X stays X.
    """
    if value == fv.X:
        return fv.X
    good = fv.good_component(value)
    if good == stuck:
        return fv.ONE if stuck else fv.ZERO
    return fv.D if stuck == 0 else fv.DBAR
