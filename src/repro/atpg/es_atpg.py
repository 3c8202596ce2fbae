"""Error-significance (ES) threshold ATPG with multiple-fault support.

Rebuilds the tool the paper adapts from its refs [6] (threshold
testing) and [16] (multiple-fault ATPG): a PODEM-style branch-&-bound
that decides, for a pair of (good, faulty) circuits and a threshold T,
whether some input vector makes the weighted numeric output value of
the faulty machine deviate from the good machine by at least T.

The faulty machine can be specified two ways, matching the paper's two
usages:

* the *same* netlist plus a set of stuck-at faults (Section IV.A: the
  ATPG runs on the original circuit with the accumulated multiple-fault
  set injected), or
* a *different* netlist -- e.g. a simplified circuit version -- whose
  outputs are compared positionally against the good circuit's.

Both machines are simulated side by side in three-valued logic (0/1/X)
under a partial primary-input assignment, and interval bounds on the
weighted difference D = value(faulty) - value(good) drive the pruning
exactly as the paper describes -- *"branches until a lower-bound on ES
is greater than a threshold; it bounds when an upper-bound on ES is
lower than the threshold"*:

* every completion satisfies ``Dmin <= D <= Dmax``;
* if ``Dmin >= T`` or ``Dmax <= -T`` the subtree is accepted wholesale
  (the lower bound cleared the threshold);
* if ``max(|Dmin|, |Dmax|) < T`` the subtree is pruned (the upper bound
  cannot reach the threshold).

:meth:`EsAtpg.estimate_es` sweeps thresholds over powers of two
(2^0 ... 2^(m+1)) to produce the paper's conservative ES value: the
smallest refuted power of two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit import Circuit, GateType
from ..circuit.structure import transitive_fanin, transitive_fanout
from ..faults.model import StuckAtFault
from ..obs.core import Instrumentation, get_active

__all__ = ["EsStatus", "EsResult", "EsAtpg"]

_X = 2  # three-valued unknown


class EsStatus(enum.Enum):
    """Outcome of one threshold query."""

    SAT = "sat"  # a vector with |deviation| >= T exists (vector returned)
    UNSAT = "unsat"  # proven: no vector reaches the threshold
    ABORTED = "aborted"  # search budget exhausted; treat as SAT conservatively


@dataclass
class EsResult:
    """Result of :meth:`EsAtpg.test_exists`."""

    status: EsStatus
    vector: Optional[Dict[str, int]]
    deviation: Optional[int]
    nodes: int

    @property
    def is_sat(self) -> bool:
        return self.status is EsStatus.SAT


class EsAtpg:
    """Threshold ES ATPG comparing a good machine against a faulty one.

    Parameters
    ----------
    good:
        The reference (original) circuit.  ES is always measured
        against this circuit's function, per Section IV.A.
    faulty:
        The approximate circuit version; defaults to ``good`` itself
        (use ``faults`` for the classic mode).  Must have the same
        primary inputs; outputs are paired with ``good``'s outputs by
        position.
    faults:
        Stuck-at faults injected into the faulty machine's simulation.
    value_outputs:
        Outputs of ``good`` whose weighted value defines ES; defaults
        to its data outputs.
    node_limit:
        Search-node budget per threshold query.
    """

    def __init__(
        self,
        good: Circuit,
        faulty: Optional[Circuit] = None,
        faults: Sequence[StuckAtFault] = (),
        value_outputs: Optional[Sequence[str]] = None,
        node_limit: int = 20_000,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        good.validate()
        self.good = good
        self.obs = obs if obs is not None else get_active()
        self.faulty = faulty if faulty is not None else good
        self.same_netlist = self.faulty is good
        if not self.same_netlist:
            self.faulty.validate()
            if tuple(self.faulty.inputs) != tuple(good.inputs):
                raise ValueError("good and faulty circuits must share primary inputs")
            if len(self.faulty.outputs) != len(good.outputs):
                raise ValueError("good and faulty circuits must have matching outputs")
        self.faults = tuple(faults)
        self.node_limit = node_limit
        self.value_outputs = (
            tuple(value_outputs) if value_outputs is not None else good.value_outputs
        )
        self.weights = dict(zip(self.value_outputs, good.weights_of(self.value_outputs)))
        # positional pairing good output -> faulty output
        self._pair = dict(zip(good.outputs, self.faulty.outputs))

        self.affected_outputs = self._find_affected_outputs()
        self.max_weight_sum: int = sum(self.weights[o] for o in self.affected_outputs)

        # Restrict simulation and decisions to the relevant cones.
        relevant_good: Set[str] = set()
        relevant_faulty: Set[str] = set()
        for o in self.affected_outputs:
            relevant_good |= transitive_fanin(good, o, include_self=True)
            relevant_faulty |= transitive_fanin(
                self.faulty, self._pair[o], include_self=True
            )
        for f in self.faults:
            relevant_faulty |= transitive_fanin(
                self.faulty, f.line.signal, include_self=True
            )
        self._good_schedule: List[str] = [
            n for n in good.topological_order() if n in relevant_good
        ]
        self._faulty_schedule: List[str] = [
            n for n in self.faulty.topological_order() if n in relevant_faulty
        ]
        support = {
            pi
            for pi in good.inputs
            if pi in relevant_good or pi in relevant_faulty
        }
        self.support: Tuple[str, ...] = tuple(pi for pi in good.inputs if pi in support)
        self._stem_faults: Dict[str, int] = {}
        self._branch_faults: Dict[Tuple[str, int], int] = {}
        for f in self.faults:
            if f.line.is_stem:
                self._stem_faults[f.line.signal] = f.value
            else:
                self._branch_faults[(f.line.gate, f.line.pin)] = f.value

    # ------------------------------------------------------------------
    # affected-output analysis
    # ------------------------------------------------------------------
    def _find_affected_outputs(self) -> Tuple[str, ...]:
        """Value outputs that can possibly deviate.

        For the same-netlist mode these are the value outputs in the
        transitive fanout of some fault site.  For the two-circuit mode
        a memoized structural cone comparison is used: an output whose
        cone is gate-for-gate identical in both circuits (and fault
        free) can never differ.
        """
        fault_tfo: Set[str] = set()
        for f in self.faults:
            fault_tfo |= transitive_fanout(self.faulty, f.line.signal, include_self=True)
            if f.line.is_branch:
                fault_tfo |= transitive_fanout(self.faulty, f.line.gate, include_self=True)
        if self.same_netlist:
            return tuple(o for o in self.value_outputs if o in fault_tfo)

        same_cache: Dict[str, bool] = {}

        def cone_identical(signal: str) -> bool:
            stack = [signal]
            while stack:
                s = stack[-1]
                if s in same_cache:
                    stack.pop()
                    continue
                gin = self.good.is_input(s)
                fin = self.faulty.is_input(s) if self.faulty.has_signal(s) else None
                if not self.faulty.has_signal(s):
                    same_cache[s] = False
                    stack.pop()
                    continue
                if gin or fin:
                    same_cache[s] = bool(gin and fin)
                    stack.pop()
                    continue
                ga = self.good.gates[s]
                gb = self.faulty.gates[s]
                if ga.gtype != gb.gtype or ga.inputs != gb.inputs:
                    same_cache[s] = False
                    stack.pop()
                    continue
                pending = [src for src in ga.inputs if src not in same_cache]
                if pending:
                    stack.extend(pending)
                    continue
                same_cache[s] = all(same_cache[src] for src in ga.inputs)
                stack.pop()
            return same_cache[signal]

        affected = []
        for o in self.value_outputs:
            fo = self._pair[o]
            if o != fo or not cone_identical(o) or fo in fault_tfo:
                affected.append(o)
        return tuple(affected)

    # ------------------------------------------------------------------
    # dual three-valued simulation
    # ------------------------------------------------------------------
    def _simulate(self, assign: Dict[str, int]) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Good and faulty three-valued values under a partial assignment."""
        good: Dict[str, int] = {}
        faulty: Dict[str, int] = {}
        for pi in self.good.inputs:
            v = assign.get(pi, _X)
            good[pi] = v
            faulty[pi] = self._stem_faults.get(pi, v)
        for name in self._good_schedule:
            g = self.good.gates[name]
            good[name] = _eval3(g.gtype, [good[s] for s in g.inputs])
        for name in self._faulty_schedule:
            g = self.faulty.gates[name]
            fins: List[int] = []
            for pin, src in enumerate(g.inputs):
                ov = self._branch_faults.get((name, pin))
                fins.append(ov if ov is not None else faulty[src])
            fvv = _eval3(g.gtype, fins)
            sf = self._stem_faults.get(name)
            if sf is not None:
                fvv = sf
            faulty[name] = fvv
        return good, faulty

    def _bounds(self, good: Dict[str, int], faulty: Dict[str, int]) -> Tuple[int, int]:
        """Interval [Dmin, Dmax] of the weighted faulty-minus-good value."""
        dmin = 0
        dmax = 0
        for o in self.affected_outputs:
            w = self.weights[o]
            g, f = good[o], faulty[self._pair[o]]
            if g != _X and f != _X:
                d = w * (f - g)
                dmin += d
                dmax += d
            elif g != _X:  # f unknown
                dmin += w * (0 - g)
                dmax += w * (1 - g)
            elif f != _X:  # g unknown
                dmin += w * (f - 1)
                dmax += w * f
            else:
                dmin -= w
                dmax += w
        return dmin, dmax

    # ------------------------------------------------------------------
    # threshold query
    # ------------------------------------------------------------------
    def test_exists(self, threshold: int) -> EsResult:
        """Decide whether some vector yields ``|deviation| >= threshold``."""
        with self.obs.span("atpg.es_search"):
            res = self._test_exists(threshold)
        obs = self.obs
        obs.incr("es_atpg.queries")
        obs.incr("es_atpg.nodes", res.nodes)
        if res.status is EsStatus.ABORTED:
            obs.incr("es_atpg.aborts")
        return res

    def _test_exists(self, threshold: int) -> EsResult:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if not self.affected_outputs or self.max_weight_sum < threshold:
            # Structural refutation: not enough affected output weight.
            return EsResult(EsStatus.UNSAT, None, None, 0)

        assign: Dict[str, int] = {}
        nodes = 0
        pi_rank = self._pi_order()

        def complete_vector() -> Dict[str, int]:
            return {pi: assign.get(pi, 0) for pi in self.good.inputs}

        def search() -> Optional[EsResult]:
            nonlocal nodes
            nodes += 1
            if nodes > self.node_limit:
                return EsResult(EsStatus.ABORTED, None, None, nodes)
            good, faulty = self._simulate(assign)
            dmin, dmax = self._bounds(good, faulty)
            if max(abs(dmin), abs(dmax)) < threshold:
                return None  # bound: upper bound below threshold
            if dmin >= threshold or dmax <= -threshold:
                # lower bound above threshold: any completion is a test
                vec = complete_vector()
                dev = dmin if dmin >= threshold else dmax
                return EsResult(EsStatus.SAT, vec, dev, nodes)
            pi = next((p for p in pi_rank if p not in assign), None)
            if pi is None:
                # fully assigned: interval is a point
                if abs(dmin) >= threshold:
                    return EsResult(EsStatus.SAT, complete_vector(), dmin, nodes)
                return None
            for value in (1, 0):
                assign[pi] = value
                res = search()
                del assign[pi]
                if res is not None:
                    return res
            return None

        res = search()
        if res is not None:
            return res
        return EsResult(EsStatus.UNSAT, None, None, nodes)

    def _pi_order(self) -> List[str]:
        """Support PIs ranked by the weight of the outputs they reach."""
        score: Dict[str, int] = {pi: 0 for pi in self.support}
        for o in self.affected_outputs:
            cone = transitive_fanin(self.good, o, include_self=True)
            cone |= transitive_fanin(self.faulty, self._pair[o], include_self=True)
            w = self.weights[o]
            for pi in self.support:
                if pi in cone:
                    score[pi] += w
        return sorted(self.support, key=lambda p: -score[p])

    # ------------------------------------------------------------------
    # exact small-support path
    # ------------------------------------------------------------------
    def exact_max_deviation(self, chunk_vectors: int = 1 << 16) -> int:
        """Exact maximum |deviation| by exhausting the support PIs.

        The weighted deviation is a function of the support PIs only
        (non-support inputs cannot reach any affected output), so
        enumerating 2**|support| vectors with the bit-parallel
        simulator yields the *exact* ES.  Only the relevant cones are
        simulated (extracted with :func:`~repro.circuit.structure.subcircuit`)
        and memory is bounded by chunking the batch.  Intended for
        supports of ~22 PIs or fewer.
        """
        import numpy as np

        from ..circuit.structure import subcircuit
        from ..obs.core import NULL
        from ..simulation.compiled import CompiledSimulator
        from ..simulation.deviation import WeightedDeviation
        from ..simulation.vectors import pack_vectors

        s = len(self.support)
        if not self.affected_outputs:
            return 0
        faulty_names = [self._pair[o] for o in self.affected_outputs]
        fault_signals = [f.line.signal for f in self.faults]
        good_cone = subcircuit(self.good, self.affected_outputs)
        faulty_cone = subcircuit(self.faulty, list(faulty_names) + fault_signals)
        # Kernel counters describe the estimator's simulations; this
        # query reports its own effort as es_atpg.exact_vectors.
        good_sim = CompiledSimulator(good_cone, obs=NULL)
        faulty_sim = CompiledSimulator(faulty_cone, obs=NULL)
        pi_index = {pi: k for k, pi in enumerate(self.good.inputs)}
        support_idx = [pi_index[pi] for pi in self.support]
        n_in = len(self.good.inputs)
        deviation = WeightedDeviation(self.weights[o] for o in self.affected_outputs)
        total = 1 << s
        best = 0
        self.obs.incr("es_atpg.exact_vectors", total)
        for start in range(0, total, chunk_vectors):
            count = min(chunk_vectors, total - start)
            ints = np.arange(start, start + count, dtype=np.uint64)
            vecs = np.zeros((count, n_in), dtype=bool)
            for bit, idx in enumerate(support_idx):
                vecs[:, idx] = (ints >> np.uint64(bit)) & np.uint64(1)
            packed = pack_vectors(vecs)
            g = good_sim.run_packed(packed, count)
            f = faulty_sim.run_packed(packed, count, self.faults)
            gbits = g.output_bits(self.affected_outputs)
            fbits = f.output_bits(faulty_names)
            delta = fbits.astype(np.int8) - gbits.astype(np.int8)
            best = max(best, deviation.max_abs(delta))
        return best

    def decide(self, threshold: int, exhaustive_limit: int = 22) -> EsResult:
        """Threshold query via the cheapest sound strategy.

        Structural refutation first; exact support exhaustion when the
        support is small (returns an exact verdict); otherwise the
        branch-&-bound search of :meth:`test_exists` (which may abort
        at the node limit -- callers treat aborts as SAT, i.e. reject).
        """
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if not self.affected_outputs or self.max_weight_sum < threshold:
            self.obs.incr("es_atpg.structural_refutations")
            return EsResult(EsStatus.UNSAT, None, None, 0)
        if len(self.support) <= exhaustive_limit:
            with self.obs.span("atpg.es_exact"):
                exact = self.exact_max_deviation()
            self.obs.incr("es_atpg.exact_queries")
            if exact >= threshold:
                return EsResult(EsStatus.SAT, None, exact, 0)
            return EsResult(EsStatus.UNSAT, None, exact, 0)
        return self.test_exists(threshold)

    # ------------------------------------------------------------------
    # conservative ES estimation (paper Section IV.A)
    # ------------------------------------------------------------------
    def estimate_es(self, observed_lower_bound: int = 0) -> int:
        """Conservative ES via a power-of-two threshold sweep.

        Returns the smallest ``2**k`` for which the ATPG *refutes*
        ``|deviation| >= 2**k`` (the paper's rule: if a test exists for
        ``2**j`` but not for ``2**k``, take ES = ``2**k``), clipped to
        the structural maximum (the summed weight of affected outputs).
        ``observed_lower_bound`` -- e.g. the largest deviation seen
        during fault simulation -- lets the sweep skip thresholds that
        are already known to be achievable.  Aborted queries count as
        achievable (conservative).  Returns 0 when even a deviation of 1
        is refuted (the change is redundant w.r.t. the data outputs).
        """
        if not self.affected_outputs:
            return 0
        if len(self.support) <= 20:
            # Small support: the exhaustive path gives the exact ES.
            return self.exact_max_deviation()
        w_max = self.max_weight_sum
        k = 0
        if observed_lower_bound > 0:
            while (1 << k) <= observed_lower_bound:
                k += 1
        while (1 << k) <= w_max:
            res = self.test_exists(1 << k)
            if res.status is EsStatus.UNSAT:
                # No deviation >= 2**k exists; for k == 0 that means no
                # deviation at all (redundant w.r.t. the data outputs).
                return (1 << k) if k > 0 else 0
            k += 1
        # every threshold up to the structural maximum is achievable
        return w_max


def _eval3(gtype: GateType, values: List[int]) -> int:
    """Three-valued (0/1/X) gate evaluation with controlling-value
    short-circuits."""
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    if gtype is GateType.BUF:
        return values[0]
    if gtype is GateType.NOT:
        v = values[0]
        return _X if v == _X else v ^ 1
    if gtype in (GateType.AND, GateType.NAND):
        acc = 1
        for v in values:
            if v == 0:
                acc = 0
                break
            if v == _X:
                acc = _X
        if gtype is GateType.NAND:
            return _X if acc == _X else acc ^ 1
        return acc
    if gtype in (GateType.OR, GateType.NOR):
        acc = 0
        for v in values:
            if v == 1:
                acc = 1
                break
            if v == _X:
                acc = _X
        if gtype is GateType.NOR:
            return _X if acc == _X else acc ^ 1
        return acc
    if gtype in (GateType.XOR, GateType.XNOR):
        acc = 0
        for v in values:
            if v == _X:
                return _X
            acc ^= v
        if gtype is GateType.XNOR:
            return acc ^ 1
        return acc
    raise ValueError(f"unknown gate type {gtype!r}")
