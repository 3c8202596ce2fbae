"""Additional ES-ATPG coverage: chunking, the kept reference words, abort
paths, support sets."""

import itertools

import numpy as np
import pytest

from repro.atpg import EsAtpg, EsStatus, Podem, AtpgStatus
from repro.atpg.es_atpg import _REFERENCE_VIEW
from repro.circuit import GateType
from repro.faults import StuckAtFault, enumerate_faults
from repro.benchlib import build_adder_circuit
from repro.simplify import simplify_with_faults


@pytest.fixture(scope="module")
def adder8():
    return build_adder_circuit(8)


def test_exact_max_deviation_chunking(adder8):
    carry = [n for n in adder8.gates if adder8.gates[n].gtype.name == "OR"][3]
    fault = StuckAtFault.stem(carry, 1)
    atpg = EsAtpg(adder8, faults=[fault])
    full = atpg.exact_max_deviation()
    chunked = atpg.exact_max_deviation(chunk_vectors=64)
    assert full == chunked
    assert len(atpg.support) > 6  # several 64-vector chunks
    # The kept reference words do not depend on the chunk size that
    # filled them: fill with one size, read with the other.
    for fill, read in ((1 << 16, 64), (64, 1 << 16)):
        good = adder8.copy()
        assert EsAtpg(good, faults=[fault]).exact_max_deviation(chunk_vectors=fill) == full
        entry = good.views[_REFERENCE_VIEW]
        assert EsAtpg(good, faults=[fault]).exact_max_deviation(chunk_vectors=read) == full
        assert good.views[_REFERENCE_VIEW] is entry


# ----------------------------------------------------------------------
# the structural reference's words, kept as one view of the reference
# ----------------------------------------------------------------------
def _fresh_value(good, **kwargs):
    """The exact ES against a copy of ``good``, which holds no views."""
    return EsAtpg(good.copy(), **kwargs).exact_max_deviation()


def test_reference_words_serve_every_tentative_with_one_key(adder4):
    """Different simplified netlists with one (affected outputs, support)
    key read one kept entry, and each value equals the value computed
    with no views."""
    good = adder4.copy()
    full_key = (tuple(good.value_outputs), tuple(good.inputs))
    faults = enumerate_faults(adder4)[::3]
    entry = None
    values = []
    for f1, f2 in itertools.combinations(faults, 2):
        if f1.line == f2.line:
            continue
        faulty = simplify_with_faults(adder4, [f1, f2])
        atpg = EsAtpg(good, faulty=faulty)
        if (atpg.affected_outputs, atpg.support) != full_key:
            continue
        value = atpg.exact_max_deviation()
        assert value == _fresh_value(good, faulty=faulty), (f1, f2)
        if entry is None:
            entry = good.views[_REFERENCE_VIEW]
            assert entry[0] == full_key
        assert good.views[_REFERENCE_VIEW] is entry  # read, not rebuilt
        values.append(value)
    assert len(values) > 20 and len(set(values)) > 3


def test_a_new_key_replaces_the_reference_words(adder4):
    """A new affected-output set, then a new support for the same set:
    each query leaves exactly one entry, keyed by its own query."""
    good = adder4.copy()
    low = good.value_outputs[0]  # XOR(a0, b0)
    narrow = EsAtpg(good, faults=[StuckAtFault.stem(low, 1)])
    gate = good.gates[low]
    outside = next(pi for pi in good.inputs if pi not in narrow.support)
    rewired = good.copy()
    rewired.replace_gate(low, gate.gtype, [gate.inputs[0], outside])
    wide = EsAtpg(good, faulty=rewired)
    first = EsAtpg(good, faults=[StuckAtFault.stem(good.value_outputs[-1], 0)])
    assert narrow.affected_outputs == wide.affected_outputs == (low,)
    assert narrow.support != wide.support
    assert first.affected_outputs != narrow.affected_outputs
    view_names = None
    for atpg, kwargs in (
        (first, dict(faults=first.faults)),
        (narrow, dict(faults=narrow.faults)),
        (wide, dict(faulty=rewired)),
    ):
        assert atpg.exact_max_deviation() == _fresh_value(good, **kwargs)
        assert good.views[_REFERENCE_VIEW][0] == (atpg.affected_outputs, atpg.support)
        if view_names is None:
            view_names = set(good.views)
        assert set(good.views) == view_names  # replaced, never added beside


def test_a_mutation_of_the_reference_drops_its_words(adder4):
    good = adder4.copy()
    faulty = simplify_with_faults(adder4, [StuckAtFault.stem(good.value_outputs[2], 1)])
    EsAtpg(good, faulty=faulty).exact_max_deviation()
    assert _REFERENCE_VIEW in good.views
    top = good.value_outputs[-1]
    good.replace_gate(top, GateType.NOR, good.gates[top].inputs)
    assert _REFERENCE_VIEW not in good.views
    atpg = EsAtpg(good, faulty=faulty)
    assert atpg.exact_max_deviation() == _fresh_value(good, faulty=faulty)


@pytest.mark.parametrize("chunk", [100, 0, -64])
def test_exact_max_deviation_needs_word_aligned_chunks(adder8, chunk):
    carry = [n for n in adder8.gates if adder8.gates[n].gtype.name == "OR"][3]
    atpg = EsAtpg(adder8, faults=[StuckAtFault.stem(carry, 1)])
    with pytest.raises(ValueError, match="multiple of 64"):
        atpg.exact_max_deviation(chunk_vectors=chunk)


def test_support_set_is_minimal(adder8):
    s0 = adder8.outputs[0]
    atpg = EsAtpg(adder8, faults=[StuckAtFault.stem(s0, 0)])
    # sum bit 0 depends only on a0/b0
    assert set(atpg.support) == {"a0", "b0"}


def test_bb_abort_reported(adder8):
    """A tiny node budget forces the branch-&-bound path to abort."""
    cout = adder8.outputs[8]
    atpg = EsAtpg(adder8, faults=[StuckAtFault.stem(cout, 1)], node_limit=3)
    res = atpg.test_exists(1)
    assert res.status in (EsStatus.SAT, EsStatus.ABORTED)
    if res.status is EsStatus.ABORTED:
        assert res.nodes > 3


def test_podem_abort_path(adder8):
    """A zero backtrack budget aborts on any fault needing backtracks."""
    podem = Podem(adder8, backtrack_limit=0)
    statuses = {podem.run(f).status for f in
                [StuckAtFault.stem(adder8.outputs[8], 0),
                 StuckAtFault.stem(adder8.outputs[0], 0)]}
    # with no backtracks allowed the result is testable or aborted,
    # never a bogus redundancy claim
    assert AtpgStatus.REDUNDANT not in statuses


def test_empty_fault_set_is_clean(adder8):
    atpg = EsAtpg(adder8, faults=[])
    assert atpg.affected_outputs == ()
    assert atpg.decide(1).status is EsStatus.UNSAT
    assert atpg.test_exists(1).status is EsStatus.UNSAT


def test_multiple_faults_union_support(adder8):
    # aligned polarities: both faults can push the value the same way
    f1 = StuckAtFault.stem(adder8.outputs[0], 1)
    f2 = StuckAtFault.stem(adder8.outputs[2], 1)
    atpg = EsAtpg(adder8, faults=[f1, f2])
    assert {"a0", "b0", "a2", "b2"} <= set(atpg.support)
    assert set(atpg.affected_outputs) == {adder8.outputs[0], adder8.outputs[2]}
    # both bits gained simultaneously: deviation reaches 1 + 4
    assert atpg.exact_max_deviation() == 5
    # opposite polarities cannot exceed the larger single effect
    atpg2 = EsAtpg(
        adder8,
        faults=[StuckAtFault.stem(adder8.outputs[0], 0), f2],
    )
    assert atpg2.exact_max_deviation() == 4
