"""Additional ES-ATPG coverage: chunking, abort paths, support sets."""

import numpy as np
import pytest

from repro.atpg import EsAtpg, EsStatus, Podem, AtpgStatus
from repro.faults import StuckAtFault
from repro.benchlib import build_adder_circuit


@pytest.fixture(scope="module")
def adder8():
    return build_adder_circuit(8)


def test_exact_max_deviation_chunking(adder8):
    carry = [n for n in adder8.gates if adder8.gates[n].gtype.name == "OR"][3]
    atpg = EsAtpg(adder8, faults=[StuckAtFault.stem(carry, 1)])
    full = atpg.exact_max_deviation()
    chunked = atpg.exact_max_deviation(chunk_vectors=64)
    assert full == chunked


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
    assert atpg.estimate_es() == 0
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
