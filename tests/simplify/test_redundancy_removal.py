"""Classical redundancy removal: function preserved, area reduced."""

from pathlib import Path

import numpy as np
import pytest

from repro.circuit import CircuitBuilder, dumps_bench, load_bench
from repro.simplify import remove_redundancies
from repro.simulation import LogicSimulator, exhaustive_vectors, random_vectors

DATA = Path(__file__).resolve().parents[1] / "data"


def consensus_circuit():
    """z = ab + a'c + bc: the bc term is redundant (consensus)."""
    b = CircuitBuilder("consensus")
    a, x, c = b.input("a"), b.input("b"), b.input("c")
    na = b.NOT(a)
    t1 = b.AND(a, x, name="t1")
    t2 = b.AND(na, c, name="t2")
    t3 = b.AND(x, c, name="t3")
    b.output(b.OR(t1, t2, t3, name="z"))
    return b.build()


def same_function(a, b):
    vecs = exhaustive_vectors(len(a.inputs))
    ra = LogicSimulator(a).run(vecs).output_bits(a.outputs)
    rb = LogicSimulator(b).run(vecs).output_bits(b.outputs)
    return bool((ra == rb).all())


def test_consensus_removed():
    ckt = consensus_circuit()
    res = remove_redundancies(ckt)
    assert res.removed_faults  # the bc term is redundant
    assert res.area_reduction > 0
    assert res.area_reduction_pct > 0
    assert same_function(ckt, res.simplified)


def test_irredundant_untouched(c17):
    res = remove_redundancies(c17)
    assert not res.removed_faults
    assert res.simplified.area() == c17.area()
    assert res.rounds == 1


def test_result_converges():
    ckt = consensus_circuit()
    res = remove_redundancies(ckt)
    # running again on the result finds nothing more
    res2 = remove_redundancies(res.simplified)
    assert not res2.removed_faults


def test_adder_is_irredundant(adder4):
    res = remove_redundancies(adder4)
    assert not res.removed_faults


def c880():
    """c880 as ``.bench`` text, built under ``PYTHONHASHSEED=0``."""
    return load_bench(DATA / "c880.bench", name="c880")


def test_c880_rounds_past_a_contradicting_constant():
    """By round 4 an earlier injection has left a constant that a
    candidate stem fault contradicts; the round passes over that class
    instead of raising ``CircuitError``."""
    ckt = c880()
    res = remove_redundancies(ckt, max_rounds=4)
    assert len(res.removed_faults) == 4
    assert res.area_reduction > 0
    vecs = random_vectors(len(ckt.inputs), 2000, np.random.default_rng(3))
    ra = LogicSimulator(ckt).run(vecs).output_bits(ckt.outputs)
    rb = LogicSimulator(res.simplified).run(vecs).output_bits(ckt.outputs)
    assert (ra == rb).all()


@pytest.mark.parametrize(
    "build, rounds", [(consensus_circuit, 50), (c880, 4)], ids=["consensus", "c880"]
)
def test_screen_keeps_the_removed_sequence(build, rounds, monkeypatch):
    """A class some screen vector detects is testable, so screening
    before PODEM leaves the first class proven redundant unchanged."""
    from repro.simplify import redundancy

    ckt = build()
    screened = remove_redundancies(ckt, max_rounds=rounds)
    monkeypatch.setattr(
        redundancy,
        "_prescreen_survivors",
        lambda circuit, classes, seed, obs=None: list(classes.members.items()),
    )
    unscreened = remove_redundancies(ckt, max_rounds=rounds)
    assert screened.removed_faults == unscreened.removed_faults
    assert screened.removed_faults
    assert dumps_bench(screened.simplified) == dumps_bench(unscreened.simplified)
