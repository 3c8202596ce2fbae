"""ISCAS85 .bench format parsing and serialization."""

import random
import re

import pytest

from repro.circuit import (
    BenchParseError,
    CircuitError,
    GateType,
    dumps_bench,
    loads_bench,
)
from repro.simulation import LogicSimulator, exhaustive_vectors

C17_BENCH = """
# c17 benchmark
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def test_parse_c17():
    c = loads_bench(C17_BENCH, name="c17")
    assert c.inputs == ("G1", "G2", "G3", "G6", "G7")
    assert c.outputs == ("G22", "G23")
    assert c.num_gates == 6
    assert c.gate("G16").gtype is GateType.NAND


def test_parse_comments_and_blank_lines():
    c = loads_bench("# only comment\n\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)  # inline\n")
    assert c.num_gates == 1


def test_gate_aliases():
    c = loads_bench(
        "INPUT(a)\nOUTPUT(z)\nx = INV(a)\ny = BUFF(x)\nz = XNOR(x, y)\n"
    )
    assert c.gate("x").gtype is GateType.NOT
    assert c.gate("y").gtype is GateType.BUF
    assert c.gate("z").gtype is GateType.XNOR


def test_out_of_order_definitions():
    # gates referenced before they are defined
    c = loads_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(y)\ny = NOT(a)\n")
    assert c.num_gates == 2


def test_dff_rejected():
    with pytest.raises(BenchParseError):
        loads_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")


def test_unknown_gate_rejected():
    with pytest.raises(BenchParseError):
        loads_bench("INPUT(a)\nOUTPUT(z)\nz = MAJ3(a, a, a)\n")


def test_garbage_rejected():
    with pytest.raises(BenchParseError):
        loads_bench("this is not bench\n")


def test_roundtrip_preserves_function(c17):
    text = dumps_bench(c17)
    back = loads_bench(text, name="c17rt")
    vecs = exhaustive_vectors(5)
    a = LogicSimulator(c17).run(vecs).output_bits()
    b = LogicSimulator(back).run(vecs).output_bits()
    assert (a == b).all()


def test_roundtrip_file(tmp_path, c17):
    from repro.circuit import dump_bench, load_bench

    path = tmp_path / "c17.bench"
    dump_bench(c17, path)
    back = load_bench(path)
    assert back.name == "c17"
    assert back.num_gates == c17.num_gates


_FUZZ_TOKENS = [
    "(", ")", "=", ",", "#", " ", "\n", "INPUT", "OUTPUT", "NAND", "AND", "NOT",
    "BUFF", "XOR", "DFF", "CONST0", "CONST1", "FOO", "G1", "G10", "G22", "G99", "",
]


def _mutate(text, rng):
    """One random edit of ``text``: a character, a token or a line."""
    lines = text.split("\n")
    op = rng.randrange(6)
    if op == 0 and text:  # delete a character
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    if op == 1:  # insert a token
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice(_FUZZ_TOKENS) + text[i:]
    if op == 2:  # replace one word with a token
        words = list(re.finditer(r"[A-Za-z0-9_]+", text))
        if words:
            m = rng.choice(words)
            return text[: m.start()] + rng.choice(_FUZZ_TOKENS) + text[m.end():]
    if op == 3:  # duplicate a line
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
    elif op == 4 and len(lines) > 1:  # delete a line
        del lines[rng.randrange(len(lines))]
    elif op == 5 and len(lines) > 1:  # swap two lines
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def test_mutated_bench_text_fails_only_with_typed_errors():
    """Perturbed c17 text parses or raises a netlist error; no other
    exception type escapes the parser."""
    rng = random.Random(16)
    parsed = rejected = 0
    for _ in range(3000):
        text = C17_BENCH
        for _ in range(rng.randint(1, 4)):
            text = _mutate(text, rng)
        try:
            loads_bench(text)
        except (BenchParseError, CircuitError):
            rejected += 1
        else:
            parsed += 1
    assert parsed and rejected  # the mutations reach both outcomes
