"""ER/ES/RS metric records and normalization."""

import pytest

from repro.metrics import ErrorMetrics, rs_max, rs_percent


def make(er=0.5, es=8, **kw):
    defaults = dict(er=er, es=es, rs_maximum=31, num_vectors=1000)
    defaults.update(kw)
    return ErrorMetrics(**defaults)


def test_rs_product():
    m = make(er=0.25, es=8)
    assert m.rs == 2.0
    assert m.rs_pct == pytest.approx(100 * 2.0 / 31)


def test_rs_max_weighted(adder4):
    # 4 sum bits + carry: 1+2+4+8+16
    assert rs_max(adder4) == 31


def test_rs_max_data_only(adder4_ctl):
    assert rs_max(adder4_ctl) == 31  # control output excluded


def test_rs_max_explicit_outputs(adder4):
    assert rs_max(adder4, value_outputs=adder4.outputs[:2]) == 3


def test_rs_percent_zero_max():
    assert rs_percent(5.0, 0) == 0.0


def test_str_contains_fields():
    s = str(make())
    assert "ER=" in s and "ES=" in s and "RS=" in s


def test_observed_es_reads_es():
    assert make(es=8).observed_es == 8
