"""OpenMetrics rendering + the text-format grammar validator."""

import pytest

from repro.obs import Instrumentation, render_openmetrics, validate_openmetrics


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def test_render_counters_gauges_timers_info():
    obs = Instrumentation()
    obs.incr("kernel.runs", 7)
    obs.gauge_max("batchsim.cone_gates_max", 12)
    with obs.span("greedy"):
        with obs.span("rank"):
            pass
    text = render_openmetrics(
        obs.snapshot(), info={"circuit": "c17", "status": "complete"}
    )
    assert validate_openmetrics(text) == 3
    assert "# TYPE repro_run info" in text
    assert 'repro_run_info{circuit="c17",status="complete"} 1' in text
    assert "# TYPE repro_kernel_runs counter" in text
    assert "repro_kernel_runs_total 7" in text
    assert "# TYPE repro_gauge_batchsim_cone_gates_max gauge" in text
    assert "repro_gauge_batchsim_cone_gates_max 12" in text
    assert "repro_phase" not in text  # span timers are the journal's
    assert text.endswith("# EOF\n")


def test_render_handles_timer_tuples_and_none_info():
    snap = {"timers": {"greedy": (1.5, 3)}, "counters": {}, "gauges": {}}
    text = render_openmetrics(snap, info={"circuit": None})
    assert validate_openmetrics(text) == 0
    assert text == "# EOF\n"  # no timers, and all-None info collapses


def test_render_sanitizes_names_and_escapes_labels():
    snap = {"counters": {"weird.name-with%chars": 1}}
    text = render_openmetrics(snap, info={"circuit": 'c"17\\x\nnl'})
    validate_openmetrics(text)
    assert "repro_weird_name_with_chars_total 1" in text
    assert 'repro_run_info{circuit="c\\"17\\\\x\\nnl"} 1' in text


def test_render_same_raw_name_as_counter_and_gauge_is_legal():
    # distinct family prefixes keep this from being a duplicate TYPE
    snap = {"counters": {"x": 1}, "gauges": {"x": 2.5}}
    text = render_openmetrics(snap)
    validate_openmetrics(text)
    assert "repro_x_total 1" in text
    assert "repro_gauge_x 2.5" in text


def test_render_special_float_values():
    snap = {"gauges": {"nan": float("nan"), "inf": float("inf"), "flt": 0.25}}
    text = render_openmetrics(snap)
    validate_openmetrics(text)
    assert "repro_gauge_nan NaN" in text
    assert "repro_gauge_inf +Inf" in text
    assert "repro_gauge_flt 0.25" in text


def test_validator_rejects_bare_histogram_sample():
    # histogram samples must carry one of the histogram suffixes
    text = "# TYPE repro_x histogram\nrepro_x 1\n# EOF\n"
    with pytest.raises(ValueError, match="no preceding TYPE"):
        validate_openmetrics(text)


# ----------------------------------------------------------------------
# validator rejections
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "text, match",
    [
        ("repro_x_total 1\n", "terminate with '# EOF'"),
        ("# EOF", "end with a newline"),
        ("# EOF\nrepro_x 1\n# EOF\n", "content after"),
        ("\n# EOF\n", "blank line"),
        ("# TYPE repro_x counter\nrepro_x_total nope\n# EOF\n", "bad sample value"),
        ("# TYPE 9bad counter\n# EOF\n", "bad metric family name"),
        ("# TYPE repro_x wat\n# EOF\n", "bad TYPE line"),
        (
            "# TYPE repro_x counter\n# TYPE repro_x counter\n# EOF\n",
            "declared twice",
        ),
        ("repro_x_total 1\n# EOF\n", "no preceding TYPE"),
        # counter samples must carry a counter suffix
        ("# TYPE repro_x counter\nrepro_x 1\n# EOF\n", "no preceding TYPE"),
        # gauge samples must be bare
        ("# TYPE repro_x gauge\nrepro_x_total 1\n# EOF\n", "no preceding TYPE"),
        (
            '# TYPE repro_x counter\nrepro_x_total{9bad="v"} 1\n# EOF\n',
            "malformed label set",
        ),
    ],
)
def test_validate_rejects(text, match):
    with pytest.raises(ValueError, match=match):
        validate_openmetrics(text)


def test_validate_counts_samples():
    text = (
        "# TYPE repro_a counter\n"
        "repro_a_total 1\n"
        "# TYPE repro_b gauge\n"
        "repro_b 2\n"
        "# EOF\n"
    )
    assert validate_openmetrics(text) == 2
