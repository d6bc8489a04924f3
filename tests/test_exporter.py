"""Prometheus exposition: rendering stability and the live endpoint."""

import re
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

import repro.obs as obs
from repro.obs import MetricsRegistry, MetricsServer, render_prometheus
from repro.obs.exporter import CONTENT_TYPE, _metric_name

#: Text-exposition grammar (version 0.0.4): a metric name, an optional
#: label set whose values escape ``\``, ``"`` and newline, and a value.
_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL_VALUE = r'(?:[^"\\\n]|\\\\|\\"|\\n)*'
_LABELS = rf'\{{{_NAME}="{_LABEL_VALUE}"(?:,{_NAME}="{_LABEL_VALUE}")*\}}'
_VALUE = r"(?:[+-]?(?:\d+\.?\d*(?:e[+-]?\d+)?|Inf)|NaN)"
_SAMPLE_LINE = re.compile(rf"^{_NAME}(?:{_LABELS})? {_VALUE}$")
_TYPE_LINE = re.compile(
    rf"^# TYPE {_NAME} (?:counter|gauge|histogram|summary|untyped)$"
)


def assert_valid_exposition(text):
    """Every line of ``text`` must match the text-format grammar."""
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("# TYPE"):
            assert _TYPE_LINE.match(line), f"bad TYPE line: {line!r}"
        elif line.startswith("#"):
            continue  # HELP/comment lines — free-form
        else:
            assert _SAMPLE_LINE.match(line), f"bad sample line: {line!r}"


def _worked_registry():
    reg = MetricsRegistry()
    reg.counter("datagen.solves").inc(5)
    reg.gauge("fleet.load").set(0.75)
    for v in (1e-4, 2e-4, 5e-4, 1e-3):
        reg.timer("monitor.step").record(v)
    return reg


class TestRenderPrometheus:
    def test_deterministic_for_fixed_state(self):
        reg = _worked_registry()
        assert render_prometheus(reg) == render_prometheus(reg)

    def test_structure(self):
        text = render_prometheus(_worked_registry())
        lines = text.splitlines()
        assert text.endswith("\n")
        assert "# TYPE repro_obs_up gauge" in lines
        assert "repro_obs_up 1" in lines
        assert "# TYPE repro_datagen_solves_total counter" in lines
        assert "repro_datagen_solves_total 5" in lines
        assert "repro_fleet_load 0.75" in lines
        assert "# TYPE repro_monitor_step_seconds histogram" in lines
        assert "repro_monitor_step_seconds_count 4" in lines

    def test_histogram_buckets_cumulative_and_capped(self):
        text = render_prometheus(_worked_registry())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_monitor_step_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # the +Inf bucket holds every sample
        inf_lines = [l for l in text.splitlines() if 'le="+Inf"' in l]
        assert len(inf_lines) == 1

    def test_histogram_sum_is_exact_total(self):
        reg = _worked_registry()
        text = render_prometheus(reg)
        (sum_line,) = [
            l
            for l in text.splitlines()
            if l.startswith("repro_monitor_step_seconds_sum")
        ]
        assert float(sum_line.split(" ")[1]) == reg.timer("monitor.step").total

    def test_disabled_registry_renders_up_zero(self):
        text = render_prometheus(MetricsRegistry(enabled=False))
        assert "repro_obs_up 0" in text.splitlines()

    def test_namespace_override_and_sanitization(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.v2").inc()
        text = render_prometheus(reg, namespace="acme")
        assert "acme_weird_name_v2_total 1" in text.splitlines()

    def test_metric_name_leading_digit_guard(self):
        assert _metric_name("", "9lives")[0] == "_"

    def test_fully_invalid_metric_name_still_renders(self):
        assert _metric_name("", "") == "_"  # empty-name guard
        assert _metric_name("", "...") == "___"
        reg = MetricsRegistry()
        reg.counter("...").inc()
        assert_valid_exposition(render_prometheus(reg, namespace=""))

    def test_nasty_names_produce_valid_exposition(self):
        """End-to-end grammar check over hostile instrument names."""
        reg = MetricsRegistry()
        for shard in (
            "shard-a.b",
            'we"ird',
            "back\\slash",
            "line\nbreak",
            "dots.and-dashes",
        ):
            reg.counter(f"monitor.batch_cycles[{shard}]").inc()
            reg.timer(f"monitor.run_batch[{shard}]").record(1e-3)
        reg.counter("9starts.with-digit").inc()
        reg.gauge("weird-gauge.v2[a.b-c]").set(0.5)
        assert_valid_exposition(render_prometheus(reg))

    def test_worked_registry_exposition_is_grammatical(self):
        assert_valid_exposition(render_prometheus(_worked_registry()))


class TestMetricsServer:
    def test_scrape_round_trip(self):
        reg = _worked_registry()
        with MetricsServer(reg, port=0) as server:
            assert server.running
            with urlopen(f"{server.url}/metrics") as response:
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
        assert body == render_prometheus(reg)
        assert not server.running

    def test_port_zero_binds_free_port(self):
        server = MetricsServer(MetricsRegistry(), port=0).start()
        try:
            assert server.port != 0
            assert str(server.port) in server.url
        finally:
            server.stop()

    def test_health_and_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            with urlopen(f"{server.url}/health") as response:
                assert response.status == 200
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{server.url}/nope")
            assert excinfo.value.code == 404

    def test_stop_is_idempotent(self):
        server = MetricsServer(MetricsRegistry(), port=0).start()
        server.stop()
        server.stop()
        assert not server.running

    def test_registry_none_follows_active_registry(self):
        with MetricsServer(port=0) as server:
            with obs.use_registry(MetricsRegistry()) as reg:
                reg.counter("late.binding").inc(3)
                with urlopen(f"{server.url}/metrics") as response:
                    body = response.read().decode("utf-8")
        assert "repro_late_binding_total 3" in body.splitlines()

    def test_live_updates_between_scrapes(self):
        reg = MetricsRegistry()
        with MetricsServer(reg, port=0) as server:
            reg.counter("ticks").inc()
            with urlopen(f"{server.url}/metrics") as r:
                first = r.read().decode("utf-8")
            reg.counter("ticks").inc(2)
            with urlopen(f"{server.url}/metrics") as r:
                second = r.read().decode("utf-8")
        assert "repro_ticks_total 1" in first.splitlines()
        assert "repro_ticks_total 3" in second.splitlines()
