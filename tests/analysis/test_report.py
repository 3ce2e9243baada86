"""Text rendering of results."""

from repro.analysis.common import binned_demand_curve
from repro.analysis.report import (
    format_curve,
    format_experiment_row,
    format_paper_vs_measured,
)
from repro.core.experiments import NaturalExperiment


def experiment_result(holds=70, total=100):
    control = [0.0] * holds + [1.0] * (total - holds)
    treatment = [1.0] * holds + [0.0] * (total - holds)
    return NaturalExperiment("demo").evaluate(control, treatment)


class TestFormatExperimentRow:
    def test_contains_both_values(self):
        row = format_experiment_row("demo", 66.8, experiment_result())
        assert "66.8%" in row
        assert "70.0%" in row

    def test_insignificant_marked(self):
        row = format_experiment_row("demo", None, experiment_result(52, 100))
        assert "*" in row

    def test_no_paper_value(self):
        row = format_experiment_row("demo", None, experiment_result())
        assert "-" in row

    def test_empty_result(self):
        row = format_experiment_row("demo", 50.0, experiment_result(0, 0))
        assert "n/a" in row


class TestFormatCurve:
    def test_renders_every_bin(self, dasu_users):
        curve = binned_demand_curve(dasu_users, "peak", include_bt=False)
        text = format_curve("peak demand", curve)
        assert text.count("Mbps") >= len(curve.points)
        assert "r =" in text


class TestFormatPaperVsMeasured:
    def test_plain_values(self):
        text = format_paper_vs_measured(
            "title", [("median capacity", 7.4, 6.9)]
        )
        assert "7.400" in text and "6.900" in text

    def test_percent_mode(self):
        text = format_paper_vs_measured(
            "title", [("share", 0.10, 0.14)], as_percent=True
        )
        assert "10.0%" in text and "14.0%" in text
