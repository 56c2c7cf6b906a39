"""Unit tests for the table/figure generators (tiny campaigns)."""

from repro.analysis import Aggregate
from repro.experiments.campaigns import Campaign
from repro.experiments.figures import FIGURES
from repro.experiments.tables import TABLE1_METRICS, format_table1, table1


def _tiny_campaign():
    return Campaign(duration=8.0, trials=1, num_nodes_small=12,
                    num_nodes_large=16)


def test_table1_structure():
    campaign = _tiny_campaign()
    results = table1(2, campaign=campaign, protocols=("ldr", "aodv"))
    assert set(results) == {"ldr", "aodv"}
    for metrics in results.values():
        assert set(metrics) == {key for key, _ in TABLE1_METRICS}
        # one sample per (2 node counts x pauses x 1 trial)
        expected = 2 * len(campaign.pauses())
        assert len(metrics["delivery_ratio"].values) == expected


def test_format_table1_renders_all_rows():
    campaign = _tiny_campaign()
    results = table1(2, campaign=campaign, protocols=("ldr",))
    text = format_table1(results, 2)
    assert "LDR" in text
    assert "Delivery" in text
    assert "±" in text


def test_figure_delivery_series_shape():
    campaign = Campaign(duration=6.0, trials=1)
    series = FIGURES["fig2"].run(campaign)
    points = series["ldr"]
    assert [p[0] for p in points] == campaign.pauses()
    for _, mean, ci, completed, planned in points:
        assert 0.0 <= mean <= 1.0
        assert ci >= 0.0
        assert completed == planned == 1


def test_figure_seqno_has_four_series():
    campaign = Campaign(duration=6.0, trials=1)
    series = FIGURES["fig7"].run(campaign)
    assert set(series) == {"ldr-low", "ldr-high", "aodv-low", "aodv-high"}


def test_figure_qualnet_uses_dsr7():
    campaign = Campaign(duration=6.0, trials=1, num_nodes_small=12)
    series = FIGURES["fig6"].run(campaign)
    assert "dsr7" in series and "dsr" not in series


def test_format_series_renders():
    text = FIGURES["fig7"].render({"ldr-low": [(0, 0.95, 0.01, 1, 1)]})
    assert FIGURES["fig7"].title in text
    assert "mean destination seqno" in text
    assert "ldr-low" in text
    assert "0.9500" in text


def test_partial_cells_print_dashes_and_coverage():
    text = FIGURES["fig2"].render({"ldr": [
        (0, 0.95, 0.01, 2, 2), (11, 0.9, 0.0, 1, 2), (45, None, None, 0, 2),
    ]})
    lines = text.splitlines()
    assert lines[0] == FIGURES["fig2"].title
    assert lines[3:] == ["           0 | 0.9500 ± 0.0100",
                         "          11 | 0.9000 ± 0.0000  (1/2 trials)",
                         "          45 | --"]

    metrics = [key for key, _ in TABLE1_METRICS]
    results = {"ldr": {key: Aggregate([0.5, 0.7]) for key in metrics}}
    assert format_table1(results, 10, {"ldr": 2}) == \
        format_table1(results, 10)
    results["aodv"] = {key: Aggregate([]) for key in metrics}
    lines = format_table1(results, 10, {"ldr": 3, "aodv": 2}).splitlines()
    assert lines[1].endswith("cov")
    assert lines[3].endswith("2/3")
    assert lines[4].split() == ["AODV"] + ["--"] * 6 + ["0/2"]
