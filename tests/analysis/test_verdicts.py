"""Unit tests for executable paper-claim verification."""

from repro.analysis import (
    ClaimVerdict,
    FigureResult,
    render_verdicts,
    verdicts_markdown,
    verify_results,
)


def panel(figure_id, xs, series):
    result = FigureResult(
        figure_id=figure_id, title=figure_id, x_label="x", xs=list(xs)
    )
    for label, values in series.items():
        result.add_series(label, values)
    return result


def good_fig5():
    return [
        panel("fig5-cost-r0.1", [50, 100], {
            "Appro_Multi": [10.0, 20.0],
            "Alg_One_Server": [13.0, 26.0],
        }),
        panel("fig5-time-r0.1", [50, 100], {
            "Appro_Multi": [0.1, 0.2],
            "Alg_One_Server": [0.01, 0.02],
        }),
    ]


class TestVerify:
    def test_all_skipped_on_empty_run(self):
        verdicts = verify_results({})
        assert all(v.status == "SKIP" for v in verdicts)

    def test_fig5_claims_pass_on_good_data(self):
        verdicts = {
            v.claim_id: v for v in verify_results({"fig5": good_fig5()})
        }
        assert verdicts["fig5-cheaper"].status == "PASS"
        assert verdicts["fig5-gap-grows"].status == "PASS"
        assert verdicts["fig5-slower"].status == "PASS"
        # unrelated claims are skipped, not failed
        assert verdicts["fig8-throughput"].status == "SKIP"

    def test_fig5_cheaper_fails_when_baseline_wins(self):
        bad = good_fig5()
        bad[0] = panel("fig5-cost-r0.1", [50, 100], {
            "Appro_Multi": [14.0, 27.0],
            "Alg_One_Server": [13.0, 26.0],
        })
        verdicts = {
            v.claim_id: v for v in verify_results({"fig5": bad})
        }
        assert verdicts["fig5-cheaper"].status == "FAIL"

    def test_gap_shrink_fails(self):
        bad = good_fig5()
        bad[0] = panel("fig5-cost-r0.1", [50, 100], {
            "Appro_Multi": [10.0, 25.5],
            "Alg_One_Server": [13.0, 26.0],  # gap 3.0 -> 0.5
        })
        verdicts = {v.claim_id: v for v in verify_results({"fig5": bad})}
        assert verdicts["fig5-gap-grows"].status == "FAIL"

    def test_missing_series_degrades_to_fail(self):
        broken = [panel("fig5-cost-r0.1", [50], {"Appro_Multi": [1.0]})]
        verdicts = {v.claim_id: v for v in verify_results({"fig5": broken})}
        assert verdicts["fig5-cheaper"].status == "FAIL"
        assert "missing data" in verdicts["fig5-cheaper"].detail

    def test_fig8_claims(self):
        results = {"fig8": [panel("fig8-admitted", [50, 100, 150], {
            "Online_CP": [250.0, 280.0, 260.0],
            "SP": [200.0, 270.0, 255.0],
        })]}
        verdicts = {v.claim_id: v for v in verify_results(results)}
        assert verdicts["fig8-throughput"].status == "PASS"
        assert verdicts["fig8-nonmonotone"].status == "PASS"

    def test_fig8_monotone_flagged(self):
        results = {"fig8": [panel("fig8-admitted", [50, 100, 150], {
            "Online_CP": [250.0, 260.0, 270.0],
            "SP": [200.0, 210.0, 220.0],
        })]}
        verdicts = {v.claim_id: v for v in verify_results(results)}
        assert verdicts["fig8-nonmonotone"].status == "FAIL"


class TestRendering:
    def test_render_verdicts_counts(self):
        verdicts = verify_results({"fig5": good_fig5()})
        text = render_verdicts(verdicts)
        assert "paper-claim verification" in text
        assert "PASS" in text and "SKIP" in text
        assert "passed" in text and "skipped" in text

    def test_markdown_table(self):
        verdicts = [
            ClaimVerdict("a", "claim a", "PASS", "fine"),
            ClaimVerdict("b", "claim b", "FAIL", "oops"),
            ClaimVerdict("c", "claim c", "SKIP", ""),
        ]
        table = verdicts_markdown(verdicts)
        assert table.count("|") > 9
        assert "✅" in table and "❌" in table
