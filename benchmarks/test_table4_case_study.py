"""Table 4 — the four-market case study (Sec. 5).

Paper rows (country, users, median capacity, nearest tier, price USD PPP,
GDP/capita, access cost as % of monthly income):

    Botswana      67   0.517   0.512   $100   $14,993   8.0%
    Saudi Arabia 120   4.21    4       $79    $29,114   3.3%
    US          3759   17.6    18      $53    $49,797   1.3%
    Japan         73   29.0    26      $37    $34,532   1.3%
"""

from repro.analysis.price import Table4Result, table4

from conftest import emit


def test_table4_case_study(benchmark, paper_world):
    result = benchmark.pedantic(
        table4,
        args=(paper_world.dasu.columns, paper_world.survey),
        rounds=3,
        iterations=1,
    )

    lines = []
    for row in result.rows:
        paper = Table4Result.PAPER_VALUES[row.country]
        lines.append(
            f"  {row.country:<13} users {paper[0]:>5}/{row.n_users:<5} "
            f"median {paper[1]:>6.2f}/{row.median_capacity_mbps:<7.2f} "
            f"tier {paper[2]:>5.1f}/{row.nearest_tier_mbps:<6.1f} "
            f"price ${paper[3]:>5.0f}/${row.price_usd_ppp:<6.0f} "
            f"income-share {100 * paper[5]:>4.1f}%/"
            f"{100 * row.cost_share_of_monthly_income:.1f}%"
        )
    emit("Table 4: case study (paper/measured)", lines)

    caps = {r.country: r.median_capacity_mbps for r in result.rows}
    shares = {r.country: r.cost_share_of_monthly_income for r in result.rows}
    prices = {r.country: r.price_usd_ppp for r in result.rows}

    # Capacity ordering: Botswana < Saudi Arabia < US, Japan high.
    assert caps["Botswana"] < 1.0
    assert caps["Botswana"] < caps["Saudi Arabia"] < caps["US"]
    assert caps["Japan"] > 10.0
    # Affordability ordering: 8.0% > 3.3% > 1.3% ~ 1.3%.
    assert shares["Botswana"] > shares["Saudi Arabia"] > shares["US"]
    assert abs(shares["Japan"] - shares["US"]) < 0.02
    # Typical-service price ordering (expensive markets, slow service).
    assert prices["Botswana"] > prices["US"]
    assert prices["Saudi Arabia"] > prices["Japan"]
