"""Figure 13: IMP and partial accessing on in-order vs out-of-order cores
(pagerank and SGD), normalised to the baseline out-of-order core.

Paper: OoO execution improves the baseline, but IMP continues to provide
significant benefit on both core types.
"""

from benchmarks.conftest import bench_cores, bench_scale, record_table, run_once
from repro.experiments import figures


def test_fig13_ooo(benchmark):
    rows = run_once(benchmark, figures.fig13_ooo, n_cores=bench_cores(),
                    scale=bench_scale(), jobs=2)
    record_table("Figure 13: in-order vs out-of-order cores", rows)
    for row in rows:
        # The OoO baseline is the reference (1.0) and beats the in-order one.
        assert row["base_ooo"] == 1.0
        assert row["base_io"] <= 1.05
        # IMP helps both core designs.
        assert row["imp_io"] > row["base_io"]
        assert row["imp_ooo"] >= row["base_ooo"] * 0.98
