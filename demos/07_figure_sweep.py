"""Reproduce the benign-overfitting figure at demo scale.

A figure is a (d grid) x (mean scaling r) x (seeds) sweep; every run
trains to T, evaluates risks, and lands in one raw CSV row.  Aggregation
averages over seeds and the SVG panels are drawn from the aggregate only,
so the plots can be regenerated from the data files alone.  The full-size
protocol (d=1000, 10 seeds, T=1000) is what the acceptance suite runs;
this demo shrinks the grid to finish in seconds.
"""

import tempfile
from pathlib import Path

from advlab import ExperimentConfig, run_figure

outdir = Path(tempfile.gettempdir()) / "advlab_demo_figure"
cfg = ExperimentConfig(
    figure_id="risk_vs_d",
    name="benign_demo",
    n=50,
    eta=0.1,
    p=2.0,
    epsilon=0.1,
    r=(0.2, 0.3, 0.4),
    d_grid=(100, 300, 1000),
    T=400,
    alpha=1e-3,
    record_every=400,
    seeds=3,
    margins=False,
    eval="analytic",
    output_dir=str(outdir),
)

written = run_figure(cfg)
for kind, path in written.items():
    print(f"{kind:<8} {path}")

agg = (outdir / "benign_demo_agg.csv").read_text().strip().split("\n")
cols = agg[0].split(",")
i_d, i_r, i_t = cols.index("d"), cols.index("r"), cols.index("t")
i_adv = cols.index("adv_risk_mean")
print("\nadv risk at the final iterate (seed mean):")
print("d      r=0.2   r=0.3   r=0.4")
rows = [ln.split(",") for ln in agg[1:]]
final_t = max(int(row[i_t]) for row in rows)
for d in (100, 300, 1000):
    vals = {
        row[i_r]: float(row[i_adv])
        for row in rows
        if int(row[i_d]) == d and int(row[i_t]) == final_t
    }
    print(f"{d:<6} {vals['0.2']:.4f}  {vals['0.3']:.4f}  {vals['0.4']:.4f}")
print("\nlarger d and larger r push the risk toward the eta=0.1 floor")
