"""The README's quick start runs, and its sweep config reads, as written."""

import re
from pathlib import Path

from advlab.experiments import config_from_mapping, load_config_file

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (quick start)", "exec"), {})


def test_readme_sweep_config_reads(tmp_path):
    section = README.read_text().split("### Sweep config format", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "figure.cfg"
    path.write_text(block)
    cfg = config_from_mapping(load_config_file(str(path)))
    assert cfg.figure_id == "risk_vs_d"
    assert cfg.d_grid == (50, 200, 1000)
    assert cfg.r == (0.2, 0.3, 0.4)
    assert cfg.epsilon == 0.1 and cfg.p == 2.0
    assert (cfg.n, cfg.T, cfg.seeds, cfg.base_seed) == (50, 1000, 5, 0)
    assert all(type(v) is int for v in (cfg.n, cfg.T, cfg.seeds, cfg.base_seed) + cfg.d_grid)
    assert cfg.eta == 0.1 and cfg.alpha == 1e-3
    assert cfg.eval == "analytic" and cfg.output_dir == "results"
