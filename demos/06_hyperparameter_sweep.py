"""Small hyperparameter sweep with paired seeds.

Sweeps the rejection rate over a reduced task (fewer batches, smaller
model) with 2 repeats per value; each repeat reuses the same seed across
values so comparisons are paired. Results land in a sweep directory with
one run folder per cell and an aggregated sweep.csv; the directory is a
temporary one, removed when the demo ends.
"""
import json
import tempfile
from pathlib import Path

from gmmadapt import RunConfig, default_config
from gmmadapt.runner import run_sweep

doc = default_config().to_dict()
doc.update({"n_batches": 50, "fd": 64, "n_init": 20, "source_epochs": 4})
base = RunConfig.from_dict(doc)

with tempfile.TemporaryDirectory(prefix="gmmadapt_sweep_") as tmp:
    out_dir = Path(tmp)
    rows = run_sweep(base, "p_reject", values=[25, 50, 75], repeats=2, out_dir=out_dir)

    print(f"sweep directory: {out_dir}\n")
    print((out_dir / "sweep.csv").read_text())
    one = json.loads((out_dir / "p_reject=50_rep0" / "summary.json").read_text())
    print(f"one cell's full-run H-score: {one['full_run']['h_score']:.3f}")
