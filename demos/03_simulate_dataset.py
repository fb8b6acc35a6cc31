"""Simulate a full experiment and serialize it.

Run: python3 demos/03_simulate_dataset.py
"""
import tempfile
from pathlib import Path

from bracketlab import (
    MixtureComposition,
    PopulationSpec,
    Treatment,
    population_digest,
    read_csv,
    simulate_dataset,
    summarize_means,
    write_csv,
)
from bracketlab.reports import render_means_markdown

spec = PopulationSpec(
    counts={Treatment.BROAD: 150, Treatment.NARROW: 150, Treatment.LOW: 150},
    seed=42,
    composition=MixtureComposition(0.7),  # 70% narrow, 30% broad bracketers
    tremble=0.02,
)
print(f"population digest {population_digest(spec)} (hash of every parameter)")

dataset = simulate_dataset(spec)
print(f"simulated {len(dataset)} subjects, 2 price lists each")

# Per-subject identical RNG streams across treatments: subject j in
# NARROW shares draws with subject j in LOW, so a narrow bracketer
# produces bit-identical rows in both arms.
narrow = {r.subject_id: r for r in dataset.records if r.treatment is Treatment.NARROW}
low = {r.subject_id: r for r in dataset.records if r.treatment is Treatment.LOW}
same = sum(
    narrow[f"NARROW-{j:04d}"].outcomes == low[f"LOW-{j:04d}"].outcomes for j in range(150)
)
print(f"{same}/150 paired subjects answered NARROW and LOW identically")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "experiment.csv"
    write_csv(dataset, str(path))
    print(f"\nwrote {path.stat().st_size} bytes; first rows:")
    for line in path.read_text().splitlines()[:3]:
        print(f"  {line}")
    assert read_csv(str(path)) == dataset  # lossless round trip

print("\ncell summary (consistent scenarios only):")
print(render_means_markdown(summarize_means(dataset)))
