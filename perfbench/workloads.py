"""Workload definitions and the seeded CSV bundle each run trains on.

Each workload fixes one synthetic city and one training configuration (the
acceptance hyperparameters of the test suite: d=32, 2 heads, 3 layers,
lr=0.005, view.eps=0.3, skip-gram d_sg=32 with seed 11, and the default
probe). The workload seed shuffles the row order of every CSV file in the
bundle. The loader must undo that, so embeddings are bit-identical across
seeds. The city and the training seed stay fixed because the probe's lasso
sweep count, and with it ``probe_s``, changes by up to 3x from one city or
training seed to the next (see README.md).
"""

from __future__ import annotations

import os

import numpy as np

# city and training seed shared by every run of a workload
CITY_SEED = 0
TRAIN_SEED = 0

NOISY60 = dict(n_regions=60, n_categories=12, n_slots=4, n_trips=2000,
               noise_rate=0.3, n_clusters=6)
CITY2600 = dict(n_regions=200, n_categories=12, n_slots=12, n_trips=8000,
                noise_rate=0.3, n_clusters=6)

WORKLOADS = {
    # n=300: Python loops dominate (walks, candidate pairs, lasso sweeps)
    "noisy60": dict(city=NOISY60, variant="FULL", epochs=30),
    # n=2600: dense O(n^2) adjacencies and A @ H set time and memory
    "scale2600": dict(city=CITY2600, variant="FULL", epochs=3),
    # same city, uniform edge drops: bypasses view_generator and the reward
    "randaug2600": dict(city=CITY2600, variant="RANDOM_AUG", epochs=3),
}


def train_config(name: str):
    from regioncl.poi_embedding import SkipgramConfig
    from regioncl.trainer import TrainConfig
    from regioncl.view_generator import ViewGenConfig

    w = WORKLOADS[name]
    return TrainConfig(epochs=w["epochs"], lr=0.005, d=32, heads=2,
                       n_layers=3, skipgram=SkipgramConfig(d_sg=32, seed=11),
                       view=ViewGenConfig(eps=0.3), seed=TRAIN_SEED,
                       variant=w["variant"])


def write_bundle(name: str, seed: int, data_dir: str) -> None:
    """The workload's city as a CSV bundle with seed-shuffled row order."""
    from regioncl.region_data import (SynthConfig, synth_dataset,
                                      write_dataset)

    city = SynthConfig(seed=CITY_SEED, **WORKLOADS[name]["city"])
    write_dataset(synth_dataset(city), data_dir)
    rng = np.random.default_rng(seed)
    for fname in sorted(os.listdir(data_dir)):
        path = os.path.join(data_dir, fname)
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join([header] + [rows[i] for i in
                                           rng.permutation(len(rows))]))
            fh.write("\n")
