"""Sweep runners: train/evaluate grids over orientation bin counts and
embedding dimensions, reporting Drone2Sat retrieval quality per seed."""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np

from . import binio
from .dataset import CrossViewDataset
from .model import ModelParams, encode
from .objectives import MODE_CLASSIFICATION, MODE_NONE
from .pose_geometry import PoseRecord
from .retrieval_eval import EmbeddingSet, evaluate
from .trainer import TrainConfig, train

BINS_NONE = "none"


def drone2sat_metrics(params: ModelParams, dataset: CrossViewDataset,
                      ks: list[int] | None = None) -> dict[str, float]:
    """Retrieve each drone view against the satellite gallery.

    Returns {"recall@k": ..., "ap": ...} with every drone view as a query
    and its building's satellite view as the single relevant item.
    """
    ks = ks or [1]
    gallery = EmbeddingSet.from_rows(dataset.sat_view_ids, encode(params, dataset.sat_inputs))
    queries = EmbeddingSet.from_rows(dataset.drone_view_ids, encode(params, dataset.drone_inputs))
    relevance = {
        did: {dataset.sat_view_ids[dataset.drone_building_idx[i]]}
        for i, did in enumerate(dataset.drone_view_ids)
    }
    return {f"recall@{k}" if metric == "recall" else "ap": value
            for metric, k, value in evaluate(queries, gallery, relevance, ks)}


def train_and_score(cfg: TrainConfig, dataset: CrossViewDataset) -> dict[str, float]:
    params, _ = train(cfg, dataset)
    return drone2sat_metrics(params, dataset)


def ablate_bins(features_path, manifest: list[PoseRecord], base: TrainConfig,
                bins_list: list, seeds: list[int]) -> list[dict]:
    """Sweep orientation supervision: integer bin counts, or "none" for the
    contrastive-only baseline.  The feature file is read once and the
    dataset re-binned per setting."""
    views = binio.read_features(features_path)
    rows = []
    for setting in bins_list:
        if setting == BINS_NONE:
            dataset = CrossViewDataset(views, manifest, base.loss.bins)
            loss = replace(base.loss, orientation_mode=MODE_NONE)
        else:
            bins = int(setting)
            dataset = CrossViewDataset(views, manifest, bins)
            loss = replace(base.loss, orientation_mode=MODE_CLASSIFICATION, bins=bins)
        for seed in seeds:
            cfg = replace(base, seed=seed, loss=loss)
            scores = train_and_score(cfg, dataset)
            rows.append({"bins": str(setting), "seed": seed,
                         "recall_at_1": scores["recall@1"], "ap": scores["ap"]})
    return rows


def ablate_dim(features_path, manifest: list[PoseRecord], base: TrainConfig,
               dims: list[int], seeds: list[int]) -> list[dict]:
    """Sweep the embedding width on a fixed dataset."""
    dataset = CrossViewDataset.load(features_path, manifest, base.loss.bins)
    rows = []
    for dim in dims:
        for seed in seeds:
            cfg = replace(base, seed=seed, embed_dim=int(dim))
            scores = train_and_score(cfg, dataset)
            rows.append({"embed_dim": int(dim), "seed": seed,
                         "recall_at_1": scores["recall@1"], "ap": scores["ap"]})
    return rows


def summarize(rows: list[dict], group_key: str) -> dict:
    """Mean recall_at_1 per distinct group value."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[group_key], []).append(row["recall_at_1"])
    return {k: float(np.mean(v)) for k, v in groups.items()}


def write_sweep_csv(rows: list[dict], fieldnames: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
