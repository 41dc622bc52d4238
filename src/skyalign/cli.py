"""Command-line entry point.

Subcommands cover the full pipeline: synthesize data, derive pseudo-labels,
train, embed, evaluate, ensemble, and run the two ablation sweeps.  Exit
codes: 0 success, 2 usage or config problem, 3 data problem, 4 numeric
failure.  A file that cannot be opened, read or written (an OSError) also
exits 3, with the one line ``io error: <strerror>: <filename>``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import ablations, binio, configio
from .dataset import CrossViewDataset, generate, relevance_maps
from .errors import ConfigError, DataError, NormDegenerate, NumericError
from .model import encode, load_checkpoint, save_checkpoint
from .pose_geometry import LabelConfig, generate_labels, read_manifest, write_labels, write_manifest
from .retrieval_eval import (
    EmbeddingSet,
    FUSION_RECIPROCAL_RANK,
    FUSION_SCORE_MEAN,
    ScoreTable,
    evaluate,
    fuse,
    read_relevance,
    score_table,
    table_metrics,
    truncate_dim,
    write_metrics,
    write_relevance,
)
from .trainer import train, write_train_log

FEATURES_NAME = "features.bin"
MANIFEST_NAME = "manifest.csv"
RELEVANCE_D2S_NAME = "relevance_drone2sat.csv"
RELEVANCE_S2D_NAME = "relevance_sat2drone.csv"
CHECKPOINT_NAME = "checkpoint.ckpt"
TRAIN_LOG_NAME = "train_log.csv"


def _require_file(path) -> str:
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    return path


def _int_list(text: str, flag: str, low: int) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None
    if min(values, default=low) < low:
        raise ConfigError(f"{flag} values must be >= {low}, got {text!r}")
    return values


def _bin_count(bins: int) -> int:
    if bins < 2:
        raise ConfigError(f"--bins must be >= 2, got {bins}")
    return bins


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"expected finite numbers, got {text!r}")
    return values


def cmd_gen_data(args) -> None:
    cfg = configio.load_gen_config(_require_file(args.config), {"seed": args.seed})
    os.makedirs(args.out, exist_ok=True)
    views, manifest = generate(cfg)
    binio.write_features(os.path.join(args.out, FEATURES_NAME), *views)
    write_manifest(manifest, os.path.join(args.out, MANIFEST_NAME))
    d2s, s2d = relevance_maps(manifest)
    write_relevance(d2s, os.path.join(args.out, RELEVANCE_D2S_NAME))
    write_relevance(s2d, os.path.join(args.out, RELEVANCE_S2D_NAME))
    print(f"wrote {len(views.ids)} views ({cfg.n_buildings} buildings, "
          f"{int(views.masked.sum())} masked) to {args.out}")


def cmd_gen_labels(args) -> None:
    label_cfg = LabelConfig(_bin_count(args.bins))
    manifest = read_manifest(_require_file(args.manifest))
    labels = generate_labels(manifest, label_cfg)
    write_labels(labels, args.out)
    n_masked = sum(1 for lab in labels if lab.masked)
    print(f"wrote {len(labels)} labels ({n_masked} masked) to {args.out}")


def cmd_train(args) -> None:
    cfg = configio.load_train_config(_require_file(args.config), {"seed": args.seed})
    features_path = _require_file(os.path.join(args.data, FEATURES_NAME))
    manifest = read_manifest(_require_file(os.path.join(args.data, MANIFEST_NAME)))
    dataset = CrossViewDataset.load(features_path, manifest, cfg.loss.bins)
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before training
    params, log = train(cfg, dataset)
    save_checkpoint(params, os.path.join(args.out, CHECKPOINT_NAME))
    write_train_log(log, os.path.join(args.out, TRAIN_LOG_NAME))
    print(f"trained {len(log)} steps; final loss {log[-1].loss_total:.6f}; "
          f"artifacts in {args.out}")


def cmd_embed(args) -> None:
    params = load_checkpoint(_require_file(args.checkpoint))
    ids, kinds, vectors, _, _ = binio.read_features(_require_file(args.features))
    if args.kind != "all":
        want = binio.KIND_SAT_CODE if args.kind == "sat" else binio.KIND_DRONE_CODE
        keep = [i for i, code in enumerate(kinds) if code == want]
        ids = [ids[i] for i in keep]
        vectors = vectors[keep]
    if vectors.shape[0] == 0:
        raise DataError(f"no views of kind {args.kind!r} in {args.features}")
    if vectors.shape[1] != params.input_dim:
        raise DataError(
            f"feature dim {vectors.shape[1]} != model input dim {params.input_dim}"
        )
    emb = encode(params, vectors.astype(np.float64))
    EmbeddingSet.from_rows(ids, emb).save(args.out)
    print(f"embedded {len(ids)} views -> {args.out}")


def _rows_named(where: str, make, *args):
    """make(*args), with a zero or non-finite row's error naming where."""
    try:
        return make(*args)
    except NormDegenerate as exc:
        raise NormDegenerate(f"{where}: {exc}") from None


def _load_query_gallery(args):
    if args.dim is not None and args.dim < 1:
        raise ConfigError(f"--dim must be >= 1, got {args.dim}")
    gallery = _rows_named(args.gallery, EmbeddingSet.load, _require_file(args.gallery))
    queries = _rows_named(args.queries, EmbeddingSet.load, _require_file(args.queries))
    if not queries.ids:
        raise DataError(f"{args.queries}: no query embeddings")
    if args.dim is not None:
        gallery = _rows_named(f"{args.gallery} with --dim {args.dim}",
                              truncate_dim, gallery, args.dim)
        queries = _rows_named(f"{args.queries} with --dim {args.dim}",
                              truncate_dim, queries, args.dim)
    return gallery, queries


def cmd_eval(args) -> None:
    ks = _int_list(args.k, "--k", 1)
    gallery, queries = _load_query_gallery(args)
    relevance = read_relevance(_require_file(args.relevance))
    dump = _checked_output(args.dump_scores) if args.dump_scores else contextlib.nullcontext()
    with _checked_output(args.out), dump:
        rows = evaluate(queries, gallery, relevance, ks)
        write_metrics(rows, args.out)
        if args.dump_scores:
            score_table(gallery, queries).save(args.dump_scores)
    for metric, k, value in rows:
        label = f"{metric}@{k}" if k else metric
        print(f"{label} = {value:.4f}")
    print(f"wrote metrics to {args.out}")


def cmd_ensemble(args) -> None:
    if len(args.scores) < 2:
        raise ConfigError("ensemble needs at least two score tables")
    ks = _int_list(args.k, "--k", 1)
    weights = _float_list(args.weights) if args.weights else None
    if weights is not None and len(weights) != len(args.scores):
        raise ConfigError(f"{len(weights)} weights for {len(args.scores)} score tables")
    with _checked_output(args.out):
        tables = [ScoreTable.load(_require_file(p)) for p in args.scores]
        relevance = read_relevance(_require_file(args.relevance))
        rows = table_metrics(fuse(tables, weights, args.fusion), relevance, ks)
        write_metrics(rows, args.out)
    for metric, k, value in rows:
        label = f"{metric}@{k}" if k else metric
        print(f"{label} = {value:.4f}")
    print(f"wrote fused metrics to {args.out}")


def _sweep_inputs(args):
    cfg = configio.load_train_config(_require_file(args.config), {"seed": args.seed})
    features_path = _require_file(os.path.join(args.data, FEATURES_NAME))
    manifest = read_manifest(_require_file(os.path.join(args.data, MANIFEST_NAME)))
    seeds = _int_list(args.seeds, "--seeds", 0)
    if not seeds:
        raise ConfigError("need at least one seed")
    return cfg, features_path, manifest, seeds


@contextlib.contextmanager
def _checked_output(path):
    """Raise now, before the command's work, the OSError that writing path
    would raise later; an existing file is left as it is.  If the command
    then fails, a file created by this check is removed again."""
    created = not os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    try:
        yield
    except BaseException:
        if created:
            os.remove(path)
        raise


def cmd_ablate_bins(args) -> None:
    cfg, features_path, manifest, seeds = _sweep_inputs(args)
    bins_list: list = []
    for tok in args.bins.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == ablations.BINS_NONE:
            bins_list.append(tok)
        else:
            try:
                bins = int(tok)
            except ValueError:
                raise ConfigError(f"bad bins entry {tok!r}") from None
            bins_list.append(_bin_count(bins))
    if not bins_list:
        raise ConfigError("need at least one bins setting")
    with _checked_output(args.out):
        rows = ablations.ablate_bins(features_path, manifest, cfg, bins_list, seeds)
        ablations.write_sweep_csv(rows, ["bins", "seed", "recall_at_1", "ap"], args.out)
    for setting, mean in ablations.summarize(rows, "bins").items():
        print(f"bins={setting}: mean R@1 = {mean:.4f}")
    print(f"wrote sweep to {args.out}")


def cmd_ablate_dim(args) -> None:
    cfg, features_path, manifest, seeds = _sweep_inputs(args)
    dims = _int_list(args.dims, "--dims", 1)
    if not dims:
        raise ConfigError("need at least one dim")
    with _checked_output(args.out):
        rows = ablations.ablate_dim(features_path, manifest, cfg, dims, seeds)
        ablations.write_sweep_csv(rows, ["embed_dim", "seed", "recall_at_1", "ap"], args.out)
    for setting, mean in ablations.summarize(rows, "embed_dim").items():
        print(f"embed_dim={setting}: mean R@1 = {mean:.4f}")
    print(f"wrote sweep to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None,
                        help="override the config seed")

    parser = argparse.ArgumentParser(
        prog="skyalign",
        description="orientation-guided cross-view matching experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[shared],
                       help="synthesize features, poses, and relevance files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gen-labels", parents=[shared],
                       help="orientation pseudo-labels from a pose manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_labels)

    p = sub.add_parser("train", parents=[shared], help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", parents=[shared],
                       help="encode a feature file into embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=["all", "sat", "drone"], default="all")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", parents=[shared],
                       help="Recall@K and mean AP for a query set")
    p.add_argument("--gallery", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--relevance", required=True)
    p.add_argument("--k", default="1,5,10")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=None,
                   help="truncate embeddings to this many leading dims")
    p.add_argument("--dump-scores", default=None,
                   help="also write the dense score table for ensembling")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ensemble", parents=[shared],
                       help="fuse score tables and re-evaluate")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--relevance", required=True)
    p.add_argument("--k", default="1,5,10")
    p.add_argument("--out", required=True)
    p.add_argument("--fusion", choices=[FUSION_SCORE_MEAN, FUSION_RECIPROCAL_RANK],
                   default=FUSION_SCORE_MEAN)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("ablate-bins", parents=[shared],
                       help="sweep orientation bin counts (and none)")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", default="4,8,16,32,none")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.set_defaults(func=cmd_ablate_bins)

    p = sub.add_parser("ablate-dim", parents=[shared],
                       help="sweep embedding dimension")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dims", default="32,64,128")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.set_defaults(func=cmd_ablate_dim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc.strerror or exc}: {exc.filename}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
