"""Command-line entry point.

Subcommands cover the full pipeline: synthesize data, derive pseudo-labels,
train, embed, evaluate, ensemble, and run the two ablation sweeps.  Exit
codes: 0 success, 2 usage or config problem, 3 data problem, 4 numeric
failure or out of memory.  A file that cannot be opened, read or written
(an OSError) also exits 3, with the one line
``io error: <strerror>: <filename>``, or ``io error: <strerror>`` when the
error names no file.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import shutil
import sys

import numpy as np

from . import ablations, binio, configio
from .dataset import CrossViewDataset, generate, relevance_maps
from .errors import ConfigError, DataError, DuplicateId, NormDegenerate, NumericError
from .model import encode, load_checkpoint, save_checkpoint
from .pose_geometry import LabelConfig, generate_labels, read_manifest, write_labels, write_manifest
from .retrieval_eval import (
    EmbeddingSet,
    FUSION_RECIPROCAL_RANK,
    FUSION_SCORE_MEAN,
    ScoreTable,
    check_weights,
    evaluate,
    fused_metrics,
    read_relevance,
    score_table,
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


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"expected finite numbers, got {text!r}")
    return values


def _same_file(a, b) -> bool:
    """a and b resolve to one path, or both exist and are one file."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return False


def _distinct_outputs(outputs, inputs) -> None:
    """Raise ConfigError, before any work, when an output (flag, path) names
    the same file as a later output or an input; an output whose path is
    None was not asked for."""
    outputs = [(f, p) for f, p in outputs if p is not None]
    for i, (flag, path) in enumerate(outputs):
        for other, other_path in outputs[i + 1:] + inputs:
            if _same_file(path, other_path):
                raise ConfigError(f"{flag} and {other} name the same file: {path}")


def cmd_gen_data(args) -> None:
    cfg = configio.load_gen_config(_require_file(args.config), {"seed": args.seed})
    with _checked_output(args.out, directory=True) as out:
        views, manifest = generate(cfg)
        binio.write_features(out(FEATURES_NAME), *views)
        write_manifest(manifest, out(MANIFEST_NAME))
        d2s, s2d = relevance_maps(manifest)
        write_relevance(d2s, out(RELEVANCE_D2S_NAME))
        write_relevance(s2d, out(RELEVANCE_S2D_NAME))
    print(f"wrote {len(views.ids)} views ({cfg.n_buildings} buildings, "
          f"{int(views.masked.sum())} masked) to {args.out}")


def cmd_gen_labels(args) -> None:
    _distinct_outputs([("--out", args.out)], [("--manifest", args.manifest)])
    label_cfg = LabelConfig(args.bins)
    with _checked_output(args.out):
        labels = generate_labels(read_manifest(_require_file(args.manifest)), label_cfg)
        write_labels(labels, args.out)
    n_masked = int(np.isnan(labels.azimuth_deg).sum())
    print(f"wrote {len(labels.view_ids)} labels ({n_masked} masked) to {args.out}")


def cmd_train(args) -> None:
    cfg = configio.load_train_config(_require_file(args.config), {"seed": args.seed})
    features_path = _require_file(os.path.join(args.data, FEATURES_NAME))
    manifest = read_manifest(_require_file(os.path.join(args.data, MANIFEST_NAME)))
    dataset = CrossViewDataset.load(features_path, manifest, cfg.loss.bins)
    with _checked_output(args.out, directory=True) as out:
        params, log = train(cfg, dataset)
        save_checkpoint(params, out(CHECKPOINT_NAME))
        write_train_log(log, out(TRAIN_LOG_NAME))
    print(f"trained {len(log)} steps; final loss {log[-1].loss_total:.6f}; "
          f"artifacts in {args.out}")


def cmd_embed(args) -> None:
    _distinct_outputs([("--out", args.out)],
                      [("--checkpoint", args.checkpoint), ("--features", args.features)])
    with _checked_output(args.out):
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
        EmbeddingSet.from_rows(ids, encode(params, vectors)).save(args.out)
    print(f"embedded {len(ids)} views -> {args.out}")


def _rows_named(where: str, make, *args):
    """make(*args), with a zero or non-finite row's or a repeated id's error
    naming where."""
    try:
        return make(*args)
    except (NormDegenerate, DuplicateId) as exc:
        raise type(exc)(f"{where}: {exc}") from None


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


def _print_metrics(rows, wrote: str) -> None:
    for metric, k, value in rows:
        label = f"{metric}@{k}" if k else metric
        print(f"{label} = {value:.4f}")
    print(wrote)


def cmd_eval(args) -> None:
    _distinct_outputs([("--out", args.out), ("--dump-scores", args.dump_scores)],
                      [("--gallery", args.gallery), ("--queries", args.queries),
                       ("--relevance", args.relevance)])
    ks = _settings(_int_list(args.k, "--k", 1), "--k", "k")
    gallery, queries = _load_query_gallery(args)
    relevance = read_relevance(_require_file(args.relevance))
    dump = _checked_output(args.dump_scores) if args.dump_scores else contextlib.nullcontext()
    with _checked_output(args.out), dump:
        rows = evaluate(queries, gallery, relevance, ks)
        table = score_table(gallery, queries) if args.dump_scores else None  # before any write
        write_metrics(rows, args.out)
        if table is not None:
            table.save(args.dump_scores)
    _print_metrics(rows, f"wrote metrics to {args.out}")


def cmd_ensemble(args) -> None:
    if len(args.scores) < 2:
        raise ConfigError("ensemble needs at least two score tables")
    _distinct_outputs([("--out", args.out)],
                      [("--scores", p) for p in args.scores] + [("--relevance", args.relevance)])
    ks = _settings(_int_list(args.k, "--k", 1), "--k", "k")
    weights = _float_list(args.weights) if args.weights else None
    if weights is not None:
        if len(weights) != len(args.scores):
            raise ConfigError(f"{len(weights)} weights for {len(args.scores)} score tables")
        check_weights(weights, len(weights))
    for path in [*args.scores, args.relevance]:  # before any table is parsed
        _require_file(path)
    with _checked_output(args.out):
        tables = [ScoreTable.load(p) for p in args.scores]
        relevance = read_relevance(args.relevance)
        rows = fused_metrics(tables, relevance, ks, weights, args.fusion)
        write_metrics(rows, args.out)
    _print_metrics(rows, f"wrote fused metrics to {args.out}")


@contextlib.contextmanager
def _checked_output(path, directory: bool = False):
    """Raise now, before the command's work, the OSError that writing the
    file path (or into the directory path) would raise later; an existing
    file or directory is left as it is.  If the command then fails, what this
    check created is removed again: the file, or the outermost directory it
    made, with everything the command wrote into it.

    A directory check yields artefact(name), the temporary path
    <path>/<name>.partial to write that artefact to.  Only once the command
    has returned are they all moved to their names, so a failed run into an
    existing directory leaves its earlier artefacts as they were, and its
    temporary files are removed."""
    created = None
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        created, head = head, os.path.dirname(head)
    if directory:
        os.makedirs(path, exist_ok=True)
    else:
        open(path, "a", encoding="utf-8").close()
    partial = {}

    def artefact(name: str) -> str:
        partial[name] = os.path.join(path, name + ".partial")
        return partial[name]

    try:
        yield artefact if directory else None
        for name, tmp in partial.items():
            os.replace(tmp, os.path.join(path, name))
    except BaseException:
        for tmp in partial.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        if created is not None:
            (shutil.rmtree if directory else os.remove)(created)
        raise


def _settings(values: list, flag: str, what: str) -> list:
    """values, which must hold at least one value and repeat none."""
    if not values:
        raise ConfigError(f"need at least one {what}")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ConfigError(f"{flag} repeats {repeated}")
    return values


def _run_sweep(args, key: str, flag: str, what: str, parse_settings) -> None:
    """Read a sweep's inputs, then parse_settings(), run ablations.sweep over
    them and write its CSV, with key as the settings column, and print each
    setting's mean R@1."""
    features_path = os.path.join(args.data, FEATURES_NAME)
    manifest_path = os.path.join(args.data, MANIFEST_NAME)
    _distinct_outputs([("--out", args.out)],
                      [("--config", args.config), (f"--data {FEATURES_NAME}", features_path),
                       (f"--data {MANIFEST_NAME}", manifest_path)])
    cfg = configio.load_train_config(_require_file(args.config))
    _require_file(features_path)
    manifest = read_manifest(_require_file(manifest_path))
    seeds = _settings(_int_list(args.seeds, "--seeds", 0), "--seeds", "seed")
    settings = _settings(parse_settings(), flag, what)
    with _checked_output(args.out):
        rows = ablations.sweep(features_path, manifest, cfg, key, settings, seeds)
        ablations.write_sweep_csv(rows, [key, "seed", "recall_at_1", "ap"], args.out)
    for setting, mean in ablations.summarize(rows, key).items():
        print(f"{key}={setting}: mean R@1 = {mean:.4f}")
    print(f"wrote sweep to {args.out}")


def cmd_ablate_bins(args) -> None:
    def bins_list() -> list:
        bins: list = []
        for tok in filter(None, map(str.strip, args.bins.split(","))):
            try:
                bins.append(tok if tok == ablations.BINS_NONE else LabelConfig(int(tok)).bins)
            except ValueError:
                raise ConfigError(f"bad bins entry {tok!r}") from None
        return bins
    _run_sweep(args, "bins", "--bins", "bins setting", bins_list)


def cmd_ablate_dim(args) -> None:
    _run_sweep(args, "embed_dim", "--dims", "dim", lambda: _int_list(args.dims, "--dims", 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyalign",
        description="orientation-guided cross-view matching experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize features, poses, and relevance files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gen-labels", help="orientation pseudo-labels from a pose manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_labels)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="encode a feature file into embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=["all", "sat", "drone"], default="all")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="Recall@K and mean AP for a query set")
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

    p = sub.add_parser("ensemble", help="fuse score tables and re-evaluate")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--relevance", required=True)
    p.add_argument("--k", default="1,5,10")
    p.add_argument("--out", required=True)
    p.add_argument("--fusion", choices=[FUSION_SCORE_MEAN, FUSION_RECIPROCAL_RANK],
                   default=FUSION_SCORE_MEAN)
    p.set_defaults(func=cmd_ensemble)

    # the sweeps match no flag prefixes, so that a --seed is refused, not taken as --seeds
    p = sub.add_parser("ablate-bins", help="sweep orientation bin counts (and none)",
                       allow_abbrev=False)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", default="4,8,16,32,none")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.set_defaults(func=cmd_ablate_bins)

    p = sub.add_parser("ablate-dim", help="sweep embedding dimension", allow_abbrev=False)
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
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"io error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
