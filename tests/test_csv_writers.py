"""The one CSV dialect: every CSV writer except the score table goes through
errors.write_csv and writes the bytes its own csv.writer wrote before,
whatever its ids hold; and no other code under src/ drives a csv writer."""

import ast
import os

import numpy as np
import pytest

from skyalign import ablations
from skyalign.pose_geometry import (
    MASKED_BIN,
    Labels,
    Manifest,
    read_manifest,
    write_labels,
    write_manifest,
)
from skyalign.retrieval_eval import read_relevance, write_metrics, write_relevance
from skyalign.trainer import TrainLogRow, read_train_log, write_train_log

from oracles import (
    label_records,
    own_writer_metrics,
    own_writer_relevance,
    own_writer_sweep_csv,
    own_writer_train_log,
    record_write_labels,
    record_write_manifest,
    records_of,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "skyalign")

# a delimiter, a quote, a line break, a lone carriage return, leading and
# trailing blanks, non-ASCII letters and an astral-plane character
IDS = ["plain", "a,b", 'say "hi"', "two\r\nlines", "cr\ronly", " pad ", "Zürich", "東京",
       "\U0001F681"]


def same_bytes(tmp_path, write, reference, *args):
    write(*args, tmp_path / "shared.csv")
    reference(*args, tmp_path / "own.csv")
    data = (tmp_path / "shared.csv").read_bytes()
    assert data == (tmp_path / "own.csv").read_bytes()
    return data


def test_relevance(tmp_path):
    rel = {qid: {IDS[(i + 1) % len(IDS)], IDS[(i + 3) % len(IDS)]} for i, qid in enumerate(IDS)}
    data = same_bytes(tmp_path, write_relevance, own_writer_relevance, rel)
    assert b'"a,b"' in data and b'"say ""hi"""' in data and b'"two\r\nlines"' in data
    assert read_relevance(tmp_path / "shared.csv") == rel


def test_metrics(tmp_path):
    rows = [("recall", 1, 0.25), ("recall", 10, 1 / 3), ("ap", "", np.float32(0.1)),
            *((name, 5, 0.5) for name in IDS)]
    same_bytes(tmp_path, write_metrics, own_writer_metrics, rows)


def test_manifest(tmp_path):
    n = len(IDS)
    m = Manifest([f"{v}/{i}" for i, v in enumerate(IDS)], IDS[::-1], np.arange(n) % 3 == 0,
                 np.random.default_rng(3).standard_normal((n, 3)) * 1e3, np.arange(n) % 4 != 1)
    write_manifest(m, tmp_path / "shared.csv")
    record_write_manifest(records_of(m), tmp_path / "own.csv")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()
    back = read_manifest(tmp_path / "shared.csv")
    assert back.view_ids == m.view_ids and back.building_ids == m.building_ids
    assert np.array_equal(back.xyz, m.xyz)


def test_labels(tmp_path):
    n = len(IDS)
    azimuth = np.linspace(0.0, 359.9, n)
    bins = (azimuth // 45).astype(np.int64)
    azimuth[1::3], bins[1::3] = np.nan, MASKED_BIN
    labels = Labels(list(IDS), IDS[::-1], azimuth, bins)
    write_labels(labels, tmp_path / "shared.csv")
    record_write_labels(label_records(labels), tmp_path / "own.csv")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()


def test_train_log(tmp_path):
    rows = [TrainLogRow(step, 1e-3 * step, 1 / (step + 1), 0.1 + step, -0.0)
            for step in range(5)]
    same_bytes(tmp_path, write_train_log, own_writer_train_log, rows)
    assert read_train_log(tmp_path / "shared.csv") == rows


@pytest.mark.parametrize("key,settings", [("bins", ["4", "none", *IDS]),
                                          ("embed_dim", [8, 16, 32])])
def test_sweep(tmp_path, key, settings):
    rows = [{key: setting, "seed": seed, "recall_at_1": 1 / (seed + 3), "ap": 0.5}
            for setting in settings for seed in (0, 7)]
    ablations.write_sweep_csv(rows, [key, "seed", "recall_at_1", "ap"], tmp_path / "shared.csv")
    own_writer_sweep_csv(rows, [key, "seed", "recall_at_1", "ap"], tmp_path / "own.csv")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()


CSV_WRITERS = {"writer", "DictWriter"}
ALLOWED = {"errors.write_csv", "retrieval_eval.ScoreTable.save"}


def csv_writer_uses(module: str, tree: ast.AST) -> set[str]:
    """The qualified name of each function or class body of module that names
    csv.writer or csv.DictWriter, or imports either from csv."""
    uses = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr in CSV_WRITERS
                    and isinstance(child.value, ast.Name) and child.value.id == "csv") or (
                    isinstance(child, ast.ImportFrom) and child.module == "csv"
                    and CSV_WRITERS & {alias.name for alias in child.names}):
                uses.add(".".join(scope))
            visit(child, scope)

    visit(tree, [module])
    return uses


def test_csv_writers_only_in_write_csv_and_score_table_save():
    uses = set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                uses |= csv_writer_uses(name[:-3], ast.parse(fh.read()))
    assert uses == ALLOWED


def test_rule_sees_each_way_of_naming_a_writer():
    code = ("import csv\nfrom csv import DictWriter as W\n"
            "def f(fh):\n    return csv.writer(fh)\n"
            "class C:\n    def g(self, fh):\n        w = csv.DictWriter\n")
    assert csv_writer_uses("m", ast.parse(code)) == {"m", "m.f", "m.C.g"}
