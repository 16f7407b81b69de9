"""Tests for the same-bits digests that ``bench/digest.py`` prints per workload and tree."""

from __future__ import annotations

import importlib.util
import shutil
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("digest", ROOT / "bench" / "digest.py")
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)

#: A few operations: a density chain first, then a run, a sweep, an oracle check, an
#: entangle grid and a large run, each of its own workload's first draw.
OPS = [
    ("lib-density", 1, 0, 0),
    ("cli-small", 1, 0, 0),
    ("cli-small", 1, 0, 4),
    ("cli-small", 2, 1, 140),
    ("cli-entangle", 1, 0, 0),
    ("cli-large", 3, 2, 0),
]


def tree_copy(tmp_path: Path, name: str) -> Path:
    """A tree of its own holding a copy of this checkout's ``src/pisim``."""
    shutil.copytree(ROOT / "src" / "pisim", tmp_path / name / "src" / "pisim")
    return tmp_path / name


@pytest.fixture(scope="module")
def here() -> list[dict]:
    return digest.outputs(ROOT, OPS)


def test_the_operations_cover_every_seed_draw_and_slot():
    ops = digest.operations()
    slots = {"cli-small": 150, "cli-entangle": 40, "cli-large": 29, "lib-density": 40}
    assert Counter(op[0] for op in ops) == {w: 3 * 4 * n for w, n in slots.items()}
    assert len(set(ops)) == len(ops) and ops[0] == ("cli-small", 1, 0, 0)


def test_each_record_holds_what_its_workload_hashes(here):
    assert [record["workload"] for record in here] == [op[0] for op in OPS]
    density, run, *_ = here
    assert density["parts"][0] == "lib-density:1:0:0" and len(density["parts"]) == 3
    assert float.fromhex(density["parts"][1]) == pytest.approx(1.0, abs=0.5)
    key, stderr, csv = run["parts"]
    assert (key, stderr) == ("cli-small:1:0:0:0", "")
    assert csv.startswith("outcome,probability\n") and run["scenario"].startswith("command = run")


def test_two_identical_trees_give_equal_digests(here, tmp_path):
    copy = digest.outputs(tree_copy(tmp_path, "copy"), OPS)
    assert copy == here
    lines, same = digest.report({"here": here, "copy": copy})
    assert same and lines[-1] == "copy: every digest equals here's"
    assert sorted(digest.digests(copy)) == sorted(digest.WORKLOADS)


def test_a_changed_fmt_is_reported_at_its_first_differing_operation(here, tmp_path):
    tree = tree_copy(tmp_path, "changed")
    cli = tree / "src" / "pisim" / "cli.py"
    cli.write_text(cli.read_text().replace('".12g")', '".11g")', 1))
    changed = digest.outputs(tree, OPS)
    assert digest.first_difference(here, changed) == 1  # the density chain prints no text
    lines, same = digest.report({"here": here, "changed": changed})
    assert not same
    assert "changed: differs from here; first at operation 1:" in lines
    before, after = digest.digests(here), digest.digests(changed)
    assert before["lib-density"] == after["lib-density"]
    assert before["cli-small"] != after["cli-small"]
    shown = lines[lines.index("--- changed") :]
    assert shown[1] == here[1]["scenario"].rstrip("\n") and shown[2] == ">>> cli-small:1:0:0:0"


def test_the_parts_are_length_prefixed():
    split = [{"workload": "cli-small", "parts": ["ab", "c"]}]
    moved = [{"workload": "cli-small", "parts": ["a", "bc"]}]
    assert digest.digests(split) != digest.digests(moved)
