"""CLI output bytes against the committed golden digests.

A change that moves output bits on purpose regenerates the digests with
``tests/golden/regen.py`` and says why in CHANGES.md.
"""
import contextlib
import importlib.util
import io
import json
import os

import pytest

from ghzlattice.cli import run

_HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_spec = importlib.util.spec_from_file_location("golden_regen", os.path.join(_HERE, "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

with open(regen.DIGESTS, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def test_corpus_covers_every_plan_token_and_file():
    tables = len(regen.TABLES) * len(regen.FORMATS)
    assert len(GOLDEN) == len(regen.PLANS) * len(regen.TOKENS) * len(regen.PLAN_FILES) + tables


@pytest.mark.parametrize("name", list(regen.PLANS))
def test_cli_output_matches_golden_digests(name):
    got = regen.compute({name: regen.PLANS[name]})
    want = {k: v for k, v in GOLDEN.items() if k.startswith(f"{name} ")}
    moved = sorted(k for k in want if got.get(k) != want[k])
    assert got.keys() == want.keys()
    assert not moved, f"output bytes moved: {moved}"


@pytest.mark.parametrize("name", list(regen.PLANS))
def test_uncertified_nodes_name_a_failed_check(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["plan", *regen.PLANS[name][0]]) == 0
    payload = json.loads(out.getvalue())
    for rec in payload["certificate"]:
        if not (rec["ok"] and rec["preconditions_met"]):
            assert any(f" at r={rec['r']}: " in note for note in payload["notes"]), rec


def test_table_output_matches_golden_digests():
    got = regen.compute_tables()
    want = {k: v for k, v in GOLDEN.items() if k in got}
    moved = sorted(k for k in got if want.get(k) != got[k])
    assert len(want) == len(regen.TABLES) * len(regen.FORMATS)
    assert not moved, f"output bytes moved: {moved}"
