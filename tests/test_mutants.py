"""The mutant table (tests/mutants.py) against the tree and MUTANTS.json.

The mutation run takes minutes, so it is not part of this suite; these
checks are. A change that moves or rewrites a mutated line fails the first
one, and a table changed without re-running the mutants fails the second.
"""

import json
import os

from mutants import MUTANTS, ROOT


def test_each_mutants_text_occurs_once_in_its_file():
    counts = {}
    for m in MUTANTS:
        with open(os.path.join(ROOT, m.file)) as fh:
            counts[m.name] = fh.read().count(m.old)
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_mutants_json_records_the_table_and_none_survived():
    with open(os.path.join(ROOT, "MUTANTS.json")) as fh:
        recorded = json.load(fh)["mutants"]
    assert ([(r["name"], r["file"], r["old"], r["new"]) for r in recorded]
            == [(m.name, m.file, m.old, m.new) for m in MUTANTS])
    assert [r["name"] for r in recorded if r["status"] == "survived"] == []
