"""Golden CLI output: stdout and exit code of a fixed list of commands.

The expected stdout of each case is tests/golden/<name>.out; the three
coloring files that verify-coloring reads are next to them.  The files pin
the construction's classes, their order and every line the commands print,
so an edit to them is a change of output.  JSON output is compared as parsed
JSON without summary.elapsed_seconds, the one value that changes between runs;
the files keep an indented layout, while --json must print one compact line.
"""

import io
import json
from pathlib import Path

import pytest

from circulant_tdc.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("construct-12", ["construct", "12"], 0),
    ("construct-13", ["construct", "13"], 0),
    ("construct-19", ["construct", "19"], 0),
    ("construct-300", ["construct", "300"], 0),
    ("construct-300-json", ["construct", "300", "--json"], 0),
    ("chidt-13-2-6-construct-json", ["chidt", "13", "2", "6", "--construct", "--json"], 0),
    ("chidt-26-5-11-construct", ["chidt", "26", "5", "11", "--construct"], 0),
    ("chidt-9-exact-construct", ["chidt", "9", "--exact", "--construct"], 0),
    ("sweep-6-30-csv", ["sweep", "6", "30", "--csv"], 0),
    ("sweep-6-20-exact-json", ["sweep", "6", "20", "--exact-up-to", "12", "--json"], 0),
    ("table-6-20", ["table", "6", "20"], 0),
    ("table-6-20-csv", ["table", "6", "20", "--csv"], 0),
    ("table-6-20-json", ["table", "6", "20", "--json"], 0),
    ("invariants-34-oracle", ["invariants", "34", "--oracle", "--limit", "48"], 0),
    (
        "invariants-40-set-1-4-oracle-json",
        ["invariants", "40", "--set", "1,4", "--oracle", "--limit", "48", "--json"],
        0,
    ),
    ("verify-coloring-text", ["verify-coloring", "13", "coloring-13.txt"], 0),
    ("verify-coloring-json", ["verify-coloring", "9", "coloring-9.json", "--json"], 0),
    ("verify-coloring-13-json", ["verify-coloring", "13", "coloring-13.txt", "--json"], 0),
    (
        "verify-coloring-12-bipartition-json",
        ["verify-coloring", "12", "coloring-12.json", "--json"],
        0,
    ),
]


def comparable(argv, out):
    """The output as compared: parsed JSON without elapsed_seconds, else the text."""
    if "--json" not in argv:
        return out
    payload = json.loads(out)
    payload["summary"].pop("elapsed_seconds", None)
    return payload


@pytest.mark.parametrize("name,argv,code", CASES, ids=[case[0] for case in CASES])
def test_output_matches_golden(monkeypatch, name, argv, code):
    monkeypatch.chdir(GOLDEN)  # verify-coloring names its file relative to here
    buf = io.StringIO()
    assert main(argv, out=buf) == code
    out = buf.getvalue()
    if "--json" in argv:
        # one compact line, whatever the layout of the golden file
        assert out.count("\n") == 1 and out.endswith("\n")
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert comparable(argv, out) == comparable(argv, expected)
