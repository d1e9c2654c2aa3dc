"""BENCHMARK.json, the notes files and the runner agree."""

import json
import os
import re
import subprocess
import sys

from conftest import BENCH, ROOT
from run import DES_SEEDS, END_TO_END, PER_LAYER, WORKLOADS, check_series

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _load(path):
    with open(path) as fp:
        return json.load(fp)


BENCH_DOC = _load(os.path.join(ROOT, "BENCHMARK.json"))
NOTES = _load(os.path.join(BENCH, "notes.json"))


def test_benchmark_json_shape():
    assert set(BENCH_DOC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCH_DOC["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCH_DOC["workloads"]] == list(WORKLOADS)
    for w in BENCH_DOC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    e2e = {m["name"]: m for m in BENCH_DOC["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == END_TO_END
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in BENCH_DOC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    layer = {m["name"]: m["unit"] for m in BENCH_DOC["per_layer"]}
    assert layer == PER_LAYER
    names = list(e2e) + list(layer)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_notes_cover_every_workload_and_metric():
    assert set(NOTES["workloads"]) == set(WORKLOADS)
    for note in NOTES["workloads"].values():
        for key in ("why", "loads", "bypasses", "loop", "connections",
                    "record_bytes", "page_size", "starting_history"):
            assert key in note
    glossary = NOTES["metrics"]
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        entry = glossary[name]
        assert entry["unit"] == unit, name
        assert entry["layer"] and entry["moves"], name
    assert set(glossary) == set(END_TO_END) | set(PER_LAYER)


def test_expected_series_cover_every_supported_seed():
    expected = _load(os.path.join(BENCH, "expected_des.json"))
    assert sorted(expected, key=int) == [str(i) for i in range(DES_SEEDS)]
    figs = {f for spec in WORKLOADS.values() for f in spec.get("figs", [])}
    for doc in expected.values():
        assert set(doc) == figs


def test_check_series_catches_a_changed_point():
    expected = _load(os.path.join(BENCH, "expected_des.json"))["0"]
    assert check_series(expected, expected) == []
    changed = json.loads(json.dumps(expected))
    changed["fig3"][0][2][1] *= 1.001
    assert check_series(changed, expected)[0].startswith("fig3/BSFS")


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    command fails without printing a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH_DOC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http_append",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
