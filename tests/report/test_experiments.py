"""The generated block of EXPERIMENTS.md: only it is rewritten, and its
Table 8 note states the gap from the numbers it prints."""

import os
import re

import pytest

from repro.report import experiments, paper

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def block():
    return experiments.render(instructions=2000)


def test_regenerating_keeps_every_byte_outside_the_markers(
        tmp_path, monkeypatch, block):
    with open(os.path.join(REPO, "EXPERIMENTS.md")) as handle:
        committed = handle.read()
    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text(committed)
    monkeypatch.setattr(experiments, "render", lambda: block)

    assert experiments.main([str(copy)]) == 0

    fresh = copy.read_text()
    head, _, rest = committed.partition(experiments.BEGIN + "\n")
    tail = rest[rest.index("\n" + experiments.END):]
    assert fresh == head + experiments.BEGIN + "\n" + block + tail
    assert fresh != committed


def test_a_document_without_markers_is_refused():
    with pytest.raises(ValueError, match="block to replace"):
        experiments.splice("# no markers here\n", "block")


def test_block_prints_no_wall_time(block):
    assert not re.search(r"\d+(\.\d+)?\s*s\b|seconds", block)


def test_table8_note_states_the_printed_column_split(block):
    printed = dict(re.findall(r"^\| ([\w-]+) \| [\d.]+ \| ([\d.]+) \|$",
                              block, re.MULTILINE))
    note = next(line for line in block.splitlines()
                if line.startswith("Shape highlights"))
    for column, ref in paper.TABLE8_COLUMN_TOTALS.items():
        share = ref - float(printed[column])
        assert f"{column} {share:.3f}" in note
    gap = paper.CYCLES_PER_INSTRUCTION - float(
        re.search(r"\*\*TOTAL \(CPI\)\*\* \| \*\*[\d.]+\*\* \| "
                  r"\*\*([\d.]+)\*\*", block).group(1))
    assert f"the {gap:.3f}-cycle gap" in note
