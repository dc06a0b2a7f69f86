"""EXPERIMENTS.md must track the registry and the event vocabulary.

The knob reference table and the event table are documentation a
user actually configures from; this test makes forgetting to update
them a tier-1 failure rather than silent drift.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.runtime import knobs
from repro.runtime.events import EVENT_SCHEMA

DOC = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def doc_text() -> str:
    return DOC.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(knobs.REGISTRY))
def test_every_knob_is_documented(doc_text, name):
    knob = knobs.REGISTRY[name]
    assert f"`{knob.env}`" in doc_text, (
        f"{knob.env} is registered but missing from EXPERIMENTS.md — "
        "add it to the knob reference table")


def test_every_knob_row_names_a_registered_knob(doc_text):
    """The reverse direction: a deleted knob's row must go too.

    Only the reference table's rows are read, not every ``REPRO_``
    string in the file — the prose deliberately shows a misspelling.
    """
    registered = {(k.env, k.name) for k in knobs.REGISTRY.values()}
    rows = [tuple(cell.strip(" `") for cell in line.split("|")[1:3])
            for line in doc_text.splitlines()
            if line.startswith("| `REPRO_")]
    assert rows, "knob reference table not found in EXPERIMENTS.md"
    stale = [row for row in rows if row not in registered]
    assert stale == [], (
        f"EXPERIMENTS.md documents unregistered knobs {stale} — drop "
        "their rows from the knob reference table")


@pytest.mark.parametrize("event", sorted(EVENT_SCHEMA))
def test_every_event_is_documented(doc_text, event):
    assert f"`{event}`" in doc_text, (
        f"event {event} is in EVENT_SCHEMA but missing from "
        "EXPERIMENTS.md — add it to the event table")


@pytest.mark.parametrize("cli", sorted(
    k.cli for k in knobs.REGISTRY.values() if k.cli))
def test_every_cli_flag_is_documented(doc_text, cli):
    assert f"`{cli}`" in doc_text
