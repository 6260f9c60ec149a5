"""README.md names every config key with its default and every CLI command."""
from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

from graphkalman import ExperimentConfig
from graphkalman.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_config_table_lists_exactly_the_json_keys_with_their_defaults():
    rows = re.findall(r"^\| `(\w+)` \| `(.+?)` \|", _section("Config"), flags=re.MULTILINE)
    assert [key for key, _ in rows] == list(ExperimentConfig().to_dict())
    for key, default in rows:
        assert ExperimentConfig.from_dict({key: json.loads(default)}) == ExperimentConfig(), key


def test_command_table_lists_exactly_the_subcommands():
    listed = re.findall(r"^\| `graphkalman (\w+)", _section("Commands"), flags=re.MULTILINE)
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == list(subparsers.choices)
