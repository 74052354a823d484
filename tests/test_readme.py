"""README stays true to the repository: every `python -m repro.lake` /
`python -m repro.lakegen` command its code blocks show parses under that
module's CLI, every route of its route table is listed by `serve --help`,
and its Results block is exactly what `scripts/summarize_results.py`
renders from the committed result files."""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from repro.lake.__main__ import build_parser as lake_parser
from repro.lakegen.__main__ import build_parser as lakegen_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PARSERS = {"repro.lake": lake_parser, "repro.lakegen": lakegen_parser}
BEGIN, END = "<!-- results:begin -->\n", "<!-- results:end -->"
_COMMAND = re.compile(r"^(?:\w+=\S+\s+)*python3? -m (repro\.lake(?:gen)?)\s+(.*)$")


def _commands(text: str) -> list[tuple[str, list[str]]]:
    """(module, argv) of every CLI line in the fenced code blocks, with
    backslash continuations joined and trailing comments dropped."""
    found = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            match = _COMMAND.match(line.strip())
            if match:
                found.append((match[1], shlex.split(match[2], comments=True)))
    return found


COMMANDS = _commands(README)


def _summarize():
    spec = importlib.util.spec_from_file_location(
        "summarize_results", ROOT / "scripts" / "summarize_results.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_shows_both_clis():
    assert {module for module, _ in COMMANDS} == set(PARSERS)


@pytest.mark.parametrize(
    "module, argv", COMMANDS, ids=[" ".join(argv) for _, argv in COMMANDS]
)
def test_readme_command_parses(module, argv):
    try:
        PARSERS[module]().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {module} {shlex.join(argv)}")


def _routes(text: str, pattern: str) -> list[tuple[str, str]]:
    return re.findall(pattern, text, re.M)


def test_serve_help_lists_every_route_of_the_route_table():
    """`python -m repro.lake serve --help` names each route README's route
    table does, method and path alike."""
    table = _routes(README, r"^\| `(GET|POST|PUT|DELETE) (/v1/\S+)` \|")
    assert len(table) >= 10
    (commands,) = [
        action for action in lake_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    listed = _routes(
        commands.choices["serve"].format_help(),
        r"^\s+(GET|POST|PUT|DELETE)\s+(/v1/\S+)",
    )
    assert [route for route in table if route not in listed] == []


def test_results_block_is_rendered_from_the_committed_files():
    assert README.count(BEGIN) == 1 and README.count(END) == 1
    block = README.split(BEGIN)[1].split(END)[0]
    assert block == _summarize().committed_results() + "\n", (
        "README's Results block is stale: paste the first block "
        "`python scripts/summarize_results.py` prints between its markers"
    )


def test_the_block_moves_with_any_committed_value(tmp_path):
    """Copied result files with one benchmark median and one recall
    changed render a block that shows both changes and nothing else."""
    summarize = _summarize()
    for pattern in ("benchmarks/e2e/runs/BENCH_*.json", "results/quality/*.json"):
        for path in ROOT.glob(pattern):
            target = tmp_path / path.relative_to(ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, target)
    before = summarize.committed_results(tmp_path)
    assert before == summarize.committed_results()

    bench = min(tmp_path.glob("benchmarks/e2e/runs/BENCH_*.json"))
    payload = json.loads(bench.read_text())
    workload = min(payload["workloads"])
    payload["workloads"][workload]["end_to_end"]["p50_ms"]["median"] = 4321.0
    bench.write_text(json.dumps(payload))
    quality = min(tmp_path.glob("results/quality/*.json"))
    payload = json.loads(quality.read_text())
    ranking = min(payload["rows"])
    payload["rows"][ranking]["recall_at_k"] = 0.123
    quality.write_text(json.dumps(payload))

    after = summarize.committed_results(tmp_path)
    changed = set(after.splitlines()) - set(before.splitlines())
    assert len(changed) == 2
    assert any(f"| {workload} | p50_ms (ms) | 4321" in line for line in changed)
    assert any(f"| {ranking} |" in line and "0.123" in line for line in changed)
