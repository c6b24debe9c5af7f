"""Every shipped config reproduces the reference outputs of the figures benchmark.

Each ``configs/<stem>.cfg`` runs through ``cli.main`` and every file in
``perfbench/reference/<stem>/`` must match its output: CSV cells and JSON
values compare as numbers at relative tolerance 1e-12, everything else
exactly.  The reference directory is only read.
"""

import json
from pathlib import Path

import pytest

from starsmm import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference"
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
RTOL = 1e-12


def _close(got, want) -> bool:
    if got == want:
        return True
    try:
        x, y = float(got), float(want)
    except (TypeError, ValueError):
        return False
    return abs(x - y) <= RTOL * max(abs(x), abs(y))


def _command(cfg_path: Path) -> str:
    # each shipped config has one section, named after its command
    section = next(
        line.strip()[1:-1] for line in cfg_path.read_text().splitlines()
        if line.startswith("[")
    )
    return section.replace("_", "-")


def test_every_config_has_a_reference():
    assert CONFIGS
    assert {c.stem for c in CONFIGS} == {d.name for d in REFERENCE.iterdir()}


@pytest.mark.parametrize("cfg_path", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_config_matches_reference(tmp_path, cfg_path):
    code = cli.main([_command(cfg_path), "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    for want in sorted((REFERENCE / cfg_path.stem).iterdir()):
        got = tmp_path / want.name
        assert got.is_file(), f"missing output {want.name}"
        if want.suffix == ".json":
            a, b = json.loads(got.read_text()), json.loads(want.read_text())
            assert a.keys() == b.keys()
            for key in a:
                assert _close(a[key], b[key]), f"{want.name}[{key}]: {a[key]!r} != {b[key]!r}"
        else:
            got_lines = got.read_text().splitlines()
            want_lines = want.read_text().splitlines()
            assert len(got_lines) == len(want_lines), f"{want.name}: row count differs"
            for i, (g, w) in enumerate(zip(got_lines, want_lines)):
                gf, wf = g.split(","), w.split(",")
                assert len(gf) == len(wf) and all(map(_close, gf, wf)), (
                    f"{want.name} row {i}: {g!r} != {w!r}"
                )
