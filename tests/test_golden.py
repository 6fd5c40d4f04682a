"""Golden corpus: recorded command lines whose stdout, stderr and exit
code must not change.

Each ``tests/golden/cli/<name>.json`` holds one case: ``argv``, an
optional ``stdin`` text, and the expected ``stdout``, ``stderr`` and
``exit``.  Cases replay in-process through ``latticegenus.cli.main``.
The demos replay as subprocesses against ``tests/golden/demos/<name>.txt``;
``tests/golden/crosscheck.txt`` is checked by the crosscheck acceptance
test, which already runs the roster once.

To add a case, write a file with ``argv`` (and ``stdin`` if needed),
then re-record every expected output from the current source with

    PYTHONPATH=src python tests/test_golden.py --record

and review the diff: a recorded change is a change of behavior.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
REPO = GOLDEN.parent.parent
CASES = sorted((GOLDEN / "cli").glob("*.json"))
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_cli(argv: list[str], stdin: str | None) -> dict:
    """Run main() in-process; return its stdout, stderr and exit code."""
    from latticegenus.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin if stdin is not None else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def run_demo(path: Path) -> str:
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{path.name} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_cli_case(path):
    case = json.loads(path.read_text(encoding="utf-8"))
    got = run_cli(case["argv"], case.get("stdin"))
    want = {k: case[k] for k in ("stdout", "stderr", "exit")}
    assert got == want


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_stdout(path):
    want = (GOLDEN / "demos" / f"{path.stem}.txt").read_text(encoding="utf-8")
    assert run_demo(path) == want


def test_corpus_is_present():
    assert len(CASES) >= 30
    assert (GOLDEN / "crosscheck.txt").is_file()


def record() -> None:
    for path in CASES:
        case = json.loads(path.read_text(encoding="utf-8"))
        case.update(run_cli(case["argv"], case.get("stdin")))
        path.write_text(
            json.dumps(case, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    (GOLDEN / "demos").mkdir(exist_ok=True)
    for path in DEMOS:
        (GOLDEN / "demos" / f"{path.stem}.txt").write_text(
            run_demo(path), encoding="utf-8"
        )
    (GOLDEN / "crosscheck.txt").write_text(
        run_cli(["crosscheck"], None)["stdout"], encoding="utf-8"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
