"""Every file reader, driven through ``cli.main`` with damaged copies of valid files.

Each run must exit 0, or exit 1 with exactly one ``error=`` line that names
the damaged file; no exception may escape ``main``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ganitprep import llm_client
from ganitprep.cli import DEMO_PLAN, main
from ganitprep.corpus import load_manifest

# A value of every JSON type, to put in place of one of another type.
JSON_VALUES = (None, True, 0, 1.5, "x", [], {}, ["x"], {"x": 1})


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid input files, one per reader, plus the manifest they refer to."""
    root = tmp_path_factory.mktemp("valid")
    demo = root / "demo"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--out", str(demo)]) == 0
    texts = {
        "client config": json.dumps({"kind": "http", "endpoint": "http://example.test",
                                     "concurrency": 2, "retry": {"max_attempts": 2}}),
        "bindings": json.dumps({"Question": "What is 2 + 2?", "Response": "4"}),
        "counts": "3 0\n2 1\n0 3\n",
        "structure text": "".join(f"{heading}:\n{heading} text\n\n" for heading in (
            "Data Identification", "Problem Analysis", "Theoretical Framework",
            "Methodology Development", "Computation", "Solution")),
    }
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    files = {name: root / name for name in texts}
    files |= {
        "split": demo / "split.json",
        "curriculum": demo / "curriculum.json",
        "manifest": demo / "merged.jsonl",
        "grades": demo / "grades.jsonl",
        "predictions": DEMO_PLAN.parent / "predictions.tsv",
        "annotations": DEMO_PLAN.parent / "annotations_en.tsv",
        "gsm8k": DEMO_PLAN.parent / "gsm8k.jsonl",
        "math": DEMO_PLAN.parent / "math.jsonl",
        "hawp": DEMO_PLAN.parent / "hawp.jsonl",
    }
    return files


def _argv(reader: str, path: Path, files: dict, out: Path) -> list[str]:
    """The command that reads ``path`` as ``reader``, writing under ``out``."""
    manifest = str(files["manifest"])
    return {
        "split": ["curriculum", "build", "--in", manifest, "--split", str(path),
                  "--out", str(out / "c.json")],
        "curriculum": ["curriculum", "export", "--curriculum", str(path),
                       "--manifest", manifest, "--stage", "SFT_easy",
                       "--out", str(out / "s.jsonl")],
        "client config": ["augment", "--in", manifest, "--target", "1",
                          "--config", str(path), "--out", str(out / "a.jsonl")],
        "bindings": ["structure", "prompt", "--template", "finetune",
                     "--bindings", str(path), "--out", str(out / "p.txt")],
        "structure text": ["structure", "parse", "--in", str(path), "--out", str(out / "r.txt")],
        "manifest": ["curriculum", "split", "--in", str(path), "--out", str(out / "s.json")],
        "grades": ["evaluate", "report", "--grades", str(path), "--manifest", manifest,
                   "--out", str(out / "r.txt")],
        "predictions": ["evaluate", "grade", "--pred", str(path), "--manifest", manifest,
                        "--model", "m", "--out", str(out / "g.jsonl")],
        "annotations": ["classify", "--in", manifest, "--annotations", str(path),
                        "--out", str(out / "c.jsonl")],
        "counts": ["kappa", "--counts", str(path)],
        "gsm8k": ["ingest", "--format", "gsm8k", "--in", str(path),
                  "--out", str(out / "m.jsonl")],
        "math": ["ingest", "--format", "math", "--in", str(path),
                 "--out", str(out / "m.jsonl")],
        "hawp": ["ingest", "--format", "hawp", "--in", str(path),
                 "--out", str(out / "m.jsonl")],
    }[reader]


def _slots(value):
    """``(container, key)`` for every value nested in a decoded JSON value."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield value, key
        yield from _slots(item)


@st.composite
def _retyped(draw, text: str) -> bytes:
    """``text`` with one value of its JSON document, or of one JSON line, retyped."""
    try:
        lines, index = [json.loads(text)], 0
    except json.JSONDecodeError:  # one JSON value per line
        lines = [json.loads(line) if line.strip() else line for line in text.split("\n")]
        index = draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
    container, key = draw(st.sampled_from(list(_slots(lines[index]))))
    kind = type(container[key])
    container[key] = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not kind]))
    return "\n".join(line if isinstance(line, str) else json.dumps(line, ensure_ascii=False)
                     for line in lines).encode("utf-8")


@st.composite
def _damaged(draw, data: bytes, is_json: bool) -> bytes:
    kinds = ["truncate", "flip"] + (["retype"] if is_json else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "retype":
        return draw(_retyped(data.decode("utf-8")))
    position = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:position]
    flipped = data[position] ^ draw(st.integers(1, 255))
    return data[:position] + bytes([flipped]) + data[position + 1:]


TEXT_READERS = {"predictions", "annotations", "counts", "structure text"}
READERS = ["split", "curriculum", "client config", "bindings", "structure text",
           "manifest", "grades", "predictions", "annotations", "counts", "gsm8k", "math",
           "hawp"]


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_exits_0_or_names_it(valid, monkeypatch, reader, data):
    monkeypatch.setattr(llm_client, "_urllib_transport", lambda *request: (
        200, json.dumps({"text": "Question: What is 3 + 3?\nAnswer: 6"})))
    damaged = data.draw(_damaged(valid[reader].read_bytes(), reader not in TEXT_READERS))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        path = out / f"damaged {reader}"
        path.write_bytes(damaged)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(_argv(reader, path, valid, out))
        errors = [line for line in stderr.getvalue().splitlines()
                  if line.startswith("error=")]
        if rc == 0:
            assert errors == []
            if reader in ("gsm8k", "math", "hawp"):
                load_manifest(out / "m.jsonl")  # what ingest writes reads back
        else:
            assert rc == 1 and len(errors) == 1, stderr.getvalue()
            assert str(path) in json.loads(errors[0][len("error="):])
