import http.server
import json
import threading
from pathlib import Path

import pytest

from ganitprep import corpus
from ganitprep.corpus import CorpusManifest, Language, Problem, Source, SourceFormat

DATA_DIR = Path(__file__).parent / "data"


def make_problem(pid, language=Language.ENGLISH, source=Source.GSM8K,
                 question="How many?", **kwargs):
    if source is Source.MATH and "math_level" not in kwargs:
        kwargs["math_level"] = 1
    return Problem(id=pid, language=language, source=source, question=question,
                   **kwargs)


def make_manifest(problems, source_format=SourceFormat.MIXED, created_at="2024-01-01T00:00:00+00:00"):
    return CorpusManifest.from_records(problems, source_format, created_at=created_at)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_record_lines(path, lines) -> None:
    """A manifest file holding ``lines`` as records, under a valid header."""
    header = {"format": corpus.MANIFEST_FORMAT, "version": corpus.MANIFEST_VERSION,
              "source_format": "mixed", "created_at": "2024-01-01T00:00:00+00:00",
              "count": len(lines), "checksum": corpus._lines_checksum(lines)}
    path.write_text("\n".join([json.dumps(header), *lines]) + "\n", encoding="utf-8")


@pytest.fixture
def data_dir():
    return DATA_DIR


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the server's next scripted ``(status, body)``."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.received.append((self.path, self.headers, body))
        status, reply = self.server.replies.pop(0)
        data = reply if isinstance(reply, bytes) else reply.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # keep stderr for the code under test
        pass


@pytest.fixture
def loopback(monkeypatch):
    """An HTTP server on 127.0.0.1 in a thread. Put ``(status, body)`` pairs
    in ``replies``; ``received`` gets ``(path, headers, body bytes)`` per POST,
    and ``url`` is the endpoint to post to."""
    monkeypatch.setenv("no_proxy", "*")  # loopback requests never go to a proxy
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.replies, server.received = [], []
    server.url = f"http://127.0.0.1:{server.server_port}/generate"
    thread = threading.Thread(target=server.serve_forever, args=(0.02,))  # quick shutdown
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
