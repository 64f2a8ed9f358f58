"""Pluggable text-generation client with a deterministic mock provider.

A provider's ``generate`` takes a prompt and returns the generated text. The
mock provider answers from a directory of fixture files named by the
sha256 digest of the prompt, so pipeline runs that route through it are
byte-reproducible. The HTTP provider posts JSON with the standard library's
``urllib.request`` to a configured endpoint, which must be an ``http://`` or
``https://`` URL. It retries transient failures (connection errors and
timeouts, HTTP 429 and 5xx) with exponential backoff, fails at once on any
other 4xx, enforces a bounded in-flight window, and reads its credential from
an environment variable named in the config (never from config values
themselves).

``ClientConfig.concurrency`` caps the requests in flight. Augmentation keeps
one more window of requests queued behind them, so a freed slot starts its
next request at once. Results are consumed in seed order whatever order they
arrive in, so the synthetic manifest's order and bytes depend on neither.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from ganitprep.common import write_text_atomic
from ganitprep.corpus import (
    REVIEW_PENDING,
    REVIEW_STATUSES,
    CorpusManifest,
    Problem,
    Source,
    SourceFormat,
    nfc,
    replace_records,
)
from ganitprep.errors import MALFORMED, PipelineError, check_fields, json_object_file, naming
from ganitprep.structure import TRAINING_CONFIG, PromptName, PromptTemplate, render_prompt


# Sampling settings sent with every request: the training configuration's
# rows but ``epochs``, each value read as the JSON literal it is written as.
SAMPLING_PARAMS = {key: json.loads(value) for key, value in TRAINING_CONFIG
                   if key != "epochs"}


@dataclass(frozen=True)
class RetryPolicy:
    base_seconds: float = 1.0
    factor: float = 2.0
    max_attempts: int = 5

    def __post_init__(self):
        for name, least in (("max_attempts", 1), ("base_seconds", 0), ("factor", 0)):
            value = getattr(self, name)
            if value < least:
                raise PipelineError(f"retry {name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class ClientConfig:
    kind: str = "mock"  # mock | http
    endpoint: str = ""
    credential_env: str = ""
    concurrency: int = 4  # in-flight cap; augment queues one more window behind it
    rate_per_second: float = 0.0  # 0 disables rate limiting
    retry: RetryPolicy = RetryPolicy()
    fixtures_dir: str = ""

    def __post_init__(self):
        if self.kind not in ("mock", "http"):
            raise PipelineError(f"unknown provider kind {self.kind!r}")
        if self.concurrency < 1:
            raise PipelineError("concurrency must be >= 1")


# A scheme urllib would open another way (``file:``) or not at all is refused
# when the provider is built, not retried as a transient failure.
_ENDPOINT_RE = re.compile(r"https?://[^/?#\s]")


def load_client_config(path) -> ClientConfig:
    with json_object_file(path, "client config") as data:
        check_fields(data, ClientConfig, "client config", retry=dict)
        retry = data.get("retry", {})
        check_fields(retry, RetryPolicy, "client config retry")
        return ClientConfig(**{**data, "retry": RetryPolicy(**retry)})


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class MockProvider:
    """Deterministic provider: fixture text keyed by prompt digest."""

    def __init__(self, fixtures_dir):
        self.fixtures_dir = Path(fixtures_dir)

    def generate(self, prompt: str) -> str:
        digest = prompt_digest(prompt)
        path = self.fixtures_dir / f"{digest}.txt"
        if not path.exists():
            raise PipelineError(f"no mock fixture for prompt digest {digest}")
        with naming(path):  # not UTF-8
            return path.read_text(encoding="utf-8")


def write_mock_fixture(fixtures_dir, prompt: str, text: str) -> Path:
    """Store a canned response for a prompt; returns the fixture path."""
    path = Path(fixtures_dir) / f"{prompt_digest(prompt)}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, text)
    return path


def _urllib_transport(endpoint: str, payload: dict, headers: dict):
    """POST ``payload`` as JSON; return ``(status, body)`` for any HTTP reply.

    A reply of 400 or more comes back as a status, for ``HttpProvider`` to
    sort; a connection error or timeout is raised, and so retried.
    """
    # Imported here: loading it would add to every augment start.
    import urllib.error
    import urllib.request

    request = urllib.request.Request(endpoint, data=json.dumps(payload).encode("utf-8"),
                                     headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read().decode("utf-8", errors="replace")
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read().decode("utf-8", errors="replace")


class HttpProvider:
    """Generic JSON-over-HTTP provider with retry, cap, and rate limiting.

    ``transport(endpoint, payload, headers) -> (status, body)`` is injectable
    for testing; exceptions from it count as transient failures.
    """

    def __init__(self, config: ClientConfig, transport=None, sleep=time.sleep,
                 clock=time.monotonic):
        if transport is None and not _ENDPOINT_RE.match(config.endpoint):
            raise PipelineError("http provider endpoint must be an http:// or https:// "
                                f"URL, got {config.endpoint!r}")
        self.config = config
        self._transport = transport or _urllib_transport
        self._sleep = sleep
        self._clock = clock
        self._gate = threading.Semaphore(config.concurrency)
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak_in_flight = 0
        self._next_slot = 0.0

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.config.credential_env:
            token = os.environ.get(self.config.credential_env, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def _await_rate_slot(self):
        if self.config.rate_per_second <= 0:
            return
        interval = 1.0 / self.config.rate_per_second
        with self._lock:
            now = self._clock()
            wait = self._next_slot - now
            self._next_slot = max(now, self._next_slot) + interval
        if wait > 0:
            self._sleep(wait)

    def generate(self, prompt: str) -> str:
        payload = {"prompt": prompt, "params": dict(SAMPLING_PARAMS)}
        policy = self.config.retry
        with self._gate:
            with self._lock:
                self._in_flight += 1
                self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            try:
                last_error = None
                for attempt in range(1, policy.max_attempts + 1):
                    self._await_rate_slot()
                    try:
                        status, body = self._transport(
                            self.config.endpoint, payload, self._headers())
                    except Exception as exc:
                        last_error = str(exc)
                        status, body = None, None
                    if status is not None and status < 400:
                        try:
                            text = json.loads(body)["text"]
                        except MALFORMED as exc:  # not JSON, nested too deep, no "text"
                            raise PipelineError(f"malformed provider response: {exc}") from exc
                        if type(text) is str:
                            return text
                        raise PipelineError("malformed provider response: text is not a string")
                    if status is not None and status < 500 and status != 429:
                        # Provider-reported content error; surfaced verbatim.
                        raise PipelineError(body)
                    if status is not None:
                        last_error = f"HTTP {status}"
                    if attempt < policy.max_attempts:
                        self._sleep(policy.base_seconds * policy.factor ** (attempt - 1))
                raise PipelineError(
                    f"{policy.max_attempts} attempts exhausted: {last_error}")
            finally:
                with self._lock:
                    self._in_flight -= 1


def make_client(config: ClientConfig, transport=None):
    if config.kind == "mock":
        if not config.fixtures_dir:
            raise PipelineError("mock provider requires fixtures_dir")
        return MockProvider(config.fixtures_dir)
    return HttpProvider(config, transport=transport)


_GENERATED_RE = re.compile(
    r"Question:\s*(?P<question>.+?)\s*\nAnswer:\s*(?P<answer>.+)\s*\Z",
    re.DOTALL,
)


def parse_generated_problem(text: str) -> tuple[str, str] | None:
    """Pull (question, answer) out of a generated problem block."""
    match = _GENERATED_RE.search(text)
    if not match:
        return None
    question = match.group("question").strip()
    answer = match.group("answer").strip()
    if not question or not answer:
        return None
    return question, answer


@dataclass
class AugmentOutcome:
    manifest: CorpusManifest
    attempts: int = 0
    flagged: dict[str, str] = field(default_factory=dict)  # attempt-<n> -> why discarded

    @property
    def discarded(self) -> int:
        return len(self.flagged)


# One window of requests runs while one more waits in the executor's queue,
# so a worker that finishes takes its next request without waiting for the
# consumer to parse a reply and render the next prompt.
_QUEUED_WINDOWS = 2

# Below half of the attempted generations parsing, something is wrong with
# the provider or template; keep aborting deterministic.
_MIN_ATTEMPTS_BEFORE_YIELD_CHECK = 10
_MIN_YIELD = 0.5


def augment_batch(
    manifest: CorpusManifest,
    template: PromptTemplate,
    target_count: int,
    client,
) -> AugmentOutcome:
    """Generate synthetic problems seeded by the input corpus.

    Seeds are cycled in manifest order; each generation must parse into a
    question/answer block or it is discarded and counted. New problems get
    fresh ``syn-`` ids, inherit the seed's language/difficulty/topic, and
    carry ``review_status="pending"`` plus the seed id in extras.

    Up to ``client.config.concurrency`` requests are in flight at once (one
    for a client without a config), and one more window of them waits
    queued behind those. Results are consumed strictly in seed order, and
    no request is submitted while the ones pending could still reach
    ``target_count``, so the prompts sent, the outcome and the output bytes
    are those of a one-at-a-time loop. On an abort (low yield or a provider
    error) the requests still queued are cancelled, and the ones a worker
    has already started are waited for and their results dropped. While the
    later requests run slower than the consumer, a freed worker takes at
    most one of them, so up to ``concurrency`` are sent past the abort
    point; if they all finish before the failing one, the whole queue,
    ``2 * concurrency - 1`` requests, has been sent.
    """
    # Imported here: loading it would add to every CLI start.
    from concurrent.futures import ThreadPoolExecutor

    if template.name is not PromptName.AUGMENT:
        raise PipelineError(f"augmentation requires the {PromptName.AUGMENT.value} "
                                f"template, got {template.name.value}")
    if target_count < 0:
        raise PipelineError(f"target count must be nonnegative, got {target_count}")
    seeds = [p for p in manifest if p.raw_solution or p.structured_solution]
    if not seeds and target_count > 0:
        raise PipelineError("no seed problems with solutions to augment from")
    window = getattr(getattr(client, "config", None), "concurrency", 1)
    generated: list[Problem] = []
    attempts = 0
    flagged: dict[str, str] = {}
    index = 0
    pending = deque()  # (seed, future), oldest first
    queued = _QUEUED_WINDOWS * window
    pool = ThreadPoolExecutor(max_workers=window)
    try:
        while len(generated) < target_count:
            while len(pending) < queued and len(generated) + len(pending) < target_count:
                seed = seeds[index % len(seeds)]
                index += 1
                prompt = render_prompt(template, {
                    "Example": seed.question,
                    "refined_solution": seed.raw_solution or "",
                    "Question": "",
                })
                pending.append((seed, pool.submit(client.generate, prompt)))
            seed, future = pending.popleft()
            attempts += 1
            parsed = parse_generated_problem(future.result())
            if parsed is None:
                flagged[f"attempt-{attempts}"] = f"seed {seed.id}: unparseable generation"
            else:
                question, answer = parsed
                number = len(generated) + 1
                generated.append(Problem(
                    id=f"syn-{number:06d}",
                    language=seed.language,
                    source=Source.SYNTHETIC,
                    question=nfc(question),
                    raw_solution=nfc(answer),
                    difficulty=seed.difficulty,
                    topic=seed.topic,
                    extras={"seed_id": seed.id, "review_status": REVIEW_PENDING},
                ))
            if attempts >= _MIN_ATTEMPTS_BEFORE_YIELD_CHECK:
                yield_rate = (attempts - len(flagged)) / attempts
                if yield_rate < _MIN_YIELD:
                    raise PipelineError(
                        f"parse yield {yield_rate:.0%} after {attempts} attempts; "
                        f"recent failures: {'; '.join(list(flagged.values())[-3:])}"
                    )
    finally:
        # Only an abort leaves requests queued: cancel them rather than send
        # them, and wait for the ones already sent.
        pool.shutdown(cancel_futures=True)
    out = CorpusManifest.from_records(generated, SourceFormat.SYNTHETIC,
                                      created_at=manifest.created_at)
    return AugmentOutcome(manifest=out, attempts=attempts, flagged=flagged)


def set_review_status(manifest: CorpusManifest, statuses: dict[str, str]) -> CorpusManifest:
    """Record reviewer verdicts in problem extras."""
    for status in statuses.values():
        if status not in REVIEW_STATUSES:
            raise PipelineError(f"unknown review status {status!r}")
    records = [
        replace(p, extras={**p.extras, "review_status": statuses[p.id]})
        if p.id in statuses else p
        for p in manifest
    ]
    return replace_records(manifest, records)
