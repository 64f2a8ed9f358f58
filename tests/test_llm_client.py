import json
import re
import socket
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_manifest, make_problem
from ganitprep.corpus import Difficulty, Source, passes_review
from ganitprep.errors import PipelineError
from ganitprep.llm_client import (
    SAMPLING_PARAMS,
    ClientConfig,
    HttpProvider,
    MockProvider,
    RetryPolicy,
    augment_batch,
    load_client_config,
    make_client,
    parse_generated_problem,
    prompt_digest,
    set_review_status,
    write_mock_fixture,
)
from ganitprep.structure import TRAINING_CONFIG, PromptName, get_template, render_prompt


class TestMockProvider:
    def test_fixture_hit(self, tmp_path):
        write_mock_fixture(tmp_path, "hello", "world")
        provider = MockProvider(tmp_path)
        assert provider.generate("hello") == "world"

    def test_missing_fixture_names_digest(self, tmp_path):
        provider = MockProvider(tmp_path)
        digest = prompt_digest("absent")
        with pytest.raises(PipelineError, match=digest):
            provider.generate("absent")

    def test_fixture_not_utf8_names_its_file(self, tmp_path):
        path = write_mock_fixture(tmp_path, "p", "x")
        path.write_bytes(b"\xff")
        with pytest.raises(PipelineError, match=f"^{re.escape(str(path))}: 'utf-8' codec "):
            MockProvider(tmp_path).generate("p")

    def test_deterministic(self, tmp_path):
        write_mock_fixture(tmp_path, "p", "fixed response")
        provider = MockProvider(tmp_path)
        assert provider.generate("p") == provider.generate("p") == "fixed response"


def _http_config(**kwargs):
    defaults = dict(kind="http", endpoint="http://example.test/generate",
                    retry=RetryPolicy(base_seconds=1.0, factor=2.0, max_attempts=5))
    defaults.update(kwargs)
    return ClientConfig(**defaults)


class _InterleavingSlotProvider(HttpProvider):
    """The first read of the next free rate slot waits up to 0.5 s for a
    second thread to read it too.

    Under the provider's lock the second thread cannot get there, so the wait
    times out; without it, both threads read the slot before either moves it.
    """

    def __init__(self, *args, **kwargs):
        self._first_read = threading.Lock()
        self._second_read = threading.Event()
        super().__init__(*args, **kwargs)

    @property
    def _next_slot(self):
        value = self._slot
        if self._first_read.acquire(blocking=False):
            self._second_read.wait(0.5)
        else:
            self._second_read.set()
        return value

    @_next_slot.setter
    def _next_slot(self, value):
        self._slot = value


class TestHttpProvider:
    def test_two_failures_then_success(self):
        calls = []
        sleeps = []

        def transport(endpoint, payload, headers):
            calls.append(payload)
            if len(calls) < 3:
                raise ConnectionError("boom")
            return 200, json.dumps({"text": "ok"})

        provider = HttpProvider(_http_config(), transport=transport,
                                sleep=sleeps.append)
        assert provider.generate("p") == "ok"
        assert len(calls) == 3
        assert sleeps == [1.0, 2.0]

    def test_exhausted_retries(self):
        sleeps = []

        def transport(endpoint, payload, headers):
            return 500, "server error"

        provider = HttpProvider(_http_config(), transport=transport,
                                sleep=sleeps.append)
        with pytest.raises(PipelineError, match="5 attempts"):
            provider.generate("p")
        assert sleeps == [1.0, 2.0, 4.0, 8.0]

    def test_content_error_not_retried(self):
        calls = []

        def transport(endpoint, payload, headers):
            calls.append(1)
            return 400, "bad prompt: forbidden token"

        provider = HttpProvider(_http_config(), transport=transport, sleep=lambda s: None)
        with pytest.raises(PipelineError, match="bad prompt: forbidden token"):
            provider.generate("p")
        assert len(calls) == 1

    @pytest.mark.parametrize("body", [json.dumps({"answer": "ok"}), json.dumps(["ok"]),
                                      "not json",
                                      pytest.param(json.dumps({"text": 5}), id="text-5"),
                                      pytest.param("[" * 100_000 + "]" * 100_000,
                                                   id="nested-too-deep")])
    def test_malformed_reply_not_retried(self, body):
        calls, sleeps = [], []

        def transport(endpoint, payload, headers):
            calls.append(1)
            return 200, body

        provider = HttpProvider(_http_config(), transport=transport, sleep=sleeps.append)
        with pytest.raises(PipelineError, match="^malformed provider response: "):
            provider.generate("p")
        assert len(calls) == 1 and sleeps == []

    def test_rate_limited_retried(self):
        replies = [(429, "slow down"), (200, json.dumps({"text": "ok"}))]
        sleeps = []
        provider = HttpProvider(_http_config(), transport=lambda *_: replies.pop(0),
                                sleep=sleeps.append)
        assert provider.generate("p") == "ok"
        assert replies == []
        assert sleeps == [1.0]

    def test_credential_header_from_env(self, monkeypatch):
        seen = {}

        def transport(endpoint, payload, headers):
            seen.update(headers)
            return 200, json.dumps({"text": "ok"})

        monkeypatch.setenv("TEST_TOKEN_VAR", "secret123")
        provider = HttpProvider(_http_config(credential_env="TEST_TOKEN_VAR"),
                                transport=transport, sleep=lambda s: None)
        provider.generate("p")
        assert seen["Authorization"] == "Bearer secret123"

    def test_concurrency_cap_enforced(self):
        limit = 3
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def transport(endpoint, payload, headers):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.01)
            with lock:
                active["now"] -= 1
            return 200, json.dumps({"text": "ok"})

        provider = HttpProvider(_http_config(concurrency=limit),
                                transport=transport, sleep=lambda s: None)
        threads = [threading.Thread(
            target=lambda: provider.generate("p"))
            for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert active["peak"] <= limit
        assert provider.peak_in_flight <= limit

    def test_rate_limit_spacing(self):
        sleeps = []
        clock = {"t": 0.0}

        def transport(endpoint, payload, headers):
            return 200, json.dumps({"text": "ok"})

        provider = HttpProvider(
            _http_config(rate_per_second=2.0),
            transport=transport,
            sleep=sleeps.append,
            clock=lambda: clock["t"],
        )
        for _ in range(3):
            provider.generate("p")
        # second and third calls must each wait half a second of budget
        assert sleeps == [0.5, 1.0]

    def test_rate_slot_reservation_is_atomic(self):
        sleeps = []
        provider = _InterleavingSlotProvider(
            _http_config(concurrency=2, rate_per_second=2.0),
            transport=lambda endpoint, payload, headers: (200, json.dumps({"text": "ok"})),
            sleep=sleeps.append,
            clock=lambda: 0.0,
        )
        threads = [threading.Thread(target=provider.generate,
                                    args=("p",))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Slots 0.0 and 0.5: the second request waits half a second. Two
        # unguarded reservations would both take slot 0.0 and never wait.
        assert sleeps == [0.5]

    def test_requires_endpoint(self):
        with pytest.raises(PipelineError, match="endpoint"):
            HttpProvider(ClientConfig(kind="http"))


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "provider.json"
        path.write_text(json.dumps({
            "kind": "http",
            "endpoint": "http://example.test",
            "credential_env": "KEY_VAR",
            "concurrency": 2,
            "rate_per_second": 1.5,
            "retry": {"base_seconds": 0.5, "factor": 3.0, "max_attempts": 2},
        }), encoding="utf-8")
        config = load_client_config(path)
        assert config.kind == "http"
        assert config.retry == RetryPolicy(0.5, 3.0, 2)
        assert config.concurrency == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(PipelineError, match="^unknown provider kind 'quantum'$"):
            ClientConfig(kind="quantum")

    def test_make_client_mock_requires_fixtures(self):
        with pytest.raises(PipelineError, match="fixtures_dir"):
            make_client(ClientConfig(kind="mock"))


class TestParseGenerated:
    def test_good_block(self):
        parsed = parse_generated_problem("Question: What is 5 + 5?\nAnswer: 10\n#### 10")
        assert parsed == ("What is 5 + 5?", "10\n#### 10")

    @pytest.mark.parametrize("text", ["no structure at all", "Question: only q",
                                      "Answer: only a"])
    def test_bad_blocks(self, text):
        assert parse_generated_problem(text) is None


def _seed_manifest(count=10):
    return make_manifest([
        make_problem(f"seed-{i:03d}", question=f"What is {i} + {i}?",
                     raw_solution=f"#### {2 * i}", difficulty=Difficulty.EASY)
        for i in range(count)
    ])


def _fixture_for(tmp_path, problem, text):
    template = get_template(PromptName.AUGMENT)
    prompt = render_prompt(template, {"Example": problem.question,
                                      "refined_solution": problem.raw_solution or "",
                                      "Question": ""})
    write_mock_fixture(tmp_path, prompt, text)


class TestAugmentBatch:
    def test_eight_valid_of_ten(self, tmp_path):
        manifest = _seed_manifest(10)
        for index, problem in enumerate(manifest):
            if index in (3, 7):
                _fixture_for(tmp_path, problem, "garbled output")
            else:
                _fixture_for(tmp_path, problem,
                             f"Question: New question {index}?\nAnswer: #### {index}")
        client = MockProvider(tmp_path)
        outcome = augment_batch(manifest, get_template(PromptName.AUGMENT), 8, client)
        assert len(outcome.manifest) == 8
        assert outcome.discarded == 2
        assert outcome.attempts == 10

    def test_ids_fresh_and_prefixed(self, tmp_path):
        manifest = _seed_manifest(4)
        for index, problem in enumerate(manifest):
            _fixture_for(tmp_path, problem, f"Question: Q{index}?\nAnswer: {index}")
        outcome = augment_batch(manifest, get_template(PromptName.AUGMENT), 4,
                                MockProvider(tmp_path))
        ids = [p.id for p in outcome.manifest]
        assert ids == ["syn-000001", "syn-000002", "syn-000003", "syn-000004"]
        for problem in outcome.manifest:
            assert problem.source is Source.SYNTHETIC
            assert problem.extras["review_status"] == "pending"
            assert problem.extras["seed_id"].startswith("seed-")

    def test_input_not_mutated(self, tmp_path):
        manifest = _seed_manifest(2)
        before = [p.to_dict() for p in manifest]
        for index, problem in enumerate(manifest):
            _fixture_for(tmp_path, problem, f"Question: Q{index}?\nAnswer: {index}")
        augment_batch(manifest, get_template(PromptName.AUGMENT), 2,
                      MockProvider(tmp_path))
        assert [p.to_dict() for p in manifest] == before

    def test_low_yield_aborts(self, tmp_path):
        manifest = _seed_manifest(10)
        for problem in manifest:
            _fixture_for(tmp_path, problem, "never parseable")
        with pytest.raises(PipelineError, match="yield"):
            augment_batch(manifest, get_template(PromptName.AUGMENT), 5,
                          MockProvider(tmp_path))

    def test_wrong_template_rejected(self, tmp_path):
        manifest = _seed_manifest(1)
        with pytest.raises(PipelineError, match="augment"):
            augment_batch(manifest, get_template(PromptName.FINE_TUNE), 1,
                          MockProvider(tmp_path))


_AUGMENT = get_template(PromptName.AUGMENT)
_SEED_NUMBER = re.compile(r"What is (\d+) \+")


class _SeedTransport:
    """Fake provider whose replies depend on the seed number and attempt only.

    Seeds in ``refuse`` get a 400, seeds in ``busy`` a 503 on their first
    attempt, seeds in ``garble`` unparseable text; ``delay(seed)`` sets how
    long each call takes, so replies can arrive out of seed order.
    """

    def __init__(self, garble=(), busy=(), refuse=(), delay=lambda seed: 0.0):
        self.garble, self.busy, self.refuse = set(garble), set(busy), set(refuse)
        self.delay = delay
        self.calls = Counter()
        self.finished = []
        self._lock = threading.Lock()

    def __call__(self, endpoint, payload, headers):
        seed = int(_SEED_NUMBER.search(payload["prompt"]).group(1))
        with self._lock:
            self.calls[seed] += 1
            attempt = self.calls[seed]
        time.sleep(self.delay(seed))
        with self._lock:
            self.finished.append(seed)
        if seed in self.refuse:
            return 400, f"refused seed {seed}"
        if seed in self.busy and attempt == 1:
            return 503, "busy"
        if seed in self.garble:
            return 200, json.dumps({"text": "garbled"})
        return 200, json.dumps({"text": f"Question: Seed {seed} again?\nAnswer: #### {seed}"})


def _overlap_client(concurrency, transport):
    config = _http_config(concurrency=concurrency,
                          retry=RetryPolicy(base_seconds=0.0, max_attempts=3))
    return HttpProvider(config, transport=transport, sleep=lambda s: None)


def _run(manifest, target, client):
    """Everything augment_batch reports, or the message it aborts with."""
    try:
        outcome = augment_batch(manifest, _AUGMENT, target, client)
    except PipelineError as exc:
        return str(exc)
    return (outcome.manifest.checksum, outcome.attempts, outcome.discarded,
            outcome.flagged)


class TestAugmentOverlap:
    def test_out_of_order_replies_keep_seed_order(self):
        manifest = _seed_manifest(8)
        transport = _SeedTransport(delay=lambda seed: 0.2 if seed == 0 else 0.0)
        outcome = augment_batch(manifest, _AUGMENT, 8, _overlap_client(4, transport))
        assert transport.finished[0] != 0
        assert [p.id for p in outcome.manifest] == [f"syn-{n:06d}" for n in range(1, 9)]
        assert [p.extras["seed_id"] for p in outcome.manifest] == [p.id for p in manifest]
        sequential = augment_batch(manifest, _AUGMENT, 8,
                                   _overlap_client(1, _SeedTransport()))
        assert outcome.manifest.checksum == sequential.manifest.checksum

    @pytest.mark.parametrize("cap", [2, 4])
    def test_peak_in_flight_reaches_cap(self, cap):
        client = _overlap_client(cap, _SeedTransport(delay=lambda seed: 0.05))
        augment_batch(_seed_manifest(2 * cap), _AUGMENT, 2 * cap, client)
        assert client.peak_in_flight == cap

    @pytest.mark.parametrize("cap", [2, 4])
    def test_free_slots_work_through_the_queued_window(self, cap):
        # While the consumer waits on seed 0, the other slots take every
        # request queued behind it: one window in flight, one more queued.
        transport = _SeedTransport(delay=lambda seed: 0.2 if seed == 0 else 0.0)
        client = _overlap_client(cap, transport)
        augment_batch(_seed_manifest(4 * cap), _AUGMENT, 4 * cap, client)
        assert transport.finished.index(0) == 2 * cap - 1
        assert client.peak_in_flight <= cap

    @pytest.mark.parametrize("cap", [2, 4])
    @pytest.mark.parametrize("abort_at,outcome,message", [
        (9, {"garble": range(40)}, "^parse yield 0% after 10 attempts; "),  # yield check
        (3, {"refuse": {3}}, "^refused seed 3$"),
    ], ids=["low-yield", "refusal"])
    def test_abort_cancels_the_queued_requests(self, cap, abort_at, outcome, message):
        # Requests after the abort point take 0.2 s, so each slot starts at
        # most one of them before the abort is seen; the rest of the queue
        # must be cancelled, not sent while the pool shuts down.
        transport = _SeedTransport(**outcome,
                                   delay=lambda seed: 0.2 if seed > abort_at else 0.0)
        before = threading.active_count()
        with pytest.raises(PipelineError, match=message):
            augment_batch(_seed_manifest(40), _AUGMENT, 20, _overlap_client(cap, transport))
        assert max(transport.calls) <= abort_at + cap
        assert threading.active_count() == before

    def test_sends_exactly_the_prompts_it_consumes(self):
        transport = _SeedTransport(garble={1, 4})
        outcome = augment_batch(_seed_manifest(12), _AUGMENT, 6,
                                _overlap_client(4, transport))
        assert (outcome.attempts, outcome.discarded) == (8, 2)
        assert transport.calls == Counter(range(outcome.attempts))

    def test_low_yield_aborts_same_with_overlap(self):
        messages = [_run(_seed_manifest(10), 5,
                         _overlap_client(cap, _SeedTransport(garble=range(10))))
                    for cap in (1, 2)]
        assert "yield" in messages[0]
        assert messages[0] == messages[1]

    def test_provider_error_propagates_and_joins_threads(self):
        before = threading.active_count()
        transport = _SeedTransport(refuse={3}, delay=lambda seed: 0.01)
        with pytest.raises(PipelineError, match="refused seed 3"):
            augment_batch(_seed_manifest(10), _AUGMENT, 10, _overlap_client(4, transport))
        assert threading.active_count() == before

    def test_rate_slots_spaced_under_overlap(self):
        sleeps = []
        provider = HttpProvider(
            _http_config(concurrency=2, rate_per_second=2.0),
            transport=_SeedTransport(delay=lambda seed: 0.005),
            sleep=sleeps.append,
            clock=lambda: 0.0,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            augment_batch(_seed_manifest(12), _AUGMENT, 12, provider)
        finally:
            sys.setswitchinterval(interval)
        assert provider.peak_in_flight == 2
        # The clock stands still, so each wait is its reserved slot's offset;
        # a lost update would reserve one slot twice.
        assert sorted(sleeps) == [0.5 * k for k in range(1, 12)]


@settings(max_examples=60, deadline=None)
@given(garble=st.lists(st.booleans(), max_size=30),
       busy=st.lists(st.booleans(), max_size=30),
       concurrency=st.integers(1, 4),
       target=st.integers(0, 12))
def test_overlap_matches_one_at_a_time(garble, busy, concurrency, target):
    # 40 seeds: no prompt repeats before the target or the yield abort.
    manifest = _seed_manifest(40)

    def transport():
        return _SeedTransport(garble=[i for i, g in enumerate(garble) if g],
                              busy=[i for i, b in enumerate(busy) if b],
                              delay=lambda seed: 0.001 if seed % 3 == 0 else 0.0)

    assert (_run(manifest, target, _overlap_client(concurrency, transport()))
            == _run(manifest, target, _overlap_client(1, transport())))


class TestWireFormat:
    def test_payload_and_headers(self, monkeypatch):
        sent = []

        def transport(endpoint, payload, headers):
            sent.append((endpoint, json.dumps(payload), headers))
            return 200, json.dumps({"text": "Question: Q?\nAnswer: 1"})

        monkeypatch.setenv("TEST_TOKEN_VAR", "secret123")
        client = HttpProvider(_http_config(credential_env="TEST_TOKEN_VAR"),
                              transport=transport, sleep=lambda s: None)
        augment_batch(_seed_manifest(1), _AUGMENT, 1, client)
        prompt = render_prompt(_AUGMENT, {"Example": "What is 0 + 0?",
                                          "refined_solution": "#### 0", "Question": ""})
        # The payload as serialised, so key order is pinned too.
        params = ('{"sampling": true, "top_k": 40, "temperature": 0.8, "top_p": 0.9, '
                  '"max_length": 4096}')
        assert sent == [("http://example.test/generate",
                         f'{{"prompt": {json.dumps(prompt)}, "params": {params}}}',
                         {"Content-Type": "application/json",
                          "Authorization": "Bearer secret123"})]
        sampling = [(key, json.loads(value)) for key, value in TRAINING_CONFIG
                    if key != "epochs"]
        assert list(json.loads(params).items()) == sampling


class TestDefaultTransport:
    """``HttpProvider``'s own urllib transport against a scripted loopback server."""

    def _provider(self, endpoint, sleeps, **kwargs):
        return HttpProvider(_http_config(endpoint=endpoint, **kwargs), sleep=sleeps.append)

    def test_ok_reply_returns_its_text(self, loopback):
        loopback.replies = [(200, json.dumps({"text": "सात ✓"}))]
        assert self._provider(loopback.url, []).generate("p") == "सात ✓"

    def test_rate_limit_and_server_error_retried(self, loopback):
        loopback.replies = [(429, "slow down"), (503, "busy"),
                            (200, json.dumps({"text": "ok"}))]
        sleeps = []
        assert self._provider(loopback.url, sleeps).generate("p") == "ok"
        assert len(loopback.received) == 3 and sleeps == [1.0, 2.0]

    @pytest.mark.parametrize("body,message", [
        ("bad prompt: forbidden token «x»", "bad prompt: forbidden token «x»"),
        (b"bad prompt \xff", "bad prompt \ufffd"),
    ], ids=["utf-8", "not-utf-8"])
    def test_client_error_fails_at_once_with_its_body(self, loopback, body, message):
        loopback.replies = [(400, body)]
        sleeps = []
        with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
            self._provider(loopback.url, sleeps).generate("p")
        assert len(loopback.received) == 1 and sleeps == []

    def test_closed_port_is_transient(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        sleeps = []
        provider = self._provider(f"http://127.0.0.1:{port}/generate", sleeps,
                                  retry=RetryPolicy(max_attempts=3))
        with pytest.raises(PipelineError, match="^3 attempts exhausted: .*refused"):
            provider.generate("p")
        assert sleeps == [1.0, 2.0]

    def test_sends_the_payload_and_headers_on_the_wire(self, loopback, monkeypatch):
        loopback.replies = [(200, json.dumps({"text": "ok"}))]
        monkeypatch.setenv("TEST_TOKEN_VAR", "secret123")
        self._provider(loopback.url, [], credential_env="TEST_TOKEN_VAR").generate("प्रश्न")
        [(path, headers, body)] = loopback.received
        payload = {"prompt": "प्रश्न", "params": SAMPLING_PARAMS}
        assert (path, body) == ("/generate", json.dumps(payload).encode("utf-8"))
        assert (headers["Content-Type"], headers["Authorization"]) == (
            "application/json", "Bearer secret123")


class TestReviewGate:
    def test_only_approved_flow_downstream(self):
        problems = [
            make_problem("s1", source=Source.SYNTHETIC,
                         extras={"review_status": "pending"}),
            make_problem("s2", source=Source.SYNTHETIC,
                         extras={"review_status": "approved"}),
            make_problem("s3", source=Source.SYNTHETIC,
                         extras={"review_status": "corrected"}),
            make_problem("plain"),
        ]
        manifest = make_manifest(problems)
        kept = {p.id for p in manifest if passes_review(p)}
        assert kept == {"s2", "s3", "plain"}

    def test_set_review_status(self):
        manifest = make_manifest([make_problem("s1", source=Source.SYNTHETIC,
                                               extras={"review_status": "pending"})])
        updated = set_review_status(manifest, {"s1": "approved"})
        assert updated.by_id("s1").extras["review_status"] == "approved"

    def test_unknown_status_rejected(self):
        manifest = make_manifest([make_problem("s1")])
        with pytest.raises(PipelineError, match="^unknown review status 'maybe'$"):
            set_review_status(manifest, {"s1": "maybe"})
