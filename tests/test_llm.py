"""Prompt rendering, completion dispatch, call accounting, token estimation."""

from __future__ import annotations

import concurrent.futures
import http.server
import json
import threading

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from revtree import (
    CompletionRequest,
    LlmClient,
    RemoteChatProvider,
    RemoteEmbedder,
    ScriptedOracle,
    ScriptedRule,
    estimate_tokens,
    load_template,
    make_token_estimator,
    render_prompt,
)
from revtree import cli, fusion
from revtree.errors import OracleMissError, ProviderConfigError, ProviderError, \
    TransportError
from revtree.fusion import FusionStrategy
from revtree.llm import _LAYOUTS, TEMPLATE_NAMES, estimate_tokens_chars, new_session


class TestRenderPrompt:
    def test_review_template_label_order(self):
        template = load_template("review_cot")
        out = render_prompt(template, {"Question": "who?", "Documents": "a doc"})
        assert "Question:who?" in out
        assert "Documents: a doc" in out
        assert out.index("Question:") < out.index("Documents: ")

    def test_fusion_templates_put_question_last(self):
        template = load_template("fusion_paragraph")
        out = render_prompt(template, {"Documents": "d", "Question": "q"})
        assert out.index("Documents:d") < out.index("Question:q")

    def test_fusion_slot_labels(self):
        analysis = load_template("fusion_analysis")
        evidence = load_template("fusion_evidence")
        assert "Assertions:A" in render_prompt(analysis, {"Assertions": "A", "Question": "q"})
        assert "Evidence:E" in render_prompt(evidence, {"Evidence": "E", "Question": "q"})

    def test_mpc_uses_references_slot(self):
        template = load_template("mpc")
        out = render_prompt(template, {"Question": "q", "References": "r"})
        assert "References: r" in out

    def test_zero_demos_omits_demonstration_block(self):
        template = load_template("review_cot")
        out = render_prompt(template, {"Question": "q", "Documents": "d"})
        assert "Demonstration:" not in out

    def test_demos_render_between_instruction_and_slots(self):
        template = load_template("review_cot", demos=("demo one", "demo two"))
        out = render_prompt(template, {"Question": "q", "Documents": "d"})
        assert "Demonstration:demo one\n\ndemo two" in out
        assert out.index("Demonstration:") < out.index("Question:q")

    def test_render_is_byte_stable(self):
        template = load_template("review_cot", demos=("d1",))
        bindings = {"Question": "same", "Documents": "inputs"}
        assert render_prompt(template, bindings) == render_prompt(template, bindings)

    def test_missing_slot_names_the_slot(self):
        template = load_template("review_cot")
        with pytest.raises(ValueError, match="Documents"):
            render_prompt(template, {"Question": "q"})

    def test_unknown_template_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown template 'bogus'; expected one of"):
            load_template("bogus")

    def test_all_templates_load(self):
        for name in TEMPLATE_NAMES:
            template = load_template(name)
            assert template.instruction
            assert template.slots

    def test_every_layout_has_the_question_and_one_other_slot(self):
        # review requests and fusion prompts bind exactly these two
        for name, (_label, slots) in _LAYOUTS.items():
            names = [slot for slot, _ in slots]
            assert len(names) == 2 and names.count("Question") == 1, name

    def test_every_fusion_strategy_fills_a_slot_of_its_template(self):
        assert set(fusion._TEMPLATES) == set(FusionStrategy)
        for name, slot in fusion._TEMPLATES.values():
            assert slot in (s for s, _ in _LAYOUTS[name][1]) and slot != "Question", name

    @given(
        st.tuples(
            st.text(alphabet="abcdefghij ", min_size=0, max_size=20),
            st.text(alphabet="abcdefghij ", min_size=0, max_size=20),
        ),
        st.tuples(
            st.text(alphabet="abcdefghij ", min_size=0, max_size=20),
            st.text(alphabet="abcdefghij ", min_size=0, max_size=20),
        ),
    )
    def test_injective_over_sentinel_free_bindings(self, first, second):
        template = load_template("review_cot")
        out1 = render_prompt(template, {"Question": first[0], "Documents": first[1]})
        out2 = render_prompt(template, {"Question": second[0], "Documents": second[1]})
        assert (out1 == out2) == (first == second)


class TestScriptedOracle:
    def test_rule_match_and_counter(self):
        oracle = ScriptedOracle([
            ScriptedRule(response="canned", question="q1"),
        ], default_response="fallback")
        client = LlmClient(oracle)
        assert client.calls == 0
        response = client.complete(
            CompletionRequest(prompt="p", tags={"question": "q1"})
        )
        assert response.text == "canned"
        assert client.calls == 1

    def test_sequential_call_indices(self):
        oracle = ScriptedOracle([], default_response="x")
        client = LlmClient(oracle)
        first = client.complete(CompletionRequest(prompt="a"))
        second = client.complete(CompletionRequest(prompt="b"))
        assert (first.call_index, second.call_index) == (1, 2)

    def test_first_matching_rule_wins(self):
        oracle = ScriptedOracle([
            ScriptedRule(response="specific", template="review_cot",
                         path_ids=("p1",)),
            ScriptedRule(response="general", template="review_cot"),
        ])
        client = LlmClient(oracle)
        got = client.complete(CompletionRequest(
            prompt="", tags={"template": "review_cot", "path_ids": ("p1",)}))
        assert got.text == "specific"
        got = client.complete(CompletionRequest(
            prompt="", tags={"template": "review_cot", "path_ids": ("p2",)}))
        assert got.text == "general"

    def test_no_match_no_default_is_an_error(self):
        oracle = ScriptedOracle([ScriptedRule(response="x", question="other")])
        client = LlmClient(oracle)
        with pytest.raises(OracleMissError):
            client.complete(CompletionRequest(prompt="", tags={"question": "q"}))

    def test_placeholder_substitution(self):
        oracle = ScriptedOracle([], default_response="call {call_index} on {question}")
        client = LlmClient(oracle)
        client.complete(CompletionRequest(prompt="", tags={"question": "qq"}))
        got = client.complete(CompletionRequest(prompt="", tags={"question": "qq"}))
        assert got.text == "call 2 on qq"

    def test_from_file(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        lines = [
            json.dumps({"template": "review_cot", "path_ids": ["a", "b"],
                        "response": "r1"}),
            json.dumps({"question": "q", "response": "r2"}),
            json.dumps({"default": "dflt"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        oracle = ScriptedOracle.from_file(path)
        assert oracle.rules[0].path_ids == ("a", "b")
        assert oracle.default_response == "dflt"
        client = LlmClient(oracle)
        got = client.complete(CompletionRequest(prompt="", tags={"question": "zz"}))
        assert got.text == "dflt"

    @pytest.mark.parametrize("line, message", [
        ({"path_ids": "ab", "response": "r"}, "line 2: path_ids must be a list of strings"),
        ({"path_ids": ["a", 1], "response": "r"}, "line 2: path_ids must be a list"),
        ("default", "line 2: record must be an object"),
        # a non-string response or default used to fail every question
        ({"template": "review_cot", "response": 42}, "line 2: response must be a string"),
        ({"default": 7}, "line 2: default must be a string"),
        ({"question": ["q"], "response": "r"}, "line 2: question must be a string"),
        ({"template": 3, "response": "r"}, "line 2: template must be a string, got 3"),
        # a misspelt template used to never match
        ({"template": "review-cot", "response": "r"}, "line 2: template must be one of"),
        # a misspelt matcher used to be ignored, so its rule matched every request
        ({"tempate": "mpc", "response": "only for mpc"}, "line 2: unknown keys .'tempate'"),
        ({"default": "d", "response": "r", "path": ["a"]},
         "line 2: unknown keys .'path', 'response'.; the line may hold only .'default'"),
    ])
    def test_from_file_refuses_a_malformed_rule(self, tmp_path, line, message):
        # a string path_ids used to match the path of its characters
        path = tmp_path / "rules.jsonl"
        path.write_text(json.dumps({"response": "ok"}) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(ProviderConfigError, match=message):
            ScriptedOracle.from_file(path)

    def test_replay_is_byte_identical(self):
        rules = [ScriptedRule(response="num {call_index}")]
        outputs = []
        for _ in range(2):
            client = LlmClient(ScriptedOracle(rules))
            outputs.append([
                client.complete(CompletionRequest(prompt="p")).text
                for _ in range(4)
            ])
        assert outputs[0] == outputs[1]


class FlakyProvider:
    def __init__(self, fail_times: int):
        self.fail_times = fail_times
        self.attempts = 0

    def generate(self, request, call_index):
        self.attempts += 1
        if self.attempts <= self.fail_times:
            raise TransportError("boom")
        return "recovered"


class TestLlmClient:
    def test_retries_transport_errors(self):
        provider = FlakyProvider(fail_times=2)
        client = LlmClient(provider, backoff_s=0, sleep=lambda s: None)
        response = client.complete(CompletionRequest(prompt="p"))
        assert response.text == "recovered"
        assert provider.attempts == 3
        assert client.calls == 1

    def test_surfaces_after_exhausted_retries(self):
        provider = FlakyProvider(fail_times=5)
        client = LlmClient(provider, backoff_s=0, sleep=lambda s: None)
        with pytest.raises(ProviderError):
            client.complete(CompletionRequest(prompt="p"))
        # failed completions never consume a call index
        assert client.calls == 0

    def test_oracle_misses_are_not_retried(self):
        calls = {"n": 0}

        class Missing:
            def generate(self, request, call_index):
                calls["n"] += 1
                raise OracleMissError("no rule")

        client = LlmClient(Missing(), backoff_s=0, sleep=lambda s: None)
        with pytest.raises(OracleMissError):
            client.complete(CompletionRequest(prompt="p"))
        assert calls["n"] == 1


class TestRemoteProvider:
    def test_missing_env_fails_before_network(self, monkeypatch):
        for var in ("REVTREE_LLM_BASE_URL", "REVTREE_LLM_API_KEY",
                    "REVTREE_LLM_MODEL"):
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(ProviderConfigError, match="REVTREE_LLM"):
            RemoteChatProvider()

    def test_parses_chat_payload(self, monkeypatch):
        monkeypatch.setenv("REVTREE_LLM_BASE_URL", "https://llm.example/v1")
        monkeypatch.setenv("REVTREE_LLM_API_KEY", "key")
        monkeypatch.setenv("REVTREE_LLM_MODEL", "test-model")

        class StubResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"choices": [{"message": {"content": "hello"}}]}

        class StubSession:
            def __init__(self):
                self.posted = []

            def post(self, url, **kwargs):
                self.posted.append((url, kwargs))
                return StubResponse()

        session = StubSession()
        provider = RemoteChatProvider(session=session)
        text = provider.generate(CompletionRequest(prompt="hi"), call_index=1)
        assert text == "hello"
        url, kwargs = session.posted[0]
        assert url.endswith("/chat/completions")
        assert kwargs["json"]["temperature"] == 0.0
        # the request carries no output cap: a server that checks prompt plus
        # max_tokens against its context would refuse a full prompt
        assert kwargs["json"] == {"model": "test-model", "temperature": 0.0,
                                  "messages": [{"role": "user", "content": "hi"}]}

    def test_server_errors_are_retried_through_the_client(self, monkeypatch):
        monkeypatch.setenv("REVTREE_LLM_BASE_URL", "https://llm.example/v1")
        monkeypatch.setenv("REVTREE_LLM_API_KEY", "key")
        monkeypatch.setenv("REVTREE_LLM_MODEL", "test-model")

        class Flaky500Session:
            def __init__(self):
                self.calls = 0

            def post(self, url, **kwargs):
                self.calls += 1
                if self.calls < 3:
                    return type("R", (), {"status_code": 503, "text": "busy"})()
                return type("R", (), {
                    "status_code": 200,
                    "json": staticmethod(
                        lambda: {"choices": [{"message": {"content": "ok"}}]}),
                })()

        session = Flaky500Session()
        provider = RemoteChatProvider(session=session)
        client = LlmClient(provider, backoff_s=0, sleep=lambda s: None)
        response = client.complete(CompletionRequest(prompt="hi"))
        assert response.text == "ok"
        assert session.calls == 3
        assert client.calls == 1

    def test_client_errors_are_not_retried(self, monkeypatch):
        monkeypatch.setenv("REVTREE_LLM_BASE_URL", "https://llm.example/v1")
        monkeypatch.setenv("REVTREE_LLM_API_KEY", "key")
        monkeypatch.setenv("REVTREE_LLM_MODEL", "test-model")

        class Rejecting:
            calls = 0

            def post(self, url, **kwargs):
                Rejecting.calls += 1
                return type("R", (), {"status_code": 400, "text": "bad"})()

        provider = RemoteChatProvider(session=Rejecting())
        client = LlmClient(provider, backoff_s=0, sleep=lambda s: None)
        with pytest.raises(ProviderError):
            client.complete(CompletionRequest(prompt="hi"))
        assert Rejecting.calls == 1

    @pytest.mark.parametrize("pool_size", [4, 15])
    def test_session_reuses_a_connection_per_post_in_flight(self, pool_size):
        # rounds of pool_size posts held in flight together against a local
        # server; each round reuses the connections of the one before
        in_flight = threading.Barrier(pool_size, timeout=10)
        peers = set()

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                peers.add(self.client_address)
                in_flight.wait()
                body = b"{}"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        session = new_session(pool_size)
        url = f"http://127.0.0.1:{server.server_port}/"
        try:
            with concurrent.futures.ThreadPoolExecutor(pool_size) as executor:
                for _ in range(3):
                    replies = list(executor.map(lambda _: session.post(url, json={}),
                                                range(pool_size)))
                    assert [r.status_code for r in replies] == [200] * pool_size
        finally:
            session.close()
            server.shutdown()
            server.server_close()
            thread.join()
        assert len(peers) == pool_size


class FakeReply:
    """A reply whose ``json()`` returns ``payload``, or raises it when it is
    an exception."""

    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self.text = f"status {status_code}"
        self._payload = payload

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class FakeSession:
    """Replies with ``statuses`` in turn, repeating the last one; a 200
    carries ``payload``, and a status that is an exception is raised by
    ``post``, as ``requests`` raises a connection failure."""

    def __init__(self, statuses, payload):
        self.statuses = list(statuses)
        self.payload = payload
        self.posts = 0

    def post(self, url, **kwargs):
        status = self.statuses[min(self.posts, len(self.statuses) - 1)]
        self.posts += 1
        if isinstance(status, Exception):
            raise status
        return FakeReply(status, self.payload if status == 200 else None)


def _chat(session):
    client = LlmClient(RemoteChatProvider(session=session), backoff_s=0,
                       sleep=lambda s: None)
    return client.complete(CompletionRequest(prompt="hi")).text


def _embed(session):
    return list(RemoteEmbedder(session=session, backoff_s=0).embed_text("hi"))


# client name -> (env vars, 200 payload, what the call returns, call)
REMOTE_CLIENTS = {
    "chat": (("REVTREE_LLM_BASE_URL", "REVTREE_LLM_API_KEY", "REVTREE_LLM_MODEL"),
             {"choices": [{"message": {"content": "hello"}}]}, "hello", _chat),
    "embedder": (("REVTREE_EMBED_BASE_URL", "REVTREE_EMBED_API_KEY",
                  "REVTREE_EMBED_MODEL"),
                 {"data": [{"embedding": [1.0, 2.0]}]}, [1.0, 2.0], _embed),
}


class TestSharedRemotePath:
    """Both remote clients read their env, sort status codes and retry the
    same way."""

    @pytest.fixture(params=sorted(REMOTE_CLIENTS))
    def remote(self, request, monkeypatch):
        env_vars, payload, expected, call = REMOTE_CLIENTS[request.param]
        for var in env_vars:
            monkeypatch.setenv(var, "https://remote.example/v1")
        return env_vars, payload, expected, call

    def test_every_missing_env_var_is_named(self, remote, monkeypatch):
        env_vars, payload, _expected, call = remote
        for var in env_vars:
            monkeypatch.delenv(var)
        with pytest.raises(ProviderConfigError) as info:
            call(FakeSession([200], payload))
        assert all(var in str(info.value) for var in env_vars)

    def test_503_then_200_succeeds_on_second_attempt(self, remote):
        _env_vars, payload, expected, call = remote
        session = FakeSession([503, 200], payload)
        assert call(session) == expected
        assert session.posts == 2

    def test_exhausted_attempts_raise_provider_error(self, remote):
        _env_vars, payload, _expected, call = remote
        session = FakeSession([503], payload)
        with pytest.raises(ProviderError, match="after 3 attempts"):
            call(session)
        assert session.posts == 3

    def test_400_raises_provider_error_after_one_post(self, remote):
        _env_vars, payload, _expected, call = remote
        session = FakeSession([400], payload)
        with pytest.raises(ProviderError, match="rejected the request: 400"):
            call(session)
        assert session.posts == 1

    def test_connection_errors_and_timeouts_are_retried(self, remote):
        _env_vars, payload, expected, call = remote
        session = FakeSession([requests.ConnectionError("refused"),
                               requests.Timeout("read timed out"), 200], payload)
        assert call(session) == expected
        assert session.posts == 3

    def test_exhausted_connection_errors_raise_provider_error(self, remote):
        _env_vars, payload, _expected, call = remote
        session = FakeSession([requests.ConnectionError("refused")], payload)
        with pytest.raises(ProviderError, match="after 3 attempts.*refused") as info:
            call(session)
        assert isinstance(info.value.__cause__, TransportError)
        assert session.posts == 3

    @pytest.mark.parametrize("body", [
        requests.JSONDecodeError("Expecting value", "<html>", 0), {}, {"data": None},
        {"choices": [], "data": []}, ["not", "an", "object"]])
    def test_unreadable_body_raises_provider_error_after_one_post(self, remote, body):
        _env_vars, _payload, _expected, call = remote
        session = FakeSession([200], body)
        with pytest.raises(ProviderError, match="malformed"):
            call(session)
        assert session.posts == 1


@pytest.mark.parametrize("content", [None, 5, ["a"]])
def test_a_completion_whose_content_is_not_a_string_is_a_provider_failure(
        monkeypatch, content):
    # it used to reach the parser, which raised AttributeError
    for var in REMOTE_CLIENTS["chat"][0]:
        monkeypatch.setenv(var, "https://remote.example/v1")
    session = FakeSession([200], {"choices": [{"message": {"content": content}}]})
    with pytest.raises(ProviderError, match="malformed completion payload"):
        _chat(session)
    assert session.posts == 1


class EmbeddingService:
    """A fake embedding endpoint: text ``"t<i>"`` embeds to ``[i, 1.0]``.

    ``dims`` gives each post's embedding dim in turn (extra columns are 0);
    ``reply`` may rewrite a reply's ``data`` before it is sent.
    """

    def __init__(self, dims=(2,), reply=lambda data: data):
        self.dims = list(dims)
        self.reply = reply
        self.inputs: list[list[str]] = []

    def post(self, url, json, **kwargs):
        dim = self.dims[min(len(self.inputs), len(self.dims) - 1)]
        self.inputs.append(list(json["input"]))
        data = [{"object": "embedding", "index": i,
                 "embedding": ([float(text[1:]), 1.0] + [0.0] * dim)[:dim]}
                for i, text in enumerate(json["input"])]
        return FakeReply(200, {"data": self.reply(data)})


class TestRemoteEmbedderBatches:
    @pytest.fixture(autouse=True)
    def env(self, monkeypatch):
        for var in ("REVTREE_EMBED_BASE_URL", "REVTREE_EMBED_API_KEY",
                    "REVTREE_EMBED_MODEL"):
            monkeypatch.setenv(var, "https://remote.example/v1")

    @staticmethod
    def embedder(service):
        return RemoteEmbedder(session=service, backoff_s=0)

    def test_one_post_per_chunk_in_input_order(self):
        service = EmbeddingService()
        texts = [f"t{i}" for i in range(130)]
        rows = self.embedder(service).embed_texts(texts)
        assert [len(chunk) for chunk in service.inputs] == [64, 64, 2]
        assert sum(service.inputs, []) == texts
        assert rows.shape == (130, 2)
        assert rows[:, 0].tolist() == list(range(130))

    def test_rows_are_placed_by_index(self):
        service = EmbeddingService(reply=lambda data: data[::-1])
        rows = self.embedder(service).embed_texts(["t5", "t6", "t7"])
        assert rows[:, 0].tolist() == [5, 6, 7]

    def test_rows_without_an_index_keep_reply_order(self):
        def strip_index(data):
            return [{"embedding": item["embedding"]} for item in data]

        rows = self.embedder(EmbeddingService(reply=strip_index)).embed_texts(
            ["t3", "t1"])
        assert rows[:, 0].tolist() == [3, 1]

    @pytest.mark.parametrize("reply", [
        lambda data: data[:-1],
        lambda data: data + data[:1],
        lambda data: [dict(item, index=0) for item in data],
        lambda data: [dict(data[0], embedding=[])] + data[1:],
        lambda data: [dict(data[0], embedding=[1.0])] + data[1:],
        lambda data: [dict(item, embedding=[]) for item in data],
        lambda data: [dict(item, embedding=1.0) for item in data],
    ], ids=["too-few", "too-many", "repeated-index", "empty-vector", "ragged",
            "all-empty", "scalars"])
    def test_a_reply_not_one_embedding_per_input_is_refused(self, reply):
        service = EmbeddingService(reply=reply)
        with pytest.raises(ProviderError, match="malformed embedding payload"):
            self.embedder(service).embed_texts(["t1", "t2", "t3"])
        assert len(service.inputs) == 1

    def test_dim_change_between_calls_is_refused(self):
        embedder = self.embedder(EmbeddingService(dims=(2, 3)))
        assert embedder.embed_text("t1").tolist() == [1.0, 1.0]
        assert embedder.dim == 2
        with pytest.raises(ProviderConfigError, match="dim changed mid-run: 3 != 2"):
            embedder.embed_text("t2")

    def test_dim_change_between_chunks_is_refused(self):
        service = EmbeddingService(dims=(2, 2, 4))
        with pytest.raises(ProviderConfigError, match="dim changed mid-run: 4 != 2"):
            self.embedder(service).embed_texts([f"t{i}" for i in range(130)])
        assert len(service.inputs) == 3

    def test_blank_text_is_refused_before_any_post(self):
        service = EmbeddingService()
        with pytest.raises(ValueError, match="empty or whitespace-only"):
            self.embedder(service).embed_texts(["t1", " \n"])
        assert service.inputs == []

    def test_cli_builds_it_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("REVTREE_EMBED_BASE_URL", "https://emb.example/v1/")
        monkeypatch.setenv("REVTREE_EMBED_MODEL", "embed-small")
        embedder = cli._build_embedder("remote", 64, 0)
        assert isinstance(embedder, RemoteEmbedder)
        assert (embedder.base_url, embedder.model, embedder.provider_id) == (
            "https://emb.example/v1", "embed-small", "remote:embed-small")
        assert embedder.dim is None


class TestTokenEstimators:
    def test_empty_string(self):
        assert estimate_tokens("") == 0

    def test_whitespace_tokens(self):
        assert estimate_tokens("one two three") == 3

    def test_chars_estimator(self):
        assert estimate_tokens_chars("") == 0
        assert estimate_tokens_chars("abcd") == 1
        assert estimate_tokens_chars("abcde") == 2

    def test_make_estimator(self):
        assert make_token_estimator("whitespace") is estimate_tokens
        with pytest.raises(ValueError):
            make_token_estimator("bpe")

    @given(st.text(max_size=60), st.text(max_size=60))
    def test_monotone_under_concatenation(self, s, t):
        assert estimate_tokens(s + t) >= estimate_tokens(s)
        assert estimate_tokens_chars(s + t) >= estimate_tokens_chars(s)


class TestLoadDemos:
    def test_splits_on_separator_lines(self, tmp_path):
        from revtree.llm import load_demos

        (tmp_path / "review.txt").write_text(
            "first demo\nwith two lines\n---\nsecond demo\n---\nthird demo\n")
        demos = load_demos(tmp_path, "review")
        assert demos == ("first demo\nwith two lines", "second demo", "third demo")

    def test_missing_file_means_zero_shot(self, tmp_path):
        from revtree.llm import load_demos

        assert load_demos(tmp_path, "review") == ()
