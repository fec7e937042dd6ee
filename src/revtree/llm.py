"""Prompt templates, completion providers, and per-run call accounting.

Templates render as a fixed sequence of labelled lines (instruction, optional
demonstrations, then the template's slots in layout order).  Completion
providers are either a remote chat endpoint or a deterministic scripted
oracle; both sit behind :class:`LlmClient`, which owns the per-run call
counter and retry policy.  Budget estimators count a text and convert the
count to tokens, so the estimate of whitespace-joined parts is the sum of
their counts.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, TypeVar

from .errors import (
    OracleMissError,
    ProviderConfigError,
    ProviderError,
    TransportError,
)
from . import jsonl

LLM_BASE_URL_VAR = "REVTREE_LLM_BASE_URL"
LLM_API_KEY_VAR = "REVTREE_LLM_API_KEY"
LLM_MODEL_VAR = "REVTREE_LLM_MODEL"

# attempts per request, for completions and embeddings alike
MAX_ATTEMPTS = 3

T = TypeVar("T")

# (instruction label, ((slot name, slot label), ...)) per template; label
# strings are emitted literally, including their colon/space quirks
_LAYOUTS: dict[str, tuple[str, tuple[tuple[str, str], ...]]] = {
    "review_cot": ("Instruction:", (("Question", "Question:"), ("Documents", "Documents: "))),
    "review_direct": ("Instruction:", (("Question", "Question:"), ("Documents", "Documents: "))),
    "mpc": ("Instruction:", (("Question", "Question:"), ("References", "References: "))),
    "fusion_analysis": ("Instruct:", (("Assertions", "Assertions:"), ("Question", "Question:"))),
    "fusion_paragraph": ("Instruct:", (("Documents", "Documents:"), ("Question", "Question:"))),
    "fusion_evidence": ("Instruct:", (("Evidence", "Evidence:"), ("Question", "Question:"))),
    "cor": ("Instruction:", (("Question", "Question:"), ("Documents", "Documents: "))),
}

TEMPLATE_NAMES = tuple(_LAYOUTS)

_DEMO_LABEL = "Demonstration:"


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt: instruction text, few-shot demos, and slot layout."""

    name: str
    instruction: str
    demos: tuple[str, ...] = ()
    instruction_label: str = "Instruction:"
    slots: tuple[tuple[str, str], ...] = ()


@lru_cache(maxsize=None)
def _instruction_text(name: str) -> str:
    return (
        resources.files("revtree")
        .joinpath(f"templates/{name}.txt")
        .read_text(encoding="utf-8")
        .rstrip("\n")
    )


def load_template(name: str, demos: Sequence[str] = ()) -> PromptTemplate:
    """Load a shipped template by name, attaching the given demonstrations."""
    if name not in _LAYOUTS:
        raise ValueError(f"unknown template '{name}'; expected one of {TEMPLATE_NAMES}")
    instruction_label, slots = _LAYOUTS[name]
    return PromptTemplate(
        name=name,
        instruction=_instruction_text(name),
        demos=tuple(demos),
        instruction_label=instruction_label,
        slots=slots,
    )


def load_demos(demos_dir: str | Path, name: str) -> tuple[str, ...]:
    """Read demonstrations for a template from ``<demos_dir>/<name>.txt``.

    Demos are separated by lines containing only ``---``.  Missing file means
    zero-shot; a ``demos_dir`` that is not a directory is refused.
    """
    if not Path(demos_dir).is_dir():
        raise NotADirectoryError(f"demos dir {demos_dir} is not a directory")
    path = Path(demos_dir) / f"{name}.txt"
    if not path.exists():
        return ()
    raw = path.read_text(encoding="utf-8")
    parts = [part.strip("\n") for part in raw.split("\n---\n")]
    return tuple(part for part in parts if part.strip())


def render_prompt(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Render a template: instruction, demos, then slots in layout order.

    Byte-stable for identical inputs.  Raises if a slot has no binding.
    """
    parts = [template.instruction_label + template.instruction]
    if template.demos:
        parts.append(_DEMO_LABEL + "\n\n".join(template.demos))
    for slot_name, slot_label in template.slots:
        if slot_name not in bindings:
            raise ValueError(
                f"missing slot '{slot_name}' for template '{template.name}'"
            )
        parts.append(slot_label + bindings[slot_name])
    return "\n".join(parts)


@dataclass(frozen=True)
class CompletionRequest:
    """One completion call: the rendered prompt and its routing ``tags``
    (question, path paragraph ids, template name), which scripted oracles
    match on and remote providers ignore."""

    prompt: str
    tags: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    provider_latency_ms: int
    call_index: int


@dataclass(frozen=True)
class ScriptedRule:
    """One oracle rule: optional matchers plus the canned response.

    A ``None`` matcher field matches anything; ``path_ids`` compares as an
    exact sequence.  The response text may contain the placeholders
    ``{call_index}`` and ``{question}``.
    """

    response: str
    question: Optional[str] = None
    path_ids: Optional[tuple[str, ...]] = None
    template: Optional[str] = None

    def matches(self, question: Optional[str], path_ids: tuple[str, ...],
                template: Optional[str]) -> bool:
        if self.question is not None and self.question != question:
            return False
        if self.path_ids is not None and self.path_ids != path_ids:
            return False
        if self.template is not None and self.template != template:
            return False
        return True


class ScriptedOracle:
    """Deterministic completion provider driven by an ordered rule list.

    The first rule whose matchers all hold wins; with no match the default
    response is used, and with no default the call is an error.  A response
    may hold ``{call_index}``, which depends on call order, so the oracle is
    not ``order_free`` (see :class:`LlmClient`).
    """

    def __init__(self, rules: Sequence[ScriptedRule],
                 default_response: Optional[str] = None):
        self.rules = tuple(rules)
        self.default_response = default_response

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedOracle":
        """Load rules from a line-delimited JSON file.

        Each line is an object with a required ``response`` string and
        optional ``question``, ``path_ids`` and ``template`` matchers; a
        ``template`` must name one of :data:`TEMPLATE_NAMES`.  A line with
        ``{"default": "..."}`` sets the default response.  A line with any
        other key is refused, so that a misspelt matcher cannot widen its rule.
        """
        rules: list[ScriptedRule] = []
        default: Optional[str] = None
        for lineno, record in jsonl.read_jsonl(path, ProviderConfigError):
            where = f"{path}: line {lineno}"
            keys = ("default",) if "default" in record else \
                ("response", "question", "path_ids", "template")
            unknown = sorted(set(record) - set(keys))
            if unknown:
                raise ProviderConfigError(
                    f"{where}: unknown keys {unknown}; the line may hold only {keys}")
            read = partial(jsonl.field, record, where=where, error_cls=ProviderConfigError)
            if "default" in record:
                default = read("default", str)
                continue
            template = read("template", str, default=None)
            if template is not None and template not in TEMPLATE_NAMES:
                raise ProviderConfigError(
                    f"{where}: template must be one of {TEMPLATE_NAMES}")
            path_ids = read("path_ids", list[str], default=None)
            rules.append(
                ScriptedRule(
                    response=read("response", str),
                    question=read("question", str, default=None),
                    path_ids=tuple(path_ids) if path_ids is not None else None,
                    template=template,
                )
            )
        return cls(rules, default_response=default)

    def generate(self, request: CompletionRequest, call_index: int) -> str:
        question = request.tags.get("question")
        path_ids = tuple(request.tags.get("path_ids") or ())
        template = request.tags.get("template")
        for rule in self.rules:
            if rule.matches(question, path_ids, template):
                return self._substitute(rule.response, call_index, question)
        if self.default_response is not None:
            return self._substitute(self.default_response, call_index, question)
        raise OracleMissError(
            f"no scripted rule matches (template={template!r}, "
            f"question={question!r}, path_ids={path_ids!r}) and no default is set"
        )

    @staticmethod
    def _substitute(text: str, call_index: int, question: Optional[str]) -> str:
        out = text.replace("{call_index}", str(call_index))
        if question is not None:
            out = out.replace("{question}", question)
        return out


def read_env(names: Sequence[str], what: str) -> list[str]:
    """Values of the environment variables ``names``; a missing or empty one
    is a :class:`ProviderConfigError` that names every such variable."""
    values = [os.environ.get(name) for name in names]
    missing = [name for name, value in zip(names, values) if not value]
    if missing:
        raise ProviderConfigError(
            f"{what} not configured; missing environment variables: "
            f"{', '.join(missing)}"
        )
    return values


def new_session(pool_size: int = 10):
    """A ``requests.Session`` that keeps up to ``pool_size`` connections per
    host open, so that many posts in flight at once reuse their connections
    (``requests`` keeps 10 by default)."""
    import requests
    from requests.adapters import HTTPAdapter

    session = requests.Session()
    adapter = HTTPAdapter(pool_connections=pool_size, pool_maxsize=pool_size)
    session.mount("https://", adapter)
    session.mount("http://", adapter)
    return session


def post_json(session, url: str, api_key: str, payload: dict, timeout: float,
              what: str, extract: Callable[[Any], T]) -> T:
    """POST ``payload`` once and ``extract`` the result from the JSON reply.

    Connection failures, timeouts and 5xx/408/429 replies raise the retryable
    :class:`TransportError`; other 4xx replies and replies ``extract`` cannot
    read raise :class:`ProviderError`.
    """
    import requests

    try:
        resp = session.post(url, json=payload,
                            headers={"Authorization": f"Bearer {api_key}"},
                            timeout=timeout)
    except (requests.ConnectionError, requests.Timeout) as exc:
        raise TransportError(f"{what} request failed: {exc}") from exc
    if resp.status_code >= 500 or resp.status_code in (408, 429):
        raise TransportError(f"{what} service returned {resp.status_code}")
    if resp.status_code >= 400:
        raise ProviderError(
            f"{what} service rejected the request: {resp.status_code} "
            f"{resp.text[:200]}"
        )
    try:
        return extract(resp.json())
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ProviderError(f"malformed {what} payload: {exc}") from exc


def with_retries(attempt: Callable[[], T], backoff_s: float, what: str,
                 sleep: Callable[[float], None] = time.sleep) -> T:
    """Call ``attempt`` until it returns, at most :data:`MAX_ATTEMPTS` times,
    retrying :class:`TransportError` with exponential backoff; anything else
    surfaces at once.  Exhausted attempts raise :class:`ProviderError`."""
    last_error: Exception | None = None
    for i in range(MAX_ATTEMPTS):
        try:
            return attempt()
        except TransportError as exc:
            last_error = exc
            if i + 1 < MAX_ATTEMPTS:
                sleep(backoff_s * (2 ** i))
    raise ProviderError(
        f"{what} failed after {MAX_ATTEMPTS} attempts: {last_error}"
    ) from last_error


class RemoteChatProvider:
    """Client for a chat-completion endpoint over HTTPS.

    Base URL, API key and model name come from ``REVTREE_LLM_BASE_URL``,
    ``REVTREE_LLM_API_KEY`` and ``REVTREE_LLM_MODEL``.  Construction fails
    before any network activity if they are unset.

    Its output depends on the request alone, never on ``call_index`` or on
    call order, so it is ``order_free``: a tree run may have several of its
    calls in flight at once (see :class:`LlmClient`).  ``pool_size`` is the
    number of connections its own session keeps open; give it the most posts
    that can be in flight at once.
    """

    order_free = True
    # seconds a post may take
    TIMEOUT = 120.0

    def __init__(self, session=None, pool_size: int = 10):
        base_url, self._api_key, self.model = read_env(
            (LLM_BASE_URL_VAR, LLM_API_KEY_VAR, LLM_MODEL_VAR),
            "remote completion provider")
        self.base_url = base_url.rstrip("/")
        self._session = session if session is not None else new_session(pool_size)

    def generate(self, request: CompletionRequest, call_index: int) -> str:
        """One attempt; retries are :class:`LlmClient`'s job."""
        return post_json(
            self._session, f"{self.base_url}/chat/completions", self._api_key,
            {
                "model": self.model,
                "messages": [{"role": "user", "content": request.prompt}],
                # no max_tokens: the server's own output limit applies
                "temperature": 0.0,
            },
            self.TIMEOUT, "completion", _completion_text,
        )


def _completion_text(body) -> str:
    """The reply text of a chat-completion payload.  OpenAI-compatible
    servers may send a null ``content``; any non-string is refused."""
    return jsonl.field(body["choices"][0]["message"], "content", str, "reply", ValueError)


class LlmClient:
    """Per-run wrapper around a provider: call counting plus bounded retries.

    The counter counts successful completions only; a call's ``call_index``
    is the counter after it, so indices strictly increase in the order the
    calls are made.  Transport errors are retried with exponential backoff,
    :data:`MAX_ATTEMPTS` attempts in all; anything else surfaces
    immediately.

    A provider whose class sets ``order_free = True`` declares that its
    output ignores ``call_index`` and call order.  For such a provider a
    run may make calls off its own order through a :meth:`fork`, whose
    counter starts at zero, and :meth:`commit` the fork's completions to
    the run's counter when their outcome takes its place in the run.  The
    ``call_index`` a fork passes to the provider is provisional, and an
    order-free provider must ignore it; the run's own indices then equal a
    serial run's.
    """

    def __init__(self, provider, backoff_s: float = 0.2,
                 sleep: Callable[[float], None] = time.sleep):
        self.provider = provider
        self.backoff_s = backoff_s
        self._sleep = sleep
        self._lock = threading.Lock()
        self._calls = 0

    @property
    def calls(self) -> int:
        return self._calls

    def fork(self) -> "LlmClient":
        """A client over the same provider and retry policy with its own
        counter, from zero."""
        return LlmClient(self.provider, self.backoff_s, self._sleep)

    def commit(self, fork: "LlmClient") -> None:
        """Count the completions ``fork`` made as this client's next ones."""
        with self._lock:
            self._calls += fork.calls

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        with self._lock:
            call_index = self._calls + 1
            started = time.monotonic()
            text = with_retries(lambda: self.provider.generate(request, call_index),
                                self.backoff_s, "completion", self._sleep)
            self._calls = call_index
        latency_ms = int((time.monotonic() - started) * 1000)
        return CompletionResponse(text=text, provider_latency_ms=latency_ms,
                                  call_index=call_index)


@dataclass(frozen=True)
class TokenEstimator:
    """A budget estimator in two steps: ``count`` measures one text, and
    ``to_tokens`` turns a count into tokens.  Counts add over texts joined by
    whitespace, since no unit of count crosses a whitespace join, so the
    estimate of a joined text is ``to_tokens`` of its parts' counts plus
    ``count(separator)`` per join."""

    count: Callable[[str], int]
    to_tokens: Callable[[int], int]

    def __call__(self, text: str) -> int:
        return self.to_tokens(self.count(text))


def _word_count(text: str) -> int:
    return len(text.split())


def _identity(count: int) -> int:
    return count


def _quarter_up(count: int) -> int:
    return math.ceil(count / 4)


# whitespace-token count; the default budget estimator
estimate_tokens = TokenEstimator(_word_count, _identity)
# character count: one token per four characters, rounded up
estimate_tokens_chars = TokenEstimator(len, _quarter_up)

_ESTIMATORS: dict[str, TokenEstimator] = {
    "whitespace": estimate_tokens,
    "chars": estimate_tokens_chars,
}


def make_token_estimator(kind: str) -> TokenEstimator:
    try:
        return _ESTIMATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown token estimator '{kind}'; expected one of "
            f"{sorted(_ESTIMATORS)}"
        ) from None
