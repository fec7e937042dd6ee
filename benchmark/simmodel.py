"""A simulated language model, served in-process or behind a fake HTTP session.

The model's output depends only on the template, the question and the path
of paragraph ids it is shown, never on the call index or on call order, so a
scheduler that reorders or overlaps calls gets the same answers.  The model
counts the completions it gives, the whitespace tokens it is sent and the
malformed outputs it emits; the benchmark checks the program's own accounting
against these counts.
"""

from __future__ import annotations

import random
import re
import time

from revtree import ReviewDecision, render_mpc_output, render_review_output

import gen

REVIEW_TEMPLATES = ("review_cot", "review_direct")
MALFORMED_TEXT = "free prose with no bracketed tokens at all"
UNKNOWN_ANSWER = "unknown"
QUERY_WORDS = 12             # vocabulary words in a MostlySearchPolicy MPC query

# latency of the fake remote session, per completion and per 503
BASE_MS = 3.0
PER_PROMPT_TOKEN_MS = 0.001
PER_OUTPUT_TOKEN_MS = 0.03
ERROR_MS = 0.5


def fusion_response(answer: str) -> str:
    return f"Weighing the evidence together, so the answer is {answer}."


class MostlySearchPolicy:
    """Search at every node, except a seeded share of the nodes at
    ``max_depth`` (the tree's depth) that accept.  MPC queries are vocabulary
    words drawn from the path."""

    def __init__(self, seed: int, vocab: list[str], max_depth: int,
                 accept_share: float = 0.1):
        self.seed = seed
        self.vocab = vocab
        self.max_depth = max_depth
        self.accept_share = accept_share

    def verdict(self, question: str, path_ids: tuple[str, ...]) -> str:
        if len(path_ids) == self.max_depth and \
                gen.stable_unit(self.seed, "accept", question, *path_ids) < self.accept_share:
            return gen.ACCEPT
        return gen.SEARCH

    def mpc_query(self, question: str, path_ids: tuple[str, ...]) -> str:
        rng = random.Random(gen.stable_int(self.seed, "mpc", question, *path_ids))
        return " ".join(rng.choices(self.vocab, k=QUERY_WORDS))


class PlantedPolicy:
    """Verdicts read from the planted world: the last paragraph's kind."""

    def __init__(self, world: gen.PlantedWorld):
        self.world = world

    def verdict(self, question: str, path_ids: tuple[str, ...]) -> str:
        return self.world.kind.get(path_ids[-1], gen.REJECT)

    def mpc_query(self, question: str, path_ids: tuple[str, ...]) -> str:
        anchor = self.world.child_anchor.get(path_ids[-1], "nothing")
        return f"{anchor} {anchor} {anchor} the missing fact"


class SimModel:
    """Answers review, MPC and fusion prompts from a policy."""

    def __init__(self, policy, gold_by_question: dict[str, str]):
        self.policy = policy
        self.gold = gold_by_question
        self.completions = 0
        self.prompt_tokens = 0
        self.malformed = 0

    def answer(self, template: str, question: str, path_ids: tuple[str, ...],
               prompt_tokens: int, has_evidence: bool = False) -> str:
        self.completions += 1
        self.prompt_tokens += prompt_tokens
        if template in REVIEW_TEMPLATES:
            verdict = self.policy.verdict(question, path_ids)
            if verdict == gen.SEARCH:
                return render_review_output(ReviewDecision.search(
                    "look further", thought="one hop is still missing"))
            if verdict == gen.ACCEPT:
                return render_review_output(ReviewDecision.accept(
                    f"passage {path_ids[-1]} settles the question",
                    thought="the documents close the chain"))
            if verdict == gen.MALFORMED:
                self.malformed += 1
                return MALFORMED_TEXT
            return render_review_output(ReviewDecision.reject("off topic"))
        if template == "mpc":
            return render_mpc_output(self.policy.mpc_query(question, path_ids),
                                     answer="a guess")
        answer = self.gold[question] if has_evidence else UNKNOWN_ANSWER
        return fusion_response(answer)


def _fusion_has_evidence(prompt: str) -> bool:
    q = prompt.rfind("\nQuestion:")
    e = prompt.rfind("\nEvidence:", 0, q)
    return e >= 0 and bool(prompt[e + len("\nEvidence:"):q].strip())


class SimProvider:
    """In-process completion provider; reads routing from the request tags."""

    def __init__(self, model: SimModel):
        self.model = model

    def generate(self, request, call_index: int) -> str:
        tags = request.tags
        template = tags.get("template")
        return self.model.answer(
            template, tags.get("question"), tuple(tags.get("path_ids") or ()),
            len(request.prompt.split()),
            has_evidence=template == "fusion_evidence" and _fusion_has_evidence(request.prompt),
        )


_TITLE = re.compile(r"(?m)^(p\d{7})$")


def parse_prompt(prompt: str) -> tuple[str, str, tuple[str, ...]]:
    """(template, question, path ids) of a rendered review, MPC or fusion
    prompt, as a remote model would read them from the text alone."""
    for label, template in (("\nReferences: ", "mpc"), ("\nDocuments: ", "review_cot")):
        at = prompt.rfind(label)
        if at >= 0:
            q = prompt.rfind("\nQuestion:", 0, at)
            question = prompt[q + len("\nQuestion:"):at]
            return template, question, tuple(_TITLE.findall(prompt[at + len(label):]))
    q = prompt.rfind("\nQuestion:")
    return "fusion_evidence", prompt[q + len("\nQuestion:"):], ()


class FakeResponse:
    def __init__(self, status_code: int, payload: dict | None = None):
        self.status_code = status_code
        self._payload = payload

    def json(self) -> dict:
        return self._payload


class FakeSession:
    """Stands in for ``requests.Session`` behind ``RemoteChatProvider``.

    Each completion sleeps ``BASE_MS + PER_PROMPT_TOKEN_MS * prompt tokens +
    PER_OUTPUT_TOKEN_MS * output tokens``; a 503 sleeps ``ERROR_MS``.  A
    review of a flaky paragraph answers 503 on its first attempt within a
    question; ``new_question`` starts that bookkeeping afresh.
    """

    def __init__(self, model: SimModel, flaky: set[str]):
        self.model = model
        self.flaky = flaky
        self.unavailable = 0
        self._failed_once: set[tuple[str, tuple[str, ...]]] = set()

    def new_question(self) -> None:
        self._failed_once.clear()

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["messages"][0]["content"]
        template, question, path_ids = parse_prompt(prompt)
        key = (question, path_ids)
        if template == "review_cot" and path_ids and path_ids[-1] in self.flaky \
                and key not in self._failed_once:
            self._failed_once.add(key)
            self.unavailable += 1
            time.sleep(ERROR_MS / 1000.0)
            return FakeResponse(503)
        prompt_tokens = len(prompt.split())
        text = self.model.answer(
            template, question, path_ids, prompt_tokens,
            has_evidence=template == "fusion_evidence" and _fusion_has_evidence(prompt))
        latency_ms = (BASE_MS + PER_PROMPT_TOKEN_MS * prompt_tokens
                      + PER_OUTPUT_TOKEN_MS * len(text.split()))
        time.sleep(latency_ms / 1000.0)
        return FakeResponse(200, {"choices": [{"message": {"content": text}}]})
