"""Per-path paragraph review: parse the three-step structured model output
into a decision, and run the configured expansion strategy to produce new
queries.

Parsing is total: every input maps to a :class:`ReviewDecision` or a
:class:`ParseFailure` that preserves the raw text for the trace; it never
raises on model output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

from .corpus import Paragraph, format_documents
from .llm import CompletionRequest, LlmClient, load_template, render_prompt

REL = "[RELEVANT]"
IRR = "[IRRELEVANT]"
SUP = "[SUPPORTED]"
UNSUP = "[UNSUPPORTED]"
ANS = "[ANSWER]"
QRY = "[QUERY]"
INFO = "[INFO]"

# a labelled field cuts off the payload of the preceding token, whether it
# starts a new line or rides the same one
_FIELD_LABEL = re.compile(r"-\s*(?:Thought|Judgment|Output|Information|Answer)\s*:")
_FIELD_LINE = re.compile(r"\s*-\s*(?:Thought|Judgment|Output|Information|Answer)\s*:")
_THOUGHT = re.compile(r"-\s*Thought\s*:")


class Action(str, Enum):
    REJECT = "reject"
    SEARCH = "search"
    ACCEPT = "accept"


class ExpansionStrategy(str, Enum):
    """How a node turns a continue-searching verdict into the next query.

    DIRECT and COT use a single review call; MPC adds one completion that
    writes the missing paragraph from parametric knowledge, whose text
    becomes the new query.
    """

    DIRECT = "direct"
    COT = "cot"
    MPC = "mpc"


@dataclass(frozen=True)
class ReviewDecision:
    """Outcome of one review call.

    ``supported`` records the step-2 judgment for the trace; the step-3
    action token is what governs control flow.  ``mpc_answer`` carries the
    side answer produced by an MPC expansion call, kept for auditability
    only.
    """

    action: Action
    thought: str = ""
    new_query: str = ""
    brief_analysis: str = ""
    supported: Optional[bool] = None
    mpc_answer: str = ""

    def __post_init__(self):
        if self.action is Action.SEARCH and not self.new_query.strip():
            raise ValueError("a search decision needs a non-empty new_query")
        if self.action is Action.ACCEPT and not self.brief_analysis.strip():
            raise ValueError("an accept decision needs a non-empty brief_analysis")
        if self.action is Action.REJECT and (self.new_query or self.brief_analysis):
            raise ValueError("a reject decision carries no query or analysis")

    @classmethod
    def reject(cls, thought: str = "") -> "ReviewDecision":
        return cls(action=Action.REJECT, thought=thought)

    @classmethod
    def search(cls, new_query: str, thought: str = "",
               supported: Optional[bool] = False) -> "ReviewDecision":
        return cls(action=Action.SEARCH, thought=thought, new_query=new_query,
                   supported=supported)

    @classmethod
    def accept(cls, brief_analysis: str, thought: str = "",
               supported: Optional[bool] = True) -> "ReviewDecision":
        return cls(action=Action.ACCEPT, thought=thought,
                   brief_analysis=brief_analysis, supported=supported)


@dataclass(frozen=True)
class ParseFailure:
    """A model output the parser could not map to a decision.

    The raw text is preserved verbatim so the trace stays auditable.
    """

    raw_text: str
    reason: str
    step_reached: int


@dataclass(frozen=True)
class MpcExpansion:
    """Result of one missing-paragraph-completion call.

    ``query`` (the generated paragraph) drives the next retrieval; ``answer``
    is recorded in the trace but discarded from control flow.
    """

    query: str
    answer: str = ""


ReviewOutcome = Union[ReviewDecision, ParseFailure]


def _payload_after(text: str, start: int) -> str:
    """Payload following a bracketed token ending at ``start``.

    The remainder of the token's line (cut at any inline labelled field) is
    used when non-empty; otherwise subsequent lines are collected until the
    next labelled field line.
    """
    rest = text[start:]
    newline = rest.find("\n")
    first = rest if newline < 0 else rest[:newline]
    inline = _FIELD_LABEL.search(first)
    if inline:
        first = first[: inline.start()]
    first = first.strip()
    if first:
        return first
    if newline < 0:
        return ""
    collected = []
    for line in rest[newline + 1:].split("\n"):
        if _FIELD_LINE.match(line):
            break
        collected.append(line)
    return "\n".join(collected).strip()


def _last_thought_before(text: str, position: int) -> str:
    last = None
    for match in _THOUGHT.finditer(text, 0, position):
        last = match
    if last is None:
        return ""
    return _payload_after(text, last.end())


def parse_review_output(text: str) -> ReviewOutcome:
    """Map a review completion to a decision.

    The step-1 relevance judgment dominates: an [IRRELEVANT] token in that
    position yields Reject no matter what follows.  Under [RELEVANT], exactly
    one of [ANSWER]/[QUERY] must appear and its payload must be non-empty.
    Token matching is case-sensitive on the bracketed literals.
    """
    i_rel = text.find(REL)
    i_irr = text.find(IRR)
    if i_rel < 0 and i_irr < 0:
        return ParseFailure(text, "missing relevance judgment token", step_reached=1)
    if i_irr >= 0 and (i_rel < 0 or i_irr < i_rel):
        return ReviewDecision.reject(thought=_last_thought_before(text, i_irr))

    i_sup = text.find(SUP, i_rel)
    i_unsup = text.find(UNSUP, i_rel)
    supported: Optional[bool] = None
    if i_sup >= 0 and (i_unsup < 0 or i_sup < i_unsup):
        supported = True
    elif i_unsup >= 0:
        supported = False

    i_ans = text.find(ANS, i_rel)
    i_qry = text.find(QRY, i_rel)
    if i_ans >= 0 and i_qry >= 0:
        return ParseFailure(text, "both [ANSWER] and [QUERY] present", step_reached=3)
    if i_ans < 0 and i_qry < 0:
        return ParseFailure(text, "missing [ANSWER] or [QUERY] action token",
                            step_reached=3)

    token, position = (ANS, i_ans) if i_ans >= 0 else (QRY, i_qry)
    payload = _payload_after(text, position + len(token))
    if not payload:
        return ParseFailure(text, f"empty payload after {token}", step_reached=3)
    thought = _last_thought_before(text, position)
    if token == ANS:
        return ReviewDecision.accept(payload, thought=thought, supported=supported)
    return ReviewDecision.search(payload, thought=thought, supported=supported)


def parse_mpc_output(text: str) -> Union[MpcExpansion, ParseFailure]:
    """Extract the generated missing paragraph (and side answer) from an MPC
    completion.  A missing or empty [INFO] payload is a failure; a missing
    [ANSWER] is tolerated."""
    i_info = text.find(INFO)
    if i_info < 0:
        return ParseFailure(text, "missing [INFO] token", step_reached=1)
    query = _payload_after(text, i_info + len(INFO))
    if not query:
        return ParseFailure(text, "empty payload after [INFO]", step_reached=1)
    i_ans = text.find(ANS, i_info)
    answer = _payload_after(text, i_ans + len(ANS)) if i_ans >= 0 else ""
    return MpcExpansion(query=query, answer=answer)


def render_review_output(decision: ReviewDecision) -> str:
    """Canonical response text for a decision.

    Parsing the result recovers an equal decision, provided payloads are
    single-line and free of the bracketed sentinels.  Used by tests and as a
    reference when authoring scripted-oracle rules.
    """
    if decision.action is Action.REJECT:
        return f"- Thought: {decision.thought}\n- Judgment: {IRR}"
    supported = decision.supported
    if supported is None:
        supported = decision.action is Action.ACCEPT
    step2 = SUP if supported else UNSUP
    if decision.action is Action.ACCEPT:
        step3 = f"{ANS} {decision.brief_analysis}"
    else:
        step3 = f"{QRY} {decision.new_query}"
    return (
        f"- Thought: the documents look useful for the question\n"
        f"- Judgment: {REL}\n"
        f"- Thought: checked whether the information is complete\n"
        f"- Judgment: {step2}\n"
        f"- Thought: {decision.thought}\n"
        f"- Output: {step3}"
    )


def render_mpc_output(query: str, answer: str = "",
                      thought: str = "filled in the missing fact") -> str:
    """Canonical MPC response text; parses back to the same query/answer."""
    lines = [
        f"- Thought: {thought}",
        f"- Information: {INFO} {query}",
    ]
    if answer:
        lines.append(f"- Answer: {ANS} {answer}")
    return "\n".join(lines)


def build_request(template_name: str, slot: str, question: str,
                  path: Sequence[Paragraph], demos: Sequence[str]) -> CompletionRequest:
    """The request for one review-side call: the template rendered with the
    question and, in its ``slot``, the path's paragraphs, tagged with the
    question, the path's ids and the template's name."""
    bindings = {"Question": question, slot: format_documents(path)}
    return CompletionRequest(
        prompt=render_prompt(load_template(template_name, demos), bindings),
        tags={
            "question": question,
            "path_ids": tuple(p.id for p in path),
            "template": template_name,
        },
    )


def generate_mpc_query(question: str, path: Sequence[Paragraph],
                       client: LlmClient,
                       demos: Sequence[str] = ()) -> Union[MpcExpansion, ParseFailure]:
    """One missing-paragraph-completion call for a path that needs more
    information.  Only invoked after a search verdict under the MPC strategy."""
    request = build_request("mpc", "References", question, path, demos)
    response = client.complete(request)
    return parse_mpc_output(response.text)


def review_path(question: str, path: Sequence[Paragraph],
                strategy: ExpansionStrategy, client: LlmClient,
                demos: Sequence[str] = ()) -> ReviewOutcome:
    """Review the paragraphs along one path and decide the next action.

    DIRECT and COT issue exactly one completion.  MPC issues one completion
    for Reject/Accept and two for Search, replacing the review's query with
    the generated missing paragraph.
    """
    if not path:
        raise ValueError("review_path needs a non-empty path")
    template_name = "review_direct" if strategy is ExpansionStrategy.DIRECT \
        else "review_cot"
    request = build_request(template_name, "Documents", question, path, demos)
    response = client.complete(request)
    parsed = parse_review_output(response.text)
    if isinstance(parsed, ParseFailure):
        return parsed
    if strategy is ExpansionStrategy.MPC and parsed.action is Action.SEARCH:
        expansion = generate_mpc_query(question, path, client, demos)
        if isinstance(expansion, ParseFailure):
            return expansion
        return replace(parsed, new_query=expansion.query,
                       mpc_answer=expansion.answer)
    return parsed
