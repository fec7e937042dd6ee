"""Output checks computed apart from the program.

Each check takes plain data (trace documents, answer records, counts the
model kept) and returns a list of error strings; an empty list passes.  They
compare against the benchmark's own computations or against properties the
method must have, never against stored output.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from revtree import load_template, normalize_answer, render_prompt


# (a) ranking ----------------------------------------------------------------

def unit_rows(vectors: Sequence[np.ndarray]) -> np.ndarray:
    matrix = np.asarray(np.stack(vectors), dtype=np.float64)
    return matrix / np.linalg.norm(matrix, axis=1)[:, None]


def brute_force_topk(unit: np.ndarray, ids: Sequence[str], query_vec: np.ndarray,
                     k: int) -> list[str]:
    """Top-k ids by cosine, score descending then id ascending.

    ``ids`` must be sorted ascending and ``unit[i]`` is the unit vector of
    ``ids[i]``.  Scores use the same elementwise product and row sum as the
    ranking contract, so exact ties are exact here too.
    """
    q = np.asarray(query_vec, dtype=np.float64)
    scores = (unit * (q / np.linalg.norm(q))).sum(axis=1)
    order = np.lexsort((np.arange(len(ids)), -scores))
    return [ids[i] for i in order[:k]]


def traced_retrievals(trace: Mapping) -> dict[tuple, list[tuple[int, str]]]:
    """Every retrieval a tree trace records: its (rank, id) pairs in rank
    order.  Children and pruned candidates of one retrieval share parent,
    depth and query."""
    groups: dict[tuple, list[tuple[int, str]]] = defaultdict(list)
    for item in list(trace["nodes"]) + list(trace["pruned"]):
        key = (item["parent"], item["depth"], item["query"])
        groups[key].append((item["rank"], item["paragraph_id"]))
    return {key: sorted(members) for key, members in groups.items()}


def expected_retrievals(trace: Mapping) -> set[tuple]:
    """The retrievals the method must have made, keyed as in
    :func:`traced_retrievals`: the question at depth 1, then the new query of
    every search verdict below max depth (and, with relevance pruning off,
    the query of every rejected node below max depth)."""
    meta = trace["meta"]
    keys = {(None, 1, trace["question"])}
    for node in trace["nodes"]:
        if node["depth"] >= meta["max_depth"]:
            continue
        if node["decision"] == "search":
            keys.add((node["index"], node["depth"] + 1, node["new_query"]))
        elif node["decision"] == "reject" and not meta["relevance_pruning"]:
            keys.add((node["index"], node["depth"] + 1, node["query"]))
    return keys


def check_retrieval_groups(trace: Mapping, corpus_size: int) -> list[str]:
    """Every retrieval the method must make is recorded, no other, and each
    holds ranks 0..k-1.  A swallowed retrieval failure leaves its group
    missing."""
    errors = []
    widths = trace["meta"]["widths"]
    groups = traced_retrievals(trace)
    expected = expected_retrievals(trace)
    for key in sorted(expected - set(groups), key=repr):
        errors.append(f"ranking: retrieval {key[2]!r} under parent {key[0]} at depth "
                      f"{key[1]} is missing from the trace")
    for key in sorted(set(groups) - expected, key=repr):
        errors.append(f"ranking: retrieval {key[2]!r} under parent {key[0]} at depth "
                      f"{key[1]} has no search verdict that asked for it")
    for (parent, depth, _query), members in groups.items():
        ranks = [rank for rank, _ in members]
        k = min(widths[depth - 1], corpus_size)
        if ranks != list(range(k)):
            errors.append(f"ranking: retrieval under parent {parent} at depth {depth} "
                          f"gave ranks {ranks}, not 0..{k - 1}")
    return errors


def check_ranking(trace: Mapping, unit: np.ndarray, ids: Sequence[str],
                  embed: Callable[[str], np.ndarray]) -> list[str]:
    """:func:`check_retrieval_groups`, then every group against brute force."""
    errors = check_retrieval_groups(trace, len(ids))
    widths = trace["meta"]["widths"]
    for (parent, depth, query), members in traced_retrievals(trace).items():
        ranked = [pid for _, pid in members]
        k = min(widths[depth - 1], len(ids))
        expected = brute_force_topk(unit, ids, embed(query), k)
        if ranked != expected:
            errors.append(f"ranking: retrieval under parent {parent} at depth {depth} "
                          f"gave ids {ranked}, brute force gives {expected}")
    return errors


# (b) call accounting --------------------------------------------------------

def calls_from_trace(trace: Mapping) -> int:
    """Completions a tree run must have made, read from its trace: one
    review per reviewed node, plus one MPC call per search verdict (or per
    MPC output that failed to parse)."""
    mpc = trace["meta"]["expansion"] == "mpc"
    calls = 0
    for node in trace["nodes"]:
        if node["call_index"] is None:
            continue
        calls += 1
        if mpc and (node["decision"] == "search" or
                    (node["decision"] == "parse_failure"
                     and "[INFO]" in (node["parse_reason"] or ""))):
            calls += 1
    return calls


def check_calls(api_calls: int, fusion_calls: int, model_calls: int,
                trace_calls: int, label: str) -> list[str]:
    errors = []
    if api_calls + fusion_calls != model_calls:
        errors.append(f"calls: {label}: api_calls {api_calls} + fusion {fusion_calls} "
                      f"!= {model_calls} completions counted by the model")
    if trace_calls + fusion_calls != model_calls:
        errors.append(f"calls: {label}: trace implies {trace_calls} + fusion "
                      f"{fusion_calls} != {model_calls} completions counted by the model")
    return errors


def check_counts(got: Mapping[str, int], want: Mapping[str, int],
                 label: str) -> list[str]:
    """Per-question counts that the generated world fixes in advance."""
    return [f"counts: {label}: {name} is {got[name]}, the planted world fixes "
            f"{want[name]}" for name in want if got[name] != want[name]]


# (c) parse accounting -------------------------------------------------------

def check_parse_failures(reported: int, emitted: int) -> list[str]:
    if reported != emitted:
        return [f"parse: runs report {reported} parse failures, "
                f"the model emitted {emitted} malformed outputs"]
    return []


# (d) packing ----------------------------------------------------------------

def evidence_block(analysis: str, paragraphs: Iterable[tuple[str, str]]) -> str:
    """One evidence item as the evidence fusion strategy renders it."""
    docs = "\n\n".join(f"{title}\n{text}" if title.strip() else text
                       for title, text in paragraphs)
    return f"Assertions:{analysis}\nDocuments:{docs}"


def fusion_limit(question: str, budget: int) -> int:
    """Context tokens left once the fixed prompt parts are counted."""
    template = load_template("fusion_evidence")
    return budget - len(render_prompt(template, {"Evidence": "", "Question": question}).split())


def block_tokens(evidence: Sequence[Mapping],
                 paragraph: Callable[[str], tuple[str, str]]) -> list[int]:
    return [len(evidence_block(e["brief_analysis"],
                               [paragraph(pid) for pid in e["path"]]).split())
            for e in evidence]


def check_packing(included: Sequence[int], tokens: Sequence[int], limit: int,
                  label: str) -> list[str]:
    """Packed evidence is a prefix of the pool, fits the limit, and the next
    item would overflow it (blocks are joined by blank lines, so token
    counts add)."""
    n = len(included)
    if list(included) != list(range(n)):
        return [f"packing: {label}: included {list(included)} is not a prefix"]
    if sum(tokens[:n]) > limit:
        return [f"packing: {label}: {sum(tokens[:n])} tokens packed over limit {limit}"]
    if n < len(tokens) and sum(tokens[:n + 1]) <= limit:
        return [f"packing: {label}: item {n} ({tokens[n]} tokens) would still fit "
                f"under {limit}"]
    return []


# (e) answers ----------------------------------------------------------------

def check_answers(answers: Mapping[str, str], golds: Mapping[str, str],
                  expected_em: Mapping[str, int], reported_em: float) -> list[str]:
    errors = []
    for qid, want in expected_em.items():
        got = int(normalize_answer(answers[qid]) == normalize_answer(golds[qid]))
        if got != want:
            errors.append(f"answers: {qid}: answer {answers[qid]!r} vs gold "
                          f"{golds[qid]!r} should score EM {want}")
    expected = sum(expected_em.values()) / len(expected_em)
    if abs(reported_em - expected) > 1e-12:
        errors.append(f"answers: reported EM {reported_em} != expected {expected}")
    return errors


# (f) reruns -----------------------------------------------------------------

def check_reruns(first: Mapping[str, bytes], second: Mapping[str, bytes]) -> list[str]:
    errors = []
    for key in sorted(set(first) | set(second)):
        if first.get(key) != second.get(key):
            errors.append(f"reruns: {key} differs between runs of one invocation")
    return errors
