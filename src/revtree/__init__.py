"""Review-driven tree search engine for multi-hop question answering.

Retrieval expands a tree whose root is the question and whose other nodes are
individual retrieved paragraphs.  A model-driven review of each root-to-node
path decides whether to reject the path, accept it as evidence, or issue a
new retrieval query; accepted paths are fused into the final answer under a
token budget.
"""

from .corpus import (
    CorpusIndex,
    Paragraph,
    build_index,
    cosine_similarity,
    retrieve,
)
from .embedding import (
    EmbeddingProvider,
    HashedEmbedder,
    PrecomputedEmbeddings,
    RemoteEmbedder,
)
from .fusion import (
    AnswerResult,
    FusionStrategy,
    extract_answer,
    generate_answer,
    pack_evidence,
    select_scored_paragraphs,
)
from .llm import (
    CompletionRequest,
    CompletionResponse,
    LlmClient,
    PromptTemplate,
    RemoteChatProvider,
    ScriptedOracle,
    ScriptedRule,
    TokenEstimator,
    estimate_tokens,
    load_template,
    make_token_estimator,
    render_prompt,
)
from .metrics import (
    ExampleResult,
    MetricsReport,
    QAExample,
    evaluate_run,
    exact_match,
    f1_score,
    load_dataset,
    normalize_answer,
    recall_at_k,
)
from .review import (
    Action,
    ExpansionStrategy,
    MpcExpansion,
    ParseFailure,
    ReviewDecision,
    generate_mpc_query,
    parse_mpc_output,
    parse_review_output,
    render_mpc_output,
    render_review_output,
    review_path,
)
from .search import (
    Evidence,
    EvidencePool,
    RunStats,
    RunTrace,
    TreeConfig,
    run_chain,
    run_oner,
    run_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AnswerResult",
    "CompletionRequest",
    "CompletionResponse",
    "CorpusIndex",
    "EmbeddingProvider",
    "Evidence",
    "EvidencePool",
    "ExampleResult",
    "ExpansionStrategy",
    "FusionStrategy",
    "HashedEmbedder",
    "LlmClient",
    "MetricsReport",
    "MpcExpansion",
    "Paragraph",
    "ParseFailure",
    "PrecomputedEmbeddings",
    "PromptTemplate",
    "QAExample",
    "RemoteChatProvider",
    "RemoteEmbedder",
    "ReviewDecision",
    "RunStats",
    "RunTrace",
    "ScriptedOracle",
    "ScriptedRule",
    "TokenEstimator",
    "TreeConfig",
    "build_index",
    "cosine_similarity",
    "estimate_tokens",
    "evaluate_run",
    "exact_match",
    "extract_answer",
    "f1_score",
    "generate_answer",
    "generate_mpc_query",
    "load_dataset",
    "load_template",
    "make_token_estimator",
    "normalize_answer",
    "pack_evidence",
    "parse_mpc_output",
    "parse_review_output",
    "recall_at_k",
    "render_mpc_output",
    "render_prompt",
    "render_review_output",
    "retrieve",
    "review_path",
    "run_chain",
    "run_oner",
    "run_tree",
    "select_scored_paragraphs",
]
