"""Web-query construction and fused textual retrieval.

Multi-hop questions are decomposed into self-contained sub-queries by the
turn's model (falling back to the original question keeps the pipeline
total), deictic referents are rewritten using the visual context, and a
verified entity name can be fused into the original question to produce an
object-aware query. Sub-queries are plain strings: the web search reads
nothing else.
Per-sub-query searches are merged by ``search.fuse_hits``, the same
max-score url dedup as the image-side fusion. A failed or undecodable
decomposition (a sub-query text that is not a JSON string included) falls
back to the original question; a model call past the turn's deadline ends
the turn.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import typed
from .gateway import TurnModel, last_line_json
from .image_agent import VerifiedEntity
from .preanswer import ReasoningTrace
from .search import SearchHit, WebSearchIndex, fuse_hits

logger = logging.getLogger(__name__)

# "this/that + noun" swallows the noun ("this cafe" -> entity); bare "it"
# swaps only the pronoun so verbs like "begin" survive.
_DEICTIC_NOUN_RE = re.compile(
    r"\b(this|that|these|those)"
    r"(\s+(?!is\b|was\b|are\b|were\b|has\b|have\b|had\b|does\b|did\b|will\b"
    r"|would\b|can\b|could\b|says\b|said\b)[a-z]+)?\b",
    re.IGNORECASE,
)
_IT_RE = re.compile(r"\bit\b", re.IGNORECASE)
_WH_PREFIX_RE = re.compile(
    r"^(what's|what is|what are|who's|who is|who are|where is|where are|"
    r"when did|when was|when is|how much is|how much does|how many|"
    r"what|who|where|when|how)\s+",
    re.IGNORECASE,
)
_ARTICLE_RE = re.compile(r"^(the|a|an)\s+", re.IGNORECASE)


def enhance(text: str, visual_context: str | None) -> tuple[str, bool]:
    """Replace bare deictic referents with the visual context. Returns
    (new_text, changed)."""
    if not visual_context:
        return text, False
    new_text = _DEICTIC_NOUN_RE.sub(visual_context, text)
    new_text = _IT_RE.sub(visual_context, new_text)
    return new_text, new_text != text


@dataclass
class TextSearchAgent:
    web_index: WebSearchIndex
    k_per_query: int = 10
    k_total: int = 10

    def rephrase_and_split(self, model: TurnModel, trace: ReasoningTrace,
                           visual_context: str | None) -> list[str]:
        subs = model.try_generate(
            "decompose", lambda r: self._parse_subqueries(last_line_json(r)),
            reasoning="\n".join(trace.steps), visual_context=visual_context or "")
        if subs is None:
            logger.warning("decomposition failed; using the original query")
            subs = [model.query]
        return [enhance(sub, visual_context)[0] for sub in subs]

    @staticmethod
    def _parse_subqueries(raw: dict) -> list[str]:
        items = raw["sub_queries"]
        if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
            raise ValueError("sub_queries is not a list of objects")
        if not items:
            raise ValueError("empty decomposition")
        subs = []
        for item in items:
            step = item.get("step")
            if step is not None:
                try:
                    int(step)
                except (TypeError, OverflowError):  # a list, an object, Infinity
                    raise ValueError(f"step {step!r} is not an integer") from None
            text = typed(item["text"], str, "sub-query text")
            if not text.strip():
                raise ValueError("sub-query text must be non-empty")
            subs.append(text)
        return subs

    def fuse_object(self, query: str, entity: VerifiedEntity) -> str:
        """Object-aware query from the question plus the verified entity name."""
        name = entity.entity_name
        if not query.strip():
            return name
        if name.lower() in query.lower():
            return query

        text = query.strip().rstrip("?!.").strip()
        text = _WH_PREFIX_RE.sub("", text)
        replaced, changed = enhance(text, name)
        if changed:
            text = replaced
        else:
            text = f"{text} {name}".strip()
        text = _ARTICLE_RE.sub("", text).strip()
        if not text:
            text = name
        return text[0].upper() + text[1:]

    def text_search(self, subqueries: list[str]) -> list[SearchHit]:
        """Fused web search: k_per_query hits per sub-query, fused to k_total."""
        if not subqueries:
            raise ValueError("subqueries must be non-empty")
        return fuse_hits(
            (self.web_index.search(sub, self.k_per_query) for sub in subqueries),
            self.k_total,
        )
