"""Visual grounding agent: find the queried object and verify its identity.

The chain is: extract candidate object names from the image/question, select
the one the question is about, detect its region(s), run an image-KG search
per region, fuse the hits, and verify that the best retrieved entity is
actually the thing shown. Objects are plain names; a selection reply outside
the candidates is repaired to its head word or to the nearest name.
Detection and crop embeddings come from per-image fixtures (no pixel models
here); verification reads a fixture flag on the KG entry. Without candidates
the whole image is searched; when the turn's image has no fixture nothing is.
A failed or undecodable model call falls back (no candidates, the first
candidate); a name that is not a JSON string makes its reply undecodable. A
model call past the turn's deadline ends the turn.
"""

from __future__ import annotations

import difflib
import json
import logging
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import typed
from .gateway import TurnModel, last_line_json
from .search import ImageKgIndex, ImageRecord, ImageStore, KgEntry, SearchHit, fuse_hits

logger = logging.getLogger(__name__)

MAX_OBJECT_WORDS = 3

# Actions and abstractions the extractor must drop.
ACTION_BLACKLIST = frozenset({
    "running", "walking", "shopping", "driving", "eating", "playing",
    "emotion", "relationship", "happiness", "movement", "action",
})


@dataclass(frozen=True)
class Region:
    bbox: tuple[int, int, int, int]  # x, y, w, h in pixels
    label: str
    detector_confidence: float
    embedding: np.ndarray


@dataclass(frozen=True)
class VerifiedEntity:
    entity_name: str
    kg_entry: KgEntry
    match_score: float


def _normalize_name(name: str) -> str:
    words = re.findall(r"[\w'-]+", name.lower())
    return " ".join(words[:MAX_OBJECT_WORDS])


def visual_match(entry: KgEntry) -> float | None:
    """The entry's scripted `visual_match` attribute as a score in [0, 1].

    Values accepted: "true"/"false" (or "yes"/"no") or a float, clamped;
    anything else, NaN included, scores 0. Entries without the flag return
    None and the caller falls back to the retrieval similarity.
    """
    raw = entry.attributes.get("visual_match")
    if raw is None:
        return None
    lowered = raw.strip().lower()
    if lowered in ("true", "yes"):
        return 1.0
    if lowered in ("false", "no"):
        return 0.0
    try:
        score = float(lowered)
    except ValueError:
        return 0.0
    return 0.0 if math.isnan(score) else max(0.0, min(1.0, score))


def _object_list(response) -> list[str]:
    names = last_line_json(response)["object_list"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError("object_list is not a list of names")
    return names


def _selected_object(response) -> str:
    """The reply's object, normalized; ValueError when no word is left, so an
    empty selection falls back to the first candidate."""
    name = _normalize_name(typed(last_line_json(response)["object"], str, "object"))
    if not name:
        raise ValueError("selected object has no word")
    return name


def _whole_image(record: ImageRecord) -> Region:
    return Region((0, 0, record.width, record.height), "image", 1.0,
                  record.whole_embedding)


@dataclass
class ImageSearchAgent:
    kg_index: ImageKgIndex
    image_store: ImageStore
    entity_threshold: float = 0.5

    # -- object extraction ---------------------------------------------------

    def extract_objects(self, model: TurnModel, object_num: int) -> list[str]:
        if object_num < 1:
            raise ValueError("object_num must be >= 1")
        names = model.try_generate("object_list", _object_list,
                                   object_num=str(object_num))
        if names is None:
            logger.warning("object extraction failed; falling back to whole image")
            return []

        candidates: list[str] = []
        for raw in names:
            name = _normalize_name(raw)
            if not name or name in ACTION_BLACKLIST:
                continue
            candidates.append(name)
            if len(candidates) >= object_num:
                break
        return candidates

    def select_object(self, model: TurnModel, candidates: list[str]) -> str:
        if not candidates:
            raise ValueError("candidates must be non-empty")
        if len(candidates) == 1:
            return candidates[0]

        chosen = model.try_generate("object_select", _selected_object,
                                    object_list=json.dumps(candidates))
        if chosen is None:
            return candidates[0]
        if chosen in candidates:
            return chosen
        head = chosen.split()[-1]
        if head in candidates:
            # Model answered "red car" against candidate "car".
            return head
        nearest = difflib.get_close_matches(chosen, candidates, n=1, cutoff=0.0)[0]
        logger.warning("selected object %r not in candidates; using %r", chosen, nearest)
        return nearest

    # -- detection -----------------------------------------------------------

    def detect_regions(self, record: ImageRecord, object_name: str) -> list[Region]:
        if not object_name:
            raise ValueError("object_name must be non-empty")
        head = object_name.split()[-1].lower()
        matches = []
        for raw in record.regions:
            label = raw["label"].lower()
            if label == object_name.lower() or label == head or head in label.split():
                region = self._clamp_region(raw, record.width, record.height)
                if region is not None:
                    matches.append(region)
        return matches or [_whole_image(record)]

    @staticmethod
    def _clamp_region(raw: dict, width: int, height: int) -> Region | None:
        x, y, w, h = raw["bbox"]
        x = max(0, min(int(x), width - 1))
        y = max(0, min(int(y), height - 1))
        w = min(int(w), width - x)
        h = min(int(h), height - y)
        if w <= 0 or h <= 0:
            return None
        return Region((x, y, w, h), raw["label"], raw.get("confidence", 1.0),
                      raw["embedding"])

    # -- fused retrieval -----------------------------------------------------

    def multi_image_search(self, regions: list[Region], k: int) -> list[SearchHit]:
        """Per-region KG search, fused by max-score url dedup, descending.

        Ordering mirrors the underlying index (score desc, url as tie-break)
        so fusing a single region's results is exactly that search. Relating
        the hits back to the text query is the reranker's job downstream.
        """
        if not regions:
            raise ValueError("regions must be non-empty")
        return fuse_hits((self.kg_index.search(r.embedding, k) for r in regions), k)

    # -- entity verification ---------------------------------------------------

    def select_entity(self, hits: list[SearchHit]) -> VerifiedEntity | None:
        for hit in hits:
            entry = hit.payload
            score = visual_match(entry)
            if score is None:
                # No explicit verdict: trust the retrieval similarity.
                score = min(1.0, max(0.0, hit.score))
            if score >= self.entity_threshold:
                return VerifiedEntity(entry.entity_name, entry, score)
        return None

    # -- full sub-pipeline -----------------------------------------------------

    def ground(self, model: TurnModel, object_num: int,
               k: int) -> tuple[list[SearchHit], VerifiedEntity | None]:
        """Run the whole visual toolchain on the turn's image; with no
        candidate object the whole image is searched. Without a fixture for
        the image there is no region to search: no hits, no entity.
        """
        candidates = self.extract_objects(model, object_num)
        target = self.select_object(model, candidates) if candidates else None
        record = self.image_store.get(model.image_ref)
        if record is None:
            return [], None
        regions = ([_whole_image(record)] if target is None
                   else self.detect_regions(record, target))
        hits = self.multi_image_search(regions, k)
        return hits, self.select_entity(hits)
