"""Visual grounding agent: find the queried object and verify its identity.

The chain is: extract candidate objects from the image/question, select the
one the question is about, detect its region(s), run an image-KG search per
region, fuse the hits, and verify that the best retrieved entity is actually
the thing shown. Detection and crop embeddings come from per-image fixtures
(no pixel models here); verification reads a fixture flag on the KG entry.
A failed or undecodable model call falls back (no candidates, the first
candidate); a model call past the turn's deadline ends the turn.
"""

from __future__ import annotations

import difflib
import json
import logging
import re
from dataclasses import dataclass

import numpy as np

from .errors import DetectorUnavailable, EmptyCandidates
from .gateway import ModelGateway, ModelRequest, last_line_json
from .search import ImageKgIndex, ImageRecord, ImageStore, KgEntry, SearchHit, fuse_hits
from .timing import TimeBudget

logger = logging.getLogger(__name__)

MAX_OBJECT_WORDS = 3

# Actions and abstractions the extractor must drop.
ACTION_BLACKLIST = frozenset({
    "running", "walking", "shopping", "driving", "eating", "playing",
    "emotion", "relationship", "happiness", "movement", "action",
})

_POSITION_CUES = ("left", "right", "top", "bottom", "front", "back",
                  "middle", "center", "near", "closest")


@dataclass(frozen=True)
class ObjectCandidate:
    name: str
    distinguishing_attribute: str | None = None

    @property
    def full_name(self) -> str:
        if self.distinguishing_attribute:
            return f"{self.distinguishing_attribute} {self.name}"
        return self.name


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
    anything else scores 0. Entries without the flag return None and the
    caller falls back to the retrieval similarity.
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
        return max(0.0, min(1.0, float(lowered)))
    except ValueError:
        return 0.0


def _object_list(response) -> list:
    names = last_line_json(response)["object_list"]
    if not isinstance(names, list):
        raise ValueError("object_list is not a list of names")
    return names


def _whole_image(record: ImageRecord) -> Region:
    return Region((0, 0, record.width, record.height), "image", 1.0,
                  record.whole_embedding)


@dataclass
class ImageSearchAgent:
    gateway: ModelGateway
    kg_index: ImageKgIndex
    image_store: ImageStore
    entity_threshold: float = 0.5

    # -- object extraction ---------------------------------------------------

    def extract_objects(self, image_ref: str | None, query: str, object_num: int,
                        fixture_key: str = "",
                        budget: TimeBudget | None = None) -> list[ObjectCandidate]:
        if object_num < 1:
            raise ValueError("object_num must be >= 1")
        request = ModelRequest(
            template_id="object_list",
            slots={"query": query, "object_num": str(object_num)},
            fixture_key=fixture_key,
            image_ref=image_ref,
        )
        names = self.gateway.try_generate(request, _object_list, budget)
        if names is None:
            logger.warning("object extraction failed; falling back to whole image")
            return []

        candidates: list[ObjectCandidate] = []
        for raw in names:
            name = _normalize_name(str(raw))
            if not name or name in ACTION_BLACKLIST:
                continue
            candidates.append(ObjectCandidate(name))
            if len(candidates) >= object_num:
                break
        return candidates

    def select_object(self, candidates: list[ObjectCandidate], query: str,
                      image_ref: str | None, fixture_key: str = "",
                      budget: TimeBudget | None = None) -> ObjectCandidate:
        if not candidates:
            raise EmptyCandidates("no object candidates to select from")
        if len(candidates) == 1:
            return candidates[0]

        request = ModelRequest(
            template_id="object_select",
            slots={
                "query": query,
                "object_list": json.dumps([c.name for c in candidates]),
            },
            fixture_key=fixture_key,
            image_ref=image_ref,
        )
        chosen = self.gateway.try_generate(
            request, lambda r: _normalize_name(str(last_line_json(r)["object"])), budget)
        if chosen is None:
            chosen = candidates[0].name

        names = [c.name for c in candidates]
        attribute: str | None = None
        if chosen not in names:
            head = chosen.split()[-1] if chosen else ""
            if head in names:
                # Model answered "red car" against candidate "car": keep the
                # extra words as the distinguishing attribute.
                attribute = chosen[: -len(head)].strip() or None
                chosen = head
            else:
                nearest = difflib.get_close_matches(chosen, names, n=1, cutoff=0.0)
                logger.warning("selected object %r not in candidates; using %r",
                               chosen, nearest[0])
                chosen = nearest[0]

        selected = next(c for c in candidates if c.name == chosen)
        if attribute is None and names.count(chosen) > 1:
            attribute = self._position_attribute(query)
        if attribute and selected.distinguishing_attribute is None:
            selected = ObjectCandidate(selected.name, attribute)
        return selected

    @staticmethod
    def _position_attribute(query: str) -> str | None:
        lowered = query.lower()
        for cue in _POSITION_CUES:
            if re.search(rf"\b{cue}\b", lowered):
                return cue
        return None

    # -- detection -----------------------------------------------------------

    def detect_regions(self, image_ref: str | None, object_name: str) -> list[Region]:
        if not object_name:
            raise ValueError("object_name must be non-empty")
        record = self.image_store.get(image_ref) if image_ref else None
        if record is None:
            raise DetectorUnavailable(f"no image fixture for {image_ref!r}")

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

    def ground(self, image_ref: str | None, query: str, object_num: int, k: int,
               fixture_key: str = "",
               budget: TimeBudget | None = None) -> tuple[list[SearchHit], VerifiedEntity | None]:
        """Run the whole visual toolchain; falls back to whole-image search.

        Without an image fixture there is no region to search: no hits, no
        entity.
        """
        candidates = self.extract_objects(image_ref, query, object_num,
                                          fixture_key, budget)
        if candidates:
            target = self.select_object(candidates, query, image_ref,
                                        fixture_key, budget)
            try:
                regions = self.detect_regions(image_ref, target.name)
            except DetectorUnavailable:
                return [], None
        else:
            record = self.image_store.get(image_ref) if image_ref else None
            if record is None:
                return [], None
            regions = [_whole_image(record)]

        hits = self.multi_image_search(regions, k)
        entity = self.select_entity(hits)
        return hits, entity
