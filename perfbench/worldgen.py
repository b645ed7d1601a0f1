"""Seeded synthetic worlds for the turn-latency benchmark.

    python3 perfbench/worldgen.py --workload web_scale --seed 7 --out DIR [--scale 1.0]

writes, in the formats of the README's "External interfaces" section:

    web_corpus.jsonl  kg_corpus.jsonl  image_fixtures.jsonl
    model_fixtures.jsonl  dataset.jsonl  config.json

plus ``expected.jsonl``, one row per turn with the branch, stage chain and
final answer the pipeline must produce. The expectations follow from how each
turn is scripted (see ``KINDS``), not from running the pipeline. Every turn
gets all six per-turn fixtures (evaluator, object_list, object_select,
decompose, post_answer, verifier), so a missing one is a generator bug that
surfaces as ``UnknownFixture`` rather than as a silent agent fallback.

The same (workload, seed, scale) gives byte-identical files: every random
draw comes from one seeded generator and the config names its files by bare
name, relative to the config's own directory.

Synthetic words use consonants k l m n r v z d t g s and vowels a o u only.
No routing lexicon entry (hedges, "i don't know", open-world cues such as
"how much", analytic and excluded-category terms) can be spelt from them, so
the scripted traces route exactly as their kind says.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dynarag.gateway import FixtureEntry  # noqa: E402
from dynarag.postanswer import FALLBACK_ANSWER as FALLBACK  # noqa: E402
from dynarag.search import ImageRecord, KgEntry, WebDoc  # noqa: E402

DIM = 256
HIGH_PROBS = (0.97, 0.96, 0.98, 0.95)
LOW_PROBS = (0.4, 0.5, 0.45)
VERDICT_CORRECT = ("**Reason:** The answer is supported by the evidence.\n"
                   "**Response:** Correct Answer")
VERDICT_INCORRECT = ("**Reason:** The evidence contradicts the stated answer.\n"
                     "**Response:** Incorrect Answer")
TEMPLATES = ("evaluator", "object_list", "object_select", "decompose",
             "post_answer", "verifier")
# Scripted model latency of every call, in ms: the default of the bundled demo
# world's fixtures (``dynarag.fixtures``). No per-template latency has been
# measured, so none is invented here.
LATENCY_MS = 40.0

_CONSONANTS = "klmnrvzdtgs"
_VOWELS = "aou"
# Visible objects: one lowercase word each, so never a specific identity, and
# none in an excluded category (book, packaged goods, plant).
THINGS = ("lamp", "clock", "chair", "guitar", "camera", "statue", "fountain",
          "tower", "boat", "vase", "sculpture", "helmet", "watch", "painting",
          "mural", "tractor", "bicycle", "piano", "kettle", "teapot")
# (question, attribute) for turns that need facts beyond the image.
FACETS = (
    ("Who made this {t}?", "maker"),
    ("Who designed this {t}?", "designer"),
    ("What is the price of this {t}?", "price"),
    ("How tall is this {t}?", "height"),
)
EXTRA_ATTRIBUTES = ("material", "finish", "origin", "series", "era", "weight",
                    "width", "depth", "colour", "style", "workshop", "edition")
SECTION_TITLES = ("Overview", "Early work", "Design notes", "Materials",
                  "Production run", "Reception", "Collections", "Restoration")

BASE_STAGES = ["pre_answer", "route_search"]
VERIFY_STAGES = BASE_STAGES + ["text_search", "rerank", "verify"]


def _rag_stages(image: bool, text: bool) -> list[str]:
    chain = BASE_STAGES + ["route_tools"]
    if image:
        chain.append("image_search")
    if text:
        chain.append("text_search")
    return chain + ["rerank", "generate", "verify"]


# kind -> (branch, stages). Variants of one branch differ in their outcome.
KINDS = {
    "direct_ocr": ("direct_output", BASE_STAGES),
    "direct_sum": ("direct_output", BASE_STAGES),
    "verify_ok": ("search_verify", VERIFY_STAGES),
    "verify_rejected": ("search_verify", VERIFY_STAGES),
    "verify_lowprob": ("search_verify", VERIFY_STAGES),
    "rag_it_ok": ("rag_augment", _rag_stages(True, True)),
    "rag_it_idk": ("rag_augment", _rag_stages(True, True)),
    "rag_it_wrong": ("rag_augment", _rag_stages(True, True)),
    "rag_i_ok": ("rag_augment", _rag_stages(True, False)),
    "rag_t_ok": ("rag_augment", _rag_stages(False, True)),
}


@dataclass(frozen=True)
class Spec:
    """Sizes and traffic shape of one synthetic workload at scale 1."""

    entities: int
    web_docs: int
    hard_negative_share: float
    hard_negative_rate: float
    long_html: bool
    sessions: int
    # One block of 30 turns (10 sessions of 3); every block has this mix.
    block: dict[str, int]
    # Sessions draw their entity from this many entities; 0 means all.
    hot_entities: int = 0
    # KG attributes beyond the six every entity has: a count in [lo, hi).
    extra_attributes: tuple[int, int] = (0, 1)


SPECS = {
    # Many short docs, queries over the whole corpus: the full-corpus web
    # scan dominates each turn and index build dominates set-up.
    "web_scale": Spec(
        entities=2500, web_docs=10000, hard_negative_share=0.10,
        hard_negative_rate=0.5, long_html=False, sessions=20,
        block={"direct_ocr": 2, "direct_sum": 1, "verify_ok": 8,
               "verify_rejected": 2, "verify_lowprob": 1, "rag_it_ok": 10,
               "rag_it_idk": 1, "rag_it_wrong": 1, "rag_i_ok": 2,
               "rag_t_ok": 2},
    ),
    # Few long headed html docs on a hot topic set: per-turn chunking and
    # chunk encoding dominate, the web scan is small.
    "long_docs": Spec(
        entities=500, web_docs=2000, hard_negative_share=0.0,
        hard_negative_rate=0.0, long_html=True, sessions=20,
        block={"direct_ocr": 2, "direct_sum": 1, "verify_ok": 5,
               "verify_rejected": 1, "rag_it_ok": 16, "rag_it_idk": 1,
               "rag_it_wrong": 1, "rag_i_ok": 1, "rag_t_ok": 2},
        hot_entities=20, extra_attributes=(6, 10),
    ),
}


def _all_words() -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    two = [a + b for a in syllables for b in syllables]
    three = [w + s for w in two for s in syllables]
    return two + three


def _forbidden_substrings() -> tuple[str, ...]:
    """Every routing lexicon entry a synthetic word must not contain."""
    from dynarag.config import RoutingConfig

    routing = RoutingConfig()
    entries = (routing.unanswerable_phrases + routing.speculative_patterns
               + routing.ocr_patterns + routing.open_world_cues
               + routing.generic_labels + routing.analytic_patterns)
    for terms in routing.exclusion_categories.values():
        entries += terms
    return tuple(e.lower() for e in entries)


class World:
    """Draws every synthetic value from one seeded generator, in a fixed order."""

    def __init__(self, spec: Spec, seed: int, scale: float):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.scale = scale
        forbidden = _forbidden_substrings()
        words = [w for w in _all_words() if not any(f in w for f in forbidden)]
        self.words = np.array(words, dtype=object)
        self.rng.shuffle(self.words)

    def n(self, count: int, minimum: int) -> int:
        return max(minimum, int(round(count * self.scale)))

    def word(self) -> str:
        return str(self.words[self.rng.integers(len(self.words))])

    def text(self, count: int) -> str:
        return " ".join(self.words[self.rng.integers(len(self.words), size=count)])

    def name(self) -> str:
        return f"{self.word().capitalize()} {self.word().capitalize()}"

    def unit_vector(self) -> np.ndarray:
        vec = self.rng.standard_normal(DIM)
        return vec / np.linalg.norm(vec)


def _dcot(query: str, object_name: str, steps: list[str], answer: str,
          reasoning: str) -> str:
    lines = [f'1. The exact name of the object that the query "{query}" '
             f"is about is {object_name}."]
    lines += [f"{i}. {step}" for i, step in enumerate(steps, start=2)]
    lines.append(json.dumps({"reasoning": reasoning, "answer": answer}))
    return "\n".join(lines)


def _subqueries(*texts: str) -> str:
    return json.dumps({"sub_queries": [{"text": t, "step": i}
                                       for i, t in enumerate(texts)]})


def _entities(w: World) -> list[dict]:
    names: set[str] = set()
    entities = []
    lo, hi = w.spec.extra_attributes
    for _ in range(w.n(w.spec.entities, 20)):
        name = w.name()
        while name in names:
            name = w.name()
        names.add(name)
        thing = THINGS[int(w.rng.integers(len(THINGS)))]
        attributes = {
            "title": name,
            "type": thing,
            "maker": w.name(),
            "designer": w.name(),
            "price": f"${int(w.rng.integers(20, 9000))}",
            "height": f"{int(w.rng.integers(10, 400))} centimetres",
        }
        extra = int(w.rng.integers(lo, hi))
        for key in EXTRA_ATTRIBUTES[:extra]:
            attributes[key] = w.text(2)
        # One entity in ten is shown in an image but fails verification.
        if w.rng.random() < 0.1:
            attributes["visual_match"] = "false"
        entities.append({
            "name": name, "thing": thing, "slug": name.lower().replace(" ", "-"),
            "embedding": w.unit_vector(), "attributes": attributes,
            "first_shown": int(w.rng.integers(1850, 2020)),
        })
    return entities


def _long_html(w: World, entity: dict, facet: str) -> str:
    parts = [f"<html><body><h1>{entity['name']} - {facet}</h1>"]
    for title in SECTION_TITLES:
        parts.append(f"<h2>{title}</h2>")
        for _ in range(5):
            words = int(w.rng.integers(40, 52))
            sentence = w.text(words).capitalize()
            parts.append(f"<p>{entity['name']} {entity['thing']}: {sentence}.</p>")
    parts.append("</body></html>")
    return "\n".join(parts)


def _web_docs(w: World, entities: list[dict]) -> list[WebDoc]:
    spec = w.spec
    total = w.n(spec.web_docs, 40)
    negatives = int(round(total * spec.hard_negative_share))
    docs = []
    for i in range(total - negatives):
        entity = entities[i % len(entities)]
        facet_key = FACETS[(i // len(entities)) % len(FACETS)][1]
        title = f"{entity['name']} - {facet_key} and history"
        snippet = (f"{entity['name']} is a {entity['thing']} whose {facet_key} is "
                   f"{entity['attributes'][facet_key]}; {w.text(14)}.")
        docs.append(WebDoc(
            url=f"https://web.example/{entity['slug']}/{i}",
            title=title,
            snippet=snippet,
            html=_long_html(w, entity, facet_key) if spec.long_html else "",
            timestamp=f"2024-{1 + i % 12:02d}-{1 + i % 28:02d}",
        ))
    for i in range(negatives):
        thing = THINGS[i % len(THINGS)]
        facet_key = FACETS[i % len(FACETS)][1]
        docs.append(WebDoc(
            url=f"https://ads.example/deal-{i}",
            title=f"Best {thing} {facet_key} deals",
            snippet=f"Who made the {thing} you want? Compare {facet_key} offers "
                    f"for {w.name()} and {w.name()} today; {w.text(8)}.",
            timestamp="2024-06-01",
            is_hard_negative=True,
        ))
    return docs


def _kg_entries(entities: list[dict]) -> list[KgEntry]:
    return [
        KgEntry(entity_name=e["name"], url=f"kg://{e['thing']}/{e['slug']}",
                image_embedding=e["embedding"], attributes=e["attributes"])
        for e in entities
    ]


def _turn(w: World, kind: str, entity: dict, session_id: str, index: int,
          image_id: str) -> tuple[dict, list[FixtureEntry], dict]:
    """Dataset row, the six fixtures and the expectation for one turn."""
    thing, name = entity["thing"], entity["name"]
    attrs = entity["attributes"]
    key = f"{session_id}:{index}"
    eval_probs = HIGH_PROBS
    verdict = VERDICT_CORRECT
    facet_q, facet = FACETS[int(w.rng.integers(len(FACETS)))]
    generation = ("No evidence was needed.", FALLBACK)

    if kind == "direct_ocr":
        phrase = f"{w.word().capitalize()} {w.word().capitalize()}"
        question = f"What is written on this {thing}?"
        answer = f'The {thing} says "{phrase}".'
        text = _dcot(question, f"the {thing}",
                     [f'The text written on the {thing} reads "{phrase}".'],
                     answer, "Read the printed text.")
        truth, final = phrase, answer
    elif kind == "direct_sum":
        a, b = int(w.rng.integers(1, 90)), int(w.rng.integers(1, 90))
        question = f"What is the total of the two amounts shown on this {thing}?"
        answer = f"The total is ${a + b}.00."
        text = _dcot(question, f"the {thing}",
                     [f"The first amount shown is ${a}.00 and the second is ${b}.00.",
                      f"Together the two amounts make ${a + b}.00."],
                     answer, "Added the two printed amounts.")
        truth, final = f"${a + b}.00", answer
    elif kind.startswith("verify"):
        year = entity["first_shown"]
        question = f"When was this {thing} first shown?"
        answer = f"{name} was probably first shown in {year}."
        text = _dcot(question, name, [answer], answer,
                     "Recognized the object and recalled its first showing.")
        truth, final = str(year), answer
        if kind == "verify_rejected":
            verdict, final = VERDICT_INCORRECT, FALLBACK
        elif kind == "verify_lowprob":
            eval_probs, final = LOW_PROBS, FALLBACK
    elif kind == "rag_t_ok":
        question = "Who wrote this novel?"
        author = attrs["designer"]
        text = _dcot(question, "the novel",
                     ["I cannot determine the author of the novel."],
                     "I cannot determine the author of the novel.",
                     "The cover names no author.")
        generation = (f"The evidence credits the novel to {author}.",
                      f"The novel was written by {author}.")
        truth, final = author, generation[1]
    else:
        if kind == "rag_i_ok":
            question, what = f"Which model is this {thing}?", "model"
            generation = (f"The retrieved entry identifies the {thing} as {name}.",
                          f"The {thing} is a {name}.")
            truth = name
        else:
            question, what = facet_q.format(t=thing), facet
            value = attrs[facet]
            generation = (f"The evidence gives the {facet} of {name} as {value}.",
                          f"The {facet} of the {thing} is {value}.")
            truth = value
        text = _dcot(question, f"the {thing}",
                     [f"I cannot determine the {what} of the {thing}."],
                     f"I cannot determine the {what} of the {thing}.",
                     f"The {what} is not visible.")
        final = generation[1]
        if kind == "rag_it_idk":
            generation = (FALLBACK + ".", FALLBACK + ".")
            final = FALLBACK
        elif kind == "rag_it_wrong":
            generation = (generation[0], f"The {facet} of the {thing} is unknown.")
            final = generation[1]

    texts = {
        "evaluator": (text, eval_probs),
        "object_list": (json.dumps({"object_list": [thing, "table"]}), HIGH_PROBS),
        "object_select": (json.dumps({"object": thing}), HIGH_PROBS),
        "decompose": (_subqueries(question, f"{name} {thing} {facet}"), HIGH_PROBS),
        "post_answer": (f"reason: {generation[0]}\nanswer: {generation[1]}", HIGH_PROBS),
        "verifier": (verdict, HIGH_PROBS),
    }
    fixtures = [FixtureEntry(t, key, texts[t][0], texts[t][1], LATENCY_MS)
                for t in TEMPLATES]
    row = {
        "session_id": session_id, "turn_index": index, "question": question,
        "image_ref": image_id, "ground_truth": truth,
        "taxonomy": {"dynamism": "static", "category": kind, "domain": "other"},
    }
    branch, stages = KINDS[kind]
    expected = {"session_id": session_id, "turn_index": index, "kind": kind,
                "branch": branch, "stages": stages, "final_answer": final}
    return row, fixtures, expected


def _sessions(w: World, entities: list[dict]):
    spec = w.spec
    block = [k for k, count in spec.block.items() for _ in range(count)]
    pool = entities[: spec.hot_entities] if spec.hot_entities else entities
    blocks = max(1, w.n(spec.sessions, 1) // 10)
    images, rows, fixtures, expected = [], [], [], []
    for b in range(blocks):
        kinds = list(block)
        w.rng.shuffle(kinds)
        for s in range(10):
            session_id = f"s{b:03d}-{s}"
            entity = pool[int(w.rng.integers(len(pool)))]
            image_id = f"img-{session_id}"
            images.append(ImageRecord(
                image_id=image_id,
                whole_embedding=w.unit_vector(),
                regions=[
                    {"label": entity["thing"], "bbox": (40, 60, 320, 240),
                     "embedding": entity["embedding"], "confidence": 0.9},
                    {"label": "table", "bbox": (0, 300, 640, 180),
                     "embedding": w.unit_vector(), "confidence": 0.8},
                ],
            ))
            for index, kind in enumerate(kinds[3 * s: 3 * s + 3]):
                row, fx, exp = _turn(w, kind, entity, session_id, index, image_id)
                rows.append(row)
                fixtures.extend(fx)
                expected.append(exp)
    return images, rows, fixtures, expected


def _dump(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def generate(workload: str, seed: int, out: str | Path, scale: float = 1.0) -> Path:
    """Write the world for ``workload`` into ``out``; returns the config path."""
    spec = SPECS[workload]
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    w = World(spec, seed, scale)
    entities = _entities(w)
    docs = _web_docs(w, entities)
    images, rows, fixtures, expected = _sessions(w, entities)

    _dump(out / "web_corpus.jsonl", (d.to_dict() for d in docs))
    _dump(out / "kg_corpus.jsonl", (k.to_dict() for k in _kg_entries(entities)))
    _dump(out / "image_fixtures.jsonl", (r.to_dict() for r in images))
    _dump(out / "model_fixtures.jsonl", (f.to_dict() for f in fixtures))
    _dump(out / "dataset.jsonl", rows)
    _dump(out / "expected.jsonl", expected)
    config = {
        "encoder": {"dim": DIM},
        "hard_negative": {"rate": spec.hard_negative_rate},
        "paths": {
            "web_corpus": "web_corpus.jsonl",
            "kg_corpus": "kg_corpus.jsonl",
            "image_fixtures": "image_fixtures.jsonl",
            "model_fixtures": "model_fixtures.jsonl",
        },
    }
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply corpus and session counts (smoke tests)")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
