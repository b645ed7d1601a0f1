"""Deterministic demo world: corpora, image fixtures, scripted model calls.

Everything the end-to-end golden tests, the demos and the CLI smoke runs need
comes out of this module. The world is a small universe of storefronts, cars,
plants and products whose scripted reasoning traces cover all three execution
branches, single- and multi-source retrieval, a 3-turn dialogue, a deadline
breach and both verifier rejection modes.

``build_world_runtime`` wires it in memory; ``write_world`` materializes the
same world as the JSONL/YAML files the external interfaces define.
"""

from __future__ import annotations

import json
from pathlib import Path

from .config import PipelineConfig
from .encoders import HashedTextEncoder
from .gateway import FixtureEntry, ModelGateway, ScriptedBackend
from .pipeline import PipelineRuntime
from .search import (
    ImageKgIndex,
    ImageRecord,
    ImageStore,
    KgEntry,
    WebDoc,
    WebSearchIndex,
    unit_embedding_for,
)

DIM = 256
HIGH_PROBS = (0.97, 0.96, 0.98, 0.95)
LOW_PROBS = (0.4, 0.5, 0.45)


# --- corpora -----------------------------------------------------------------

WEB_DOCS: list[dict] = [
    {
        "url": "https://example.com/blue-bottle",
        "title": "Blue Bottle Coffee - History",
        "snippet": "Blue Bottle Coffee was founded by James Freeman in 2002 in Oakland California.",
    },
    {
        "url": "https://example.com/bmw-m4",
        "title": "BMW M4 - Production",
        "snippet": "The BMW M4 is a high performance coupe whose production began in 2014.",
    },
    {
        "url": "https://example.com/eiffel",
        "title": "Eiffel Tower - Facts",
        "snippet": "The Eiffel Tower in Paris is 330 metres tall and was completed in 1889.",
    },
    {
        "url": "https://example.com/blue-whale",
        "title": "Blue whale - Overview",
        "snippet": "The blue whale is the largest animal known ever to have existed.",
    },
    {
        "url": "https://example.com/porsche-911-history",
        "title": "Porsche 911 - History",
        "snippet": "Production of the Porsche 911 began in 1964 and continues today.",
    },
    {
        "url": "https://example.com/porsche-911-design",
        "title": "Porsche 911 - Design",
        "snippet": "The Porsche 911 was designed by Ferdinand Alexander Porsche.",
    },
    {
        "url": "https://example.com/gatsby",
        "title": "The Great Gatsby - Background",
        "snippet": "The Great Gatsby is a novel by F. Scott Fitzgerald, regarded as a literary classic.",
    },
    {
        "url": "https://example.com/echeveria",
        "title": "Echeveria elegans care guide",
        "snippet": "Echeveria elegans is a succulent plant with pale rosette leaves.",
    },
    {
        "url": "https://example.com/landowski",
        "title": "Paul Landowski - Works",
        "snippet": "The statue Christ the Redeemer was sculpted by Paul Landowski and completed in 1931.",
    },
    {
        "url": "https://example.com/alessi-9093",
        "title": "Alessi 9093 Kettle - Retail",
        "snippet": "The Alessi 9093 kettle designed by Michael Graves retails for a price of $179.",
    },
    {
        "url": "https://example.com/golden-gate",
        "title": "Golden Gate Bridge - Construction",
        "snippet": "The Golden Gate Bridge was completed in 1937 after four years of construction.",
    },
    {
        "url": "https://example.com/edinburgh-castle",
        "title": "Edinburgh Castle - History",
        "snippet": "Edinburgh Castle has a royal castle history reaching back to the 12th century.",
    },
    {
        "url": "https://example.com/noise-umbrellas",
        "title": "Cheap umbrellas online",
        "snippet": "Buy discount umbrellas and patio furniture at unbeatable prices today.",
        "is_hard_negative": True,
    },
    {
        "url": "https://example.com/noise-travel",
        "title": "Top ten travel deals",
        "snippet": "Travel deals and coupons for hotels flights and rental cars this week.",
        "is_hard_negative": True,
    },
]

# (entity, url, embedding seed, attributes)
KG_ROWS: list[tuple[str, str, str, dict[str, str]]] = [
    (
        "Blue Bottle Coffee",
        "kg://cafe/blue-bottle",
        "blue bottle cafe storefront",
        {"title": "Blue Bottle Coffee", "type": "coffee shop cafe", "city": "Oakland"},
    ),
    (
        "Porsche 911",
        "kg://car/porsche-911",
        "silver porsche 911 street",
        {"title": "Porsche 911", "brand": "Porsche", "type": "sports car"},
    ),
    (
        "Alessi 9093 Kettle",
        "kg://product/alessi-9093",
        "red kettle product shot",
        {"title": "Alessi 9093 Kettle", "brand": "Alessi", "price": "$179",
         "type": "kettle"},
    ),
    (
        "Christ the Redeemer",
        "kg://statue/christ-redeemer",
        "statue on mountain arms outstretched",
        {"title": "Christ the Redeemer", "type": "statue monument",
         "location": "Rio de Janeiro"},
    ),
    (
        "Shiba Inu",
        "kg://animal/shiba-inu",
        "small orange dog curled tail",
        {"title": "Shiba Inu", "type": "dog breed", "origin": "Japan"},
    ),
    (
        "La Marzocco Linea Mini",
        "kg://product/linea-mini",
        "stainless espresso machine countertop",
        {"title": "La Marzocco Linea Mini", "brand": "La Marzocco",
         "type": "espresso machine", "price": "$5900"},
    ),
]

# (image_id, whole seed, [(label, bbox, region seed)])
IMAGE_ROWS: list[tuple[str, str, list[tuple[str, tuple[int, int, int, int], str]]]] = [
    ("img-umbrella", "beach umbrellas with printed text", []),
    ("img-receipt", "paper receipt two amounts", []),
    ("img-sign", "french street sign", []),
    ("img-math", "whiteboard integral expression", []),
    ("img-awning", "storefront awning lettering", []),
    ("img-car-pair", "two coupes parked", []),
    ("img-tower", "iron lattice tower from below", []),
    ("img-whale", "large marine animal surfacing", []),
    ("img-bridge", "suspension bridge in fog", []),
    ("img-castle", "castle on volcanic rock", []),
    ("img-cafe", "cafe storefront street",
     [("cafe", (40, 60, 320, 240), "blue bottle cafe storefront")]),
    ("img-statue", "hilltop monument wide view",
     [("statue", (200, 20, 160, 400), "statue on mountain arms outstretched")]),
    ("img-kettle", "kitchen stove scene",
     [("kettle", (120, 140, 180, 200), "red kettle product shot")]),
    ("img-dog", "dog on a leash in park",
     [("dog", (80, 100, 240, 220), "small orange dog curled tail")]),
    ("img-espresso", "coffee bar counter",
     [("machine", (60, 40, 300, 260), "stainless espresso machine countertop")]),
    ("img-car-street", "street with parked classic car",
     [("car", (30, 150, 420, 240), "silver porsche 911 street")]),
    ("img-plant", "small succulent rosette in pot", []),
    ("img-book", "novel with art deco cover", []),
    ("img-pastry", "heart shaped pastry on plate",
     [("pastry", (150, 120, 200, 180), "heart shaped raspberry pastry")]),
]


def build_web_docs() -> list[WebDoc]:
    return [WebDoc.from_dict(raw) for raw in WEB_DOCS]


def build_kg_entries() -> list[KgEntry]:
    return [KgEntry(entity, url, unit_embedding_for(seed, DIM), attributes)
            for entity, url, seed, attributes in KG_ROWS]


def build_image_records() -> list[ImageRecord]:
    records = []
    for image_id, whole_seed, regions in IMAGE_ROWS:
        records.append(
            ImageRecord(
                image_id=image_id,
                whole_embedding=unit_embedding_for(whole_seed, DIM),
                regions=[
                    {
                        "label": label,
                        "bbox": bbox,
                        "embedding": unit_embedding_for(seed, DIM),
                        "confidence": 0.9,
                    }
                    for label, bbox, seed in regions
                ],
            )
        )
    return records


# --- scripted model calls ------------------------------------------------------


def _dcot(query: str, object_name: str, steps: list[str],
          answer: str, reasoning: str) -> str:
    lines = [
        f'1. The exact name of the object that the query "{query}" '
        f"is about is {object_name}."
    ]
    for i, step in enumerate(steps, start=2):
        lines.append(f"{i}. {step}")
    lines.append(json.dumps({"reasoning": reasoning, "answer": answer}))
    return "\n".join(lines)


def _dcot_idk(query: str, what: str, steps: list[str], answer: str,
              reasoning: str) -> str:
    lines = [f"1. I cannot determine the {what} that the query is about."]
    for i, step in enumerate(steps, start=2):
        lines.append(f"{i}. {step}")
    lines.append(json.dumps({"reasoning": reasoning, "answer": answer}))
    return "\n".join(lines)


def _subqueries(*items: tuple[str, int | None]) -> str:
    return json.dumps(
        {"sub_queries": [{"text": text, "step": step} for text, step in items]}
    )


def _objects(*names: str) -> str:
    return json.dumps({"object_list": list(names)})


def _selected(name: str) -> str:
    return json.dumps({"object": name})


def _generation(reason: str, answer: str) -> str:
    return f"reason: {reason}\nanswer: {answer}"


VERDICT_CORRECT = "**Reason:** The answer is supported by the evidence.\n**Response:** Correct Answer"
VERDICT_INCORRECT = "**Reason:** The evidence contradicts the stated answer.\n**Response:** Incorrect Answer"


def _entry(template: str, key: str, text: str,
           probs=HIGH_PROBS, latency_ms: float = 40.0) -> FixtureEntry:
    return FixtureEntry(template, key, text, tuple(probs), latency_ms)


def model_entries() -> list[FixtureEntry]:
    e: list[FixtureEntry] = []

    # -- direct output turns --------------------------------------------------
    e.append(_entry("evaluator", "umbrella-q1:0", _dcot(
        "What is written on these umbrellas?", "the umbrellas",
        ['The text written on the umbrellas reads "Sunny Days".'],
        'The umbrellas say "Sunny Days".',
        "Read the printed canopy text.",
    )))
    e.append(_entry("evaluator", "receipt-q1:0", _dcot(
        "What is the total of the two amounts shown on the receipt?", "the receipt",
        ["The first amount shown is $5.00 and the second is $7.50.",
         "Adding 5.00 and 7.50 gives 12.50."],
        "The total is $12.50.",
        "Added the two printed amounts.",
    )))
    e.append(_entry("evaluator", "sign-q1:0", _dcot(
        "Translate the text on this sign to English.", "the sign",
        ['The sign\'s text reads "Bonjour mes amis".',
         'Translated, the text means "Hello my friends".'],
        'The sign means "Hello my friends".',
        "Read and translated the visible text.",
    )))
    e.append(_entry("evaluator", "math-q1:0", _dcot(
        "What is the integral of x squared from 0 to 3?", "an arithmetic expression",
        ["The antiderivative of x squared is x cubed over 3.",
         "Evaluating from 0 to 3 gives 27 over 3, which equals 9."],
        "9",
        "Computed the definite integral.",
    )))
    e.append(_entry("evaluator", "awning-q1:0", _dcot(
        "What name is printed on the storefront awning?", "the storefront awning",
        ['The name printed on the awning reads "Casa Verde".'],
        'The awning says "Casa Verde".',
        "Read the awning lettering.",
    )))

    # -- search-verify turns ----------------------------------------------------
    e.append(_entry("evaluator", "car-q1:0", _dcot(
        "In which year did the car on the right begin production?", "BMW M4",
        ["The coupe on the right shows the M4 badge and quad exhausts.",
         "Production of the BMW M4 likely began in 2014."],
        "The BMW M4 began production in 2014.",
        "Identified the car and recalled its production start.",
    )))
    e.append(_entry("decompose", "car-q1:0",
                    _subqueries(("When did the BMW M4 begin production?", 2))))
    e.append(_entry("verifier", "car-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "tower-q1:0", _dcot(
        "How tall is this tower?", "the Eiffel Tower",
        ["The wrought iron lattice is approximately 330 metres tall."],
        "The Eiffel Tower is approximately 330 metres tall.",
        "Recognized the tower and recalled its height.",
    )))
    e.append(_entry("decompose", "tower-q1:0",
                    _subqueries(("How tall is the Eiffel Tower?", 1))))
    e.append(_entry("verifier", "tower-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "whale-q1:0", _dcot(
        "What animal is shown in this picture?", "the blue whale",
        ["The mottled blue-grey body and small dorsal fin match the blue whale."],
        "The animal is a blue whale.",
        "Matched the body shape and coloring.",
    )))
    e.append(_entry("decompose", "whale-q1:0",
                    _subqueries(("What does a blue whale look like?", 1))))
    e.append(_entry("verifier", "whale-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "bridge-q1:0", _dcot(
        "In which year was this bridge completed?", "the Golden Gate Bridge",
        ["The bridge was likely completed in 1935."],
        "The Golden Gate Bridge was likely completed in 1935.",
        "Recalled an uncertain completion year.",
    )))
    e.append(_entry("decompose", "bridge-q1:0",
                    _subqueries(("When was the Golden Gate Bridge completed?", 1))))
    e.append(_entry("verifier", "bridge-q1:0", VERDICT_INCORRECT))

    e.append(_entry("evaluator", "castle-q1:0", _dcot(
        "When was this castle built?", "Edinburgh Castle",
        ["The fortress was probably built in the 12th century."],
        "Edinburgh Castle was probably built in the 12th century.",
        "Recalled an uncertain construction era.",
    ), probs=LOW_PROBS))
    e.append(_entry("decompose", "castle-q1:0",
                    _subqueries(("When was Edinburgh Castle built?", 1))))
    e.append(_entry("verifier", "castle-q1:0", VERDICT_CORRECT))

    # -- rag turns ------------------------------------------------------------
    e.append(_entry("evaluator", "cafe-q1:0", _dcot_idk(
        "Who founded this cafe?", "name of the cafe",
        ["The storefront lettering is too small to read."],
        "I cannot determine the name of the cafe.",
        "The cafe name is not readable.",
    )))
    e.append(_entry("object_list", "cafe-q1:0", _objects("cafe", "sign", "awning")))
    e.append(_entry("object_select", "cafe-q1:0", _selected("cafe")))
    e.append(_entry("decompose", "cafe-q1:0",
                    _subqueries(("Who founded this cafe?", 0))))
    e.append(_entry("post_answer", "cafe-q1:0", _generation(
        "The evidence states Blue Bottle Coffee was founded by James Freeman in 2002.",
        "Blue Bottle Coffee was founded by James Freeman.",
    )))
    e.append(_entry("verifier", "cafe-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "statue-q1:0", _dcot_idk(
        "Who sculpted this statue?", "name of the statue",
        ["The statue stands on a hilltop with outstretched arms."],
        "I cannot determine the name of the statue.",
        "The statue is not identified yet.",
    )))
    e.append(_entry("object_list", "statue-q1:0", _objects("statue", "mountain")))
    e.append(_entry("object_select", "statue-q1:0", _selected("statue")))
    e.append(_entry("decompose", "statue-q1:0",
                    _subqueries(("Who sculpted this statue?", 0))))
    e.append(_entry("post_answer", "statue-q1:0", _generation(
        "The evidence says the statue Christ the Redeemer was sculpted by Paul Landowski.",
        "Christ the Redeemer was sculpted by Paul Landowski.",
    )))
    e.append(_entry("verifier", "statue-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "kettle-q1:0", _dcot_idk(
        "What's the price of this?", "product",
        ["A red kettle sits on the stove."],
        "I cannot determine the product.",
        "The product model is unknown.",
    )))
    e.append(_entry("object_list", "kettle-q1:0", _objects("kettle", "stove")))
    e.append(_entry("object_select", "kettle-q1:0", _selected("kettle")))
    e.append(_entry("decompose", "kettle-q1:0",
                    _subqueries(("What's the price of this?", 0))))
    e.append(_entry("post_answer", "kettle-q1:0", _generation(
        "The retrieved entry and the retail page both give a price of $179 "
        "for the Alessi 9093 Kettle.",
        "The Alessi 9093 Kettle costs $179.",
    )))
    e.append(_entry("verifier", "kettle-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "espresso-q1:0", _dcot_idk(
        "What model is this espresso machine?", "model of the espresso machine",
        ["The espresso machine has a stainless body and a single group head."],
        "I cannot determine the model of the espresso machine.",
        "The machine model is unknown.",
    )))
    e.append(_entry("object_list", "espresso-q1:0", _objects("espresso machine", "cup")))
    e.append(_entry("object_select", "espresso-q1:0", _selected("espresso machine")))
    e.append(_entry("post_answer", "espresso-q1:0", _generation(
        "The retrieved entry identifies the espresso machine as the "
        "La Marzocco Linea Mini.",
        "The espresso machine is a La Marzocco Linea Mini.",
    )))
    e.append(_entry("verifier", "espresso-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "dog-q1:0", _dcot_idk(
        "What breed is this dog?", "breed of the dog",
        ["The dog is small with orange fur and a curled tail."],
        "I cannot determine the breed of the dog.",
        "The breed is unknown.",
    )))
    e.append(_entry("object_list", "dog-q1:0", _objects("dog", "leash")))
    e.append(_entry("object_select", "dog-q1:0", _selected("dog")))
    e.append(_entry("post_answer", "dog-q1:0", _generation(
        "The retrieved entry matches a dog breed entry for the Shiba Inu.",
        "The dog is a Shiba Inu.",
    )))
    e.append(_entry("verifier", "dog-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "plant-q1:0", _dcot_idk(
        "What species is this plant?", "species of the plant",
        ["The plant is a small succulent with pale rosette leaves."],
        "I cannot determine the species of the plant.",
        "The species is unknown.",
    )))
    e.append(_entry("decompose", "plant-q1:0",
                    _subqueries(("succulent plant with pale rosette leaves species", 1))))
    e.append(_entry("post_answer", "plant-q1:0", _generation(
        "The evidence describes Echeveria elegans as a succulent with pale rosette leaves.",
        "The plant is Echeveria elegans.",
    )))
    e.append(_entry("verifier", "plant-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "book-q1:0", _dcot(
        "Who wrote this novel?", "The Great Gatsby",
        ["I cannot determine the author that the query is about from memory."],
        "I cannot determine the author.",
        "The title is identified but not its author.",
    )))
    e.append(_entry("decompose", "book-q1:0",
                    _subqueries(("Who wrote this novel?", 0))))
    e.append(_entry("post_answer", "book-q1:0", _generation(
        "The evidence attributes The Great Gatsby to F. Scott Fitzgerald.",
        "The Great Gatsby was written by F. Scott Fitzgerald.",
    )))
    e.append(_entry("verifier", "book-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "pastry-q1:0", _dcot_idk(
        "How much does this pastry cost?", "price of the pastry",
        ["The pastry is heart shaped with a raspberry filling."],
        "I cannot determine the price of the pastry.",
        "No price is visible.",
    )))
    e.append(_entry("object_list", "pastry-q1:0", _objects("pastry", "plate")))
    e.append(_entry("object_select", "pastry-q1:0", _selected("pastry")))
    e.append(_entry("decompose", "pastry-q1:0",
                    _subqueries(("price of heart shaped raspberry pastry bakery", 1))))
    e.append(_entry("post_answer", "pastry-q1:0", _generation(
        "I don't know.",
        "I don't know.",
    )))
    e.append(_entry("verifier", "pastry-q1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "blurry-sign-q1:0", _dcot_idk(
        "Translate the sign in this photo.", "text on the sign",
        ["The sign is too blurry to read any letters."],
        "I cannot determine the text on the sign.",
        "The sign is unreadable.",
    )))
    e.append(_entry("post_answer", "blurry-sign-q1:0", _generation(
        "I don't know.",
        "I don't know.",
    )))
    e.append(_entry("verifier", "blurry-sign-q1:0", VERDICT_CORRECT))

    # -- 3-turn dialogue ---------------------------------------------------------
    e.append(_entry("evaluator", "dialog-1:0", _dcot_idk(
        "What kind of car is this?", "model of the car",
        ["The car has a rounded coupe silhouette typical of classic sports cars."],
        "I cannot determine the model of the car.",
        "The model is unknown.",
    )))
    e.append(_entry("object_list", "dialog-1:0", _objects("car", "street")))
    e.append(_entry("object_select", "dialog-1:0", _selected("car")))
    e.append(_entry("post_answer", "dialog-1:0", _generation(
        "The retrieved entry identifies the car as a Porsche 911 sports car.",
        "The car is a Porsche 911.",
    )))
    e.append(_entry("verifier", "dialog-1:0", VERDICT_CORRECT))

    e.append(_entry("evaluator", "dialog-1:1", _dcot(
        "When did it begin production?", "Porsche 911",
        ["Based on the badge, production likely began in 1964."],
        "The Porsche 911 likely began production in 1964.",
        "Recalled the production start with some uncertainty.",
    )))
    e.append(_entry("decompose", "dialog-1:1",
                    _subqueries(("When did it begin production?", 1))))
    e.append(_entry("verifier", "dialog-1:1", VERDICT_CORRECT))

    e.append(_entry("evaluator", "dialog-1:2", _dcot(
        "Who designed it?", "the car from the previous turn",
        ["I cannot determine the designer that the query is about."],
        "I cannot determine the designer.",
        "The designer is not known from the image.",
    )))
    e.append(_entry("decompose", "dialog-1:2",
                    _subqueries(("Who designed it?", 0))))
    e.append(_entry("post_answer", "dialog-1:2", _generation(
        "The evidence credits the design of the Porsche 911 to "
        "Ferdinand Alexander Porsche.",
        "The Porsche 911 was designed by Ferdinand Alexander Porsche.",
    )))
    e.append(_entry("verifier", "dialog-1:2", VERDICT_CORRECT))

    # -- deadline breach -----------------------------------------------------------
    e.append(_entry("evaluator", "deadline-q1:0", _dcot(
        "Who founded this cafe?", "the cafe",
        ["This response is scripted to arrive far too late."],
        "Too late.",
        "Never delivered in time.",
    ), probs=(0.9,), latency_ms=20_000.0))

    # -- budget exhaustion session ---------------------------------------------------
    e.append(_entry("evaluator", "budget-1:0", _dcot(
        "What is written on this mug?", "the mug",
        ['The mug\'s text reads "worlds okayest engineer".'],
        'The mug says "worlds okayest engineer".',
        "Read the mug print.",
    ), latency_ms=9_000.0))
    e.append(_entry("evaluator", "budget-1:1", _dcot(
        "What is written on the other side?", "the mug",
        ['The reverse side\'s text reads "fresh out of ideas".'],
        'The mug says "fresh out of ideas".',
        "Read the reverse print.",
    ), latency_ms=5_000.0))

    return e


# --- eval dataset -----------------------------------------------------------------

# session_id, turn_index, question, image, truth, (dynamism, category, domain)
EVAL_ROWS: list[tuple[str, int, str, str, str, tuple[str, str, str]]] = [
    ("umbrella-q1", 0, "What is written on these umbrellas?", "img-umbrella",
     "Sunny Days", ("static", "simple_recognition", "text")),
    ("receipt-q1", 0, "What is the total of the two amounts shown on the receipt?",
     "img-receipt", "$12.50", ("static", "reasoning", "math")),
    ("sign-q1", 0, "Translate the text on this sign to English.", "img-sign",
     "Hello my friends", ("static", "reasoning", "text")),
    ("math-q1", 0, "What is the integral of x squared from 0 to 3?", "img-math",
     "9", ("static", "reasoning", "math")),
    ("awning-q1", 0, "What name is printed on the storefront awning?", "img-awning",
     "Casa Verde", ("static", "simple_recognition", "text")),
    ("car-q1", 0, "In which year did the car on the right begin production?",
     "img-car-pair", "2014", ("slow", "simple_knowledge", "vehicles")),
    ("tower-q1", 0, "How tall is this tower?", "img-tower",
     "330 metres", ("static", "simple_knowledge", "other")),
    ("whale-q1", 0, "What animal is shown in this picture?", "img-whale",
     "blue whale", ("static", "simple_recognition", "animal")),
    ("bridge-q1", 0, "In which year was this bridge completed?", "img-bridge",
     "1937", ("static", "simple_knowledge", "other")),
    ("castle-q1", 0, "When was this castle built?", "img-castle",
     "12th century", ("static", "simple_knowledge", "other")),
    ("cafe-q1", 0, "Who founded this cafe?", "img-cafe",
     "James Freeman", ("slow", "simple_knowledge", "food")),
    ("statue-q1", 0, "Who sculpted this statue?", "img-statue",
     "Paul Landowski", ("static", "simple_knowledge", "other")),
    ("kettle-q1", 0, "What's the price of this?", "img-kettle",
     "$179", ("realtime", "simple_knowledge", "shopping")),
    ("espresso-q1", 0, "What model is this espresso machine?", "img-espresso",
     "La Marzocco Linea Mini", ("static", "simple_recognition", "shopping")),
    ("dog-q1", 0, "What breed is this dog?", "img-dog",
     "Shiba Inu", ("static", "simple_recognition", "animal")),
    ("plant-q1", 0, "What species is this plant?", "img-plant",
     "Echeveria elegans", ("static", "simple_recognition", "plant")),
    ("book-q1", 0, "Who wrote this novel?", "img-book",
     "F. Scott Fitzgerald", ("static", "simple_knowledge", "books")),
    ("pastry-q1", 0, "How much does this pastry cost?", "img-pastry",
     "three dollars", ("realtime", "aggregation", "food")),
    ("blurry-sign-q1", 0, "Translate the sign in this photo.", "img-sign",
     "unreadable", ("static", "reasoning", "text")),
    ("dialog-1", 0, "What kind of car is this?", "img-car-street",
     "Porsche 911", ("static", "simple_recognition", "vehicles")),
    ("dialog-1", 1, "When did it begin production?", "img-car-street",
     "1964", ("slow", "multi_hop", "vehicles")),
    ("dialog-1", 2, "Who designed it?", "img-car-street",
     "Ferdinand Alexander Porsche", ("slow", "multi_hop", "vehicles")),
    ("deadline-q1", 0, "Who founded this cafe?", "img-cafe",
     "James Freeman", ("slow", "simple_knowledge", "food")),
]


def eval_rows() -> list[dict]:
    rows = []
    for session_id, turn_index, question, image, truth, tax in EVAL_ROWS:
        rows.append(
            {
                "session_id": session_id,
                "turn_index": turn_index,
                "question": question,
                "image_ref": image,
                "ground_truth": truth,
                "taxonomy": {
                    "dynamism": tax[0], "category": tax[1], "domain": tax[2],
                },
            }
        )
    return rows


# --- wiring ------------------------------------------------------------------------


def build_world_runtime(config: PipelineConfig | None = None) -> PipelineRuntime:
    """In-memory runtime over the demo world (no files involved)."""
    config = config or PipelineConfig()
    encoder = HashedTextEncoder(config.encoder.dim)
    return PipelineRuntime(
        config=config,
        gateway=ModelGateway(ScriptedBackend(model_entries())),
        web_index=WebSearchIndex(encoder, config.hard_negative.rate).build(build_web_docs()),
        kg_index=ImageKgIndex().build(build_kg_entries()),
        image_store=ImageStore(build_image_records()),
    )


def write_world(root: str | Path) -> dict[str, Path]:
    """Materialize the demo world as files; returns the path map. The config
    names the other files relative to ``root``, so the world can be moved."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "web_corpus": root / "web_corpus.jsonl",
        "kg_corpus": root / "kg_corpus.jsonl",
        "image_fixtures": root / "image_fixtures.jsonl",
        "model_fixtures": root / "model_fixtures.jsonl",
        "dataset": root / "dataset.jsonl",
        "config": root / "config.yaml",
    }

    def dump(path: Path, rows) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    dump(paths["web_corpus"], (d.to_dict() for d in build_web_docs()))
    dump(paths["kg_corpus"], (k.to_dict() for k in build_kg_entries()))
    dump(paths["image_fixtures"], (r.to_dict() for r in build_image_records()))
    dump(paths["model_fixtures"], (m.to_dict() for m in model_entries()))
    dump(paths["dataset"], eval_rows())

    config_doc = {
        "paths": {
            name: paths[name].name
            for name in ("web_corpus", "kg_corpus", "image_fixtures", "model_fixtures")
        },
    }
    import yaml

    paths["config"].write_text(yaml.safe_dump(config_doc), encoding="utf-8")
    return paths
