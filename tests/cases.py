"""Hand-labelled routing and tool-selection case tables, input-file lines
with a value of the wrong type, and the budget of a model call that no test
times.

Each routing case is a full scripted reasoning trace plus the branch it must
land on; each tool case adds the expected (need_image_search,
need_text_search) pair. The first three routing cases are the published
exemplar queries for the three branches.
"""

import json
import math

from dynarag.timing import SimulatedClock, TimeBudget


def unlimited_budget() -> TimeBudget:
    """A budget on a fresh simulated clock whose deadline never comes: every
    model call spends from a budget, also where a test does not time it."""
    return TimeBudget(SimulatedClock(), deadline_at=math.inf)

# (input file of the demo world, field, wrong-typed or malformed value): each
# must be a one-line input error naming the file, the line and the field.
WRONG_TYPED_FIELDS = [
    ("model_fixtures", "token_probs", 5),
    ("kg_corpus", "attributes", [1, 2]),
    ("image_fixtures", "regions", 5),
    ("image_fixtures", "bbox", 5),
    ("dataset", "taxonomy", []),
    ("dataset", "turn_index", [0]),
    ("web_corpus", "snippet", ["a"]),
    ("web_corpus", "is_hard_negative", "false"),
    ("dataset", "image_ref", ""),
    ("dataset", "taxonomy", {"domain": ["a"]}),
    ("dataset", "taxonomy", {"category": None}),
    ("kg_corpus", "attributes", {"price": None}),
    ("kg_corpus", "attributes", {"colours": ["red"]}),
    ("kg_corpus", "attributes", {"size": {"width": 3}}),
]


def with_wrong_type(path, field, value):
    """Rewrite line 3 of the JSONL file at ``path`` with ``field`` set to
    ``value``; a ``bbox`` goes into a region added to the image."""
    lines = path.read_text().splitlines()
    row = json.loads(lines[2])
    if field == "bbox":
        row["regions"] = [{"label": "sign", "bbox": value,
                           "embedding": row["whole_embedding"]}]
    else:
        row[field] = value
    lines[2] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")


def dcot(query, object_name, steps, answer, reasoning="r"):
    lines = [
        f'1. The exact name of the object that the query "{query}" '
        f"is about is {object_name}."
    ]
    lines += [f"{i}. {s}" for i, s in enumerate(steps, start=2)]
    lines.append(json.dumps({"reasoning": reasoning, "answer": answer}))
    return "\n".join(lines)


def dcot_idk(query, what, steps=(), answer=None):
    lines = [f"1. I cannot determine the {what} that the query is about."]
    lines += [f"{i}. {s}" for i, s in enumerate(steps, start=2)]
    lines.append(json.dumps({
        "reasoning": "r",
        "answer": answer or f"I cannot determine the {what}.",
    }))
    return "\n".join(lines)


# (name, trace_text, expected_branch)
ROUTING_CASES = [
    # --- the three exemplar queries, one per branch -------------------------
    ("exemplar-direct-ocr", dcot(
        "What is written on these umbrellas?", "the umbrellas",
        ['The text written on the umbrellas reads "Sunny Days".'],
        'The umbrellas say "Sunny Days".'), "direct_output"),
    ("exemplar-verify-car", dcot(
        "In which year did the car on the right begin production?", "BMW M4",
        ["Production of the BMW M4 likely began in 2014."],
        "The BMW M4 began production in 2014."), "search_verify"),
    ("exemplar-rag-cafe", dcot_idk(
        "Who founded this cafe?", "name of the cafe"), "rag_augment"),
    # --- pre-answer failures -> retrieval augmentation -----------------------
    ("rag-idk-species", dcot_idk(
        "What species is this plant?", "species of the plant"), "rag_augment"),
    ("rag-idk-price", dcot_idk(
        "What's the price of this?", "product"), "rag_augment"),
    ("rag-idk-statue", dcot_idk(
        "Who sculpted this statue?", "name of the statue"), "rag_augment"),
    ("rag-idk-blurry", dcot_idk(
        "Translate the sign in this photo.", "text on the sign"), "rag_augment"),
    ("rag-plain-dont-know", "\n".join([
        "1. The object in the image is a generic landmark.",
        "2. I don't know which city this is.",
        json.dumps({"reasoning": "r", "answer": "I don't know."}),
    ]), "rag_augment"),
    ("rag-unable-identify", "\n".join([
        "1. The image shows a bird in flight.",
        "2. I am unable to identify the exact bird.",
        json.dumps({"reasoning": "r", "answer": "I am unable to identify the bird."}),
    ]), "rag_augment"),
    # --- open-world cue without an identified object -> rag ------------------
    ("rag-cue-unnamed-built", dcot(
        "Who built this bridge?", "the bridge",
        ["The bridge style gives no clue about who built it."],
        "A suspension bridge."), "rag_augment"),
    ("rag-cue-unnamed-price", dcot(
        "How much does this jacket cost?", "the jacket",
        ["No price tag is visible on the jacket."],
        "A denim jacket."), "rag_augment"),
    ("rag-cue-unnamed-year", dcot(
        "In which year was this painting made?", "the painting",
        ["The painting carries no visible date."],
        "An oil painting."), "rag_augment"),
    ("rag-cue-unnamed-founded", dcot(
        "When was this company founded?", "the brand",
        ["The logo alone does not reveal when the company was founded."],
        "A clothing brand."), "rag_augment"),
    # --- self-contained numeric or OCR answers -> direct ----------------------
    ("direct-arithmetic-receipt", dcot(
        "What is the total of the two amounts shown on the receipt?", "the receipt",
        ["The first amount shown is $5.00 and the second is $7.50.",
         "Adding 5.00 and 7.50 gives 12.50."],
        "The total is $12.50."), "direct_output"),
    ("direct-translation", dcot(
        "Translate the text on this sign to English.", "the sign",
        ['The sign\'s text reads "Bonjour mes amis".',
         'Translated, the text means "Hello my friends".'],
        'The sign means "Hello my friends".'), "direct_output"),
    ("direct-integral", dcot(
        "What is the integral of x squared from 0 to 3?", "an arithmetic expression",
        ["The antiderivative of x squared is x cubed over 3.",
         "Evaluating from 0 to 3 gives 27 over 3, which equals 9."],
        "9"), "direct_output"),
    ("direct-awning-ocr", dcot(
        "What name is printed on the storefront awning?", "the storefront awning",
        ['The name printed on the awning reads "Casa Verde".'],
        'The awning says "Casa Verde".'), "direct_output"),
    ("direct-count", dcot(
        "How many apples are visible in the bowl?", "the apples",
        ["Counting the visible fruit gives four apples."],
        "4"), "direct_output"),
    ("direct-clock-ocr", dcot(
        "What time does the clock display?", "the clock",
        ['The display\'s text reads "12:45".'],
        'The clock says "12:45".'), "direct_output"),
    ("direct-sum-written", dcot(
        "What is the sum of the numbers written on the board?", "the board",
        ["The numbers written on the board are 3, 4 and 5.",
         "Their sum equals 12."],
        "12"), "direct_output"),
    ("direct-license-plate", dcot(
        "What is printed on the license plate?", "the license plate",
        ['The plate\'s text reads "7ABC123".'],
        'The plate says "7ABC123".'), "direct_output"),
    # --- answered but speculative or external-fact dependent -> verify ----------
    ("verify-price-named", dcot(
        "What is the price of this kettle?", "Alessi 9093 Kettle",
        ["Retail price for the Alessi 9093 Kettle is around $179."],
        "The Alessi 9093 Kettle costs $179."), "search_verify"),
    ("verify-speculative-dish", dcot(
        "What dish is this?", "shakshuka",
        ["The eggs in tomato sauce are probably shakshuka."],
        "The dish is probably shakshuka."), "search_verify"),
    ("verify-tower-height", dcot(
        "How tall is this tower?", "the Eiffel Tower",
        ["The wrought iron lattice is approximately 330 metres tall."],
        "The Eiffel Tower is approximately 330 metres tall."), "search_verify"),
    ("verify-castle-era", dcot(
        "When was this castle built?", "Edinburgh Castle",
        ["The fortress was probably built in the 12th century."],
        "Edinburgh Castle was probably built in the 12th century."), "search_verify"),
    ("verify-production-year", dcot(
        "When did it begin production?", "Porsche 911",
        ["Based on the badge, production likely began in 1964."],
        "The Porsche 911 likely began production in 1964."), "search_verify"),
    ("verify-speculative-species", dcot(
        "What bird is this?", "peregrine falcon",
        ["The pointed wings suggest it might be a peregrine falcon."],
        "It might be a peregrine falcon."), "search_verify"),
    # --- default verification --------------------------------------------------
    ("verify-default-whale", dcot(
        "What animal is shown in this picture?", "the blue whale",
        ["The mottled body and small dorsal fin match the blue whale."],
        "The animal is a blue whale."), "search_verify"),
    ("verify-default-dish", dcot(
        "What dish is shown here?", "ratatouille",
        ["The layered sliced vegetables match ratatouille."],
        "The dish is ratatouille."), "search_verify"),
    ("verify-default-tree", dcot(
        "What kind of tree is in the foreground?", "weeping willow",
        ["The drooping branches match a weeping willow."],
        "The tree is a weeping willow."), "search_verify"),
]


# (name, query, trace_text, need_image, need_text)
TOOL_CASES = [
    # rule 1: unknown identity -> image search on
    ("unknown-statue-factual",
     "Who does this statue depict?",
     dcot("Who does this statue depict?", "the statue",
          ["The statue is of a robed figure, although the history is unclear."],
          "A stone statue."),
     True, True),
    ("unknown-kettle-price",
     "What's the price of this?",
     dcot_idk("What's the price of this?", "product"),
     True, True),
    ("unknown-dog-breed",
     "What breed is this dog?",
     dcot_idk("What breed is this dog?", "breed of the dog"),
     True, False),
    ("unknown-machine-model",
     "What model is this espresso machine?",
     dcot_idk("What model is this espresso machine?", "model of the espresso machine"),
     True, False),
    ("unknown-car-year",
     "In which year did this car start production?",
     dcot_idk("In which year did this car start production?", "model of the car"),
     True, True),
    # rule 1: known identity -> image search off
    ("known-car-specs",
     "What are the specifications of this car?",
     dcot("What are the specifications of this car?", "BMW M4",
          ["The badge identifies a BMW M4."], "A BMW M4."),
     False, True),
    ("known-tower-height",
     "How tall is this tower?",
     dcot("How tall is this tower?", "the Eiffel Tower",
          ["The lattice identifies the Eiffel Tower."], "The Eiffel Tower."),
     False, True),
    ("known-whale-weight",
     "How heavy can this animal get?",
     dcot("How heavy can this animal get?", "the blue whale",
          ["The body shape identifies a blue whale."], "A blue whale."),
     False, True),
    # rule 2: nothing beyond the image -> text search off
    ("known-visible-color",
     "What color is the car in front?",
     dcot("What color is the car in front?", "Porsche 911",
          ["The front car is silver."], "Silver."),
     False, False),
    ("unknown-visible-count",
     "How many dogs are in the photo?",
     dcot("How many dogs are in the photo?", "the dogs",
          ["Two dogs are visible."], "2"),
     True, False),
    # rule 3: analytical tasks -> neither
    ("translate-sign",
     "Translate this sign.",
     dcot("Translate this sign.", "the sign",
          ['The sign\'s text reads "Sortie".'], "Exit."),
     False, False),
    ("math-times",
     "What is 12 times 8?",
     dcot("What is 12 times 8?", "an arithmetic expression",
          ["Multiplying gives 96."], "96"),
     False, False),
    ("math-integral",
     "Calculate the integral of x squared from 0 to 3.",
     dcot("Calculate the integral of x squared from 0 to 3.",
          "an arithmetic expression",
          ["The result equals 9."], "9"),
     False, False),
    ("physics-calculation",
     "Calculate the force on the 2 kg mass shown.",
     dcot("Calculate the force on the 2 kg mass shown.", "a physics diagram",
          ["Using the shown acceleration, the force is 10 newtons."], "10 N"),
     False, False),
    # rule 4: excluded categories -> image search off even when unidentified
    ("book-author",
     "Who wrote this novel?",
     dcot("Who wrote this novel?", "The Great Gatsby",
          ["I cannot determine the author that the query is about."],
          "I cannot determine the author."),
     False, True),
    ("book-unknown-awards",
     "What awards did this book win?",
     dcot_idk("What awards did this book win?", "title of the book"),
     False, True),
    ("plant-species",
     "What species is this plant?",
     dcot_idk("What species is this plant?", "species of the plant"),
     False, True),
    ("plant-unknown-no-cue",
     "Is this plant healthy?",
     dcot("Is this plant healthy?", "the plant",
          ["The leaves look firm and unblemished."], "It looks healthy."),
     False, False),
    ("packaged-goods-price",
     "How much does this cereal box cost?",
     dcot_idk("How much does this cereal box cost?", "brand of the cereal"),
     False, True),
    ("packaged-goods-no-cue",
     "Which shelf is this soda can on?",
     dcot("Which shelf is this soda can on?", "the soda can",
          ["The can sits on the middle shelf."], "The middle shelf."),
     False, False),
]
