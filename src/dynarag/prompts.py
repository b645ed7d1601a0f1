"""The pipeline's six prompt templates and the in-context example packs keyed
by domain.

``TEMPLATES`` maps each template id to its ``PromptTemplate``. It is a
constant: a gateway reads it and nothing registers into it. Template bodies use
``{slot}`` placeholders, and a template's required slots are exactly the
placeholders in its body. The JSON examples inside the bodies never match,
because their keys are quoted. The sentinel strings matter: downstream parsers
key on the numbered-step prefix, the "I cannot determine" marker
(``CANNOT_DETERMINE``), the trailing JSON answer line, the reason/answer labels
and the "**Response:**" verdict line, so they must stay in sync with the
extractors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import MissingSlot

_SLOT = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str
    requires_image: bool
    required_slots: frozenset[str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "required_slots", frozenset(_SLOT.findall(self.body)))

    def render(self, slots: dict[str, str]) -> str:
        """The body with every placeholder replaced in one pass, so text
        inside a slot's value is never substituted again."""
        missing = self.required_slots - slots.keys()
        if missing:
            raise MissingSlot(
                f"template {self.template_id!r} missing slots: {sorted(missing)}"
            )
        return _SLOT.sub(lambda m: str(slots[m.group(1)]), self.body)


CANNOT_DETERMINE = "I cannot determine the"

EVALUATOR = """You are a visual assistant. Answer the user's question about the image from what you can see plus your own knowledge.

Reason step by step, in at most 5 concise numbered steps, one sentence each. Stop as soon as you can answer or once you know the necessary information is missing.

Rules:
1. Name the exact object the question is about (model, species, brand, dish) whenever you can; fall back to text visible in the image.
2. Use one step per object or relationship, then summarize.
3. If the needed information is not recoverable from the image or question, state exactly: "I cannot determine the <what> that the query is about."
4. Do not tell the user to consult external sources.
5. Always begin with: 1. The exact name of the object that the query "{query}" is about is <name>.

Domain: {domain}
{examples}
Conversation so far:
{history}

Question: {query}

Finish with one JSON line: {"reasoning": "<summary>", "answer": "<draft answer>"}"""

OBJECT_LIST = """You are an object-detection assistant. List up to {object_num} major distinct objects visible in the image that are relevant to the question: "{query}".

Only tangible, visible items. No abstract concepts, no actions. Use general category words of at most 3 words each ("car", not "BMW"; "clothing brand", not "ZARA"). If unsure of the identity, use the closest general category.

Reply with exactly one JSON line: {"object_list": ["<name>", ...]}"""

OBJECT_SELECT = """From the detected objects {object_list}, pick the single object the question "{query}" is about. If the question carries position words, prefer objects at or near that position. If several instances of the same object exist, add a short distinguishing attribute to the name.

Reply with exactly one JSON line: {"object": "<name>"}"""

DECOMPOSE = """Rewrite the question "{query}" as a list of clear, self-contained web search sub-queries. Break multi-hop questions into one sub-query per inference step, and replace vague referents using the reasoning and the visual context below.

Reasoning steps:
{reasoning}

Visual context: {visual_context}
Conversation so far:
{history}

Reply with exactly one JSON line: {"sub_queries": [{"text": "<sub-query>", "step": <reasoning step index or null>}, ...]}"""

POST_ANSWER = """You are a helpful assistant who truthfully answers questions about the provided image. If you are not sure, say 'I don't know'.

Use the image, the evidence below and your own knowledge. Respond in two labelled parts:
reason: 2-3 sentences citing the information that leads to the answer; 'I don't know' if unsure.
answer: one concise sentence naming the object explicitly (never 'this', 'that' or 'it'); if the reason is 'I don't know', the answer must also be 'I don't know'.

Evidence:
{evidence}

Conversation so far:
{history}

Question: {query}"""

VERIFIER = """You evaluate whether the agent's answer to an image question is reasonable given the evidence.

Guidelines:
1. Unsupported answer (not backed by image or evidence) -> Incorrect Answer.
2. Contradicted by evidence -> Incorrect Answer.
3. Unclear or incomplete answer -> Incorrect Answer.
4. Fully supported answer -> Correct Answer.

Respond as:
**Reason:** <1-2 sentences>
**Response:** Correct Answer | Incorrect Answer

Question: {query}
Evidence: {evidence}
Answer: {answer}"""

# Small per-domain in-context packs for the evaluator; "other" is the default.
DOMAIN_EXAMPLES: dict[str, str] = {
    "vehicles": (
        "Example:\n"
        "Q: What engine does this car have?\n"
        "1. The exact name of the object that the query \"What engine does this car have?\" is about is Mazda MX-5 ND.\n"
        "2. The ND generation ships with a 2.0L Skyactiv-G engine.\n"
        "{\"reasoning\": \"Identified the car, recalled its engine.\", \"answer\": \"A 2.0L Skyactiv-G engine.\"}\n"
    ),
    "food": (
        "Example:\n"
        "Q: What dish is this?\n"
        "1. The exact name of the object that the query \"What dish is this?\" is about is shakshuka.\n"
        "2. Poached eggs in spiced tomato sauce are characteristic of shakshuka.\n"
        "{\"reasoning\": \"Recognized the dish from the sauce and eggs.\", \"answer\": \"Shakshuka.\"}\n"
    ),
    "math": (
        "Example:\n"
        "Q: What is 12 times 8?\n"
        "1. The exact name of the object that the query \"What is 12 times 8?\" is about is an arithmetic expression.\n"
        "2. 12 times 8 equals 96.\n"
        "{\"reasoning\": \"Direct multiplication.\", \"answer\": \"96\"}\n"
    ),
    "other": "",
}


def examples_for_domain(domain: str) -> str:
    return DOMAIN_EXAMPLES.get(domain, DOMAIN_EXAMPLES["other"])


TEMPLATES: dict[str, PromptTemplate] = {
    t.template_id: t for t in (
        PromptTemplate("evaluator", EVALUATOR, requires_image=True),
        PromptTemplate("object_list", OBJECT_LIST, requires_image=True),
        PromptTemplate("object_select", OBJECT_SELECT, requires_image=True),
        PromptTemplate("decompose", DECOMPOSE, requires_image=False),
        PromptTemplate("post_answer", POST_ANSWER, requires_image=True),
        PromptTemplate("verifier", VERIFIER, requires_image=True),
    )
}
