"""Run the image and text search agents on the cafe-founder query.

The image agent extracts candidate object names, selects the one the question
is about, searches the KG per detected region of the image's record, and
verifies the retrieved entity. The text agent then turns the question into
plain sub-query strings (the verified entity resolves 'this cafe') and fuses
per-sub-query web results.
"""

from dynarag.fixtures import build_world_runtime
from dynarag.gateway import TurnModel
from dynarag.timing import SimulatedClock, TimeBudget

runtime = build_world_runtime()
cfg = runtime.config

QUESTION = "Who founded this cafe?"
IMAGE = "img-cafe"
KEY = "cafe-q1:0"
# Every model call of the turn: its fixture key, image, question, no earlier
# turns and the turn's deadline on simulated time.
budget = TimeBudget(SimulatedClock(), deadline_at=cfg.limits.turn_deadline_s)
model = TurnModel(runtime.gateway, KEY, IMAGE, QUESTION, history="", budget=budget)

image_agent = runtime.image_agent

print("== visual grounding ==")
candidates = image_agent.extract_objects(model, cfg.agents.object_num)
print("candidates:", candidates)
target = image_agent.select_object(model, candidates)
print("selected:  ", target)
regions = image_agent.detect_regions(runtime.image_store.get(IMAGE), target)
print("regions:   ", [(r.label, r.bbox) for r in regions])
hits = image_agent.multi_image_search(regions, k=3)
for hit in hits:
    print(f"  kg hit {hit.score:+.3f}  {hit.payload.entity_name}")
entity = image_agent.select_entity(hits)
print("verified:  ", entity.entity_name, f"(match={entity.match_score:.2f})")

print("\n== text retrieval ==")
pre = runtime.pre_answer
trace = pre.dcot_preanswer(model, pre.classify_domain(QUESTION))

text_agent = runtime.text_agent
subqueries = text_agent.rephrase_and_split(model, trace,
                                           visual_context=entity.entity_name)
subqueries.append(text_agent.fuse_object(QUESTION, entity))
for sub in subqueries:
    print("  sub-query:", sub)

for hit in text_agent.text_search(subqueries)[:3]:
    print(f"  web hit {hit.score:+.3f}  {hit.payload.title}")
