"""Run the image and text search agents on the cafe-founder query.

The image agent extracts and selects the queried object, searches the KG per
detected region, and verifies the retrieved entity. The text agent then turns
the question into sub-queries (the verified entity resolves 'this cafe') and
fuses per-sub-query web results.
"""

from dynarag.fixtures import build_world_runtime
from dynarag.image_agent import FixtureEntityVerifier, ImageSearchAgent
from dynarag.preanswer import PreAnswerModule
from dynarag.text_agent import TextSearchAgent

runtime = build_world_runtime()
cfg = runtime.config

QUESTION = "Who founded this cafe?"
IMAGE = "img-cafe"
KEY = "cafe-q1:0"

image_agent = ImageSearchAgent(
    gateway=runtime.gateway,
    kg_index=runtime.kg_index,
    image_store=runtime.image_store,
    text_encoder=runtime.text_encoder,
    entity_verifier=FixtureEntityVerifier(),
)

print("== visual grounding ==")
candidates = image_agent.extract_objects(IMAGE, QUESTION, cfg.agents.object_num, KEY)
print("candidates:", [c.name for c in candidates])
target = image_agent.select_object(candidates, QUESTION, IMAGE, KEY)
print("selected:  ", target.full_name)
regions = image_agent.detect_regions(IMAGE, target.name)
print("regions:   ", [(r.label, r.bbox) for r in regions])
hits = image_agent.multi_image_search(regions, k=3)
for hit in hits:
    print(f"  kg hit {hit.score:+.3f}  {hit.payload.entity_name}")
entity = image_agent.select_entity(hits)
print("verified:  ", entity.entity_name, f"(match={entity.match_score:.2f})")

print("\n== text retrieval ==")
pre = PreAnswerModule(runtime.gateway, runtime.classifier, cfg.routing)
trace = pre.dcot_preanswer(QUESTION, IMAGE, pre.classify_domain(QUESTION), KEY)

text_agent = TextSearchAgent(runtime.gateway, runtime.web_index)
subqueries = text_agent.rephrase_and_split(
    QUESTION, trace, visual_context=entity.entity_name, fixture_key=KEY
)
subqueries.append(text_agent.fuse_object(QUESTION, entity))
for sub in subqueries:
    print(f"  [{sub.origin.value}] {sub.text}")

for hit in text_agent.text_search(subqueries, k_total=3):
    print(f"  web hit {hit.score:+.3f}  {hit.payload.title}")
