"""Trace the coarse-to-fine reranker on mixed web + KG evidence.

Shows chunking (including the KG attribute sentence template), the coarse
max-over-query-vectors scores, the fine point-wise rescoring with the
cumulative product, and the assembled evidence string with provenance
headers.
"""

from dynarag.config import RerankConfig
from dynarag.fixtures import build_world_runtime
from dynarag.reranker import assemble_context, chunk_evidence, coarse_score, fine_score
from dynarag.search import unit_embedding_for

runtime = build_world_runtime()
QUESTION = "What's the price of the Alessi 9093 kettle?"

kg_hits = runtime.kg_index.search(unit_embedding_for("red kettle product shot"), k=2)
web_hits = runtime.web_index.search("alessi 9093 kettle price", k=4)
hits = kg_hits + web_hits
print(f"{len(hits)} raw hits ({len(kg_hits)} kg + {len(web_hits)} web)")

cfg = RerankConfig(k1=10, k2=3, tau_coarse=0.1, tau_fine=0.2)
# Each doc is chunked once per runtime; the evidence builds a Chunk on demand.
evidence = chunk_evidence(hits, cfg, runtime.chunk_store)
print(f"\n== chunks ({len(evidence)}) ==")
for c in evidence:
    print(f"  [{c.source.value}] {c.text[:76]}")

survivors = coarse_score(QUESTION, None, evidence, cfg, runtime.query_encoder)
print(f"\n== coarse stage: {len(survivors)} of {len(evidence)} survive "
      f"tau={cfg.tau_coarse}, K1={cfg.k1} ==")
for chunk, score in survivors:
    print(f"  {score:+.3f}  {chunk.text[:64]}")

selected = fine_score(QUESTION, survivors, "", cfg)
print(f"\n== fine stage: {len(selected)} kept above "
      f"{cfg.tau_fine} x {cfg.tau_coarse} = {cfg.tau_fine * cfg.tau_coarse:.3f} ==")
for chunk, score in selected:
    print(f"  coarse={score.coarse:.3f} fine={score.fine:.3f} "
          f"cumulative={score.cumulative:.3f}")

context = assemble_context(selected)
print("\n== assembled context ==")
print(context.text)
