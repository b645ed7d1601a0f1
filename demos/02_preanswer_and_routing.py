"""Show the pre-answer stage and both routers on the three exemplar queries.

Each scripted reasoning trace is parsed into feature flags, the search router
picks an execution branch, and (for the retrieval branch) the tool router
chooses which search modalities to run.
"""

from dynarag.fixtures import build_world_runtime
from dynarag.gateway import TurnModel
from dynarag.routing import Branch, route_search, route_tools
from dynarag.timing import SimulatedClock, TimeBudget

runtime = build_world_runtime()
cfg = runtime.config
pre = runtime.pre_answer

EXEMPLARS = [
    ("umbrella-q1:0", "What is written on these umbrellas?", "img-umbrella"),
    ("car-q1:0", "In which year did the car on the right begin production?", "img-car-pair"),
    ("cafe-q1:0", "Who founded this cafe?", "img-cafe"),
]

for key, question, image in EXEMPLARS:
    print(f"\nQ: {question}")
    domain = pre.classify_domain(question)
    print(f"  domain: {domain.name} ({domain.confidence:.2f})")

    budget = TimeBudget(SimulatedClock(), deadline_at=cfg.limits.turn_deadline_s)
    model = TurnModel(runtime.gateway, key, image, question, history="", budget=budget)
    trace = pre.dcot_preanswer(model, domain)
    print(f"  draft:  {trace.draft_answer}")
    flags = trace.flags
    active = [name for name, value in vars(flags).items() if value]
    print(f"  flags:  {', '.join(active) or 'none'}")

    decision = route_search(trace)
    print(f"  branch: {decision.branch.value}  ({decision.rationale})")

    if decision.branch is Branch.RAG_AUGMENT:
        tools = route_tools(question, trace, image, cfg.routing)
        print(f"  tools:  image_search={tools.need_image_search} "
              f"text_search={tools.need_text_search}")
        print(f"          {tools.rationale}")
