"""Input worlds written as files, for tests that load them through the JSONL
reader: the bundled demo world, and the benchmark's seeded ``worldgen``
worlds at a small scale.

``perfbench/worldgen.py`` is loaded by path, read-only, as
``test_perfbench_hooks`` loads the tracer.
"""

import importlib.util
import sys
from pathlib import Path

from dynarag.fixtures import write_world

WORLDGEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "worldgen.py"
GENERATED = ("web_scale", "long_docs")
SEED, SCALE = 1, 0.1


def write_worlds(root: Path) -> dict[str, Path]:
    """Config path of each world written under ``root``: ``demo`` and every
    ``GENERATED`` workload at ``SEED`` and ``SCALE``. Each world's dataset is
    ``dataset.jsonl`` next to its config."""
    root = Path(root)
    spec = importlib.util.spec_from_file_location("perfbench_worldgen", WORLDGEN_PATH)
    worldgen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = worldgen  # dataclasses look their module up by name
    spec.loader.exec_module(worldgen)
    configs = {"demo": write_world(root / "demo")["config"]}
    for workload in GENERATED:
        configs[workload] = worldgen.generate(workload, SEED, root / workload, SCALE)
    return configs
