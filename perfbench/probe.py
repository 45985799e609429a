"""Child process of ``run.py``: import vrgc from the checkout's ``src`` and
parse one edge file, print ``n0 edges``, and, when asked, extract the graph
and save its artifact.

    python3 perfbench/probe.py GRAPH.edges
    python3 perfbench/probe.py GRAPH.edges K_MAX SHORTCUT ARTIFACT.json

``run.py`` times the first form from its start until the line arrives,
which is the set-up a ``vrgc`` command pays before it can extract.  It runs
the second form with another hash seed, to compare the grammar hash across
processes; SHORTCUT is ``None`` to turn shortcut pruning off.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vrgc.graphs import parse_edge_list  # noqa: E402

graph = parse_edge_list(Path(sys.argv[1]).read_text())
print(graph.n0, graph.num_edges(), flush=True)

if len(sys.argv) > 2:
    from vrgc.artifact import save_artifact
    from vrgc.engine import extract
    from vrgc.enumeration import ExtractConfig

    k_max, shortcut, art_path = sys.argv[2:5]
    config = ExtractConfig(
        k_min=2, k_max=int(k_max), shortcut_s=None if shortcut == "None" else int(shortcut)
    )
    save_artifact(extract(graph, config), Path(art_path))
