"""Personal streaming-context modeling: typed context records, an entity
type/entity knowledge-graph store, compilation of both into a rooted concept
DAG, hierarchy-consistent label vectors, and a streaming recognition harness.
"""

__version__ = "0.1.0"
