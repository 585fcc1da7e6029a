"""Clique-counting substrate for the TDS / kCLiDS density metrics.

``local`` enumerates triangles and k-cliques with a degeneracy-ordered
search (the kCLIST approach of Danisch et al.). The Spark engine counts
the same structures with DataFrame self-joins (``core.spark_engine``'s
``cliques_df``), so it peels clique metrics without leaving Catalyst.
"""
from repro.cliques.local import enumerate_cliques, enumerate_triangles, count_per_vertex

__all__ = ["enumerate_cliques", "enumerate_triangles", "count_per_vertex"]
