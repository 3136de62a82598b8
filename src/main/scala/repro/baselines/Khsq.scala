package repro.baselines

import repro.core.{Bfs, Corridor, LocalGraph}

/** KHSQ [25]: the k-hop s-t subgraph G^k_st — all edges e(u,v) with
  * Δ(s,u) + 1 + Δ(v,t) ≤ k, i.e. every edge on *some* (not necessarily
  * simple) ≤k-hop s-t walk. Used as a baseline search-space reducer in
  * Tables 4–5.
  *
  * KHSQ computes the two distance maps by single-direction BFS; KHSQ+ (the
  * paper's §6.7 optimization) swaps in the adaptive bi-directional search of
  * §3.3 — identical output, smaller explored space. Both are the query's
  * [[Corridor]] under that search.
  */
object Khsq {

  /** G^k_st as a subgraph over the same vertex-id space. */
  def subgraph(g: LocalGraph, s: Int, t: Int, k: Int, plus: Boolean): LocalGraph = {
    val cor = Corridor.of(g, s, t, k, if (plus) Bfs.SearchMode.Adaptive else Bfs.SearchMode.Single)
    LocalGraph.fromEncodedEdges(g.n, cor.global(cor.graph.encodedEdges))
  }

  /** Encoded edge set of G^k_st (for size comparisons in tests). */
  def edges(g: LocalGraph, s: Int, t: Int, k: Int, plus: Boolean): Set[Long] =
    subgraph(g, s, t, k, plus).edges.map { case (u, v) => LocalGraph.enc(u, v) }.toSet
}
