package repro.core

import scala.collection.mutable

/** The corridor G^k_st of one query in compact local ids (§3.3): the
  * vertices y with Δ(s,y)+Δ(y,t) ≤ k and the window edges between them.
  *
  * A vertex's local id is its rank among the corridor's global ids, so the
  * id maps are monotone: encoded-edge order, adjacency order and every
  * tie-break by id are the same in both id spaces. EVE's phases after the
  * distances run on [[graph]] unchanged (see DESIGN.md §6 for why that is
  * exact under forward-looking pruning), so a query allocates and scans in
  * proportion to its corridor rather than to |V|.
  */
final class Corridor private (
    /** The corridor vertices, ascending global ids; local id = index. */
    val ids: Array[Int],
    /** The window edges Δ(s,u)+1+Δ(v,t) ≤ k, in local ids. */
    val graph: LocalGraph,
    /** Δ(s,·) and Δ(·,t) by local id. */
    val dists: Bfs.Dists,
) {
  /** Local id of global vertex `v`, or -1 outside the corridor. */
  def local(v: Int): Int = math.max(-1, java.util.Arrays.binarySearch(ids, v))

  /** Encoded local edges in global ids; ascending stays ascending. */
  def global(edges: Array[Long]): Array[Long] = {
    val out = new Array[Long](edges.length)
    var i = 0
    while (i < edges.length) {
      out(i) = LocalGraph.enc(ids(LocalGraph.src(edges(i))), ids(LocalGraph.dst(edges(i))))
      i += 1
    }
    out
  }
}

object Corridor {

  /** The corridor of the query whose bounded distances are `d`. Only
    * corridor vertices need exact distances, which every [[Bfs.SearchMode]]
    * guarantees; elsewhere the distances only over-estimate, so the vertex
    * and edge tests below select exactly G^k_st.
    */
  def apply(g: LocalGraph, d: Bfs.Dists, k: Int): Corridor = {
    val found = new mutable.ArrayBuilder.ofInt
    // Global → local ids; only corridor entries are written or read.
    val rank = new Array[Int](g.n)
    var c = 0; var y = 0
    while (y < g.n) { if (d.fromS(y) + d.toT(y) <= k) { found += y; rank(y) = c; c += 1 }; y += 1 }
    val ids = found.result()
    val dF = new Array[Int](c); val dB = new Array[Int](c)
    val outAdj = new Array[Array[Int]](c)
    val inDeg  = new Array[Int](c)
    var row = new Array[Int](16) // one vertex's window out-neighbors
    var i = 0
    while (i < c) {
      val u = ids(i); dF(i) = d.fromS(u); dB(i) = d.toT(u)
      val a = g.outAdj(u)
      if (row.length < a.length) row = new Array[Int](a.length)
      // Both ends of a window edge lie in the corridor, and a(j) ascends.
      var cnt = 0; var j = 0
      while (j < a.length) {
        if (Bfs.inWindow(dF(i), d.toT(a(j)), k)) { val v = rank(a(j)); row(cnt) = v; inDeg(v) += 1; cnt += 1 }
        j += 1
      }
      outAdj(i) = if (cnt == 0) Array.emptyIntArray else java.util.Arrays.copyOf(row, cnt)
      i += 1
    }
    // In-lists filled in ascending source order, so each is sorted. A loop,
    // not Array.tabulate, for the reason given in EssentialVertices.propagate.
    val inAdj = new Array[Array[Int]](c)
    i = 0
    while (i < c) { inAdj(i) = if (inDeg(i) == 0) Array.emptyIntArray else new Array[Int](inDeg(i)); i += 1 }
    java.util.Arrays.fill(inDeg, 0)
    i = 0
    while (i < c) {
      val o = outAdj(i); var j = 0
      while (j < o.length) { val v = o(j); inAdj(v)(inDeg(v)) = i; inDeg(v) += 1; j += 1 }
      i += 1
    }
    new Corridor(ids, new LocalGraph(c, outAdj, inAdj), Bfs.Dists(dF, dB))
  }
}
