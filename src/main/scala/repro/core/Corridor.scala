package repro.core

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

  /** The corridor of the query whose bounded distances `sc` holds, read
    * from the forward visit list: every corridor vertex has an exact, so
    * finite, Δ(s,·) and was reached forward. Elsewhere the distances only
    * over-estimate (every [[Bfs.SearchMode]] guarantees this), so the vertex
    * and edge tests below select exactly G^k_st. Builds in O(reached +
    * corridor edges) and overwrites the forward distance of each corridor
    * vertex with its local id, so release `sc` afterwards.
    */
  def apply(g: LocalGraph, sc: Bfs.Scratch, k: Int): Corridor = {
    val dF = sc.fwd.dist; val dB = sc.bwd.dist
    val visits = sc.fwd.queue; val reached = sc.fwd.reached
    var c = 0; var i = 0
    while (i < reached) { val y = visits(i); if (dF(y) + dB(y) <= k) c += 1; i += 1 }
    val ids = new Array[Int](c)
    c = 0; i = 0
    while (i < reached) { val y = visits(i); if (dF(y) + dB(y) <= k) { ids(c) = y; c += 1 }; i += 1 }
    java.util.Arrays.sort(ids)
    // Local distances, then each corridor vertex's forward entry holds its
    // local id (global → local); the backward entries stay as they are.
    val lF = new Array[Int](c); val lB = new Array[Int](c)
    i = 0
    while (i < c) { val y = ids(i); lF(i) = dF(y); lB(i) = dB(y); dF(y) = i; i += 1 }
    val outAdj = new Array[Array[Int]](c)
    val inDeg  = new Array[Int](c)
    var row = new Array[Int](16) // one vertex's window out-neighbors
    i = 0
    while (i < c) {
      val a = g.outAdj(ids(i))
      if (row.length < a.length) row = new Array[Int](a.length)
      // Both ends of a window edge lie in the corridor, and a(j) ascends.
      var cnt = 0; var j = 0
      while (j < a.length) {
        if (Bfs.inWindow(lF(i), dB(a(j)), k)) { val v = dF(a(j)); row(cnt) = v; inDeg(v) += 1; cnt += 1 }
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
    new Corridor(ids, new LocalGraph(c, outAdj, inAdj), Bfs.Dists(lF, lB))
  }
}
