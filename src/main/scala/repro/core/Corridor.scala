package repro.core

import java.util.Arrays

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
  def local(v: Int): Int = math.max(-1, Arrays.binarySearch(ids, v))

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

  /** The corridor of query (s, t) under `mode`'s distance search, which
    * checks `deadline` once per level, built on a borrowed scratch; empty
    * (no vertices) when Δ(s,t) > k.
    */
  def of(g: LocalGraph, s: Int, t: Int, k: Int, mode: Bfs.SearchMode, deadline: Long = Deadline.None): Corridor = {
    g.requireQuery(s, t, k)
    Bfs.withScratch(g.n) { sc => sc.search(g, s, t, k, mode, deadline); Corridor(g, sc, k) }
  }

  /** The corridor of the query whose bounded distances `sc` holds, read
    * from the forward visit list: every corridor vertex has an exact, so
    * finite, Δ(s,·) and was reached forward. Elsewhere the distances only
    * over-estimate (every [[Bfs.SearchMode]] guarantees this), so the vertex
    * and edge tests below select exactly G^k_st. Fills each array in one
    * pass, doubling from the corridor's size and trimming once, and
    * overwrites the forward distance of each corridor vertex with its local
    * id, so release `sc` afterwards.
    */
  def apply(g: LocalGraph, sc: Bfs.Scratch, k: Int): Corridor = {
    val dF = sc.fwd.dist; val dB = sc.bwd.dist
    val visits = sc.fwd.queue; val reached = sc.fwd.reached
    var ids = new Array[Int](16); var c = 0; var i = 0
    while (i < reached) {
      val y = visits(i); i += 1
      if (dF(y) + dB(y) <= k) { if (c == ids.length) ids = Arrays.copyOf(ids, 2 * c); ids(c) = y; c += 1 }
    }
    ids = Arrays.copyOf(ids, c)
    Arrays.sort(ids)
    // Local distances, then each corridor vertex's forward entry holds its
    // local id (global → local); the backward entries stay as they are.
    val lF = new Array[Int](c); val lB = new Array[Int](c)
    i = 0
    while (i < c) { val y = ids(i); lF(i) = dF(y); lB(i) = dB(y); dF(y) = i; i += 1 }
    // The window out-neighbors in local ids, list i ending at outOff(i+1).
    // Both ends of a window edge lie in the corridor, and each list ascends.
    val outOff = new Array[Int](c + 1)
    var outDst = new Array[Int](c); var p = 0
    i = 0
    while (i < c) {
      val y = ids(i); var j = g.outOff(y)
      while (j < g.outOff(y + 1)) {
        val v = g.outDst(j)
        if (Bfs.inWindow(lF(i), dB(v), k)) {
          if (p == outDst.length) outDst = Arrays.copyOf(outDst, 2 * p)
          outDst(p) = dF(v); p += 1
        }
        j += 1
      }
      i += 1; outOff(i) = p
    }
    new Corridor(ids, LocalGraph.fromOutCsr(c, outOff, Arrays.copyOf(outDst, p)), Bfs.Dists(lF, lB))
  }
}
