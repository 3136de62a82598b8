package repro.baselines

import repro.core.{Bfs, Deadline, LocalGraph}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** PathEnum [35]: real-time hop-constrained s-t simple path enumeration.
  *
  * Per query it (1) builds a lightweight index: forward/backward bounded
  * distances, then the adjacency restricted to edges on some ≤k walk
  * (Δ(s,u)+1+Δ(v,t) ≤ k), with out-neighbors sorted by Δ(·,t) and
  * in-neighbors by Δ(s,·); (2) a cost-based optimizer — sparse k-bounded
  * walk-count DP from both ends — chooses between DFS over the index and a
  * join of middle-split partials (reusing the canonical-split machinery of
  * [[JoinEnum]] over the pruned search space).
  */
object PathEnum {

  /** The per-query lightweight index. */
  final class Index(
      val k: Int,
      val s: Int,
      val t: Int,
      val distF: Array[Int],
      val distB: Array[Int],
      /** The pruned search space as a standalone graph (= G^k_st). Its
        * lists keep the index's distance order, not id order, so
        * `hasEdge` does not apply — enumeration only.
        */
      val asGraph: LocalGraph,
  )

  def buildIndex(g: LocalGraph, s: Int, t: Int, k: Int): Index = {
    val dists = Bfs.distances(g, s, t, k, Bfs.SearchMode.Single)
    val gst   = LocalGraph.fromEncodedEdges(g.n, Bfs.window(g, dists, k))
    // Sort out-neighbors closest-to-target first (and symmetrically), the
    // index ordering PathEnum's DFS relies on for early termination.
    var w = 0
    while (w < g.n) {
      LocalGraph.sortBy(gst.outDst, gst.outOff(w), gst.outOff(w + 1), dists.toT(_).toLong)
      LocalGraph.sortBy(gst.inSrc, gst.inOff(w), gst.inOff(w + 1), dists.fromS(_).toLong)
      w += 1
    }
    new Index(k, s, t, dists.toAll, dists.fromAll, gst)
  }

  /** Sparse walk-count DP over the index: level l maps vertex -> number of
    * exactly-l-hop walks from `root` inside the pruned space (Double to
    * tolerate explosion). Optimizer only.
    */
  private def walkCounts(g: LocalGraph, root: Int, k: Int): Array[mutable.LongMap[Double]] = {
    val levels = Array.fill(k + 1)(mutable.LongMap.empty[Double])
    levels(0)(root.toLong) = 1.0
    var l = 1
    while (l <= k) {
      val prev = levels(l - 1)
      val cur  = levels(l)
      prev.foreachEntry { (uL, cu) =>
        var j = g.outOff(uL.toInt)
        while (j < g.outOff(uL.toInt + 1)) {
          val v = g.outDst(j).toLong
          cur(v) = cur.getOrElse(v, 0.0) + cu
          j += 1
        }
      }
      l += 1
    }
    levels
  }

  /** Cost-based choice: estimated DFS work = total ≤k-walks from s inside
    * the space; estimated join work = forward partial walks up to ⌈k/2⌉ plus
    * backward partial walks up to ⌊k/2⌋. Join is picked when it is estimated
    * substantially cheaper (the original's optimizer, simplified to the
    * canonical middle split).
    */
  private[baselines] def chooseJoin(idx: Index): Boolean = {
    val wf   = walkCounts(idx.asGraph, idx.s, idx.k)
    val fMax = (idx.k + 1) / 2
    var dfsCost = 0.0
    var fwdCost = 0.0
    var l = 1
    while (l <= idx.k) {
      var lvl = 0.0
      wf(l).foreachValue(lvl += _)
      dfsCost += lvl
      if (l <= fMax) fwdCost += lvl
      l += 1
    }
    val wb = walkCounts(idx.asGraph.reverse, idx.t, idx.k / 2)
    var bwdCost = 0.0
    l = 1
    while (l <= idx.k / 2) {
      wb(l).foreachValue(bwdCost += _)
      l += 1
    }
    fwdCost + bwdCost < dfsCost / 4.0
  }

  /** Enumerate all ≤k-hop s-t simple paths over the index. */
  def enumerate(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None)(
      onPath: ArrayBuffer[Int] => Unit): Long = {
    val idx = buildIndex(g, s, t, k)
    if (idx.distB(s) > k) return 0L
    if (chooseJoin(idx)) {
      // Join-based: reuse the canonical-split join over the pruned space.
      var count = 0L
      val buf = new ArrayBuffer[Int]()
      JoinEnum.enumerate(idx.asGraph, s, t, k, deadline) { full =>
        count += 1
        buf.clear(); full.foreach(buf += _)
        onPath(buf)
      }
      count
    } else {
      dfsEnumerate(idx, deadline)(onPath)
    }
  }

  private def dfsEnumerate(idx: Index, deadline: Long)(onPath: ArrayBuffer[Int] => Unit): Long = {
    var count   = 0L
    var steps   = 0
    val g       = idx.asGraph
    val onStack = new Array[Boolean](g.n)
    val stack   = new ArrayBuffer[Int]()
    val k       = idx.k
    def dfs(cur: Int, depth: Int): Unit = {
      steps += 1
      if ((steps & 0xfff) == 0) Deadline.check(deadline)
      if (cur == idx.t) { count += 1; onPath(stack); return }
      if (depth >= k) return
      var j = g.outOff(cur)
      while (j < g.outOff(cur + 1)) {
        val nxt = g.outDst(j)
        // Index adjacency is sorted by Δ(·,t); once the remaining budget is
        // insufficient for the closest remaining neighbor, stop early.
        if (idx.distB(nxt) > k - depth - 1) return
        if (!onStack(nxt)) {
          onStack(nxt) = true; stack += nxt
          dfs(nxt, depth + 1)
          onStack(nxt) = false; stack.remove(stack.length - 1)
        }
        j += 1
      }
    }
    onStack(idx.s) = true; stack += idx.s
    dfs(idx.s, 0)
    count
  }

  def count(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Long =
    enumerate(g, s, t, k, deadline)(_ => ())

  /** SPG via enumeration: union the edges of every output path. */
  def spg(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Set[Long] = {
    val edges = mutable.Set[Long]()
    enumerate(g, s, t, k, deadline) { stack =>
      var i = 1
      while (i < stack.length) { edges += LocalGraph.enc(stack(i - 1), stack(i)); i += 1 }
    }
    edges.toSet
  }
}
