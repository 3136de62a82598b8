package repro.baselines

import repro.core.{Bfs, Corridor, Deadline, LocalGraph}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** PathEnum [35]: real-time hop-constrained s-t simple path enumeration.
  *
  * Per query it (1) builds a lightweight index: the query's [[Corridor]]
  * under single-direction BFS, i.e. the edges on some ≤k walk
  * (Δ(s,u)+1+Δ(v,t) ≤ k) in local ids, with out-neighbors sorted by Δ(·,t)
  * and in-neighbors by Δ(s,·); (2) a cost-based optimizer — k-bounded
  * walk-count DP from both ends — chooses between DFS over the index and a
  * join of middle-split partials (reusing the canonical-split machinery of
  * [[JoinEnum]] over the pruned search space). Enumeration runs in the
  * corridor's local ids, so a query allocates in proportion to its corridor,
  * not to |V|; [[spg]] maps its edges back.
  */
object PathEnum {

  /** The per-query lightweight index: the query's corridor and s and t in
    * its local ids, both -1 when Δ(s,t) > k (an empty corridor). The
    * corridor's lists keep the index's distance order, not id order, so
    * `hasEdge` does not apply to `cor.graph` — enumeration only.
    */
  final class Index(val k: Int, val cor: Corridor, val s: Int, val t: Int)

  def buildIndex(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Index = {
    val cor = Corridor.of(g, s, t, k, Bfs.SearchMode.Single, deadline)
    val h   = cor.graph
    // Sort out-neighbors closest-to-target first (and symmetrically), the
    // index ordering PathEnum's DFS relies on for early termination.
    var w = 0
    while (w < h.n) {
      LocalGraph.sortBy(h.outDst, h.outOff(w), h.outOff(w + 1), cor.dists.toT(_).toLong)
      LocalGraph.sortBy(h.inSrc, h.inOff(w), h.inOff(w + 1), cor.dists.fromS(_).toLong)
      w += 1
    }
    new Index(k, cor, cor.local(s), cor.local(t))
  }

  /** Walk-count DP over the index: entry l is the number of exactly-l-hop
    * walks from `root` inside the pruned space (Double to tolerate
    * explosion). Optimizer only.
    */
  private def walkCounts(g: LocalGraph, root: Int, k: Int): Array[Double] = {
    val total = new Array[Double](k + 1)
    var prev  = new Array[Double](g.n)
    prev(root) = 1.0
    var l = 1
    while (l <= k) {
      val cur = new Array[Double](g.n)
      var u = 0
      while (u < g.n) {
        var j = g.outOff(u)
        while (prev(u) != 0.0 && j < g.outOff(u + 1)) { cur(g.outDst(j)) += prev(u); j += 1 }
        u += 1
      }
      total(l) = cur.sum; prev = cur; l += 1
    }
    total
  }

  /** Cost-based choice: estimated DFS work = total ≤k-walks from s inside
    * the space; estimated join work = forward partial walks up to ⌈k/2⌉ plus
    * backward partial walks up to ⌊k/2⌋. Join is picked when it is estimated
    * substantially cheaper (the original's optimizer, simplified to the
    * canonical middle split).
    */
  private[baselines] def chooseJoin(idx: Index): Boolean = {
    val wf = walkCounts(idx.cor.graph, idx.s, idx.k)
    val wb = walkCounts(idx.cor.graph.reverse, idx.t, idx.k / 2)
    wf.take((idx.k + 1) / 2 + 1).sum + wb.sum < wf.sum / 4.0
  }

  /** Enumerate all ≤k-hop s-t simple paths over the index; `onPath` sees
    * each path in the corridor's local ids, in a reused buffer.
    */
  private def enumerate(idx: Index, deadline: Long)(onPath: ArrayBuffer[Int] => Unit): Long =
    if (idx.t < 0) 0L
    else if (chooseJoin(idx)) {
      // Join-based: the canonical-split join over the pruned space, on the
      // corridor's distances rather than a second search.
      val buf = new ArrayBuffer[Int]()
      JoinEnum.join(idx.cor.graph, idx.s, idx.t, idx.k, idx.cor.dists.toAll, idx.cor.dists.fromAll, deadline) {
        full => buf.clear(); buf ++= full; onPath(buf)
      }
    } else dfsEnumerate(idx, deadline)(onPath)

  private def dfsEnumerate(idx: Index, deadline: Long)(onPath: ArrayBuffer[Int] => Unit): Long = {
    var count   = 0L
    var steps   = 0
    val g       = idx.cor.graph
    val distB   = idx.cor.dists.fromAll
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
        if (distB(nxt) > k - depth - 1) return
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
    enumerate(buildIndex(g, s, t, k, deadline), deadline)(_ => ())

  /** SPG via enumeration: union the edges of every output path. */
  def spg(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Set[Long] = {
    val idx   = buildIndex(g, s, t, k, deadline)
    val edges = mutable.Set[Long]()
    enumerate(idx, deadline) { stack =>
      var i = 1
      while (i < stack.length) { edges += LocalGraph.enc(stack(i - 1), stack(i)); i += 1 }
    }
    idx.cor.global(edges.toArray).toSet
  }
}
