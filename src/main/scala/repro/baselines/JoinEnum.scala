package repro.baselines

import repro.core.{Bfs, Deadline, LocalGraph}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** JOIN [27,29]: enumerate hop-constrained s-t simple paths by concatenating
  * partial paths.
  *
  * Forward partial simple paths from s (length ≤ ⌈k/2⌉) and backward partial
  * simple paths from t (length ≤ ⌊k/2⌋) are enumerated with BC-DFS-style
  * budget pruning, bucketed by their end ("meet") vertex, then hash-joined.
  * A pair (pf, pb) is emitted iff |pf| − |pb| ∈ {0, 1} (every s-t simple
  * path of length L splits uniquely at hop ⌈L/2⌉, so each path is produced
  * exactly once) and the two partials share only the meet vertex.
  */
object JoinEnum {

  /** A partial path: the full vertex sequence (s..meet or meet..t). */
  private type Partial = Array[Int]

  private def collectPartials(
      g: LocalGraph,
      root: Int,
      other: Int,
      maxLen: Int,
      distOther: Array[Int],
      k: Int,
      deadline: Long,
  ): mutable.LongMap[ArrayBuffer[Partial]] = {
    // key = meet vertex (Long for LongMap); value = partials ending there.
    val buckets = new mutable.LongMap[ArrayBuffer[Partial]]()
    val onStack = new Array[Boolean](g.n)
    val stack   = new ArrayBuffer[Int]()
    var steps   = 0
    def record(v: Int): Unit =
      buckets.getOrElseUpdate(v.toLong, new ArrayBuffer[Partial]()) += stack.toArray
    def dfs(cur: Int): Unit = {
      steps += 1
      if ((steps & 0xfff) == 0) Deadline.check(deadline)
      record(cur)
      if (stack.length - 1 >= maxLen || cur == other) return
      var j = g.outOff(cur)
      while (j < g.outOff(cur + 1)) {
        val nxt = g.outDst(j)
        // Budget pruning: a partial of length L can only be part of a ≤k
        // path if L + Δ(nxt, other) ≤ k.
        if (!onStack(nxt) && distOther(nxt) <= k - stack.length) {
          onStack(nxt) = true; stack += nxt
          dfs(nxt)
          onStack(nxt) = false; stack.remove(stack.length - 1)
        }
        j += 1
      }
    }
    onStack(root) = true; stack += root
    dfs(root)
    buckets
  }

  /** Enumerate paths; `onPath` receives the full s..t vertex sequence. */
  def enumerate(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None)(
      onPath: Array[Int] => Unit): Long = {
    g.requireQuery(s, t, k)
    join(g, s, t, k, Bfs.bounded(g.outOff, g.outDst, s, k, deadline), Bfs.bounded(g.inOff, g.inSrc, t, k, deadline),
      deadline)(onPath)
  }

  /** [[enumerate]] given Δ(s,·) as `distF` and Δ(·,t) as `distB`, each
    * exact wherever it is at most k.
    */
  private[baselines] def join(g: LocalGraph, s: Int, t: Int, k: Int, distF: Array[Int], distB: Array[Int],
                              deadline: Long)(onPath: Array[Int] => Unit): Long = {
    if (distB(s) > k) return 0L
    val fMax = (k + 1) / 2
    val bMax = k / 2
    // Forward partials s..meet: prune by remaining distance to t.
    val fwd = collectPartials(g, s, t, fMax, distB, k, deadline)
    // Backward partials meet..t enumerated over G^r from t: prune by distance from s.
    val bwd = collectPartials(g.reverse, t, s, bMax, distF, k, deadline)

    var count = 0L
    var probes = 0
    val seen  = new Array[Boolean](g.n)
    fwd.foreach { case (meetL, pfs) =>
      bwd.get(meetL).foreach { pbs =>
        var i = 0
        while (i < pfs.length) {
          val pf = pfs(i)
          val lf = pf.length - 1
          // Mark pf's vertices for O(1) disjointness probes.
          pf.foreach(seen(_) = true)
          var j = 0
          while (j < pbs.length) {
            probes += 1
            if ((probes & 0xfff) == 0) Deadline.check(deadline)
            val pb = pbs(j)
            val lb = pb.length - 1
            val diff = lf - lb
            if ((diff == 0 || diff == 1) && lf + lb <= k) {
              // pb is stored t-first; vertices pb(0..lb-1) must avoid pf
              // (pb(lb) == meet is the shared vertex).
              var ok = true
              var x  = 0
              while (ok && x < pb.length - 1) { ok = !seen(pb(x)); x += 1 }
              if (ok) {
                count += 1
                if (onPath ne JoinEnum.NoopConsumer) {
                  val full = new Array[Int](lf + lb + 1)
                  System.arraycopy(pf, 0, full, 0, pf.length)
                  var y = pb.length - 2
                  var pos = pf.length
                  while (y >= 0) { full(pos) = pb(y); pos += 1; y -= 1 }
                  onPath(full)
                }
              }
            }
            j += 1
          }
          pf.foreach(seen(_) = false)
          i += 1
        }
      }
    }
    count
  }

  private val NoopConsumer: Array[Int] => Unit = _ => ()

  def count(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Long =
    enumerate(g, s, t, k, deadline)(NoopConsumer)

  /** SPG via enumeration: union the edges of every joined path. */
  def spg(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Set[Long] = {
    val edges = mutable.Set[Long]()
    enumerate(g, s, t, k, deadline) { full =>
      var i = 1
      while (i < full.length) { edges += LocalGraph.enc(full(i - 1), full(i)); i += 1 }
    }
    edges.toSet
  }
}
