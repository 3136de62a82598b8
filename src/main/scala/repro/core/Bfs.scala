package repro.core

import scala.collection.mutable

/** Bounded shortest-distance computation (§3.3 of the paper).
  *
  * EVE needs Δ(s,y) and Δ(y,t) for exactly the vertices y that can lie on a
  * k-bounded s-t path, i.e. those with Δ(s,y)+Δ(y,t) ≤ k; every other vertex
  * may keep distance +∞. Three strategies are implemented, matching the
  * ablation of Figure 11:
  *
  *  - [[SearchMode.Single]]      — two full k-bounded BFS (from s over G and
  *                                 from t over G^r), the KHSQ strategy;
  *  - [[SearchMode.BiDir]]       — bi-directional BFS with equal depths
  *                                 ⌈k/2⌉/⌊k/2⌋, then each side continues for
  *                                 the remaining steps restricted to vertices
  *                                 the opposite side explored;
  *  - [[SearchMode.Adaptive]]    — same, but each step advances whichever
  *                                 frontier is currently smaller (Adaptive
  *                                 Bi-directional Search [2,21]).
  *
  * All three return exact Δ(s,y) and Δ(y,t) for every y with
  * Δ(s,y)+Δ(y,t) ≤ k (property-tested), encoded as Int arrays with
  * [[Bfs.Inf]] for "unknown / > k". Every search over vertex adjacency runs
  * on one frontier step, `step`; [[Bfs.nearest]] is the one search over an
  * edge-id CSR, which the verifier's §5.3 distance-to-boundary ordering uses.
  */
object Bfs {

  /** Sentinel for "distance unknown or larger than the bound". Chosen so that
    * `d1 + d2` never overflows Int for d1,d2 ≤ Inf.
    */
  val Inf: Int = Int.MaxValue / 4

  sealed trait SearchMode extends Serializable
  object SearchMode {
    case object Single   extends SearchMode
    case object BiDir    extends SearchMode
    case object Adaptive extends SearchMode
  }

  /** Distances from s (forward) and to t (backward), per the chosen mode. */
  final case class Dists(toAll: Array[Int], fromAll: Array[Int]) {
    /** Δ(s,y). */ def fromS(y: Int): Int = toAll(y)
    /** Δ(y,t). */ def toT(y: Int): Int   = fromAll(y)
  }

  /** A distance array of length n with every vertex unreached. */
  private def unreached(n: Int): Array[Int] = {
    val dist = new Array[Int](n)
    java.util.Arrays.fill(dist, Inf)
    dist
  }

  /** One BFS level: every still-unreached neighbor y over `adj` of a
    * `frontier` vertex (all at distance `depth`) gets distance depth+1 —
    * when `within` is given, only if `within(y) ≤ limit`. Returns those
    * vertices, the next frontier.
    */
  private def step(adj: Array[Array[Int]], dist: Array[Int], frontier: Array[Int], depth: Int,
                   within: Array[Int], limit: Int): Array[Int] = {
    val next = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < frontier.length) {
      val a = adj(frontier(i)); var j = 0
      while (j < a.length) {
        val y = a(j)
        if (dist(y) == Inf && (within == null || within(y) <= limit)) { dist(y) = depth + 1; next += y }
        j += 1
      }
      i += 1
    }
    next.result()
  }

  /** Repeat [[step]] from `frontier` at `depth` until depth k or an empty
    * frontier.
    */
  private def expand(adj: Array[Array[Int]], dist: Array[Int], frontier: Array[Int], depth: Int, k: Int,
                     within: Array[Int] = null, limit: Int = Inf): Unit = {
    var f = frontier; var d = depth
    while (d < k && f.nonEmpty) { f = step(adj, dist, f, d, within, limit); d += 1 }
  }

  /** k-bounded BFS from all `roots` at once over an edge-id CSR: vertex x's
    * edges are `ids(off(x) until off(x+1))` and edge e leads to `end(e)`.
    * The distance to the nearest root, Inf beyond k.
    */
  def nearest(off: Array[Int], ids: Array[Int], end: Array[Int], n: Int, roots: Array[Int],
              k: Int): Array[Int] = {
    val dist  = unreached(n)
    val queue = new Array[Int](n)
    var head = 0; var tail = 0
    roots.foreach { r => if (dist(r) != 0) { dist(r) = 0; queue(tail) = r; tail += 1 } }
    while (head < tail) {
      val x = queue(head); head += 1
      var j = off(x)
      while (dist(x) < k && j < off(x + 1)) {
        val y = end(ids(j))
        if (dist(y) == Inf) { dist(y) = dist(x) + 1; queue(tail) = y; tail += 1 }
        j += 1
      }
    }
    dist
  }

  /** Plain k-bounded BFS over the given adjacency from `root`. */
  def bounded(adj: Array[Array[Int]], n: Int, root: Int, k: Int): Array[Int] = {
    val dist = unreached(n)
    dist(root) = 0
    expand(adj, dist, Array(root), 0, k)
    dist
  }

  /** Compute Δ(s,·) and Δ(·,t) bounded by k with the requested strategy. */
  def distances(g: LocalGraph, s: Int, t: Int, k: Int, mode: SearchMode): Dists =
    mode match {
      case SearchMode.Single =>
        Dists(bounded(g.outAdj, g.n, s, k), bounded(g.inAdj, g.n, t, k))
      case SearchMode.BiDir    => bidirectional(g, s, t, k, adaptive = false)
      case SearchMode.Adaptive => bidirectional(g, s, t, k, adaptive = true)
    }

  /** Bi-directional phase 1 (total depth k split between the two sides),
    * then restricted continuations (see the class doc for the guarantee).
    */
  private def bidirectional(g: LocalGraph, s: Int, t: Int, k: Int, adaptive: Boolean): Dists = {
    val dF = unreached(g.n); dF(s) = 0
    val dB = unreached(g.n); dB(t) = 0
    var fF = Array(s)
    var fB = Array(t)
    var depthF = 0
    var depthB = 0

    // Phase 1: split the total depth budget k between the two sides.
    while (depthF + depthB < k && (fF.nonEmpty || fB.nonEmpty)) {
      val forward =
        if (fF.isEmpty) false
        else if (fB.isEmpty) true
        else if (adaptive) fF.length <= fB.length
        else depthF <= depthB // strict alternation, forward first (⌈k/2⌉ / ⌊k/2⌋)
      if (forward) { fF = step(g.outAdj, dF, fF, depthF, null, Inf); depthF += 1 }
      else { fB = step(g.inAdj, dB, fB, depthB, null, Inf); depthB += 1 }
    }
    // Phase 2: each side continues to depth k, restricted to the vertices
    // the opposite side explored in phase 1. The forward continuation never
    // writes dB, so every finite dB(y) ≤ depthB is a phase-1 visit; it only
    // assigns forward depths above depthF, so dF(y) ≤ depthF still selects
    // the phase-1 forward visits for the backward continuation.
    expand(g.outAdj, dF, fF, depthF, k, within = dB, limit = depthB)
    expand(g.inAdj, dB, fB, depthB, k, within = dF, limit = depthF)
    Dists(dF, dB)
  }

  /** The G^k_st window: e(u,v) lies on some ≤k-hop s-t walk iff
    * Δ(s,u)+1+Δ(v,t) ≤ k. Written so that Inf operands cannot overflow.
    */
  @inline def inWindow(fromSu: Int, toTv: Int, k: Int): Boolean = toTv <= k - 1 - fromSu

  /** Every edge of G inside the window (the edge set of G^k_st), encoded
    * via [[LocalGraph.enc]] and in source order.
    */
  def window(g: LocalGraph, d: Dists, k: Int): Array[Long] = {
    val out = new mutable.ArrayBuilder.ofLong
    var u = 0
    while (u < g.n) {
      val du = d.fromS(u)
      if (du < k) {
        val a = g.outAdj(u); var j = 0
        while (j < a.length) {
          if (inWindow(du, d.toT(a(j)), k)) out += LocalGraph.enc(u, a(j))
          j += 1
        }
      }
      u += 1
    }
    out.result()
  }
}
