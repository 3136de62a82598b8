package repro.core

/** Edge labels of §4: 0 = failing, 1 = undetermined, 2 = definite. */
object EdgeLabel {
  val Failing: Byte      = 0
  val Undetermined: Byte = 1
  val Definite: Byte     = 2
}

/** The upper-bound graph SPGu_k(s,t) (Definition 4.1) with per-edge labels.
  * An edge's position in the strictly ascending `edges` is its SPGu edge id,
  * which verification uses.
  */
final class UpperBoundGraph(
    val n: Int,
    val k: Int,
    val s: Int,
    val t: Int,
    /** Encoded edges with label ≥ 1 (see [[LocalGraph.enc]]), ascending. */
    val edges: Array[Long],
    /** Parallel to [[edges]]: 1 or 2. */
    val labels: Array[Byte],
    /** How many of [[labels]] are [[EdgeLabel.Definite]]. */
    val numDefinite: Int,
) {
  require({ var i = 1; while (i < edges.length && edges(i - 1) < edges(i)) i += 1; i >= edges.length },
    "SPGu edges must be strictly ascending")

  /** Counts the definite labels, for edges not labeled by
    * [[EdgeLabeling.upperBound]], which counts them as it labels.
    */
  def this(n: Int, k: Int, s: Int, t: Int, edges: Array[Long], labels: Array[Byte]) =
    this(n, k, s, t, edges, labels, labels.count(_ == EdgeLabel.Definite))

  def numEdges: Int = edges.length

  /** SPGu's edge-id adjacency, built on first use and read by [[Boundary]]
    * and every [[Verifier]] on this graph; neither writes to it.
    */
  lazy val adjacency: UpperBoundGraph.Adjacency = UpperBoundGraph.Adjacency(this)

  def definiteEdges: Iterator[Long] =
    edges.iterator.zip(labels.iterator).collect { case (e, l) if l == EdgeLabel.Definite => e }
  def undeterminedEdges: Iterator[Long] =
    edges.iterator.zip(labels.iterator).collect { case (e, l) if l == EdgeLabel.Undetermined => e }
}

object UpperBoundGraph {

  /** Edge-id CSR of SPGu. Edge id e runs from `eSrc(e)` to `eDst(e)`.
    * `edges` ascend by (src, dst), so grouped by source the ids are the
    * identity: vertex x's out-edges are ids `outOff(x) until outOff(x+1)`.
    * Its in-edges are `inIds(inOff(x) until inOff(x+1))`, ascending, so by
    * ascending source.
    */
  final class Adjacency private (
      val eSrc: Array[Int],
      val eDst: Array[Int],
      val outOff: Array[Int],
      val inOff: Array[Int],
      val inIds: Array[Int],
  )

  object Adjacency {
    /** One pass decodes the edges and counts both degrees, one groups the
      * ids by target.
      */
    def apply(ub: UpperBoundGraph): Adjacency = {
      val m = ub.numEdges; val n = ub.n
      val eSrc, eDst = new Array[Int](m)
      val outOff, inOff = new Array[Int](n + 1)
      var e = 0
      while (e < m) {
        val x = LocalGraph.src(ub.edges(e)); val y = LocalGraph.dst(ub.edges(e))
        eSrc(e) = x; eDst(e) = y
        outOff(x + 1) += 1; inOff(y + 1) += 1
        e += 1
      }
      var v = 0
      while (v < n) { outOff(v + 1) += outOff(v); inOff(v + 1) += inOff(v); v += 1 }
      new Adjacency(eSrc, eDst, outOff, inOff, grouped(inOff, eDst))
    }

    /** The edge ids grouped by `end(e)` at offsets `off`, ascending within a group. */
    private def grouped(off: Array[Int], end: Array[Int]): Array[Int] = {
      val next = java.util.Arrays.copyOf(off, off.length - 1)
      val ids  = new Array[Int](end.length)
      var e = 0; while (e < end.length) { ids(next(end(e))) = e; next(end(e)) += 1; e += 1 }
      ids
    }
  }
}

/** Algorithm 2 — per-edge labeling against the essential-vertex indexes. */
object EdgeLabeling {

  /** Label a single edge e(u,v) from the EV indexes: `fu(l)` is EV_l(s,u)
    * and `bv(l)` is EV_l(v,t) for l in 0..k-1, null where absent. Follows
    * Algorithm 2 line-by-line; see the paper's Lemmas 4.4/4.6 and
    * Theorem 4.3 for why checking kb = k-kf-1 covers all smaller kb.
    */
  def labelEdge(k: Int, s: Int, t: Int, u: Int, v: Int, evF: EvIndex, evB: EvIndex): Byte = {
    val f = evF.layers; val b = evB.layers
    def fu(l: Int): Array[Int] = f(l)(u)
    def bv(l: Int): Array[Int] = b(l)(v)
    // line 1: first-hop from s / last-hop into t (Lemma 4.4, an iff).
    if (u == s) return if (bv(k - 1) != null) EdgeLabel.Definite else EdgeLabel.Failing
    if (v == t) return if (fu(k - 1) != null) EdgeLabel.Definite else EdgeLabel.Failing
    if (k >= 2) {
      // line 3: second-hop from s (Lemma 4.6).
      if (fu(1) != null) {
        val b2 = bv(k - 2)
        if (b2 != null && !VSet.contains(b2, u)) return EdgeLabel.Definite
      }
      // line 4: second-hop into t (symmetric).
      if (bv(1) != null) {
        val f2 = fu(k - 2)
        if (f2 != null && !VSet.contains(f2, v)) return EdgeLabel.Definite
      }
    }
    // lines 5-8: remaining (kf, kb) pairs with kf+kb+1 = k (Theorem 4.3).
    var kf = 2
    while (kf <= k - 3) {
      val a = fu(kf)
      if (a != null) {
        val b = bv(k - kf - 1)
        if (b != null && VSet.disjoint(a, b)) return EdgeLabel.Undetermined
      }
      kf += 1
    }
    EdgeLabel.Failing
  }

  /** Label every edge of the G^k_st window and assemble the upper-bound
    * graph. Walks the out-adjacency in source order and labels each window
    * edge as it meets it; on a [[Corridor]] graph every edge is one. Edges
    * outside the window violate the length constraint outright and are
    * failing without inspection. Checks `deadline` every 4,096 labeled edges.
    */
  def upperBound(
      g: LocalGraph,
      s: Int,
      t: Int,
      k: Int,
      dists: Bfs.Dists,
      evF: EvIndex,
      evB: EvIndex,
      deadline: Long = Deadline.None,
  ): UpperBoundGraph = {
    val dF = dists.toAll; val dB = dists.fromAll
    // Every window edge leaves a vertex with Δ(s,u) < k; on a corridor that
    // is every vertex with out-edges, so this is g.m there.
    val off = g.outOff; val dst = g.outDst
    var cap = 0
    var u = 0
    while (u < g.n) { if (dF(u) < k) cap += off(u + 1) - off(u); u += 1 }
    val edges  = new Array[Long](cap)
    val labels = new Array[Byte](cap)
    var kept = 0; var definite = 0; var labeled = 0
    u = 0
    while (u < g.n) {
      val du = dF(u)
      if (du < k) {
        var j = off(u); val stop = off(u + 1)
        while (j < stop) {
          val v = dst(j)
          if (Bfs.inWindow(du, dB(v), k)) {
            if ((labeled & 0xfff) == 0) Deadline.check(deadline)
            labeled += 1
            val lab = labelEdge(k, s, t, u, v, evF, evB)
            if (lab != EdgeLabel.Failing) {
              edges(kept) = LocalGraph.enc(u, v); labels(kept) = lab; kept += 1
              if (lab == EdgeLabel.Definite) definite += 1
            }
          }
          j += 1
        }
      }
      u += 1
    }
    new UpperBoundGraph(g.n, k, s, t,
      java.util.Arrays.copyOf(edges, kept), java.util.Arrays.copyOf(labels, kept), definite)
  }
}

/** Departures, arrivals and their valid neighbors (Definitions 5.1–5.4).
  *
  * Computed from the two-hop neighbourhoods of s and t in SPGu, implementing
  * the definitions directly (see DESIGN.md §6). In_D / Out_A are capped at
  * max(1, k-2) entries per Theorem 5.8.
  */
final class Boundary(
    val isDeparture: Array[Boolean],
    val isArrival: Array[Boolean],
    /** Valid in-neighbors per departure vertex (≤ k-2 entries), null elsewhere. */
    val inD: Array[Array[Int]],
    /** Valid out-neighbors per arrival vertex (≤ k-2 entries), null elsewhere. */
    val outA: Array[Array[Int]],
) {
  /** The departure vertices, ascending. */
  val departures: Array[Int] = Boundary.members(isDeparture)
  /** The arrival vertices, ascending. */
  val arrivals: Array[Int] = Boundary.members(isArrival)
}

object Boundary {

  private def members(flags: Array[Boolean]): Array[Int] = {
    var c = 0
    var v = 0; while (v < flags.length) { if (flags(v)) c += 1; v += 1 }
    val out = new Array[Int](c)
    c = 0
    v = 0; while (v < flags.length) { if (flags(v)) { out(c) = v; c += 1 }; v += 1 }
    out
  }

  /** In_D from s's out-edges and then each such x's out-edges; Out_A from
    * t's in-edges and then each such v's in-edges. Both outer and inner
    * loops ascend, so every list ascends and keeps its first max(1, k-2)
    * entries (Theorem 5.8). Each side walks its two hops twice: once to
    * size the lists, once to fill them.
    */
  def compute(ub: UpperBoundGraph): Boundary = {
    val cap = math.max(1, ub.k - 2)
    val inD, outA = new Array[Array[Int]](ub.n)
    val isDeparture, isArrival = new Array[Boolean](ub.n)
    val len = new Array[Int](ub.n)
    twoHop(ub, forward = true, inD, isDeparture, len, cap, fill = false)
    twoHop(ub, forward = true, inD, isDeparture, len, cap, fill = true)
    twoHop(ub, forward = false, outA, isArrival, len, cap, fill = false)
    twoHop(ub, forward = false, outA, isArrival, len, cap, fill = true)
    new Boundary(isDeparture, isArrival, inD, outA)
  }

  /** Forward, Definition 5.1: v ∈ D iff ∃ in-neighbor x with x,v,s,t
    * distinct and e(s,x), e(x,v) ∈ SPGu; x is filed under `lists(v)`.
    * Backward, Definition 5.3: x ∈ A iff ∃ out-neighbor v with x,v,s,t
    * distinct and e(x,v), e(v,t) ∈ SPGu; v is filed under `lists(x)`.
    * Without `fill`, counts each list's length, up to `cap`, into `len`;
    * with it, allocates each list at that length and fills it, which
    * leaves `len` all zero again.
    */
  private def twoHop(ub: UpperBoundGraph, forward: Boolean, lists: Array[Array[Int]], member: Array[Boolean],
                     len: Array[Int], cap: Int, fill: Boolean): Unit = {
    val adj = ub.adjacency
    // Forward walks out-edges from s and files no t; backward walks in-edges
    // from t and files no s.
    val (root, shun) = if (forward) (ub.s, ub.t) else (ub.t, ub.s)
    val (off, ids, end) = if (forward) (adj.outOff, null, adj.eDst) else (adj.inOff, adj.inIds, adj.eSrc)
    var i = off(root)
    while (i < off(root + 1)) {
      val mid = end(if (ids == null) i else ids(i))
      var j = off(mid)
      while (j < off(mid + 1)) {
        val w = end(if (ids == null) j else ids(j))
        // One branch for all four distinctness tests (`&`, not `&&`): a
        // direct s-t edge alone, rare in any query mix, would otherwise be
        // a branch compiled code has never seen taken.
        if ((mid != shun) & (w != root) & (w != shun) & (w != mid)) {
          if (!fill) { if (len(w) < cap) len(w) += 1 }
          else if (len(w) > 0) {
            if (lists(w) == null) { lists(w) = new Array[Int](len(w)); member(w) = true }
            val l = lists(w); l(l.length - len(w)) = mid; len(w) -= 1
          }
        }
        j += 1
      }
      i += 1
    }
  }
}
