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
) extends Serializable {
  require({ var i = 1; while (i < edges.length && edges(i - 1) < edges(i)) i += 1; i >= edges.length },
    "SPGu edges must be strictly ascending")

  /** Counts the definite labels. */
  def this(n: Int, k: Int, s: Int, t: Int, edges: Array[Long], labels: Array[Byte]) =
    this(n, k, s, t, edges, labels, labels.count(_ == EdgeLabel.Definite))

  def numEdges: Int = edges.length
  def definiteEdges: Iterator[Long] =
    edges.iterator.zip(labels.iterator).collect { case (e, l) if l == EdgeLabel.Definite => e }
  def undeterminedEdges: Iterator[Long] =
    edges.iterator.zip(labels.iterator).collect { case (e, l) if l == EdgeLabel.Undetermined => e }
}

/** Algorithm 2 — per-edge labeling against the essential-vertex indexes. */
object EdgeLabeling {

  /** Vertex `v`'s column of an [[EvIndex]], re-pointed per edge so that
    * labeling allocates nothing per edge.
    */
  private final class IndexColumn(ev: EvIndex) extends EvColumn {
    private val layers = ev.layers
    var v = 0
    def apply(l: Int): Array[Int] = layers(l)(v)
  }

  /** Label a single edge e(u,v) from its two EV columns: `fu(l)` is
    * EV_l(s,u) and `bv(l)` is EV_l(v,t) for l in 0..k-1, null where absent.
    * Follows Algorithm 2 line-by-line; see the paper's Lemmas 4.4/4.6 and
    * Theorem 4.3 for why checking kb = k-kf-1 covers all smaller kb.
    */
  def labelEdge(k: Int, s: Int, t: Int, u: Int, v: Int, fu: EvColumn, bv: EvColumn): Byte = {
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
    var cap = 0
    var u = 0
    while (u < g.n) { if (dF(u) < k) cap += g.outAdj(u).length; u += 1 }
    val edges  = new Array[Long](cap)
    val labels = new Array[Byte](cap)
    val fu = new IndexColumn(evF)
    val bv = new IndexColumn(evB)
    var kept = 0; var definite = 0; var labeled = 0
    u = 0
    while (u < g.n) {
      val du = dF(u)
      if (du < k) {
        fu.v = u
        val a = g.outAdj(u); var j = 0
        while (j < a.length) {
          val v = a(j)
          if (Bfs.inWindow(du, dB(v), k)) {
            if ((labeled & 0xfff) == 0) Deadline.check(deadline)
            labeled += 1
            bv.v = v
            val lab = labelEdge(k, s, t, u, v, fu, bv)
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
  * Computed by a dedicated pass over SPGu implementing the definitions
  * directly (see DESIGN.md §6). In_D / Out_A are capped at k-2 entries per
  * Theorem 5.8.
  */
final class Boundary(
    val isDeparture: Array[Boolean],
    val isArrival: Array[Boolean],
    /** Valid in-neighbors per departure vertex (≤ k-2 entries), null elsewhere. */
    val inD: Array[Array[Int]],
    /** Valid out-neighbors per arrival vertex (≤ k-2 entries), null elsewhere. */
    val outA: Array[Array[Int]],
) extends Serializable {
  /** The departure vertices, ascending. */
  def departures: Array[Int] = Boundary.members(isDeparture)
  /** The arrival vertices, ascending. */
  def arrivals: Array[Int] = Boundary.members(isArrival)
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

  /** Two passes over the ascending `ub.edges`: mark s's out- and t's
    * in-neighbors, then file each e(x,v) under In_D(v) and Out_A(x). So every
    * list ascends and keeps its first max(1, k-2) entries (Theorem 5.8).
    */
  def compute(ub: UpperBoundGraph): Boundary = {
    import LocalGraph.{dst, src}
    val (s, t) = (ub.s, ub.t)
    val cap = math.max(1, ub.k - 2)
    val fromS, intoT = new Array[Boolean](ub.n)
    for (i <- ub.edges.indices) {
      val e = ub.edges(i)
      if (src(e) == s) fromS(dst(e)) = true
      if (dst(e) == t) intoT(src(e)) = true
    }
    val inD, outA = new Array[Array[Int]](ub.n)
    def add(lists: Array[Array[Int]], v: Int, x: Int): Unit = {
      val l = lists(v)
      if (l == null) lists(v) = Array(x)
      else if (l.length < cap) { lists(v) = java.util.Arrays.copyOf(l, l.length + 1); lists(v)(l.length) = x }
    }
    for (i <- ub.edges.indices) {
      val x = src(ub.edges(i)); val v = dst(ub.edges(i))
      // Definition 5.1: v ∈ D iff ∃ in-neighbor x with x,v,s,t distinct and
      // e(s,x), e(x,v) ∈ SPGu.
      if (fromS(x) && x != t && v != s && v != t && v != x) add(inD, v, x)
      // Definition 5.3: x ∈ A iff ∃ out-neighbor v with x,v,s,t distinct and
      // e(x,v), e(v,t) ∈ SPGu.
      if (intoT(v) && v != s && x != t && x != s && x != v) add(outA, x, v)
    }
    new Boundary(inD.map(_ != null), outA.map(_ != null), inD, outA)
  }
}
