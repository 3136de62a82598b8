package repro.core

/** Configuration switches matching the Fig. 11 ablation.
  *
  * @param pruning  forward-looking pruning (§3.3, Theorem 3.6)
  * @param search   distance computation strategy (§3.3)
  * @param ordering search ordering strategies for verification (§5.3)
  */
final case class EveConfig(
    pruning: Boolean = true,
    search: Bfs.SearchMode = Bfs.SearchMode.Adaptive,
    ordering: Boolean = true,
) extends Serializable

object EveConfig {
  val Default: EveConfig = EveConfig()
  /** "Naive EVE" in Fig. 11: all pruning techniques disabled. */
  val Naive: EveConfig = EveConfig(pruning = false, search = Bfs.SearchMode.Single, ordering = false)
}

/** Per-phase wall times (ns) and size counters for §6.4-style breakdowns. */
final case class EveStats(
    /** Distances and, under pruning, the corridor build. */
    distNs: Long,
    propagateNs: Long,
    labelNs: Long,
    verifyNs: Long,
    upperEdges: Int,
    definiteEdges: Int,
    undeterminedEdges: Int,
    resultEdges: Int,
    /** DFS frames entered by verification (Algorithm 3). */
    verifySteps: Long = 0,
    /** Undetermined edges not searched: an earlier witness path confirmed them. */
    witnessSkipped: Int = 0,
    /** The most DFS frames any single undetermined edge's search took. */
    verifyMaxFrames: Long = 0,
    /** Backward searches verification did not start: every valid
      * out-neighbor of the arrival was already on the witness stack.
      */
    backwardSkipped: Long = 0,
    /** Vertices of the corridor G^k_st the later phases ran on; 0 without pruning. */
    corridorVertices: Int = 0,
    /** Edges of that corridor; 0 without pruning. */
    corridorEdges: Int = 0,
    /** Vertices the forward distance search reached (Δ(s,·) assigned). */
    bfsReachedF: Int = 0,
    /** Vertices the backward distance search reached (Δ(·,t) assigned). */
    bfsReachedB: Int = 0,
    /** Σ over both propagations and their layers of the frontier length. */
    evFrontier: Long = 0,
    /** EV set intersections ([[VSet.keepIn]] calls) both propagations made. */
    evMerges: Long = 0,
    /** Departure vertices of SPGu (Definition 5.1); 0 for k ≤ 4, which skips verification. */
    departures: Int = 0,
    /** Arrival vertices of SPGu (Definition 5.3); 0 for k ≤ 4. */
    arrivals: Int = 0,
) {
  def totalNs: Long = distNs + propagateNs + labelNs + verifyNs
}

/** Result of an EVE run: the exact SPG_k(s,t) edge set, the upper bound it
  * was refined from, and phase statistics. All in the graph's vertex ids.
  */
final class EveResult(
    /** Exact SPG_k(s,t) edges, encoded, ascending. */
    val edges: Array[Long],
    upperBoundOf: => UpperBoundGraph,
    val stats: EveStats,
) {
  /** The upper-bound graph SPGu_k(s,t), mapped to the graph's ids on first use. */
  lazy val upperBound: UpperBoundGraph = upperBoundOf
  def edgePairs: Array[(Int, Int)] = edges.map(e => (LocalGraph.src(e), LocalGraph.dst(e)))
  /** Vertices of SPG_k (endpoints of its edges). */
  def vertices: Set[Int] = edges.iterator.flatMap(e => Iterator(LocalGraph.src(e), LocalGraph.dst(e))).toSet
}

/** EVE — Essential Vertices based Examination (the paper's contribution).
  *
  * Three phases (§2.3): (1) adaptive bi-directional distances + essential
  * vertex propagation, (2) edge labeling producing the upper-bound graph,
  * (3) verification of undetermined edges. For k ≤ 4 the upper bound is
  * exact (Theorem 4.8) and phase (3) is skipped. With forward-looking
  * pruning on, every phase after the distances runs on the query's
  * [[Corridor]] in local ids and the answer is mapped back; without it
  * (Naive EVE, Fig. 11) they run on the whole graph.
  */
object Eve {

  def run(
      g: LocalGraph,
      s: Int,
      t: Int,
      k: Int,
      config: EveConfig = EveConfig.Default,
      deadline: Long = Deadline.None,
  ): EveResult = {
    g.requireQuery(s, t, k)
    require(s != t, "query requires s != t")

    val t0 = System.nanoTime()
    // Under pruning the corridor, else distances over the whole graph; null
    // when t is beyond k hops. Either way the scratch is clean afterwards.
    var cor: Corridor = null; var dists: Bfs.Dists = null
    var reachedF, reachedB = 0
    val sc = Bfs.Scratch.borrow(g.n)
    try {
      sc.search(g, s, t, k, config.search, deadline)
      reachedF = sc.fwd.reached; reachedB = sc.bwd.reached
      // Theorem 3.6's pruning confines propagation to window edges into
      // corridor vertices (DESIGN.md §6), so under it the corridor suffices.
      if (sc.fwd.dist(t) <= k) {
        if (config.pruning) cor = Corridor(g, sc, k) else dists = sc.dists(g.n)
      }
    } finally sc.release()

    // Unreachable within k hops: empty answer, skip the heavy phases.
    if (cor == null && dists == null) {
      val empty = new UpperBoundGraph(g.n, k, s, t, Array.emptyLongArray, Array.emptyByteArray)
      return new EveResult(Array.emptyLongArray, empty,
        EveStats(System.nanoTime() - t0, 0, 0, 0, 0, 0, 0, 0, bfsReachedF = reachedF, bfsReachedB = reachedB))
    }
    // The graph, endpoints and distances the later phases run on.
    val (h, hs, ht, hd) =
      if (cor == null) (g, s, t, dists) else (cor.graph, cor.local(s), cor.local(t), cor.dists)
    val t1 = System.nanoTime()

    val evF = EssentialVertices.propagate(h, hs, ht, k, hd.fromAll, config.pruning, deadline)
    val evB = EssentialVertices.propagate(h.reverse, ht, hs, k, hd.toAll, config.pruning, deadline)
    val t2  = System.nanoTime()

    val ub = EdgeLabeling.upperBound(h, hs, ht, k, hd, evF, evB, deadline)
    val t3 = System.nanoTime()

    // Theorem 4.8: for k ≤ 4 SPGu = SPG, no verification needed.
    val boundary = if (k <= 4) null else Boundary.compute(ub)
    val verifier = if (boundary == null) null else new Verifier(ub, boundary, config.ordering, deadline)
    val spg      = if (verifier == null) ub.edges else verifier.spgEdges()
    val edges    = if (cor == null) spg else cor.global(spg)
    val t4 = System.nanoTime()

    val definite = ub.numDefinite
    new EveResult(
      edges,
      if (cor == null) ub else new UpperBoundGraph(g.n, k, s, t, cor.global(ub.edges), ub.labels, definite),
      EveStats(
        distNs = t1 - t0,
        propagateNs = t2 - t1,
        labelNs = t3 - t2,
        verifyNs = t4 - t3,
        upperEdges = ub.numEdges,
        definiteEdges = definite,
        undeterminedEdges = ub.numEdges - definite,
        resultEdges = edges.length,
        verifySteps = if (verifier == null) 0 else verifier.steps,
        witnessSkipped = if (verifier == null) 0 else verifier.skipped,
        verifyMaxFrames = if (verifier == null) 0 else verifier.maxSteps,
        backwardSkipped = if (verifier == null) 0 else verifier.backwardSkipped,
        corridorVertices = if (cor == null) 0 else h.n,
        corridorEdges = if (cor == null) 0 else Math.toIntExact(h.m),
        bfsReachedF = reachedF,
        bfsReachedB = reachedB,
        evFrontier = evF.frontier + evB.frontier,
        evMerges = evF.merges + evB.merges,
        departures = if (boundary == null) 0 else boundary.departures.length,
        arrivals = if (boundary == null) 0 else boundary.arrivals.length,
      ),
    )
  }

  /** Convenience: just the exact SPG_k edge set. */
  def spg(g: LocalGraph, s: Int, t: Int, k: Int,
          config: EveConfig = EveConfig.Default,
          deadline: Long = Deadline.None): Array[Long] =
    run(g, s, t, k, config, deadline).edges
}
