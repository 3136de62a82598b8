package repro.core

/** Layered essential-vertex sets produced by propagation (§3.2).
  *
  * `layers(l)(v)` is EV_l(s,v) (or EV_l(v,t) for a backward index) as a
  * sorted Int array; `null` means P_l(s,v) = ∅ — no path of length ≤ l —
  * or that the layer was skipped by forward-looking pruning, which
  * Theorem 3.6 proves is never consulted in a way that changes the result.
  * Layers run 0..k-1 (Theorem 3.4 never needs longer prefixes).
  */
final class EvIndex(
    val k: Int,
    val layers: Array[Array[Array[Int]]],
    /** Σ over layers 1..k-1 of the frontier length propagation expanded. */
    val frontier: Long = 0,
    /** [[VSet.keepIn]] calls propagation made. */
    val merges: Long = 0,
) {
  /** EV set for paths of length ≤ l, or null. Requires 0 ≤ l ≤ k-1. */
  def at(l: Int, v: Int): Array[Int] = layers(l)(v)
}

/** Propagating computation of essential vertices (Algorithm 1).
  *
  * The recurrence implied by Eq. (4) intersects over *all* in-neighbors with
  * a non-empty P_{l-1}; we realize it with a delta frontier plus seeding the
  * layer-l value with the inherited EV_{l-1}(s,y) (see DESIGN.md §6 for why
  * the seed is required — contributions of in-neighbors that left the
  * frontier are already folded into EV_{l-1}(s,y)).
  */
object EssentialVertices {

  /** Forward propagation from `source`, never visiting `excluded` (= t for a
    * forward run; run on G^r with source=t, excluded=s for backward).
    *
    * @param distToOther Δ(y, other-endpoint) used by the forward-looking
    *                    pruning strategy (Theorem 3.6): propagation into y at
    *                    layer l is skipped when l + Δ(y,t) > k. Pass the
    *                    backward distances for a forward run and vice versa.
    * @param pruning     disable to reproduce "Naive EVE" in the Fig. 11 ablation
    * @param deadline    checked once per layer
    */
  def propagate(
      g: LocalGraph,
      source: Int,
      excluded: Int,
      k: Int,
      distToOther: Array[Int],
      pruning: Boolean,
      deadline: Long = Deadline.None,
  ): EvIndex = {
    val n = g.n
    val off = g.outOff; val dst = g.outDst
    val lastLayer = math.max(0, k - 1)
    // `new`, not `Array.ofDim`: the ClassTag lookup behind ofDim goes through
    // a ClassValue, and C2 code that inlines it is thrown away once Spark
    // loads another ClassValue subclass, leaving propagate interpreted until
    // it is recompiled mid-batch.
    val layers = new Array[Array[Array[Int]]](lastLayer + 1)
    layers(0) = new Array[Array[Int]](n)
    layers(0)(source) = Array(source)

    // A vertex enters `touched` at most once per layer and `reached` at most
    // once in all, so n bounds every list. `touched` is filtered in place
    // into the next frontier, and the two arrays swap each layer.
    var frontier = new Array[Int](n); var frontierLen = 1
    frontier(0) = source
    var touched = new Array[Int](n)
    // Vertices with a non-null set at any layer so far: inheritance (line 12)
    // only needs to visit these, keeping each layer O(|reached|), not O(|V|).
    val reached = new Array[Int](n); var reachedLen = 1
    reached(0) = source
    // Vertices whose set is {source, y}. Every contribution holds both, so
    // intersecting would return the set unchanged (DESIGN.md §6); sets only
    // shrink, so a vertex stays minimal at every later layer.
    val minimal = new Array[Boolean](n)
    var frontierSum = 0L; var merges = 0L

    var l = 1
    while (l <= lastLayer) {
      Deadline.check(deadline)
      val prev = layers(l - 1)
      val cur  = new Array[Array[Int]](n)
      frontierSum += frontierLen
      var touchedLen = 0
      var i = 0
      while (i < frontierLen) {
        val x = frontier(i)
        val evx = prev(x)
        var j = off(x); val stop = off(x + 1)
        while (j < stop) {
          val y = dst(j)
          // line 6 with the forward-looking pruning predicate folded in;
          // `distToOther(y) <= k - l` avoids Int overflow on Inf. A minimal
          // y is skipped: inheritance gives it the same set, and an
          // unchanged set never enters the frontier.
          if (y != source && y != excluded && !minimal(y) && (!pruning || distToOther(y) <= k - l)) {
            // EV ∩ (EV_{l-1}(s,x) ∪ {y}); keepIn returns its first argument
            // when nothing is dropped, so unchanged sets stay shared. The
            // first contribution of a layer is seeded with the inherited set,
            // so stale in-neighbor contributions (folded into EV_{l-1}) are kept.
            val ev = cur(y)
            if (ev == null) { touched(touchedLen) = y; touchedLen += 1 }
            val base = if (ev != null) ev else prev(y)
            val set =
              if (base == null) { reached(reachedLen) = y; reachedLen += 1; VSet.add(evx, y) }
              else { merges += 1; VSet.keepIn(base, evx, y) }
            cur(y) = set
            if (set.length == 2) minimal(y) = true
          }
          j += 1
        }
        i += 1
      }
      // line 12: inherit unchanged sets by reference (the paper's
      // "store the first, others refer to it" optimization). Unreached
      // vertices stay null at every layer, so visiting `reached` suffices.
      var ri = 0
      while (ri < reachedLen) {
        val v = reached(ri)
        if (cur(v) == null) cur(v) = prev(v)
        ri += 1
      }
      layers(l) = cur
      // Delta frontier: only vertices whose set actually changed (or were
      // reached for the first time) can alter a neighbor's intersection at
      // the next layer; unchanged contributions are already folded in.
      var nextLen = 0
      var ti = 0
      while (ti < touchedLen) {
        val y = touched(ti)
        // A set other than prev(y) is a strictly shorter keepIn result (DESIGN.md §6).
        if (prev(y) == null || (cur(y) ne prev(y))) { touched(nextLen) = y; nextLen += 1 }
        ti += 1
      }
      val spent = frontier
      frontier = touched; frontierLen = nextLen
      touched = spent
      l += 1
    }
    new EvIndex(k, layers, frontierSum, merges)
  }
}
