package repro.core

import scala.collection.mutable.ArrayBuffer

/** Layered essential-vertex sets produced by propagation (§3.2).
  *
  * `layers(l)(v)` is EV_l(s,v) (or EV_l(v,t) for a backward index) as a
  * sorted Int array; `null` means P_l(s,v) = ∅ — no path of length ≤ l —
  * or that the layer was skipped by forward-looking pruning, which
  * Theorem 3.6 proves is never consulted in a way that changes the result.
  * Layers run 0..k-1 (Theorem 3.4 never needs longer prefixes).
  */
final class EvIndex(val k: Int, val layers: Array[Array[Array[Int]]]) extends Serializable {
  /** EV set for paths of length ≤ l, or null. Requires 0 ≤ l ≤ k-1. */
  def at(l: Int, v: Int): Array[Int] = layers(l)(v)
}

/** The EV sets of one vertex across layers: `apply(l)` is EV_l of that
  * vertex for l in 0..k-1, null where absent. [[EdgeLabeling.labelEdge]]
  * reads one column per endpoint of an edge, whether the sets are stored
  * per layer ([[EvIndex]]) or per vertex ([[repro.distributed.DistEve]]).
  */
trait EvColumn {
  def apply(l: Int): Array[Int]
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
    */
  def propagate(
      g: LocalGraph,
      source: Int,
      excluded: Int,
      k: Int,
      distToOther: Array[Int],
      pruning: Boolean,
  ): EvIndex = {
    val n = g.n
    val lastLayer = math.max(0, k - 1)
    // `new`, not `Array.ofDim`: the ClassTag lookup behind ofDim goes through
    // a ClassValue, and C2 code that inlines it is thrown away once Spark
    // loads another ClassValue subclass, leaving propagate interpreted until
    // it is recompiled mid-batch.
    val layers = new Array[Array[Array[Int]]](lastLayer + 1)
    layers(0) = new Array[Array[Int]](n)
    layers(0)(source) = Array(source)

    var frontier = ArrayBuffer(source)
    val touched  = new ArrayBuffer[Int]()
    // Vertices with a non-null set at any layer so far: inheritance (line 12)
    // only needs to visit these, keeping each layer O(|reached|), not O(|V|).
    val reached   = ArrayBuffer(source)
    val isReached = new Array[Boolean](n)
    isReached(source) = true

    var l = 1
    while (l <= lastLayer) {
      val prev = layers(l - 1)
      val cur  = new Array[Array[Int]](n)
      touched.clear()
      var i = 0
      while (i < frontier.length) {
        val x = frontier(i)
        val evx = prev(x)
        val outs = g.outAdj(x)
        var j = 0
        while (j < outs.length) {
          val y = outs(j)
          // line 6 with the forward-looking pruning predicate folded in;
          // `distToOther(y) <= k - l` avoids Int overflow on Inf.
          if (y != source && y != excluded && (!pruning || distToOther(y) <= k - l)) {
            // EV ∩ (EV_{l-1}(s,x) ∪ {y}); keepIn returns its first argument
            // when nothing is dropped, so unchanged sets stay shared.
            if (cur(y) == null) {
              touched += y
              // Seed with the inherited set so stale in-neighbor
              // contributions (folded into EV_{l-1}) are kept.
              val base = prev(y)
              cur(y) = if (base == null) VSet.add(evx, y) else VSet.keepIn(base, evx, y)
            } else {
              cur(y) = VSet.keepIn(cur(y), evx, y)
            }
          }
          j += 1
        }
        i += 1
      }
      // Register first-time reached vertices before inheriting.
      var ti0 = 0
      while (ti0 < touched.length) {
        val y = touched(ti0)
        if (!isReached(y)) { isReached(y) = true; reached += y }
        ti0 += 1
      }
      // line 12: inherit unchanged sets by reference (the paper's
      // "store the first, others refer to it" optimization). Unreached
      // vertices stay null at every layer, so visiting `reached` suffices.
      var ri = 0
      while (ri < reached.length) {
        val v = reached(ri)
        if (cur(v) == null) cur(v) = prev(v)
        ri += 1
      }
      layers(l) = cur
      // Delta frontier: only vertices whose set actually changed (or were
      // reached for the first time) can alter a neighbor's intersection at
      // the next layer; unchanged contributions are already folded in.
      val next = new ArrayBuffer[Int]()
      var ti = 0
      while (ti < touched.length) {
        val y = touched(ti)
        val changed = (prev(y) == null) || ((cur(y) ne prev(y)) &&
          !java.util.Arrays.equals(cur(y), prev(y)))
        if (changed) next += y
        ti += 1
      }
      frontier = next
      l += 1
    }
    new EvIndex(k, layers)
  }
}
