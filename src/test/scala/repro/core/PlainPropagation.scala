package repro.core

import scala.collection.mutable.ArrayBuffer

/** Algorithm 1 as propagation ran before it stopped at minimal sets, for
  * tests only: every contribution is intersected with [[VSet.keepIn]], and
  * the frontiers are boxed buffers. [[EssentialVertices.propagate]] must
  * produce the same null pattern and the same sets at every (l, v).
  */
object PlainPropagation {

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
