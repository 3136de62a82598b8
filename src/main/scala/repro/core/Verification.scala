package repro.core

import scala.collection.mutable.ArrayBuffer

/** Cooperative deadline for long-running searches. Benchmarks set a per-query
  * budget; algorithms check it periodically and abort with this exception,
  * which the harness reports as INF (the paper's timeout convention).
  */
final class DeadlineExceeded extends RuntimeException("per-query deadline exceeded")

object Deadline {
  /** A deadline that never fires. */
  val None: Long = Long.MaxValue
  def in(ms: Long): Long = System.nanoTime() + ms * 1000000L
  @inline def check(deadline: Long): Unit =
    if (deadline != Long.MaxValue && System.nanoTime() > deadline) throw new DeadlineExceeded
}

/** Verification of undetermined edges (Algorithm 3, §5.2) with the search
  * ordering strategies of §5.3.
  *
  * For each undetermined edge e(u,v) a DFS-oriented search looks for a simple
  * path q* of ≤ k-4 hops from a departure to an arrival through e(u,v) such
  * that some valid in-neighbor of the departure and valid out-neighbor of the
  * arrival are distinct and off-stack (Theorem 5.6). Every edge of a found q*
  * is added to the result, so later undetermined edges on the same witness
  * path are skipped.
  */
final class Verifier(
    ub: UpperBoundGraph,
    boundary: Boundary,
    ordering: Boolean,
    deadline: Long,
) {
  private val n = ub.n
  private val k = ub.k

  // Adjacency over SPGu, optionally re-ordered per §5.3.
  private val outAdj: Array[Array[Int]] =
    if (ordering) Verifier.orderedOut(ub, boundary) else ub.graph.outAdj
  private val inAdj: Array[Array[Int]] =
    if (ordering) Verifier.orderedIn(ub, boundary) else ub.graph.inAdj

  private val onStack = new Array[Boolean](n)
  private val stkE    = new ArrayBuffer[Long]()
  private var steps   = 0

  /** Edges confirmed to belong to SPG_k (definite edges plus witnessed
    * undetermined ones), as an encoded-edge hash set.
    */
  def verify(): java.util.HashSet[java.lang.Long] = {
    val result = new java.util.HashSet[java.lang.Long]()
    ub.definiteEdges.foreach(e => result.add(e))
    if (k >= 5) {
      val undetermined = ub.undeterminedEdges.toArray
      var i = 0
      while (i < undetermined.length) {
        val e = undetermined(i)
        if (!result.contains(e)) verifyEdge(e, result)
        i += 1
      }
    }
    result
  }

  /** Verify one undetermined edge, adding the witness path's edges to
    * `result` when found. Exposed for the distributed verifier, which shards
    * the undetermined edges across executors.
    */
  def verifyEdge(e: Long, result: java.util.HashSet[java.lang.Long]): Boolean = {
    val u = LocalGraph.src(e); val v = LocalGraph.dst(e)
    onStack(u) = true; onStack(v) = true; onStack(ub.s) = true; onStack(ub.t) = true
    stkE.clear(); stkE += e
    val found = forward(v, 1, u, result)
    // On success the early returns skip the per-frame pops, so clear every
    // vertex the surviving stack touched — a stale mark would wrongly block
    // later edges' searches.
    var i = 0
    while (i < stkE.length) {
      val se = stkE(i)
      onStack(LocalGraph.src(se)) = false
      onStack(LocalGraph.dst(se)) = false
      i += 1
    }
    onStack(u) = false; onStack(v) = false; onStack(ub.s) = false; onStack(ub.t) = false
    found
  }

  private def forward(cur: Int, l: Int, u: Int, result: java.util.HashSet[java.lang.Long]): Boolean = {
    steps += 1
    if ((steps & 0x3ff) == 0) Deadline.check(deadline)
    if (boundary.isArrival(cur) && backward(u, l, cur, result)) return true
    if (l < k - 4) {
      val outs = outAdj(cur); var j = 0
      while (j < outs.length) {
        val nxt = outs(j)
        if (!onStack(nxt)) {
          onStack(nxt) = true; stkE += LocalGraph.enc(cur, nxt)
          if (forward(nxt, l + 1, u, result)) return true
          onStack(nxt) = false; stkE.remove(stkE.length - 1)
        }
        j += 1
      }
    }
    false
  }

  private def backward(cur: Int, l: Int, arrival: Int, result: java.util.HashSet[java.lang.Long]): Boolean = {
    steps += 1
    if ((steps & 0x3ff) == 0) Deadline.check(deadline)
    if (boundary.isDeparture(cur) && tryAddEdges(cur, arrival, result)) return true
    if (l < k - 4) {
      val ins = inAdj(cur); var j = 0
      while (j < ins.length) {
        val nxt = ins(j)
        if (!onStack(nxt)) {
          onStack(nxt) = true; stkE += LocalGraph.enc(nxt, cur)
          if (backward(nxt, l + 1, arrival, result)) return true
          onStack(nxt) = false; stkE.remove(stkE.length - 1)
        }
        j += 1
      }
    }
    false
  }

  private def tryAddEdges(departure: Int, arrival: Int, result: java.util.HashSet[java.lang.Long]): Boolean = {
    val inDc  = boundary.inD(departure)
    val outAc = boundary.outA(arrival)
    // ∃ x ∈ In_D(dep) \ stack, y ∈ Out_A(arr) \ stack with x ≠ y.
    var i = 0
    while (i < inDc.length) {
      val x = inDc(i)
      if (!onStack(x)) {
        var j = 0
        while (j < outAc.length) {
          val y = outAc(j)
          if (!onStack(y) && y != x) {
            var e = 0
            while (e < stkE.length) { result.add(stkE(e)); e += 1 }
            return true
          }
          j += 1
        }
      }
      i += 1
    }
    false
  }
}

object Verifier {

  /** §5.3: sort out-neighbors ascending by distance to the closest arrival
    * (following SPGu edges forward); arrivals themselves (distance 0) sort by
    * |Out_A| descending.
    */
  private[core] def orderedOut(ub: UpperBoundGraph, b: Boundary): Array[Array[Int]] = {
    // Distance from w to the nearest arrival along forward edges = BFS from
    // the arrival set over reversed SPGu edges.
    val distToArr = Bfs.nearest(ub.graph.inAdj, ub.n, b.arrivals.toArray, Bfs.Inf)
    ub.graph.outAdj.map { a =>
      if (a.length <= 1) a
      else {
        val copy = a.clone()
        LocalGraph.sortBy(copy, w => key(distToArr(w), if (b.outA(w) == null) 0 else b.outA(w).length))
        copy
      }
    }
  }

  /** §5.3 symmetric: in-neighbors ascending by distance from the closest
    * departure; departures sort by |In_D| descending.
    */
  private[core] def orderedIn(ub: UpperBoundGraph, b: Boundary): Array[Array[Int]] = {
    val distFromDep = Bfs.nearest(ub.graph.outAdj, ub.n, b.departures.toArray, Bfs.Inf)
    ub.graph.inAdj.map { a =>
      if (a.length <= 1) a
      else {
        val copy = a.clone()
        LocalGraph.sortBy(copy, w => key(distFromDep(w), if (b.inD(w) == null) 0 else b.inD(w).length))
        copy
      }
    }
  }

  /** Composite sort key: primary distance ascending, tie-break set size
    * descending (only meaningful at distance 0, harmless elsewhere).
    */
  @inline private def key(dist: Int, setSize: Int): Long =
    (dist.toLong << 32) | ((Int.MaxValue - setSize).toLong & 0xffffffffL)
}
