package repro.core

/** Cooperative deadline for long-running searches. Benchmarks set a per-query
  * budget; algorithms check it periodically and abort with this exception,
  * which the harness reports as INF (the paper's timeout convention).
  */
final class DeadlineExceeded extends RuntimeException("per-query deadline exceeded")

object Deadline {
  /** A deadline that never fires. */
  val None: Long = Long.MaxValue
  def in(ms: Long): Long = System.nanoTime() + ms * 1000000L
  /** Throws past `deadline`. One comparison whether or not a deadline is
    * set (never true for [[None]]), so compiled code warmed up without one
    * keeps the same branch profile when a caller passes one.
    */
  @inline def check(deadline: Long): Unit =
    if (System.nanoTime() > deadline) throw new DeadlineExceeded
}

/** Verification of undetermined edges (Algorithm 3, §5.2) with the search
  * ordering strategies of §5.3.
  *
  * For each undetermined edge e(u,v) a DFS-oriented search looks for a simple
  * path q* of ≤ k-4 hops from a departure to an arrival through e(u,v) such
  * that some valid in-neighbor of the departure and valid out-neighbor of the
  * arrival are distinct and off-stack (Theorem 5.6). Every edge of a found q*
  * is confirmed, so later undetermined edges on the same witness path are
  * skipped. Adjacency, witness stack and result hold SPGu edge ids
  * ([[UpperBoundGraph]]), so nothing is boxed per edge or per step.
  */
final class Verifier(
    ub: UpperBoundGraph,
    boundary: Boundary,
    ordering: Boolean,
    deadline: Long,
) {
  private val k = ub.k
  private val m = ub.numEdges
  private val eSrc = new Array[Int](m)
  private val eDst = new Array[Int](m)
  /** SPG membership per edge id; definite edges are in from the start. */
  private val inSpg = new Array[Boolean](m)
  for (e <- 0 until m) {
    eSrc(e) = LocalGraph.src(ub.edges(e)); eDst(e) = LocalGraph.dst(ub.edges(e))
    inSpg(e) = ub.labels(e) == EdgeLabel.Definite
  }

  // Edge ids by source / by target (CSR), ascending within a vertex: SPGu's
  // only adjacency. §5.3 reorders each vertex's ids, so offsets stay: out-edges
  // by the head's distance to the nearest arrival (a BFS over this CSR),
  // arrivals by |Out_A| descending; in-edges by the tail's distance from the
  // nearest departure, departures by |In_D| descending.
  private val (outOff, outIds) = Verifier.group(Array.range(0, m), eSrc, ub.n)
  private val (inOff, inIds)   = Verifier.group(Array.range(0, m), eDst, ub.n)
  if (ordering) {
    val toArrival     = Bfs.nearest(inOff, inIds, eSrc, ub.n, boundary.arrivals.toArray, Bfs.Inf)
    val fromDeparture = Bfs.nearest(outOff, outIds, eDst, ub.n, boundary.departures.toArray, Bfs.Inf)
    Verifier.group(Verifier.ranked(eDst, toArrival, boundary.outA, k), eSrc, ub.n)._2.copyToArray(outIds)
    Verifier.group(Verifier.ranked(eSrc, fromDeparture, boundary.inD, k), eDst, ub.n)._2.copyToArray(inIds)
  }

  private val onStack = new Array[Boolean](ub.n)
  private val stack   = new Array[Int](k) // witness path edge ids; q* has ≤ k-4
  private var depth   = 0
  private var frames  = 0L
  private var skips   = 0
  private var widest  = 0L

  /** DFS frames entered so far. */
  def steps: Long = frames
  /** The most DFS frames one searched edge took. */
  def maxSteps: Long = widest
  /** Undetermined edges skipped because an earlier witness path confirmed them. */
  def skipped: Int = skips

  /** Algorithm 3's outer loop over the undetermined edge ids `ids`, in
    * order; an id already confirmed is skipped. Returns the SPG membership
    * of every SPGu edge id: the definite edges plus the witnessed ones.
    */
  def confirm(ids: Array[Int]): Array[Boolean] = {
    var i = 0; while (i < ids.length) { visit(ids(i)); i += 1 }
    inSpg
  }

  /** SPG_k's edges: `ub.edges` filtered after confirming every undetermined
    * edge in ascending id order, so already sorted.
    */
  def spgEdges(): Array[Long] = {
    var e = 0; while (e < m) { if (ub.labels(e) == EdgeLabel.Undetermined) visit(e); e += 1 }
    val out = new Array[Long](m); var w = 0
    e = 0; while (e < m) { if (inSpg(e)) { out(w) = ub.edges(e); w += 1 }; e += 1 }
    java.util.Arrays.copyOf(out, w)
  }

  /** [[spgEdges]] as an encoded-edge hash set. */
  def verify(): java.util.HashSet[java.lang.Long] =
    new java.util.HashSet[java.lang.Long](java.util.Arrays.asList(spgEdges().map(Long.box): _*))

  private def visit(e: Int): Unit = if (inSpg(e)) skips += 1 else search(e)

  private def search(e: Int): Unit = {
    onStack(eSrc(e)) = true; onStack(eDst(e)) = true; onStack(ub.s) = true; onStack(ub.t) = true
    stack(0) = e; depth = 1
    val before = frames
    forward(eDst(e), 1, eSrc(e))
    widest = math.max(widest, frames - before)
    // On success the early returns skip the per-frame pops, so clear every
    // vertex the surviving stack touched — a stale mark would wrongly block
    // later edges' searches.
    var i = 0; while (i < depth) { onStack(eSrc(stack(i))) = false; onStack(eDst(stack(i))) = false; i += 1 }
    onStack(ub.s) = false; onStack(ub.t) = false
  }

  private def forward(cur: Int, l: Int, u: Int): Boolean = {
    frames += 1
    if ((frames & 0x3ff) == 0) Deadline.check(deadline)
    if (boundary.isArrival(cur) && backward(u, l, cur)) return true
    if (l < k - 4) {
      var j = outOff(cur); val end = outOff(cur + 1)
      while (j < end) {
        val e = outIds(j); val nxt = eDst(e)
        if (!onStack(nxt)) {
          onStack(nxt) = true; stack(depth) = e; depth += 1
          if (forward(nxt, l + 1, u)) return true
          onStack(nxt) = false; depth -= 1
        }
        j += 1
      }
    }
    false
  }

  private def backward(cur: Int, l: Int, arrival: Int): Boolean = {
    frames += 1
    if ((frames & 0x3ff) == 0) Deadline.check(deadline)
    if (boundary.isDeparture(cur) && tryAddEdges(cur, arrival)) return true
    if (l < k - 4) {
      var j = inOff(cur); val end = inOff(cur + 1)
      while (j < end) {
        val e = inIds(j); val nxt = eSrc(e)
        if (!onStack(nxt)) {
          onStack(nxt) = true; stack(depth) = e; depth += 1
          if (backward(nxt, l + 1, arrival)) return true
          onStack(nxt) = false; depth -= 1
        }
        j += 1
      }
    }
    false
  }

  private def tryAddEdges(departure: Int, arrival: Int): Boolean = {
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
            var d = 0; while (d < depth) { inSpg(stack(d)) = true; d += 1 }
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

  /** Stable counting sort of `ids` by `bucket(id)` in [0, nb): the bucket
    * offsets (length nb+1) and the sorted ids.
    */
  private def group(ids: Array[Int], bucket: Array[Int], nb: Int): (Array[Int], Array[Int]) = {
    val off = new Array[Int](nb + 1)
    var i = 0; while (i < ids.length) { off(bucket(ids(i)) + 1) += 1; i += 1 }
    var b = 0; while (b < nb) { off(b + 1) += off(b); b += 1 }
    val next = java.util.Arrays.copyOf(off, nb)
    val out  = new Array[Int](ids.length)
    i = 0; while (i < ids.length) { b = bucket(ids(i)); out(next(b)) = ids(i); next(b) += 1; i += 1 }
    (off, out)
  }

  /** Edge ids stably sorted by their endpoint w = `end(e)`: `dist(w)`
    * ascending, then |`sets(w)`| descending (a set holds ≤ k vertices,
    * Theorem 5.8); ties keep id order. Two stable counting passes, least
    * significant first.
    */
  private def ranked(end: Array[Int], dist: Array[Int], sets: Array[Array[Int]], k: Int): Array[Int] = {
    val sizeBucket, distBucket = new Array[Int](end.length)
    var e = 0
    while (e < end.length) {
      sizeBucket(e) = k - (if (sets(end(e)) == null) 0 else sets(end(e)).length)
      distBucket(e) = math.min(dist(end(e)), dist.length) // Inf sorts last
      e += 1
    }
    group(group(Array.range(0, end.length), sizeBucket, k + 1)._2, distBucket, dist.length + 1)._2
  }
}
