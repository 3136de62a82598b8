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
  *
  * The search enters no frame that cannot reach a successful Theorem 5.6
  * test (DESIGN.md §6): (a) no backward search from an arrival whose Out_A
  * is all on the stack, (b) no backward step onto the last off-stack vertex
  * of Out_A, and (c) no step whose lower-bound q* length, from the BFS
  * distances to the nearest arrival and from the nearest departure, exceeds
  * k-4. Pruned subtrees hold no success, so every edge finds the witness the
  * uncut search would find.
  */
final class Verifier(
    ub: UpperBoundGraph,
    boundary: Boundary,
    ordering: Boolean,
    deadline: Long,
) {
  private val k = ub.k
  private val m = ub.numEdges
  // SPGu's shared edge-id CSR (UpperBoundGraph.adjacency); only the §5.3
  // order below is this verifier's own.
  private val adj    = ub.adjacency
  private val eSrc   = adj.eSrc
  private val eDst   = adj.eDst
  private val outOff = adj.outOff
  private val inOff  = adj.inOff
  /** SPG membership per edge id; definite edges are in from the start. */
  private val inSpg = Verifier.definite(ub)
  // Hops from each vertex to the nearest arrival and from the nearest
  // departure over SPGu, ignoring simplicity: lower bounds for cut (c). Every
  // budget they are tested against is at most k-5, so a BFS to depth k-5
  // suffices; Inf beyond.
  private val outIds = Array.range(0, m)
  private val toArrival     = Bfs.nearest(inOff, adj.inIds, eSrc, ub.n, boundary.arrivals, k - 5)
  private val fromDeparture = Bfs.nearest(outOff, outIds, eDst, ub.n, boundary.departures, k - 5)
  // §5.3 reorders each vertex's ids, so offsets stay: out-edges by the
  // head's distance to the nearest arrival, arrivals by |Out_A| descending;
  // in-edges by the tail's distance from the nearest departure, departures
  // by |In_D| descending. The out-order overwrites the identity.
  private val inIds =
    if (!ordering) adj.inIds
    else {
      Verifier.order(Verifier.byKey(toArrival, boundary.outA, k), inOff, adj.inIds, eSrc, outOff, outIds)
      val ids = new Array[Int](m)
      Verifier.order(Verifier.byKey(fromDeparture, boundary.inD, k), outOff, null, eDst, inOff, ids)
      ids
    }

  private val onStack = new Array[Boolean](ub.n)
  onStack(ub.s) = true; onStack(ub.t) = true // no search pushes or clears either (DESIGN.md §6)
  private val stack   = new Array[Int](k) // witness path edge ids; q* has ≤ k-4
  private var depth   = 0
  private var frames  = 0L
  private var skips   = 0
  private var widest  = 0L
  private var noBackward = 0L

  /** DFS frames entered so far. */
  def steps: Long = frames
  /** The most DFS frames one searched edge took. */
  def maxSteps: Long = widest
  /** Undetermined edges skipped because an earlier witness path confirmed them. */
  def skipped: Int = skips
  /** Backward searches not started: every vertex of the arrival's Out_A was on the stack (cut (a)). */
  def backwardSkipped: Long = noBackward

  /** SPG_k's edges: `ub.edges` filtered after confirming every undetermined
    * edge in ascending id order, so already sorted.
    */
  def spgEdges(): Array[Long] = {
    var e = 0; while (e < m) { if (ub.labels(e) == EdgeLabel.Undetermined) visit(e); e += 1 }
    var w = 0
    e = 0; while (e < m) { if (inSpg(e)) w += 1; e += 1 }
    val out = new Array[Long](w)
    w = 0
    e = 0; while (e < m) { if (inSpg(e)) { out(w) = ub.edges(e); w += 1 }; e += 1 }
    out
  }

  /** [[spgEdges]] as an encoded-edge hash set. */
  def verify(): java.util.HashSet[java.lang.Long] =
    new java.util.HashSet[java.lang.Long](java.util.Arrays.asList(spgEdges().map(Long.box): _*))

  private def visit(e: Int): Unit = if (inSpg(e)) skips += 1 else search(e)

  private def search(e: Int): Unit = {
    val u = eSrc(e); val v = eDst(e)
    // (c): q* through e(u,v) has ≥ fromDeparture(u) + 1 + toArrival(v) hops.
    if (toArrival(v) > k - 5 - fromDeparture(u)) return
    onStack(u) = true; onStack(v) = true
    stack(0) = e; depth = 1
    val before = frames
    forward(v, 1, u)
    widest = math.max(widest, frames - before)
    // On success the early returns skip the per-frame pops, so clear every
    // vertex the surviving stack touched — a stale mark would wrongly block
    // later edges' searches.
    var i = 0; while (i < depth) { onStack(eSrc(stack(i))) = false; onStack(eDst(stack(i))) = false; i += 1 }
  }

  private def forward(cur: Int, l: Int, u: Int): Boolean = {
    frames += 1
    if ((frames & 0x3ff) == 0) Deadline.check(deadline)
    if (boundary.isArrival(cur) && fromArrival(cur, l, u)) return true
    // (c): toArrival(nxt) + l + 1 + fromDeparture(u) ≤ k-4.
    val budget = k - 5 - l - fromDeparture(u)
    var j = outOff(cur); var end = outOff(cur + 1)
    while (j < end) {
      val e = outIds(j); val nxt = eDst(e)
      // §5.3 sorts by this distance first: nothing after it fits either.
      if (toArrival(nxt) > budget) { if (ordering) end = j }
      else if (!onStack(nxt)) {
        onStack(nxt) = true; stack(depth) = e; depth += 1
        if (forward(nxt, l + 1, u)) return true
        onStack(nxt) = false; depth -= 1
      }
      j += 1
    }
    false
  }

  /** The backward half of q* from `u`, for the forward half ending at
    * `arrival`; skipped when no vertex of Out_A(arrival) is off the stack
    * (a), since `backward` only adds vertices to it.
    */
  private def fromArrival(arrival: Int, l: Int, u: Int): Boolean = {
    val outAc = boundary.outA(arrival)
    val free  = freeOf(outAc)
    if (free == 0) { noBackward += 1; false }
    else backward(u, l, outAc, free)
  }

  /** min(2, vertices of `outAc` off the stack): the tests below only tell
    * none, one and more apart.
    */
  private def freeOf(outAc: Array[Int]): Int = {
    var free = 0; var i = 0
    while (free < 2 && i < outAc.length) { if (!onStack(outAc(i))) free += 1; i += 1 }
    free
  }

  /** `free` is [[freeOf]] `outAc` = Out_A(arrival); never 0. */
  private def backward(cur: Int, l: Int, outAc: Array[Int], free: Int): Boolean = {
    frames += 1
    if ((frames & 0x3ff) == 0) Deadline.check(deadline)
    if (boundary.isDeparture(cur) && tryAddEdges(cur, outAc, free)) return true
    // (c): fromDeparture(nxt) + l + 1 ≤ k-4.
    val budget = k - 5 - l
    var j = inOff(cur); var end = inOff(cur + 1)
    while (j < end) {
      val e = inIds(j); val nxt = eSrc(e)
      if (fromDeparture(nxt) > budget) { if (ordering) end = j }
      else if (!onStack(nxt)) {
        // (b): pushing the last free vertex of Out_A fails every test beneath.
        val member = VSet.contains(outAc, nxt)
        if (!member || free > 1) {
          onStack(nxt) = true; stack(depth) = e; depth += 1
          if (backward(nxt, l + 1, outAc, if (member) freeOf(outAc) else free)) return true
          onStack(nxt) = false; depth -= 1
        }
      }
      j += 1
    }
    false
  }

  /** ∃ x ∈ In_D(departure) \ stack, y ∈ `outAc` \ stack with x ≠ y. With
    * two free y any free x has one; with one, x must not be it.
    */
  private def tryAddEdges(departure: Int, outAc: Array[Int], free: Int): Boolean = {
    val inDc = boundary.inD(departure)
    var y = -1
    if (free == 1) { var j = 0; while (onStack(outAc(j))) j += 1; y = outAc(j) }
    var i = 0
    while (i < inDc.length) {
      val x = inDc(i)
      if (!onStack(x) && x != y) {
        var d = 0; while (d < depth) { inSpg(stack(d)) = true; d += 1 }
        return true
      }
      i += 1
    }
    false
  }
}

/** The set-up passes of [[Verifier]], kept out of its constructor so that
  * each loop compiles as a method of its own.
  */
object Verifier {

  /** SPG membership seeded with the definite edges. */
  private def definite(ub: UpperBoundGraph): Array[Boolean] = {
    val in = new Array[Boolean](ub.numEdges)
    var e = 0; while (e < in.length) { in(e) = ub.labels(e) == EdgeLabel.Definite; e += 1 }
    in
  }

  /** The vertices in §5.3's order: `dist` ascending, then |`sets(w)`|
    * descending (a set holds ≤ k vertices, Theorem 5.8), ties ascending.
    * Distances from k-5 on share the last rank: cut (c) follows no edge to
    * such a vertex. One stable counting sort over the n vertices.
    */
  private def byKey(dist: Array[Int], sets: Array[Array[Int]], k: Int): Array[Int] = {
    val n = dist.length; val cap = math.max(k - 5, 0)
    val count = new Array[Int]((cap + 1) * (k + 1) + 1)
    val key = new Array[Int](n)
    var w = 0
    while (w < n) {
      key(w) = math.min(dist(w), cap) * (k + 1) + k - (if (sets(w) == null) 0 else sets(w).length)
      count(key(w) + 1) += 1
      w += 1
    }
    var b = 1; while (b < count.length) { count(b) += count(b - 1); b += 1 }
    val order = new Array[Int](n)
    w = 0; while (w < n) { order(count(key(w))) = w; count(key(w)) += 1; w += 1 }
    order
  }

  /** Writes into `ids` the edge ids grouped by their `by` endpoint at
    * offsets `off`, each group in the order of the other endpoint w given by
    * `ws`: walks w in that order and appends each of w's edges, the ids
    * `wIds(wOff(w) until wOff(w+1))` (the identity where `wIds` is null), to
    * the group of its `by` endpoint. A group gets at most one edge per w, so
    * ties keep ascending w, which is id order.
    */
  private def order(ws: Array[Int], wOff: Array[Int], wIds: Array[Int], by: Array[Int],
                    off: Array[Int], ids: Array[Int]): Unit = {
    val next = java.util.Arrays.copyOf(off, off.length - 1)
    var i = 0
    while (i < ws.length) {
      val w = ws(i)
      var j = wOff(w)
      while (j < wOff(w + 1)) {
        val e = if (wIds == null) j else wIds(j)
        val x = by(e)
        ids(next(x)) = e; next(x) += 1
        j += 1
      }
      i += 1
    }
  }
}
