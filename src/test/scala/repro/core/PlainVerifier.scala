package repro.core

/** Algorithm 3 as printed, for tests only: the DFS of [[Verifier]] without
  * its cuts, and §5.3's order from exact BFS distances (unreached last). It
  * enters every frame the paper's search enters, so the cut search must
  * confirm the same edges, skip the same ones and take no more frames.
  */
final class PlainVerifier(ub: UpperBoundGraph, boundary: Boundary, ordering: Boolean) {
  private val k = ub.k
  private val m = ub.numEdges
  private val eSrc = Array.tabulate(m)(e => LocalGraph.src(ub.edges(e)))
  private val eDst = Array.tabulate(m)(e => LocalGraph.dst(ub.edges(e)))
  private val inSpg = Array.tabulate(m)(e => ub.labels(e) == EdgeLabel.Definite)

  private val (outOff, outIds) = PlainVerifier.group(Array.range(0, m), eSrc, ub.n)
  private val (inOff, inIds)   = PlainVerifier.group(Array.range(0, m), eDst, ub.n)
  if (ordering) {
    val toArrival     = Bfs.nearest(inOff, inIds, eSrc, ub.n, boundary.arrivals, Bfs.Inf)
    val fromDeparture = Bfs.nearest(outOff, outIds, eDst, ub.n, boundary.departures, Bfs.Inf)
    PlainVerifier.group(PlainVerifier.ranked(eDst, toArrival, boundary.outA, k), eSrc, ub.n)._2.copyToArray(outIds)
    PlainVerifier.group(PlainVerifier.ranked(eSrc, fromDeparture, boundary.inD, k), eDst, ub.n)._2.copyToArray(inIds)
  }

  private val onStack = new Array[Boolean](ub.n)
  private val stack   = new Array[Int](k)
  private var depth   = 0
  private var frames  = 0L
  private var skips   = 0

  def steps: Long = frames
  def skipped: Int = skips

  /** SPG_k's edges after visiting the undetermined edges in id order. */
  def spgEdges(): Array[Long] = {
    for (e <- 0 until m if ub.labels(e) == EdgeLabel.Undetermined) {
      if (inSpg(e)) skips += 1 else search(e)
    }
    ub.edges.indices.filter(inSpg).map(ub.edges).toArray
  }

  private def search(e: Int): Unit = {
    onStack(eSrc(e)) = true; onStack(eDst(e)) = true; onStack(ub.s) = true; onStack(ub.t) = true
    stack(0) = e; depth = 1
    forward(eDst(e), 1, eSrc(e))
    java.util.Arrays.fill(onStack, false)
  }

  private def forward(cur: Int, l: Int, u: Int): Boolean = {
    frames += 1
    if (boundary.isArrival(cur) && backward(u, l, cur)) return true
    if (l < k - 4) {
      for (j <- outOff(cur) until outOff(cur + 1)) {
        val e = outIds(j); val nxt = eDst(e)
        if (!onStack(nxt)) {
          onStack(nxt) = true; stack(depth) = e; depth += 1
          if (forward(nxt, l + 1, u)) return true
          onStack(nxt) = false; depth -= 1
        }
      }
    }
    false
  }

  private def backward(cur: Int, l: Int, arrival: Int): Boolean = {
    frames += 1
    if (boundary.isDeparture(cur) && tryAddEdges(cur, arrival)) return true
    if (l < k - 4) {
      for (j <- inOff(cur) until inOff(cur + 1)) {
        val e = inIds(j); val nxt = eSrc(e)
        if (!onStack(nxt)) {
          onStack(nxt) = true; stack(depth) = e; depth += 1
          if (backward(nxt, l + 1, arrival)) return true
          onStack(nxt) = false; depth -= 1
        }
      }
    }
    false
  }

  private def tryAddEdges(departure: Int, arrival: Int): Boolean = {
    val ok = boundary.inD(departure).exists(x => !onStack(x) &&
      boundary.outA(arrival).exists(y => !onStack(y) && y != x))
    if (ok) (0 until depth).foreach(d => inSpg(stack(d)) = true)
    ok
  }
}

object PlainVerifier {

  /** Stable counting sort of `ids` by `bucket(id)` in [0, nb): offsets and sorted ids. */
  private def group(ids: Array[Int], bucket: Array[Int], nb: Int): (Array[Int], Array[Int]) = {
    val off = new Array[Int](nb + 1)
    ids.foreach(i => off(bucket(i) + 1) += 1)
    for (b <- 0 until nb) off(b + 1) += off(b)
    val next = java.util.Arrays.copyOf(off, nb)
    val out  = new Array[Int](ids.length)
    ids.foreach { i => out(next(bucket(i))) = i; next(bucket(i)) += 1 }
    (off, out)
  }

  /** Edge ids stably sorted by endpoint w = `end(e)`: `dist(w)` ascending
    * (unreached last), then |`sets(w)`| descending.
    */
  private def ranked(end: Array[Int], dist: Array[Int], sets: Array[Array[Int]], k: Int): Array[Int] = {
    val sizeBucket = end.map(w => k - (if (sets(w) == null) 0 else sets(w).length))
    val distBucket = end.map(w => math.min(dist(w), dist.length))
    group(group(Array.range(0, end.length), sizeBucket, k + 1)._2, distBucket, dist.length + 1)._2
  }
}
