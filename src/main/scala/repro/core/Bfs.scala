package repro.core

/** Bounded shortest-distance computation (§3.3 of the paper).
  *
  * EVE needs Δ(s,y) and Δ(y,t) for exactly the vertices y that can lie on a
  * k-bounded s-t path, i.e. those with Δ(s,y)+Δ(y,t) ≤ k; every other vertex
  * may keep distance +∞. Three strategies are implemented, matching the
  * ablation of Figure 11:
  *
  *  - [[SearchMode.Single]]      — two full k-bounded BFS (from s over G and
  *                                 from t over G^r), the KHSQ strategy;
  *  - [[SearchMode.BiDir]]       — bi-directional BFS with equal depths
  *                                 ⌈(k−1)/2⌉/⌊(k−1)/2⌋, then each side
  *                                 continues for the remaining steps
  *                                 restricted to vertices the opposite side
  *                                 explored close enough to the other end;
  *  - [[SearchMode.Adaptive]]    — same, but each step advances whichever
  *                                 frontier is currently smaller (Adaptive
  *                                 Bi-directional Search [2,21]).
  *
  * All three return exact Δ(s,y) and Δ(y,t) for every y with
  * Δ(s,y)+Δ(y,t) ≤ k (property-tested), encoded as Int arrays with
  * [[Bfs.Inf]] for "unknown / > k". Phase 1 of the bi-directional modes
  * stops at depth sum k−1, not §3.3's k (DESIGN.md §6 gives the argument).
  * Every search over a [[LocalGraph]] CSR runs on one level-synchronous
  * queue kernel over its thread's [[Bfs.Scratch]], which grows to the
  * largest graph the thread searched and serves any smaller one, so a
  * query touches only the vertices it reaches. [[Corridor]] reads a search
  * off the scratch into the query's G^k_st: EVE, KHSQ(+) and PathEnum all
  * build it that way. [[Bfs.bounded]] copies one side's array out, n
  * entries, for callers that need distances over the whole graph (JOIN,
  * BC-DFS and the query generator); [[Bfs.distances]] copies both.
  * [[Bfs.nearest]] is the one search over an edge-id CSR, which the
  * verifier's §5.3 distance-to-boundary ordering uses.
  */
object Bfs {

  /** Sentinel for "distance unknown or larger than the bound". Chosen so that
    * `d1 + d2` never overflows Int for d1,d2 ≤ Inf.
    */
  val Inf: Int = Int.MaxValue / 4

  sealed trait SearchMode extends Serializable
  object SearchMode {
    case object Single   extends SearchMode
    case object BiDir    extends SearchMode
    case object Adaptive extends SearchMode
  }

  /** Distances from s (forward) and to t (backward), per the chosen mode. */
  final case class Dists(toAll: Array[Int], fromAll: Array[Int]) {
    /** Δ(s,y). */ def fromS(y: Int): Int = toAll(y)
    /** Δ(y,t). */ def toT(y: Int): Int   = fromAll(y)
  }

  /** A distance array of length n with every vertex unreached. */
  private def unreached(n: Int): Array[Int] = {
    val dist = new Array[Int](n)
    java.util.Arrays.fill(dist, Inf)
    dist
  }

  /** One side of a search: distances over all n vertices and the side's
    * visit list, which is also its BFS queue. Level `depth`, the frontier,
    * is `queue(head until tail)`; `queue(0 until reached)` is every vertex
    * the side reached, in order of distance.
    */
  final class Side private[Bfs] (n: Int) {
    val dist: Array[Int] = unreached(n)
    private[core] var queue = new Array[Int](256)
    private[Bfs] var head, tail, depth = 0

    def reached: Int = tail

    private[Bfs] def visit(y: Int, d: Int): Unit = {
      if (tail == queue.length) queue = java.util.Arrays.copyOf(queue, 2 * tail)
      queue(tail) = y; tail += 1
      dist(y) = d
    }

    /** Levels until depth k or an empty frontier: every still-unreached
      * neighbor y over the CSR `off`/`nbr` of a frontier vertex gets distance
      * depth+1, when `within` is given only if depth+1 + `within(y)` ≤ k.
      * Checks `deadline` after each level.
      */
    private[Bfs] def expand(off: Array[Int], nbr: Array[Int], k: Int, within: Array[Int], deadline: Long,
                            levels: Int = Int.MaxValue): Unit = {
      var l = 0
      while (l < levels && depth < k && head < tail) {
        val end = tail; val limit = k - depth - 1; var i = head
        while (i < end) {
          val x = queue(i); var j = off(x); val stop = off(x + 1)
          while (j < stop) {
            val y = nbr(j)
            if (dist(y) == Inf && (within == null || within(y) <= limit)) visit(y, depth + 1)
            j += 1
          }
          i += 1
        }
        head = end; depth += 1; l += 1
        Deadline.check(deadline)
      }
    }

    /** Every visited entry back to Inf: O(reached), not O(n). */
    private[Bfs] def reset(): Unit = {
      var i = 0
      while (i < tail) { dist(queue(i)) = Inf; i += 1 }
      head = 0; tail = 0; depth = 0
    }
  }

  /** Reusable state of one search on graphs of at most `n` vertices. Outside
    * a search every entry of `fwd.dist` and `bwd.dist` is Inf; [[release]]
    * restores that through the two visit lists alone, so a search costs
    * O(reached), not O(n). A search on a smaller graph never touches the
    * entries past its own vertices, so they stay Inf too.
    */
  final class Scratch private (val n: Int) {
    /** Δ(s,·) from s over G; Δ(·,t) from t over G^r. */
    val fwd = new Side(n)
    val bwd = new Side(n)

    /** Bounded distances for query (s, t) with the requested strategy (see
      * the class doc for the guarantee). Checks `deadline` once per level.
      */
    def search(g: LocalGraph, s: Int, t: Int, k: Int, mode: SearchMode, deadline: Long): Unit = {
      fwd.visit(s, 0); bwd.visit(t, 0)
      val bidirectional = mode != SearchMode.Single
      // Bi-directional phase 1: split the depth budget k−1 between the sides.
      // A corridor vertex y that neither side reaches would have
      // Δ(s,y)+Δ(y,t) ≥ (depthF+1)+(depthB+1) = k+1, so each lies in one
      // side's phase-1 ball.
      while (bidirectional && fwd.depth + bwd.depth < k - 1 && (fwd.head < fwd.tail || bwd.head < bwd.tail)) {
        val sizeF = fwd.tail - fwd.head; val sizeB = bwd.tail - bwd.head
        val forward =
          if (sizeF == 0) false
          else if (sizeB == 0) true
          else if (mode == SearchMode.Adaptive) sizeF <= sizeB
          else fwd.depth <= bwd.depth // strict alternation, forward first (⌈(k−1)/2⌉ / ⌊(k−1)/2⌋)
        if (forward) fwd.expand(g.outOff, g.outDst, k, null, deadline, levels = 1)
        else bwd.expand(g.inOff, g.inSrc, k, null, deadline, levels = 1)
      }
      // Each side continues to depth k; after phase 1, a vertex reached at
      // depth d+1 must lie within k−d−1 of the other end by the opposite
      // side's distances. Phase 1 ends at depth sum k−1 (or with both
      // frontiers empty), so that bound never exceeds the opposite side's
      // phase-1 depth: the test reads only phase-1 visits, which are exact,
      // and never the forward continuation's own deeper entries.
      fwd.expand(g.outOff, g.outDst, k, if (bidirectional) bwd.dist else null, deadline)
      bwd.expand(g.inOff, g.inSrc, k, if (bidirectional) fwd.dist else null, deadline)
    }

    /** Copies of both distance arrays' first `n` entries. */
    def dists(n: Int): Dists = Dists(java.util.Arrays.copyOf(fwd.dist, n), java.util.Arrays.copyOf(bwd.dist, n))

    /** Reset and keep as this thread's spare scratch; do not use it afterwards. */
    def release(): Unit = {
      fwd.reset(); bwd.reset()
      Scratch.spare.set(this)
    }
  }

  object Scratch {
    // Each thread's spare scratch, if any. A borrow takes it out, so a nested
    // borrow gets a fresh one; the release of the outermost borrow is the
    // last to put one back.
    private val spare = new ThreadLocal[Scratch]

    /** A clean scratch for graphs of `n` vertices: this thread's spare one if
      * it holds at least `n`, else a new one, which replaces it at release;
      * [[Scratch.release]] it in a `finally`.
      */
    def borrow(n: Int): Scratch = {
      val sc = spare.get
      if (sc != null && sc.n >= n) { spare.remove(); sc } else new Scratch(n)
    }

    /** Drop this thread's spare scratch. */
    private[core] def clear(): Unit = spare.remove()
  }

  /** Run `body` on a borrowed scratch for `n` vertices and release it. */
  def withScratch[A](n: Int)(body: Scratch => A): A = {
    val sc = Scratch.borrow(n)
    try body(sc) finally sc.release()
  }

  /** k-bounded BFS from all `roots` at once over an edge-id CSR: vertex x's
    * edges are `ids(off(x) until off(x+1))` and edge e leads to `end(e)`.
    * The distance to the nearest root, Inf beyond k. Level-synchronous, so
    * the vertices of the last level are never popped.
    */
  def nearest(off: Array[Int], ids: Array[Int], end: Array[Int], n: Int, roots: Array[Int],
              k: Int): Array[Int] = {
    val dist  = unreached(n)
    val queue = new Array[Int](n)
    var tail = 0
    var i = 0
    while (i < roots.length) {
      val r = roots(i)
      if (dist(r) != 0) { dist(r) = 0; queue(tail) = r; tail += 1 }
      i += 1
    }
    var head = 0; var d = 0
    while (d < k && head < tail) {
      val level = tail
      while (head < level) {
        val x = queue(head); head += 1
        var j = off(x); val stop = off(x + 1)
        while (j < stop) {
          val y = end(ids(j))
          if (dist(y) == Inf) { dist(y) = d + 1; queue(tail) = y; tail += 1 }
          j += 1
        }
      }
      d += 1
    }
    dist
  }

  /** Plain k-bounded BFS from `root` over a CSR: vertex x's neighbors are
    * `nbr(off(x) until off(x+1))`, so `g.outOff, g.outDst` searches G and
    * `g.inOff, g.inSrc` searches G^r. Checks `deadline` once per level.
    */
  def bounded(off: Array[Int], nbr: Array[Int], root: Int, k: Int, deadline: Long = Deadline.None): Array[Int] = {
    val n = off.length - 1
    withScratch(n) { sc =>
      sc.fwd.visit(root, 0)
      sc.fwd.expand(off, nbr, k, null, deadline)
      java.util.Arrays.copyOf(sc.fwd.dist, n)
    }
  }

  /** Compute Δ(s,·) and Δ(·,t) bounded by k with the requested strategy. */
  def distances(g: LocalGraph, s: Int, t: Int, k: Int, mode: SearchMode): Dists =
    withScratch(g.n) { sc => sc.search(g, s, t, k, mode, Deadline.None); sc.dists(g.n) }

  /** The G^k_st window: e(u,v) lies on some ≤k-hop s-t walk iff
    * Δ(s,u)+1+Δ(v,t) ≤ k. Written so that Inf operands cannot overflow.
    */
  @inline def inWindow(fromSu: Int, toTv: Int, k: Int): Boolean = toTv <= k - 1 - fromSu
}
