package repro.core

/** Immutable directed graph in compressed sparse row (CSR) form.
  *
  * Vertices are `0 until n`. Both directions are materialized because every
  * algorithm in the paper traverses forward from `s` and backward from `t`:
  * the out-neighbors of `v` are `outDst(outOff(v) until outOff(v + 1))` and
  * its in-neighbors `inSrc(inOff(v) until inOff(v + 1))`, each list
  * ascending. Four flat arrays hold the whole graph, 4·(2(n+1) + 2m) bytes
  * whatever the degrees. The class is `Serializable` so a graph can be
  * broadcast to Spark executors (see [[repro.distributed.QueryRunner]]).
  *
  * @param n      number of vertices
  * @param outOff out-list offsets, length n+1, outOff(n) = m
  * @param outDst out-neighbors, grouped by source
  * @param inOff  in-list offsets, length n+1, inOff(n) = m
  * @param inSrc  in-neighbors, grouped by destination
  */
final class LocalGraph(
    val n: Int,
    val outOff: Array[Int],
    val outDst: Array[Int],
    val inOff: Array[Int],
    val inSrc: Array[Int],
) extends Serializable {
  require(outOff.length == n + 1 && inOff.length == n + 1 && outDst.length == inSrc.length,
    "CSR arrays do not describe one graph")

  /** Number of directed edges. */
  def m: Long = outDst.length.toLong

  /** Average degree |E|/|V|. */
  def avgDeg: Double = if (n == 0) 0.0 else m.toDouble / n

  /** Maximum of in- and out-degree over all vertices (paper's d_max). */
  def maxDeg: Int = {
    var d = 0; var i = 0
    while (i < n) { d = math.max(d, math.max(outDeg(i), inDeg(i))); i += 1 }
    d
  }

  def outDeg(v: Int): Int = outOff(v + 1) - outOff(v)
  def inDeg(v: Int): Int  = inOff(v + 1) - inOff(v)

  /** A copy of v's out-neighbors, ascending. Loops read the CSR instead. */
  def outAdj(v: Int): Array[Int] = java.util.Arrays.copyOfRange(outDst, outOff(v), outOff(v + 1))

  /** A copy of v's in-neighbors, ascending. Loops read the CSR instead. */
  def inAdj(v: Int): Array[Int] = java.util.Arrays.copyOfRange(inSrc, inOff(v), inOff(v + 1))

  /** The reversed graph G^r (shares the CSR arrays). */
  def reverse: LocalGraph = new LocalGraph(n, inOff, inSrc, outOff, outDst)

  /** Iterate all edges as (src, dst), in source order. */
  def edges: Iterator[(Int, Int)] =
    Iterator.range(0, n).flatMap(u => Iterator.range(outOff(u), outOff(u + 1)).map(j => (u, outDst(j))))

  /** All edges encoded via [[LocalGraph.enc]], ascending. */
  def encodedEdges: Array[Long] = {
    val out = new Array[Long](outDst.length)
    var u = 0
    while (u < n) {
      var j = outOff(u)
      while (j < outOff(u + 1)) { out(j) = LocalGraph.enc(u, outDst(j)); j += 1 }
      u += 1
    }
    out
  }

  /** Rejects a query <s,t,k> whose endpoints lie outside [0, n) or whose
    * hop constraint is below 1.
    */
  def requireQuery(s: Int, t: Int, k: Int): Unit = {
    require(s >= 0 && s < n && t >= 0 && t < n, s"query endpoints ($s,$t) out of range [0,$n)")
    require(k >= 1, "hop constraint must be >= 1")
  }

  /** True iff edge (u,v) exists (binary search on the sorted out-list). */
  def hasEdge(u: Int, v: Int): Boolean =
    u >= 0 && u < n && java.util.Arrays.binarySearch(outDst, outOff(u), outOff(u + 1), v) >= 0
}

object LocalGraph {

  /** Pack an edge into a Long key: high 32 bits = src, low 32 = dst. */
  @inline def enc(u: Int, v: Int): Long = (u.toLong << 32) | (v.toLong & 0xffffffffL)
  @inline def src(e: Long): Int         = (e >>> 32).toInt
  @inline def dst(e: Long): Int         = (e & 0xffffffffL).toInt

  /** Build a graph from an edge list, deduplicating parallel edges and
    * dropping self-loops (neither can occur on any simple path from s to t
    * beyond the trivial, matching the paper's simple-digraph setting).
    * The edges are packed into an unboxed `Array[Long]` on the way.
    */
  def fromEdges(n: Int, edgeList: IterableOnce[(Int, Int)]): LocalGraph = {
    var buf = new Array[Long](math.max(16, edgeList.knownSize))
    var len = 0
    val it  = edgeList.iterator
    while (it.hasNext) {
      val e = it.next(); val u = e._1; val v = e._2
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      if (u != v) {
        if (len == buf.length) buf = java.util.Arrays.copyOf(buf, 2 * len)
        buf(len) = enc(u, v); len += 1
      }
    }
    build(n, buf, len)
  }

  /** Build from encoded edges (the array is sorted and deduped in place). */
  def fromEncodedEdges(n: Int, encoded: Array[Long]): LocalGraph = build(n, encoded, encoded.length)

  /** Sort-based construction from `encoded(0 until len)`: O(|E| log |E| +
    * |V|) and four allocations, whatever the degrees.
    */
  private def build(n: Int, encoded: Array[Long], len: Int): LocalGraph = {
    java.util.Arrays.sort(encoded, 0, len)
    var m = 0; var i = 0
    while (i < len) {
      if (m == 0 || encoded(i) != encoded(m - 1)) { encoded(m) = encoded(i); m += 1 }
      i += 1
    }
    val outOff = new Array[Int](n + 1); val outDst = new Array[Int](m)
    i = 0
    while (i < m) { outDst(i) = dst(encoded(i)); outOff(src(encoded(i)) + 1) += 1; i += 1 }
    prefixSums(outOff)
    fromOutCsr(n, outOff, outDst)
  }

  /** The graph whose out-CSR is `outOff`/`outDst`. Its in-CSR is the
    * transpose, a stable counting sort of the edges by destination, so each
    * in-list ascends.
    */
  private[core] def fromOutCsr(n: Int, outOff: Array[Int], outDst: Array[Int]): LocalGraph = {
    val inOff = new Array[Int](n + 1); val inSrc = new Array[Int](outDst.length)
    var j = 0
    while (j < outDst.length) { inOff(outDst(j) + 1) += 1; j += 1 }
    prefixSums(inOff)
    var u = 0
    while (u < n) {
      j = outOff(u)
      while (j < outOff(u + 1)) { val v = outDst(j); inSrc(inOff(v)) = u; inOff(v) += 1; j += 1 }
      u += 1
    }
    // Each cursor now sits where the next list starts: shift them back.
    var v = n
    while (v > 0) { inOff(v) = inOff(v - 1); v -= 1 }
    inOff(0) = 0
    new LocalGraph(n, outOff, outDst, inOff, inSrc)
  }

  /** Degree counts in `off(1..n)` become CSR offsets. */
  private[core] def prefixSums(off: Array[Int]): Unit = {
    var v = 1
    while (v < off.length) { off(v) += off(v - 1); v += 1 }
  }

  /** Insertion sort of `a(from until until)` by a Long key: adjacency lists
    * sorted per query are short, and this avoids boxing.
    */
  def sortBy(a: Array[Int], from: Int, until: Int, key: Int => Long): Unit = {
    var i = from + 1
    while (i < until) {
      val x = a(i); val kx = key(x)
      var j = i - 1
      while (j >= from && key(a(j)) > kx) { a(j + 1) = a(j); j -= 1 }
      a(j + 1) = x
      i += 1
    }
  }
}

/** Helpers over sorted Int arrays used as tiny vertex sets.
  *
  * Essential-vertex sets hold at most k+1 vertices (k ≤ 8 in all
  * experiments), so sorted arrays beat hash sets on both time and space.
  * `null` consistently means "set does not exist" (no path), never "empty".
  */
object VSet {

  /** a ∪ {x} preserving sort order; returns `a` itself if x ∈ a. */
  def add(a: Array[Int], x: Int): Array[Int] = {
    val pos = java.util.Arrays.binarySearch(a, x)
    if (pos >= 0) a
    else {
      val ins = -pos - 1
      val out = new Array[Int](a.length + 1)
      System.arraycopy(a, 0, out, 0, ins)
      out(ins) = x
      System.arraycopy(a, ins, out, ins + 1, a.length - ins)
      out
    }
  }

  /** a ∩ (b ∪ {y}) preserving sort order; returns `a` itself when nothing
    * is dropped. Counts first, so it allocates only when the set shrinks.
    */
  def keepIn(a: Array[Int], b: Array[Int], y: Int): Array[Int] = {
    val kept = keptInto(a, b, y, null)
    if (kept == a.length) a
    else { val out = new Array[Int](kept); keptInto(a, b, y, out); out }
  }

  /** Count the elements of a ∩ (b ∪ {y}), writing them to `out` unless null. */
  private def keptInto(a: Array[Int], b: Array[Int], y: Int, out: Array[Int]): Int = {
    var i = 0; var j = 0; var c = 0
    while (i < a.length) {
      val x = a(i)
      while (j < b.length && b(j) < x) j += 1
      if (x == y || (j < b.length && b(j) == x)) { if (out != null) out(c) = x; c += 1 }
      i += 1
    }
    c
  }

  def contains(a: Array[Int], x: Int): Boolean =
    java.util.Arrays.binarySearch(a, x) >= 0

  /** True iff the two sorted arrays share no element. */
  def disjoint(a: Array[Int], b: Array[Int]): Boolean = {
    var i = 0; var j = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else return false
    }
    true
  }
}
