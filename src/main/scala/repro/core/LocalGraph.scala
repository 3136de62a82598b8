package repro.core

import scala.collection.mutable

/** Immutable adjacency-array (CSR-style) directed graph.
  *
  * Vertices are `0 until n`. Both directions are materialized because every
  * algorithm in the paper traverses forward from `s` and backward from `t`.
  * The class is `Serializable` so a graph can be broadcast to Spark executors
  * (see [[repro.distributed.QueryRunner]]).
  *
  * @param n      number of vertices
  * @param outAdj out-neighbors per vertex, each array sorted ascending
  * @param inAdj  in-neighbors per vertex, each array sorted ascending
  */
final class LocalGraph(
    val n: Int,
    val outAdj: Array[Array[Int]],
    val inAdj: Array[Array[Int]],
) extends Serializable {

  /** Number of directed edges. */
  val m: Long = {
    var s = 0L; var i = 0
    while (i < n) { s += outAdj(i).length; i += 1 }
    s
  }

  /** Average degree |E|/|V|. */
  def avgDeg: Double = if (n == 0) 0.0 else m.toDouble / n

  /** Maximum of in- and out-degree over all vertices (paper's d_max). */
  def maxDeg: Int = {
    var d = 0; var i = 0
    while (i < n) {
      if (outAdj(i).length > d) d = outAdj(i).length
      if (inAdj(i).length > d) d = inAdj(i).length
      i += 1
    }
    d
  }

  def outDeg(v: Int): Int = outAdj(v).length
  def inDeg(v: Int): Int  = inAdj(v).length

  /** The reversed graph G^r (shares the adjacency arrays). */
  def reverse: LocalGraph = new LocalGraph(n, inAdj, outAdj)

  /** Iterate all edges as (src, dst). */
  def edges: Iterator[(Int, Int)] =
    Iterator.range(0, n).flatMap(u => outAdj(u).iterator.map(v => (u, v)))

  /** All edges encoded via [[LocalGraph.enc]]. */
  def encodedEdges: Array[Long] = {
    val out = new Array[Long](Math.toIntExact(m))
    var i = 0; var u = 0
    while (u < n) {
      val a = outAdj(u); var j = 0
      while (j < a.length) { out(i) = LocalGraph.enc(u, a(j)); i += 1; j += 1 }
      u += 1
    }
    out
  }

  /** True iff edge (u,v) exists (binary search on sorted adjacency). */
  def hasEdge(u: Int, v: Int): Boolean =
    u >= 0 && u < n && java.util.Arrays.binarySearch(outAdj(u), v) >= 0
}

object LocalGraph {

  /** Pack an edge into a Long key: high 32 bits = src, low 32 = dst. */
  @inline def enc(u: Int, v: Int): Long = (u.toLong << 32) | (v.toLong & 0xffffffffL)
  @inline def src(e: Long): Int         = (e >>> 32).toInt
  @inline def dst(e: Long): Int         = (e & 0xffffffffL).toInt

  /** Build a graph from an edge list, deduplicating parallel edges and
    * dropping self-loops (neither can occur on any simple path from s to t
    * beyond the trivial, matching the paper's simple-digraph setting).
    *
    * Sort-based construction: O(|E| log |E| + |V|) with no per-vertex
    * allocations — this runs once per query in several benchmarks, so the
    * constant matters.
    */
  def fromEdges(n: Int, edgeList: IterableOnce[(Int, Int)]): LocalGraph = {
    val buf = new mutable.ArrayBuffer[Long]()
    edgeList.iterator.foreach { case (u, v) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      if (u != v) buf += enc(u, v)
    }
    fromEncodedEdges(n, buf.toArray)
  }

  /** Build from encoded edges (the array is sorted and deduped in place). */
  def fromEncodedEdges(n: Int, encoded: Array[Long]): LocalGraph = {
    java.util.Arrays.sort(encoded)
    val deduped = dedupSorted(encoded)
    val rev     = deduped.map(e => enc(dst(e), src(e)))
    java.util.Arrays.sort(rev)
    new LocalGraph(n, grouped(n, deduped), grouped(n, rev))
  }

  private def dedupSorted(a: Array[Long]): Array[Long] = {
    if (a.length <= 1) return a
    var w = 1; var i = 1
    while (i < a.length) {
      if (a(i) != a(w - 1)) { a(w) = a(i); w += 1 }
      i += 1
    }
    if (w == a.length) a else java.util.Arrays.copyOf(a, w)
  }

  /** Group a sorted, deduped encoded-edge array into per-src adjacency;
    * untouched vertices share one empty array.
    */
  private def grouped(n: Int, sorted: Array[Long]): Array[Array[Int]] = {
    val out = new Array[Array[Int]](n)
    var i = 0
    while (i < sorted.length) {
      val u = src(sorted(i))
      var j = i
      while (j < sorted.length && src(sorted(j)) == u) j += 1
      val a = new Array[Int](j - i)
      var p = 0
      while (i < j) { a(p) = dst(sorted(i)); p += 1; i += 1 }
      out(u) = a
    }
    var v = 0
    while (v < n) { if (out(v) == null) out(v) = Array.emptyIntArray; v += 1 }
    out
  }

  /** Insertion sort of an adjacency array by a Long key: adjacency lists
    * sorted per query are short, and this avoids boxing.
    */
  def sortBy(a: Array[Int], key: Int => Long): Unit = {
    var i = 1
    while (i < a.length) {
      val x = a(i); val kx = key(x)
      var j = i - 1
      while (j >= 0 && key(a(j)) > kx) { a(j + 1) = a(j); j -= 1 }
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

  /** Sorted intersection of two sorted arrays. */
  def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    var i = 0; var j = 0; var c = 0
    val tmp = new Array[Int](math.min(a.length, b.length))
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { tmp(c) = a(i); c += 1; i += 1; j += 1 }
    }
    if (c == tmp.length) tmp else java.util.Arrays.copyOf(tmp, c)
  }

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
