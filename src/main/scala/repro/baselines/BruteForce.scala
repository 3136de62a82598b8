package repro.baselines

import repro.core.{Deadline, LocalGraph}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Reference implementations by exhaustive DFS. These define ground truth
  * for every property test; they are also the "straightforward solution"
  * the paper's introduction describes (enumerate all k-hop-constrained s-t
  * simple paths, union their edges).
  */
object BruteForce {

  /** All simple paths s→t with ≤ k hops, each as a vertex sequence. */
  def allSimplePaths(g: LocalGraph, s: Int, t: Int, k: Int): Seq[Seq[Int]] = {
    val out     = new ArrayBuffer[Seq[Int]]()
    val onStack = new Array[Boolean](g.n)
    val stack   = new ArrayBuffer[Int]()
    def dfs(cur: Int): Unit = {
      if (cur == t) { out += stack.toSeq; return }
      if (stack.length - 1 >= k) return
      var j = g.outOff(cur)
      while (j < g.outOff(cur + 1)) {
        val nxt = g.outDst(j)
        if (!onStack(nxt)) {
          onStack(nxt) = true; stack += nxt
          dfs(nxt)
          onStack(nxt) = false; stack.remove(stack.length - 1)
        }
        j += 1
      }
    }
    onStack(s) = true; stack += s
    dfs(s)
    out.toSeq
  }

  /** Number of ≤k-hop s-t simple paths (no materialization). */
  def countSimplePaths(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Long = {
    var count   = 0L
    var steps   = 0
    val onStack = new Array[Boolean](g.n)
    def dfs(cur: Int, depth: Int): Unit = {
      steps += 1
      if ((steps & 0xfff) == 0) Deadline.check(deadline)
      if (cur == t) { count += 1; return }
      if (depth >= k) return
      var j = g.outOff(cur)
      while (j < g.outOff(cur + 1)) {
        val nxt = g.outDst(j)
        if (!onStack(nxt)) {
          onStack(nxt) = true
          dfs(nxt, depth + 1)
          onStack(nxt) = false
        }
        j += 1
      }
    }
    onStack(s) = true
    dfs(s, 0)
    count
  }

  /** Exact SPG_k(s,t) as an encoded-edge set, by unioning all path edges. */
  def spg(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Set[Long] = {
    val edges   = mutable.Set[Long]()
    var steps   = 0
    val onStack = new Array[Boolean](g.n)
    val stackE  = new ArrayBuffer[Long]()
    def dfs(cur: Int, depth: Int): Unit = {
      steps += 1
      if ((steps & 0xfff) == 0) Deadline.check(deadline)
      if (cur == t) { stackE.foreach(edges += _); return }
      if (depth >= k) return
      var j = g.outOff(cur)
      while (j < g.outOff(cur + 1)) {
        val nxt = g.outDst(j)
        if (!onStack(nxt)) {
          onStack(nxt) = true; stackE += LocalGraph.enc(cur, nxt)
          dfs(nxt, depth + 1)
          onStack(nxt) = false; stackE.remove(stackE.length - 1)
        }
        j += 1
      }
    }
    onStack(s) = true
    dfs(s, 0)
    edges.toSet
  }

  /** Essential vertices by definition (Eq. 1): intersect the vertex sets of
    * all ≤l-hop simple paths source→u that avoid `excluded`. Returns null
    * when no such path exists. O(exponential) — tests only.
    */
  def essentialVertices(g: LocalGraph, source: Int, u: Int, l: Int, excluded: Int): Option[Set[Int]] = {
    if (u == source) return Some(Set(source))
    var acc: Set[Int] = null
    val onStack = new Array[Boolean](g.n)
    val stack   = new ArrayBuffer[Int]()
    def dfs(cur: Int): Unit = {
      if (cur == u) {
        acc = if (acc == null) stack.toSet else acc.intersect(stack.toSet)
        return
      }
      if (stack.length - 1 >= l) return
      var j = g.outOff(cur)
      while (j < g.outOff(cur + 1)) {
        val nxt = g.outDst(j)
        if (!onStack(nxt) && nxt != excluded && nxt != source) {
          onStack(nxt) = true; stack += nxt
          dfs(nxt)
          onStack(nxt) = false; stack.remove(stack.length - 1)
        }
        j += 1
      }
    }
    onStack(source) = true; stack += source
    dfs(source)
    Option(acc)
  }
}
