package repro.baselines

import repro.core.{Bfs, Deadline, LocalGraph}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** BC-DFS [27,29]: hop-constrained s-t simple path enumeration with
  * barrier-based pruning.
  *
  * On top of the standard budget pruning (expand v only when the remaining
  * budget covers Δ(v,t)), a *barrier* bar(v) records the largest remaining
  * budget with which exploration from v provably fails irrespective of the
  * current stack; a visit with budget ≤ bar(v) is pruned. A barrier is only
  * recorded when the failed subtree never collided with a stack vertex
  * (otherwise the failure is stack-dependent), the soundness condition of
  * the original algorithm.
  */
object BcDfs {

  /** Enumerate all ≤k-hop s-t simple paths, invoking `onPath` with the
    * current vertex stack for each (the buffer is reused — copy if kept).
    * Returns the number of paths.
    */
  def enumerate(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None)(
      onPath: ArrayBuffer[Int] => Unit): Long = {
    g.requireQuery(s, t, k)
    val distB = Bfs.bounded(g.inOff, g.inSrc, t, k, deadline)
    if (distB(s) > k) return 0L
    var count   = 0L
    var steps   = 0
    val onStack = new Array[Boolean](g.n)
    val stack   = new ArrayBuffer[Int]()
    val barrier = Array.fill(g.n)(-1) // bar(v): fails for any budget <= bar(v)

    /** @return (foundAny, stackDependent) */
    def dfs(cur: Int, budget: Int): (Boolean, Boolean) = {
      steps += 1
      if ((steps & 0xfff) == 0) Deadline.check(deadline)
      if (cur == t) { count += 1; onPath(stack); return (true, false) }
      if (budget == 0) return (false, false)
      var found     = false
      var stackDep  = false
      var j = g.outOff(cur)
      while (j < g.outOff(cur + 1)) {
        val nxt = g.outDst(j)
        if (onStack(nxt)) {
          // A potential continuation was blocked by the stack: any failure
          // below cur may be stack-dependent.
          if (nxt != s) stackDep = true
        } else if (distB(nxt) <= budget - 1 && budget - 1 > barrier(nxt)) {
          onStack(nxt) = true; stack += nxt
          val (f, d) = dfs(nxt, budget - 1)
          onStack(nxt) = false; stack.remove(stack.length - 1)
          found ||= f
          stackDep ||= d
        }
        j += 1
      }
      if (!found && !stackDep && budget > barrier(cur)) barrier(cur) = budget
      (found, stackDep)
    }

    onStack(s) = true; stack += s
    dfs(s, k)
    count
  }

  def count(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Long =
    enumerate(g, s, t, k, deadline)(_ => ())

  /** SPG via enumeration: union the edges of every output path. */
  def spg(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long = Deadline.None): Set[Long] = {
    val edges = mutable.Set[Long]()
    enumerate(g, s, t, k, deadline) { stack =>
      var i = 1
      while (i < stack.length) { edges += LocalGraph.enc(stack(i - 1), stack(i)); i += 1 }
    }
    edges.toSet
  }
}
