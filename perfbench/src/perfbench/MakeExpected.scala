package perfbench

import java.nio.file.Paths
import java.util.concurrent.{Callable, Executors}

import repro.baselines.JoinEnum
import repro.core.Eve
import repro.data.GraphGen

/** Writes the committed answer pools of the [[Workload]]s.
  *
  * The pool is `GraphGen.queries(g, k, poolSize, poolSeed)` on the
  * workload's registry graph. Each answer is EVE's SPG_k(s,t), kept only if
  * it equals the edge set of all ≤k-hop s-t simple paths enumerated by the
  * independent JOIN baseline; any disagreement aborts without writing.
  *
  * Usage: perfbench.MakeExpected <checkout root> [<workload> ...]
  */
object MakeExpected {

  def main(args: Array[String]): Unit = {
    val root  = Paths.get(args(0))
    val names = args.drop(1).toSet
    val todo = Workloads.all.filter(w => names.isEmpty || names(w.name))
    val threads = math.min(4, Runtime.getRuntime.availableProcessors())
    val pool    = Executors.newFixedThreadPool(threads)
    try todo.foreach { w =>
      val t0 = System.nanoTime()
      val g  = GraphGen.dataset(w.dataset).build()
      val qs = GraphGen.queries(g, w.k, w.poolSize, w.poolSeed)
      val futures = qs.map { case (s, t) =>
        pool.submit(new Callable[Expected] {
          def call(): Expected = {
            val eve  = Eve.spg(g, s, t, w.k)
            val join = JoinEnum.spg(g, s, t, w.k).toArray.sorted
            if (!java.util.Arrays.equals(eve, join))
              throw new IllegalStateException(
                s"${w.name}: EVE and JOIN disagree on ($s,$t): ${eve.length} vs ${join.length} edges")
            if (eve.isEmpty)
              throw new IllegalStateException(s"${w.name}: empty SPG for k-reachable ($s,$t)")
            Expected(s, t, eve.length, Digest.edges(eve))
          }
        })
      }
      val rows = futures.map(_.get())
      Pool.write(root, w, g, rows)
      println(f"${w.name}: ${rows.length} queries cross-checked against JOIN in ${(System.nanoTime() - t0) / 1e9}%.1f s")
    } finally pool.shutdownNow()
  }
}
