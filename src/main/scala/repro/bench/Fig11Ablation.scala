package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.{Bfs, EveConfig}
import repro.data.GraphGen
import repro.distributed.{QueryRunner, SpgAlgo}

/** Figure 11 (as table) — effectiveness of EVE's pruning strategies at k=7.
  * Variants, cumulative left to right:
  *   Naive       — no forward-looking pruning, single-direction BFS, no ordering
  *   +FLP        — forward-looking pruning on (single BFS)
  *   +BiDir      — bi-directional BFS
  *   +Adaptive   — adaptive bi-directional BFS
  *   +Ordering   — search ordering strategies (= full EVE)
  * The paper's claim to check: FLP buys up to an order of magnitude,
  * adaptive ≥ bi-dir ≥ single, ordering helps except on very dense graphs.
  */
object Fig11Ablation {

  val k: Int = 7

  /** Mix of dense (ps, ye) and sparse (tw, wt, dl) graphs: forward-looking
    * pruning can only bite where the k-hop ball from s is much larger than
    * the s-t corridor, which at mini scale happens on the sparse graphs.
    */
  def datasetNames: Seq[String] =
    if (BenchUtil.full) GraphGen.datasets.map(_.name)
    else Seq("ps", "ye", "gg", "tw", "wt", "lj", "dl")

  val variants: Seq[(String, EveConfig)] = Seq(
    "Naive"     -> EveConfig(pruning = false, search = Bfs.SearchMode.Single, ordering = false),
    "+FLP"      -> EveConfig(pruning = true, search = Bfs.SearchMode.Single, ordering = false),
    "+BiDir"    -> EveConfig(pruning = true, search = Bfs.SearchMode.BiDir, ordering = false),
    "+Adaptive" -> EveConfig(pruning = true, search = Bfs.SearchMode.Adaptive, ordering = false),
    "+Ordering" -> EveConfig(pruning = true, search = Bfs.SearchMode.Adaptive, ordering = true),
  )

  /** Timed passes per cell; a cell reports their median. */
  val passes: Int = 3

  def run(spark: SparkSession): String = {
    val nQ      = BenchUtil.queriesPerPoint
    val timeout = math.max(BenchUtil.timeoutMs, 5000L)

    val rows = datasetNames.map { name =>
      val spec    = GraphGen.dataset(name)
      val g       = spec.build()
      val queries = GraphGen.queries(g, k, nQ, seed = 6000L)
      def pass(cfg: EveConfig) = QueryRunner.run(spark, g, queries, k, SpgAlgo.EveAlgo(cfg), timeout)
      // One unmeasured pass of every variant first, so that no cell pays for
      // compiling code that the variants share.
      variants.foreach { case (_, cfg) => pass(cfg) }
      val cells = variants.map { case (_, cfg) =>
        val rs       = Seq.fill(passes)(pass(cfg))
        val timeouts = rs.map(_.timeouts).max
        if (timeouts > 0) s"INF($timeouts/$nQ to)" else BenchUtil.fmtMs(rs.map(_.totalMs).sorted.apply(passes / 2))
      }
      Seq(name) ++ cells
    }

    s"## Figure 11 (as table) — EVE pruning ablation, k=$k, $nQ queries, median of $passes warm passes\n\n" +
      BenchUtil.markdown(Seq("graph") ++ variants.map(_._1), rows)
  }
}
