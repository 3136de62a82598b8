package repro.bench

import org.apache.spark.sql.SparkSession
import repro.data.GraphGen
import repro.distributed.{QueryRunner, SpgAlgo}

/** Figure 8 (headline comparison, rendered as a table) — total time to
  * generate SPG_k(s,t) over a query batch: EVE vs the enumeration baselines
  * JOIN and PathEnum. The paper's claim to check: EVE wins everywhere, by
  * larger factors on dense graphs and larger k; baselines hit the timeout
  * (INF) where path counts explode.
  */
object Fig8Performance {

  /** Representative subset spanning the density spectrum (full 15 via
    * REPRO_FULL=1), to keep default wall time in minutes.
    */
  def datasetNames: Seq[String] =
    if (BenchUtil.full) GraphGen.datasets.map(_.name)
    else Seq("ps", "ye", "wn", "uk", "sf", "bk", "tw", "bs", "gg", "lj")

  def ks: Seq[Int] = Seq(4, 6)

  def run(spark: SparkSession): String = {
    val nQ      = BenchUtil.queriesPerPoint
    val timeout = BenchUtil.timeoutMs
    val algos: Seq[SpgAlgo] =
      Seq(SpgAlgo.EveAlgo(), SpgAlgo.JoinAlgo, SpgAlgo.PathEnumAlgo)

    val rows = for {
      name <- datasetNames
      spec = GraphGen.dataset(name)
      g    = spec.build()
      k    <- ks
    } yield {
      val queries = GraphGen.queries(g, k, nQ, seed = 1000L + k)
      // Larger budget at k >= 6 so the interesting censoring is "baselines
      // INF while EVE finishes", not "everyone INF".
      val kTimeout = if (k >= 6) math.max(timeout, 5000L) else timeout
      val results = algos.map(a => QueryRunner.run(spark, g, queries, k, a, kTimeout))
      val eve     = results.head
      val cells = results.map { r =>
        if (r.anyTimeout) s"INF(${r.timeouts}/$nQ to)" else BenchUtil.fmtMs(r.totalMs)
      }
      val speedups = results.tail.map { r =>
        if (r.anyTimeout || eve.totalNs == 0) "-"
        else BenchUtil.fmtRatio(r.totalNs.toDouble / eve.totalNs) + "x"
      }
      Seq(name, k.toString) ++ cells ++ speedups
    }

    s"## Figure 8 (as table) — total SPG-generation time over $nQ queries, timeout ${timeout}ms/query\n\n" +
      BenchUtil.markdown(
        Seq("graph", "k", "EVE", "JOIN", "PathEnum", "JOIN/EVE", "PathEnum/EVE"),
        rows,
      )
  }
}
