package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{JoinEnum, Khsq, PathEnum}
import repro.core.{Deadline, DeadlineExceeded}
import repro.data.GraphGen

/** Table 5 — generating SPG_k(s,t) on G^k_st (k = 6): speedup of
  * [KHSQ+ to build G^k_st, then enumeration-based SPG on it] over the naive
  * [enumeration-based SPG on G], for both PathEnum and JOIN. The paper's
  * claim to check: modest speedups (≈1–16x for PathEnum), still far slower
  * than EVE itself (that comparison is Fig. 8 / Fig. 12(b)).
  */
object Table5SpgOnGst {

  def datasetNames: Seq[String] =
    if (BenchUtil.full)
      Seq("wn", "uk", "sf", "bk", "tw", "bs", "gg", "wt", "lj", "dl", "fr")
    else Seq("wn", "uk", "sf", "bk", "tw", "bs", "gg", "lj")

  val k: Int = 6

  def run(spark: SparkSession): String = {
    val nQ      = BenchUtil.queriesPerPoint
    val timeout = BenchUtil.timeoutMs
    val sc      = spark.sparkContext

    val perAlgo = Seq("JOIN", "PathEnum").map { algoName =>
      val cells = datasetNames.map { name =>
        val spec = GraphGen.dataset(name)
        val g    = spec.build()
        val bcG  = sc.broadcast(g)
        val queries = GraphGen.queries(g, k, nQ, seed = 5000L)
        val outcomes = sc
          .parallelize(queries, math.min(queries.size, sc.defaultParallelism))
          .map { case (s, t) =>
            val graph = bcG.value
            try {
              val t0 = System.nanoTime()
              val base =
                if (algoName == "JOIN") JoinEnum.spg(graph, s, t, k, Deadline.in(timeout))
                else PathEnum.spg(graph, s, t, k, Deadline.in(timeout))
              val t1  = System.nanoTime()
              val gst = Khsq.subgraph(graph, s, t, k, plus = true)
              val red =
                if (algoName == "JOIN") JoinEnum.spg(gst, s, t, k, Deadline.in(timeout))
                else PathEnum.spg(gst, s, t, k, Deadline.in(timeout))
              val t2 = System.nanoTime()
              require(red == base, s"SPG mismatch on G_st for ($s,$t)")
              Some(((t1 - t0).toDouble, (t2 - t1).toDouble))
            } catch { case _: DeadlineExceeded => None }
          }
          .collect()
        val ok = outcomes.flatten
        if (ok.isEmpty) "-" else BenchUtil.fmtRatio(ok.map(_._1).sum / ok.map(_._2).sum)
      }
      Seq(algoName) ++ cells
    }

    s"## Table 5 — speedups for generating SPG on G^k_st via KHSQ+ (k=$k, $nQ queries)\n\n" +
      BenchUtil.markdown(Seq("method") ++ datasetNames, perAlgo)
  }
}
