package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{Khsq, PathEnum}
import repro.core.{Deadline, DeadlineExceeded, Eve, LocalGraph}
import repro.data.GraphGen

/** Table 4 — speedups for hop-constrained s-t simple path *enumeration*:
  * time of plain PathEnum over G divided by the time of (search-space
  * reduction + PathEnum over the reduced space), for three reducers:
  * KHSQ (single-BFS G^k_st), KHSQ+ (adaptive bi-directional G^k_st), and
  * EVE's SPG_k. The paper's claim to check: EVE > KHSQ+ > KHSQ, with KHSQ
  * often < 1 (not worth it).
  *
  * An extra row, "EVE-enum", divides only the enumeration times (reduction
  * excluded): at mini scale the per-query reduction is not amortized by the
  * (small) path counts our synthetic graphs admit, so the total-time row
  * understates the search-space benefit the paper measures at 10^6-10^9
  * edges; the enum-only row isolates it (see EXPERIMENTS.md).
  */
object Table4Speedups {

  def datasetNames: Seq[String] =
    if (BenchUtil.full)
      Seq("ps", "sf", "bk", "tw", "bs", "wt", "lj", "dl", "fr", "hg")
    else Seq("ps", "sf", "bk", "tw", "bs", "lj")

  def ks: Seq[Int] = Seq(3, 4, 5, 6)

  /** Reducer id passed to executors (an Int, not a closure, for clean
    * serialization): 0 = KHSQ, 1 = KHSQ+, 2/3 = EVE (total / enum-only).
    */
  private def reduce(id: Int, g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long): LocalGraph =
    id match {
      case 0 => Khsq.subgraph(g, s, t, k, plus = false)
      case 1 => Khsq.subgraph(g, s, t, k, plus = true)
      case _ =>
        val edges = Eve.spg(g, s, t, k, deadline = deadline)
        LocalGraph.fromEncodedEdges(g.n, edges.clone())
    }

  private val rowNames = Seq("KHSQ", "KHSQ+", "EVE", "EVE-enum")

  def run(spark: SparkSession): String = {
    val nQ      = BenchUtil.queriesPerPoint
    val timeout = BenchUtil.timeoutMs
    val sc      = spark.sparkContext

    // cells(reducerRow)(dataset)(k)
    val cells = for (name <- datasetNames) yield {
      val spec = GraphGen.dataset(name)
      val g    = spec.build()
      val bcG  = sc.broadcast(g)
      val perK = for (k <- ks) yield {
        val queries = GraphGen.queries(g, k, nQ, seed = 4000L + k)
        // one pass per reducer id 0..2; id 2 also yields the enum-only ratio
        val perRow = (0 to 2).map { redId =>
          val outcomes = sc
            .parallelize(queries, math.min(queries.size, sc.defaultParallelism))
            .map { case (s, t) =>
              val graph = bcG.value
              try {
                val t0   = System.nanoTime()
                val base = PathEnum.count(graph, s, t, k, Deadline.in(timeout))
                val t1   = System.nanoTime()
                val sub  = reduce(redId, graph, s, t, k, Deadline.in(timeout))
                val t2   = System.nanoTime()
                val cnt  = PathEnum.count(sub, s, t, k, Deadline.in(timeout))
                val t3   = System.nanoTime()
                require(cnt == base, s"enumeration count mismatch on reduced space: $cnt vs $base")
                Some((
                  (t1 - t0).toDouble, // baseline enumeration
                  (t2 - t1).toDouble, // reduction
                  (t3 - t2).toDouble, // enumeration on reduced space
                ))
              } catch { case _: DeadlineExceeded => None }
            }
            .collect()
          val ok = outcomes.flatten
          if (ok.isEmpty) ("-", "-")
          else {
            val base  = ok.map(_._1).sum
            val total = BenchUtil.fmtRatio(base / (ok.map(_._2).sum + ok.map(_._3).sum))
            val enum_ = BenchUtil.fmtRatio(base / ok.map(_._3).sum)
            (total, enum_)
          }
        }
        Seq(perRow(0)._1, perRow(1)._1, perRow(2)._1, perRow(2)._2)
      }
      bcG.destroy()
      perK // Seq over k of Seq over rows
    }

    val header = Seq("method", "k") ++ datasetNames
    val body = for {
      (rowName, ri) <- rowNames.zipWithIndex
      (k, ki)       <- ks.zipWithIndex
    } yield Seq(rowName, k.toString) ++ cells.map(_(ki)(ri))

    s"## Table 4 — speedups of PathEnum enumeration with reduced search space ($nQ queries)\n\n" +
      BenchUtil.markdown(header, body)
  }
}
