package repro.distributed

import org.apache.spark.sql.SparkSession
import repro.baselines.{BcDfs, JoinEnum, PathEnum}
import repro.core._

import scala.util.control.NonFatal

/** SPG-generation algorithms runnable per query on an executor. A sealed
  * enum rather than closures keeps Spark serialization trivial and names the
  * algorithm in reports.
  */
sealed trait SpgAlgo extends Serializable {
  def name: String
  /** Compute SPG_k(s,t) and return its edge count. Throws
    * [[DeadlineExceeded]] past the deadline.
    */
  def spgSize(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long): Int
}

object SpgAlgo {
  final case class EveAlgo(config: EveConfig = EveConfig.Default) extends SpgAlgo {
    val name = "EVE"
    def spgSize(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long): Int =
      Eve.spg(g, s, t, k, config, deadline).length
  }
  case object JoinAlgo extends SpgAlgo {
    val name = "JOIN"
    def spgSize(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long): Int =
      JoinEnum.spg(g, s, t, k, deadline).size
  }
  case object PathEnumAlgo extends SpgAlgo {
    val name = "PathEnum"
    def spgSize(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long): Int =
      PathEnum.spg(g, s, t, k, deadline).size
  }
  case object BcDfsAlgo extends SpgAlgo {
    val name = "BC-DFS"
    def spgSize(g: LocalGraph, s: Int, t: Int, k: Int, deadline: Long): Int =
      BcDfs.spg(g, s, t, k, deadline).size
  }
}

/** Outcome of one query: wall time on the executor, result size, whether the
  * per-query deadline fired (reported as INF, the paper's convention), and
  * the exception that failed the query, if any (`edges` is then -1).
  */
final case class QueryOutcome(s: Int, t: Int, timeNs: Long, edges: Int, timedOut: Boolean,
                              error: Option[String] = None)
    extends Serializable

final case class BatchResult(algo: String, outcomes: Seq[QueryOutcome]) {
  def totalNs: Long   = outcomes.map(_.timeNs).sum
  def totalMs: Double = totalNs / 1e6
  def timeouts: Int   = outcomes.count(_.timedOut)
  def anyTimeout: Boolean = timeouts > 0
}

/** Runs a query batch in parallel on Spark: the graph is broadcast once and
  * the queries form an RDD, the natural dataflow for "answer 1000 random
  * queries" workloads (§6.1). Per-query times are measured on the executor
  * and summed, so the figure is comparable to the paper's sequential totals
  * regardless of parallelism.
  */
object QueryRunner {

  def run(
      spark: SparkSession,
      g: LocalGraph,
      queries: Seq[(Int, Int)],
      k: Int,
      algo: SpgAlgo,
      timeoutMs: Long,
      warmup: Boolean = true,
  ): BatchResult = {
    // Spark rejects an RDD of zero partitions.
    if (queries.isEmpty) return BatchResult(algo.name, Seq.empty)
    val sc  = spark.sparkContext
    val bcG = sc.broadcast(g)
    // Warmup fans out wide; the measured pass caps concurrency at 4 tasks so
    // per-query wall times are not inflated by allocation-bandwidth
    // contention between sibling tasks (times are summed, so the cap does
    // not change the reported metric, only its noise).
    def pass(measure: Boolean): Seq[QueryOutcome] = sc
      .parallelize(queries,
        math.min(queries.size, if (measure) 4 else sc.defaultParallelism))
      .map { case (s, t) =>
        val graph = bcG.value
        val start = System.nanoTime()
        try {
          val size = algo.spgSize(graph, s, t, k, Deadline.in(timeoutMs))
          QueryOutcome(s, t, System.nanoTime() - start, size, timedOut = false)
        } catch {
          case _: DeadlineExceeded =>
            QueryOutcome(s, t, System.nanoTime() - start, -1, timedOut = true)
          case NonFatal(e) => // one bad query must not fail the batch
            QueryOutcome(s, t, System.nanoTime() - start, -1, timedOut = false, error = Some(e.toString))
        }
      }
      .collect()
      .toSeq
    // Per-query times at mini scale are milliseconds; an unmeasured pass
    // first absorbs JIT compilation and broadcast materialization so the
    // measured pass reflects steady state.
    if (warmup) pass(measure = false)
    val outcomes = pass(measure = true)
    bcG.destroy()
    BatchResult(algo.name, outcomes)
  }
}
