package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.LocalGraph
import repro.distributed.DistEve

import scala.util.control.NonFatal

/** `DistEve.spg` on the workload's own graph and pool queries, one query at a
  * time, with Spark work counted by a listener. It is part of the traced run:
  * a DistEve query takes seconds and its time depends on the host's
  * scheduling of about a hundred Spark stages, too few samples per run for a
  * bounded end-to-end metric.
  */
object DistEveProbe {

  /** Unmeasured queries first: DistEve's per-query time keeps falling over
    * its first few queries in a JVM.
    */
  val WarmupQueries = 2
  /** Measured queries per run, at least. */
  val MinQueries = 3
  /** Per-query deadline, far above the slowest query seen on the seed code. */
  val DeadlineMs = 60000L

  /** Run DistEve queries drawn from `pool` with `draw` for `seconds` (at
    * least [[MinQueries]]) and return the `disteve.*` metrics. The wall time
    * of `spg(...).count()` is measured; the edge set is checked against the
    * pool outside it.
    */
  def run(spark: SparkSession, g: LocalGraph, w: Workload, pool: Pool, draw: Draw, seconds: Double,
          tally: Tally): Seq[Metric] = {
    import spark.implicits._
    val edges = g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSeq.toDF("src", "dst").cache()
    edges.count()

    /** One query; its wall time in ns if it was answered correctly. */
    def query(): Option[Long] = {
      val q = pool.queries(draw.next())
      // DistEve leaves its cached graphs to Spark's cleaner, which frees them
      // only after a collection; collect first so every query starts alike.
      Jvm.collect()
      val t0 = System.nanoTime()
      try {
        val out = DistEve.spg(spark, edges, q.s.toLong, q.t.toLong, w.k)
        out.count()
        val ns  = System.nanoTime() - t0
        val got = out.collect().map(r => LocalGraph.enc(r.getLong(0).toInt, r.getLong(1).toInt)).sorted
        if (ns > DeadlineMs * 1000000L) { tally.fail(); None }
        else if (!q.matches(got)) {
          tally.wrongAnswer(s"DistEve's SPG of (${q.s},${q.t}) has ${got.length} edges, expected ${q.edges}")
          None
        } else { tally.ok(); Some(ns) }
      } catch {
        case NonFatal(e) =>
          System.err.println(s"DistEve query (${q.s},${q.t}) failed: $e")
          tally.fail()
          None
      }
    }

    val activity = SparkActivity.register(spark.sparkContext)
    try {
      (1 to WarmupQueries).foreach(_ => query())
      val act0  = activity.snapshot(spark.sparkContext)
      val end   = System.nanoTime() + (seconds * 1e9).toLong
      var n     = 0L
      var sumNs = 0L
      var okN   = 0L
      while (n < MinQueries || System.nanoTime() < end) {
        query().foreach { ns => sumNs += ns; okN += 1 }
        n += 1
      }
      val act1 = activity.snapshot(spark.sparkContext)
      Metric("disteve.ms_per_query", Stats.ratio(sumNs / 1e6, okN.toDouble), "ms") +:
        SparkActivity.metrics(act0, act1, n)
    } finally edges.unpersist(blocking = true)
  }
}
