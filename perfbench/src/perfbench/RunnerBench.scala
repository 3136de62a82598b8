package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{Eve, LocalGraph}
import repro.data.GraphGen
import repro.distributed.{BatchResult, QueryRunner, SpgAlgo}

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Batches of `QueryRunner.run(..., warmup = false)` calls, answers checked
  * against the committed pool.
  */
final class BatchLog {
  /** Executor-measured `QueryOutcome.timeNs` of every answered query. */
  val timesMs   = new ArrayBuffer[Double]()
  /** Per batch: nearest-rank p95 of its query times, and completed ÷ wall. */
  val batchP95  = new ArrayBuffer[Double]()
  val batchQps  = new ArrayBuffer[Double]()
  var batches   = 0
  var completed = 0L
  var wallNs    = 0L
  var busyNs    = 0L

  def runnerMetrics(slots: Int): Seq[Metric] = Seq(
    Metric("runner.wall_ms", wallNs / 1e6 / batches, "ms"),
    Metric("runner.busy_ms", busyNs / 1e6 / batches, "ms"),
    Metric("runner.slot_utilization", Stats.ratio(busyNs.toDouble, wallNs.toDouble * slots), "ratio"),
  )
}

object Batches {

  /** One `QueryRunner.run` call on `queries`. A batch that throws counts
    * every one of its queries as failed; the run goes on.
    */
  def run(spark: SparkSession, g: LocalGraph, k: Int, deadlineMs: Long, queries: Array[Expected],
          tally: Tally, log: BatchLog): Unit = {
    val pairs = queries.toSeq.map(q => (q.s, q.t))
    val t0    = System.nanoTime()
    val res =
      try Some(QueryRunner.run(spark, g, pairs, k, SpgAlgo.EveAlgo(), deadlineMs, warmup = false))
      catch { case NonFatal(e) => System.err.println(s"batch failed: $e"); None }
    val wallNs    = System.nanoTime() - t0
    val completed = log.completed
    log.wallNs += wallNs
    log.batches += 1
    res.foreach(r => log.batchP95 += Stats.quantile(r.outcomes.map(_.timeNs / 1e6), 0.95))
    record(res, queries, tally, log)
    log.batchQps += (log.completed - completed) / (wallNs / 1e9)
  }

  private def record(res: Option[BatchResult], queries: Array[Expected], tally: Tally, log: BatchLog): Unit =
    res match {
      case None => tally.fail(queries.length)
      case Some(r) if r.outcomes.length != queries.length =>
        tally.wrongAnswer(s"batch of ${queries.length} returned ${r.outcomes.length} outcomes")
        tally.fail(queries.length - 1)
      case Some(r) =>
        r.outcomes.iterator.zip(queries.iterator).foreach { case (o, q) =>
          log.busyNs += o.timeNs
          log.timesMs += o.timeNs / 1e6
          if (o.timedOut) tally.fail()
          else if (o.s != q.s || o.t != q.t || o.edges != q.edges)
            tally.wrongAnswer(s"(${o.s},${o.t}) has ${o.edges} edges, expected (${q.s},${q.t}) with ${q.edges}")
          else { tally.ok(); log.completed += 1 }
        }
    }

  /** Batches drawn from the pool until `seconds` have passed (at least one). */
  def loop(spark: SparkSession, g: LocalGraph, w: Workload, pool: Pool, draw: Draw,
           seconds: Double, tally: Tally): BatchLog = {
    val log = new BatchLog
    val end = System.nanoTime() + (seconds * 1e9).toLong
    do run(spark, g, w.k, w.deadlineMs, draw.take(w.batch).map(pool.queries(_)), tally, log)
    while (System.nanoTime() < end)
    log
  }
}

/** Workloads answered by [[repro.distributed.QueryRunner]]. */
object RunnerBench {

  /** Set-ups per run; the median is reported. */
  val SetupRepeats = 9
  /** Seconds of single-threaded EVE warm-up before Spark starts. */
  val WarmupSeconds = 4.0
  /** The warm-up draws with this fixed seed, not the run's. */
  val WarmupSeed = 0L

  /** `Eve.run` on the main thread over fixed queries, before Spark starts,
    * so that the JIT compiles EVE from the same profile in every run.
    */
  private def warmBeforeSpark(g: LocalGraph, w: Workload, pool: Pool, tally: Tally): Unit = {
    val draw = new Draw(pool.queries.length, WarmupSeed)
    val end  = System.nanoTime() + (WarmupSeconds * 1e9).toLong
    do {
      val q = pool.queries(draw.next())
      val e = Eve.spg(g, q.s, q.t, w.k)
      if (q.matches(e)) tally.ok()
      else tally.wrongAnswer(s"(${q.s},${q.t}) has ${e.length} edges, expected ${q.edges}")
    } while (System.nanoTime() < end)
  }

  private final class Input(val graph: LocalGraph, val pool: Pool) {
    val edges: Array[(Int, Int)] = graph.edges.toArray
  }

  /** The workload's inputs: the registry graph's edge list and the pool. */
  private def input(w: Workload, run: RunSpec): Input = {
    val generated = GraphGen.dataset(w.dataset).build()
    new Input(generated, Pool.load(run.root, w, generated))
  }

  /** End-to-end metrics, tracing off. */
  def timed(w: Workload, run: RunSpec): Result = {
    val in    = input(w, run)
    val tally = new Tally
    warmBeforeSpark(in.graph, w, in.pool, tally)
    var spark: SparkSession = null
    var g: LocalGraph = null
    val setupS = (1 to SetupRepeats).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = Sessions.start(run)
      g = LocalGraph.fromEdges(in.graph.n, in.edges)
      (System.nanoTime() - t0) / 1e9
    }
    try {
      Batches.loop(spark, g, w, in.pool, new Draw(in.pool.queries.length, WarmupSeed), 0, tally)
      val alloc0 = Jvm.allocatedByLiveThreads()
      val gc0    = Jvm.gcTotals()
      val log = Batches.loop(spark, g, w, in.pool, new Draw(in.pool.queries.length, run.seed),
        run.seconds, tally)
      val alloc1 = Jvm.allocatedByLiveThreads()
      val gc1    = Jvm.gcTotals()
      val heap = Jvm.heapUsedMbAfterGc()
      val metrics = Seq(
        Metric("query_p50_ms", Stats.quantile(log.timesMs.toSeq, 0.50), "ms"),
        Metric("query_p95_ms", Stats.median(log.batchP95.toSeq), "ms"),
        Metric("batch_qps", Stats.median(log.batchQps.toSeq), "queries/s"),
        Metric("setup_s", Stats.median(setupS), "s"),
        Metric("heap_mb", heap, "MB"),
      )
      Result(tally, metrics, Seq(
        s"workload ${w.name}: dataset ${w.dataset} (n=${g.n}, m=${g.m}), k=${w.k}, slots=${Sessions.slots}, " +
          s"deadline ${w.deadlineMs} ms, seed ${run.seed}",
        s"measured ${log.timesMs.length} queries in ${log.batches} batches of ${w.batch}; " +
          s"failed_ratio ${Stats.fmt(tally.failedRatio)} (${tally.failed} of ${tally.attempted}, warm-up included)",
        s"setup_s samples: ${setupS.map(Stats.fmt).mkString(" ")}",
        s"allocated ${Stats.fmt((alloc1 - alloc0) / 1024.0 / log.timesMs.length)} KB per measured query " +
          s"(threads alive at both ends); ${gc1._1 - gc0._1} collections took ${gc1._2 - gc0._2} ms",
      ))
    } finally spark.stop()
  }

  /** Per-layer metrics: the traced pipeline next to `Eve.run` on one thread,
    * then QueryRunner batches with GC activity counted, then DistEve queries
    * with Spark activity counted. The three parts take 0.4, 0.3 and 0.3 of
    * `--seconds`.
    */
  def traced(w: Workload, run: RunSpec): Result = {
    val in    = input(w, run)
    val tally = new Tally
    warmBeforeSpark(in.graph, w, in.pool, tally)
    val spark = Sessions.start(run)
    try {
      var g: LocalGraph = null
      val buildMs = (1 to 3).map { _ =>
        val t0 = System.nanoTime()
        g = LocalGraph.fromEdges(in.graph.n, in.edges)
        (System.nanoTime() - t0) / 1e6
      }
      val draw  = new Draw(in.pool.queries.length, run.seed)
      val probe = LayerRun.probe(g, w.k, run.seconds * 0.4, tally, () => {
        val q = in.pool.queries(draw.next())
        LayerRun.Query(q.s, q.t, q.matches)
      })
      val gc0 = Jvm.gcTotals()
      val log = Batches.loop(spark, g, w, in.pool, draw, run.seconds * 0.3, tally)
      val gc1 = Jvm.gcTotals()
      val dist = DistEveProbe.run(spark, g, w, in.pool, draw, run.seconds * 0.3, tally)
      Result(tally,
        LayerRun.graphMetrics(g, buildMs) ++ probe.metrics ++ log.runnerMetrics(Sessions.slots) ++
          LayerRun.gcMetrics(gc0, gc1) ++ dist,
        LayerRun.finish(w, run, probe, tally))
    } finally spark.stop()
  }
}
