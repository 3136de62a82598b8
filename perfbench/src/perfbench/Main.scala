package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import java.util.Locale

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

import scala.jdk.CollectionConverters._

/** Benchmark entry point. See BASELINE.md in this directory for the
  * workloads, the metrics and which layer should move which end-to-end
  * metric.
  *
  * Usage: perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --root <checkout>
  *
  * `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
  * traces the calls into each layer and reports the per-layer metrics. Both
  * check every answer. A short report goes to standard output, followed by
  * one JSON line.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String =
      opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val run = RunSpec(
      seed = opt("seed").toLong,
      seconds = opt("seconds").toDouble,
      trace = opt("trace") == "1",
      root = Paths.get(opt("root")),
    )
    // Spark leaves non-daemon threads behind even after stop(), so the JVM
    // must be ended explicitly, also when the run fails.
    try {
      val w      = Workloads.byName(opt("workload"))
      val result = if (run.trace) RunnerBench.traced(w, run) else RunnerBench.timed(w, run)
      result.report.foreach(println)
      println(result.json)
      System.out.flush()
    } catch {
      case e: Throwable =>
        e.printStackTrace()
        sys.exit(1)
    }
    sys.exit(0)
  }
}

final case class RunSpec(seed: Long, seconds: Double, trace: Boolean, root: Path) {
  def buildDir: Path = root.resolve(".bench_build")
}

final case class Metric(name: String, value: Double, unit: String)

/** Outcome of one benchmark run; `report` lines precede the JSON line. */
final case class Result(tally: Tally, metrics: Seq[Metric], report: Seq[String]) {
  def json: String = {
    def num(x: Double): String = if (x.isNaN || x.isInfinite) "0" else x.toString
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": ${tally.correct}, "attempted": ${tally.attempted}, "failed": ${tally.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Query accounting. Every answer is checked; a timeout, an exception or a
  * wrong answer counts as failed, and a wrong answer also makes the run
  * incorrect.
  */
final class Tally {
  var attempted = 0L
  var failed    = 0L
  var wrong     = 0L

  def ok(): Unit = attempted += 1
  def fail(n: Long = 1): Unit = { attempted += n; failed += n }
  def wrongAnswer(msg: => String): Unit = {
    fail()
    wrong += 1
    if (wrong <= 5) System.err.println(s"wrong answer: $msg")
  }
  def correct: Boolean = wrong == 0
  def failedRatio: Double = if (attempted == 0) 0.0 else failed.toDouble / attempted
}

object Stats {
  /** Nearest-rank quantile of unsorted samples. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.length).toInt - 1))
  }

  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted; val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def fmt(x: Double): String = String.format(Locale.ROOT, "%.3f", Double.box(x))
}

object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated by the calling thread so far. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated so far by the threads alive now. */
  def allocatedByLiveThreads(): Long =
    threads.getThreadAllocatedBytes(threads.getAllThreadIds).iterator.filter(_ > 0).sum

  /** (collections, milliseconds) summed over all collectors. */
  def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum)
  }

  /** Forced collections. Spark's cleaner releases unreachable RDDs and
    * broadcasts only after a collection has found them, so collect, give it
    * time, and collect again.
    */
  def collect(): Unit = {
    var i = 0
    while (i < 3) { System.gc(); Thread.sleep(100); i += 1 }
  }

  /** Heap in use after [[collect]]. */
  def heapUsedMbAfterGc(): Double = {
    collect()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

object Sessions {
  /** Executor slots: min(4, cores). QueryRunner's measured pass uses 4 tasks. */
  val slots: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  def start(run: RunSpec): SparkSession =
    SparkSession.builder
      .master(s"local[$slots]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      // Same SQL settings as the repo's spark-submit jobs (jobs/Jobs.scala).
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
}

/** Spark work counted by a listener: jobs, completed stages, tasks and
  * shuffle bytes (read + written).
  */
final class SparkActivity extends SparkListener {
  @volatile private var jobs, stages, tasks, shuffleBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    val m = e.taskMetrics
    if (m != null)
      shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
  }

  /** Counts after every event posted so far has been delivered. */
  def snapshot(sc: SparkContext): Array[Long] = {
    org.apache.spark.PerfbenchListenerBus.drain(sc)
    Array(jobs, stages, tasks, shuffleBytes)
  }
}

object SparkActivity {
  def register(sc: SparkContext): SparkActivity = {
    val a = new SparkActivity
    sc.addSparkListener(a)
    a
  }

  /** Per-query metrics from two snapshots. */
  def metrics(before: Array[Long], after: Array[Long], queries: Long): Seq[Metric] = {
    def per(i: Int) = Stats.ratio((after(i) - before(i)).toDouble, queries.toDouble)
    Seq(
      Metric("disteve.jobs_per_query", per(0), "count"),
      Metric("disteve.stages_per_query", per(1), "count"),
      Metric("disteve.tasks_per_query", per(2), "count"),
      Metric("disteve.shuffle_kb_per_query", per(3) / 1024, "KB"),
    )
  }
}
