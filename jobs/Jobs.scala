package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared SparkSession bootstrap for the per-table entrypoints. */
object JobSession {
  def create(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** spark-submit entrypoint for Table 2 (dataset inventory). */
object Table2Datasets {
  def main(args: Array[String]): Unit = println(repro.bench.Table2Datasets.run())
}

/** spark-submit entrypoint for the Figure 8 headline comparison. */
object Fig8Performance {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("fig8-performance")
    try println(repro.bench.Fig8Performance.run(spark)) finally spark.stop()
  }
}

/** spark-submit entrypoint for Table 3 (redundant ratio of SPGu). */
object Table3Redundant {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table3-redundant")
    try println(repro.bench.Table3Redundant.run(spark)) finally spark.stop()
  }
}

/** spark-submit entrypoint for Table 4 (enumeration speedups). */
object Table4Speedups {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table4-speedups")
    try println(repro.bench.Table4Speedups.run(spark)) finally spark.stop()
  }
}

/** spark-submit entrypoint for Table 5 (SPG generation on G^k_st). */
object Table5SpgOnGst {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table5-spg-on-gst")
    try println(repro.bench.Table5SpgOnGst.run(spark)) finally spark.stop()
  }
}

/** spark-submit entrypoint for the Figure 11 pruning ablation. */
object Fig11Ablation {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("fig11-ablation")
    try println(repro.bench.Fig11Ablation.run(spark)) finally spark.stop()
  }
}

/** spark-submit entrypoint demonstrating the GraphX distributed EVE on a
  * DataFrame edge list (SynthData.graphEdges), printing the SPG edge count.
  */
object DistEveDemo {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("dist-eve-demo")
    try {
      val n     = args.headOption.map(_.toLong).getOrElse(20000L)
      val m     = if (args.length > 1) args(1).toLong else n * 6
      val k     = if (args.length > 2) args(2).toInt else 6
      val edges = repro.SynthData.graphEdges(spark, n, m).cache()
      val spg   = repro.distributed.DistEve.spg(spark, edges, s = 0L, t = 1L, k)
      println(s"DistEve: |V|=$n |E|=$m k=$k -> |E(SPG)| = ${spg.count()}")
    } finally spark.stop()
  }
}
