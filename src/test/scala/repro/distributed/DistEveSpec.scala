package repro.distributed

import org.apache.spark.SpecListenerBus
import org.apache.spark.graphx.Graph
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{Oracle, SparkSpec}
import repro.baselines.BruteForce
import repro.core.{Bfs, Eve, LocalGraph, PaperGraph, SpgOracle}
import repro.data.GraphGen

/** The GraphX dataflow must agree with the sequential EVE (and with DuckDB)
  * on every graph it is given.
  */
class DistEveSpec extends SparkSpec {

  private def distSpg(g: LocalGraph, s: Int, t: Int, k: Int): Set[(Long, Long)] = {
    val edges = SpgOracle.edgesDf(spark, g)
    DistEve.spg(spark, edges, s, t, k).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
  }

  private def localSpg(g: LocalGraph, s: Int, t: Int, k: Int): Set[(Long, Long)] =
    Eve.spg(g, s, t, k).map(e => (LocalGraph.src(e).toLong, LocalGraph.dst(e).toLong)).toSet

  for (k <- Seq(3, 4, 6, 7)) {
    test(s"paper graph: DistEve equals local EVE (k=$k)") {
      import PaperGraph._
      assert(distSpg(graph, s, t, k) == localSpg(graph, s, t, k))
    }
  }

  for (seed <- 0 until 6) {
    test(s"random graphs: DistEve equals local EVE (seed=$seed)") {
      val n = 20 + seed * 3
      val g = GraphGen.uniform(n, 3 * n, seed * 41 + 2)
      val s = seed % n; val t = (seed * 7 + 5) % n
      val k = 4 + seed % 4
      if (s != t) assert(distSpg(g, s, t, k) == localSpg(g, s, t, k), s"k=$k ($s,$t)")
    }
  }

  // The window's edges are collected in partition order, so they arrive
  // unsorted; the local graph and the sorted output need them sorted.
  for (k <- Seq(5, 6)) {
    test(s"upper bound collected from 4 partitions: DistEve equals local EVE, rows sorted (k=$k)") {
      val g = GraphGen.uniform(40, 200, 70 + k)
      val edges = SpgOracle.edgesDf(spark, g).repartition(4)
      for ((s, t) <- GraphGen.queries(g, k, 2, seed = k)) {
        val rows = DistEve.spg(spark, edges, s, t, k).collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
        assert(rows == rows.sorted, s"($s,$t) rows out of (src, dst) order")
        assert(rows.toSet == localSpg(g, s, t, k), s"($s,$t)")
      }
    }
  }

  test("DistEve matches DuckDB on the paper graph") {
    import PaperGraph._
    val df = DistEve.spg(spark, SpgOracle.edgesDf(spark, graph), s, t, 6)
    Oracle.assertEquivalent(df, SpgOracle.sql(s, t, 6), "edges" -> SpgOracle.edgesDf(spark, graph))
  }

  test("DistEve on an unreachable pair returns an empty DataFrame") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    assert(DistEve.spg(spark, SpgOracle.edgesDf(spark, g), 0, 3, 5).count() == 0)
  }

  test("DistEve equals brute force on a power-law graph") {
    val g = GraphGen.powerLaw(30, 90, 0.9, 17)
    val s = 1; val t = 19; val k = 6
    val exp = BruteForce.spg(g, s, t, k)
      .map(e => (LocalGraph.src(e).toLong, LocalGraph.dst(e).toLong))
    assert(distSpg(g, s, t, k) == exp)
  }

  /** DistEve with every vertex v relabelled to the sparse VertexId
    * `label(p)` for a shuffled rank p, answers mapped back to the original ids.
    */
  private def relabelledSpg(g: LocalGraph, s: Int, t: Int, k: Int, seed: Int,
                            label: Int => Long): Set[(Long, Long)] = {
    import spark.implicits._
    val perm  = new scala.util.Random(seed).shuffle((0 until g.n).toVector)
    val id    = perm.map(label)
    val back  = id.zipWithIndex.toMap
    val edges = g.edges.map { case (u, v) => (id(u), id(v)) }.toSeq.toDF("src", "dst")
    DistEve.spg(spark, edges, id(s), id(t), k).collect()
      .map(r => (back(r.getLong(0)).toLong, back(r.getLong(1)).toLong)).toSet
  }

  private def bruteSpg(g: LocalGraph, s: Int, t: Int, k: Int): Set[(Long, Long)] =
    BruteForce.spg(g, s, t, k).map(e => (LocalGraph.src(e).toLong, LocalGraph.dst(e).toLong))

  for (seed <- 0 until 3) {
    test(s"sparse VertexIds above 2^32 give the local SPG (seed=$seed)") {
      val g = GraphGen.uniform(24, 72, seed * 13 + 5)
      val k = 4 + seed
      val (s, t) = GraphGen.queries(g, k, 1, seed).head
      // VertexIds outside Int's range, above 2^32 and below zero.
      for (label <- Seq((p: Int) => (1L << 32) + 1000003L * p + 17, (p: Int) => -(1L << 40) + 7919L * p))
        assert(relabelledSpg(g, s, t, k, seed, label) == localSpg(g, s, t, k))
    }
  }

  for (k <- Seq(1, 2, 3)) {
    test(s"small k: DistEve equals brute force (k=$k)") {
      val g = GraphGen.uniform(20, 70, 31 + k)
      for ((s, t) <- GraphGen.queries(g, k, 2, seed = k))
        assert(distSpg(g, s, t, k) == bruteSpg(g, s, t, k), s"($s,$t)")
    }
  }

  test("source without out-edges yields an empty SPG") {
    val g = LocalGraph.fromEdges(5, Seq((1, 0), (2, 0), (1, 2), (2, 3), (3, 4), (4, 1)))
    assert(distSpg(g, 0, 3, 5).isEmpty)
    assert(bruteSpg(g, 0, 3, 5).isEmpty)
  }

  test("target adjacent to the source: DistEve equals brute force") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 5), (5, 1), (1, 3)))
    for (k <- Seq(1, 2, 5)) assert(distSpg(g, 0, 1, k) == bruteSpg(g, 0, 1, k), s"k=$k")
  }

  test("complete graph on 6 vertices: DistEve equals brute force") {
    val g = LocalGraph.fromEdges(6, for (u <- 0 until 6; v <- 0 until 6 if u != v) yield (u, v))
    for (k <- Seq(3, 5)) assert(distSpg(g, 0, 5, k) == bruteSpg(g, 0, 5, k), s"k=$k")
  }

  test("rejects k < 1") {
    intercept[IllegalArgumentException](DistEve.spg(spark, SpgOracle.edgesDf(spark, PaperGraph.graph), 0, 7, 0))
  }

  for (k <- Seq(3, 6)) {
    test(s"path of k hops gives the path, path of k+1 hops gives nothing (k=$k)") {
      def path(len: Int) = LocalGraph.fromEdges(len + 1, (0 until len).map(i => (i, i + 1)))
      val exact = distSpg(path(k), 0, k, k)
      assert(exact.size == k && exact == bruteSpg(path(k), 0, k, k))
      assert(distSpg(path(k + 1), 0, k + 1, k).isEmpty)
    }
  }

  test("duplicate rows and self-loops: DistEve equals local EVE on the cleaned graph") {
    import spark.implicits._
    val g = GraphGen.uniform(30, 100, 23)
    val k = 5
    val clean = g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSeq
    val loops = (0 until g.n by 3).map(v => (v.toLong, v.toLong))
    val edges = (clean ++ clean.take(40) ++ loops ++ loops).toDF("src", "dst").repartition(3)
    for ((s, t) <- GraphGen.queries(g, k, 3, seed = 29)) {
      val got = DistEve.spg(spark, edges, s, t, k).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
      assert(got == localSpg(g, s, t, k), s"($s,$t)")
    }
  }

  /** Spark jobs that `body` starts, counted by a listener. */
  private def jobsOf(body: => Unit): Int = {
    val sc = spark.sparkContext
    val jobs = new java.util.concurrent.atomic.AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    SpecListenerBus.drain(sc)
    sc.addSparkListener(listener)
    try { body; SpecListenerBus.drain(sc) } finally sc.removeSparkListener(listener)
    jobs.get
  }

  test("a larger k adds only the Pregel rounds' Spark jobs") {
    // A 24-cycle with chords i -> i+2: both distance searches stay active
    // through k=8, so the Pregel run takes every round it is allowed.
    val g = LocalGraph.fromEdges(24, (0 until 24).flatMap(i => Seq((i, (i + 1) % 24), (i, (i + 2) % 24))))
    val (s, t) = (0, 6)
    val edges = SpgOracle.edgesDf(spark, g).cache()
    edges.count()
    val graph = graphOf(g).cache()
    def pregelJobs(k: Int) = jobsOf(DistEve.distances(graph, s, t, k).unpersist(blocking = false))
    def spgJobs(k: Int) = jobsOf(DistEve.spg(spark, edges, s, t, k).collect())
    try {
      val pregel = pregelJobs(8) - pregelJobs(3)
      val spg    = spgJobs(8) - spgJobs(3)
      assert(pregel > 0)
      assert(spg <= pregel, s"k=8 starts $spg more jobs than k=3; the Pregel run accounts for $pregel")
    } finally { graph.unpersist(blocking = true); edges.unpersist(blocking = true) }
  }

  private def graphOf(g: LocalGraph): Graph[Int, Int] =
    Graph.fromEdgeTuples(spark.sparkContext.parallelize(g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSeq), 0)

  for ((kind, seed) <- Seq("uniform" -> 3, "power-law" -> 5)) {
    test(s"one Pregel run gives both bounded BFS distances at every vertex ($kind graph)") {
      val g = if (kind == "uniform") GraphGen.uniform(40, 150, seed) else GraphGen.powerLaw(40, 150, 0.9, seed)
      val graph = graphOf(g)
      val rnd   = new scala.util.Random(seed)
      val ends  = g.edges.toVector
      try for (k <- 1 to 6) {
        // Endpoints with edges, so that GraphX knows them as vertices.
        val s = ends(rnd.nextInt(ends.size))._1
        val t = Iterator.continually(ends(rnd.nextInt(ends.size))._2).find(_ != s).get
        val dist = DistEve.distances(graph, s, t, k)
        val got  = try dist.vertices.collect().toMap finally dist.unpersist(blocking = false)
        val dS = Bfs.bounded(g.outOff, g.outDst, s, k)
        val dT = Bfs.bounded(g.inOff, g.inSrc, t, k)
        for (v <- 0 until g.n)
          assert(got.getOrElse(v.toLong, (Bfs.Inf, Bfs.Inf)) == ((dS(v), dT(v))), s"k=$k ($s,$t) v=$v")
      } finally graph.unpersist(blocking = false)
    }
  }

  test("DistEve leaves no RDD persisted") {
    val edges = SpgOracle.edgesDf(spark, GraphGen.uniform(30, 100, 41))
    // Compared as id sets: old entries may leave the map when their RDDs are
    // garbage-collected, but no RDD that DistEve persists may stay.
    def persisted = spark.sparkContext.getPersistentRDDs.keySet.toSet
    val before = persisted
    for ((s, t, k) <- Seq((0L, 7L, 5), (3L, 11L, 2), (0L, 1000L, 4)))
      DistEve.spg(spark, edges, s, t, k).collect()
    assert((persisted -- before).isEmpty)
  }
}
