package repro.core

import repro.SparkSpec
import repro.baselines.BruteForce
import repro.data.GraphGen

/** End-to-end EVE vs brute force across seeds, k, densities, and every
  * configuration combination — the core correctness battery.
  */
class VerificationSpec extends SparkSpec {

  private val configs = Seq(
    "default"        -> EveConfig.Default,
    "naive"          -> EveConfig.Naive,
    "no-ordering"    -> EveConfig(ordering = false),
    "single-bfs"     -> EveConfig(search = Bfs.SearchMode.Single),
    "bidir-bfs"      -> EveConfig(search = Bfs.SearchMode.BiDir),
    "no-pruning"     -> EveConfig(pruning = false),
  )

  test("paper graph: verification removes e(b,a) from SPGu at k=7") {
    import PaperGraph._
    val r = Eve.run(graph, s, t, 7)
    assert(r.upperBound.edges.contains(LocalGraph.enc(b, a)))
    assert(!r.edges.contains(LocalGraph.enc(b, a)))
    assert(r.edges.toSet == BruteForce.spg(graph, s, t, 7))
  }

  test("paper graph: Example 5.7 — verifying e(i,j) also confirms e(j,h)") {
    import PaperGraph._
    val r     = Eve.run(graph, s, t, 7)
    val exact = BruteForce.spg(graph, s, t, 7)
    assert(exact.contains(LocalGraph.enc(i, j)) && exact.contains(LocalGraph.enc(j, h)))
    assert(r.edges.contains(LocalGraph.enc(i, j)) && r.edges.contains(LocalGraph.enc(j, h)))
  }

  test("paper graph: Example 5.7 — verification counts its steps and the witnessed edges it skips") {
    import PaperGraph._
    val st = Eve.run(graph, s, t, 7).stats
    assert(st.verifySteps > 0)
    assert(st.witnessSkipped >= 1 && st.witnessSkipped <= st.undeterminedEdges)
    val k4 = Eve.run(graph, s, t, 4).stats
    assert(k4.verifySteps == 0 && k4.witnessSkipped == 0, "k<=4 skips verification")
  }

  test("paper graph: the most frames one edge's search took is at most all frames") {
    import PaperGraph._
    val st = Eve.run(graph, s, t, 7).stats
    assert(st.verifyMaxFrames > 0 && st.verifyMaxFrames <= st.verifySteps)
    assert(Eve.run(graph, s, t, 4).stats.verifyMaxFrames == 0, "k<=4 skips verification")
  }

  for (k <- 3 to 8) {
    test(s"EVE edges are strictly ascending and equal Verifier.verify() as a set (k=$k)") {
      import scala.jdk.CollectionConverters._
      for (seed <- 0 until 4) {
        val g = GraphGen.uniform(18, 60, seed * 13 + k)
        for ((s, t) <- GraphGen.queries(g, k, 3, seed)) {
          val r = Eve.run(g, s, t, k)
          assert((1 until r.edges.length).forall(i => r.edges(i - 1) < r.edges(i)), s"($s,$t)")
          val ub = r.upperBound
          val set = new Verifier(ub, Boundary.compute(ub), ordering = true, Deadline.None).verify()
          assert(set.asScala.map(_.longValue).toSet == r.edges.toSet, s"($s,$t)")
        }
      }
    }
  }

  test("paper graph: Figure 1(c) — SPG_4(s,t)") {
    import PaperGraph._
    val r = Eve.run(graph, s, t, 4)
    assert(r.edgePairs.toSet == spg4)
  }

  for ((cfgName, cfg) <- configs; seed <- 0 until 10; k <- Seq(3, 5, 6, 7)) {
    test(s"EVE($cfgName) == brute force (seed=$seed k=$k)") {
      val n = 12 + seed % 5
      val g = GraphGen.uniform(n, (2.5 * n).toInt + seed * 2, seed * 101 + k)
      val s = seed % n; val t = (seed * 3 + 2) % n
      if (s != t) {
        val got = Eve.spg(g, s, t, k, cfg).toSet
        val exp = BruteForce.spg(g, s, t, k)
        assert(got == exp,
          s"missing=${exp.diff(got).map(e => (LocalGraph.src(e), LocalGraph.dst(e)))} " +
          s"extra=${got.diff(exp).map(e => (LocalGraph.src(e), LocalGraph.dst(e)))}")
      }
    }
  }

  for (seed <- 0 until 12; k <- Seq(5, 6, 8)) {
    test(s"EVE == brute force on power-law graphs (seed=$seed k=$k)") {
      val g = GraphGen.powerLaw(20, 55, 0.9, seed * 7 + k)
      val s = seed % g.n; val t = (seed * 11 + 4) % g.n
      if (s != t) {
        assert(Eve.spg(g, s, t, k).toSet == BruteForce.spg(g, s, t, k))
      }
    }
  }

  for (seed <- 0 until 8) {
    test(s"EVE == brute force on dense graphs, k=5 boundary case (seed=$seed)") {
      // k=5 is the smallest k with verification; q* has length exactly 1.
      val g = GraphGen.uniform(10, 40, seed * 5 + 3)
      val s = seed % g.n; val t = (seed + 3) % g.n
      if (s != t) {
        assert(Eve.spg(g, s, t, 5).toSet == BruteForce.spg(g, s, t, 5))
      }
    }
  }

  test("all configurations produce identical SPG edges") {
    val g = GraphGen.uniform(18, 50, 99)
    for (k <- 3 to 8; (s, t) <- Seq((0, 5), (3, 17), (10, 2))) {
      val results = configs.map { case (name, cfg) => name -> Eve.spg(g, s, t, k, cfg).toSeq }
      val expected = results.head._2
      for ((name, r) <- results.tail)
        assert(r == expected, s"config $name diverges at k=$k ($s,$t)")
    }
  }

  // The cut search against the plain Algorithm 3 DFS on the same SPGu: the
  // cuts drop only subtrees without a witness, so every edge finds the same
  // first witness and the answer and skips stay, in no more frames.
  for ((gName, graph) <- Seq[(String, Int => LocalGraph)](
         "uniform"   -> (seed => GraphGen.uniform(40, 240, seed)),
         "power-law" -> (seed => GraphGen.powerLaw(80, 320, alpha = 0.9, seed = seed)));
       k <- 5 to 9; ordering <- Seq(true, false)) {
    test(s"Verifier equals the plain search in answer and skips, in no more steps ($gName, k=$k, ordering=$ordering)") {
      for (seed <- 0 until 4) {
        val g = graph(seed * 17 + k)
        for ((s, t) <- GraphGen.queries(g, k, 4, seed)) {
          val ub  = Eve.run(g, s, t, k).upperBound
          val bd  = Boundary.compute(ub)
          val cut = new Verifier(ub, bd, ordering, Deadline.None)
          val ref = new PlainVerifier(ub, bd, ordering)
          val q   = s"seed=$seed ($s,$t)"
          assert(cut.spgEdges().sameElements(ref.spgEdges()), q)
          assert(cut.skipped == ref.skipped, q)
          assert(cut.steps <= ref.steps, q)
        }
      }
    }
  }

  // Σ verifySteps, Σ witnessSkipped and Σ |SPG| over 12 queries: the §5.3
  // search order decides the first two, so they pin it, not just the answer.
  // verifySteps also pins the cuts: the uncut search takes 4,241,993,
  // 1,302,046 and 113,499,014 steps on these cases.
  for ((name, k, steps, skipped, spg) <- Seq(
         ("wn", 6, 1518578L, 46591L, 643866L),
         ("ye", 7, 1266845L, 16554L, 394250L),
         ("wn", 7, 2644642L, 52427L, 858444L))) {
    test(s"verification work is pinned on $name (k=$k)") {
      val g  = GraphGen.dataset(name).build()
      val st = GraphGen.queries(g, k, 12, seed = 77).map { case (s, t) => Eve.run(g, s, t, k).stats }
      assert((st.map(_.verifySteps).sum, st.map(_.witnessSkipped.toLong).sum, st.map(_.resultEdges.toLong).sum) ==
        ((steps, skipped, spg)))
    }
  }

  // The same sums at k=5, where cut (c)'s distances are only ever read at
  // depth 0, and without the §5.3 order (Fig. 11's "+Adaptive").
  for ((name, k, cfg, steps, skipped, spg) <- Seq(
         ("wn", 5, EveConfig.Default, 386038L, 0L, 239794L),
         ("wn", 6, EveConfig(ordering = false), 1576324L, 42155L, 643866L))) {
    test(s"verification work is pinned on $name (k=$k, ordering=${cfg.ordering})") {
      val g  = GraphGen.dataset(name).build()
      val st = GraphGen.queries(g, k, 12, seed = 77).map { case (s, t) => Eve.run(g, s, t, k, cfg).stats }
      assert((st.map(_.verifySteps).sum, st.map(_.witnessSkipped.toLong).sum, st.map(_.resultEdges.toLong).sum) ==
        ((steps, skipped, spg)))
    }
  }

  test("verifier set-up on a dense corridor allocates in a few linear passes (wn, k=6)") {
    val g = GraphGen.dataset("wn").build() // 4,000 vertices, d_avg 18, power-law
    val k = 6
    val ubs = GraphGen.queries(g, k, 20, seed = 3).map { case (s, t) =>
      val cor = Corridor.of(g, s, t, k, Bfs.SearchMode.Adaptive)
      val (cs, ct) = (cor.local(s), cor.local(t))
      val evF = EssentialVertices.propagate(cor.graph, cs, ct, k, cor.dists.fromAll, pruning = true)
      val evB = EssentialVertices.propagate(cor.graph.reverse, ct, cs, k, cor.dists.toAll, pruning = true)
      EdgeLabeling.upperBound(cor.graph, cs, ct, k, cor.dists, evF, evB)
    }
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    // A fresh graph per pass, so that its shared adjacency is built and counted.
    def perQuery(): Long = {
      val fresh = ubs.map(ub => new UpperBoundGraph(ub.n, ub.k, ub.s, ub.t, ub.edges, ub.labels, ub.numDefinite))
      val a0 = mx.getCurrentThreadAllocatedBytes
      for (ub <- fresh) new Verifier(ub, Boundary.compute(ub), ordering = true, Deadline.None)
      (mx.getCurrentThreadAllocatedBytes - a0) / fresh.length
    }
    perQuery()
    val got = perQuery()
    info(s"Boundary.compute + new Verifier allocate ${got / 1024} KB per query")
    // Measured at 1,451 KB per query: the shared adjacency's three edge-id
    // arrays, the two orders and the SPG flags. Per-edge order keys, two
    // m-sized sort buffers and a copy per In_D/Out_A entry took 1,654 KB.
    assert(got < 1536 * 1024, s"$got bytes per query")
  }

  test("deadline aborts verification with DeadlineExceeded") {
    val g = GraphGen.uniform(60, 600, 7)
    intercept[DeadlineExceeded] {
      // An already-expired deadline must abort before completing.
      Eve.run(g, 0, 1, 8, EveConfig.Default, deadline = System.nanoTime() - 1)
    }
  }
}
