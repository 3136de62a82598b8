package repro.core

import repro.SparkSpec
import repro.baselines.BruteForce
import repro.data.GraphGen

class EveSpec extends SparkSpec {

  test("rejects s == t") {
    intercept[IllegalArgumentException](Eve.run(PaperGraph.graph, 0, 0, 4))
  }

  test("rejects s or t outside [0, n)") {
    val n = PaperGraph.graph.n
    for ((s, t) <- Seq((-1, 7), (n, 7), (0, -1), (0, n))) {
      val e = intercept[IllegalArgumentException](Eve.run(PaperGraph.graph, s, t, 4))
      assert(e.getMessage.contains("out of range"), s"($s,$t)")
    }
  }

  test("rejects k < 1") {
    intercept[IllegalArgumentException](Eve.run(PaperGraph.graph, 0, 7, 0))
  }

  test("unreachable target yields an empty graph quickly") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    val r = Eve.run(g, 0, 3, 5)
    assert(r.edges.isEmpty && r.upperBound.numEdges == 0)
  }

  test("target beyond the hop bound yields an empty graph") {
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    assert(Eve.spg(g, 0, 4, 3).isEmpty)
    assert(Eve.spg(g, 0, 4, 4).toSet ==
      Set(LocalGraph.enc(0, 1), LocalGraph.enc(1, 2), LocalGraph.enc(2, 3), LocalGraph.enc(3, 4)))
  }

  test("single direct edge, k=1") {
    val g = LocalGraph.fromEdges(2, Seq((0, 1), (1, 0)))
    assert(Eve.spg(g, 0, 1, 1).toSet == Set(LocalGraph.enc(0, 1)))
  }

  test("two-hop diamond, k=2") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (0, 2), (1, 3), (2, 3)))
    assert(Eve.spg(g, 0, 3, 2).length == 4)
  }

  test("stats: phase times are populated and sizes consistent") {
    import PaperGraph._
    val r = Eve.run(graph, s, t, 7)
    assert(r.stats.upperEdges == r.upperBound.numEdges)
    assert(r.stats.definiteEdges + r.stats.undeterminedEdges == r.stats.upperEdges)
    assert(r.stats.resultEdges == r.edges.length)
    assert(r.stats.totalNs > 0)
    assert(r.stats.resultEdges <= r.stats.upperEdges)
    assert(r.stats.definiteEdges <= r.stats.resultEdges)
  }

  test("result vertices are exactly the SPG path vertices") {
    import PaperGraph._
    val r     = Eve.run(graph, s, t, 7)
    val paths = BruteForce.allSimplePaths(graph, s, t, 7)
    assert(r.vertices == paths.flatten.toSet)
  }

  test("edges are sorted and unique") {
    val g = GraphGen.uniform(20, 60, 3)
    val e = Eve.spg(g, 0, 7, 6)
    assert(e.toSeq == e.toSeq.sorted)
    assert(e.toSet.size == e.length)
  }

  for (k <- 1 to 8) {
    test(s"SPG_k grows monotonically with k (k=$k vs k+1)") {
      val g  = GraphGen.uniform(16, 48, 21)
      val e1 = Eve.spg(g, 0, 9, k).toSet
      val e2 = Eve.spg(g, 0, 9, k + 1).toSet
      assert(e1.subsetOf(e2))
    }
  }

  for (seed <- 0 until 6) {
    test(s"SPG edges all lie within the k-hop distance window (seed=$seed)") {
      val g = GraphGen.uniform(20, 70, seed)
      val k = 6
      val s = seed % g.n; val t = (seed + 9) % g.n
      if (s != t) {
        val dF = Bfs.bounded(g.outOff, g.outDst, s, k)
        val dB = Bfs.bounded(g.inOff, g.inSrc, t, k)
        for (e <- Eve.spg(g, s, t, k)) {
          val u = LocalGraph.src(e); val v = LocalGraph.dst(e)
          assert(dF(u) + 1 + dB(v) <= k, s"edge ($u,$v) violates the distance window")
        }
      }
    }
  }

  test("paper graph: detailed stats match the label census at k=7") {
    import PaperGraph._
    val r = Eve.run(graph, s, t, 7)
    // SPGu drops e(b,j) and edges out of t / into s only; e(b,a) is inside.
    assert(!r.upperBound.edges.contains(LocalGraph.enc(b, j)))
    assert(r.upperBound.edges.length == r.upperBound.labels.length)
  }

  test("paper graph: corridor counters match a hand count of G^k_st") {
    import PaperGraph._
    // k=4: i and j have Δ(s,·)+Δ(·,t) = 6, so 6 vertices remain; the 8
    // window edges are exactly Figure 1(c)'s SPG_4.
    val k4 = Eve.run(graph, s, t, 4).stats
    assert(k4.corridorVertices == 6 && k4.corridorEdges == 8)
    // k=7: every vertex and all 14 edges lie in the window.
    val k7 = Eve.run(graph, s, t, 7).stats
    assert(k7.corridorVertices == 8 && k7.corridorEdges == 14)
    val naive = Eve.run(graph, s, t, 7, EveConfig.Naive).stats
    assert(naive.corridorVertices == 0 && naive.corridorEdges == 0, "no corridor without pruning")
  }

  test("paper graph: BFS reached counters match a hand count of both visit lists") {
    import PaperGraph._
    // k=4, adaptive: forward {s} → {a,c} → {h,i,b,t}, and phase 2 adds none;
    // backward {t} → {b,c} → {h,s,a}, and phase 2 adds none (j, i unmet).
    val k4 = Eve.run(graph, s, t, 4).stats
    assert(k4.bfsReachedF == 7 && k4.bfsReachedB == 6)
    // k=7: backward takes levels 3–5 ({j}, {i}, {}); forward's phase 2 adds j.
    val k7 = Eve.run(graph, s, t, 7).stats
    assert(k7.bfsReachedF == 8 && k7.bfsReachedB == 8)
    // Naive EVE (single BFS to depth k from both ends) reaches all 8 vertices.
    val naive = Eve.run(graph, s, t, 4, EveConfig.Naive).stats
    assert(naive.bfsReachedF == 8 && naive.bfsReachedB == 8)
  }

  test("distance search reach pins on a power-law query set") {
    // Σ bfsReachedF / Σ bfsReachedB over 40 queries per k. Phase 1 ends at
    // depth sum k−1 (DESIGN.md §6). Ending it at k, as §3.3 prints, reached
    // (F / B) under Adaptive 4,501 / 5,253, 13,288 / 13,982 and
    // 32,375 / 33,969 at k = 4, 5, 6, and under BiDir 5,231 / 7,673,
    // 23,123 / 17,705 and 34,433 / 35,888. A looser search reaches more.
    val g = GraphGen.powerLaw(3000, 9000, alpha = 0.9, seed = 17)
    val reached = for (mode <- Seq(Bfs.SearchMode.Adaptive, Bfs.SearchMode.BiDir); k <- Seq(4, 5, 6)) yield {
      val stats = GraphGen.queries(g, k, 40, seed = 3L * k).map { case (s, t) =>
        Eve.run(g, s, t, k, EveConfig(search = mode)).stats
      }
      (mode, k) -> (stats.map(_.bfsReachedF).sum, stats.map(_.bfsReachedB).sum)
    }
    assert(reached.toMap == Map(
      (Bfs.SearchMode.Adaptive, 4) -> ((2200, 1199)),
      (Bfs.SearchMode.Adaptive, 5) -> ((3795, 3863)),
      (Bfs.SearchMode.Adaptive, 6) -> ((13687, 13802)),
      (Bfs.SearchMode.BiDir, 4)    -> ((3918, 701)),
      (Bfs.SearchMode.BiDir, 5)    -> ((3638, 4802)),
      (Bfs.SearchMode.BiDir, 6)    -> ((24339, 9933)),
    ))
  }

  test("paper graph: propagation counters match a hand count at k=4") {
    import PaperGraph._
    // On the k=4 corridor {s,a,b,c,h,t}, forward frontiers are {s}, {a,c},
    // {h,b}. Layer 2 seeds c from EV_1(s,c) = {s,c}, a set of two, with no
    // intersection; layer 3 intersects EV_2(s,b) = {s,c,b} with h's
    // contribution, giving Example 3.2's {s,b}. Backward is the mirror
    // image: frontiers {t}, {b,c}, {h,a}, and one intersection, at a on layer 3.
    val st = Eve.run(graph, s, t, 4).stats
    assert(st.evFrontier == 10 && st.evMerges == 2, s"frontier ${st.evFrontier}, merges ${st.evMerges}")
  }

  test("paper graph: boundary counters match Example 5.5") {
    import PaperGraph._
    // k=7: departures {b,c,h,i}, arrivals {a,c,h}.
    val k7 = Eve.run(graph, s, t, 7).stats
    assert(k7.departures == 4 && k7.arrivals == 3, s"departures ${k7.departures}, arrivals ${k7.arrivals}")
    val k4 = Eve.run(graph, s, t, 4).stats
    assert(k4.departures == 0 && k4.arrivals == 0, "k<=4 skips verification")
  }

  /** Everything `Eve.run` reports but the phase times. */
  private def answer(r: EveResult): Seq[Any] = {
    val st = r.stats
    Seq(r.edges.toSeq, r.upperBound.edges.toSeq, r.upperBound.labels.toSeq,
        st.copy(distNs = 0, propagateNs = 0, labelNs = 0, verifyNs = 0))
  }

  test("an expired deadline inside the distance search leaves the pooled scratch clean") {
    val g1 = GraphGen.uniform(60, 240, 41)
    val g2 = GraphGen.uniform(60, 240, 42)
    val k  = 6
    val (s1, t1) = GraphGen.queries(g1, k, 1, seed = 5).head
    val (s2, t2) = GraphGen.queries(g2, k, 1, seed = 6).head
    for (cfg <- Seq(EveConfig.Default, EveConfig.Naive)) {
      intercept[DeadlineExceeded](Eve.run(g1, s1, t1, k, cfg, deadline = System.nanoTime() - 1))
      assert(Eve.spg(g1, s1, t1, k, cfg).toSet == BruteForce.spg(g1, s1, t1, k), cfg)
      assert(Eve.spg(g2, s2, t2, k, cfg).toSet == BruteForce.spg(g2, s2, t2, k), cfg)
    }
    // t beyond k hops: only the search itself runs, so only its check can fire.
    val path = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    intercept[DeadlineExceeded](Eve.run(path, 0, 4, 3, deadline = System.nanoTime() - 1))
    assert(Eve.spg(path, 0, 4, 4).length == 4)
  }

  test("pooled scratch: queries interleaved over graphs of equal and different n equal fresh runs") {
    // Two graphs with n = 120, then two with n = 300: the round-robin below
    // switches size every second query, so a thread's scratch serves equal
    // n, grows to 300 and then serves n = 120 too.
    val graphs = Seq(GraphGen.uniform(120, 330, 7), GraphGen.uniform(120, 400, 8),
                     GraphGen.powerLaw(300, 900, alpha = 0.9, seed = 11),
                     GraphGen.powerLaw(300, 1000, alpha = 0.9, seed = 12))
    val cfgs = Seq(EveConfig.Default, EveConfig(search = Bfs.SearchMode.BiDir),
                   EveConfig(search = Bfs.SearchMode.Single), EveConfig.Naive)
    val runs = for {
      k <- 3 to 7; i <- 0 until 4; gi <- graphs.indices
      (s, t) = GraphGen.queries(graphs(gi), k, 4, seed = k * 17L + gi)(i)
    } yield (graphs(gi), s, t, k, cfgs((i + gi) % cfgs.length))
    val fresh = runs.map { case (g, s, t, k, cfg) => Bfs.Scratch.clear(); answer(Eve.run(g, s, t, k, cfg)) }
    Bfs.Scratch.clear()
    for (((g, s, t, k, cfg), ref) <- runs.zip(fresh))
      assert(answer(Eve.run(g, s, t, k, cfg)) == ref, s"n=${g.n} ($s,$t) k=$k $cfg")
  }

  test("pooled scratch: 4 threads x 50 concurrent queries equal the sequential answers") {
    val g  = GraphGen.powerLaw(2000, 8000, alpha = 0.9, seed = 23)
    val qs = (GraphGen.queries(g, 5, 25, seed = 1).map((_, 5)) ++
              GraphGen.queries(g, 6, 25, seed = 2).map((_, 6))).toIndexedSeq
    val sequential = qs.map { case ((s, t), k) => answer(Eve.run(g, s, t, k)) }
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      // Each thread starts at a different query, so neighbours differ.
      val futures = (0 until 4).map { th =>
        pool.submit(new java.util.concurrent.Callable[Seq[(Int, Seq[Any])]] {
          def call(): Seq[(Int, Seq[Any])] = qs.indices.map { j =>
            val q = (j + th * 13) % qs.length
            val ((s, t), k) = qs(q)
            (q, answer(Eve.run(g, s, t, k)))
          }
        })
      }
      for (f <- futures; (q, a) <- f.get()) assert(a == sequential(q), s"query $q")
    } finally pool.shutdown()
  }

  test("a query allocates in proportion to its corridor, not to |V| (n = 200,000, k = 3)") {
    val g  = GraphGen.powerLaw(200000, 600000, alpha = 0.9, seed = 31)
    val qs = GraphGen.queries(g, 3, 40, seed = 9)
    // A query on a small graph after each one: it must not cost the large
    // graph's scratch.
    val small = GraphGen.uniform(60, 240, 41)
    val (ss, st) = GraphGen.queries(small, 4, 1, seed = 5).head
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    def pass(): Long = {
      val a0 = mx.getCurrentThreadAllocatedBytes
      qs.foreach { case (s, t) => Eve.run(g, s, t, 3); Eve.run(small, ss, st, 4) }
      mx.getCurrentThreadAllocatedBytes - a0
    }
    pass(); pass() // the thread's scratch and its visit lists at their final size
    val perQuery = pass() / qs.length
    val corridor = qs.map { case (s, t) => Eve.run(g, s, t, 3).stats.corridorVertices }.max
    // Two n-sized Int arrays alone would be 1,600,000 bytes.
    assert(perQuery < 128 * 1024, s"$perQuery bytes per query; largest corridor $corridor vertices")
  }

  /** `Eve.run` against a replica of its layer calls on the global graph: the
    * configuration's distances, both propagations, Algorithm 2 and, for k > 4,
    * the verifier. Whatever graph `Eve.run` runs its phases on, the SPG, the
    * upper bound and the work counters must come out identical.
    */

    private final class Replica(val edges: Array[Long], val ub: UpperBoundGraph, val definite: Int,
                                val steps: Long, val skipped: Int, val maxFrames: Long, val noBackward: Long,
                                val frontier: Long, val merges: Long,
                                val departures: Int = 0, val arrivals: Int = 0)

    private def replica(g: LocalGraph, s: Int, t: Int, k: Int, cfg: EveConfig): Replica = {
      val d = Bfs.distances(g, s, t, k, cfg.search)
      if (d.fromS(t) > k)
        return new Replica(Array.emptyLongArray, null, 0, 0, 0, 0, 0, 0, 0)
      val evF = EssentialVertices.propagate(g, s, t, k, d.fromAll, cfg.pruning)
      val evB = EssentialVertices.propagate(g.reverse, t, s, k, d.toAll, cfg.pruning)
      val ub  = EdgeLabeling.upperBound(g, s, t, k, d, evF, evB)
      val definite = ub.labels.count(_ == EdgeLabel.Definite)
      val (frontier, merges) = (evF.frontier + evB.frontier, evF.merges + evB.merges)
      if (k <= 4) new Replica(ub.edges, ub, definite, 0, 0, 0, 0, frontier, merges)
      else {
        val bd = Boundary.compute(ub)
        val v  = new Verifier(ub, bd, cfg.ordering, Deadline.None)
        val edges = v.spgEdges()
        new Replica(edges, ub, definite, v.steps, v.skipped, v.maxSteps, v.backwardSkipped, frontier, merges,
          bd.departures.length, bd.arrivals.length)
      }
    }

    private val configs = Seq(
      "default" -> EveConfig.Default,
      "+FLP"    -> EveConfig(pruning = true, search = Bfs.SearchMode.Single, ordering = false),
      "+BiDir"  -> EveConfig(pruning = true, search = Bfs.SearchMode.BiDir, ordering = false),
      "naive"   -> EveConfig.Naive,
    )

    private val graphs = Seq(
      "uniform"   -> GraphGen.uniform(120, 330, 7),
      "power-law" -> GraphGen.powerLaw(300, 900, alpha = 0.9, seed = 11),
    )

    for ((cfgName, cfg) <- configs; (gName, g) <- graphs; k <- 2 to 8) {
      test(s"Eve.run equals the global-graph layer replica ($cfgName, $gName, k=$k)") {
        // Reachable queries, plus pairs that k may not connect.
        val queries = GraphGen.queries(g, k, 6, seed = k * 31L) ++ Seq((1, g.n - 2), (g.n - 1, 0))
        for ((s, t) <- queries) {
          val r   = Eve.run(g, s, t, k, cfg)
          val ref = replica(g, s, t, k, cfg)
          val q   = s"($s,$t)"
          assert(r.edges.sameElements(ref.edges), q)
          if (ref.ub == null) assert(r.upperBound.numEdges == 0, q)
          else {
            assert(r.upperBound.edges.sameElements(ref.ub.edges), q)
            assert(r.upperBound.labels.sameElements(ref.ub.labels), q)
          }
          val st = r.stats
          assert(st.upperEdges == (if (ref.ub == null) 0 else ref.ub.numEdges), q)
          assert(st.definiteEdges == ref.definite, q)
          assert(st.verifySteps == ref.steps, q)
          assert(st.witnessSkipped == ref.skipped, q)
          assert(st.verifyMaxFrames == ref.maxFrames, q)
          assert(st.backwardSkipped == ref.noBackward, q)
          assert(st.evFrontier == ref.frontier, q)
          assert(st.evMerges == ref.merges, q)
          assert(st.departures == ref.departures && st.arrivals == ref.arrivals, q)
        }
      }
    }
}
