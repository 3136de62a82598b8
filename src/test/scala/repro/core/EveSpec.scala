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
        val dF = Bfs.bounded(g.outAdj, g.n, s, k)
        val dB = Bfs.bounded(g.inAdj, g.n, t, k)
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

  /** `Eve.run` against a replica of its layer calls on the global graph: the
    * configuration's distances, both propagations, Algorithm 2 and, for k > 4,
    * the verifier. Whatever graph `Eve.run` runs its phases on, the SPG, the
    * upper bound and the work counters must come out identical.
    */

    private final class Replica(val edges: Array[Long], val ub: UpperBoundGraph, val definite: Int,
                                val steps: Long, val skipped: Int, val maxFrames: Long)

    private def replica(g: LocalGraph, s: Int, t: Int, k: Int, cfg: EveConfig): Replica = {
      val d = Bfs.distances(g, s, t, k, cfg.search)
      if (d.fromS(t) > k)
        return new Replica(Array.emptyLongArray, null, 0, 0, 0, 0)
      val evF = EssentialVertices.propagate(g, s, t, k, d.fromAll, cfg.pruning)
      val evB = EssentialVertices.propagate(g.reverse, t, s, k, d.toAll, cfg.pruning)
      val ub  = EdgeLabeling.upperBound(g, s, t, k, d, evF, evB)
      val definite = ub.labels.count(_ == EdgeLabel.Definite)
      if (k <= 4) new Replica(ub.edges, ub, definite, 0, 0, 0)
      else {
        val v = new Verifier(ub, Boundary.compute(ub), cfg.ordering, Deadline.None)
        val edges = v.spgEdges()
        new Replica(edges, ub, definite, v.steps, v.skipped, v.maxSteps)
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
        }
      }
    }
}
