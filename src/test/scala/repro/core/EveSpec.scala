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
}
