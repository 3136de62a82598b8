package repro.baselines

import repro.SparkSpec
import repro.core.{Bfs, EdgeLabeling, EssentialVertices, LocalGraph, PaperGraph}
import repro.data.GraphGen

class KhsqSpec extends SparkSpec {

  /** Reference: edges on some ≤k s-t walk, via full bounded BFS. */
  private def reference(g: LocalGraph, s: Int, t: Int, k: Int): Set[Long] = {
    val dF = Bfs.bounded(g.outOff, g.outDst, s, k)
    val dB = Bfs.bounded(g.inOff, g.inSrc, t, k)
    g.edges.collect {
      case (u, v) if dF(u) + 1 + dB(v) <= k => LocalGraph.enc(u, v)
    }.toSet
  }

  for (seed <- 0 until 10; k <- Seq(3, 5, 7)) {
    test(s"KHSQ subgraph equals the distance-window definition (seed=$seed k=$k)") {
      for (g <- Seq(GraphGen.uniform(20, 60, seed * 23 + k), GraphGen.powerLaw(30, 90, 0.9, seed * 23 + k))) {
        val s = seed % g.n; val t = (seed * 3 + 4) % g.n
        if (s != t) {
          val ref = reference(g, s, t, k)
          assert(Khsq.edges(g, s, t, k, plus = false) == ref)
          val index = PathEnum.buildIndex(g, s, t, k).cor
          assert(index.global(index.graph.encodedEdges).toSet == ref, "PathEnum index")
          val d   = Bfs.distances(g, s, t, k, Bfs.SearchMode.Adaptive)
          val evF = EssentialVertices.propagate(g, s, t, k, d.fromAll, pruning = true)
          val evB = EssentialVertices.propagate(g.reverse, t, s, k, d.toAll, pruning = true)
          assert(EdgeLabeling.upperBound(g, s, t, k, d, evF, evB).edges.toSet.subsetOf(ref), "SPGu")
        }
      }
    }
    test(s"KHSQ+ equals KHSQ (seed=$seed k=$k)") {
      val g = GraphGen.powerLaw(25, 70, 0.9, seed * 29 + k)
      val s = seed % g.n; val t = (seed * 7 + 2) % g.n
      if (s != t) {
        assert(Khsq.edges(g, s, t, k, plus = true) == Khsq.edges(g, s, t, k, plus = false))
      }
    }
  }

  test("G^k_st contains SPG_k and non-simple-cycle edges SPG excludes") {
    import PaperGraph._
    val k   = 6
    val gst = Khsq.edges(graph, s, t, k, plus = true)
    val spg = BruteForce.spg(graph, s, t, k)
    assert(spg.subsetOf(gst))
    // e(b,a) is on a ≤6 s-t *walk* (s,c,b,a,c,t reuses c) but on no simple
    // path — the gap between G^k_st and SPG_k that Table 5 exploits.
    assert(gst.contains(LocalGraph.enc(b, a)))
    assert(!spg.contains(LocalGraph.enc(b, a)))
  }

  test("enumeration over G^k_st preserves the simple path count") {
    import PaperGraph._
    for (k <- 3 to 7) {
      val sub = Khsq.subgraph(graph, s, t, k, plus = true)
      assert(PathEnum.count(sub, s, t, k) == BruteForce.countSimplePaths(graph, s, t, k), s"k=$k")
    }
  }

  test("unreachable pair yields an empty subgraph") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    assert(Khsq.edges(g, 0, 3, 5, plus = false).isEmpty)
    assert(Khsq.edges(g, 0, 3, 5, plus = true).isEmpty)
  }
}
