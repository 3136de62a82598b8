package repro.core

import repro.SparkSpec
import repro.data.GraphGen

/** [[Corridor]] against its definition: the vertices with
  * Δ(s,y)+Δ(y,t) ≤ k, the window edges Δ(s,u)+1+Δ(v,t) ≤ k, and the exact
  * distances, for every search mode; all from two full k-bounded BFS.
  */
class CorridorSpec extends SparkSpec {

  private val graphs = Seq(
    "uniform"   -> GraphGen.uniform(150, 420, 5),
    "power-law" -> GraphGen.powerLaw(400, 1200, alpha = 0.9, seed = 3),
  )
  private val modes = Seq(Bfs.SearchMode.Single, Bfs.SearchMode.BiDir, Bfs.SearchMode.Adaptive)

  /** The corridor of (s, t) under `mode` against the reference. */
  private def checkCorridor(g: LocalGraph, s: Int, t: Int, k: Int, mode: Bfs.SearchMode): Unit = {
    val q   = s"($s,$t)"
    val cor = Corridor.of(g, s, t, k, mode)
    val dS  = Bfs.bounded(g.outOff, g.outDst, s, k)
    val dT  = Bfs.bounded(g.inOff, g.inSrc, t, k)
    assert(cor.ids.toSeq == (0 until g.n).filter(y => dS(y) + dT(y) <= k), q)
    assert((1 until cor.ids.length).forall(i => cor.ids(i - 1) < cor.ids(i)), q)
    val window = g.encodedEdges.filter(e => Bfs.inWindow(dS(LocalGraph.src(e)), dT(LocalGraph.dst(e)), k))
    assert(cor.global(cor.graph.encodedEdges).sameElements(window), q)
    val rebuilt = LocalGraph.fromEncodedEdges(cor.graph.n, cor.graph.encodedEdges)
    assert((0 until cor.graph.n).map(cor.graph.inAdj(_).toSeq) == (0 until rebuilt.n).map(rebuilt.inAdj(_).toSeq),
      s"in-lists $q")
    for (i <- cor.ids.indices) {
      val y = cor.ids(i)
      assert(cor.dists.fromS(i) == dS(y) && cor.dists.toT(i) == dT(y), s"$q at $y")
      assert(cor.local(y) == i, s"$q at $y")
    }
    assert((0 until g.n).filterNot(cor.ids.contains).forall(cor.local(_) == -1), q)
  }

  for ((gName, g) <- graphs; mode <- modes; k <- 1 to 8) {
    test(s"corridor vertices, window edges and distances ($gName, $mode, k=$k)") {
      for ((s, t) <- GraphGen.queries(g, k, 5, seed = k * 7L) :+ ((0, g.n - 1))) checkCorridor(g, s, t, k, mode)
    }
  }

  test("a corridor around a hub allocates for its own few vertices, not for the hub's reach or out-degree") {
    // s has 10,000 out-edges to dead ends and a two-hop path to t.
    val leaves = 10000
    val (s, a, t) = (0, leaves + 1, leaves + 2)
    val g = LocalGraph.fromEdges(leaves + 3, (1 to leaves).map(s -> _) ++ Seq(s -> a, a -> t))
    val k = 3
    assert(Eve.run(g, s, t, k).stats.bfsReachedF > leaves, "the Adaptive search expands s")
    checkCorridor(g, s, t, k, Bfs.SearchMode.Adaptive)
    assert(Corridor.of(g, s, t, k, Bfs.SearchMode.Adaptive).ids.toSeq == Seq(s, a, t))
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    def pass(calls: Int): Long = {
      val a0 = mx.getCurrentThreadAllocatedBytes
      var i = 0
      while (i < calls) { Corridor.of(g, s, t, k, Bfs.SearchMode.Adaptive); i += 1 }
      mx.getCurrentThreadAllocatedBytes - a0
    }
    pass(3) // the thread's scratch and its visit lists at their final size
    val perCall = pass(10) / 10
    info(s"Corridor.of allocates $perCall bytes per call")
    // One Int per leaf alone would be 40,000 bytes.
    assert(perCall < 4 * 1024, s"$perCall bytes per Corridor.of call")
  }
}
